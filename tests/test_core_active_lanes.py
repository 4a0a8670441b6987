"""The active-lane RSU-G stages against the dense reference pipeline.

The fused conversion finds the lanes that can fire with one boundary
compare, and the TTF and first-to-fire stages then work on those lanes
alone, handing the dense ``(rows, labels)`` blocks on only as stage
boundaries.  The reference is ``lambda_codes`` -> ``TTFSampler.sample``
-> ``select_first_to_fire`` on each chain's own generator.  Winners,
every generator's end state and the dense codes and TTFs the stages
hand on must match it exactly, over the design knobs that change which
lanes fire or how rows tie.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.rsu
from repro.core import (
    RSUGSampler,
    SampleScratch,
    TTFSampler,
    lambda_codes,
    new_design_config,
    select_first_to_fire,
)
from repro.core.energy import EnergyStage

FULL_SCALE = 12.0
#: Raw temperatures from "almost everything cut off" to "almost nothing".
TEMPERATURES = [0.02, 0.3, 1.5, 40.0]


def reference(config, energies, temperatures, seeds):
    """Per-chain codes, TTFs, winners and generator end states."""
    stage = EnergyStage(config.energy_bits, FULL_SCALE)
    codes, ttfs, winners, states = [], [], [], []
    for chain_energies, temperature, seed in zip(energies, temperatures, seeds):
        rng = np.random.default_rng(seed)
        t_grid = stage.quantized_temperature(temperature)
        chain_codes = lambda_codes(stage.quantize(chain_energies), t_grid, config)
        ttf = TTFSampler(config, rng).sample(chain_codes)
        winners.append(select_first_to_fire(ttf, config.tie_policy, rng))
        codes.append(chain_codes)
        ttfs.append(ttf)
        states.append(rng.bit_generator.state)
    return np.stack(codes), np.stack(ttfs), np.stack(winners), states


def fused(config, energies, temperatures, seeds):
    """The fused pipeline, with the dense blocks its TTF and selection
    stages were handed (K=1 through ``sample_into``, else the chain path)."""
    samplers = [
        RSUGSampler(config, FULL_SCALE, np.random.default_rng(seed)) for seed in seeds
    ]
    seen = {}

    def spy(name, original, position):
        def wrapper(*args, **kwargs):
            seen[name] = np.array(args[position])
            return original(*args, **kwargs)

        return wrapper

    chains = len(seeds)
    out = np.empty(energies.shape[:2], dtype=np.int64)
    scratch = SampleScratch()
    if chains == 1:
        with mock.patch.object(
            TTFSampler, "sample_into", spy("codes", TTFSampler.sample_into, 1)
        ), mock.patch.object(
            repro.core.rsu, "select_first_to_fire_into",
            spy("ttf", repro.core.rsu.select_first_to_fire_into, 0),
        ):
            samplers[0].sample_into(energies[0], temperatures[0], out[0], scratch)
    else:
        with mock.patch.object(
            TTFSampler, "sample_chains_into",
            staticmethod(spy("codes", TTFSampler.sample_chains_into, 1)),
        ), mock.patch.object(
            repro.core.rsu, "select_first_to_fire_chains_into",
            spy("ttf", repro.core.rsu.select_first_to_fire_chains_into, 0),
        ):
            RSUGSampler.sample_chains_into(
                samplers, energies, temperatures, out, scratch
            )
    states = [sampler._rng.bit_generator.state for sampler in samplers]
    shape = energies.shape
    return seen["codes"].reshape(shape), seen["ttf"].reshape(shape), out, states


@settings(max_examples=120)
@given(
    seed=st.integers(0, 2**16),
    rows=st.integers(1, 12),
    labels=st.integers(1, 9),
    chains=st.sampled_from([1, 3]),
    temperature=st.sampled_from(TEMPERATURES),
    mixed_ladder=st.booleans(),
    scaling=st.booleans(),
    cutoff=st.booleans(),
    time=st.sampled_from(["truncate", "clamp", "float"]),
    tie_policy=st.sampled_from(["first", "last", "random"]),
)
# Scaling off at a cold temperature: most rows have no active lane and
# tie at the cut-off bin (or +inf) across all their lanes.
@example(3, 12, 6, 1, 0.02, False, False, True, "truncate", "random")
@example(3, 12, 6, 3, 0.02, True, False, True, "float", "last")
# No cut-off: every lane fires, so random selection takes the dense keys.
@example(5, 10, 7, 1, 1.5, False, True, False, "truncate", "random")
@example(5, 10, 7, 3, 40.0, True, True, False, "clamp", "random")
# One label per row.
@example(7, 9, 1, 3, 0.3, True, False, True, "truncate", "random")
def test_active_lane_stages_match_reference(
    seed, rows, labels, chains, temperature, mixed_ladder, scaling, cutoff, time,
    tie_policy,
):
    config = new_design_config().with_(
        scaling=scaling,
        cutoff=cutoff,
        clamp_to_tmax=time == "clamp",
        float_time=time == "float",
        tie_policy=tie_policy,
    )
    rng = np.random.default_rng(seed)
    energies = rng.random((chains, rows, labels)) * FULL_SCALE
    # A few rows sit near the top of the grid, where an unscaled
    # conversion cuts every lane off.
    energies[:, rng.random(rows) < 0.3] += FULL_SCALE
    temperatures = [temperature] * chains
    if mixed_ladder:
        # A different grid temperature, and so a different cut, per chain.
        temperatures = [temperature * 3.0**k for k in range(chains)]
    seeds = [seed + 100 * k for k in range(chains)]

    codes, ttf, winners, states = reference(config, energies, temperatures, seeds)
    got_codes, got_ttf, got_winners, got_states = fused(
        config, energies, temperatures, seeds
    )
    np.testing.assert_array_equal(got_codes, codes)
    np.testing.assert_array_equal(got_ttf, ttf)
    np.testing.assert_array_equal(got_winners, winners)
    assert got_states == states


def test_scratch_hands_lanes_on_once_and_only_for_their_block():
    scratch = SampleScratch()
    block = np.empty((2, 3), dtype=np.uint8)
    scratch.put_lanes(block, np.array([1, 4]), np.array([8, 2]), 0)
    np.testing.assert_array_equal(block, [[0, 8, 0], [0, 2, 0]])
    # Another array never sees the record, and asking drops it.
    assert scratch.take_lanes(block.copy()) is None
    assert scratch.take_lanes(block) is None
    scratch.put_lanes(block, np.array([0]), np.array([1]), 0)
    lanes = scratch.take_lanes(block)
    assert lanes.index.tolist() == [0] and lanes.values.tolist() == [1]
    assert scratch.take_lanes(block) is None
