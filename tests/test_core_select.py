"""First-to-fire selection: the tie-only fused path against the reference.

``select_first_to_fire_into`` and ``select_first_to_fire_chains_into``
take each row's first minimum and sort the tie-break uniforms of only
the rows that tie, unless the caller's active-lane count says most lanes
fire, in which case they build the reference's dense keys.  Either way
the winners and the RNG end state must equal the reference
:func:`select_first_to_fire`, which these tests check at stage level
(tie policies × TTF dtypes × row shapes × both sides of the gate) and at
solver level, where the telemetry counters prove which branch ran.
"""

import numpy as np
import pytest

from repro.apps.common import make_backend
from repro.core import (
    SampleScratch,
    label_distance_matrix,
    legacy_design_config,
    new_design_config,
    select_first_to_fire,
    select_first_to_fire_chains_into,
    select_first_to_fire_into,
)
from repro.core.rsu import RSUGSampler
from repro.mrf import EnsembleSolver, GeometricSchedule, GridMRF, MCMCSolver
from repro.obs import telemetry as obs
from repro.util.errors import DataError

POLICIES = ["first", "last", "random"]
DTYPES = [np.int32, np.int64, np.float64]
#: active_lanes values: direct caller, sparse side, dense side of the gate.
GATES = {"none": lambda size: None, "sparse": lambda size: 0, "dense": lambda size: size}
FULL_SCALE = 12.0


def ttf_block(dtype, n_labels, seed=0, rows=40):
    """TTF rows mixing unique minima, partial and full ties, and (for
    ``float_time``) finite ties and rows cut off entirely."""
    rng = np.random.default_rng(seed)
    if np.issubdtype(dtype, np.floating):
        ttf = rng.exponential(size=(rows, n_labels))
        ttf[rng.random(ttf.shape) < 0.5] = np.inf
        ttf[:4] = np.inf  # every lane cut off
        ttf[4:6] = 2.5  # a finite tie goes to the first index
        return ttf
    ttf = rng.integers(1, 5, size=(rows, n_labels)).astype(dtype)
    ttf[:4] = 34  # every lane at the cut-off bin
    ttf[4:8] = np.arange(n_labels, dtype=dtype)  # unique minimum
    return ttf


def reference(ttf, policy, seed):
    rng = np.random.default_rng(seed)
    return select_first_to_fire(ttf, policy, rng), rng.bit_generator.state


@pytest.mark.parametrize("gate", list(GATES))
@pytest.mark.parametrize("n_labels", [1, 2, 7, 30])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("policy", POLICIES)
def test_select_into_matches_reference(policy, dtype, n_labels, gate):
    ttf = ttf_block(dtype, n_labels)
    expected, state = reference(ttf, policy, 9)
    rng = np.random.default_rng(9)
    out = np.empty(ttf.shape[0], dtype=np.intp)
    select_first_to_fire_into(
        ttf, policy, rng, out, SampleScratch(), active_lanes=GATES[gate](ttf.size)
    )
    np.testing.assert_array_equal(out, expected)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("gate", list(GATES))
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("policy", POLICIES)
def test_chains_into_matches_sequential_reference(policy, dtype, gate):
    chains = 3
    ttf = np.stack([ttf_block(dtype, 6, seed=k) for k in range(chains)])
    expected = [reference(ttf[k], policy, 20 + k) for k in range(chains)]
    rngs = [np.random.default_rng(20 + k) for k in range(chains)]
    out = np.empty(ttf.shape[:2], dtype=np.intp)
    select_first_to_fire_chains_into(
        ttf, policy, rngs, out, SampleScratch(), active_lanes=GATES[gate](ttf.size)
    )
    for k in range(chains):
        np.testing.assert_array_equal(out[k], expected[k][0])
        assert rngs[k].bit_generator.state == expected[k][1]


def test_scratch_is_reused_across_tie_counts():
    # Tie counts differ call to call; the pool must not grow per count.
    scratch = SampleScratch()
    out = np.empty(40, dtype=np.intp)
    rng = np.random.default_rng(1)
    select_first_to_fire_into(ttf_block(np.int32, 6, seed=0), "random", rng, out, scratch)
    held = scratch.nbytes
    for seed in range(1, 6):
        select_first_to_fire_into(
            ttf_block(np.int32, 6, seed=seed), "random", rng, out, scratch
        )
    assert scratch.nbytes == held


def test_unknown_policy_raises_without_drawing():
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    with pytest.raises(DataError):
        select_first_to_fire_into(
            np.ones((2, 3), dtype=np.int32), "coinflip", rng,
            np.empty(2, dtype=np.intp), SampleScratch(),
        )
    assert rng.bit_generator.state == state


# ---------------------------------------------------------------------------
# Solver level: the gate as the RSU pipeline drives it
# ---------------------------------------------------------------------------


def tiny_model(shape=(12, 14), n_labels=6):
    rng = np.random.default_rng(0)
    unary = rng.random(shape + (n_labels,))
    return GridMRF(unary, label_distance_matrix(n_labels, "binary"), 1.2)


def solve(config, fused, schedule):
    sampler = make_backend("rsu", FULL_SCALE, seed=7, config=config)
    solver = MCMCSolver(tiny_model(), sampler, schedule, seed=3, use_fused=fused)
    return solver.run(10)


def branch_counts(run):
    """``run()``'s result and its selection calls per branch; every run
    here must also resolve some rows by the tie order."""
    with obs.use_telemetry() as tel:
        result = run()
    assert tel.value("select.ordered_rows") > 0
    return result, tel.value("select.dense_calls"), tel.value("select.tie_only_calls")


@pytest.mark.parametrize(
    "config, schedule, branches",
    [
        # Low temperature: the cut-off leaves most lanes inactive.
        (new_design_config(), GeometricSchedule(0.3, 0.85), {"tie_only"}),
        # No scaling: whole rows fall under the cut-off and all tie.
        (new_design_config().with_(scaling=False), GeometricSchedule(1.0, 0.85),
         {"tie_only"}),
        (new_design_config().with_(scaling=False, float_time=True),
         GeometricSchedule(1.0, 0.85), {"tie_only"}),
        # No cut-off: every lane fires and nearly every row ties.
        (legacy_design_config(), GeometricSchedule(4.0, 0.85), {"dense"}),
        # Annealing from a hot start crosses the gate mid-solve.
        (new_design_config(), GeometricSchedule(40.0, 0.5), {"dense", "tie_only"}),
    ],
    ids=["new_cold", "no_scaling", "no_scaling_float", "legacy", "new_annealed"],
)
def test_fused_solve_matches_reference_on_each_branch(config, schedule, branches):
    fused, dense, tie_only = branch_counts(lambda: solve(config, True, schedule))
    reference = solve(config, False, schedule)
    np.testing.assert_array_equal(fused.labels, reference.labels)
    assert fused.energy_history == reference.energy_history
    ran = {name for name, calls in (("dense", dense), ("tie_only", tie_only)) if calls}
    assert ran == branches


def test_batched_ensemble_matches_reference_solvers_on_both_branches():
    config = new_design_config()
    schedule = GeometricSchedule(40.0, 0.5)

    def factory(index):
        return make_backend("rsu", FULL_SCALE, seed=100 + index, config=config)

    batched, dense, tie_only = branch_counts(
        lambda: EnsembleSolver(
            tiny_model(), factory, schedule, chains=3, seed=7, use_batched=True
        ).run(10)
    )
    assert dense and tie_only
    for index in range(3):
        solo = MCMCSolver(
            tiny_model(), factory(index), schedule, seed=7, use_fused=False
        ).run(10)
        np.testing.assert_array_equal(batched.chain_labels[index], solo.labels)


@pytest.mark.parametrize("chains", [1, 3])
@pytest.mark.parametrize("policy, per_lane", [("random", 2), ("first", 1)])
def test_metered_uniforms_count_every_block_drawn(policy, per_lane, chains):
    # One TTF uniform per lane, plus one tie-break uniform per lane under
    # ``random``: entropy.uniforms must count both blocks.
    config = new_design_config().with_(tie_policy=policy)

    def factory(index):
        return make_backend("rsu", FULL_SCALE, seed=100 + index, config=config)

    with obs.use_telemetry() as tel:
        EnsembleSolver(
            tiny_model(), factory, GeometricSchedule(1.0, 0.85), chains=chains, seed=7
        ).run(10)
    lanes = tel.value("sampler.samples") * tiny_model().n_labels
    assert lanes == chains * 10 * 12 * 14 * 6
    assert tel.value("entropy.uniforms") == per_lane * lanes
    assert tel.value("entropy.tie_draws") == (per_lane - 1) * lanes


# ---------------------------------------------------------------------------
# NaN energies
# ---------------------------------------------------------------------------


def sampler(seed=7):
    return make_backend("rsu", FULL_SCALE, seed=seed, config=new_design_config())


def entry_points(energies):
    """Run ``energies`` through sample, sample_into and sample_chains_into."""
    rows = energies.shape[0]
    return {
        "sample": lambda: sampler().sample(energies, 1.0),
        "sample_into": lambda: sampler().sample_into(
            energies, 1.0, np.empty(rows, dtype=np.int64), SampleScratch()
        ),
        "sample_chains_into": lambda: RSUGSampler.sample_chains_into(
            [sampler(7), sampler(8)], np.stack([energies, energies]), [1.0, 1.0],
            np.empty((2, rows), dtype=np.int64), SampleScratch(),
        )[0],
    }


@pytest.mark.parametrize("entry", ["sample", "sample_into", "sample_chains_into"])
def test_nan_energy_raises_data_error(entry):
    energies = np.random.default_rng(0).random((6, 5)) * FULL_SCALE
    energies[3, 2] = np.nan
    with pytest.raises(DataError, match="NaN"):
        entry_points(energies)[entry]()


def test_infinite_energies_clip_onto_the_grid_on_every_path():
    energies = np.random.default_rng(0).random((6, 5)) * FULL_SCALE
    energies[1, 0] = np.inf
    energies[4, 3] = -np.inf
    labels = [run() for run in entry_points(energies).values()]
    for other in labels[1:]:
        np.testing.assert_array_equal(other, labels[0])
