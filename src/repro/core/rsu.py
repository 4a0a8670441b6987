"""RSU-G functional simulators: the new design and the previous one.

These backends replace the float sampling inner loop of the MCMC solver
with bit-accurate RSU-G semantics: quantize the energy
(``Energy_bits``), convert it to an integer decay-rate code
(``Lambda_bits`` with optional scaling / cut-off / 2^n approximation),
draw a binned exponential TTF (``Time_bits``, ``Truncation``) per
label, and select the first label to fire.

Three byte-identical sampling paths exist, RNG consumption included:
the reference :meth:`~SamplerBackend.sample` (allocates its
intermediates, the oracle for regressions), the fused
:meth:`~SamplerBackend.sample_into` that the sweep workspace calls at
K=1 (single-chain solves), and the chain-batched
:meth:`~SamplerBackend.sample_chains_into` it calls for K > 1 chains.
The 2-D path and its 2-D stage functions (``TTFSampler.sample_into``,
``select_first_to_fire_into``) stay separate from their chain twins
because the benchmark's traced run wraps them by name to time the
RSU-G stages of a single-chain solve.  The fused paths chain
quantize -> LUT gather -> TTF -> first-to-fire through reusable
workspace buffers.  The conversion finds the lanes that can fire (a
nonzero code) with one boundary compare, and the TTF and selection
stages work on those lanes alone; each stage still leaves its dense,
narrow-dtype block as the boundary the next stage is called with.  The
TTF stage returns how many lanes are active; selection uses it to
choose between resolving rows from their active lanes (at most half
the lanes active) and the dense keys (most lanes active, most rows
tied).  A NaN energy raises :class:`~repro.util.errors.DataError` on
every path.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core import convert
from repro.core.base import (
    SamplerBackend,
    SampleScratch,
    record_sampler_batch,
    select_first_to_fire,
    select_first_to_fire_chains_into,
    select_first_to_fire_into,
)
from repro.core.convert import (
    conversion_lut,
    lambda_codes,
    lambda_codes_lut,
    lambda_codes_lut_into,
    lambda_codes_lut_stacked_into,
    stacked_conversion_lut,
)
from repro.core.energy import EnergyStage
from repro.core.params import RSUConfig, legacy_design_config, new_design_config
from repro.core.ttf import TTFSampler
from repro.rng.streams import generator_state, set_generator_state
from repro.util.errors import DataError
from repro.util.validation import check_positive


class RSUGSampler(SamplerBackend):
    """Functional model of an RSU-G unit with an arbitrary design point.

    Parameters
    ----------
    config:
        The design point to simulate (see :class:`RSUConfig`).
    energy_full_scale:
        Raw energy mapping to the top of the ``Energy_bits`` grid;
        applications derive it from their MRF model's maximum energy.
    rng:
        Generator supplying the RET entropy (and random tie-breaks).
    ttf_sampler:
        Optional replacement for the RET-circuit stage model, e.g. a
        :class:`repro.core.nonideal.NoisyTTFSampler` for failure
        injection.  Defaults to the ideal :class:`TTFSampler`.
    use_lut:
        Force the memoized-LUT conversion fast path on (True) or off
        (False) for this sampler; ``None`` (default) follows the global
        :func:`repro.core.convert.lut_enabled` switch.  Both paths are
        bit-identical; the knob exists so benchmarks can time them.
    """

    name = "rsu"

    def __init__(
        self,
        config: RSUConfig,
        energy_full_scale: float,
        rng: np.random.Generator,
        ttf_sampler: Optional[TTFSampler] = None,
        use_lut: Optional[bool] = None,
    ):
        self.config = config
        self.energy_stage = EnergyStage(config.energy_bits, energy_full_scale)
        self._ttf = ttf_sampler if ttf_sampler is not None else TTFSampler(config, rng)
        self._rng = rng
        self.use_lut = use_lut
        # The fused path may only shortcut the TTF stage when the ideal
        # sampler semantics apply; a replacement stage (noise injection,
        # fault models) overriding ``sample`` must keep its own path.
        self._ttf_fusable = type(self._ttf).sample is TTFSampler.sample
        # Per-(temperature, lut-switch) stage constants, hoisted out of
        # the per-colour-class loop: one annealing step touches the
        # quantized temperature and conversion table twice (once per
        # checkerboard class) with identical values.
        self._stage_cache: Optional[Tuple[float, bool, float, Optional[np.ndarray]]] = None

    def getstate(self) -> dict:
        """Snapshot the selection rng and the TTF stage's entropy stream.

        The two are usually one shared :class:`numpy.random.Generator`;
        both snapshots are taken at the same instant, so restoring both
        is correct whether or not they alias.
        """
        return {"rng": generator_state(self._rng), "ttf": self._ttf.getstate()}

    def setstate(self, state: dict) -> None:
        set_generator_state(self._rng, state["rng"])
        self._ttf.setstate(state["ttf"])

    def _stage_constants(self, temperature: float) -> Tuple[float, Optional[np.ndarray]]:
        """(grid temperature, conversion table or None) for this call."""
        lut = self.use_lut if self.use_lut is not None else convert.lut_enabled()
        cached = self._stage_cache
        if cached is not None and cached[0] == temperature and cached[1] == lut:
            return cached[2], cached[3]
        t_grid = self.energy_stage.quantized_temperature(temperature)
        table = conversion_lut(t_grid, self.config) if lut else None
        self._stage_cache = (temperature, lut, t_grid, table)
        return t_grid, table

    def codes_for(self, energies: np.ndarray, temperature: float) -> np.ndarray:
        """Decay-rate codes the unit would use (exposed for analysis)."""
        quantized = self.energy_stage.quantize(energies)
        t_grid = self.energy_stage.quantized_temperature(temperature)
        lut = self.use_lut if self.use_lut is not None else convert.lut_enabled()
        if lut:
            return lambda_codes_lut(quantized, t_grid, self.config)
        return lambda_codes(quantized, t_grid, self.config)

    def _sample_batch(self, energies: np.ndarray, temperature: float) -> np.ndarray:
        codes = self.codes_for(energies, temperature)
        ttf = self._ttf.sample(codes)
        return select_first_to_fire(ttf, self.config.tie_policy, self._rng)

    def sample_into(
        self,
        energies: np.ndarray,
        temperature: float,
        out: np.ndarray,
        scratch: SampleScratch,
    ) -> np.ndarray:
        """Fused RSU pipeline through workspace buffers (byte-identical).

        quantize -> (LUT gather | direct conversion) -> TTF -> select,
        with zero steady-state allocations on the default LUT path.  The
        direct (``use_lut`` off) conversion keeps calling
        :func:`lambda_codes` — it exists for A/B timing, not speed — and
        a replaced TTF stage (e.g. noise injection) falls back to the
        reference path wholesale so its semantics are preserved.
        """
        if not self._ttf_fusable:
            return super().sample_into(energies, temperature, out, scratch)
        if energies.ndim != 2 or energies.shape[1] < 1 or energies.shape[0] < 1:
            raise DataError(
                f"energies must be (n_sites, n_labels), got shape {energies.shape}"
            )
        check_positive("temperature", temperature)
        record_sampler_batch(energies.shape[0])
        temperature = float(temperature)
        t_grid, table = self._stage_constants(temperature)
        shape = energies.shape
        quantized, codes, ttf = self._stage_buffers(shape, scratch)
        work = scratch.buf("rsu_quantize_work", shape, np.float64)
        self.energy_stage.quantize_into(energies, quantized, work)
        if table is not None:
            lambda_codes_lut_into(quantized, table, self.config, codes, scratch)
        else:
            np.copyto(
                codes, lambda_codes(quantized, t_grid, self.config), casting="unsafe"
            )
        active_lanes = self._ttf.sample_into(codes, ttf, scratch)
        return select_first_to_fire_into(
            ttf, self.config.tie_policy, self._rng, out, scratch,
            active_lanes=active_lanes,
        )

    def _stage_buffers(self, shape: tuple, scratch: SampleScratch):
        """The dense stage boundaries: quantized energies, decay-rate
        codes and TTFs, each in the narrowest dtype that holds it.

        Energies and codes are small unsigned integers (``Energy_bits``
        and ``Lambda_bits`` wide).  TTF bins are signed and sized so the
        dense selection keys ``ttf * n_labels + order`` fit as well.
        Narrow blocks cut the memory traffic of every dense fill and
        compare; the values, and so the selected labels, are unchanged.
        """
        config = self.config
        quantized = scratch.buf(
            "rsu_quantized", shape, np.min_scalar_type(self.energy_stage.grid_max)
        )
        codes = scratch.buf("rsu_codes", shape, np.min_scalar_type(config.lambda_max_code))
        if config.float_time:
            ttf_dtype = np.float64
        else:
            key_bound = (config.time_bins + 2 + 1) * shape[-1]
            ttf_dtype = next(
                dtype for dtype in (np.int8, np.int16, np.int32, np.int64)
                if key_bound <= np.iinfo(dtype).max
            )
        return quantized, codes, scratch.buf("rsu_ttf", shape, ttf_dtype)

    @classmethod
    def sample_chains_into(
        cls,
        samplers,
        energies: np.ndarray,
        temperatures,
        out: np.ndarray,
        scratch: SampleScratch,
    ) -> np.ndarray:
        """Chain-batched RSU pipeline over a ``(K, sites, labels)`` block.

        quantize -> λ-LUT gather -> TTF -> first-to-fire, each stage run
        once over the stacked block with one RNG stream per chain.  The
        energy quantization is elementwise; the active lanes gather
        their codes from a :func:`stacked_conversion_lut` with per-chain
        offsets (one table slice per chain temperature, so a tempering
        ladder has a cut-off per chain); the TTF and selection stages
        fill per-chain entropy slabs and batch the rest.  Byte-identical
        to K sequential :meth:`sample_into` calls.

        Chains whose design points differ — different config, energy
        stage, replaced TTF stage, or mixed LUT switches — fall back to
        the base per-chain loop, which is byte-identical by the
        :meth:`sample_into` contract.
        """
        first = samplers[0]
        compatible = all(
            sampler._ttf_fusable
            and sampler.config == first.config
            and sampler.energy_stage == first.energy_stage
            and sampler._ttf.config == first._ttf.config
            for sampler in samplers
        )
        if not compatible:
            return super().sample_chains_into(
                samplers, energies, temperatures, out, scratch
            )
        if energies.ndim != 3 or energies.shape[2] < 1 or energies.shape[1] < 1:
            raise DataError(
                f"energies must be (chains, n_sites, n_labels), got shape {energies.shape}"
            )
        for temperature in temperatures:
            check_positive("temperature", temperature)
        constants = [
            sampler._stage_constants(float(temperature))
            for sampler, temperature in zip(samplers, temperatures)
        ]
        if len({table is None for _, table in constants}) > 1:
            # Mixed per-sampler LUT switches: no single batched gather
            # reproduces both paths; the per-chain loop does.
            return super().sample_chains_into(
                samplers, energies, temperatures, out, scratch
            )
        shape = energies.shape
        record_sampler_batch(shape[0] * shape[1])
        quantized, codes, ttf = first._stage_buffers(shape, scratch)
        work = scratch.buf("rsu_quantize_work", shape, np.float64)
        first.energy_stage.quantize_into(energies, quantized, work)
        t_grids = [t_grid for t_grid, _ in constants]
        if constants[0][1] is not None:
            table = stacked_conversion_lut(t_grids, first.config)
            lambda_codes_lut_stacked_into(
                quantized, table, first.config, codes, scratch
            )
        else:
            for index, t_grid in enumerate(t_grids):
                np.copyto(
                    codes[index],
                    lambda_codes(quantized[index], t_grid, first.config),
                    casting="unsafe",
                )
        active_lanes = TTFSampler.sample_chains_into(
            [sampler._ttf for sampler in samplers], codes, ttf, scratch
        )
        return select_first_to_fire_chains_into(
            ttf,
            first.config.tie_policy,
            [sampler._rng for sampler in samplers],
            out,
            scratch,
            active_lanes=active_lanes,
        )


class NewRSUG(RSUGSampler):
    """The paper's new design point (Sec. III-D / IV)."""

    name = "new_rsug"

    def __init__(self, energy_full_scale: float, rng: np.random.Generator, **overrides):
        super().__init__(new_design_config(**overrides), energy_full_scale, rng)


class LegacyRSUG(RSUGSampler):
    """The previously proposed design (Wang et al. 2016 semantics)."""

    name = "prev_rsug"

    def __init__(self, energy_full_scale: float, rng: np.random.Generator, **overrides):
        super().__init__(legacy_design_config(**overrides), energy_full_scale, rng)
