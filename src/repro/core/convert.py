"""Energy-to-lambda conversion stage (stage 3 of the RSU-G pipeline).

Implements Eq. 2 (``lambda = exp(-E / T)``) under the paper's integer
code space, with the three techniques the new design introduces:

* **decay-rate scaling** — subtract the per-variable minimum energy so
  the best label always receives the maximum code (Eq. 4);
* **probability cut-off** — codes that would fall below one are set to
  zero (label never fires) instead of rounding up to ``lambda0``;
* **2^n approximation** — codes are truncated to the nearest power of
  two so the RET circuit needs only ``Lambda_bits`` unique rates.

Two hardware realizations are modeled: the LUT indexed by energy (the
previous design) and the comparison-against-boundaries scheme of
Sec. IV-B.3.  Both must produce identical codes; tests assert this.

A third, software-side fast path mirrors the LUT observation: quantized
energies take at most ``2**Energy_bits`` distinct values, so the whole
per-(temperature, config) conversion collapses to one integer table
(:func:`conversion_lut`) built with a few hundred ``exp`` calls instead
of one per (site, label).  :func:`lambda_codes_lut` performs the gather;
it is bit-identical to :func:`lambda_codes` by construction (the table
entries are computed by the very same formula) and is the default hot
path of :meth:`repro.core.rsu.RSUGSampler.codes_for`.  Disable it
globally with :func:`set_lut_enabled` or lexically with :func:`use_lut`
(the perf benchmark does this to time both paths).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from functools import lru_cache
from typing import List

import numpy as np

from repro.core.params import RSUConfig
from repro.obs import telemetry as obs
from repro.util.errors import ConfigError
from repro.util.quantize import nearest_pow2, unsigned_max


def lambda_codes(
    quantized_energy: np.ndarray, temperature: float, config: RSUConfig
) -> np.ndarray:
    """Convert quantized energies to integer decay-rate codes.

    Parameters
    ----------
    quantized_energy:
        Integer energies on the ``Energy_bits`` grid, shape
        ``(n_sites, n_labels)``.
    temperature:
        Annealing temperature in grid units (``T`` of Eq. 2).
    config:
        Design point; ``scaling``, ``cutoff`` and ``pow2_lambda`` select
        the conversion variant.

    Returns
    -------
    numpy.ndarray
        Codes in ``[0, config.lambda_max_code]``; a code of zero means
        the label is cut off and never fires.
    """
    energy = np.asarray(quantized_energy, dtype=np.float64)
    if energy.ndim != 2:
        raise ConfigError(f"quantized_energy must be 2-D, got shape {energy.shape}")
    if temperature <= 0:
        raise ConfigError(f"temperature must be positive, got {temperature}")
    scale = float(config.lambda_max_code)
    if config.scaling:
        energy = energy - energy.min(axis=1, keepdims=True)
    raw = scale * np.exp(-energy / temperature)
    if config.cutoff:
        # Truncate toward zero: anything below one is not large enough
        # to deserve lambda0 and is dropped (Sec. III-C2).
        codes = np.floor(raw).astype(np.int64)
    else:
        # Previous behaviour: round, then round sub-lambda0 values up.
        codes = np.maximum(np.rint(raw).astype(np.int64), 1)
    codes = np.minimum(codes, config.lambda_max_code)
    if config.pow2_lambda:
        codes = nearest_pow2(codes)
    return codes


#: Global switch for the memoized-LUT conversion fast path.
_LUT_ENABLED = True


def lut_enabled() -> bool:
    """Whether samplers should take the memoized-LUT conversion path."""
    return _LUT_ENABLED


def set_lut_enabled(enabled: bool) -> bool:
    """Set the global LUT switch; returns the previous value."""
    global _LUT_ENABLED
    previous = _LUT_ENABLED
    _LUT_ENABLED = bool(enabled)
    return previous


@contextmanager
def use_lut(enabled: bool):
    """Scope the LUT switch to a ``with`` block (benchmarks A/B with this)."""
    previous = set_lut_enabled(enabled)
    try:
        yield
    finally:
        set_lut_enabled(previous)


@lru_cache(maxsize=4096)
def _conversion_lut(temperature: float, config: RSUConfig) -> np.ndarray:
    energies = np.arange(unsigned_max(config.energy_bits) + 1, dtype=np.float64)
    # Scaling is a per-row index shift applied by the caller, so the
    # table itself is always the unscaled conversion of each energy.
    table = lambda_codes(energies[None, :], temperature, config.with_(scaling=False))[0]
    # exp, floor/rint, min and nearest_pow2 are all monotone, so codes
    # never rise with energy: the nonzero entries are a prefix, and the
    # fused conversion finds cut-off lanes with one boundary compare.
    if np.any(table[1:] > table[:-1]):
        raise ConfigError("conversion table must be non-increasing in energy")
    table.setflags(write=False)
    return table


def conversion_lut(temperature: float, config: RSUConfig) -> np.ndarray:
    """Memoized ``2**Energy_bits``-entry table: quantized energy -> code.

    Entry ``e`` is exactly ``lambda_codes([[e]], temperature, config)``
    without the scaling shift (which :func:`lambda_codes_lut` applies to
    the lookup index instead, Eq. 4 being a pure index translation on
    the integer energy grid).  The returned array is read-only and
    shared across calls; one annealing schedule touches one table per
    distinct temperature instead of ``exp``-ing every (site, label).
    """
    if temperature <= 0:
        raise ConfigError(f"temperature must be positive, got {temperature}")
    tel = obs.active()
    if tel is None:
        return _conversion_lut(float(temperature), config)
    before = _conversion_lut.cache_info()
    table = _conversion_lut(float(temperature), config)
    after = _conversion_lut.cache_info()
    tel.inc("convert.lut_hits", after.hits - before.hits)
    tel.inc("convert.lut_misses", after.misses - before.misses)
    return table


def lambda_codes_lut(
    quantized_energy: np.ndarray, temperature: float, config: RSUConfig
) -> np.ndarray:
    """Table-lookup conversion; bit-identical to :func:`lambda_codes`.

    ``quantized_energy`` must hold integers on the ``Energy_bits`` grid
    (the contract of :meth:`repro.core.energy.EnergyStage.quantize`).
    """
    energy = np.asarray(quantized_energy)
    if energy.ndim != 2:
        raise ConfigError(f"quantized_energy must be 2-D, got shape {energy.shape}")
    table = conversion_lut(temperature, config)
    index = energy.astype(np.int64, copy=False)
    if not np.issubdtype(energy.dtype, np.integer) and not np.array_equal(index, energy):
        raise ConfigError("lambda_codes_lut requires integer quantized energies")
    if config.scaling:
        index = index - index.min(axis=1, keepdims=True)
    if index.size and (index.min() < 0 or index.max() >= table.size):
        raise ConfigError(
            f"quantized energies out of the {config.energy_bits}-bit grid"
        )
    return table[index]


def lambda_codes_lut_into(
    quantized_energy: np.ndarray,
    table: np.ndarray,
    config: RSUConfig,
    out: np.ndarray,
    scratch,
) -> np.ndarray:
    """Fused :func:`lambda_codes_lut` over the lanes that can fire.

    ``table`` is the :func:`conversion_lut` for the target temperature
    (hoisted by the caller so one sweep fetches it once, not once per
    colour class); ``scratch`` is the fused pipeline's
    :class:`~repro.core.base.SampleScratch`.  Bit-identical to
    :func:`lambda_codes_lut`.

    The table is non-increasing in energy, so its ``cut`` nonzero
    entries are a prefix: a lane can fire exactly when
    ``energy < row_min + cut`` (``row_min`` is 0 without decay-rate
    scaling) — the comparison-based converter of Sec. IV-B.3 as one
    compare against a per-chain boundary, once the scaling shift is
    applied.  Only those lanes gather their code; ``out`` gets zeros
    with the gathered codes scattered in, and the lanes are handed on
    to the TTF stage through ``scratch``.  **Mutates**
    ``quantized_energy`` in place when ``config.scaling`` (the scaled
    energy replaces the raw one — callers on the fused path own that
    buffer and are done with it).

    The caller guarantees energies on the ``Energy_bits`` grid (the
    :meth:`~repro.core.energy.EnergyStage.quantize_into` contract); there
    is no range scan, and an energy above the grid reads as cut off.
    """
    _convert_lanes(quantized_energy[None], table[None], config, out, scratch)
    return out


@lru_cache(maxsize=256)
def _stacked_conversion_lut(temperatures: tuple, config: RSUConfig) -> np.ndarray:
    table = np.concatenate(
        [conversion_lut(temperature, config) for temperature in temperatures]
    )
    table.setflags(write=False)
    return table


def stacked_conversion_lut(temperatures, config: RSUConfig) -> np.ndarray:
    """Per-chain conversion tables concatenated along one axis (memoized).

    For K chains at (grid) temperatures ``temperatures`` the result is a
    read-only ``(K * 2**Energy_bits,)`` array whose slice
    ``[k*S:(k+1)*S]`` is exactly ``conversion_lut(temperatures[k],
    config)`` — so one gather with per-chain index offsets converts a
    whole ``(K, sites, labels)`` block (parallel tempering's ladder of
    replica temperatures) in a single NumPy call.
    """
    temps = tuple(float(t) for t in temperatures)
    if not temps:
        raise ConfigError("need at least one temperature")
    if any(t <= 0 for t in temps):
        raise ConfigError("temperatures must be positive")
    return _stacked_conversion_lut(temps, config)


def lambda_codes_lut_stacked_into(
    quantized_energy: np.ndarray,
    table: np.ndarray,
    config: RSUConfig,
    out: np.ndarray,
    scratch,
) -> np.ndarray:
    """Chain-batched :func:`lambda_codes_lut_into` over a stacked table.

    ``quantized_energy`` and ``out`` are ``(K, n_sites, n_labels)``;
    ``table`` is the :func:`stacked_conversion_lut` for the K chain
    temperatures (chain ``k`` owns the stride-``S`` slice starting at
    ``k * S``), so each chain has its own ``cut``.  Byte-identical to K
    per-chain :func:`lambda_codes_lut_into` calls: the scaling
    row-minimum is taken within each row (chains never mix), and energy
    ``e`` of chain ``k`` reads ``table[k * S + e]`` — the same entry the
    chain's own table holds.  The same grid contract applies, and
    ``quantized_energy`` is likewise scaled in place.
    """
    chains = quantized_energy.shape[0]
    _convert_lanes(
        quantized_energy, table.reshape(chains, -1), config, out, scratch
    )
    return out


def _convert_lanes(
    energy: np.ndarray, tables: np.ndarray, config: RSUConfig, out: np.ndarray, scratch
) -> None:
    """The active-lane conversion of a ``(K, sites, labels)`` block
    against ``(K, S)`` per-chain tables (see :func:`lambda_codes_lut_into`)."""
    chains, sites, labels = energy.shape
    if config.scaling:
        rows = energy.reshape(chains * sites, labels)
        np.subtract(rows, _row_minima(rows, scratch)[:, None], out=rows)
        energy = rows.reshape(energy.shape)
    # Chain k's lanes fire below its cut = count_nonzero(table k), i.e.
    # at or below cut - 1, which (unlike cut) fits the energy dtype.
    last_active = np.count_nonzero(tables, axis=1) - 1
    active = scratch.buf("convert_active", energy.shape, np.bool_)
    np.less_equal(energy, last_active.astype(energy.dtype)[:, None, None], out=active)
    # The flat indices of the active lanes, compressed into a reused
    # pool: a fresh per-call array this size makes glibc map and fault
    # new pages on every call.
    size = energy.size
    index = scratch.buf("convert_index_pool", (size,), np.intp)[
        : np.count_nonzero(active)
    ]
    np.compress(active.reshape(-1), scratch.lane_ids(size), out=index)
    lane_energy = np.take(energy.reshape(-1), index)
    if chains > 1:
        # Chain k reads its own table, the stride-S slice at k * S.
        offset = scratch.buf("convert_offset_pool", (size,), np.intp)[: index.size]
        np.floor_divide(index, sites * labels, out=offset)
        offset *= tables.shape[1]
        lane_energy = np.add(offset, lane_energy, out=offset)
    codes = np.take(tables.astype(out.dtype, copy=False).reshape(-1), lane_energy)
    scratch.put_lanes(out, index, codes, 0)


def _row_minima(energy: np.ndarray, scratch) -> np.ndarray:
    """Row minima of a 2-D block.

    A reduction along a short contiguous row pays per row; one
    transposed copy makes it a single pass down the columns.
    """
    transposed = scratch.buf("convert_transposed", energy.shape[::-1], energy.dtype)
    np.copyto(transposed, energy.T)
    row_min = scratch.buf("convert_row_min", energy.shape[:1], energy.dtype)
    return np.minimum.reduce(transposed, axis=0, out=row_min)


def boundary_table(temperature: float, config: RSUConfig) -> np.ndarray:
    """Energy boundaries for the comparison-based conversion.

    For the 2^n code set ``{lambda_max, ..., 2, 1, 0}`` the converter of
    Sec. IV-B.3 stores one energy boundary per interval: a (scaled)
    energy ``E`` receives code ``c`` iff ``E <= bound(c)`` and ``E >
    bound(2c)``.  ``lambda_bits`` comparisons against these registers
    replace the 1K-bit LUT.

    Returns boundaries ordered from the largest code to code 1; an
    energy above the last boundary is cut off (code 0).
    """
    if not (config.scaling and config.cutoff and config.pow2_lambda):
        raise ConfigError(
            "boundary-based conversion models the new design; requires "
            "scaling, cutoff and pow2_lambda all enabled"
        )
    if temperature <= 0:
        raise ConfigError(f"temperature must be positive, got {temperature}")
    scale = float(config.lambda_max_code)
    bounds: List[float] = []
    code = config.lambda_max_code
    while code >= 1:
        # Largest energy whose nearest-pow2(floor(scale*exp(-E/T)))
        # still reaches ``code``: floor(raw) >= lower edge of the
        # rounding interval of ``code``.
        lower_edge = _pow2_round_lower_edge(code)
        bounds.append(temperature * math.log(scale / lower_edge))
        code //= 2
    return np.asarray(bounds, dtype=np.float64)


def _pow2_round_lower_edge(code: int) -> int:
    """Smallest integer value that nearest-pow2 maps to ``code``.

    ``nearest_pow2`` rounds ties down, so integers in
    ``(3*code/4, 3*code/2]`` map to ``code``; the smallest such integer
    is ``floor(3*code/4) + 1``.
    """
    return (3 * code) // 4 + 1


@lru_cache(maxsize=4096)
def _cached_boundary_table(temperature: float, config: RSUConfig) -> np.ndarray:
    table = boundary_table(temperature, config)
    table.setflags(write=False)
    return table


def cached_boundary_table(temperature: float, config: RSUConfig) -> np.ndarray:
    """Memoized, read-only :func:`boundary_table`.

    The structural machines rebuild their comparison registers whenever
    a machine is constructed or a temperature update streams in; an
    annealing schedule revisits the same handful of grid temperatures,
    so the table for a (temperature, config) pair is built exactly once
    per process and shared by every machine thereafter.
    """
    return _cached_boundary_table(float(temperature), config)


@lru_cache(maxsize=4096)
def _cached_legacy_lut(temperature: float, config: RSUConfig) -> np.ndarray:
    table = legacy_lut(temperature, config)
    table.setflags(write=False)
    return table


def cached_legacy_lut(temperature: float, config: RSUConfig) -> np.ndarray:
    """Memoized, read-only :func:`legacy_lut` (see :func:`cached_boundary_table`)."""
    return _cached_legacy_lut(float(temperature), config)


def lambda_codes_by_boundaries(
    quantized_energy: np.ndarray, temperature: float, config: RSUConfig
) -> np.ndarray:
    """Comparison-based conversion (new design): must match :func:`lambda_codes`."""
    energy = np.asarray(quantized_energy, dtype=np.float64)
    if energy.ndim != 2:
        raise ConfigError(f"quantized_energy must be 2-D, got shape {energy.shape}")
    scaled = energy - energy.min(axis=1, keepdims=True)
    bounds = boundary_table(temperature, config)
    # ``bounds`` ascends as the code halves (lambda_max down to 1), so
    # the first boundary at or above an energy names its code; energies
    # beyond the last boundary are cut off.  One searchsorted replaces
    # the per-boundary masking loop; the ``+ 1e-12`` slop matches the
    # scalar comparison ``scaled <= bound + 1e-12`` bit for bit.
    interval = np.searchsorted(bounds + 1e-12, scaled, side="left")
    code_of_interval = np.concatenate(
        [
            config.lambda_max_code >> np.arange(bounds.size, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
        ]
    )
    return code_of_interval[interval]


def legacy_lut(temperature: float, config: RSUConfig) -> np.ndarray:
    """Full energy-indexed LUT of the previous design.

    One entry per quantized energy value (``2**Energy_bits`` entries of
    ``Lambda_bits`` each — the 1024-bit memory of Sec. IV-B.3).  Only
    meaningful for unscaled conversion, where the LUT index is the raw
    quantized energy.
    """
    energies = np.arange(unsigned_max(config.energy_bits) + 1, dtype=np.float64)
    return lambda_codes(energies[None, :], temperature, config)[0]


def conversion_memory_bits(config: RSUConfig, scheme: str) -> int:
    """Storage cost of a conversion scheme in bits (Sec. IV-B.3).

    ``lut``: one ``lambda_bits`` entry per energy value.
    ``boundaries``: one ``energy_bits`` register per nonzero code.
    """
    if scheme == "lut":
        return (unsigned_max(config.energy_bits) + 1) * config.lambda_bits
    if scheme == "boundaries":
        return config.unique_lambdas * config.energy_bits
    raise ConfigError(f"unknown conversion scheme {scheme!r}")
