"""RET-circuit functional model: binned exponential time-to-fluorescence.

Stage 4 of the RSU-G pipeline illuminates a RET network whose decay
rate is the selected code times ``lambda0`` and measures the time until
the SPAD observes a photon (Sec. II-C).  The measurement is quantized
into ``2**Time_bits`` unit bins; samples beyond the detection window
are truncated (Sec. III-C3).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.base import SampleScratch
from repro.core.params import RSUConfig
from repro.obs import telemetry as obs
from repro.rng.streams import generator_state, set_generator_state
from repro.util.errors import ConfigError

#: Sentinel bin for "no photon within the window" (TTF = infinity).
#: One past the clamp bin so timed-out labels lose to every real sample.
def no_sample_bin(config: RSUConfig) -> int:
    """Bin value recording a truncated (never-fired) sample."""
    return config.time_bins + 1


def cutoff_bin(config: RSUConfig) -> int:
    """Bin value for cut-off labels (code 0): beyond even timed-out ones."""
    return config.time_bins + 2


def _record_ttf_draw(n_uniforms: int) -> None:
    """Telemetry hook: one TTF dispatch consuming ``n_uniforms`` variates."""
    tel = obs.active()
    if tel is not None:
        tel.inc("entropy.uniforms", n_uniforms)
        tel.inc("entropy.ttf_draws", n_uniforms)


class TTFSampler:
    """Draws binned TTFs for a matrix of decay-rate codes.

    Parameters
    ----------
    config:
        Design point; uses ``time_bits``, ``truncation`` and
        ``clamp_to_tmax``.
    rng:
        NumPy generator supplying the underlying uniform variates (the
        model of RET physical entropy).
    """

    def __init__(self, config: RSUConfig, rng: np.random.Generator):
        self.config = config
        self._rng = rng

    def getstate(self) -> dict:
        """Picklable snapshot of the RET entropy generator state."""
        return {"rng": generator_state(self._rng)}

    def setstate(self, state: dict) -> None:
        """Restore a :meth:`getstate` snapshot; bit-exact continuation."""
        set_generator_state(self._rng, state["rng"])

    def sample(self, codes: np.ndarray) -> np.ndarray:
        """Return integer TTF bins for integer decay-rate ``codes``.

        A code ``v >= 1`` selects the RET network with per-bin rate
        ``v * lambda0``; the continuous exponential draw is quantized
        with ceiling so bin 1 covers (0, 1].  Codes of zero (cut off)
        return :func:`cutoff_bin`.

        With ``config.float_time`` the continuous draw is returned
        untruncated (float64) — the idealized IEEE-float time stage.
        """
        codes = np.asarray(codes)
        if codes.size and codes.min() < 0:
            raise ConfigError("decay-rate codes must be non-negative")
        cfg = self.config
        # One uniform per lane, active or not: the RET entropy stream is
        # consumed at a fixed per-call rate so every downstream consumer
        # (and the fused kernel) stays aligned with this reference.
        _record_ttf_draw(codes.size)
        uniforms = self._rng.random(codes.shape)
        active = codes > 0
        # Inverse-CDF exponential draw, in units of time bins.  All
        # float work happens on the compressed active lanes only; the
        # cut-off lanes never touch log/divide/ceil.
        rates = codes[active].astype(np.float64) * cfg.lambda0_per_bin
        continuous = np.log1p(-uniforms[active])
        np.negative(continuous, out=continuous)
        continuous /= rates
        if cfg.float_time:
            ttf = np.full(codes.shape, np.inf)
            ttf[active] = continuous
            return ttf
        bins = np.ceil(continuous, out=continuous)
        if cfg.clamp_to_tmax:
            np.minimum(bins, cfg.time_bins, out=bins)
        else:
            bins[bins > cfg.time_bins] = no_sample_bin(cfg)
        # Build the output int64 directly: inactive lanes are written
        # once with the cut-off sentinel, active lanes once with their
        # bin — no second full-array float->int conversion pass.
        ttf = np.full(codes.shape, cutoff_bin(cfg), dtype=np.int64)
        ttf[active] = bins
        return ttf

    def sample_into(
        self, codes: np.ndarray, out: np.ndarray, scratch: SampleScratch
    ) -> int:
        """Fused :meth:`sample` into ``out``: same bins and RNG stream,
        reused buffers.  Returns the number of active (nonzero-code)
        lanes, which the RSU pipeline passes on to selection.

        The entropy block is prefetched straight into a reusable buffer
        (``rng.random(out=...)`` draws the identical variates in the
        identical order as ``rng.random(shape)``); then only the active
        lanes — handed over by the fused conversion stage, or found in
        ``codes`` — gather their uniforms into workspace pools, so
        cut-off lanes (over 90 % of lanes in an annealed solve) do no
        work at all (see :func:`_finish_fused_sample`).
        """
        _check_codes(codes)
        _record_ttf_draw(codes.size)
        uniforms = scratch.buf("ttf_uniforms", codes.shape, np.float64)
        self._rng.random(out=uniforms)
        return _finish_fused_sample(self.config, codes, uniforms, out, scratch)

    @staticmethod
    def sample_chains_into(
        ttf_samplers, codes: np.ndarray, out: np.ndarray, scratch: SampleScratch
    ) -> int:
        """Chain-batched :meth:`sample_into` over a ``(K, sites, labels)`` block
        (returns the active-lane count of the whole block).

        ``ttf_samplers[k]`` supplies chain ``k``'s RET entropy; all K
        must share one design point (the caller checks — the batched RSU
        path only dispatches here for config-identical chains).  Each
        chain's uniform slab is prefetched from its own generator — the
        identical block that chain would draw running alone — and the
        binning tail then runs once over the whole stacked block, which
        is elementwise/compress work and therefore byte-identical to K
        sequential :meth:`sample_into` calls.
        """
        _check_codes(codes)
        _record_ttf_draw(codes.size)
        uniforms = scratch.buf("ttf_uniforms", codes.shape, np.float64)
        for index, sampler in enumerate(ttf_samplers):
            sampler._rng.random(out=uniforms[index])
        return _finish_fused_sample(
            ttf_samplers[0].config, codes, uniforms, out, scratch
        )

    def truncation_probability(self, code: int) -> float:
        """P(no photon within the window) for a given decay-rate code."""
        if code < 0:
            raise ConfigError("code must be non-negative")
        if code == 0:
            return 1.0
        return math.exp(-code * self.config.lambda0_per_bin * self.config.time_bins)


def _check_codes(codes: np.ndarray) -> None:
    """Reject negative codes; an unsigned block (the fused pipeline's)
    cannot hold one, so only signed input pays the scan."""
    if codes.dtype.kind != "u" and codes.size and codes.min() < 0:
        raise ConfigError("decay-rate codes must be non-negative")


def _finish_fused_sample(
    cfg: RSUConfig,
    codes: np.ndarray,
    uniforms: np.ndarray,
    out: np.ndarray,
    scratch: SampleScratch,
) -> int:
    """Shared binning tail of the fused TTF paths (post-uniform-fill).

    Only the active (nonzero-code) lanes do any work.  They come from
    the conversion stage's :class:`~repro.core.base.ActiveLanes` record
    for ``codes`` when there is one, else from one scan of ``codes``.
    Their uniforms are gathered and binned with the reference's op
    chain, op for op; ``out`` then holds the cut-off value with the
    active bins scattered in, and the same lanes, now holding their
    bins, are handed on to selection.  Any shape works — the
    single-chain ``(sites, labels)`` matrix and the chain-batched
    ``(K, sites, labels)`` block take identical flat ops, so stacking
    chains cannot change any bin.  Returns the active-lane count.
    """
    lanes = scratch.take_lanes(codes)
    if lanes is None:
        index = np.flatnonzero(codes)
        active_codes = np.take(codes.reshape(-1), index)
    else:
        index, active_codes = lanes.index, lanes.values
    n_active = index.size
    # Views over preallocated max-size pools: only the first n_active
    # lanes of each are touched.
    size = codes.size
    rates = scratch.buf("ttf_rates_pool", (size,), np.float64)[:n_active]
    work = scratch.buf("ttf_work_pool", (size,), np.float64)[:n_active]
    np.multiply(active_codes, cfg.lambda0_per_bin, out=rates, dtype=np.float64)
    np.take(uniforms.reshape(-1), index, out=work)
    # work = -log1p(-u) / rate: the same op chain, op for op, as the
    # reference's compressed computation.
    np.negative(work, out=work)
    np.log1p(work, out=work)
    np.negative(work, out=work)
    np.divide(work, rates, out=work)
    if cfg.float_time:
        scratch.put_lanes(out, index, work, np.inf)
        return n_active
    np.ceil(work, out=work)
    if cfg.clamp_to_tmax:
        np.minimum(work, cfg.time_bins, out=work)
    else:
        late = scratch.buf("ttf_late_pool", (size,), np.bool_)[:n_active]
        np.greater(work, cfg.time_bins, out=late)
        work[late] = float(no_sample_bin(cfg))
    bins = scratch.buf("ttf_bins_pool", (size,), out.dtype)[:n_active]
    np.copyto(bins, work, casting="unsafe")
    scratch.put_lanes(out, index, bins, cutoff_bin(cfg))
    return n_active


def bin_probabilities(code: int, config: RSUConfig) -> np.ndarray:
    """Exact probability mass over bins ``1..t_max`` plus the overflow bin.

    Analytic counterpart of :meth:`TTFSampler.sample` used by property
    tests and the entropy model: entry ``t-1`` is
    ``P(bin == t) = exp(-r(t-1)) - exp(-rt)`` for per-bin rate ``r``,
    and the final entry is the truncated tail mass.
    """
    if code < 1:
        raise ConfigError("bin_probabilities requires a nonzero code")
    rate = code * config.lambda0_per_bin
    edges = np.exp(-rate * np.arange(config.time_bins + 1, dtype=np.float64))
    mass = edges[:-1] - edges[1:]
    tail = edges[-1]
    return np.concatenate([mass, [tail]])
