"""Float software-only Gibbs sampler (the paper's quality baseline).

Samples labels with probability proportional to ``exp(-E_i / T)`` in
IEEE double precision.  Implemented with the Gumbel-max identity, which
is exact and numerically robust for arbitrarily large energies:
``argmax_i (-E_i / T + G_i)`` with iid standard Gumbel ``G_i`` is a
categorical draw with the softmax probabilities.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import SamplerBackend, SampleScratch, record_sampler_batch
from repro.obs import telemetry as obs
from repro.rng.streams import generator_state, set_generator_state
from repro.util.errors import DataError
from repro.util.validation import check_positive


class SoftwareSampler(SamplerBackend):
    """IEEE-float Gibbs label sampler (MATLAB-baseline equivalent)."""

    name = "software"

    def __init__(self, rng: np.random.Generator):
        self._rng = rng

    def getstate(self) -> dict:
        return {"rng": generator_state(self._rng)}

    def setstate(self, state: dict) -> None:
        set_generator_state(self._rng, state["rng"])

    def _sample_batch(self, energies: np.ndarray, temperature: float) -> np.ndarray:
        gumbel = -np.log(-np.log1p(-self._rng.random(energies.shape)))
        scores = -energies / temperature + gumbel
        return np.argmax(scores, axis=1)

    def sample_into(
        self,
        energies: np.ndarray,
        temperature: float,
        out: np.ndarray,
        scratch: SampleScratch,
    ) -> np.ndarray:
        """Fused Gumbel-max draw: :meth:`sample_chains_into` for one chain."""
        self.sample_chains_into([self], energies[None], [temperature], out[None], scratch)
        return out

    @classmethod
    def sample_chains_into(
        cls,
        samplers,
        energies: np.ndarray,
        temperatures,
        out: np.ndarray,
        scratch: SampleScratch,
    ) -> np.ndarray:
        """Chain-batched Gumbel-max draw over a ``(K, sites, labels)`` block.

        Each chain's uniform slab is filled from its own generator — the
        identical block, in the identical order, that chain would draw
        running alone — then the whole ``-log(-log1p(-u))`` / score
        chain runs once over the stacked block, dividing by a
        ``(K, 1, 1)`` per-chain temperature column, op for op the
        reference formula of :meth:`sample`.  Elementwise ufuncs are
        block-shape invariant, so the result is byte-identical to K
        sequential :meth:`sample` calls.  :meth:`sample_into` is its
        one-chain case.
        """
        if energies.ndim != 3 or energies.shape[2] < 1 or energies.shape[1] < 1:
            raise DataError(
                f"energies must be (chains, n_sites, n_labels), got shape {energies.shape}"
            )
        chains = energies.shape[0]
        record_sampler_batch(chains * energies.shape[1])
        tel = obs.active()
        if tel is not None:
            tel.inc("entropy.uniforms", energies.size)
        temps = scratch.buf("chain_temps", (chains, 1, 1), np.float64)
        for index, temperature in enumerate(temperatures):
            check_positive("temperature", temperature)
            temps[index, 0, 0] = float(temperature)
        gumbel = scratch.buf("gumbel", energies.shape, np.float64)
        for index, sampler in enumerate(samplers):
            sampler._rng.random(out=gumbel[index])
        np.negative(gumbel, out=gumbel)
        np.log1p(gumbel, out=gumbel)
        np.negative(gumbel, out=gumbel)
        np.log(gumbel, out=gumbel)
        np.negative(gumbel, out=gumbel)
        scores = scratch.buf("gumbel_scores", energies.shape, np.float64)
        np.divide(energies, temps, out=scores)
        np.negative(scores, out=scores)
        np.add(scores, gumbel, out=scores)
        np.argmax(scores, axis=-1, out=out)
        return out


class GreedySampler(SamplerBackend):
    """Deterministic argmin-energy backend (ICM); a testing reference.

    Equivalent to the zero-temperature limit of Gibbs sampling; useful
    for deterministic integration tests of the solver plumbing.
    """

    name = "greedy"

    def _sample_batch(self, energies: np.ndarray, temperature: float) -> np.ndarray:
        return np.argmin(energies, axis=1)

    def sample_into(
        self,
        energies: np.ndarray,
        temperature: float,
        out: np.ndarray,
        scratch: SampleScratch,
    ) -> np.ndarray:
        """Allocation-free ICM step: :meth:`sample_chains_into` for one chain."""
        self.sample_chains_into([self], energies[None], [temperature], out[None], scratch)
        return out

    @classmethod
    def sample_chains_into(
        cls,
        samplers,
        energies: np.ndarray,
        temperatures,
        out: np.ndarray,
        scratch: SampleScratch,
    ) -> np.ndarray:
        """One argmin over the whole ``(K, sites, labels)`` block (no RNG)."""
        if energies.ndim != 3 or energies.shape[2] < 1 or energies.shape[1] < 1:
            raise DataError(
                f"energies must be (chains, n_sites, n_labels), got shape {energies.shape}"
            )
        for temperature in temperatures:
            check_positive("temperature", temperature)
        record_sampler_batch(energies.shape[0] * energies.shape[1])
        np.argmin(energies, axis=-1, out=out)
        return out
