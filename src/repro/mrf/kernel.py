"""The sweep engine: fused, allocation-free checkerboard sweeps of K chains.

The paper's performance argument (Sec. V) is that an array of RSU-G
units evaluates one whole colour class in parallel each cycle, and its
multi-unit layouts (Sec. IV-B.6) repeat that array.  The software
analogue is :class:`SweepWorkspace`: everything that is constant for
the run — the checkerboard masks, the neighbour topology, the unary
gather, every intermediate buffer — is computed or allocated exactly
once, and each half-sweep then flows through preallocated workspaces
with ``out=`` ufuncs.

One workspace serves every front end.  It stacks K chains into one
``(K, H, W)`` label tensor: the per-colour-class neighbour gathers span
the chain axis (one flat index array covers all K padded mirrors) and
the energy accumulation runs over ``(K * n_class, n_labels)`` blocks.
:class:`~repro.mrf.solver.MCMCSolver` is its K=1 case, with a plain
``(H, W)`` grid; tempering ladders and multi-seed ensembles
(:mod:`repro.mrf.tempering`, :mod:`repro.mrf.batch`) run K > 1, where
one ``sample_chains_into`` dispatch per colour class fills one entropy
slab per chain and batches the elementwise math.

Compared with the reference path
(:meth:`~repro.mrf.model.GridMRF.site_energies` +
:meth:`~repro.core.base.SamplerBackend.sample`), which rebuilds the
padded label grid, restacks the neighbour views, regathers the constant
unary block and allocates ~10 full-size arrays per colour class per
sweep, the kernel's only steady-state allocations are the transient
pairwise/LUT row-gather results (see
:meth:`SweepWorkspace.class_energies`), and the downstream sampling
stages work on compressed active lanes instead of full arrays.

Byte-identity with the reference path — same labels, same energy
history, same consumption of every RNG stream — is a hard contract,
enforced by ``tests/test_mrf_kernel.py`` (K=1 against
``MCMCSolver(use_fused=False)``) and ``tests/test_mrf_batch.py`` (K > 1
against K sequential K=1 runs) across backends, tie policies,
``float_time`` and LUT on/off.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.base import SamplerBackend, SampleScratch
from repro.mrf.model import GridMRF
from repro.util.errors import ConfigError, DataError


class _ClassPlan:
    """Chain-spanning geometry and buffers for one colour class."""

    __slots__ = (
        "site_flat",
        "site_flat_kn",
        "pad_flat",
        "gather_idx",
        "unary",
        "neighbors",
        "pair",
        "energies",
        "labels_out",
        "current",
        "scratch",
    )

    def __init__(
        self, model: GridMRF, mask: np.ndarray, padded_width: int, n_chains: int
    ):
        rows, cols = np.nonzero(mask)  # raster order == boolean-mask order
        n = rows.size
        m = model.n_labels
        conn = model.connectivity
        h, w = model.shape
        # Per-chain flat indices, offset by each chain's slab stride so a
        # single gather/scatter spans all K label grids at once.
        site_one = rows * w + cols
        pad_one = (rows + 1) * padded_width + (cols + 1)
        site_strides = np.arange(n_chains, dtype=np.int64) * np.int64(h * w)
        pad_strides = np.arange(n_chains, dtype=np.int64) * np.int64(
            (h + 2) * padded_width
        )
        self.site_flat_kn = site_strides[:, None] + site_one
        self.site_flat = np.ascontiguousarray(self.site_flat_kn.reshape(-1))
        self.pad_flat = np.ascontiguousarray(
            (pad_strides[:, None] + pad_one).reshape(-1)
        )
        # Flat offsets into the padded grids, in the exact stacking order
        # of GridMRF._neighbor_labels: up, down, left, right, then the
        # diagonals for 8-connectivity.  Chain slabs are contiguous, so
        # one offset works for every chain.
        offsets = [-padded_width, padded_width, -1, 1]
        if conn == 8:
            offsets += [
                -padded_width - 1,
                -padded_width + 1,
                padded_width - 1,
                padded_width + 1,
            ]
        self.gather_idx = np.empty((conn, n_chains * n), dtype=np.int64)
        for d, offset in enumerate(offsets):
            np.add(self.pad_flat, offset, out=self.gather_idx[d])
        # The unary block is constant and identical for every chain:
        # gather it once, broadcast at add time.
        self.unary = np.ascontiguousarray(model.unary[mask])
        self.neighbors = np.empty((conn, n_chains * n), dtype=np.int64)
        self.pair = np.empty((n_chains * n, m), dtype=np.float64)
        self.energies = np.empty((n_chains, n, m), dtype=np.float64)
        self.labels_out = np.empty((n_chains, n), dtype=np.intp)
        self.current = np.empty(n, dtype=np.int64)
        self.scratch = SampleScratch()


class SweepWorkspace:
    """Reusable state for fused checkerboard sweeps over K stacked chains.

    Owns one ``(K, H+2, W+2)`` sentinel-padded mirror of the bound label
    tensor, the per-colour-class flat gather indices (spanning the chain
    axis), the constant unary gathers, and every reusable output buffer
    (energies, quantized codes, lambda codes, TTF bins, selection keys —
    the latter via each class's :class:`~repro.core.base.SampleScratch`).

    :meth:`sweep` keeps the mirror in sync incrementally (scattering
    only the resampled sites), and :meth:`bind` resynchronizes it
    wholesale — the front ends call that once per run, after every user
    callback (which may mutate the labels it is handed) and after
    replica swaps.

    Chains are independent by construction — no index crosses a chain
    slab — so K stacked chains are byte-identical to K single-chain
    workspaces, which ``tests/test_mrf_batch.py`` enforces.
    """

    def __init__(
        self, model: GridMRF, masks: Sequence[np.ndarray], n_chains: int = 1
    ):
        if n_chains < 1:
            raise ConfigError(f"n_chains must be >= 1, got {n_chains}")
        self.model = model
        self.n_chains = n_chains
        h, w = model.shape
        total = 0
        for mask in masks:
            if mask.shape != model.shape:
                raise DataError(
                    f"mask shape {mask.shape} != grid shape {model.shape}"
                )
            total += int(mask.sum())
        if total != h * w:
            raise DataError("colour classes must partition the grid")
        self._padded = np.full(
            (n_chains, h + 2, w + 2), model.n_labels, dtype=np.int64
        )
        self._padded_flat = self._padded.reshape(-1)
        self._interior = self._padded[:, 1:-1, 1:-1]
        self._classes: List[_ClassPlan] = [
            _ClassPlan(model, mask, w + 2, n_chains) for mask in masks
        ]
        self._pairwise = model.padded_pairwise
        self._weight = model.weight
        self._bound: Optional[np.ndarray] = None

    @property
    def nbytes(self) -> int:
        """Total bytes of preallocated workspace (diagnostics/tests)."""
        per_class = sum(
            sum(getattr(plan, name).nbytes for name in (
                "site_flat", "pad_flat", "gather_idx", "unary", "neighbors",
                "pair", "energies", "labels_out", "current",
            )) + plan.scratch.nbytes
            for plan in self._classes
        )
        return per_class + self._padded.nbytes

    def bind(self, labels: np.ndarray) -> None:
        """Synchronize the padded mirrors with ``labels`` (full copy).

        ``labels`` must be a C-contiguous ``(K, H, W)`` int array — or,
        at K=1, an ``(H, W)`` grid.  The scatter writes through a flat
        view, so a non-contiguous array would silently reshape-copy
        instead of aliasing.
        """
        expected = (self.n_chains,) + self.model.shape
        if labels.shape != expected and not (
            self.n_chains == 1 and labels.shape == self.model.shape
        ):
            raise DataError(
                f"labels shape {labels.shape} != chain-stacked shape {expected}"
            )
        if not labels.flags.c_contiguous:
            raise DataError("fused sweeps require a C-contiguous label array")
        np.copyto(self._interior, labels)
        self._bound = labels

    def class_energies(self, index: int) -> np.ndarray:
        """Fill and return the ``(K, n_class, n_labels)`` energy block.

        Bit-identical, chain for chain, to
        ``model.site_energies(labels[k], mask)``: the per-direction row
        gathers are accumulated in the same sequential order as the
        reference's ``sum(axis=0)`` over the ``(connectivity, N, M)``
        stack (NumPy reduces the leading axis slice by slice), the rows
        of the flattened ``(K * n_class, n_labels)`` views are just the K
        chains' rows stacked chain-major, and ``unary + weight * pair``
        commutes exactly in IEEE arithmetic.

        The row gathers use fancy indexing, not ``np.take(..., out=)``:
        NumPy's mapiter fast path makes ``pairwise[rows]`` about 3x
        faster than ``take`` with an output buffer, which outweighs
        reusing a ``(connectivity, N, M)`` stack.  The transient
        gather results are the kernel's only steady-state allocations.
        """
        plan = self._classes[index]
        np.take(self._padded_flat, plan.gather_idx, out=plan.neighbors)
        np.add(
            self._pairwise[plan.neighbors[0]],
            self._pairwise[plan.neighbors[1]],
            out=plan.pair,
        )
        for d in range(2, plan.neighbors.shape[0]):
            plan.pair += self._pairwise[plan.neighbors[d]]
        energies_flat = plan.energies.reshape(plan.pair.shape)
        np.multiply(plan.pair, self._weight, out=energies_flat)
        plan.energies += plan.unary[None]
        return plan.energies

    def sweep(
        self,
        labels: np.ndarray,
        temperatures: Sequence[float],
        samplers: Sequence[SamplerBackend],
        wants_current: Sequence[bool],
    ) -> np.ndarray:
        """One fused checkerboard sweep of every chain, in place.

        Colour classes run in order, each resampled from energies that
        see every earlier class's fresh labels; chain ``k`` sweeps at
        ``temperatures[k]`` with ``samplers[k]``.  With K > 1 chains
        sharing one backend type and none needing the current labels,
        each colour class is sampled through a single
        ``sample_chains_into`` call.  Otherwise — always at K=1 — a
        per-chain loop calls ``sample_into``, or ``sample_given_current``
        for backends that set ``wants_current_labels`` (e.g. the
        Metropolis-Hastings samplers, whose proposal is relative to the
        current state).  Both are byte-identical to K sequential sweeps.
        """
        if labels is not self._bound:
            self.bind(labels)
        if not (len(samplers) == len(wants_current) == self.n_chains):
            raise DataError(
                f"need {self.n_chains} samplers/flags, got "
                f"{len(samplers)}/{len(wants_current)}"
            )
        batched = self.n_chains > 1 and not any(wants_current) and (
            len({type(sampler) for sampler in samplers}) == 1
        )
        labels_flat = labels.reshape(-1)
        for index, plan in enumerate(self._classes):
            energies = self.class_energies(index)
            if batched:
                type(samplers[0]).sample_chains_into(
                    list(samplers), energies, temperatures, plan.labels_out,
                    plan.scratch,
                )
            else:
                for k, sampler in enumerate(samplers):
                    if wants_current[k]:
                        np.take(labels_flat, plan.site_flat_kn[k], out=plan.current)
                        plan.labels_out[k] = sampler.sample_given_current(
                            energies[k], temperatures[k], plan.current
                        )
                    else:
                        sampler.sample_into(
                            energies[k], temperatures[k], plan.labels_out[k],
                            plan.scratch,
                        )
            new_labels = plan.labels_out.reshape(-1)
            labels_flat[plan.site_flat] = new_labels
            self._padded_flat[plan.pad_flat] = new_labels
        return labels
