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

Energy rows are cached across half-sweeps.  Each colour class keeps
the neighbour labels its energy rows were built from and rebuilds only
the rows whose neighbours changed — after the annealing schedule cools
that is a few percent of them — or every row at once when more than
half are stale.  Samplers receive the block as a read-only view, so
writing into it raises instead of corrupting the cache.

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
from repro.obs import telemetry as obs
from repro.util.errors import ConfigError, DataError

#: A class call that finds more than this share of its rows stale
#: rebuilds all of them.  Timed on the stereo solve's classes, gathering
#: and scattering just the stale rows stops paying at about 65% stale;
#: half keeps a margin below that.
_REBUILD_ALL_FRACTION = 0.5

#: Energy rows rebuilt per pass.  The per-direction temporaries are then
#: a few hundred KB and stay in cache; whole-class (N, M) temporaries
#: made a full rebuild 2-3x slower under some heap layouts, where glibc
#: hands them back to the OS after every call and the next call faults
#: them in again.
_BLOCK_ROWS = 1024


class _ClassPlan:
    """Chain-spanning geometry and buffers for one colour class."""

    __slots__ = (
        "site_flat",
        "site_flat_kn",
        "pad_flat",
        "gather_idx",
        "unary",
        "neighbors",
        "built_from",
        "changed",
        "stale",
        "blocks",
        "pair",
        "energies",
        "energies_flat",
        "energies_view",
        "labels_out",
        "current",
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
        # gather it once; each chain's rows add the same unary rows.
        self.unary = np.ascontiguousarray(model.unary[mask])
        self.neighbors = np.empty((conn, n_chains * n), dtype=np.int64)
        # The neighbour labels each cached energy row was built from:
        # class_energies rebuilds only the rows where they differ.  No
        # label is -1, so the first call finds every row stale.
        self.built_from = np.full_like(self.neighbors, -1)
        self.changed = np.empty((conn, n_chains * n), dtype=bool)
        self.stale = np.empty(n_chains * n, dtype=bool)
        # Full rebuilds run block by block (see _BLOCK_ROWS); no block
        # crosses a chain slab, so its unary rows are one slice.
        self.blocks = [
            (slice(k * n + start, k * n + stop), slice(start, stop))
            for k in range(n_chains)
            for start in range(0, n, _BLOCK_ROWS)
            for stop in (min(start + _BLOCK_ROWS, n),)
        ]
        self.pair = np.empty((min(n_chains * n, _BLOCK_ROWS), m), dtype=np.float64)
        self.energies = np.empty((n_chains, n, m), dtype=np.float64)
        self.energies_flat = self.energies.reshape(n_chains * n, m)
        # What callers see: the cache must not be written through.
        self.energies_view = self.energies.view()
        self.energies_view.flags.writeable = False
        self.labels_out = np.empty((n_chains, n), dtype=np.intp)
        self.current = np.empty(n, dtype=np.int64)


class SweepWorkspace:
    """Reusable state for fused checkerboard sweeps over K stacked chains.

    Owns one ``(K, H+2, W+2)`` sentinel-padded mirror of the bound label
    tensor, the per-colour-class flat gather indices (spanning the chain
    axis), the constant unary gathers, and every reusable output buffer
    (energies, quantized codes, lambda codes, TTF bins, selection keys —
    the latter via one :class:`~repro.core.base.SampleScratch` that every
    colour class shares).

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
        # Colour classes are sampled one after another and no sampler
        # keeps scratch contents between calls, so every class shares one
        # pool: equal-sized classes share every buffer.
        self._scratch = SampleScratch()
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
                "built_from", "changed", "stale", "pair", "energies", "labels_out",
                "current",
            ))
            for plan in self._classes
        )
        return per_class + self._scratch.nbytes + self._padded.nbytes

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
        """Bring the ``(K, n_class, n_labels)`` energy block up to date
        and return a read-only view of it.

        Bit-identical, chain for chain, to
        ``model.site_energies(labels[k], mask)``: the per-direction row
        gathers are accumulated in the same sequential order as the
        reference's ``sum(axis=0)`` over the ``(connectivity, N, M)``
        stack (NumPy reduces the leading axis slice by slice), the rows
        of the flattened ``(K * n_class, n_labels)`` views are just the K
        chains' rows stacked chain-major, and ``unary + weight * pair``
        commutes exactly in IEEE arithmetic.

        Rows are cached.  A row depends only on its site's neighbour
        labels, so each call gathers those from the padded mirror,
        compares them with the labels the cached rows were built from,
        and rebuilds only the rows where any direction differs — with
        the same operations in the same order, so every row holds the
        bits a full rebuild would give it.  The first call, and any call
        that finds more than ``_REBUILD_ALL_FRACTION`` of the rows stale
        (the hot early sweeps), rebuilds every row.  Either way rows are
        rebuilt ``_BLOCK_ROWS`` at a time.  The cache is keyed on exactly
        what a rebuild reads, so :meth:`bind` after a callback, replica
        swaps and resumed checkpoints need no invalidation.  The view is read-only so that a sampler writing
        into its energies raises instead of corrupting the cache.

        The row gathers use fancy indexing, not ``np.take(..., out=)``:
        NumPy's mapiter fast path makes ``pairwise[rows]`` about 3x
        faster than ``take`` with an output buffer, which outweighs
        reusing a ``(connectivity, N, M)`` stack.  The transient
        block-sized gather results are the kernel's only steady-state
        allocations.
        """
        plan = self._classes[index]
        neighbors = plan.neighbors
        np.take(self._padded_flat, plan.gather_idx, out=neighbors)
        total = neighbors.shape[1]
        np.not_equal(neighbors, plan.built_from, out=plan.changed)
        np.any(plan.changed, axis=0, out=plan.stale)
        rows = None
        if np.count_nonzero(plan.stale) <= _REBUILD_ALL_FRACTION * total:
            rows = np.flatnonzero(plan.stale)
        if rows is None:
            for block, sites in plan.blocks:
                pair = plan.pair[: sites.stop - sites.start]
                self._pair_sum(neighbors[:, block], pair)
                energies = plan.energies_flat[block]
                np.multiply(pair, self._weight, out=energies)
                energies += plan.unary[sites]
        else:
            for start in range(0, rows.size, _BLOCK_ROWS):
                block = rows[start : start + _BLOCK_ROWS]
                pair = self._pair_sum(neighbors[:, block], plan.pair[: block.size])
                pair *= self._weight
                pair += plan.unary[block % plan.unary.shape[0]]
                plan.energies_flat[block] = pair
        tel = obs.active()
        if tel is not None:
            rebuilt = total if rows is None else rows.size
            tel.inc("energy.full_rebuilds", int(rows is None))
            tel.inc("energy.rows_rebuilt", rebuilt)
            tel.inc("energy.rows_reused", total - rebuilt)
        # Every row is now built from the labels just gathered.
        plan.neighbors, plan.built_from = plan.built_from, neighbors
        return plan.energies_view

    def _pair_sum(self, neighbors: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``sum_d pairwise[neighbors[d]]``, accumulated in direction order."""
        pairwise = self._pairwise
        pair = np.add(pairwise[neighbors[0]], pairwise[neighbors[1]], out=out)
        for d in range(2, neighbors.shape[0]):
            pair += pairwise[neighbors[d]]
        return pair

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
            if not plan.site_flat.size:
                continue  # an empty colour class (a 1-wide grid) draws nothing
            energies = self.class_energies(index)
            if batched:
                type(samplers[0]).sample_chains_into(
                    list(samplers), energies, temperatures, plan.labels_out,
                    self._scratch,
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
                            self._scratch,
                        )
            new_labels = plan.labels_out.reshape(-1)
            labels_flat[plan.site_flat] = new_labels
            self._padded_flat[plan.pad_flat] = new_labels
        return labels
