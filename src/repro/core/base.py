"""Sampler-backend interface.

Every sampler used by the MCMC solver — the float software baseline,
the two RSU-G functional models, and the pseudo-RNG inverse-CDF units —
implements the same contract: given a matrix of label energies for a
batch of conditionally independent sites, draw one label per site.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import NamedTuple, Optional

import numpy as np

from repro.core.params import TIE_POLICIES
from repro.obs import telemetry as obs
from repro.util.errors import DataError
from repro.util.validation import check_positive


def record_sampler_batch(n_samples: int) -> None:
    """Telemetry hook: one sampler dispatch drawing ``n_samples`` labels.

    Called once per batch (per colour class per sweep), never per site,
    so the disabled path costs one ``active()`` read per dispatch.
    Every fused ``sample_into``/``sample_chains_into`` override calls
    this itself; delegating fallbacks must not, or the base
    :meth:`SamplerBackend.sample` would double count.
    """
    tel = obs.active()
    if tel is not None:
        tel.inc("sampler.batches")
        tel.inc("sampler.samples", n_samples)


class ActiveLanes(NamedTuple):
    """The lanes of a dense stage block that can still fire.

    A fused RSU-G stage fills its dense ``(..., n_labels)`` output and
    hands the next stage the few lanes that matter: ``index`` lists
    their flat positions in ``block`` in ascending order, ``values``
    holds ``block.flat[index]``, and every other lane of ``block`` holds
    ``rest`` (code 0 after conversion, the cut-off bin or ``+inf`` after
    the TTF stage).
    """

    block: np.ndarray
    index: np.ndarray
    values: np.ndarray
    rest: object


class SampleScratch:
    """Named pool of reusable work buffers for the fused sampling path.

    The fused sweep kernel calls the same sampler on the same-shaped
    energy matrix every half-sweep, so every intermediate array — rates,
    uniforms, TTF bins, selection keys — can be allocated once and
    reused.  ``buf(name, shape, dtype)`` returns the cached buffer for
    that (name, shape, dtype) triple, allocating only on first use;
    steady-state calls are allocation-free.  Contents are *not* zeroed
    between calls — every consumer overwrites its buffer fully.

    The pool also carries the :class:`ActiveLanes` one stage hands to
    the next (:meth:`put_lanes` / :meth:`take_lanes`), so the TTF and
    selection stages work on the lanes that can fire without scanning
    the dense block their caller passes them.
    """

    __slots__ = ("_buffers", "_lanes")

    def __init__(self):
        self._buffers = {}
        self._lanes = None

    def buf(self, name: str, shape: tuple, dtype) -> np.ndarray:
        """The reusable buffer registered under ``name`` (allocate once)."""
        key = (name, tuple(shape), np.dtype(dtype))
        buffer = self._buffers.get(key)
        if buffer is None:
            buffer = np.empty(key[1], dtype=key[2])
            self._buffers[key] = buffer
        return buffer

    def lane_ids(self, size: int) -> np.ndarray:
        """``np.arange(size)`` as flat lane positions, built once per size."""
        ids = self._buffers.get(("lane_ids", size))
        if ids is None:
            ids = self._buffers[("lane_ids", size)] = np.arange(size, dtype=np.intp)
        return ids

    def put_lanes(self, block: np.ndarray, index: np.ndarray, values, rest) -> None:
        """Write a stage's dense output ``block`` — ``rest`` everywhere,
        ``values`` at the flat positions ``index`` — and record those
        lanes for the next stage."""
        block.fill(rest)
        if block.flags.c_contiguous:
            block.reshape(-1)[index] = values
        else:
            block.flat[index] = values
        self._lanes = ActiveLanes(block, index, values, rest)

    def take_lanes(self, block: np.ndarray) -> Optional[ActiveLanes]:
        """The lanes recorded for ``block`` itself, or ``None``; either
        way the record is dropped, so it is read at most once."""
        lanes, self._lanes = self._lanes, None
        return lanes if lanes is not None and lanes.block is block else None

    @property
    def nbytes(self) -> int:
        """Total bytes held by the pool (for diagnostics/tests)."""
        return sum(b.nbytes for b in self._buffers.values())


class SamplerBackend(ABC):
    """Draws Gibbs labels from per-site, per-label energies.

    Subclasses implement :meth:`_sample_batch`; :meth:`sample` performs
    the shared input validation.
    """

    #: Short identifier used in experiment outputs.
    name: str = "base"

    @abstractmethod
    def _sample_batch(self, energies: np.ndarray, temperature: float) -> np.ndarray:
        """Draw one label index per row of ``energies`` (validated input)."""

    def sample(self, energies: np.ndarray, temperature: float) -> np.ndarray:
        """Draw one label per site.

        Parameters
        ----------
        energies:
            Array of shape ``(n_sites, n_labels)``; entry ``(s, i)`` is
            the total MRF energy of assigning label ``i`` to site ``s``
            (Eq. 1).  Lower energy means higher probability (Eq. 2).
        temperature:
            Simulated-annealing temperature ``T`` dividing the energy.

        Returns
        -------
        numpy.ndarray
            Integer label indices, shape ``(n_sites,)``.
        """
        arr = np.asarray(energies, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] < 1 or arr.shape[0] < 1:
            raise DataError(f"energies must be (n_sites, n_labels), got shape {arr.shape}")
        check_positive("temperature", temperature)
        record_sampler_batch(arr.shape[0])
        labels = self._sample_batch(arr, float(temperature))
        return np.asarray(labels, dtype=np.int64)

    def getstate(self) -> dict:
        """Picklable snapshot of the backend's full RNG state.

        The base implementation returns ``{}`` — correct for stateless
        backends such as :class:`~repro.core.software.GreedySampler`.
        Backends owning entropy (a :class:`numpy.random.Generator`, a
        :class:`~repro.rng.streams.BitSource`, a TTF stage) override
        both methods so a solver checkpoint can capture and restore
        every stream it consumes, bit for bit.
        """
        return {}

    def setstate(self, state: dict) -> None:
        """Restore a :meth:`getstate` snapshot; bit-exact continuation."""
        if state:
            raise DataError(
                f"{type(self).__name__} is stateless but got state {state!r}"
            )

    def sample_into(
        self,
        energies: np.ndarray,
        temperature: float,
        out: np.ndarray,
        scratch: SampleScratch,
    ) -> np.ndarray:
        """Draw one label per site into the preallocated ``out`` buffer.

        Contract: byte-identical to :meth:`sample` — same labels, same
        consumption of every RNG stream — with intermediate arrays taken
        from ``scratch`` instead of freshly allocated.  The base
        implementation simply delegates to :meth:`sample` (correct for
        every backend); samplers on the solver's hot path override it
        with a genuinely fused, allocation-free pipeline.
        """
        out[...] = self.sample(energies, temperature)
        return out

    @classmethod
    def sample_chains_into(
        cls,
        samplers: "list[SamplerBackend]",
        energies: np.ndarray,
        temperatures,
        out: np.ndarray,
        scratch: SampleScratch,
    ) -> np.ndarray:
        """Draw labels for K stacked chains in one batched call.

        ``energies`` is ``(K, n_sites, n_labels)`` with ``samplers[k]``
        owning chain ``k``'s RNG stream and ``temperatures[k]`` its
        temperature; labels land in the ``(K, n_sites)`` ``out``.

        Contract: byte-identical to K sequential
        ``samplers[k].sample_into(energies[k], ...)`` calls — same
        labels, same consumption of every chain's RNG stream.  The base
        implementation *is* that sequential loop (correct for every
        backend, including mixed per-chain state); backends on the
        batched sweep hot path override it to fill per-chain entropy
        slabs and then run the elementwise math over the whole
        ``(K * n_sites, n_labels)`` block at once.
        """
        for index, sampler in enumerate(samplers):
            sampler.sample_into(energies[index], temperatures[index], out[index], scratch)
        return out


def select_first_to_fire(
    ttf: np.ndarray, tie_policy: str, rng: np.random.Generator
) -> np.ndarray:
    """Return the winning label per row of binned TTFs.

    The selection stage of the RSU pipeline keeps the label with the
    shortest time-to-fluorescence.  Binned TTFs tie; the policy decides
    who wins a tie (see :data:`repro.core.params.TIE_POLICIES`).
    """
    ttf = np.asarray(ttf)
    n_labels = ttf.shape[1]
    if tie_policy == "first":
        order = np.broadcast_to(np.arange(n_labels, dtype=np.int64), ttf.shape)
    elif tie_policy == "last":
        order = np.broadcast_to(
            np.arange(n_labels - 1, -1, -1, dtype=np.int64), ttf.shape
        )
    elif tie_policy == "random":
        order = np.argsort(rng.random(ttf.shape), axis=1).astype(np.int64)
    else:
        raise DataError(f"unknown tie policy {tie_policy!r}")
    if np.issubdtype(ttf.dtype, np.floating):
        # Continuous (float-time) TTFs tie with probability zero except
        # at +inf (all labels cut off); spread those by the tie order.
        big = np.float64(1e300)
        keys = np.where(np.isinf(ttf), big * (1.0 + order / (10.0 * n_labels)), ttf)
    else:
        keys = ttf.astype(np.int64) * np.int64(n_labels) + order
    return np.argmin(keys, axis=1).astype(np.int64)


def select_first_to_fire_into(
    ttf: np.ndarray,
    tie_policy: str,
    rng: np.random.Generator,
    out: np.ndarray,
    scratch: SampleScratch,
    *,
    active_lanes: Optional[int] = None,
) -> np.ndarray:
    """Fused :func:`select_first_to_fire`: same winners, reused buffers.

    Byte-identical to the reference selection for every tie policy and
    TTF dtype, including the RNG stream: the ``random`` policy draws one
    ``rng.random(ttf.shape)`` block exactly as the reference does, just
    into a reused buffer, and then sorts the uniforms of only the rows
    that tie (see :func:`_select_into`).  ``active_lanes`` — the number
    of lanes whose decay-rate code is nonzero, which the fused TTF stage
    returns — lets the RSU pipeline pick the cheaper of two equivalent
    branches; the winners never depend on it.
    """
    uniforms = None
    if tie_policy == "random":
        uniforms = scratch.buf("select_uniforms", ttf.shape, np.float64)
        _record_tie_draw(ttf.size)
        rng.random(out=uniforms)
    return _select_into(ttf, tie_policy, uniforms, out, scratch, active_lanes)


def select_first_to_fire_chains_into(
    ttf: np.ndarray,
    tie_policy: str,
    rngs,
    out: np.ndarray,
    scratch: SampleScratch,
    *,
    active_lanes: Optional[int] = None,
) -> np.ndarray:
    """Chain-batched :func:`select_first_to_fire_into`.

    ``ttf`` is ``(K, n_sites, n_labels)`` and ``rngs[k]`` supplies chain
    ``k``'s tie-break entropy.  Byte-identical to K sequential
    :func:`select_first_to_fire_into` calls: the ``random`` policy fills
    one per-chain uniform slab from each chain's own generator — the
    same block, in the same order, that chain would draw running alone —
    and every later step is rowwise, so batching over the chain axis
    cannot change any winner.  ``active_lanes`` counts the whole block.
    """
    uniforms = None
    if tie_policy == "random":
        uniforms = scratch.buf("select_uniforms", ttf.shape, np.float64)
        _record_tie_draw(ttf.size)
        for index, rng in enumerate(rngs):
            rng.random(out=uniforms[index])
    return _select_into(ttf, tie_policy, uniforms, out, scratch, active_lanes)


def _record_tie_draw(n_uniforms: int) -> None:
    """Telemetry hook: one ``random`` tie-break block of ``n_uniforms``."""
    tel = obs.active()
    if tel is not None:
        tel.inc("entropy.uniforms", n_uniforms)
        tel.inc("entropy.tie_draws", n_uniforms)


def _record_selection(dense: bool, ordered_rows: int) -> None:
    """Telemetry hook: which branch one selection took, and how many
    rows it had to resolve by the tie order."""
    tel = obs.active()
    if tel is not None:
        tel.inc("select.dense_calls" if dense else "select.tie_only_calls")
        tel.inc("select.ordered_rows", ordered_rows)


def _select_into(
    ttf: np.ndarray,
    tie_policy: str,
    uniforms: Optional[np.ndarray],
    out: np.ndarray,
    scratch: SampleScratch,
    active_lanes: Optional[int],
) -> np.ndarray:
    """First-to-fire over the last axis of ``ttf`` once the tie-break
    uniforms (``random`` only) are drawn; shared by both ``*_into`` paths.

    The reference keys every lane as ``ttf * n_labels + order`` (``order``
    a per-row permutation) and takes the row argmin.  A row whose minimum
    is unique wins there whatever the order, so only rows with more than
    one lane at the minimum need the order at all.  The fused TTF stage
    hands over the lanes that can fire (:class:`ActiveLanes`; every other
    lane sits at the cut-off bin or ``+inf``, behind every lane that
    fires), and :func:`_select_lanes` resolves each row from those lanes
    alone.  A direct caller's ``ttf`` comes with no such record, and then
    every lane counts as one that can fire.

    When more than half of the lanes are active (``active_lanes``), most
    rows tie — the legacy design without a cut-off ties on nearly all —
    and the dense keys of the reference are cheaper, so ``random`` on
    integer bins builds those instead.  Both branches pick the same
    winners.
    """
    lanes = scratch.take_lanes(ttf)
    if tie_policy not in TIE_POLICIES:
        raise DataError(f"unknown tie policy {tie_policy!r}")
    n_labels = ttf.shape[-1]
    integer = not np.issubdtype(ttf.dtype, np.floating)
    if tie_policy == "random" and integer and active_lanes is not None and (
        2 * active_lanes > ttf.size
    ):
        _record_selection(True, ttf.size // n_labels)
        order = np.argsort(uniforms, axis=-1)
        # Keys inherit the TTF's integer dtype (the caller guarantees
        # ``ttf * n_labels + order`` fits it); the values — and thus the
        # argmin winners — match the reference's int64 keys exactly.
        keys = scratch.buf("select_int_keys", ttf.shape, ttf.dtype)
        np.multiply(ttf, ttf.dtype.type(n_labels), out=keys)
        np.add(keys, order, out=keys)
        np.argmin(keys, axis=-1, out=out)
        return out
    if lanes is None:
        lanes = ActiveLanes(ttf, np.arange(ttf.size), ttf.reshape(-1), None)
    ordered = _select_lanes(ttf, lanes, tie_policy, out, scratch)
    _record_selection(False, ordered.size)
    if ordered.size:
        # Every lane of an ordered row not at the row minimum ranks after
        # every lane on it; the winner is the tied lane of smallest order.
        rows = ttf.reshape(-1, n_labels)[ordered]
        if tie_policy == "random":
            order = np.argsort(uniforms.reshape(-1, n_labels)[ordered], axis=-1)
        else:
            order = np.arange(n_labels - 1, -1, -1, dtype=np.int64)
        keys = np.where(rows == rows.min(axis=-1, keepdims=True), order, n_labels)
        out.flat[ordered] = np.argmin(keys, axis=-1)
    return out


def _select_lanes(
    ttf: np.ndarray,
    lanes: ActiveLanes,
    tie_policy: str,
    out: np.ndarray,
    scratch: SampleScratch,
) -> np.ndarray:
    """Each row's winner from its listed lanes; returns the rows still to
    be resolved by the tie order.

    Integer bins: one ``np.minimum.at`` per row over ``bin * n_labels +
    lane`` keys gives the row's minimum bin and its first lane there
    (``first``); keys of ``bin * n_labels - lane`` give its last lane
    there (``last``), and under ``random`` a row ties exactly when the
    two differ.  A row with no listed lane keeps the key of its lane 0
    (or its last lane) at ``lanes.rest``: all its lanes tie there.
    Float times tie only at ``+inf``: a finite minimum goes to its first
    lane, and the rows whose minimum is ``+inf`` are ordered under
    ``last`` and ``random``.  On integer bins the per-lane arrays live
    in ``scratch`` pools, so a call allocates nothing in proportion to
    its lanes.
    """
    n_labels = ttf.shape[-1]
    n_rows = ttf.size // n_labels
    index, values = lanes.index, lanes.values
    rows = scratch.buf("select_rows_pool", (ttf.size,), np.intp)[: index.size]
    keys = scratch.buf("select_keys_pool", (ttf.size,), np.int64)[: index.size]
    np.floor_divide(index, n_labels, out=rows)
    no_rows = np.empty(0, dtype=np.intp)
    if np.issubdtype(ttf.dtype, np.floating):
        lane = np.subtract(index, rows * n_labels, out=keys)
        low = np.full(n_rows, np.inf)
        np.minimum.at(low, rows, values)
        at_low = values == low[rows]
        # A row without a listed lane keeps n_labels, i.e. lane 0.
        first = np.full(n_rows, n_labels, dtype=np.intp)
        np.minimum.at(first, rows[at_low], lane[at_low])
        np.remainder(first.reshape(out.shape), n_labels, out=out)
        if tie_policy == "first":
            return no_rows
        return np.flatnonzero(np.isinf(low))
    # With no rest value every row lists all its lanes, so the start
    # value is always replaced.
    start = (
        np.iinfo(np.int64).max if lanes.rest is None
        else np.int64(lanes.rest) * n_labels
    )
    # index = row * n_labels + lane, so (bin - row) * n_labels + index is
    # bin * n_labels + lane, and (bin + row) * n_labels - index is
    # bin * n_labels - lane.
    if tie_policy != "last":
        np.subtract(values, rows, out=keys, dtype=np.int64)
        keys *= n_labels
        keys += index
        first = np.full(n_rows, start, dtype=np.int64)
        np.minimum.at(first, rows, keys)
        np.remainder(first.reshape(out.shape), n_labels, out=out)
        if tie_policy == "first":
            return no_rows
    np.add(values, rows, out=keys, dtype=np.int64)
    keys *= n_labels
    keys -= index
    # The empty row's key is its last lane at the rest value.
    last = np.full(n_rows, start - (n_labels - 1), dtype=np.int64)
    np.minimum.at(last, rows, keys)
    np.negative(last, out=last)
    last %= n_labels
    if tie_policy == "last":
        np.copyto(out, last.reshape(out.shape), casting="unsafe")
        return no_rows
    return np.flatnonzero(out.reshape(-1) != last)
