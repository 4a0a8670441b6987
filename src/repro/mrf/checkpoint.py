"""Checkpoint/resume for the MCMC solvers — byte-identical continuation.

A paper-scale evaluation runs minutes-to-hours of Gibbs sweeps per
design point; an interruption (preemption, OOM, SIGTERM from a job
scheduler) should cost at most one checkpoint interval, not the whole
solve.  A :class:`SolveCheckpoint` captures everything the three solver
front ends (:class:`~repro.mrf.solver.MCMCSolver`,
:class:`~repro.mrf.tempering.ParallelTempering`,
:class:`~repro.mrf.batch.EnsembleSolver`) need to continue *exactly*
where they stopped:

* the label grid(s) — ``(H, W)`` for a single chain, ``(K, H, W)``
  stacked for tempering ladders and ensembles;
* the completed sweep index and the recorded histories (energy,
  temperature, swap bookkeeping) so the resumed result equals the
  uninterrupted one entry for entry;
* the **full RNG state** of every stream the run consumes — the
  solver-level generator plus each sampler backend's
  :meth:`~repro.core.base.SamplerBackend.getstate` snapshot (NumPy
  generators, LFSR registers, MT19937 state vectors; for buffered
  sources the snapshot also carries the prefetch-slab cursor, so a
  checkpoint landing mid-block resumes byte-identically without
  persisting the buffered floats themselves).

The hard contract, enforced by ``tests/test_mrf_checkpoint.py``: a
solve interrupted at *any* checkpoint and resumed produces byte-identical
labels, energies, and RNG stream positions to the uninterrupted oracle,
on every backend.

On disk a checkpoint is a pickle inside the checksummed envelope of
:mod:`repro.util.integrity` (same format as the result cache), written
atomically — a crash mid-checkpoint leaves the previous checkpoint
intact, and a truncated/corrupt file is reported as a structured
:class:`~repro.util.integrity.EnvelopeError` instead of resuming from
garbage.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from repro.util.errors import ConfigError
from repro.util.integrity import dump_envelope, load_envelope

#: Bump when the checkpoint payload layout changes incompatibly.
CHECKPOINT_FORMAT_VERSION = 1

#: Checkpoint kinds, one per solver front end.
KINDS = ("solver", "tempering", "ensemble")


@dataclass
class SolveCheckpoint:
    """One resumable snapshot of an in-flight solve."""

    kind: str
    sweep: int  # completed sweeps at snapshot time
    labels: np.ndarray  # (H, W) or (K, H, W) copy, chain-stacked
    rng: dict  # named RNG/backend state snapshots
    history: dict = field(default_factory=dict)  # recorded per-sweep bookkeeping
    meta: dict = field(default_factory=dict)  # shape/backend hints for validation

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown checkpoint kind {self.kind!r}; expected {KINDS}")
        if self.sweep < 0:
            raise ConfigError(f"sweep must be >= 0, got {self.sweep}")


def save_checkpoint(checkpoint: SolveCheckpoint, path: os.PathLike) -> None:
    """Persist ``checkpoint`` atomically inside the checksummed envelope."""
    dump_envelope(path, checkpoint, CHECKPOINT_FORMAT_VERSION)


def load_checkpoint(path: os.PathLike) -> SolveCheckpoint:
    """Load and verify a checkpoint written by :func:`save_checkpoint`."""
    checkpoint = load_envelope(path, CHECKPOINT_FORMAT_VERSION)
    if not isinstance(checkpoint, SolveCheckpoint):
        raise ConfigError(
            f"checkpoint file holds a {type(checkpoint).__name__}, "
            "not a SolveCheckpoint"
        )
    return checkpoint


def resolve_checkpoint(
    resume: Union[SolveCheckpoint, str, os.PathLike, None], kind: str
) -> Optional[SolveCheckpoint]:
    """Normalize a ``resume=`` argument: checkpoint object, path, or None."""
    if resume is None:
        return None
    checkpoint = (
        resume if isinstance(resume, SolveCheckpoint) else load_checkpoint(resume)
    )
    if checkpoint.kind != kind:
        raise ConfigError(
            f"cannot resume a {kind!r} run from a {checkpoint.kind!r} checkpoint"
        )
    return checkpoint


def resume_labels(
    checkpoint: SolveCheckpoint, iterations: int, shape: tuple, n_labels: int
) -> np.ndarray:
    """Validated int64 copy of a checkpoint's labels, for a resuming run.

    Shared by every front end's ``_restore``.  Raises
    :class:`~repro.util.errors.ConfigError` when the checkpoint already
    holds ``iterations`` sweeps, when its labels are not ``shape`` (the
    ``(H, W)`` grid or the ``(K, H, W)`` chain stack), or when any label
    lies outside ``[0, n_labels)`` — a ``-1`` would silently read the
    sweep kernel's sentinel row of the padded pairwise table, and a
    label past the end would fail deep inside a gather.
    """
    if checkpoint.sweep >= iterations:
        raise ConfigError(
            f"checkpoint already has {checkpoint.sweep} sweeps; "
            f"cannot resume a {iterations}-sweep run"
        )
    labels = np.array(checkpoint.labels, dtype=np.int64, copy=True)
    if labels.shape != tuple(shape):
        raise ConfigError(
            f"checkpoint labels shape {labels.shape} != run shape {tuple(shape)}"
        )
    if labels.min() < 0 or labels.max() >= n_labels:
        raise ConfigError(f"checkpoint labels out of range [0, {n_labels})")
    return labels


class CheckpointWriter:
    """Periodic checkpoint emitter shared by the solver front ends.

    ``every`` is the sweep interval (0 disables); a due snapshot is
    built by the caller's ``make`` thunk and routed to ``path`` (atomic
    envelope write, same file each time — the latest checkpoint wins)
    and/or ``sink`` (a callable, e.g. a test capturing snapshots or a
    driver shipping them elsewhere).
    """

    def __init__(
        self,
        every: int = 0,
        path: Optional[os.PathLike] = None,
        sink: Optional[Callable[[SolveCheckpoint], None]] = None,
    ):
        if every < 0:
            raise ConfigError(f"checkpoint interval must be >= 0, got {every}")
        if every and path is None and sink is None:
            raise ConfigError(
                "checkpointing enabled but neither a path nor a sink was given"
            )
        self.every = every
        self.path = path
        self.sink = sink

    @property
    def enabled(self) -> bool:
        return self.every > 0

    def due(self, completed_sweeps: int) -> bool:
        """Whether a snapshot should be taken after ``completed_sweeps``."""
        return self.enabled and completed_sweeps % self.every == 0

    def emit(self, checkpoint: SolveCheckpoint) -> None:
        """Route one snapshot to the configured destinations."""
        if self.path is not None:
            save_checkpoint(checkpoint, self.path)
        if self.sink is not None:
            self.sink(checkpoint)

    def maybe_emit(
        self, completed_sweeps: int, make: Callable[[], SolveCheckpoint]
    ) -> None:
        """Build (lazily) and emit a snapshot when one is due."""
        if self.due(completed_sweeps):
            self.emit(make())
