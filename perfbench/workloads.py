"""The benchmark's three workloads, driven through public entry points.

Each workload has a set-up phase (dataset, MRF, backends or engine),
one main call, and an outcome: a SHA-256 digest of the result, the
stereo quality against ground truth, and the modelled design's labels
per cycle.  The inputs depend only on the seed.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import apps, data, experiments, mrf, uarch
from repro.core import convert, pipeline
from repro.core.params import new_design_config
from repro.experiments import engine as experiment_engine
from repro.experiments.sweep import run_sweep
from repro.metrics import bad_pixel_percentage

#: Process-level memos.  Every measured call starts with all of them
#: empty, as in a fresh process; pool workers fork from that state.
MEMOS = {
    "conversion_lut": convert._conversion_lut,
    "cached_boundary_table": convert._cached_boundary_table,
    "cached_legacy_lut": convert._cached_legacy_lut,
    "engine._load_dataset": experiment_engine._load_dataset,
}


def reset_memos() -> None:
    for memo in MEMOS.values():
        memo.cache_clear()


def lut_builds() -> int:
    """``conversion_lut`` memo misses so far in this process."""
    return MEMOS["conversion_lut"].cache_info().misses


@dataclass(frozen=True)
class Sizes:
    """Input sizes of all workloads."""

    stereo_scale: float = 1.0
    stereo_sweeps: int = 200
    uarch_scale: float = 0.5
    uarch_sweeps: int = 100
    sweep_scale: float = 0.5
    sweep_sweeps: int = 150
    sweep_values: tuple = (3, 4, 5, 6, 7, 8)


FULL = Sizes()
#: Seconds-scale inputs for the self-test.
TINY = Sizes(
    stereo_scale=0.25,
    stereo_sweeps=6,
    uarch_scale=0.25,
    uarch_sweeps=4,
    sweep_scale=0.2,
    sweep_sweeps=4,
    sweep_values=(3, 5),
)


@dataclass
class Outcome:
    """What one main call produced, reduced to checkable numbers."""

    digest: str
    bad_pixel_pct: float
    sim_labels_per_cycle: float
    operations: int = 1
    problems: list = field(default_factory=list)


def labels_digest(*parts) -> str:
    """SHA-256 over arrays (shape, dtype and bytes) and integers."""
    sha = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            array = np.ascontiguousarray(part)
            sha.update(f"{array.shape}{array.dtype.str}".encode())
            sha.update(array.tobytes())
        else:
            sha.update(repr(part).encode())
    return sha.hexdigest()


#: Bad-pixel share no solved map reaches: the solves here land at 11-17%,
#: a random labeling near 95%.
SOLVED_CEILING_PCT = 60.0


def label_problems(labels: np.ndarray, n_labels: int, shape: tuple, bad_pixel: float) -> list:
    """Sanity checks every solver output must pass."""
    problems = []
    if labels.shape != shape:
        problems.append(f"labels shape {labels.shape} != grid {shape}")
    elif labels.size and (labels.min() < 0 or labels.max() >= n_labels):
        problems.append("labels out of range")
    if not math.isfinite(bad_pixel) or bad_pixel >= SOLVED_CEILING_PCT:
        problems.append(f"bad_pixel_pct {bad_pixel} is not a solved disparity map")
    return problems


def modelled_labels_per_cycle(labels: int, variables: int, iterations: int, **config) -> float:
    """Closed-form throughput of the new design on this run (core.pipeline)."""
    timing = pipeline.simulate("new", labels, variables, iterations, new_design_config(**config))
    return timing.throughput_labels_per_cycle


class Workload:
    """One benchmark workload: set-up, main call, outcome and teardown."""

    name = ""
    why = ""
    main_call = ""
    #: Whether the warm pass replays the cold pass's context (the engine
    #: re-reading its cache) instead of a fresh set-up with warm memos.
    replays = False

    def __init__(self, sizes: Sizes, workdir: Path):
        self.sizes = sizes
        #: Scratch directory inside the checkout (engine caches).
        self.workdir = workdir

    def setup(self, seed: int, traced: bool = False):
        """Build the inputs of one main call; ``traced`` turns on the
        engine's per-task telemetry envelope, which a layer metric reads."""
        raise NotImplementedError

    def run(self, ctx):
        raise NotImplementedError

    def outcome(self, ctx, result) -> Outcome:
        raise NotImplementedError

    def teardown(self, ctx) -> None:
        pass

    def shape(self) -> tuple:
        """(dataset scale, sweeps, chains, design points)."""
        raise NotImplementedError

    def input_sizes(self) -> dict:
        scale, sweeps, chains, points = self.shape()
        dataset = data.load_stereo("poster", scale)
        return {
            "sites": int(dataset.gt_disparity.size),
            "grid": list(dataset.gt_disparity.shape),
            "labels": dataset.n_labels,
            "sweeps": sweeps,
            "chains": chains,
            "design_points": points,
        }


@dataclass
class SolverContext:
    seed: int
    dataset: object
    params: object = None
    runner: object = None
    backend: object = None


class StereoSolve(Workload):
    name = "stereo_solve"
    why = (
        "The headline user solve: large per-call arrays put most time in the "
        "RSU-G stages (select, energy gather, TTF); the uarch and engine layers do no work."
    )
    main_call = "repro.apps.solve_stereo"

    def setup(self, seed, traced=False):
        # solve_stereo builds its own MRF and backend from the dataset;
        # building them here too makes setup_s the set-up share of the
        # user's call (dataset, MRF, backend), as on the other workloads.
        dataset = data.load_stereo("poster", self.sizes.stereo_scale)
        params = apps.StereoParams(iterations=self.sizes.stereo_sweeps)
        model = apps.build_stereo_mrf(dataset, params)
        apps.make_backend("new_rsug", model.max_energy(), seed=seed)
        return SolverContext(seed, dataset, params)

    def run(self, ctx):
        return apps.solve_stereo(ctx.dataset, "new_rsug", ctx.params, seed=ctx.seed)

    def outcome(self, ctx, result):
        labels = result.disparity
        dataset = ctx.dataset
        return Outcome(
            digest=labels_digest(labels),
            bad_pixel_pct=float(result.bad_pixel),
            sim_labels_per_cycle=modelled_labels_per_cycle(
                dataset.n_labels, labels.size, self.sizes.stereo_sweeps
            ),
            problems=label_problems(
                labels, dataset.n_labels, dataset.gt_disparity.shape, result.bad_pixel
            ),
        )

    def shape(self):
        return self.sizes.stereo_scale, self.sizes.stereo_sweeps, 1, 1


class UarchSolve(Workload):
    name = "uarch_solve"
    why = (
        "Machine-in-the-loop solve: the event engine takes most host time and no "
        "RSU-G functional stage runs, so core.* changes predict no change here."
    )
    main_call = "repro.mrf.MCMCSolver.run"

    def setup(self, seed, traced=False):
        sizes = self.sizes
        dataset = data.load_stereo("poster", sizes.uarch_scale)
        params = apps.StereoParams(iterations=sizes.uarch_sweeps)
        model = apps.build_stereo_mrf(dataset, params)
        backend = uarch.CycleCountingBackend(
            new_design_config(), model.max_energy(), np.random.default_rng(seed)
        )
        schedule = mrf.geometric_for_span(params.t0, params.t_final, sizes.uarch_sweeps)
        solver = mrf.MCMCSolver(model, backend, schedule, seed=seed, track_energy=False)
        return SolverContext(seed, dataset, params, runner=solver, backend=backend)

    def run(self, ctx):
        return ctx.runner.run(self.sizes.uarch_sweeps)

    def outcome(self, ctx, result):
        labels = result.labels
        dataset = ctx.dataset
        backend = ctx.backend
        bad_pixel = float(bad_pixel_percentage(labels, dataset.gt_disparity))
        return Outcome(
            digest=labels_digest(
                labels, backend.total_cycles, np.asarray(backend.batch_cycles, np.int64)
            ),
            bad_pixel_pct=bad_pixel,
            sim_labels_per_cycle=backend.measured_throughput(),
            problems=label_problems(
                labels, dataset.n_labels, dataset.gt_disparity.shape, bad_pixel
            ),
        )

    def shape(self):
        return self.sizes.uarch_scale, self.sizes.uarch_sweeps, 1, 1


@dataclass
class EngineContext:
    seed: int
    engine: object
    cache_dir: Path


class EngineSweep(Workload):
    name = "engine_sweep"
    why = (
        "The only workload through the process pool, pickling and result cache: "
        "a cold pass writes every entry and a warm replay only reads them."
    )
    main_call = "repro.experiments.sweep.run_sweep (cold cache)"
    replays = True

    def __init__(self, sizes: Sizes, workdir: Path):
        super().__init__(sizes, workdir)
        self._fresh = itertools.count()

    @property
    def jobs(self) -> int:
        return min(2, os.cpu_count() or 1)

    def setup(self, seed, traced=False):
        # A fresh cache path per set-up; the engine creates it on its
        # first store, inside the cold pass, as it would for a user.
        cache_dir = self.workdir / f"engine-cache-{os.getpid()}-{next(self._fresh)}"
        engine = experiments.ExperimentEngine(
            jobs=self.jobs, cache_dir=cache_dir, use_cache=True, telemetry=traced
        )
        return EngineContext(seed, engine, cache_dir)

    def run(self, ctx):
        sizes = self.sizes
        profile = experiments.FULL.with_(
            sweep_scale=sizes.sweep_scale, sweep_iterations=sizes.sweep_sweeps
        )
        with experiments.use_engine(ctx.engine):
            return run_sweep(
                "time_bits", list(sizes.sweep_values), app="stereo",
                profile=profile, seed=ctx.seed,
            )

    def outcome(self, ctx, result):
        values = [row[1] for row in result.rows]
        problems = [
            f"design point time_bits={point['value']} failed: {point['reason']}"
            for point in result.extra.get("failed_points", [])
        ]
        problems += [
            f"design point time_bits={row[0]} has a NaN row"
            for row in result.rows
            if not math.isfinite(row[1])
        ]
        if len(result.rows) != len(self.sizes.sweep_values):
            problems.append(f"{len(result.rows)} rows for {len(self.sizes.sweep_values)} points")
        finite = [value for value in values if math.isfinite(value)]
        dataset = data.load_stereo("poster", self.sizes.sweep_scale)
        lpc = [
            modelled_labels_per_cycle(
                dataset.n_labels, dataset.gt_disparity.size, self.sizes.sweep_sweeps,
                time_bits=value,
            )
            for value in self.sizes.sweep_values
        ]
        return Outcome(
            digest=hashlib.sha256(result.to_json().encode()).hexdigest(),
            bad_pixel_pct=float(np.mean(finite)) if finite else float("nan"),
            sim_labels_per_cycle=float(np.mean(lpc)),
            operations=len(self.sizes.sweep_values),
            problems=problems,
        )

    def teardown(self, ctx):
        shutil.rmtree(ctx.cache_dir, ignore_errors=True)

    def shape(self):
        sizes = self.sizes
        return sizes.sweep_scale, sizes.sweep_sweeps, 1, len(sizes.sweep_values)

    def input_sizes(self):
        return {**super().input_sizes(), "jobs": self.jobs}


WORKLOADS = {cls.name: cls for cls in (StereoSolve, UarchSolve, EngineSweep)}
