"""Perf baseline harness: experiment engine + λ-LUT fast path timings.

Times the hot paths this repo optimizes — registry experiments through
the parallel/cached execution engine and stereo solves with the
memoized λ-conversion LUT on/off — and emits ``BENCH_perf.json`` at the
repo root so later PRs have a trajectory to beat.

Three lanes:

* ``registry_engine`` — the multi-design-point ablations experiment run
  (a) sequentially with no cache (the pre-engine behaviour), (b) with
  ``jobs=4`` and a cold content-addressed cache, and (c) again with the
  warm cache.  The headline speedup compares the sequential uncached
  baseline against the best engine run; on multi-core hosts the cold
  lane shows the shard-pool win, on single-core CI the warm lane shows
  the cache win.  ``cpu_count`` is recorded so the numbers read honestly.
* ``sweep_engine`` — the CLI sweep path, same lanes.
* ``lambda_lut`` — one full stereo solve with the conversion LUT
  disabled (per-site ``np.exp``) vs enabled (integer table gather).
* ``sweep_kernel`` — the same stereo solve through the reference
  per-sweep pipeline (``use_fused=False``) vs the fused allocation-free
  sweep kernel (the solver default, the K=1 sweep workspace).  Labels
  are asserted byte-identical before either time is recorded.
* ``batched_chains`` — a K=8 parallel-tempering ladder run through one
  K-chain ``(K, H, W)`` sweep workspace vs K sequential K=1 replicas,
  byte-identity (labels, energy histories, swap decisions) asserted
  first.
* ``entropy_backends`` — the vectorized entropy subsystem: bulk
  ``uniforms`` draws through the bit-sliced LFSR block engine and the
  block MT19937 twist vs their scalar oracles, plus an end-to-end
  ``rng_kind=lfsr`` stereo solve on the buffered vectorized backend vs
  the scalar one.  Word streams and solve labels are asserted
  byte-identical before any time is recorded.
* ``telemetry`` — the fused stereo solve metered vs unmetered: asserts
  byte-identity, exporter round-trips, and a deterministic bound on the
  disabled-path overhead (op count × measured ``obs.active()`` probe
  cost) of under 2% of the solve.
* ``uarch_sim`` — a machine-in-the-loop stereo solve (every Gibbs batch
  through the structural ``NewMachine``): per-cycle scalar oracle vs
  the event-driven batched engine (``use_event_driven``).  Labels and
  cycle counts are asserted cycle-identical before either time is
  recorded.

Every lane asserts byte-identical results across its variants before
recording a time.  Run directly (``python benchmarks/test_bench_perf.py``)
or through pytest; ``BENCH_PERF_PROFILE=tiny`` shrinks the workload for
CI smoke lanes.

Not collected by the tier-1 suite (pytest ``testpaths`` is ``tests``).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.apps.common import make_backend
from repro.apps.stereo import StereoParams, build_stereo_mrf, solve_stereo
from repro.core.convert import use_lut
from repro.core.params import new_design_config
from repro.data.stereo_data import load_stereo
from repro.mrf.annealing import geometric_for_span
from repro.mrf.solver import MCMCSolver
from repro.mrf.tempering import ParallelTempering, geometric_ladder
from repro.experiments import QUICK
from repro.experiments.ablations import run as run_ablations
from repro.experiments.engine import ExperimentEngine, use_engine
from repro.experiments.sweep import run_sweep

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT_PATH = REPO_ROOT / "BENCH_perf.json"

#: Workload profiles: "small" for a meaningful local baseline, "tiny"
#: for the CI perf-smoke lane (set BENCH_PERF_PROFILE=tiny).
PROFILES = {
    "small": QUICK.with_(
        sweep_scale=0.5, sweep_iterations=150,
        stereo_scale=1.0, stereo_iterations=200,
    ),
    "tiny": QUICK.with_(
        sweep_scale=0.12, sweep_iterations=8,
        stereo_scale=0.2, stereo_iterations=20,
    ),
}

PARALLEL_JOBS = 4


def _timed(func):
    """(wall seconds, result) of one call."""
    started = time.perf_counter()
    result = func()
    return time.perf_counter() - started, result


def _engine_lanes(run, cache_dir):
    """Time ``run`` under jobs=1/no-cache, jobs=4/cold, jobs=4/warm.

    Asserts all three runs produce byte-identical experiment payloads.
    """
    seq_engine = ExperimentEngine(jobs=1, use_cache=False)
    with use_engine(seq_engine):
        seq_s, baseline = _timed(run)

    cold_engine = ExperimentEngine(jobs=PARALLEL_JOBS, cache_dir=cache_dir, use_cache=True)
    with use_engine(cold_engine):
        cold_s, cold = _timed(run)

    warm_engine = ExperimentEngine(jobs=PARALLEL_JOBS, cache_dir=cache_dir, use_cache=True)
    with use_engine(warm_engine):
        warm_s, warm = _timed(run)

    assert cold.to_json() == baseline.to_json(), "parallel run diverged from sequential"
    assert warm.to_json() == baseline.to_json(), "cached run diverged from sequential"
    assert warm_engine.stats.cache_hits == warm_engine.stats.tasks

    best_engine_s = min(cold_s, warm_s)
    return {
        "design_points": cold_engine.stats.tasks,
        "jobs1_nocache_s": round(seq_s, 4),
        f"jobs{PARALLEL_JOBS}_cold_cache_s": round(cold_s, 4),
        f"jobs{PARALLEL_JOBS}_warm_cache_s": round(warm_s, 4),
        f"speedup_jobs{PARALLEL_JOBS}_vs_jobs1": round(seq_s / best_engine_s, 2),
        "results_byte_identical": True,
    }


def bench_registry_engine(profile):
    """Ablations (6 design points) through the engine lanes."""
    with tempfile.TemporaryDirectory() as cache_dir:
        lanes = _engine_lanes(
            lambda: run_ablations(profile=profile, seed=3), cache_dir
        )
    lanes["experiment"] = "ablations"
    return lanes


def bench_sweep_engine(profile):
    """CLI-style time_bits sweep through the engine lanes."""
    values = [3, 4, 5, 6, 7, 8]
    with tempfile.TemporaryDirectory() as cache_dir:
        lanes = _engine_lanes(
            lambda: run_sweep("time_bits", values, app="stereo",
                              profile=profile, seed=3),
            cache_dir,
        )
    lanes["experiment"] = f"sweep:time_bits:stereo x{len(values)}"
    return lanes


def bench_lambda_lut(profile):
    """One full stereo solve: direct per-site exp vs memoized LUT gather."""
    dataset = load_stereo("poster", scale=profile.stereo_scale)
    params = StereoParams(iterations=profile.stereo_iterations)
    config = new_design_config()

    def solve():
        return solve_stereo(dataset, "rsu", params, rsu_config=config, seed=3)

    with use_lut(False):
        direct_s, direct = _timed(solve)
    with use_lut(True):
        lut_s, lut = _timed(solve)

    assert np.array_equal(direct.disparity, lut.disparity), "LUT path diverged"
    assert direct.bad_pixel == lut.bad_pixel
    return {
        "solve": f"stereo poster scale={profile.stereo_scale} "
                 f"iters={profile.stereo_iterations}",
        "direct_exp_s": round(direct_s, 4),
        "lut_s": round(lut_s, 4),
        "speedup_lut_vs_direct": round(direct_s / lut_s, 2),
        "results_byte_identical": True,
    }


def bench_sweep_kernel(profile):
    """Reference per-sweep pipeline vs the K=1 sweep workspace.

    Byte-identity of the final label grids is asserted before either
    time is recorded; both solves share one model, schedule and seed so
    the only variable is ``use_fused``.
    """
    dataset = load_stereo("poster", scale=profile.stereo_scale)
    params = StereoParams(iterations=profile.stereo_iterations)
    model = build_stereo_mrf(dataset, params)
    schedule = geometric_for_span(params.t0, params.t_final, params.iterations)

    def solve(fused):
        sampler = make_backend("rsu", model.max_energy(), seed=3,
                               config=new_design_config())
        solver = MCMCSolver(model, sampler, schedule, seed=3,
                            track_energy=False, use_fused=fused)
        return solver.run(params.iterations)

    # Byte-identity first, then time: best of two runs per variant to
    # damp scheduler noise (each run is a full solve, so "warm-up" means
    # OS/cache state, not algorithmic state — the solver is recreated).
    reference = solve(False)
    fused = solve(True)
    assert np.array_equal(reference.labels, fused.labels), "fused kernel diverged"
    reference_s = min(_timed(lambda: solve(False))[0] for _ in range(2))
    fused_s = min(_timed(lambda: solve(True))[0] for _ in range(2))

    return {
        "solve": f"stereo poster scale={profile.stereo_scale} "
                 f"iters={profile.stereo_iterations}",
        "reference_s": round(reference_s, 4),
        "fused_s": round(fused_s, 4),
        "speedup_fused_vs_reference": round(reference_s / fused_s, 2),
        "results_byte_identical": True,
    }


#: Replicas in the batched-chains lane (the paper's multi-unit layouts
#: run ladders of this order; K=8 is the ISSUE's acceptance workload).
TEMPERING_CHAINS = 8


def bench_batched_chains(profile):
    """K=8 replica-tempering ladder: one K-chain ``(K, H, W)`` sweep
    workspace vs K sequential K=1 solves.

    Byte-identity (labels, energy histories, swap decisions) is asserted
    before either time is recorded.  The ladder runs at half the sweep
    scale: replica grids in real tempering workloads are small, and that
    is exactly the regime where batching wins — per-call NumPy dispatch
    overhead dominates small grids, while on large grids the K×-bigger
    working set falls out of cache and per-chain execution is at parity
    or better (see docs/performance.md).
    """
    scale = profile.sweep_scale * 0.5
    dataset = load_stereo("poster", scale=scale)
    params = StereoParams()
    model = build_stereo_mrf(dataset, params)
    sweeps = profile.sweep_iterations
    ladder = geometric_ladder(0.05, 0.6, TEMPERING_CHAINS)

    def run(use_batched):
        tempering = ParallelTempering(
            model,
            lambda index: make_backend("rsu", model.max_energy(),
                                       seed=100 + index,
                                       config=new_design_config()),
            ladder,
            swap_interval=2,
            seed=3,
            use_batched=use_batched,
        )
        return tempering.run(sweeps)

    # Byte-identity first, then time (best of two runs per variant).
    batched = run(True)
    sequential = run(False)
    assert np.array_equal(batched.labels, sequential.labels), (
        "batched tempering diverged from sequential replicas"
    )
    assert batched.energy_history == sequential.energy_history
    assert (batched.swap_attempts, batched.swaps_accepted) == (
        sequential.swap_attempts, sequential.swaps_accepted
    )
    batched_s = min(_timed(lambda: run(True))[0] for _ in range(2))
    sequential_s = min(_timed(lambda: run(False))[0] for _ in range(2))

    return {
        "solve": f"stereo poster scale={scale} tempering "
                 f"K={TEMPERING_CHAINS} sweeps={sweeps} swap_interval=2",
        "chains": TEMPERING_CHAINS,
        "sequential_s": round(sequential_s, 4),
        "batched_s": round(batched_s, 4),
        "speedup_batched_vs_sequential": round(sequential_s / batched_s, 2),
        "results_byte_identical": True,
    }


#: Bulk-draw sizes for the entropy lane, per profile.
ENTROPY_DRAWS = {"small": 200_000, "tiny": 20_000}


def bench_entropy_backends(profile_name):
    """Scalar oracles vs the vectorized entropy subsystem.

    Two micro lanes (bulk ``uniforms`` from the 19-bit LFSR and the
    MT19937) plus one end-to-end lane (a full ``cdf_lfsr`` stereo solve
    on the buffered vectorized backend vs the scalar one).  Byte
    identity — word streams and solve labels — is asserted before any
    time is recorded.
    """
    from repro.rng import LFSR, MT19937

    draws = ENTROPY_DRAWS[profile_name]
    profile = PROFILES[profile_name]

    # --- LFSR bulk uniforms ---
    scalar_u = LFSR(width=19, seed=7, use_vectorized=False).uniforms(draws)
    vector_u = LFSR(width=19, seed=7, use_vectorized=True).uniforms(draws)
    assert np.array_equal(scalar_u, vector_u), "bit-sliced LFSR diverged"
    lfsr_scalar_s = _timed(
        lambda: LFSR(width=19, seed=7, use_vectorized=False).uniforms(draws)
    )[0]
    lfsr_vector_s = min(
        _timed(
            lambda: LFSR(width=19, seed=7, use_vectorized=True).uniforms(draws)
        )[0]
        for _ in range(3)
    )

    # --- MT19937 bulk uniforms ---
    scalar_u = MT19937(seed=7, use_vectorized=False).uniforms(draws)
    vector_u = MT19937(seed=7, use_vectorized=True).uniforms(draws)
    assert np.array_equal(scalar_u, vector_u), "block MT19937 diverged"
    mt_scalar_s = _timed(
        lambda: MT19937(seed=7, use_vectorized=False).uniforms(draws)
    )[0]
    mt_vector_s = min(
        _timed(
            lambda: MT19937(seed=7, use_vectorized=True).uniforms(draws)
        )[0]
        for _ in range(3)
    )

    # --- end-to-end cdf_lfsr stereo solve ---
    dataset = load_stereo("poster", scale=profile.stereo_scale)
    params = StereoParams(iterations=profile.stereo_iterations)
    model = build_stereo_mrf(dataset, params)
    schedule = geometric_for_span(params.t0, params.t_final, params.iterations)

    def solve(use_vectorized):
        sampler = make_backend("cdf_lfsr", model.max_energy(), seed=3,
                               use_vectorized=use_vectorized)
        solver = MCMCSolver(model, sampler, schedule, seed=3,
                            track_energy=False)
        return solver.run(params.iterations)

    reference = solve(False)
    vectorized = solve(True)
    assert np.array_equal(reference.labels, vectorized.labels), (
        "vectorized cdf_lfsr solve diverged"
    )
    solve_scalar_s = _timed(lambda: solve(False))[0]
    solve_vector_s = min(_timed(lambda: solve(True))[0] for _ in range(2))

    return {
        "uniform_draws": draws,
        "lfsr_scalar_s": round(lfsr_scalar_s, 4),
        "lfsr_vectorized_s": round(lfsr_vector_s, 4),
        "speedup_lfsr_vectorized": round(lfsr_scalar_s / lfsr_vector_s, 2),
        "mt_scalar_s": round(mt_scalar_s, 4),
        "mt_vectorized_s": round(mt_vector_s, 4),
        "speedup_mt_vectorized": round(mt_scalar_s / mt_vector_s, 2),
        "solve": f"stereo poster scale={profile.stereo_scale} "
                 f"iters={profile.stereo_iterations} rng_kind=lfsr",
        "solve_scalar_s": round(solve_scalar_s, 4),
        "solve_vectorized_s": round(solve_vector_s, 4),
        "speedup_solve_vectorized": round(solve_scalar_s / solve_vector_s, 2),
        "results_byte_identical": True,
    }


#: Machine-in-the-loop workload per profile: (stereo scale, iterations).
#: Smaller than the functional-solver lanes — the *scalar oracle* side
#: steps every pipeline latch every cycle, so this is the one lane whose
#: baseline is thousands of times slower than the functional path.
UARCH_SOLVES = {"small": (0.18, 40), "tiny": (0.08, 10)}


def bench_uarch_sim(profile_name):
    """Scalar cycle-stepped machines vs the event-driven batched engine.

    One full stereo solve with the structural ``NewMachine`` as the
    sampler backend, run on both paths.  Cycle identity — final labels,
    total cycles, and every per-batch cycle count — is asserted before
    either time is recorded.
    """
    from repro.uarch import CycleCountingBackend

    scale, iterations = UARCH_SOLVES[profile_name]
    dataset = load_stereo("poster", scale=scale)
    params = StereoParams(iterations=iterations)
    model = build_stereo_mrf(dataset, params)
    schedule = geometric_for_span(params.t0, params.t_final, params.iterations)

    def solve(use_event_driven):
        backend = CycleCountingBackend(
            new_design_config(), model.max_energy(), np.random.default_rng(5),
            use_event_driven=use_event_driven,
        )
        solver = MCMCSolver(model, backend, schedule, seed=3,
                            track_energy=False)
        return solver.run(params.iterations).labels, backend

    # Cycle identity first, then time.
    labels_event, backend_event = solve(True)
    labels_scalar, backend_scalar = solve(False)
    assert np.array_equal(labels_event, labels_scalar), (
        "event-driven machine diverged from the scalar oracle"
    )
    assert backend_event.total_cycles == backend_scalar.total_cycles
    assert backend_event.batch_cycles == backend_scalar.batch_cycles
    event_s = min(_timed(lambda: solve(True))[0] for _ in range(2))
    scalar_s = _timed(lambda: solve(False))[0]

    return {
        "solve": f"stereo poster scale={scale} iters={iterations} "
                 f"machine-in-the-loop (NewMachine)",
        "total_cycles": backend_event.total_cycles,
        "measured_throughput_labels_per_cycle": round(
            backend_event.measured_throughput(), 4
        ),
        "scalar_s": round(scalar_s, 4),
        "event_s": round(event_s, 4),
        "speedup_event_vs_scalar": round(scalar_s / event_s, 2),
        "results_cycle_identical": True,
    }


def bench_telemetry(profile):
    """Telemetry on vs off around the fused stereo solve.

    Asserts the metered solve is byte-identical to the unmetered one,
    that the exporters round-trip, and that the *disabled-path* cost is
    bounded: every metering site costs one ``obs.active()`` probe when
    telemetry is off, so the enabled run's op count times the measured
    per-probe cost bounds the disabled overhead deterministically
    (no wall-clock flakiness from comparing two noisy solve timings).
    """
    from repro.obs import telemetry as obs
    from repro.obs.exporters import (
        parse_jsonl,
        telemetry_from_events,
        to_jsonl,
        to_prometheus,
    )

    dataset = load_stereo("poster", scale=profile.stereo_scale)
    params = StereoParams(iterations=profile.stereo_iterations)
    model = build_stereo_mrf(dataset, params)
    schedule = geometric_for_span(params.t0, params.t_final, params.iterations)

    def solve():
        sampler = make_backend("rsu", model.max_energy(), seed=3,
                               config=new_design_config())
        solver = MCMCSolver(model, sampler, schedule, seed=3,
                            track_energy=False)
        return solver.run(params.iterations)

    disabled = solve()
    with obs.use_telemetry() as telemetry:
        enabled = solve()
    assert np.array_equal(disabled.labels, enabled.labels), (
        "telemetry perturbed the solve"
    )
    assert telemetry.value("solver.sweeps") == params.iterations
    assert telemetry.value("entropy.uniforms") > 0

    reloaded = telemetry_from_events(parse_jsonl(to_jsonl(telemetry)))
    assert reloaded.value("solver.flips") == telemetry.value("solver.flips")
    assert to_prometheus(telemetry).startswith("# TYPE")

    disabled_s = min(_timed(solve)[0] for _ in range(2))

    def timed_enabled():
        with obs.use_telemetry():
            return solve()

    enabled_s = min(_timed(timed_enabled)[0] for _ in range(2))

    # The disabled path of every metering site is one module-global read
    # plus an ``is None`` test; measure that probe and scale it by the
    # enabled run's op count (an upper bound on probe count per run).
    probes = 200_000
    started = time.perf_counter()
    for _ in range(probes):
        obs.active()
    probe_s = (time.perf_counter() - started) / probes
    disabled_overhead_fraction = telemetry.ops * probe_s / disabled_s
    assert disabled_overhead_fraction < 0.02, (
        f"disabled-telemetry overhead bound violated: "
        f"{disabled_overhead_fraction:.4%} of the solve"
    )

    return {
        "solve": f"stereo poster scale={profile.stereo_scale} "
                 f"iters={profile.stereo_iterations}",
        "disabled_s": round(disabled_s, 4),
        "enabled_s": round(enabled_s, 4),
        "enabled_overhead_fraction": round(enabled_s / disabled_s - 1.0, 4),
        "telemetry_ops": telemetry.ops,
        "probe_ns": round(probe_s * 1e9, 2),
        "disabled_overhead_fraction_bound": round(disabled_overhead_fraction, 6),
        "results_byte_identical": True,
    }


def _run_metadata() -> dict:
    """Provenance stamp for ``BENCH_perf.json``: who/where/when/what."""
    try:
        git_sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        git_sha = "unknown"
    return {
        "git_sha": git_sha or "unknown",
        "hostname": platform.node() or "unknown",
        "generated_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def run_perf_baseline(profile_name: str = None) -> dict:
    """Run every lane and write ``BENCH_perf.json``; returns the payload."""
    profile_name = profile_name or os.environ.get("BENCH_PERF_PROFILE", "small")
    profile = PROFILES[profile_name]
    payload = {
        "schema": 1,
        "profile": profile_name,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "parallel_jobs": PARALLEL_JOBS,
        **_run_metadata(),
        "note": (
            "speedup_jobs4_vs_jobs1 compares the sequential uncached baseline "
            "against the best engine run (cold parallel or warm cache); on a "
            "single-core host the win comes from the content-addressed result "
            "cache, on multi-core hosts additionally from the process pool. "
            "All lanes assert byte-identical results first."
        ),
        # Single-process solver lanes run first: the engine lanes spin
        # up process pools whose teardown can steal CPU from whatever
        # is timed next (painful on single-core CI hosts).
        "sweep_kernel": bench_sweep_kernel(profile),
        "batched_chains": bench_batched_chains(profile),
        "entropy_backends": bench_entropy_backends(profile_name),
        "uarch_sim": bench_uarch_sim(profile_name),
        "telemetry": bench_telemetry(profile),
        "lambda_lut": bench_lambda_lut(profile),
        "registry_engine": bench_registry_engine(profile),
        "sweep_engine": bench_sweep_engine(profile),
    }
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_perf_baseline():
    """The perf-smoke gate: lanes run, agree bit-for-bit, JSON lands."""
    payload = run_perf_baseline()
    assert OUTPUT_PATH.exists()
    assert payload["registry_engine"]["results_byte_identical"]
    assert payload["sweep_engine"]["results_byte_identical"]
    assert payload["lambda_lut"]["results_byte_identical"]
    assert payload["lambda_lut"]["speedup_lut_vs_direct"] > 0
    assert payload["sweep_kernel"]["results_byte_identical"]
    assert payload["sweep_kernel"]["speedup_fused_vs_reference"] > 0
    assert payload["batched_chains"]["results_byte_identical"]
    assert payload["batched_chains"]["speedup_batched_vs_sequential"] > 0
    assert payload["entropy_backends"]["results_byte_identical"]
    assert payload["entropy_backends"]["speedup_lfsr_vectorized"] > 0
    assert payload["entropy_backends"]["speedup_mt_vectorized"] > 0
    assert payload["entropy_backends"]["speedup_solve_vectorized"] > 0
    assert payload["uarch_sim"]["results_cycle_identical"]
    assert payload["uarch_sim"]["speedup_event_vs_scalar"] >= 5.0
    assert payload["telemetry"]["results_byte_identical"]
    assert payload["telemetry"]["disabled_overhead_fraction_bound"] < 0.02
    assert payload["git_sha"]
    assert payload["hostname"]
    assert payload["generated_utc"].endswith("+00:00")


if __name__ == "__main__":
    result = run_perf_baseline(sys.argv[1] if len(sys.argv) > 1 else None)
    print(json.dumps(result, indent=2))
