#!/usr/bin/env python3
"""The repository benchmark: three workloads, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload stereo_solve --seed 3 --seconds 15 --trace 0

``--trace 0`` times the workload with tracing off and prints the
end-to-end metrics; ``--trace 1`` interleaves untraced and traced main
calls and prints the per-layer metrics (see ``perfbench/metrics.py``).
Human-readable context (provenance, inputs, sample counts, digests)
comes first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Every result is checked: outputs must repeat exactly within the run,
traced outputs must equal untraced ones, and seeds listed in
``perfbench/expected.json`` (0-31 and their held-out seeds) must
reproduce their pinned SHA-256; any other seed is run with a warning.  Each
run also solves one held-out second seed (``seed + 1000000``), which
gives the peak heap; ``bad_pixel_pct`` is the mean over both seeds.

``python3 perfbench/selftest.py`` checks the benchmark itself on tiny
inputs; ``python3 perfbench/pin.py`` re-records the pinned digests.
"""

import os

# One driving process; no BLAS/OpenMP thread pools of its own.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import socket  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space (engine caches, span files), inside the checkout.
WORKDIR = ROOT / ".perfbench"
EXPECTED = HERE / "expected.json"
SECOND_SEED_OFFSET = 1_000_000
#: Set-ups are timed in a burst before every cold/warm pair, each burst
#: lasting SETUP_SHARE of the previous pair (at least SETUP_MIN_BURST_S),
#: so that they sample the same stretch of the run as the main calls.
#: Then the fewest cold/warm pairs, the fewest traced calls, and a hard
#: stop for either loop.
SETUP_SHARE = 0.15
SETUP_MIN_BURST_S = 0.1
MIN_PAIRS = 3
MIN_TRACED = 2
MAX_LOOP_S = 120.0


def _import_program():
    """Put the checkout's ``src`` first on the path; fail without it."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {ROOT / 'src' / 'repro'}")
    sys.path.insert(0, str(ROOT / "src"))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))


class Checker:
    """Counts operations and failed operations for one workload."""

    def __init__(self, workload: str, pinned: dict):
        self.workload = workload
        self.pinned = pinned
        self.reference = {}
        self.attempted = 0
        self.failed = 0

    def record(self, seed: int, outcome) -> bool:
        problems = list(outcome.problems)
        reference = self.reference.setdefault(seed, outcome.digest)
        if outcome.digest != reference:
            problems.append(f"digest {outcome.digest[:12]} != earlier call {reference[:12]}")
        pin = self.pinned.get(str(seed))
        if pin is not None and outcome.digest != pin:
            problems.append(f"digest {outcome.digest[:12]} != pinned {pin[:12]}")
        self.attempted += outcome.operations
        self.failed += min(outcome.operations, len(problems))
        for problem in problems:
            print(f"FAILED {self.workload} seed {seed}: {problem}", file=sys.stderr)
        return not problems

    def fail(self, seed: int, operations: int, error: BaseException) -> None:
        self.attempted += operations
        self.failed += operations
        print(
            f"FAILED {self.workload} seed {seed}: {type(error).__name__}: {error}",
            file=sys.stderr,
        )

    def pin_status(self, seed: int) -> str:
        if str(seed) in self.pinned:
            return "pinned"
        return "UNPINNED: output checked for repeatability and sanity only"


def _operations(workload) -> int:
    return len(workload.sizes.sweep_values) if workload.replays else 1


def _timed_nogc(fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - start


def _timed(fn, *args):
    gc.collect()
    return _timed_nogc(fn, *args)


def _loop_done(start: float, done: int, minimum: int, seconds: float) -> bool:
    """Stop once ``minimum`` iterations ran and another would pass ``seconds``."""
    elapsed = time.perf_counter() - start
    if elapsed >= MAX_LOOP_S:
        return True
    if done < minimum:
        return False
    return elapsed + elapsed / done > seconds


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _solve_once(workload, seed: int, checker: Checker, heap: bool = False):
    """One untimed main call from empty memos: ``(outcome, peak bytes)``."""
    import workloads

    workloads.reset_memos()
    peak = None
    try:
        ctx = workload.setup(seed)
        try:
            gc.collect()
            if heap:
                tracemalloc.start()
            try:
                result = workload.run(ctx)
                if heap:
                    peak = tracemalloc.get_traced_memory()[1]
            finally:
                if heap:
                    tracemalloc.stop()
            outcome = workload.outcome(ctx, result)
        finally:
            workload.teardown(ctx)
    except Exception as error:  # noqa: BLE001 - a failed operation, reported
        checker.fail(seed, _operations(workload), error)
        return None, peak
    checker.record(seed, outcome)
    return outcome, peak


def _timed_pair(workload, seed: int, checker: Checker):
    """A cold main call (memos empty) then a warm one, both checked.

    The warm call replays the cold call's context for the engine (its
    cache is now full) and starts from a fresh set-up otherwise (its
    memos are now full).  Returns ``(cold s, warm s, cold outcome)``.
    """
    import workloads

    workloads.reset_memos()
    ctx = workload.setup(seed)
    try:
        result, cold_s = _timed(workload.run, ctx)
        cold = workload.outcome(ctx, result)
        if workload.replays:
            result, warm_s = _timed(workload.run, ctx)
            warm = workload.outcome(ctx, result)
    finally:
        workload.teardown(ctx)
    if not workload.replays:
        ctx = workload.setup(seed)
        try:
            result, warm_s = _timed(workload.run, ctx)
            warm = workload.outcome(ctx, result)
        finally:
            workload.teardown(ctx)
    checker.record(seed, cold)
    checker.record(seed, warm)
    return cold_s, warm_s, cold


def measure_untraced(workload, seed: int, seconds: float, checker: Checker, log) -> dict:
    """End-to-end metrics: set-up, cold and warm main calls, peak heap, quality."""
    import workloads

    setups = []

    def time_setups(burst_s: float) -> None:
        """Time cold set-ups (memos empty) for ``burst_s`` seconds, at least one."""
        gc.collect()
        until = time.perf_counter() + burst_s
        while True:
            workloads.reset_memos()
            ctx, setup_s = _timed_nogc(workload.setup, seed)
            workload.teardown(ctx)
            setups.append(setup_s)
            if time.perf_counter() >= until:
                return

    second_seed = seed + SECOND_SEED_OFFSET
    second, peak = _solve_once(workload, second_seed, checker, heap=True)
    if second is not None:
        log(
            f"held-out seed {second_seed}: bad_pixel_pct={second.bad_pixel_pct:.4f} "
            f"digest={second.digest[:16]} ({checker.pin_status(second_seed)}); "
            f"peak heap measured on this call"
        )

    colds, warms, first = [], [], None
    burst_s = SETUP_MIN_BURST_S
    start = time.perf_counter()
    while not _loop_done(start, len(colds), MIN_PAIRS, seconds):
        time_setups(burst_s)
        pair_start = time.perf_counter()
        try:
            cold_s, warm_s, outcome = _timed_pair(workload, seed, checker)
        except Exception as error:  # noqa: BLE001 - a failed operation, reported
            checker.fail(seed, _operations(workload), error)
            break
        first = first or outcome
        colds.append(cold_s)
        warms.append(warm_s)
        burst_s = max(SETUP_MIN_BURST_S, SETUP_SHARE * (time.perf_counter() - pair_start))
    if first is None:
        raise RuntimeError(f"{workload.name}: no measured call succeeded")
    qualities = [o.bad_pixel_pct for o in (first, second) if o is not None]
    log(
        f"seed {seed}: bad_pixel_pct={first.bad_pixel_pct:.4f} "
        f"digest={first.digest[:16]} ({checker.pin_status(seed)})"
    )
    for name, values in (("setup_s", setups), ("solve_s", colds), ("warm_s", warms)):
        q1, q3 = _quartiles(values)
        log(
            f"{name}: n={len(values)} median={statistics.median(values):.6f} "
            f"q1={q1:.6f} q3={q3:.6f} min={min(values):.6f} max={max(values):.6f}"
        )
    return {
        "setup_s": statistics.median(setups),
        "solve_s": statistics.median(colds),
        "warm_s": statistics.median(warms),
        "peak_heap_mb": peak / 2**20 if peak is not None else math.nan,
        "bad_pixel_pct": statistics.fmean(qualities),
        "sim_labels_per_cycle": first.sim_labels_per_cycle,
        "ok_rate": 1.0 - checker.failed / checker.attempted,
    }


def _traced_call(workload, seed: int, patcher, targets, span_file: Path):
    """One traced set-up and main call (plus the warm replay for the engine).

    Returns the layer-metric row, the outcome, the main call's spans and
    its plain wall time (span clock not paused, so counting included).
    """
    import layers
    import workloads
    from spans import SpanTable

    tracer = patcher.tracer
    workloads.reset_memos()
    with patcher.installed(targets):
        tracer.reset()
        with tracer.span("setup"):
            ctx = workload.setup(seed, traced=True)
        row = layers.setup_metrics(SpanTable(tracer))
        tracer.write(span_file)
        try:
            engine = getattr(ctx, "engine", None)
            before = _engine_counts(engine)
            builds = workloads.lut_builds()
            tracer.reset()
            gc.collect()
            start = time.perf_counter()
            with tracer.span("solve"):
                result = workload.run(ctx)
            wall_s = time.perf_counter() - start
            cold = SpanTable(tracer)
            row.update(layers.solve_metrics(cold, tracer.counts, workloads.lut_builds() - builds))
            tracer.write(span_file)
            if workload.replays:
                middle = _engine_counts(engine)
                tracer.reset()
                with tracer.span("solve"):
                    workload.run(ctx)
                warm = SpanTable(tracer)
                tracer.write(span_file)
                after = _engine_counts(engine)
                stats = {
                    "cold_hits": middle[0] - before[0],
                    "cold_tasks": middle[1] - before[1],
                    "warm_hits": after[0] - middle[0],
                    "warm_tasks": after[1] - middle[1],
                }
                row.update(layers.engine_metrics(engine, ctx.cache_dir, cold, warm, stats))
            outcome = workload.outcome(ctx, result)
        finally:
            workload.teardown(ctx)
    return row, outcome, cold, wall_s


def measure_traced(workload, seed: int, seconds: float, checker: Checker, log) -> dict:
    """Per-layer metrics: interleaved untraced and traced main calls.

    Each traced output must equal the untraced one (same seed, same
    digest); the trace overhead is the ratio of their median wall times.
    """
    import layers
    import metrics
    import workloads
    from spans import Patcher, Tracer

    patcher = Patcher(Tracer())
    targets = layers.targets(patcher.tracer)
    span_file = WORKDIR / "traces" / f"{workload.name}-seed{seed}.jsonl"
    span_file.unlink(missing_ok=True)
    untraced, traced, rows, spans = [], [], [], None
    start = time.perf_counter()
    while not _loop_done(start, len(rows), MIN_TRACED, seconds):
        workloads.reset_memos()
        ctx = None
        try:
            ctx = workload.setup(seed)
            result, solve_s = _timed(workload.run, ctx)
            checker.record(seed, workload.outcome(ctx, result))
            workload.teardown(ctx)
            ctx = None
            row, outcome, spans, wall_s = _traced_call(
                workload, seed, patcher, targets, span_file
            )
            checker.record(seed, outcome)
        except Exception as error:  # noqa: BLE001 - a failed operation, reported
            checker.fail(seed, _operations(workload), error)
            break
        finally:
            if ctx is not None:
                workload.teardown(ctx)
        untraced.append(solve_s)
        traced.append(wall_s)
        rows.append(row)
    if not rows:
        raise RuntimeError(f"{workload.name}: no traced call succeeded")
    values = {name: 0.0 for name in metrics.PER_LAYER}
    for name in rows[0]:
        values[name] = statistics.median(row[name] for row in rows)
    values["trace_overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    log(
        f"untraced solve_s: n={len(untraced)} median={statistics.median(untraced):.6f}; "
        f"traced wall: n={len(traced)} median={statistics.median(traced):.6f}; "
        f"traced span clock (counting excluded): median={values['trace.solve_s']:.6f}"
    )
    _log_accounting(spans, log)
    if workload.name == "stereo_solve":
        _log_pipeline_table(workload, values, log)
    log(f"spans written to {span_file.relative_to(ROOT)}")
    return values


def _engine_counts(engine):
    if engine is None:
        return (0, 0)
    return (engine.stats.cache_hits, engine.stats.tasks)


def _log_accounting(table, log) -> None:
    """Self time per span name in the last traced call; they sum to it."""
    total = table.total("solve")
    parts = sorted(table.self_time.items(), key=lambda item: -item[1])
    log(f"traced main call {total:.6f} s = sum of self times:")
    for name, self_s in parts:
        label = "unattributed (solve self)" if name == "solve" else name
        log(f"  {label:<28} {self_s:10.6f} s  {self_s / total:6.1%}")


def _log_pipeline_table(workload, values: dict, log) -> None:
    """Host ns per label beside the new design's pipeline (core.pipeline)."""
    from repro.core import pipeline
    from repro.core.params import new_design_config

    config = new_design_config()
    window = pipeline.sampling_window_cycles(config)
    labels = workload.input_sizes()["labels"]
    log("stage      host ns/label   new-design pipeline (Fig. 10), 1 label/cycle per stage")
    hardware = {
        "energy": "energy computation, 1 cycle",
        "quantize": "min tracking + scale-subtract, 1 cycle",
        "convert": "comparison-based converter, 1 cycle",
        "ttf": (
            f"RET window {window} cycles on {pipeline.ret_circuit_replicas(config)} circuits, "
            f"{pipeline.ret_network_replicas(config)} network sets"
        ),
        "select": "first-to-fire selection, 1 cycle",
    }
    for stage, text in hardware.items():
        log(f"{stage:<10} {values[f'core.{stage}_ns_per_label']:14.3f}   {text}")
    log(
        f"variable latency for M={labels}: "
        f"{pipeline.new_variable_latency(labels, config)} cycles; "
        f"temperature-update stall {pipeline.new_temperature_stall()} cycles"
    )


def _source_digest() -> str:
    """SHA-256 over the program's source files, for checkouts without git."""
    import hashlib

    sha = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sha.update(str(path.relative_to(ROOT)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def load_pins() -> dict:
    """Pinned digests per workload and seed, for the full input sizes."""
    import dataclasses

    import workloads

    if not EXPECTED.is_file():
        return {}
    payload = json.loads(EXPECTED.read_text())
    sizes = json.loads(json.dumps(dataclasses.asdict(workloads.FULL)))
    if payload["sizes"] != sizes:
        raise SystemExit(f"perfbench: {EXPECTED.name} was pinned for other input sizes; re-pin")
    return payload["digests"]


def run(name: str, seed: int, seconds: float, trace: bool, sizes, pins: dict) -> dict:
    """Measure one workload; returns the result object printed last."""
    import metrics
    import numpy as np
    import workloads

    shutil.rmtree(WORKDIR / "tmp", ignore_errors=True)
    workload = workloads.WORKLOADS[name](sizes, WORKDIR / "tmp")

    def log(line: str) -> None:
        print(line, flush=True)

    log(f"perfbench workload={name} seed={seed} seconds={seconds} trace={int(trace)}")
    log(
        f"provenance: git={_git_sha()} src_sha256={_source_digest()} "
        f"host={socket.gethostname()} nproc={os.cpu_count()} "
        f"python={platform.python_version()} numpy={np.__version__}"
    )
    log(f"why: {workload.why}")
    log(f"main call: {workload.main_call}; inputs: {json.dumps(workload.input_sizes())}")
    log(f"memo state at every measured call: empty ({', '.join(workloads.MEMOS)})")
    checker = Checker(name, pins.get(name, {}))
    for checked in (seed, seed + SECOND_SEED_OFFSET):
        if str(checked) not in checker.pinned:
            warning = (
                f"WARNING: seed {checked} has no pinned digest in {EXPECTED.name} "
                f"(pinned: seeds 0-31 and their held-out seeds); a change that alters "
                f"its output deterministically goes unnoticed"
            )
            log(warning)
            print(warning, file=sys.stderr)
    if trace:
        values = measure_traced(workload, seed, seconds, checker, log)
        units = {key: unit for key, (unit, _) in metrics.PER_LAYER.items()}
        for key, (unit, moves) in metrics.PER_LAYER.items():
            log(f"  {key:<28} {values[key]:16.6f} {unit:<12} moves {moves}")
    else:
        values = measure_untraced(workload, seed, seconds, checker, log)
        units = {key: unit for key, (unit, _) in metrics.END_TO_END.items()}
        for key, (unit, meaning) in metrics.END_TO_END.items():
            log(f"  {key:<22} {values[key]:16.6f} {unit:<12} {meaning}")
    log(f"operations attempted={checker.attempted} failed={checker.failed}")
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            key: {"value": float(value) if math.isfinite(value) else -1.0, "unit": units[key]}
            for key, value in values.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick from {sorted(workloads.WORKLOADS)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), workloads.FULL, load_pins())
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
