#!/usr/bin/env python3
"""Self-test of the benchmark on tiny inputs (about a minute).

    python3 perfbench/selftest.py

Checks, for every workload:

1. every metric in ``BENCHMARK.json`` is printed with its unit, by the
   untraced run (end-to-end) and the traced run (per-layer);
2. deterministic metrics repeat exactly between two runs of one seed:
   ``bad_pixel_pct``, ``sim_labels_per_cycle``, ``uarch.sim_cycles``
   and the work counts;
3. every wrapped function is the original object again after the
   traced runs;
4. ``uarch_solve`` records zero ``core.*`` stage calls and
   ``stereo_solve`` zero ``uarch.*`` calls (the bypass claims);

and that a wrong pinned digest fails the run, and that the benchmark
exits non-zero without printing a result where there is no program.
Exits 0 when every check holds.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys

import run as bench

SEED = 5


def invoke(workload: str, trace: int) -> dict:
    """One shortest run on tiny inputs, without pinned digests."""
    import workloads

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        result = bench.run(workload, SEED, 0, bool(trace), workloads.TINY, {})
    return json.loads(json.dumps(result))


def main() -> int:
    bench._import_program()
    import layers
    import metrics
    import workloads
    from spans import Tracer, all_restored, snapshot_targets

    failures = []

    def check(condition: bool, message: str) -> None:
        print(("ok    " if condition else "FAIL  ") + message, flush=True)
        if not condition:
            failures.append(message)

    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    check(
        declared[0] == {k: u for k, (u, _) in metrics.END_TO_END.items()},
        "BENCHMARK.json end_to_end matches perfbench/metrics.py",
    )
    check(
        declared[1] == {k: u for k, (u, _) in metrics.PER_LAYER.items()},
        "BENCHMARK.json per_layer matches perfbench/metrics.py",
    )
    check(
        sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS),
        "BENCHMARK.json workloads match perfbench/workloads.py",
    )

    targets = layers.targets(Tracer())
    originals = snapshot_targets(targets)
    layer_values = {}
    for name in workloads.WORKLOADS:
        for trace, deterministic in ((0, metrics.DETERMINISTIC_E2E), (1, metrics.DETERMINISTIC_LAYER)):
            first, second = invoke(name, trace), invoke(name, trace)
            for result in (first, second):
                check(
                    result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                    f"{name} trace={trace}: correct, attempted={result['attempted']}, failed=0",
                )
            printed = {key: value["unit"] for key, value in first["metrics"].items()}
            check(printed == declared[trace], f"{name} trace={trace}: every metric with its unit")
            repeated = [
                key for key in deterministic
                if first["metrics"][key]["value"] != second["metrics"][key]["value"]
            ]
            check(not repeated, f"{name} trace={trace}: deterministic metrics repeat {repeated or ''}")
            if trace:
                layer_values[name] = {k: v["value"] for k, v in first["metrics"].items()}
    check(all_restored(targets, originals), "every wrapped function is the original object again")

    check(layer_values["uarch_solve"]["core.stage_calls"] == 0, "uarch_solve: zero core.* stage calls")
    check(layer_values["uarch_solve"]["uarch.calls"] > 0, "uarch_solve: uarch calls recorded")
    check(layer_values["stereo_solve"]["uarch.calls"] == 0, "stereo_solve: zero uarch.* calls")
    check(layer_values["stereo_solve"]["core.stage_calls"] > 0, "stereo_solve: core stage calls recorded")
    check(
        layer_values["engine_sweep"]["engine.cache_hit_rate_cold"] == 0
        and layer_values["engine_sweep"]["engine.cache_hit_rate_warm"] == 1,
        "engine_sweep: cache hit rate 0 cold, 1 warm",
    )

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        wrong = bench.run(
            "stereo_solve", SEED, 0, False, workloads.TINY,
            {"stereo_solve": {str(SEED): "0" * 64}},
        )
    check(not wrong["correct"] and wrong["failed"] >= 1, "a wrong pinned digest fails the run")

    bare = bench.WORKDIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(bench.HERE, bare / bench.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, f"{bench.HERE.name}/run.py", "--workload", "stereo_solve",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    check(
        completed.returncode != 0 and '"metrics"' not in completed.stdout,
        "without the program the benchmark exits non-zero and prints no result",
    )

    print(f"{len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
