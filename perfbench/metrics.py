"""Names, units and meaning of every metric the benchmark reports.

``END_TO_END`` is printed by an untraced run (``--trace 0``) and
``PER_LAYER`` by a traced run (``--trace 1``), for every workload; a
layer metric reads 0 on a workload that bypasses its layer.  The third
field of a layer metric names the end-to-end metric and workloads it
should move.
"""

from __future__ import annotations

#: name -> (unit, what it is).
END_TO_END = {
    "setup_s": ("s", "median set-up (dataset, MRF build, backends or engine), timed between the pairs"),
    "solve_s": ("s", "median host wall time of the main call, memos empty"),
    "warm_s": ("s", "median main call again with memos warm; engine: warm cache replay"),
    "peak_heap_mb": ("MB", "peak traced heap of one main call (held-out seed)"),
    "bad_pixel_pct": ("%", "stereo quality vs ground truth, mean of both seeds (coldest replica; mean over points)"),
    "sim_labels_per_cycle": ("labels/cycle", "modelled new-design throughput (uarch: measured)"),
    "ok_rate": ("fraction", "1 - error_rate: operations with correct output over attempted"),
}

#: name -> (unit, end-to-end metric it should move and on which workloads).
PER_LAYER = {
    "mrf.sweep_ms_p50": ("ms", "solve_s on stereo_solve, uarch_solve"),
    "mrf.sweep_ms_p95": ("ms", "solve_s on stereo_solve, uarch_solve"),
    "mrf.sweeps": ("count", "work count"),
    "mrf.energy_s": ("s", "solve_s on stereo_solve"),
    "mrf.scatter_s": ("s", "solve_s on stereo_solve, uarch_solve"),
    "mrf.solver_self_s": ("s", "solve_s on stereo_solve, uarch_solve"),
    "core.dispatch_s": ("s", "solve_s on stereo_solve"),
    "core.quantize_s": ("s", "solve_s on stereo_solve; 0 on uarch_solve"),
    "core.convert_s": ("s", "solve_s on stereo_solve; 0 on uarch_solve"),
    "core.ttf_s": ("s", "solve_s on stereo_solve; 0 on uarch_solve"),
    "core.select_s": ("s", "solve_s on stereo_solve; 0 on uarch_solve"),
    "core.stage_calls": ("count", "0 on uarch_solve (bypass check)"),
    "core.label_evals": ("count", "work count"),
    "core.energy_ns_per_label": ("ns/label", "solve_s on stereo_solve"),
    "core.quantize_ns_per_label": ("ns/label", "solve_s on stereo_solve"),
    "core.convert_ns_per_label": ("ns/label", "solve_s on stereo_solve"),
    "core.ttf_ns_per_label": ("ns/label", "solve_s on stereo_solve"),
    "core.select_ns_per_label": ("ns/label", "solve_s on stereo_solve"),
    "core.ttf_active_frac": ("fraction", "solve_s on stereo_solve (TTF work)"),
    "core.select_tied_frac": ("fraction", "solve_s on stereo_solve (tie-break work)"),
    "core.uniforms_per_label": ("count/label", "solve_s on stereo_solve (entropy work)"),
    "core.lut_builds": ("count", "setup_s and solve_s"),
    "uarch.run_matrix_s": ("s", "solve_s on uarch_solve"),
    "uarch.backend_self_s": ("s", "solve_s on uarch_solve"),
    "uarch.host_ns_per_cycle": ("ns/cycle", "solve_s on uarch_solve"),
    "uarch.calls": ("count", "0 on stereo_solve (bypass check)"),
    "uarch.sim_cycles": ("count", "sim_labels_per_cycle on uarch_solve"),
    "uarch.network_conflicts": ("count", "sim_labels_per_cycle on uarch_solve"),
    "uarch.stalls": ("count", "sim_labels_per_cycle on uarch_solve"),
    "engine.task_s_p50": ("s", "solve_s on engine_sweep"),
    "engine.pool_idle_frac": ("fraction", "solve_s on engine_sweep"),
    "engine.run_tasks_self_s": ("s", "solve_s on engine_sweep (pool start, dispatch, wait)"),
    "engine.cache_store_ms": ("ms", "solve_s on engine_sweep"),
    "engine.cache_load_ms": ("ms", "warm_s on engine_sweep"),
    "engine.entry_kb": ("KB", "warm_s on engine_sweep"),
    "engine.cache_hit_rate_cold": ("fraction", "0 on the cold pass of engine_sweep"),
    "engine.cache_hit_rate_warm": ("fraction", "1 on the warm pass of engine_sweep"),
    "engine.retries": ("count", "ok_rate on engine_sweep"),
    "engine.failures": ("count", "ok_rate on engine_sweep"),
    "data.load_s": ("s", "setup_s on every workload"),
    "apps.build_mrf_s": ("s", "setup_s on every workload"),
    "trace.solve_s": ("s", "traced main call (compare solve_s)"),
    "trace.unattributed_frac": ("fraction", "share of the traced main call in no layer span"),
    "trace_overhead_frac": ("fraction", "traced wall time (counting included) / untraced solve_s - 1"),
}

#: Metrics that must repeat exactly for a given seed and size.
DETERMINISTIC_E2E = ("bad_pixel_pct", "sim_labels_per_cycle")
DETERMINISTIC_LAYER = (
    "mrf.sweeps",
    "core.stage_calls",
    "core.label_evals",
    "core.ttf_active_frac",
    "core.select_tied_frac",
    "core.uniforms_per_label",
    "core.lut_builds",
    "uarch.calls",
    "uarch.sim_cycles",
    "uarch.network_conflicts",
    "uarch.stalls",
    "engine.cache_hit_rate_cold",
    "engine.cache_hit_rate_warm",
    "engine.retries",
    "engine.failures",
)
