"""Where the traced run wraps each layer, and the per-layer metrics.

Every wrap point is the name its caller looks up: ``repro.core.rsu``
imports the conversion and selection functions by name, so they are
patched in that module; methods are patched on their class.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import repro.apps
import repro.apps.stereo
import repro.core.rsu
import repro.data
from repro.core.energy import EnergyStage
from repro.core.rsu import RSUGSampler
from repro.core.ttf import TTFSampler
from repro.experiments import ExperimentEngine
from repro.experiments.engine import ResultCache
from repro.mrf import MCMCSolver, SweepWorkspace
from repro.uarch import MachineBackend, NewMachine

from spans import SpanTable, Tracer

#: Span names of the RSU-G functional stages.
STAGES = ("core.quantize", "core.convert", "core.ttf", "core.select")


def targets(tracer: Tracer) -> list:
    """``(owner, attr, span, before, after)`` for every wrapped function."""
    count = tracer.count

    def sampled(_sampler, energies, *args, **kwargs):
        count("core.label_evals", energies.size)

    def ttf_lanes(*args, **kwargs):
        codes = args[1]
        count("core.ttf_lanes", codes.size)
        count("core.ttf_active", np.count_nonzero(codes))
        count("core.uniforms", codes.size)

    def select_rows(ttf, tie_policy, *args, **kwargs):
        row_min = ttf.min(axis=-1, keepdims=True)
        tied = np.count_nonzero(np.count_nonzero(ttf == row_min, axis=-1) > 1)
        count("core.select_rows", ttf.size // ttf.shape[-1])
        count("core.select_tied", tied)
        if tie_policy == "random":
            count("core.uniforms", ttf.size)

    def energies_built(result, *args, **kwargs):
        count("mrf.energy_labels", result.size)

    def machine_ran(result, *args, **kwargs):
        stats = result.stats or {}
        count("uarch.sim_cycles", result.total_cycles)
        count("uarch.network_conflicts", stats.get("network_conflicts", 0))
        count("uarch.stalls", sum(v for k, v in stats.items() if k.endswith("stalls")))

    def machine_labels(_self, energies, *args, **kwargs):
        count("uarch.labels", energies.size)

    return [
        (repro.data, "load_stereo", "data.load", None, None),
        (repro.apps, "build_stereo_mrf", "apps.build_mrf", None, None),
        (repro.apps.stereo, "build_stereo_mrf", "apps.build_mrf", None, None),
        (MCMCSolver, "run", "mrf.solver", None, None),
        (SweepWorkspace, "sweep", "mrf.sweep", None, None),
        (SweepWorkspace, "class_energies", "mrf.energy", None, energies_built),
        (RSUGSampler, "sample_into", "core.sample", sampled, None),
        (EnergyStage, "quantize_into", "core.quantize", None, None),
        (repro.core.rsu, "conversion_lut", "core.convert", None, None),
        (repro.core.rsu, "lambda_codes_lut_into", "core.convert", None, None),
        (TTFSampler, "sample_into", "core.ttf", ttf_lanes, None),
        (repro.core.rsu, "select_first_to_fire_into", "core.select", select_rows, None),
        (MachineBackend, "sample_into", "uarch.backend", machine_labels, None),
        (NewMachine, "run_matrix", "uarch.run_matrix", None, machine_ran),
        (ExperimentEngine, "run_tasks", "engine.run_tasks", None, None),
        (ResultCache, "store", "engine.cache_store", None, None),
        (ResultCache, "load_entry", "engine.cache_load", None, None),
    ]


def _ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / denominator if denominator else 0.0


def solve_metrics(table: SpanTable, counts: dict, lut_builds: int) -> dict:
    """Layer metrics of one traced main call (root span ``solve``)."""
    labels = counts.get("core.label_evals", 0)
    stage_s = {stage: table.total(stage) for stage in STAGES}
    solve_s = table.total("solve")
    cycles = counts.get("uarch.sim_cycles", 0)
    metrics = {
        "mrf.sweep_ms_p50": table.percentile("mrf.sweep", 50) * 1e3,
        "mrf.sweep_ms_p95": table.percentile("mrf.sweep", 95) * 1e3,
        "mrf.sweeps": table.calls("mrf.sweep"),
        "mrf.energy_s": table.total("mrf.energy"),
        "mrf.scatter_s": table.self_time.get("mrf.sweep", 0.0),
        "mrf.solver_self_s": table.self_time.get("mrf.solver", 0.0),
        "core.dispatch_s": table.self_time.get("core.sample", 0.0),
        "core.quantize_s": stage_s["core.quantize"],
        "core.convert_s": stage_s["core.convert"],
        "core.ttf_s": stage_s["core.ttf"],
        "core.select_s": stage_s["core.select"],
        "core.stage_calls": sum(table.calls(stage) for stage in STAGES),
        "core.label_evals": labels,
        "core.energy_ns_per_label": _ratio(
            table.total("mrf.energy") * 1e9, counts.get("mrf.energy_labels", 0)
        ),
        "core.ttf_active_frac": _ratio(
            counts.get("core.ttf_active", 0), counts.get("core.ttf_lanes", 0)
        ),
        "core.select_tied_frac": _ratio(
            counts.get("core.select_tied", 0), counts.get("core.select_rows", 0)
        ),
        "core.uniforms_per_label": _ratio(counts.get("core.uniforms", 0), labels),
        "core.lut_builds": lut_builds,
        "uarch.run_matrix_s": table.total("uarch.run_matrix"),
        "uarch.backend_self_s": table.self_time.get("uarch.backend", 0.0),
        "uarch.host_ns_per_cycle": _ratio(table.total("uarch.run_matrix") * 1e9, cycles),
        "uarch.calls": table.calls("uarch.backend") + table.calls("uarch.run_matrix"),
        "uarch.sim_cycles": cycles,
        "uarch.network_conflicts": counts.get("uarch.network_conflicts", 0),
        "uarch.stalls": counts.get("uarch.stalls", 0),
        "trace.solve_s": solve_s,
        "trace.unattributed_frac": _ratio(table.self_time.get("solve", 0.0), solve_s),
    }
    for stage in ("quantize", "convert", "ttf", "select"):
        metrics[f"core.{stage}_ns_per_label"] = _ratio(
            stage_s[f"core.{stage}"] * 1e9, labels
        )
    return metrics


def engine_metrics(engine, cache_dir: Path, cold: SpanTable, warm: SpanTable, stats: dict) -> dict:
    """Layer metrics of one traced cold + warm engine sweep."""
    elapsed = [
        dict(incident.detail).get("elapsed_s", 0.0)
        for incident in engine.journal.of_kind("telemetry")
    ]
    cold_s = cold.total("solve")
    entries = list(Path(cache_dir).rglob("*.pkl"))
    entry_bytes = sum(path.stat().st_size for path in entries)
    return {
        "engine.task_s_p50": float(np.median(elapsed)) if elapsed else 0.0,
        "engine.pool_idle_frac": 1.0 - _ratio(sum(elapsed), engine.jobs * cold_s),
        "engine.run_tasks_self_s": cold.self_time.get("engine.run_tasks", 0.0),
        "engine.cache_store_ms": _ratio(
            cold.total("engine.cache_store") * 1e3, cold.calls("engine.cache_store")
        ),
        "engine.cache_load_ms": _ratio(
            warm.total("engine.cache_load") * 1e3, warm.calls("engine.cache_load")
        ),
        "engine.entry_kb": _ratio(entry_bytes / 1024.0, len(entries)),
        "engine.cache_hit_rate_cold": _ratio(stats["cold_hits"], stats["cold_tasks"]),
        "engine.cache_hit_rate_warm": _ratio(stats["warm_hits"], stats["warm_tasks"]),
        "engine.retries": engine.stats.retries,
        "engine.failures": engine.stats.quarantined,
    }


def setup_metrics(table: SpanTable) -> dict:
    """Per-call set-up layer times (median over the calls seen)."""
    return {
        "data.load_s": float(np.median(table.durations["data.load"]))
        if table.durations.get("data.load") else 0.0,
        "apps.build_mrf_s": float(np.median(table.durations["apps.build_mrf"]))
        if table.durations.get("apps.build_mrf") else 0.0,
    }
