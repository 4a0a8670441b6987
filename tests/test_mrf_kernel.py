"""Fused sweep kernel: byte-identity with the reference path + allocation guard.

The contract under test (see ``repro/mrf/kernel.py``): running the
solver with ``use_fused=True`` produces *byte-identical* results to the
reference per-sweep pipeline — same final label grid, same energy
history, same consumption of every RNG stream — across every backend,
tie policy, ``float_time`` setting and LUT switch, while performing no
large steady-state allocations.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.rsu
import repro.mrf.kernel
from repro.apps.common import make_backend
from repro.core import (
    NoisyTTFSampler,
    RSUMHSampler,
    SampleScratch,
    SoftwareMHSampler,
    TTFSampler,
    label_distance_matrix,
    legacy_design_config,
    new_design_config,
    select_first_to_fire,
    select_first_to_fire_into,
    use_lut,
)
from repro.core.rsu import RSUGSampler
from repro.mrf import (
    EnsembleSolver,
    GeometricSchedule,
    GridMRF,
    MCMCSolver,
    SweepWorkspace,
    coloring_masks,
)
from repro.obs import telemetry as obs
from repro.util.errors import ConfigError, DataError

FULL_SCALE = 12.0


def tiny_model(connectivity=4, seed=0, shape=(12, 14), n_labels=6):
    rng = np.random.default_rng(seed)
    unary = rng.random(shape + (n_labels,))
    pairwise = label_distance_matrix(n_labels, "binary")
    return GridMRF(unary, pairwise, 1.2, connectivity=connectivity)


def build_sampler(kind, tie="first", float_time=False, config=None):
    if kind == "software_mh":
        return SoftwareMHSampler(np.random.default_rng(7))
    if kind == "rsu_mh":
        cfg = (config or new_design_config()).with_(tie_policy=tie, float_time=float_time)
        return RSUMHSampler(cfg, FULL_SCALE, np.random.default_rng(7))
    if kind == "rsu":
        cfg = (config or new_design_config()).with_(tie_policy=tie, float_time=float_time)
        return make_backend("rsu", FULL_SCALE, seed=7, config=cfg)
    return make_backend(kind, FULL_SCALE, seed=7)


def run_solver(kind, fused, tie="first", float_time=False, lut=True,
               config=None, connectivity=4, iterations=10, callback=None):
    sampler = build_sampler(kind, tie, float_time, config)
    solver = MCMCSolver(
        tiny_model(connectivity),
        sampler,
        GeometricSchedule(t0=4.0, rate=0.85),
        seed=3,
        use_fused=fused,
    )
    with use_lut(lut):
        return solver.run(iterations, callback=callback)


def assert_fused_matches_reference(**kwargs):
    fused = run_solver(fused=True, **kwargs)
    reference = run_solver(fused=False, **kwargs)
    np.testing.assert_array_equal(fused.labels, reference.labels)
    assert fused.energy_history == reference.energy_history
    assert fused.temperature_history == reference.temperature_history


# ---------------------------------------------------------------------------
# Byte-identity matrix
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tie", ["first", "last", "random"])
@pytest.mark.parametrize("float_time", [False, True])
def test_identity_rsu_tie_and_float_time(tie, float_time):
    assert_fused_matches_reference(kind="rsu", tie=tie, float_time=float_time)


@pytest.mark.parametrize("lut", [True, False])
def test_identity_rsu_lut_switch(lut):
    assert_fused_matches_reference(kind="rsu", lut=lut)


@pytest.mark.parametrize(
    "kind",
    ["software", "greedy", "new_rsug", "prev_rsug", "cdf_ideal", "cdf_lfsr"],
)
def test_identity_non_rsu_backends(kind):
    assert_fused_matches_reference(kind=kind)


@pytest.mark.parametrize("kind", ["software_mh", "rsu_mh"])
def test_identity_mh_backends_via_sample_given_current(kind):
    # MH backends set wants_current_labels: the fused sweep must route
    # them through sample_given_current on the workspace energy buffer.
    assert_fused_matches_reference(kind=kind)


@pytest.mark.parametrize(
    "config",
    [legacy_design_config(), legacy_design_config().with_(clamp_to_tmax=True)],
    ids=["legacy", "legacy_clamped"],
)
def test_identity_legacy_design_points(config):
    assert_fused_matches_reference(kind="rsu", config=config)


def test_identity_eight_connectivity():
    assert_fused_matches_reference(kind="rsu", connectivity=8)


def test_identity_with_label_mutating_callback():
    # A callback may rewrite the label grid it is handed; the solver
    # must resynchronize the workspace's padded mirror afterwards.
    def scramble(iteration, labels, temperature):
        if iteration == 3:
            labels[::2, ::3] = 0

    fused = run_solver(kind="rsu", fused=True, callback=scramble)
    reference = run_solver(kind="rsu", fused=False, callback=scramble)
    np.testing.assert_array_equal(fused.labels, reference.labels)
    assert fused.energy_history == reference.energy_history


def test_noisy_ttf_stage_falls_back_and_stays_identical():
    # A replaced TTF stage overrides sample(); the fused shortcut would
    # bypass the noise injection, so the sampler must fall back to the
    # reference pipeline — and stay byte-identical while doing so.
    def noisy_solver(fused):
        cfg = new_design_config()
        rng = np.random.default_rng(7)
        ttf = NoisyTTFSampler(cfg, rng, dark_prob=0.02, bleed_prob=0.01)
        sampler = RSUGSampler(cfg, FULL_SCALE, rng, ttf_sampler=ttf)
        assert not sampler._ttf_fusable
        solver = MCMCSolver(
            tiny_model(), sampler, GeometricSchedule(4.0, 0.85), seed=3, use_fused=fused
        )
        return solver.run(8)

    fused = noisy_solver(True)
    reference = noisy_solver(False)
    np.testing.assert_array_equal(fused.labels, reference.labels)
    assert fused.energy_history == reference.energy_history


# ---------------------------------------------------------------------------
# Stage-level fused equivalence
# ---------------------------------------------------------------------------


def test_ttf_sample_into_matches_sample():
    cfg = new_design_config()
    codes = np.random.default_rng(5).integers(0, cfg.lambda_max_code + 1, (40, 9))
    reference = TTFSampler(cfg, np.random.default_rng(11)).sample(codes)
    fused_sampler = TTFSampler(cfg, np.random.default_rng(11))
    out = np.empty(codes.shape, dtype=np.int64)
    fused_sampler.sample_into(codes, out, SampleScratch())
    np.testing.assert_array_equal(out, reference)


def test_ttf_sample_preserves_rng_stream():
    # The restructured sample() must consume exactly one
    # rng.random(codes.shape) block per call: after sampling, both
    # generators must be in the same state.
    cfg = new_design_config()
    rng_a = np.random.default_rng(13)
    rng_b = np.random.default_rng(13)
    codes = np.random.default_rng(5).integers(0, cfg.lambda_max_code + 1, (25, 7))
    TTFSampler(cfg, rng_a).sample(codes)
    rng_b.random(codes.shape)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
    np.testing.assert_array_equal(rng_a.random(8), rng_b.random(8))


@pytest.mark.parametrize("float_time", [False, True])
def test_ttf_sample_into_all_codes_cut_off(float_time):
    cfg = new_design_config().with_(float_time=float_time)
    codes = np.zeros((6, 4), dtype=np.int64)
    reference = TTFSampler(cfg, np.random.default_rng(2)).sample(codes)
    out = np.empty(codes.shape, dtype=np.float64 if float_time else np.int64)
    TTFSampler(cfg, np.random.default_rng(2)).sample_into(codes, out, SampleScratch())
    np.testing.assert_array_equal(out, reference)


@pytest.mark.parametrize("tie", ["first", "last", "random"])
@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.float64])
def test_select_into_matches_reference(tie, dtype):
    rng = np.random.default_rng(3)
    ttf = rng.integers(1, 40, (30, 8)).astype(dtype)
    if dtype == np.float64:
        ttf[rng.random(ttf.shape) < 0.2] = np.inf
    reference = select_first_to_fire(ttf, tie, np.random.default_rng(9))
    out = np.empty(ttf.shape[0], dtype=np.intp)
    select_first_to_fire_into(ttf, tie, np.random.default_rng(9), out, SampleScratch())
    np.testing.assert_array_equal(out, reference)


def test_sample_scratch_reuses_buffers():
    scratch = SampleScratch()
    first = scratch.buf("a", (4, 5), np.float64)
    again = scratch.buf("a", (4, 5), np.float64)
    assert first is again
    other = scratch.buf("a", (4, 5), np.int64)
    assert other is not first
    assert scratch.nbytes == first.nbytes + other.nbytes


# ---------------------------------------------------------------------------
# Workspace unit behaviour
# ---------------------------------------------------------------------------


def test_workspace_class_energies_match_model():
    model = tiny_model()
    masks = coloring_masks(model.shape, model.connectivity)
    workspace = SweepWorkspace(model, masks)
    labels = np.random.default_rng(4).integers(0, model.n_labels, model.shape)
    workspace.bind(labels)
    for index, mask in enumerate(masks):
        np.testing.assert_array_equal(
            workspace.class_energies(index)[0], model.site_energies(labels, mask)
        )


#: One step of the incremental-energy property test.
_STEP = st.one_of(
    st.tuples(st.just("sweep"), st.sampled_from([0.05, 5.0])),
    st.tuples(
        st.just("edit"),
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 99), st.integers(0, 4)),
            min_size=1,
            max_size=4,
        ),
    ),
    st.tuples(st.just("swap"), st.integers(0, 2), st.integers(0, 2)),
)


def test_incremental_class_energies_stay_exact():
    """Cached energy rows equal a from-scratch evaluation after every
    sweep, in-place label edit and chain swap, and both the rebuild-all
    and the rebuild-rows branch run (also with rows split into blocks)."""
    branches = {"full": 0, "rows": 0}

    @settings(max_examples=40)
    @given(
        connectivity=st.sampled_from([4, 8]),
        chains=st.sampled_from([1, 3]),
        height=st.integers(2, 7),
        width=st.integers(2, 7),
        seed=st.integers(0, 2**16),
        block_rows=st.sampled_from([3, repro.mrf.kernel._BLOCK_ROWS]),
        steps=st.lists(_STEP, min_size=1, max_size=8),
    )
    def check(connectivity, chains, height, width, seed, block_rows, steps):
        model = tiny_model(connectivity, seed, (height, width), n_labels=5)
        masks = coloring_masks(model.shape, model.connectivity)
        with mock.patch.object(repro.mrf.kernel, "_BLOCK_ROWS", block_rows):
            workspace = SweepWorkspace(model, masks, chains)
            run_steps(workspace, model, masks, chains, seed, steps)

    def run_steps(workspace, model, masks, chains, seed, steps):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, model.n_labels, (chains,) + model.shape)
        samplers = [make_backend("software", FULL_SCALE, seed=seed + k)
                    for k in range(chains)]
        workspace.bind(labels)
        for op, *args in steps:
            if op == "sweep":
                workspace.sweep(labels, [args[0]] * chains, samplers,
                                [False] * chains)
            elif op == "edit":
                flat = labels.reshape(chains, -1)
                for chain, site, label in args[0]:
                    flat[chain % chains, site % flat.shape[1]] = label
                workspace.bind(labels)
            elif chains > 1:
                a, b = args
                labels[[a, b]] = labels[[b, a]]
                workspace.bind(labels)
            for index, mask in enumerate(masks):
                with obs.use_telemetry() as tel:
                    block = workspace.class_energies(index)
                if tel.value("energy.full_rebuilds"):
                    branches["full"] += 1
                elif tel.value("energy.rows_rebuilt"):
                    branches["rows"] += 1
                for k in range(chains):
                    np.testing.assert_array_equal(
                        block[k], model.site_energies(labels[k], mask)
                    )
                with pytest.raises(ValueError):
                    block[...] = 0.0

    check()
    assert branches["full"] and branches["rows"], branches


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1)])
@pytest.mark.parametrize("connectivity", [4, 8])
@pytest.mark.parametrize("path", ["fused", "reference", "ensemble"])
def test_grid_with_an_empty_colour_class_solves(path, connectivity, shape):
    """A one-site or one-wide grid leaves some colour classes empty
    (two of four at 8-connectivity); sweeps skip them."""
    model = tiny_model(connectivity, shape=shape, n_labels=3)
    schedule = GeometricSchedule(t0=2.0, rate=0.9)
    if path == "ensemble":
        solver = EnsembleSolver(
            model, lambda k: make_backend("software", FULL_SCALE, seed=k),
            schedule, chains=3,
        )
        grids = solver.run(4).chain_labels
    else:
        solver = MCMCSolver(
            model, make_backend("software", FULL_SCALE, seed=1), schedule,
            use_fused=path == "fused",
        )
        grids = solver.run(4).labels[None]
    assert grids.shape[1:] == shape
    assert grids.min() >= 0 and grids.max() < model.n_labels


@pytest.mark.parametrize("chains", [1, 3])
def test_workspace_rejects_bad_labels(chains):
    model = tiny_model()
    workspace = SweepWorkspace(
        model, coloring_masks(model.shape, model.connectivity), chains
    )
    with pytest.raises(DataError):
        workspace.bind(np.zeros((3, 3), dtype=np.int64))
    with pytest.raises(DataError):
        workspace.bind(np.zeros((chains + 1,) + model.shape, dtype=np.int64))
    grid = np.zeros(model.shape, dtype=np.int64)
    if chains == 1:
        workspace.bind(grid)  # K=1 also takes a bare (H, W) grid
    else:
        with pytest.raises(DataError):
            workspace.bind(grid)
    wide = np.zeros((chains, model.shape[0], 2 * model.shape[1]), dtype=np.int64)
    with pytest.raises(DataError):
        workspace.bind(wide[..., ::2])  # non-contiguous view


@pytest.mark.parametrize("chains", [1, 3])
def test_workspace_rejects_non_partition_masks(chains):
    model = tiny_model()
    masks = coloring_masks(model.shape, model.connectivity)
    mask = np.zeros(model.shape, dtype=bool)
    mask[0, 0] = True
    for bad in ([mask], masks[:1], [np.ones((3, 3), dtype=bool)]):
        with pytest.raises(DataError):
            SweepWorkspace(model, bad, chains)
    with pytest.raises(ConfigError):
        SweepWorkspace(model, masks, 0)


@pytest.mark.parametrize("chains", [1, 3])
def test_workspace_nbytes_reports_footprint(chains):
    model = tiny_model()
    masks = coloring_masks(model.shape, model.connectivity)
    nbytes = SweepWorkspace(model, masks, chains).nbytes
    assert nbytes > chains * model.shape[0] * model.shape[1] * 8
    assert nbytes < SweepWorkspace(model, masks, chains + 1).nbytes


def test_single_chain_sweep_dispatches_per_chain(monkeypatch):
    """At K=1 every colour class goes through ``sample_into`` and the
    stage functions it calls, never a ``sample_chains_into`` twin: the
    benchmark's traced run hooks the former."""
    calls = []

    def spy(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    def forbid(owner, name):
        def refuse(*args, **kwargs):
            raise AssertionError(f"K=1 sweep called {owner.__name__}.{name}")

        monkeypatch.setattr(owner, name, refuse)

    spy(RSUGSampler, "sample_into")
    spy(TTFSampler, "sample_into")
    spy(repro.core.rsu, "select_first_to_fire_into")
    forbid(RSUGSampler, "sample_chains_into")
    forbid(TTFSampler, "sample_chains_into")
    forbid(repro.core.rsu, "select_first_to_fire_chains_into")
    result = run_solver(kind="rsu", fused=True, iterations=3)
    classes = len(coloring_masks(result.labels.shape, 4))
    assert calls == ["sample_into", "sample_into", "select_first_to_fire_into"] * (
        3 * classes
    )


# ---------------------------------------------------------------------------
# Allocation guard
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tie", ["first", "random"])
def test_fused_sweeps_allocate_less_than_reference(tie):
    """Steady-state fused sweeps must stay within a small transient
    footprint (the fancy-gather results and, for ``random``, one argsort
    temporary) — far below the reference path's per-sweep allocations."""
    model = tiny_model(shape=(24, 32), n_labels=8)
    per_class_bytes = (model.shape[0] * model.shape[1] // 2) * model.n_labels * 8

    def steady_state_peak(fused):
        cfg = new_design_config().with_(tie_policy=tie)
        sampler = build_sampler("rsu", tie=tie, config=cfg)
        solver = MCMCSolver(
            model, sampler, GeometricSchedule(2.0, 0.9), seed=2,
            track_energy=False, use_fused=fused,
        )
        labels = solver.initial_labels()
        workspace = solver.workspace if fused else None
        if workspace is not None:
            workspace.bind(labels)

        def one_sweep():
            if workspace is not None:
                workspace.sweep(labels, [1.0], [sampler], [False])
            else:
                solver.sweep(labels, 1.0)

        for _ in range(3):  # warm up every scratch buffer and LUT
            one_sweep()
        tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(5):
            one_sweep()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return peak - base

    fused_peak = steady_state_peak(True)
    reference_peak = steady_state_peak(False)
    assert fused_peak < reference_peak
    assert fused_peak <= 4.5 * per_class_bytes, (
        f"fused steady-state peak {fused_peak} exceeds transient budget "
        f"({per_class_bytes} bytes per class buffer)"
    )
