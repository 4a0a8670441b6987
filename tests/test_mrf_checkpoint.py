"""Kill-and-resume determinism for the MCMC solver front ends.

The contract (see ``repro/mrf/checkpoint.py``): a solve interrupted at
any checkpoint and resumed from it produces *byte-identical* labels,
histories, and downstream RNG draws to an uninterrupted oracle — for
the single-chain solver across backends (software, LFSR/MT19937-fed CDF
samplers, both RSU-G designs), for parallel tempering on both run
paths, and for batched ensembles.  Plus: on-disk round trip through the
checksummed envelope, and corrupt/foreign checkpoint files are refused
rather than resumed from garbage.
"""

import numpy as np
import pytest

from repro.apps.common import make_backend
from repro.core import label_distance_matrix, new_design_config
from repro.mrf import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointWriter,
    EnsembleSolver,
    GeometricSchedule,
    GridMRF,
    MCMCSolver,
    ParallelTempering,
    SolveCheckpoint,
    geometric_ladder,
    load_checkpoint,
    save_checkpoint,
)
from repro.util.errors import ConfigError
from repro.util.integrity import EnvelopeError

FULL_SCALE = 12.0

BACKENDS = ["software", "new_rsug", "prev_rsug", "rsu", "cdf_lfsr", "cdf_mt19937"]


def tiny_model(seed=0, shape=(10, 12), n_labels=5):
    rng = np.random.default_rng(seed)
    unary = rng.random(shape + (n_labels,))
    pairwise = label_distance_matrix(n_labels, "binary")
    return GridMRF(unary, pairwise, 1.2, connectivity=4)


def make_solver(kind, model, seed=7):
    sampler = make_backend(kind, FULL_SCALE, seed=seed, config=new_design_config())
    return MCMCSolver(
        model, sampler, GeometricSchedule(2.0, 0.8), init="random", seed=seed
    )


def assert_results_identical(a, b):
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.energy_history, b.energy_history)
    np.testing.assert_array_equal(a.temperature_history, b.temperature_history)


class TestSolverResume:
    @pytest.mark.parametrize("kind", BACKENDS)
    def test_kill_and_resume_matches_oracle(self, kind):
        model = tiny_model()
        oracle = make_solver(kind, model).run(8)

        captured = []
        interrupted = make_solver(kind, model)
        interrupted.run(3, checkpoint_every=3, checkpoint_sink=captured.append)
        assert len(captured) == 1 and captured[0].sweep == 3

        resumed = make_solver(kind, model).run(8, resume=captured[0])
        assert_results_identical(oracle, resumed)

    def test_resume_from_every_checkpoint(self):
        # Not just one cut point: every interval of a chunked run
        # rejoins the oracle trajectory.
        model = tiny_model(seed=3)
        oracle = make_solver("software", model).run(9)
        captured = []
        make_solver("software", model).run(
            9, checkpoint_every=2, checkpoint_sink=captured.append
        )
        assert [c.sweep for c in captured] == [2, 4, 6, 8]
        for checkpoint in captured:
            resumed = make_solver("software", model).run(9, resume=checkpoint)
            assert_results_identical(oracle, resumed)

    def test_on_disk_round_trip(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "solver.ckpt"
        oracle = make_solver("new_rsug", model).run(6)
        make_solver("new_rsug", model).run(4, checkpoint_every=2, checkpoint_path=path)
        resumed = make_solver("new_rsug", model).run(6, resume=path)
        assert_results_identical(oracle, resumed)

    def test_corrupt_checkpoint_is_refused(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "solver.ckpt"
        make_solver("software", model).run(4, checkpoint_every=2, checkpoint_path=path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(EnvelopeError) as excinfo:
            make_solver("software", model).run(6, resume=path)
        assert excinfo.value.reason == "checksum_mismatch"

    def test_truncated_checkpoint_is_refused(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "solver.ckpt"
        make_solver("software", model).run(4, checkpoint_every=2, checkpoint_path=path)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(EnvelopeError):
            make_solver("software", model).run(6, resume=path)

    def test_wrong_kind_checkpoint_is_refused(self):
        model = tiny_model()
        captured = []
        make_solver("software", model).run(
            4, checkpoint_every=2, checkpoint_sink=captured.append
        )
        ladder = ParallelTempering(
            model,
            lambda i: make_backend("software", FULL_SCALE, seed=50 + i),
            geometric_ladder(0.5, 4.0, 3),
            seed=9,
        )
        with pytest.raises(ConfigError):
            ladder.run(6, resume=captured[0])

    def test_mismatched_sampler_is_refused(self):
        model = tiny_model()
        captured = []
        make_solver("software", model).run(
            4, checkpoint_every=2, checkpoint_sink=captured.append
        )
        with pytest.raises(ConfigError):
            make_solver("new_rsug", model).run(8, resume=captured[0])

    def test_exhausted_checkpoint_is_refused(self):
        model = tiny_model()
        captured = []
        make_solver("software", model).run(
            4, checkpoint_every=4, checkpoint_sink=captured.append
        )
        with pytest.raises(ConfigError):
            make_solver("software", model).run(4, resume=captured[0])


def ladder_under_test(model, use_batched=True):
    return ParallelTempering(
        model,
        lambda i: make_backend("new_rsug", FULL_SCALE, seed=40 + i),
        geometric_ladder(0.5, 4.0, 3),
        swap_interval=2,
        seed=11,
        use_batched=use_batched,
    )


def assert_tempering_identical(a, b):
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.energy_history, b.energy_history)
    assert a.swap_attempts == b.swap_attempts
    assert a.swaps_accepted == b.swaps_accepted


class TestTemperingResume:
    @pytest.mark.parametrize("use_batched", [True, False], ids=["batched", "sequential"])
    def test_kill_and_resume_matches_oracle(self, use_batched):
        model = tiny_model(seed=4)
        oracle = ladder_under_test(model, use_batched).run(8)
        captured = []
        ladder_under_test(model, use_batched).run(
            4, checkpoint_every=4, checkpoint_sink=captured.append
        )
        resumed = ladder_under_test(model, use_batched).run(8, resume=captured[0])
        assert_tempering_identical(oracle, resumed)

    def test_cross_path_resume(self):
        # A checkpoint taken on the batched path resumes on the
        # sequential oracle path (and vice versa) — the snapshot is
        # path-agnostic because both paths are byte-identical.
        model = tiny_model(seed=4)
        oracle = ladder_under_test(model, use_batched=True).run(8)
        captured = []
        ladder_under_test(model, use_batched=True).run(
            4, checkpoint_every=4, checkpoint_sink=captured.append
        )
        resumed = ladder_under_test(model, use_batched=False).run(8, resume=captured[0])
        assert_tempering_identical(oracle, resumed)


def ensemble_under_test(model, use_batched=True, chains=3):
    return EnsembleSolver(
        model,
        lambda i: make_backend("software", FULL_SCALE, seed=60 + i),
        GeometricSchedule(2.0, 0.85),
        chains=chains,
        init="random",
        seed=21,
        use_batched=use_batched,
    )


class TestEnsembleResume:
    def test_kill_and_resume_matches_oracle(self):
        model = tiny_model(seed=8)
        oracle = ensemble_under_test(model).run(8)
        captured = []
        ensemble_under_test(model).run(
            4, checkpoint_every=4, checkpoint_sink=captured.append
        )
        resumed = ensemble_under_test(model).run(8, resume=captured[0])
        assert oracle.best_chain == resumed.best_chain
        np.testing.assert_array_equal(oracle.labels, resumed.labels)
        np.testing.assert_array_equal(oracle.chain_labels, resumed.chain_labels)
        for a, b in zip(oracle.energy_histories, resumed.energy_histories):
            np.testing.assert_array_equal(a, b)

    def test_cross_path_resume_into_sequential(self):
        model = tiny_model(seed=8)
        oracle = ensemble_under_test(model, use_batched=False).run(8)
        captured = []
        ensemble_under_test(model, use_batched=True).run(
            4, checkpoint_every=4, checkpoint_sink=captured.append
        )
        resumed = ensemble_under_test(model, use_batched=False).run(8, resume=captured[0])
        assert oracle.best_chain == resumed.best_chain
        np.testing.assert_array_equal(oracle.chain_labels, resumed.chain_labels)

    def test_single_chain_checkpoints_and_resumes(self):
        # K=1 runs the same K-chain workspace, so it checkpoints too.
        model = tiny_model(seed=8)
        oracle = ensemble_under_test(model, chains=1).run(8)
        captured = []
        ensemble_under_test(model, chains=1).run(
            4, checkpoint_every=4, checkpoint_sink=captured.append
        )
        resumed = ensemble_under_test(model, chains=1).run(8, resume=captured[0])
        np.testing.assert_array_equal(oracle.chain_labels, resumed.chain_labels)
        assert oracle.energy_histories == resumed.energy_histories
        assert oracle.temperature_history == resumed.temperature_history
        solo = MCMCSolver(
            model,
            make_backend("software", FULL_SCALE, seed=60),
            GeometricSchedule(2.0, 0.85),
            init="random",
            seed=21,
        ).run(8)
        np.testing.assert_array_equal(oracle.chain_labels[0], solo.labels)
        assert oracle.energy_histories[0] == solo.energy_history
        assert oracle.temperature_history == solo.temperature_history

    def test_sequential_path_refuses_checkpoint_emission(self):
        model = tiny_model(seed=8)
        with pytest.raises(ConfigError):
            ensemble_under_test(model, use_batched=False).run(
                8, checkpoint_every=2, checkpoint_sink=lambda c: None
            )


RESUMABLE_RUNS = {
    "solver": lambda model: make_solver("software", model),
    "tempering": ladder_under_test,
    "ensemble": ensemble_under_test,
}


@pytest.mark.parametrize("bad", ["negative", "past_the_end"])
@pytest.mark.parametrize("kind", sorted(RESUMABLE_RUNS))
def test_resume_rejects_out_of_range_labels(kind, bad):
    # A -1 label would silently read the sentinel row of the padded
    # pairwise table; one past the end would fail inside a gather.
    model = tiny_model(seed=4)
    captured = []
    RESUMABLE_RUNS[kind](model).run(
        4, checkpoint_every=4, checkpoint_sink=captured.append
    )
    checkpoint = captured[0]
    checkpoint.labels.flat[5] = -1 if bad == "negative" else model.n_labels
    with pytest.raises(ConfigError, match="out of range"):
        RESUMABLE_RUNS[kind](model).run(8, resume=checkpoint)


class TestCheckpointPlumbing:
    def test_save_load_round_trip(self, tmp_path):
        checkpoint = SolveCheckpoint(
            kind="solver",
            sweep=3,
            labels=np.arange(12, dtype=np.int64).reshape(3, 4),
            rng={"solver": {"kind": "numpy"}},
            history={"energy": [1.0, 2.0]},
            meta={"shape": (3, 4)},
        )
        path = tmp_path / "x.ckpt"
        save_checkpoint(checkpoint, path)
        loaded = load_checkpoint(path)
        assert loaded.kind == "solver" and loaded.sweep == 3
        np.testing.assert_array_equal(loaded.labels, checkpoint.labels)

    def test_writer_requires_destination(self):
        with pytest.raises(ConfigError):
            CheckpointWriter(2, None, None)

    def test_writer_cadence(self):
        emitted = []
        writer = CheckpointWriter(3, None, emitted.append)
        for completed in range(1, 10):
            writer.maybe_emit(completed, lambda: completed)
        assert emitted == [3, 6, 9]

    def test_disabled_writer_never_emits(self):
        writer = CheckpointWriter(0, None, None)
        writer.maybe_emit(5, lambda: pytest.fail("must not build a snapshot"))

    def test_format_version_gates_load(self, tmp_path):
        checkpoint = SolveCheckpoint(
            kind="solver",
            sweep=1,
            labels=np.zeros((2, 2), dtype=np.int64),
            rng={},
            history={},
            meta={},
        )
        path = tmp_path / "x.ckpt"
        save_checkpoint(checkpoint, path)
        assert CHECKPOINT_FORMAT_VERSION >= 1
        blob = bytearray(path.read_bytes())
        blob[4] ^= 0xFF  # flip the version word
        path.write_bytes(bytes(blob))
        with pytest.raises(EnvelopeError) as excinfo:
            load_checkpoint(path)
        assert excinfo.value.reason == "version_mismatch"
