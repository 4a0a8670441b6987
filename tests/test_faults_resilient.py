"""Integration tests for the resilient driver and robustness experiment."""

import numpy as np
import pytest

from repro.core.params import new_design_config
from repro.faults import (
    FaultPlan,
    FaultyRSUDevice,
    ResiliencePolicy,
    ResilientDriver,
    UnitArrayFault,
    WireFault,
)
from repro.isa import Configure, RSUDevice, RSUDriver
from repro.util import ConfigError, UnrecoverableFaultError

NEW = new_design_config()


def potts_problem(h=10, w=12, m=4, seed=0):
    rng = np.random.default_rng(seed)
    target = np.zeros((h, w), dtype=int)
    target[:, w // 2 :] = m - 1
    unary = rng.integers(0, 30, (h, w, m))
    rows = np.arange(h)[:, None]
    cols = np.arange(w)[None, :]
    unary[rows, cols, target] = 0
    return unary, target


CONFIGURE = Configure("binary", 1, 8, 4)
TEMPERATURES = [20.0 * 0.85**k + 1.0 for k in range(25)]


def resilient_solve(plan, seed=9, policy=ResiliencePolicy(), iterations=25):
    unary, target = potts_problem()
    device = FaultyRSUDevice(NEW, np.random.default_rng(seed), plan=plan)
    driver = ResilientDriver(device, unary, CONFIGURE, policy=policy)
    labels = driver.solve(iterations, TEMPERATURES[:iterations])
    return labels, target, driver


def units_plan(**kwargs):
    kwargs.setdefault("n_units", 4)
    kwargs.setdefault("spare_units", 2)
    return FaultPlan(units=UnitArrayFault(**kwargs))


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ResiliencePolicy(max_retries=-1)
        with pytest.raises(ConfigError):
            ResiliencePolicy(backoff_factor=0.5)
        with pytest.raises(ConfigError):
            ResiliencePolicy(health_pvalue=0.0)
        with pytest.raises(ConfigError):
            ResiliencePolicy(nack_rate_threshold=1.5)
        with pytest.raises(ConfigError):
            ResiliencePolicy(probe_temperature=0.0)


class TestBitIdentity:
    def test_null_plan_matches_plain_driver_exactly(self):
        """Acceptance: with all fault rates at zero the resilient path
        is bit-identical to the unprotected driver."""
        unary, _ = potts_problem()

        plain_device = RSUDevice(NEW, np.random.default_rng(9), design="new")
        plain = RSUDriver(plain_device, unary, CONFIGURE)
        expected = plain.solve(25, TEMPERATURES)

        labels, _, driver = resilient_solve(FaultPlan.none(), seed=9)
        assert np.array_equal(labels, expected)
        assert not driver.fell_back
        assert driver.summary()["incident_counts"].get("unit_nack", 0) == 0
        assert driver.words_sent == plain.words_sent


class TestDeterminism:
    def test_same_seed_same_incidents_and_labels(self):
        """Acceptance: a seeded run under faults replays byte-identically —
        same incident log, same final labeling."""
        plan = FaultPlan(
            units=UnitArrayFault(
                n_units=4, spare_units=2, transient_rate=0.01, seed=5
            ),
            wire=WireFault(flip_rate=2e-4, drop_rate=1e-4, seed=6),
        )
        first_labels, _, first = resilient_solve(plan, seed=11)
        second_labels, _, second = resilient_solve(plan, seed=11)
        assert first.incidents.to_jsonl() == second.incidents.to_jsonl()
        assert np.array_equal(first_labels, second_labels)
        assert first.summary() == second.summary()


class TestTransientFaults:
    def test_one_percent_transients_recovered_within_2x_quality(self):
        """Acceptance: at a 1% transient rate the solve completes and the
        label error stays within 2x of the fault-free run."""
        clean_labels, target, _ = resilient_solve(FaultPlan.none(), seed=9)
        clean_error = (clean_labels != target).mean()

        labels, target, driver = resilient_solve(
            units_plan(transient_rate=0.01, seed=21), seed=9
        )
        error = (labels != target).mean()
        assert not driver.fell_back
        counts = driver.summary()["incident_counts"]
        assert counts.get("unit_nack", 0) > 0
        assert counts.get("recovered", 0) > 0
        assert error <= 2.0 * clean_error + 0.02
        assert driver.simulated_backoff_s > 0.0


class TestPersistentFaults:
    def test_dead_unit_is_quarantined_onto_a_spare(self):
        labels, target, driver = resilient_solve(
            units_plan(dead_units=(2,), seed=23), seed=9
        )
        summary = driver.summary()
        assert summary["quarantined_units"] == [2]
        assert not driver.fell_back
        assert summary["detection_sweep"] is not None
        assert (labels == target).mean() > 0.85
        # Once the spare takes over the NACKs stop: incidents are bounded.
        last_nack = max(i.sweep for i in driver.incidents.of_kind("unit_nack"))
        assert last_nack <= summary["detection_sweep"] + 2

    def test_stuck_unit_detected_by_probe_and_quarantined(self):
        # The passive screen's default threshold is tuned for array-scale
        # sample counts; on this small grid (~30 labels per unit per
        # epoch) the screen needs to be more sensitive.  The analytic
        # probe still guards against false positives.
        policy = ResiliencePolicy(health_pvalue=1e-3)
        labels, target, driver = resilient_solve(
            units_plan(stuck_units=((1, 0),), seed=25), seed=9, policy=policy
        )
        summary = driver.summary()
        assert summary["quarantined_units"] == [1]
        assert not driver.fell_back
        probes = driver.incidents.of_kind("probe")
        assert probes and probes[0].unit == 1
        quarantine = driver.incidents.of_kind("quarantine")[0]
        assert dict(quarantine.detail)["reason"] == "probe"
        assert (labels == target).mean() > 0.85

    def test_dead_beyond_spares_falls_back_to_software(self):
        """Acceptance: when persistent faults exceed the spare pool the
        driver degrades to the software sampler with an incident, and
        still completes the solve."""
        labels, target, driver = resilient_solve(
            units_plan(spare_units=1, dead_units=(0, 1, 2), seed=27), seed=9
        )
        assert driver.fell_back
        fallback = driver.incidents.of_kind("fallback")
        assert len(fallback) == 1 and fallback[0].severity == "error"
        assert (labels == target).mean() > 0.85

    def test_fallback_can_be_disabled(self):
        policy = ResiliencePolicy(allow_fallback=False)
        with pytest.raises(UnrecoverableFaultError):
            resilient_solve(
                units_plan(spare_units=1, dead_units=(0, 1, 2), seed=27),
                seed=9,
                policy=policy,
            )

    def test_software_fallback_skips_an_empty_colour_class(self):
        """A 1x1 grid's second checkerboard class is empty; the software
        fallback sweep must skip it, not hand the sampler zero sites."""
        unary = np.array([[[5, 0, 7, 9]]])
        device = FaultyRSUDevice(
            NEW, np.random.default_rng(9),
            plan=units_plan(n_units=1, spare_units=0, dead_units=(0,), seed=27),
        )
        driver = ResilientDriver(device, unary, CONFIGURE)
        labels = driver.solve(25, TEMPERATURES)
        assert driver.fell_back
        assert labels.shape == (1, 1) and 0 <= labels[0, 0] < 4


class TestWireFaults:
    def test_corrupted_transfers_are_retried(self):
        plan = FaultPlan(
            units=UnitArrayFault(n_units=4, spare_units=2, seed=31),
            wire=WireFault(flip_rate=1e-3, drop_rate=5e-4, seed=33),
        )
        labels, target, driver = resilient_solve(plan, seed=9)
        counts = driver.summary()["incident_counts"]
        faults = counts.get("transfer_corrupt", 0) + counts.get("response_mismatch", 0)
        assert faults > 0
        assert not driver.fell_back
        assert (labels == target).mean() > 0.85
        # Retries resend whole batches: offered traffic exceeds what the
        # device actually consumed after drops and rejected transfers.
        assert driver.words_sent > driver.device.stats.words_consumed


@pytest.mark.slow
class TestRobustnessExperiment:
    def test_quick_profile_run(self):
        from repro.experiments.profiles import QUICK
        from repro.experiments.robustness import run

        result = run(QUICK, seed=3)
        assert result.experiment_id == "robustness"
        scenarios = [row[0] for row in result.rows]
        assert "transient 0" in scenarios and "dead beyond spares" in scenarios
        curve = result.extra["degradation_curve"]
        baseline = result.extra["baseline_bp"]
        # The headline acceptance number, at stereo scale: 1% transient
        # faults stay within 2x of the fault-free bad-pixel percentage.
        assert curve["0.01"] <= 2.0 * baseline
        fell_back = {row[0]: row[5] for row in result.rows}
        assert fell_back["dead beyond spares"] == 1
        assert fell_back["transient 0"] == 0
