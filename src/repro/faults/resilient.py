"""Resilient over-the-wire execution: retry, quarantine, degrade.

:class:`ResilientDriver` wraps the architectural driver of
:mod:`repro.isa.driver` with the recovery loop a production host would
run against a physical RSU-G array:

* **wire integrity** — encoded command streams pass through a
  :class:`~repro.faults.models.WireChannel`; corrupted or truncated
  transfers (caught by the hardened
  :func:`~repro.isa.commands.decode_stream`, or by a response-count
  mismatch) are retried with exponential backoff;
* **NACK retry** — evaluations that come back as
  :class:`~repro.faults.device.UnitNack` are re-issued individually,
  again with bounded backoff;
* **online health checks** — each sweep, every unit's label counts are
  screened against the pool of its peers (chi-square two-sample, zero
  extra traffic); a suspect unit is confirmed with an active probe
  whose expected distribution is the *exact analytic conditional* from
  :func:`repro.core.analytic.win_probabilities`;
* **quarantine and remap** — confirmed-bad or persistently NACKing
  units are retired onto healthy spares
  (:meth:`~repro.faults.device.FaultyRSUDevice.quarantine_unit`);
* **graceful degradation** — when retries or spares are exhausted the
  driver falls back to a bit-faithful software Gibbs sweep
  (:class:`~repro.core.software.SoftwareSampler` over the same integer
  energies) and completes the solve.

Every decision is recorded in a structured, deterministic
:class:`~repro.faults.incidents.IncidentLog`.  Backoff delays are
*simulated* (recorded, never slept) so runs are fast and replayable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.analytic import win_probabilities
from repro.core.convert import boundary_table
from repro.core.datapath import EnergyDatapath
from repro.core.software import SoftwareSampler
from repro.faults.device import FaultyRSUDevice, UnitNack
from repro.faults.health import chi_square_goodness, chi_square_two_sample, label_counts
from repro.faults.incidents import IncidentLog
from repro.faults.models import WireChannel, WireFault
from repro.isa.commands import (
    Command,
    Configure,
    Evaluate,
    ReadStatus,
    decode_stream,
    encode_stream,
)
from repro.isa.device import NEW_UPDATE_BYTES, RSUDevice
from repro.isa.driver import RSUDriver
from repro.util.errors import ConfigError, DataError, UnrecoverableFaultError


@dataclass(frozen=True)
class ResiliencePolicy:
    """Tunables of the recovery loop.

    Parameters
    ----------
    max_retries:
        Bounded retry budget per transfer and per NACKed evaluation.
    backoff_base_s / backoff_factor:
        Simulated exponential backoff schedule (recorded in incidents,
        never slept).
    health_check_interval:
        Sweeps between health epochs; 0 disables the online checks.
    health_pvalue:
        Passive-screen threshold: a unit whose label distribution
        diverges from its peers below this p-value becomes *suspect*.
        Kept very strict so a fault-free run essentially never probes
        (probing consumes device entropy and would perturb the
        bit-identical fault-free path).
    probe_count:
        Active-probe evaluations per unit when confirming a suspect.
    probe_pvalue:
        Confirmation threshold against the analytic conditional.
    probe_temperature:
        Grid-unit temperature the probes run at.  Kept high so the
        analytic conditional spreads mass over many labels — a probe at
        a cold sweep temperature has no power against a unit stuck at
        the very label the conditional concentrates on.  The sweep
        temperature is restored after the probe.
    nack_rate_threshold / min_nacks:
        A unit NACKing at or above this rate (with at least
        ``min_nacks`` NACKs) in one epoch earns a strike.
    quarantine_strikes:
        Consecutive strikes before quarantine (used for NACK-rate
        offenders, and for distribution offenders when no analytic
        probe is available, e.g. the legacy design).
    min_unit_samples:
        Minimum labels a unit must produce in an epoch before the
        passive distribution screen applies.
    allow_fallback:
        Degrade to the software sampler when the device is
        unrecoverable; when False the error propagates instead.
    """

    max_retries: int = 4
    backoff_base_s: float = 1e-4
    backoff_factor: float = 2.0
    health_check_interval: int = 1
    health_pvalue: float = 1e-6
    probe_count: int = 64
    probe_pvalue: float = 1e-4
    probe_temperature: float = 255.0
    nack_rate_threshold: float = 0.5
    min_nacks: int = 4
    quarantine_strikes: int = 2
    min_unit_samples: int = 20
    allow_fallback: bool = True

    def __post_init__(self):
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base_s <= 0 or self.backoff_factor < 1.0:
            raise ConfigError("backoff_base_s must be > 0 and backoff_factor >= 1")
        if self.health_check_interval < 0:
            raise ConfigError("health_check_interval must be >= 0")
        for name, value in (
            ("health_pvalue", self.health_pvalue),
            ("probe_pvalue", self.probe_pvalue),
        ):
            if not 0.0 < value < 1.0:
                raise ConfigError(f"{name} must be in (0, 1), got {value}")
        if not 0.0 < self.nack_rate_threshold <= 1.0:
            raise ConfigError("nack_rate_threshold must be in (0, 1]")
        if self.probe_count < 1 or self.min_nacks < 1:
            raise ConfigError("probe_count and min_nacks must be >= 1")
        if self.probe_temperature <= 0:
            raise ConfigError("probe_temperature must be positive")
        if self.quarantine_strikes < 1 or self.min_unit_samples < 1:
            raise ConfigError("quarantine_strikes and min_unit_samples must be >= 1")


class ResilientDriver(RSUDriver):
    """An :class:`RSUDriver` that survives faults and degrades gracefully.

    Accepts any :class:`~repro.isa.device.RSUDevice`; array-level
    recovery (NACK handling, health checks, quarantine) engages when the
    device is a :class:`~repro.faults.device.FaultyRSUDevice` with a
    unit-array model.  Wire faults are taken from the device's plan.

    With a null fault plan and health checks never triggering, the
    driver is bit-identical to the plain :class:`RSUDriver`.
    """

    def __init__(
        self,
        device: RSUDevice,
        unary: np.ndarray,
        configure: Configure,
        policy: ResiliencePolicy = ResiliencePolicy(),
        fallback_seed: int = 0,
        log: Optional[IncidentLog] = None,
    ):
        self.policy = policy
        self.incidents = log if log is not None else IncidentLog()
        plan = getattr(device, "plan", None)
        wire_fault = plan.wire if plan is not None else None
        self._wire = WireChannel(wire_fault if wire_fault is not None else WireFault())
        self._sweep_index = 0
        self._fallen_back = False
        self._fallback_seed = fallback_seed
        self._fallback_sampler: Optional[SoftwareSampler] = None
        self.simulated_backoff_s = 0.0
        # Per-epoch unit accounting.
        self._epoch_nacks: Dict[int, int] = {}
        self._epoch_oks: Dict[int, int] = {}
        self._epoch_labels: Dict[int, np.ndarray] = {}
        self._nack_strikes: Dict[int, int] = {}
        self._dist_strikes: Dict[int, int] = {}
        super().__init__(device, unary, configure)
        self._model_datapath = EnergyDatapath(
            label_values=np.arange(configure.n_labels),
            distance=configure.distance,
            singleton_weight=configure.singleton_weight,
            doubleton_weight=configure.doubleton_weight,
            output_shift=configure.output_shift,
            energy_bits=device.config.energy_bits,
        )
        self._probe_site = 0
        if plan is not None:
            self.incidents.record(
                0, "plan", "info", **{"faults": repr(sorted(plan.describe().items()))}
            )

    # -- state -------------------------------------------------------------
    @property
    def fell_back(self) -> bool:
        """Whether the driver has degraded to the software sampler."""
        return self._fallen_back

    def _units_modeled(self) -> bool:
        return (
            isinstance(self.device, FaultyRSUDevice)
            and self.device.plan.units is not None
        )

    # -- robust transfer ---------------------------------------------------
    def _send(self, commands: List[Command]) -> List[object]:
        words = encode_stream(commands)
        responders = [c for c in commands if isinstance(c, (Evaluate, ReadStatus))]
        responses, units = self._transfer(words, len(responders))
        final = list(responses)
        unit_cursor = 0
        for index, (command, response) in enumerate(zip(responders, final)):
            unit = None
            if isinstance(command, Evaluate) and unit_cursor < len(units):
                unit = units[unit_cursor]
                unit_cursor += 1
            if isinstance(response, UnitNack):
                final[index] = self._recover(command, response)
            elif isinstance(command, Evaluate) and unit is not None:
                self._tally(unit, ok=True, label=response)
        return final

    def _transfer(self, words: List[int], expected: int) -> Tuple[List[object], List[int]]:
        """One wire transfer with bounded whole-batch retry."""
        delay = self.policy.backoff_base_s
        last_error = "no attempt made"
        trace = getattr(self.device, "unit_trace", None)
        for attempt in range(self.policy.max_retries + 1):
            delivered, flips, drops = self._wire.transmit(words)
            self.words_sent += len(words)
            trace_before = len(trace) if trace is not None else 0
            try:
                commands = decode_stream(delivered)
                responses = self.device.execute(commands, words=len(delivered))
            except (DataError, ConfigError) as exc:
                last_error = str(exc)
                self._note_transfer_fault(
                    "transfer_corrupt", attempt, delay, flips, drops, last_error
                )
                delay *= self.policy.backoff_factor
                continue
            if len(responses) != expected:
                last_error = (
                    f"expected {expected} responses, got {len(responses)}"
                )
                self._note_transfer_fault(
                    "response_mismatch", attempt, delay, flips, drops, last_error
                )
                delay *= self.policy.backoff_factor
                continue
            units = list(trace[trace_before:]) if trace is not None else []
            return responses, units
        raise UnrecoverableFaultError(
            f"transfer failed after {self.policy.max_retries + 1} attempts: {last_error}"
        )

    def _note_transfer_fault(self, kind, attempt, delay, flips, drops, error):
        self.simulated_backoff_s += delay
        self.incidents.record(
            self._sweep_index,
            kind,
            "warning",
            attempt=attempt,
            backoff_s=delay,
            bit_flips=flips,
            drops=drops,
            error=error[:160],
        )

    # -- NACK recovery -----------------------------------------------------
    def _recover(self, command: Evaluate, nack: UnitNack) -> int:
        self._tally(nack.unit, ok=False)
        self.incidents.record(
            self._sweep_index,
            "unit_nack",
            "warning",
            unit=nack.unit,
            site=nack.site,
            attempt=0,
            nack_kind=nack.kind,
        )
        delay = self.policy.backoff_base_s
        for attempt in range(1, self.policy.max_retries + 1):
            self.simulated_backoff_s += delay
            responses, units = self._transfer(encode_stream([command]), 1)
            response = responses[0]
            if not isinstance(response, UnitNack):
                unit = units[0] if units else None
                if unit is not None:
                    self._tally(unit, ok=True, label=response)
                self.incidents.record(
                    self._sweep_index,
                    "recovered",
                    "info",
                    unit=unit,
                    site=command.site,
                    attempt=attempt,
                    backoff_s=delay,
                )
                return response
            self._tally(response.unit, ok=False)
            self.incidents.record(
                self._sweep_index,
                "unit_nack",
                "warning",
                unit=response.unit,
                site=response.site,
                attempt=attempt,
                nack_kind=response.kind,
            )
            delay *= self.policy.backoff_factor
        self.incidents.record(
            self._sweep_index,
            "retry_exhausted",
            "error",
            site=command.site,
            attempt=self.policy.max_retries,
        )
        raise UnrecoverableFaultError(
            f"evaluation of site {command.site} still failing after "
            f"{self.policy.max_retries} retries"
        )

    def _tally(self, unit: int, ok: bool, label: Optional[int] = None) -> None:
        if not self._units_modeled():
            return
        if ok:
            self._epoch_oks[unit] = self._epoch_oks.get(unit, 0) + 1
            if label is not None and isinstance(label, (int, np.integer)):
                counts = self._epoch_labels.get(unit)
                if counts is None:
                    counts = np.zeros(self.n_labels, dtype=np.int64)
                    self._epoch_labels[unit] = counts
                if 0 <= int(label) < self.n_labels:
                    counts[int(label)] += 1
        else:
            self._epoch_nacks[unit] = self._epoch_nacks.get(unit, 0) + 1

    # -- sweeps with recovery ----------------------------------------------
    def sweep(self, labels: np.ndarray, grid_temperature: float) -> np.ndarray:
        labels = np.asarray(labels)
        if labels.shape != self.shape:
            raise DataError(f"labels shape {labels.shape} != grid {self.shape}")
        if self._fallen_back:
            labels = self._software_sweep(labels, grid_temperature)
            self._sweep_index += 1
            return labels
        try:
            self.set_temperature(grid_temperature)
            for mask in self._masks:
                commands, _ = self._evaluate_commands(labels, mask)
                responses = self._send(commands)
                labels[mask] = np.asarray(responses, dtype=np.int64)
            interval = self.policy.health_check_interval
            if interval and (self._sweep_index + 1) % interval == 0:
                self._health_epoch(grid_temperature)
        except UnrecoverableFaultError as exc:
            if not self.policy.allow_fallback:
                raise
            self._fall_back(str(exc))
            labels = self._software_sweep(labels, grid_temperature)
        self._sweep_index += 1
        return labels

    # -- health checks -----------------------------------------------------
    def _health_epoch(self, grid_temperature: float) -> None:
        if not self._units_modeled():
            return
        try:
            active = list(self.device.active_units)
            # NACK-rate screen: persistent non-responders.
            for unit in active:
                nacks = self._epoch_nacks.get(unit, 0)
                oks = self._epoch_oks.get(unit, 0)
                total = nacks + oks
                if (
                    nacks >= self.policy.min_nacks
                    and total > 0
                    and nacks / total >= self.policy.nack_rate_threshold
                ):
                    strikes = self._nack_strikes.get(unit, 0) + 1
                    self._nack_strikes[unit] = strikes
                    self.incidents.record(
                        self._sweep_index,
                        "unit_suspect",
                        "warning",
                        unit=unit,
                        nack_rate=round(nacks / total, 4),
                        reason="nack_rate",
                        strikes=strikes,
                    )
                    if strikes >= self.policy.quarantine_strikes:
                        self._quarantine(unit, "nack_rate")
                else:
                    self._nack_strikes.pop(unit, None)
            # Distribution screen: silent corrupters (stuck-at labels).
            pool = np.zeros(self.n_labels, dtype=np.int64)
            for counts in self._epoch_labels.values():
                pool += counts
            for unit in list(self.device.active_units):
                counts = self._epoch_labels.get(unit)
                if counts is None or counts.sum() < self.policy.min_unit_samples:
                    continue
                peers = pool - counts
                if peers.sum() == 0:
                    continue
                pvalue = chi_square_two_sample(counts, peers)
                if pvalue >= self.policy.health_pvalue:
                    self._dist_strikes.pop(unit, None)
                    continue
                self.incidents.record(
                    self._sweep_index,
                    "unit_suspect",
                    "warning",
                    unit=unit,
                    pvalue=float(pvalue),
                    reason="distribution",
                )
                verdict = self._probe_confirm(unit, grid_temperature)
                if verdict is True:
                    self._quarantine(unit, "probe")
                elif verdict is None:
                    strikes = self._dist_strikes.get(unit, 0) + 1
                    self._dist_strikes[unit] = strikes
                    if strikes >= self.policy.quarantine_strikes:
                        self._quarantine(unit, "distribution")
                else:
                    self._dist_strikes.pop(unit, None)
                    self.incidents.record(
                        self._sweep_index, "suspect_cleared", "info", unit=unit
                    )
        finally:
            self._epoch_nacks.clear()
            self._epoch_oks.clear()
            self._epoch_labels.clear()

    def _probe_confirm(self, unit: int, grid_temperature: float) -> Optional[bool]:
        """Probe ``unit`` against the analytic conditional.

        Returns True (confirmed bad), False (healthy), or None when no
        analytic expectation is available (legacy LUT design).
        """
        if self.device.design != "new":
            return None
        probe_temperature = self.policy.probe_temperature
        expected = self._probe_expectation(probe_temperature)
        active = list(self.device.active_units)
        probe = Evaluate(site=self._probe_site, neighbors=(0, 0, 0, 0), valid_mask=0)
        count = self.policy.probe_count * len(active)
        self._transfer(encode_stream(self.temperature_commands(probe_temperature)), 0)
        responses, units = self._transfer(encode_stream([probe] * count), count)
        self._transfer(encode_stream(self.temperature_commands(grid_temperature)), 0)
        mine = [
            int(response)
            for response, resp_unit in zip(responses, units)
            if resp_unit == unit and not isinstance(response, UnitNack)
        ]
        if not mine:
            # The unit cannot even answer its probes.
            self.incidents.record(
                self._sweep_index, "probe", "warning", unit=unit, pvalue=0.0
            )
            return True
        pvalue = chi_square_goodness(label_counts(mine, self.n_labels), expected)
        self.incidents.record(
            self._sweep_index,
            "probe",
            "info" if pvalue >= self.policy.probe_pvalue else "warning",
            unit=unit,
            pvalue=float(pvalue),
        )
        return pvalue < self.policy.probe_pvalue

    def _probe_expectation(self, grid_temperature: float) -> np.ndarray:
        """Exact win probabilities of the probe evaluation (new design)."""
        m = self.n_labels
        unary_row = self._unary3d.reshape(-1, m)[self._probe_site]
        sentinel = np.full((m, 4), m, dtype=np.int64)
        energies = self._model_datapath.compute(
            unary_row, np.arange(m), sentinel
        )
        bounds = np.clip(
            np.floor(boundary_table(grid_temperature, self.device.config)), 0, 255
        ).astype(np.int64)
        boundaries = np.full(NEW_UPDATE_BYTES, 255, dtype=np.int64)
        boundaries[: len(bounds)] = bounds[:NEW_UPDATE_BYTES]
        scaled = energies - energies.min()
        codes = np.zeros(m, dtype=np.int64)
        assigned = np.zeros(m, dtype=bool)
        code = self.device.config.lambda_max_code
        for bound in boundaries:
            hit = ~assigned & (scaled <= bound)
            codes[hit] = code
            assigned |= hit
            code //= 2
        return win_probabilities(codes, self.device.config, self.device.config.tie_policy)

    # -- quarantine and fallback -------------------------------------------
    def _quarantine(self, unit: int, reason: str) -> None:
        spare = self.device.quarantine_unit(unit)
        self._nack_strikes.pop(unit, None)
        self._dist_strikes.pop(unit, None)
        self.incidents.record(
            self._sweep_index,
            "quarantine",
            "warning",
            unit=unit,
            reason=reason,
            spare=spare,
        )

    def _fall_back(self, reason: str) -> None:
        self._fallen_back = True
        self._fallback_sampler = SoftwareSampler(
            np.random.default_rng(self._fallback_seed)
        )
        self.incidents.record(
            self._sweep_index, "fallback", "error", reason=reason[:200]
        )

    def _software_sweep(self, labels: np.ndarray, grid_temperature: float) -> np.ndarray:
        """One checkerboard sweep on the software sampler.

        Uses the same integer energies as the device datapath, with the
        exact Boltzmann conditional the device's conversion stage
        approximates — the quality reference the paper's software
        baseline defines.
        """
        if self._fallback_sampler is None:
            self._fallback_sampler = SoftwareSampler(
                np.random.default_rng(self._fallback_seed)
            )
        height, width = self.shape
        m = self.n_labels
        unary_flat = self._unary3d.reshape(-1, m)
        for mask in self._masks:
            rows, cols = np.nonzero(mask)
            if not rows.size:
                continue  # an empty colour class (a 1x1 grid) draws nothing
            sites = np.flatnonzero(mask.ravel())
            neighbors = np.full((len(sites), 4), m, dtype=np.int64)
            for position, (dy, dx) in enumerate(((-1, 0), (1, 0), (0, -1), (0, 1))):
                ny, nx = rows + dy, cols + dx
                valid = (ny >= 0) & (ny < height) & (nx >= 0) & (nx < width)
                neighbors[valid, position] = labels[ny[valid], nx[valid]]
            energies = np.empty((len(sites), m), dtype=np.float64)
            for label in range(m):
                energies[:, label] = self._model_datapath.compute(
                    unary_flat[sites, label],
                    np.full(len(sites), label, dtype=np.int64),
                    neighbors,
                )
            labels[mask] = self._fallback_sampler.sample(energies, grid_temperature)
        return labels

    # -- reporting -----------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """Machine-readable account of the run's resilience events."""
        quarantined = (
            self.device.quarantined_units
            if isinstance(self.device, FaultyRSUDevice)
            else []
        )
        detection = None
        for incident in self.incidents:
            if incident.kind in ("unit_suspect", "quarantine", "retry_exhausted"):
                detection = incident.sweep
                break
        return {
            "sweeps": self._sweep_index,
            "fell_back": self._fallen_back,
            "quarantined_units": quarantined,
            "incident_counts": self.incidents.counts_by_kind(),
            "detection_sweep": detection,
            "simulated_backoff_s": round(self.simulated_backoff_s, 9),
            "words_sent": self.words_sent,
        }
