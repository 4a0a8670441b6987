"""Energy-computation stage model (stage 2 of the RSU-G pipeline).

The stage sums the singleton energy with the neighbourhood doubleton
energies (Eq. 1) and emits an ``Energy_bits``-wide unsigned value.  The
functional simulator receives float energies from the MRF model and
quantizes them exactly as the fixed-point hardware would: scale so that
``full_scale`` maps to the top of the grid, round, clamp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.errors import ConfigError, DataError
from repro.util.quantize import unsigned_max


@dataclass(frozen=True)
class EnergyStage:
    """Quantizer mapping raw float energies to the integer energy grid.

    Parameters
    ----------
    energy_bits:
        Output width (paper: 8).
    full_scale:
        Raw energy value that maps to the grid maximum.  Applications
        derive it from their MRF model's maximum attainable energy so
        the whole dynamic range of the grid is used.
    """

    energy_bits: int
    full_scale: float

    def __post_init__(self):
        if self.full_scale <= 0:
            raise ConfigError(f"full_scale must be positive, got {self.full_scale}")

    @property
    def grid_max(self) -> int:
        """Largest representable quantized energy."""
        return unsigned_max(self.energy_bits)

    @property
    def lsb(self) -> float:
        """Raw-energy size of one quantization step."""
        return self.full_scale / self.grid_max

    def quantize(self, energies: np.ndarray) -> np.ndarray:
        """Quantize raw energies onto the unsigned grid (int64 output).

        Scale so ``full_scale`` maps to the grid maximum, round, clamp;
        ``±inf`` clamps onto the grid like any out-of-range energy, and a
        NaN energy raises :class:`~repro.util.errors.DataError`.
        """
        arr = np.asarray(energies, dtype=np.float64)
        return self._grid_values(arr, np.empty(arr.shape)).astype(np.int64)

    def quantize_into(
        self, energies: np.ndarray, out: np.ndarray, work: np.ndarray
    ) -> np.ndarray:
        """Allocation-free :meth:`quantize` for the fused sweep kernel.

        ``work`` is a float64 buffer of the same shape as ``energies``
        (left holding the clipped grid values); ``out`` receives the
        grid values in its own integer dtype — any one wide enough for
        the grid, such as the fused RSU-G path's ``uint8`` for 8-bit
        energies.  The same values as :meth:`quantize`: the same
        scale-round-clamp chain, run in place.
        """
        np.copyto(out, self._grid_values(energies, work), casting="unsafe")
        return out

    def _grid_values(self, energies: np.ndarray, work: np.ndarray) -> np.ndarray:
        """Scaled, rounded and clamped energies as floats, written to and
        returned in ``work``; raises on NaN."""
        top = self.grid_max
        np.multiply(energies, top / self.full_scale, out=work)
        np.rint(work, out=work)
        np.clip(work, 0, top, out=work)
        # NaN survives scale, round and clip, and its cast to int64 is
        # undefined; one max-reduction finds it before the cast.
        if work.size and np.isnan(work.max()):
            raise DataError("energies contain NaN")
        return work

    def quantized_temperature(self, temperature: float) -> float:
        """Convert a raw-unit temperature to grid units.

        ``exp(-E_raw / T_raw) == exp(-E_grid / T_grid)`` requires the
        temperature to scale with the same factor as the energy.
        """
        if temperature <= 0:
            raise ConfigError(f"temperature must be positive, got {temperature}")
        return temperature * (self.grid_max / self.full_scale)
