"""Physical configuration shared by every module: amplifier rates and the coherent input."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class AmplifierParams:
    """Gain/loss rates of a phase-insensitive linear amplifier.

    kappa_up is the photon gain rate, kappa_down the loss rate. Only the
    amplifying regime (net gain kappa_minus = kappa_up - kappa_down > 0) is
    supported; the closed-form expressions divide by kappa_minus.
    """

    kappa_up: float
    kappa_down: float = 0.0

    def __post_init__(self):
        if not 0 < self.kappa_up < math.inf:
            raise ValueError(f"kappa_up must be finite and > 0, got {self.kappa_up}")
        if not 0 <= self.kappa_down < math.inf:
            raise ValueError(f"kappa_down must be finite and >= 0, got {self.kappa_down}")
        if not self.kappa_minus > 0:
            raise ValueError(
                "amplifying operation requires kappa_up > kappa_down, got "
                f"kappa_up={self.kappa_up}, kappa_down={self.kappa_down}"
            )

    @property
    def kappa_minus(self) -> float:
        return self.kappa_up - self.kappa_down

    @property
    def noise_ratio(self) -> float:
        """kappa_up / kappa_minus; scales the spontaneous-emission term."""
        return self.kappa_up / self.kappa_minus


@dataclass(frozen=True)
class CoherentInput:
    """Coherent-state input |alpha|, a deterministic phase-space point.

    amplitude_sq is |alpha|^2 = N(0); theta is the initial phase Phi(0).
    In this picture the input carries no initial number or phase spread.
    Runs built from a config fix theta = pi: the amplifier is
    phase-insensitive, so theta only rotates the output.
    """

    amplitude_sq: float
    theta: float = 0.0

    def __post_init__(self):
        if not 0 < self.amplitude_sq < math.inf:
            raise ValueError(f"amplitude_sq must be finite and > 0, got {self.amplitude_sq}")
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")
