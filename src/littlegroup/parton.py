"""Scaling laws behind the free-parton appearance of a fast bound state.

A boost of rapidity eta dilates the internal oscillation period by
exp(eta) while the interaction time with a counter-propagating probe,
which runs along the negative light-cone axis, contracts by exp(-eta).
Their ratio exp(-2 eta) measures how much of one internal cycle the
probe can see; once it is tiny, the constituents respond incoherently.

The constituent-multiplication effect has no closed form here; its
measurable proxy is the unbounded growth of the momentum spread along
the positive light-cone axis (see momentum_space).  Its space-time
counterpart, the longitudinal variance cosh(2 eta)/2 of the ground
state, is defined here because it needs only math; oscillator
re-exports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Default beam-particle mass in GeV (proton).
DEFAULT_PROTON_MASS_GEV = 0.938


@dataclass(frozen=True)
class BeamSpec:
    """Beam energy and particle mass in GeV, natural units."""

    energy: float
    mass: float = DEFAULT_PROTON_MASS_GEV

    def __post_init__(self):
        if not (math.isfinite(self.energy) and math.isfinite(self.mass)):
            raise ValueError("beam energy and mass must be finite")
        if not self.mass > 0:
            raise ValueError("mass must be positive")
        if self.energy < self.mass:
            raise ValueError("beam energy cannot be below the particle mass")


def rapidity_from_beam(beam: BeamSpec) -> float:
    """Boost rapidity arccosh(E/m), i.e. atanh(v/c) for the beam velocity."""
    return math.acosh(beam.energy / beam.mass)


def period_dilation(eta: float) -> float:
    """Internal oscillation period grows like exp(eta)."""
    return math.exp(eta)


def interaction_time_contraction(eta: float) -> float:
    """External interaction time shrinks like exp(-eta)."""
    return math.exp(-eta)


def coherence_ratio(eta: float) -> float:
    """Interaction time over oscillation period: exp(-2 eta).

    Equal to 1 only at rest; strictly decreasing in eta.
    """
    return math.exp(-2.0 * eta)


def marginal_variance(eta: float) -> float:
    """Variance of z under the squared ground-state wave function.

    cosh(2 eta) / 2: the longitudinal quark distribution widens without
    bound as the bound state is boosted.
    """
    return math.cosh(2.0 * eta) / 2.0


# last: hand the package this layer's names before any importer can replace them
from . import _bind  # noqa: E402

_bind(__name__)
