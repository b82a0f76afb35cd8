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

This base layer, which every other imports, needs no numpy.  It holds
FourVector, the one type the little-group algebra and the wave-function
layers share, and the domain rules every layer and the CLI call, so the
CLI refuses an argument before it loads a numeric layer (a ValueError).
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

#: Default beam-particle mass in GeV (proton).
DEFAULT_PROTON_MASS_GEV = 0.938

MAX_EXCITATION = 30
MAX_RAPIDITY = 350.0  # e^(2 |eta|) stays finite: contract's scale, a grid's squeeze

#: The boosted, rescaled J2 family converges to this multiple of N1, and the J1
#: family to this multiple of N2: exact, since each family is built from its limit.
CONTRACTION_LIMIT_COEFFICIENT = -0.5
_CONTRACTION_SOURCES = ("J2", "J1")


def _check_excitation(n, what: str) -> None:
    """Refuse an n that is not an integer in [0, MAX_EXCITATION], or is a bool."""
    try:
        ok = not isinstance(n, bool) and 0 <= operator.index(n) <= MAX_EXCITATION
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"{what} must be an integer in [0, {MAX_EXCITATION}]")


def _check_rapidity(eta: float, what: str) -> None:
    """Refuse a non-finite eta or one with |eta| > MAX_RAPIDITY."""
    if not abs(eta) <= MAX_RAPIDITY:
        raise ValueError(f"{what} needs |eta| <= {MAX_RAPIDITY:g}")


def _check_window(z_min: float, z_max: float, t_min: float, t_max: float,
                  n_z: int, n_t: int) -> None:
    """Refuse a sampling window that is not finite, ordered and evenly spaced."""
    if not all(map(math.isfinite, (z_min, z_max, t_min, t_max))):
        raise ValueError("grid bounds must be finite")
    if not (z_min < z_max and t_min < t_max):
        raise ValueError("grid bounds must be ordered")
    try:
        n_z, n_t = operator.index(n_z), operator.index(n_t)
    except TypeError:
        raise ValueError("grid sample counts must be integers") from None
    if n_z < 16 or n_t < 16:
        raise ValueError("grid needs at least 16 samples per axis")
    # in Python floats, so that a span that overflows reads inf without a warning
    dz = (float(z_max) - float(z_min)) / (n_z - 1)
    dt = (float(t_max) - float(t_min)) / (n_t - 1)
    if not (0.0 < dz < math.inf and 0.0 < dt < math.inf):
        raise ValueError("grid spacing must be positive and finite: "
                         "the span overflows or the step underflows")


def _check_label(key, labels: tuple, what: str):
    """key, if it is a str among labels; any other key is refused, an unhashable one too."""
    if not (isinstance(key, str) and key in labels):
        raise ValueError(f"unknown {what} {key!r}; expected one of {labels}")
    return key


def _check_real(x, what: str) -> float:
    """x as a float, if it is a real number, not a bool, whose float is finite; any
    other x (None, a str, NaN, an int past the float range) is refused."""
    try:  # a float (numpy's too) skips the ABC test, which costs ten times the rest
        real = isinstance(x, float) or isinstance(x, numbers.Real) and not isinstance(x, bool)
        value = float(x) if real else math.nan
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{what} must be a finite real number")
    return value


def _check_contraction(eta: float, source: str) -> float:
    """eta as a float; refuses one that is not a finite real, a negative one, then a large
    one, then the source."""
    eta = _check_real(eta, "contraction rapidity")
    if eta < 0:
        raise ValueError("contraction rapidity must be nonnegative")
    _check_rapidity(eta, "contracted_generator")
    _check_label(source, _CONTRACTION_SOURCES, "contraction source")
    return eta


def _check_reach(z: float, t: float, eta: float) -> None:
    """Refuse a NaN or infinite |z| or |t|, and points out to |z| and |t| where
    (|z| + |t|) e^|eta| overflows; in a momentum window, (q_z, q_0) stand for (z, t).

    The oscillator kernel scales |u|, |v| <= (|z| + |t|)/sqrt2 by up to
    e^|eta| and adds the two: while this stays finite, so does every
    product before its square.  eta must already pass _check_rapidity.
    """
    z, t = float(z), float(t)
    if not (math.isfinite(z) and math.isfinite(t)):
        raise ValueError("points must be finite")
    corner = abs(z) + abs(t)
    if not math.isfinite(2.0 * corner * math.exp(abs(eta))):
        raise ValueError("window too wide for this rapidity: "
                         "(|z| + |t|) exp(|eta|) overflows")


@dataclass(frozen=True)
class FourVector:
    """Event or momentum (x, y, z, t), natural units."""

    x: float
    y: float
    z: float
    t: float

    def interval(self) -> float:
        """Minkowski form x^2 + y^2 + z^2 - t^2 (spacelike positive)."""
        return self.x**2 + self.y**2 + self.z**2 - self.t**2

    def as_array(self) -> np.ndarray:
        import numpy as np  # on call: importing this layer loads no numpy
        return np.array([self.x, self.y, self.z, self.t], dtype=float)

    def __add__(self, other: "FourVector") -> "FourVector":
        return FourVector(self.x + other.x, self.y + other.y,
                          self.z + other.z, self.t + other.t)

    def __sub__(self, other: "FourVector") -> "FourVector":
        return FourVector(self.x - other.x, self.y - other.y,
                          self.z - other.z, self.t - other.t)

    def __mul__(self, scale: float) -> "FourVector":
        s = float(scale)
        return FourVector(s * self.x, s * self.y, s * self.z, s * self.t)

    __rmul__ = __mul__


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
    eta = math.acosh(beam.energy / beam.mass)
    _check_rapidity(eta, "rapidity_from_beam (eta = arccosh(energy / mass))")
    return eta


def period_dilation(eta: float) -> float:
    """Internal oscillation period grows like exp(eta)."""
    _check_rapidity(eta, "period_dilation")
    return math.exp(eta)


def interaction_time_contraction(eta: float) -> float:
    """External interaction time shrinks like exp(-eta)."""
    _check_rapidity(eta, "interaction_time_contraction")
    return math.exp(-eta)


def coherence_ratio(eta: float) -> float:
    """Interaction time over oscillation period: exp(-2 eta).

    Equal to 1 only at rest; strictly decreasing in eta.
    """
    _check_rapidity(eta, "coherence_ratio")
    return math.exp(-2.0 * eta)


def _contraction_residual(eta: float, source: str) -> float:
    """Frobenius distance from the contracted generator at eta to its limit.

    The float operations of the matrix route (lorentz_algebra), in Python
    floats.  With h = exp(-2 eta)/2, the difference (limit + 2h direction)
    - limit has four non-zero entries, for either source: +-a twice and b
    twice, a = (1/2 + h) - 1/2 and b = (-1/2 + h) + 1/2, summed here in the
    matrix's row-major order.  The subtraction cancels: once h < 2^-55
    (eta above about 18.7) the distance reads 0, not exp(-2 eta).
    """
    h = 0.5 * math.exp(-2.0 * _check_contraction(eta, source))
    a = (0.5 + h) - 0.5
    b = (-0.5 + h) + 0.5
    return math.sqrt(a * a + b * b + a * a + b * b)


def marginal_variance(eta: float) -> float:
    """Variance of z under the squared ground-state wave function.

    cosh(2 eta) / 2: the longitudinal quark distribution widens without
    bound as the bound state is boosted.
    """
    _check_rapidity(eta, "marginal_variance")
    return math.cosh(2.0 * eta) / 2.0


# last: hand the package this layer's names before any importer can replace them
from . import _bind  # noqa: E402

_bind(__name__)
