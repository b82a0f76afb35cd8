"""Covariant harmonic-oscillator wave functions and their boost squeeze.

The two-body bound state is reduced to the longitudinal separation z and
the timelike separation t; the transverse coordinates are unaffected by a
z boost and enter only through degeneracy counting.  There are no
quantum excitations of the t coordinate: the timelike factor is frozen
to the ground Gaussian, so a state is labelled by the z excitation n and
the boost rapidity eta alone.

A boost acts on the light-cone coordinates u = (z + t)/sqrt(2) and
v = (z - t)/sqrt(2) as the area-preserving squeeze u -> exp(eta) u,
v -> exp(-eta) v, which turns the circular rest-frame distribution into
an ellipse elongated along the positive u axis.

One kernel, _psi, evaluates every wave function at light-cone (u, v): it
forms the rest-frame x = (e^-eta u + e^eta v)/sqrt2, y = (e^-eta u -
e^eta v)/sqrt2 and runs the Hermite recurrence with the Gaussian folded in
(Bunck, BIT 49 (2009) 281), so nothing overflows.  Grids are filled in row
blocks of about BLOCK_POINTS points from their broadcast axes, with no
meshgrid, and only on the band the squeeze leaves non-zero: for eta >= 0
the exponent -(x^2 + y^2)/2 is at most -(e^eta v/sqrt2)^2, which alone
passes _LOG_FLUSH once |z - t| > 2 sqrt(-_LOG_FLUSH) e^-eta (|z + t| for
eta < 0).  Each block evaluates only the columns within that reach of
the diagonal; a grid starts as zeros unless that band spans every row, so
every skipped sample is one the kernel would flush to 0 and the array
equals a full evaluation.  On a window centred on 0 the axes are exactly
antisymmetric and psi_n(-z, -t) = (-1)^n psi_n(z, t) holds bit for bit, so
only the first ceil(n_z/2) rows are evaluated and the others are their
reflection, negated for odd n.  normalization is a state's self-overlap.
The trapezoidal rule's default window, half-width 6 exp(|eta|), covers the
tails, but its 512 points leave v unresolved from |eta| ~ 1.8 on, and
tail_ok checks only the window: normalization(OscillatorState(0, 4))
reads 27.9 with tail_ok=True.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .parton import MAX_EXCITATION, marginal_variance  # noqa: F401  (re-exported)
from .parton import FourVector, _check_excitation, _check_rapidity, _check_reach, _check_window

SQRT2 = math.sqrt(2.0)

SPACE_TIME = "space-time"
MOMENTUM_ENERGY = "momentum-energy"

TAIL_HALF_WIDTH_FACTOR = 6.0
#: grid points per row block when a grid is sampled or reduced
BLOCK_POINTS = 8192
#: a Gaussian below tiny/eps ~ 1e-292 is 0: subnormals slow later products
_LOG_FLUSH = math.log(np.finfo(float).tiny / np.finfo(float).eps)


@dataclass(frozen=True)
class OscillatorState:
    """Longitudinal excitation n viewed at boost rapidity eta."""

    n: int
    eta: float = 0.0

    def __post_init__(self):
        _check_excitation(self.n, "excitation number")
        _check_rapidity(self.eta, "OscillatorState")


@dataclass(frozen=True)
class LightConePoint:
    u: float
    v: float


@dataclass(frozen=True)
class QuarkPairCoordinates:
    """Space-time positions of the two constituents."""

    x_a: FourVector
    x_b: FourVector


def _centred(lo: float, hi: float, n: int) -> tuple[float, np.ndarray]:
    """Centre and offsets (j - (n-1)/2) step of an axis; offset n-1-j is -offset j exactly."""
    return 0.5 * lo + 0.5 * hi, (np.arange(n) - 0.5 * (n - 1)) * ((hi - lo) / (n - 1))


@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular sampling window.

    The axis names follow the space-time representation (z, t); for
    momentum-energy fields the same bounds are read as (q_z, q_0).  An axis
    is _centred's centre plus offsets, the node set fourier_numeric folds on.
    """

    z_min: float
    z_max: float
    t_min: float
    t_max: float
    n_z: int
    n_t: int

    def __post_init__(self):
        _check_window(self.z_min, self.z_max, self.t_min, self.t_max, self.n_z, self.n_t)

    @classmethod
    def for_rapidity(cls, eta: float, n_points: int = 512) -> "GridSpec":
        """Symmetric window of half-width 6 exp(|eta|) per axis."""
        _check_rapidity(eta, "GridSpec.for_rapidity")
        half = TAIL_HALF_WIDTH_FACTOR * math.exp(abs(eta))
        return cls(-half, half, -half, half, n_points, n_points)

    @property
    def z_axis(self) -> np.ndarray:
        return np.add(*_centred(self.z_min, self.z_max, self.n_z))

    @property
    def t_axis(self) -> np.ndarray:
        return np.add(*_centred(self.t_min, self.t_max, self.n_t))

    @property
    def dz(self) -> float:
        return (self.z_max - self.z_min) / (self.n_z - 1)

    @property
    def dt(self) -> float:
        return (self.t_max - self.t_min) / (self.n_t - 1)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.z_axis, self.t_axis, indexing="ij")

    def trapezoid_weights(self) -> tuple[np.ndarray, np.ndarray]:
        wz, wt = np.full(self.n_z, self.dz), np.full(self.n_t, self.dt)
        wz[[0, -1]] *= 0.5
        wt[[0, -1]] *= 0.5
        return wz, wt

    def covers_tails(self, eta: float) -> bool:
        """True if all four bounds reach the 6 exp(|eta|) tail guard."""
        _check_rapidity(eta, "GridSpec.covers_tails")
        need = TAIL_HALF_WIDTH_FACTOR * math.exp(abs(eta)) - 1e-9
        return min(-self.z_min, self.z_max, -self.t_min, self.t_max) >= need


@dataclass(frozen=True)
class ScalarField:
    """Wave-function samples on a grid, with provenance.

    values has shape (n_z, n_t); real for space-time fields, complex for
    momentum-energy ones.  tail_ok records whether the sampling window
    satisfied the tail guard of the operation that produced the field.
    """

    grid: GridSpec
    values: np.ndarray = field(repr=False)
    state: Optional[OscillatorState]
    representation: str
    tail_ok: bool = True

    def __post_init__(self):
        if self.values.shape != (self.grid.n_z, self.grid.n_t):
            raise ValueError("field values must have shape (n_z, n_t)")
        if self.representation not in (SPACE_TIME, MOMENTUM_ENERGY):
            raise ValueError(f"unknown representation {self.representation!r}")


@dataclass(frozen=True)
class Quadrature:
    """Integral value plus the tail-guard flag of the window used."""

    value: float
    tail_ok: bool = True

    def __float__(self) -> float:
        return self.value


def relative_coordinates(pair: QuarkPairCoordinates
                         ) -> tuple[FourVector, FourVector]:
    """Center coordinate (x_a + x_b)/2 and separation (x_a - x_b)/(2 sqrt 2)."""
    center = 0.5 * (pair.x_a + pair.x_b)
    separation = (1.0 / (2.0 * SQRT2)) * (pair.x_a - pair.x_b)
    return center, separation


def hermite(n: int, x) -> np.ndarray | float:
    """Physicists' Hermite polynomial H_n by the two-term recurrence.

    n is capped at 30 to guard against coefficient overflow.  Refuses a
    non-finite x at every n, and an |x| whose H_n overflows.
    """
    _check_excitation(n, "hermite order")
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError("hermite needs a finite x")
    h_prev = np.ones_like(arr)
    if n == 0:
        return h_prev if arr.ndim else float(h_prev)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        h = 2.0 * arr
        for k in range(1, n):
            h_prev, h = h, 2.0 * arr * h - 2.0 * k * h_prev
    if not np.isfinite(h).all():
        raise ValueError(f"hermite H_{n}(x) is not finite at some x")
    return h if arr.ndim else float(h)


def lightcone(z, t) -> LightConePoint:
    """Map (z, t) to light-cone coordinates u = (z+t)/sqrt2, v = (z-t)/sqrt2."""
    return LightConePoint((z + t) / SQRT2, (z - t) / SQRT2)


def lightcone_inverse(p: LightConePoint) -> tuple[float, float]:
    """Map light-cone (u, v) back to (z, t); refuses a point whose z or t is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        z, t = (p.u + p.v) / SQRT2, (p.u - p.v) / SQRT2
    if not (np.isfinite(z).all() and np.isfinite(t).all()):
        raise ValueError("lightcone_inverse needs a point whose z and t are finite")
    return z, t


def boost_lightcone(eta: float, p: LightConePoint) -> LightConePoint:
    """Squeeze u -> e^eta u, v -> e^-eta v; the product uv is invariant."""
    _check_rapidity(eta, "boost_lightcone")
    _check_points(p.u, p.v, eta)
    return LightConePoint(math.exp(eta) * p.u, math.exp(-eta) * p.v)


def _psi(n: int, eta: float, u, v, out: np.ndarray | None = None) -> np.ndarray:
    """psi_n(eta) at broadcast light-cone (u, v).  With a = e^-eta u/sqrt2 and
    b = e^eta v/sqrt2, x = a + b and (x^2 + y^2)/2 = a^2 + b^2; M_0 = e^-(a^2+b^2),
    M_(k+1) = x M_k - (k/2) M_(k-1), psi_n = sqrt(2^n / (pi n!)) M_n."""
    shape = np.broadcast_shapes(np.shape(u), np.shape(v))
    a = np.multiply(u, math.exp(-eta) / SQRT2, out=np.empty(shape))
    b = np.multiply(v, math.exp(eta) / SQRT2, out=np.empty(shape))
    x = a + b if n else None
    with np.errstate(over="ignore"):  # a square past 1e308 is inf: its Gaussian is 0
        np.negative(np.square(a, out=a), out=a)
        a -= np.square(b, out=b)
    np.copyto(a, -np.inf, where=a < _LOG_FLUSH)
    m = np.exp(a, out=a)
    if n:
        m_prev, m = m, np.multiply(x, m, out=b)
        scratch = np.empty(shape)
        for k in range(1, n):
            np.multiply(x, m, out=scratch)
            m_prev *= 0.5 * k
            np.subtract(scratch, m_prev, out=m_prev)
            m_prev, m = m, m_prev
    return np.multiply(m, math.sqrt(2.0**n / (math.pi * math.factorial(n))), out=out)


def _check_points(z, t, eta: float) -> None:
    """parton's reach rule at the largest |z| and |t| of broadcastable inputs."""
    _check_reach(np.abs(z).max(initial=0.0), np.abs(t).max(initial=0.0), eta)


def boosted_wavefunction(state: OscillatorState, z, t) -> np.ndarray | float:
    """Wave function of excitation n seen at rapidity eta.

    Evaluates

        (1 / (pi n! 2^n))^(1/2)
          * H_n((e^-eta u + e^eta v) / sqrt 2)
          * exp(-(e^-2eta u^2 + e^2eta v^2) / 2)

    which is the rest-frame wave function composed with the inverse
    light-cone squeeze.  Accepts scalars or broadcastable arrays.
    """
    z, t = np.asarray(z, dtype=float), np.asarray(t, dtype=float)
    _check_points(z, t, state.eta)
    p = lightcone(z, t)
    out = _psi(state.n, state.eta, p.u, p.v)
    return out if out.ndim else float(out)


def rest_wavefunction(n: int, z, t) -> np.ndarray | float:
    """Rest-frame wave function; alias for boosted_wavefunction at eta = 0."""
    return boosted_wavefunction(OscillatorState(n, 0.0), z, t)


def _row_blocks(grid: GridSpec) -> list[slice]:
    """Slices of about BLOCK_POINTS grid points each along the z axis."""
    rows = max(1, BLOCK_POINTS // grid.n_t)
    return [slice(i, i + rows) for i in range(0, grid.n_z, rows)]


def _band_blocks(eta: float, grid: GridSpec, z: np.ndarray) -> list[tuple[slice, slice]]:
    """Row blocks over z, the grid's z axis or its first rows, each with the
    columns that can hold a non-zero sample.

    The narrow light-cone coordinate alone flushes the Gaussian once its
    square passes -_LOG_FLUSH, that is once |z - sign(eta) t| exceeds
    reach = 2 sqrt(-_LOG_FLUSH) e^-|eta|.  A block keeps the columns within
    reach of the diagonal t = sign(eta) z over its rows, plus two on each
    side against rounding; its row count keeps that rectangle near
    BLOCK_POINTS, and is BLOCK_POINTS // n_t when the band spans the row.
    """
    reach = 2.0 * math.sqrt(-_LOG_FLUSH) * math.exp(-abs(eta))
    # a row's band, and the band's move to the next row, span at most the row; the
    # move counts as at least 1/n_z column, so every term below is finite and positive
    width = min(2.0 * reach / grid.dt, grid.n_t) + 5.0  # columns of one row's band
    drift = min(max(grid.dz / grid.dt, 1.0 / grid.n_z), grid.n_t)  # columns moved per row
    # the largest rows with rows * (width + rows * drift) <= BLOCK_POINTS
    rows = (math.sqrt(width**2 + 4.0 * drift * BLOCK_POINTS) - width) / (2.0 * drift)
    rows = max(int(rows), BLOCK_POINTS // grid.n_t, 1)

    def column(x: float) -> int:  # the t column at or below x, kept near the window
        return math.floor(max(-1.0, min(grid.n_t, (x - grid.t_min) / grid.dt)))

    blocks = []
    for i in range(0, len(z), rows):
        stop = min(i + rows, len(z))
        first, last = float(z[i]), float(z[stop - 1])
        if eta < 0:  # the band follows t = -z
            first, last = -last, -first
        cols = slice(max(column(first - reach) - 2, 0), column(last + reach) + 3)
        blocks.append((slice(i, stop), cols))
    return blocks


def _sample_grid(n: int, eta: float, grid: GridSpec) -> np.ndarray:
    """psi_n on the grid, evaluated block by block on the band of _band_blocks;
    every sample outside it is one _psi would flush to 0.  On a window centred
    on 0 the rows past the first ceil(n_z/2) are their (-1)^n reflection."""
    _check_reach(max(-grid.z_min, grid.z_max), max(-grid.t_min, grid.t_max), eta)
    z, t = grid.z_axis, grid.t_axis
    centred = grid.z_min == -grid.z_max and grid.t_min == -grid.t_max
    if centred:
        z = z[:(grid.n_z + 1) // 2]
    blocks = _band_blocks(eta, grid, z)
    # zero-fill only when some block leaves columns of its rows unwritten
    full = all(cols.start == 0 and cols.stop >= grid.n_t for _, cols in blocks)
    values = (np.empty if full else np.zeros)((grid.n_z, grid.n_t))
    for rows, cols in blocks:
        p = lightcone(z[rows, None], t[cols])
        _psi(n, eta, p.u, p.v, out=values[rows, cols])
    if centred:  # exact on the antisymmetric nodes, but for the sign of a 0
        half = len(z)
        np.multiply(values[grid.n_z - half - 1::-1, ::-1], (-1.0) ** n, out=values[half:])
    return values


def sample_wavefunction(state: OscillatorState, grid: GridSpec) -> ScalarField:
    """Evaluate the boosted wave function on the grid as a ScalarField."""
    return ScalarField(grid, _sample_grid(state.n, state.eta, grid), state,
                       SPACE_TIME, tail_ok=grid.covers_tails(state.eta))


def _integrate(values: np.ndarray, grid: GridSpec) -> float:
    wz, wt = grid.trapezoid_weights()
    return float(wz @ values @ wt)


def power_integral(field_: ScalarField) -> float:
    """Trapezoidal integral of |values|^2 over the field's window."""
    with np.errstate(over="ignore"):  # a |value| past 1e154 squares to inf: so is the sum
        power = np.abs(field_.values) ** 2
    return _integrate(power, field_.grid)


def normalization(state: OscillatorState, grid: GridSpec | None = None
                  ) -> Quadrature:
    """Quadrature of the squared wave function; the contract is 1.

    The result carries a warning flag when the window misses the
    6 exp(|eta|) tail guard (it does not check resolution).
    """
    if grid is None:
        grid = GridSpec.for_rapidity(state.eta)
    return Quadrature(overlap(state, state, grid), grid.covers_tails(state.eta))


def overlap(state_a: OscillatorState, state_b: OscillatorState,
            grid: GridSpec) -> float:
    """Trapezoidal overlap of two (real) wave functions, each sampled once."""
    psi = _sample_grid(state_a.n, state_a.eta, grid)
    psi *= psi if state_b == state_a else _sample_grid(state_b.n, state_b.eta, grid)
    return _integrate(psi, grid)


def lightcone_widths(field_: ScalarField) -> tuple[float, float]:
    """Standard deviations along the light-cone diagonals under |values|^2.

    Applies equally to both representations: momentum-energy fields use
    the same diagonal map with (q_z, q_0) in place of (z, t).  u^2 and v^2
    are not expanded in z and t: the expanded moments cancel at large eta.
    """
    z, t = field_.grid.z_axis, field_.grid.t_axis
    wz, wt = field_.grid.trapezoid_weights()
    moments = np.zeros(3)  # mass, then those of u^2 and v^2
    with np.errstate(all="ignore"):  # a moment or variance that is not finite is refused
        for rows in _row_blocks(field_.grid):
            power = np.abs(field_.values[rows]) ** 2
            p = lightcone(z[rows, None], t)
            for k, x in enumerate((1.0, p.u, p.v)):
                moments[k] += wz[rows] @ (x * x * power) @ wt
        variances = moments[1:] / moments[0]
    if not (moments[0] > 0 and np.isfinite(moments).all() and np.isfinite(variances).all()):
        raise ValueError("lightcone_widths needs a field with positive weight "
                         "and finite second moments on its grid")
    return math.sqrt(variances[0]), math.sqrt(variances[1])


def eigenvalue_check(n: int, grid: GridSpec) -> float:
    """Finite-difference eigenvalue of the invariant oscillator form.

    Applies 0.5 * ((z^2 - t^2) - (d^2/dz^2 - d^2/dt^2)) to the sampled
    rest-frame wave function with second-order central stencils and
    returns the median of the pointwise ratio (operator result / psi)
    over interior points with |psi| > 1e-3.  Under the spacelike-positive
    signature the timelike ground factor contributes -1/2, so the
    expected value is exactly n.
    """
    if grid.dz > 0.05 or grid.dt > 0.05:
        raise ValueError("eigenvalue check needs grid spacing <= 0.05")
    psi = sample_wavefunction(OscillatorState(n, 0.0), grid).values
    zz, tt = grid.z_axis ** 2, grid.t_axis[1:-1] ** 2
    ratios = []
    for block in _row_blocks(grid):   # interior rows, a block of them at a time
        r, s = max(block.start, 1), min(block.stop, grid.n_z - 1)
        core = psi[r:s, 1:-1]
        d2z = (psi[r + 1:s + 1, 1:-1] - 2.0 * core + psi[r - 1:s - 1, 1:-1]) / grid.dz**2
        d2t = (psi[r:s, 2:] - 2.0 * core + psi[r:s, :-2]) / grid.dt**2
        operator = 0.5 * ((zz[r:s, None] - tt) * core - (d2z - d2t))
        mask = np.abs(core) > 1e-3
        ratios.append(operator[mask] / core[mask])
    ratios = np.concatenate(ratios)
    if ratios.size < 100:
        raise ValueError("too few points with |psi| > 1e-3 for a stable ratio")
    return float(np.median(ratios, overwrite_input=True))


def degeneracy(total: int) -> int:
    """Number of 3-D excitation triples summing to the given level."""
    if not isinstance(total, numbers.Integral) or total < 0:
        raise ValueError("level must be a nonnegative integer")
    return (total + 1) * (total + 2) // 2


# last: hand the package this layer's names before any importer can replace them
from . import _bind  # noqa: E402

_bind(__name__)
