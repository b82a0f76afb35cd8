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

One kernel, _psi, evaluates every wave function at the grid's (z, t): it
rotates them to (u, v), forms x = (e^-eta u + e^eta v)/sqrt2, y = (e^-eta
u - e^eta v)/sqrt2 and runs hermite's recurrence with the Gaussian folded
in (Bunck, BIT 49 (2009) 281), so nothing overflows.  Grids are filled in row
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
reflection, negated for odd n.  overlap reduces the same blocks as it
goes, on the narrower state's band, and makes no grid-sized array; on a
centred window it sums the first ceil(n_z/2) rows twice (the centre row
once), and a pair whose n add up to an odd number is exactly 0.
normalization is a state's self-overlap.  lightcone_widths sums the same
half grid (_weights) when the values have exact parity, and each row block
only over its live columns; eigenvalue_check forms its stencil ratios on
the half whose mirrors hold the same ratios bit for bit, and takes the
median from it.
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
from .parton import (FourVector, _check_excitation, _check_label, _check_rapidity, _check_reach,
                     _check_window)

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
        _check_label(self.representation, (SPACE_TIME, MOMENTUM_ENERGY), "representation")


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
    """Physicists' Hermite H_n by _recurrence at c = 2; 2^n M_n would round otherwise at tiny x.

    n is capped at 30 to guard against coefficient overflow.  Refuses a
    non-finite x at every n, and an |x| whose H_n overflows.
    """
    _check_excitation(n, "hermite order")
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError("hermite needs a finite x")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        h = _recurrence(n, 2.0 * arr, 2.0, np.ones_like(arr), np.empty_like(arr))
    if not np.isfinite(h).all():
        raise ValueError(f"hermite H_{n}(x) is not finite at some x")
    return h if arr.ndim else float(h)


def _rotate(a, b):
    """((a + b)/sqrt2, (a - b)/sqrt2): (z, t) to (u, v), and back: the map is its own inverse."""
    return (a + b) / SQRT2, (a - b) / SQRT2


def lightcone(z, t) -> LightConePoint:
    """Map (z, t) to light-cone u = (z+t)/sqrt2, v = (z-t)/sqrt2; refuses a non-finite u or v."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        p = LightConePoint(*_rotate(z, t))
    if not (np.isfinite(p.u).all() and np.isfinite(p.v).all()):
        raise ValueError("the light-cone rotation of this point is not finite")
    return p


def lightcone_inverse(p: LightConePoint) -> tuple[float, float]:
    """Map light-cone (u, v) back to (z, t); refuses a point whose z or t is not finite."""
    back = lightcone(p.u, p.v)  # the same rotation
    return back.u, back.v


def boost_lightcone(eta: float, p: LightConePoint) -> LightConePoint:
    """Squeeze u -> e^eta u, v -> e^-eta v; the product uv is invariant."""
    _check_rapidity(eta, "boost_lightcone")
    _check_points(p.u, p.v, eta)
    return LightConePoint(math.exp(eta) * p.u, math.exp(-eta) * p.v)


def _recurrence(n: int, x, c: float, m0: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """P_(k+1) = x P_k - c k P_(k-1) from P_0 = m0: M_k at c = 1/2, H_k at c = 2, x doubled.
    Overwrites m0 and buf, arrays of the broadcast shape, and returns one of them."""
    if not n:
        return m0
    p_prev, p, scratch = m0, np.multiply(x, m0, out=buf), np.empty_like(m0)
    for k in range(1, n):
        p_prev *= c * k
        p_prev, p = p, np.subtract(np.multiply(x, p, out=scratch), p_prev, out=p_prev)
    return p


def _psi(n: int, eta: float, z, t, out: np.ndarray | None = None) -> np.ndarray:
    """psi_n(eta) at broadcast (z, t).  With (u, v) = _rotate(z, t), a = e^-eta u/sqrt2
    and b = e^eta v/sqrt2, x = a + b and (x^2 + y^2)/2 = a^2 + b^2; M_0 = e^-(a^2+b^2),
    M_n from _recurrence, psi_n = sqrt(2^n / (pi n!)) M_n."""
    u, v = _rotate(z, t)  # kept to the return: freed early, later transforms ran slower
    a = np.multiply(u, math.exp(-eta) / SQRT2, out=np.empty(np.shape(u)))
    b = np.multiply(v, math.exp(eta) / SQRT2, out=np.empty(np.shape(v)))
    x = a + b if n else None
    with np.errstate(over="ignore"):  # a square past 1e308 is inf: its Gaussian is 0
        np.negative(np.square(a, out=a), out=a)
        a -= np.square(b, out=b)
    np.copyto(a, -np.inf, where=a < _LOG_FLUSH)
    m = _recurrence(n, x, 0.5, np.exp(a, out=a), b)
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
    out = _psi(state.n, state.eta, z, t)
    return out if out.ndim else float(out)


def rest_wavefunction(n: int, z, t) -> np.ndarray | float:
    """Rest-frame wave function; alias for boosted_wavefunction at eta = 0."""
    return boosted_wavefunction(OscillatorState(n, 0.0), z, t)


def _row_blocks(grid: GridSpec, stop: int) -> list[slice]:
    """Slices of about BLOCK_POINTS grid points each along the z axis, up to row stop."""
    rows = max(1, BLOCK_POINTS // grid.n_t)
    return [slice(i, min(i + rows, stop)) for i in range(0, stop, rows)]


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


def _is_centred(grid: GridSpec) -> bool:
    """Whether the window is centred on 0: its axes are then exactly antisymmetric."""
    return grid.z_min == -grid.z_max and grid.t_min == -grid.t_max


def _rows_to_evaluate(grid: GridSpec, *etas: float) -> tuple[np.ndarray, bool]:
    """The z rows to evaluate, the first ceil(n_z/2) on a window centred on 0, and
    whether it is; first refuses the window if any eta's reach overflows on it."""
    for eta in etas:
        _check_reach(max(-grid.z_min, grid.z_max), max(-grid.t_min, grid.t_max), eta)
    centred = _is_centred(grid)
    return grid.z_axis[:(grid.n_z + 1) // 2 if centred else grid.n_z], centred


def _weights(grid: GridSpec, half: bool) -> tuple[np.ndarray, np.ndarray]:
    """The trapezoid weights; with half, wz covers the first ceil(n_z/2) rows only,
    each doubled to stand for its reflection too, but an odd n_z's centre row, its own."""
    wz, wt = grid.trapezoid_weights()
    if half:
        wz = 2.0 * wz[:(grid.n_z + 1) // 2]
        if grid.n_z % 2:
            wz[-1] *= 0.5
    return wz, wt


def _parity(values: np.ndarray) -> int:
    """1 (-1) if values equals (minus) values[::-1, ::-1] exactly, else 0; the first
    half of the rows is compared with its mirror a row block at a time."""
    half, step = (len(values) + 1) // 2, max(1, BLOCK_POINTS // values.shape[1])
    top, flip, signs = values[:half], values[::-1, ::-1][:half], [1, -1]
    for i in range(0, half, step):
        signs = [s for s in signs if np.array_equal(top[i:i + step], s * flip[i:i + step])]
    return signs[0] if signs else 0


def _sample_grid(n: int, eta: float, grid: GridSpec) -> np.ndarray:
    """psi_n on the grid, evaluated block by block on the band of _band_blocks;
    every sample outside it is one _psi would flush to 0.  On a window centred
    on 0 the rows past the first ceil(n_z/2) are their (-1)^n reflection."""
    (z, centred), t = _rows_to_evaluate(grid, eta), grid.t_axis
    blocks = _band_blocks(eta, grid, z)
    # zero-fill only when some block leaves columns of its rows unwritten
    full = all(cols.start == 0 and cols.stop >= grid.n_t for _, cols in blocks)
    values = (np.empty if full else np.zeros)((grid.n_z, grid.n_t))
    for rows, cols in blocks:
        _psi(n, eta, z[rows, None], t[cols], out=values[rows, cols])
    if centred:  # exact on the antisymmetric nodes, but for the sign of a 0
        half = len(z)
        np.multiply(values[grid.n_z - half - 1::-1, ::-1], (-1.0) ** n, out=values[half:])
    return values


def sample_wavefunction(state: OscillatorState, grid: GridSpec) -> ScalarField:
    """Evaluate the boosted wave function on the grid as a ScalarField."""
    return ScalarField(grid, _sample_grid(state.n, state.eta, grid), state,
                       SPACE_TIME, tail_ok=grid.covers_tails(state.eta))


def power_integral(field_: ScalarField) -> float:
    """Trapezoidal integral of |values|^2 over the field's window."""
    with np.errstate(over="ignore"):  # a |value| past 1e154 squares to inf: so is the sum
        power = np.abs(field_.values)
        np.square(power, out=power)
    wz, wt = field_.grid.trapezoid_weights()
    return float(wz @ power @ wt)


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
    """Trapezoidal overlap of two (real) wave functions, reduced block by block.

    Each block of _band_blocks, on the band of the state with the larger
    |eta| (the narrower one: outside it the product is 0), evaluates both
    states and adds wz @ product @ wt to a float; no grid-sized array is
    made.  On a window centred on 0 the product has parity (-1)^(n_a + n_b)
    bit for bit: an odd total is exactly 0.0, the trapezoid sum of the
    reflected samples, and an even one is twice the sum over the first
    ceil(n_z/2) rows, less the centre row when n_z is odd.
    """
    (z, centred), t = _rows_to_evaluate(grid, state_a.eta, state_b.eta), grid.t_axis
    if centred and (state_a.n + state_b.n) % 2:
        return 0.0
    wz, wt = _weights(grid, centred)
    total = 0.0
    for rows, cols in _band_blocks(max(state_a.eta, state_b.eta, key=abs), grid, z):
        psi = _psi(state_a.n, state_a.eta, z[rows, None], t[cols])
        psi *= psi if state_b == state_a else _psi(state_b.n, state_b.eta, z[rows, None], t[cols])
        total += wz[rows] @ psi @ wt[cols]
    return float(total)


def lightcone_widths(field_: ScalarField) -> tuple[float, float]:
    """Standard deviations along the light-cone diagonals under |values|^2.

    Applies equally to both representations: momentum-energy fields use
    the same diagonal map with (q_z, q_0) in place of (z, t).  u^2 and v^2
    are not expanded in z and t: the expanded moments cancel at large eta.
    Each row block is reduced only from its first to its last column with a
    non-zero sample.  When the window is centred on 0 and the values equal
    +-values[::-1, ::-1] exactly (_parity, read from the values), u^2, v^2 and
    |values|^2 are all even, so only the first ceil(n_z/2) rows are summed,
    with _weights' doubled weights.
    """
    grid, values = field_.grid, field_.values
    wz, wt = _weights(grid, _is_centred(grid) and _parity(values) != 0)
    z, t = grid.z_axis[:len(wz)], grid.t_axis
    moments = np.zeros(3)  # mass, then those of u^2 and v^2
    with np.errstate(all="ignore"):  # a moment or variance that is not finite is refused
        for rows in _row_blocks(grid, len(z)):
            live = np.flatnonzero(values[rows].any(0))
            if not live.size:  # every skipped cell adds an exact 0
                continue
            cols = slice(live[0], live[-1] + 1)
            power = np.abs(values[rows, cols])
            moments[0] += wz[rows] @ np.square(power, out=power) @ wt[cols]
            for k, sign in enumerate((1.0, -1.0), 1):  # u, then v: one block array at a time
                x = np.add(z[rows, None], sign * t[cols])
                x /= SQRT2
                x *= x
                moments[k] += wz[rows] @ np.multiply(x, power, out=x) @ wt[cols]
        variances = moments[1:] / moments[0]
    if not (moments[0] > 0 and np.isfinite(moments).all() and np.isfinite(variances).all()):
        raise ValueError("lightcone_widths needs a field with positive weight "
                         "and finite second moments on its grid")
    return math.sqrt(variances[0]), math.sqrt(variances[1])


def eigenvalue_check(n: int, grid: GridSpec) -> float:
    """Finite-difference eigenvalue of the invariant oscillator form.

    Applies 0.5 * ((z^2 - t^2) - (d^2/dz^2 - d^2/dt^2)) to the sampled
    rest-frame wave function with second-order central stencils, each
    written ((psi[+1] + psi[-1]) - 2 psi), and returns the median of the
    pointwise ratio (operator result / psi) over interior points with
    |psi| > 1e-3.  The stencils run only on the box of interior rows and
    columns that hold such a point.  Under the spacelike-positive signature
    the timelike ground factor contributes -1/2, so the expected value is
    exactly n.

    On a window centred on 0 the sample is exactly point-symmetric and every
    ratio equals its mirror's bit for bit: the sign cancels, and the stencils'
    sums and z^2, t^2 do not depend on the order of the pair.  So only the
    first ceil(n_z/2) rows are scanned, and ratios are formed only on the
    rows above the centre and the left half of the centre row (the set H).
    The median of H doubled is median(H); with the centre point x0, which
    has no mirror, it is x0 clipped to H's two middle values.
    """
    if grid.dz > 0.05 or grid.dt > 0.05:
        raise ValueError("eigenvalue check needs grid spacing <= 0.05")
    psi = sample_wavefunction(OscillatorState(n, 0.0), grid).values
    centred, (mid_z, mid_t) = _is_centred(grid), (grid.n_z // 2, grid.n_t // 2)
    rows, cols, points = np.zeros(grid.n_z, bool), np.zeros(grid.n_t, bool), 0
    # interior rows, a block of them at a time: on a centred window, the first half
    for block in _row_blocks(grid, mid_z + grid.n_z % 2 if centred else grid.n_z - 1):
        r = max(block.start, 1)
        big = np.abs(psi[r:block.stop, 1:-1]) > 1e-3
        rows[r:block.stop], cols[1:-1] = big.any(1), cols[1:-1] | big.any(0)
        points += np.count_nonzero(big)
    if centred:  # each scanned row stands for its mirror too, an odd n_z's centre row for itself
        points = 2 * points - (np.count_nonzero(np.abs(psi[mid_z, 1:-1]) > 1e-3)
                               if grid.n_z % 2 else 0)
    if points < 100:
        raise ValueError("too few points with |psi| > 1e-3 for a stable ratio")
    # the box of the scanned rows: on a centred window the ratios need no other
    (r0, r1), (c0, c1) = (np.flatnonzero(x)[[0, -1]] + [0, 1] for x in (rows, cols))
    zz, tt = grid.z_axis ** 2, grid.t_axis ** 2

    def ratios(r0: int, r1: int, c0: int, c1: int) -> list[np.ndarray]:
        """The masked ratios on rows r0:r1 and columns c0:c1, a block of rows at a time."""
        out, step, box = [], max(1, BLOCK_POINTS // (c1 - c0 + 1)), slice(c0, c1)
        for r in range(r0, r1, step):
            s = min(r + step, r1)
            core = psi[r:s, box]
            d2z = ((psi[r + 1:s + 1, box] + psi[r - 1:s - 1, box]) - 2.0 * core) / grid.dz**2
            d2t = ((psi[r:s, c0 + 1:c1 + 1] + psi[r:s, c0 - 1:c1 - 1]) - 2.0 * core) / grid.dt**2
            operator = 0.5 * ((zz[r:s, None] - tt[box]) * core - (d2z - d2t))
            mask = np.abs(core) > 1e-3
            out.append(operator[mask] / core[mask])
        return out

    if not centred:
        return _mirrored_median(np.concatenate(ratios(r0, r1, c0, c1)), ())
    odd = grid.n_z % 2  # then the centre row's left half is in H
    h = np.concatenate(ratios(r0, mid_z, c0, c1) + ratios(mid_z, mid_z + odd, c0, mid_t))
    return _mirrored_median(h, ratios(mid_z, mid_z + 1, mid_t, mid_t + 1)[0]
                            if odd and grid.n_t % 2 else ())


def _mirrored_median(h: np.ndarray, x0) -> float:
    """np.median of h twice over plus x0 (no value or one), without the doubled array:
    median(h) with no x0, else x0 clipped to h's two middle values.  Reorders h."""
    if not len(x0):
        return float(np.median(h, overwrite_input=True))
    lo, hi = (len(h) - 1) // 2, len(h) // 2
    h.partition([lo, hi])
    return float(np.clip(x0[0], h[lo], h[hi]))


def degeneracy(total: int) -> int:
    """Number of 3-D excitation triples summing to the given level."""
    if not isinstance(total, numbers.Integral) or isinstance(total, bool) or total < 0:
        raise ValueError("level must be a nonnegative integer")
    return (total + 1) * (total + 2) // 2


# last: hand the package this layer's names before any importer can replace them
from . import _bind  # noqa: E402

_bind(__name__)
