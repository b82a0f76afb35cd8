"""Momentum-energy wave functions and the numerical Fourier duality.

The momentum-energy wave function of the boosted ground state is the
same squeezed Gaussian as the space-time one: wide along the positive
light-cone diagonal of the (q_z, q_0) plane and narrow across it.  The
momentum light-cone variables are therefore paired exactly like the
space-time ones,

    q_u = (q_z + q_0) / sqrt(2),    q_v = (q_z - q_0) / sqrt(2),

so that q_u is wide whenever u is wide.  With this pairing the closed
form below is, modulus for modulus, the continuous Fourier transform

    phi(q_z, q_0) = (1 / 2 pi) integral psi(z, t) exp(-i (q_z z - q_0 t)) dz dt

which fourier_numeric evaluates by direct trapezoidal quadrature (no FFT)
for arbitrary output grids.  On GridSpec's nodes, the centre plus the
exactly antisymmetric offsets (j - (N-1)/2) step, exp(-i z q) =
cos(z q) - i sin(z q) is even plus odd in z and in q, so the field is
folded in halves along z, then t, and four real quarter-size products
fill the output quadrants by parity: from 512^2 to 257^2 samples, 51 M
multiply-adds against 270 M for two dense complex products.  A field equal
to +-psi(-z, -t) exactly, as every state sampled on a centred window is,
folds only its upper columns onto a centred momentum grid, and two of the
four products are exact zeros: about 25 M multiply-adds.  A square window
builds one kernel pair for both axes.
For every n the transform of psi_n(eta) is (-i)^n psi_n(eta) at (q_u, q_v):
Hermite functions are eigenfunctions of the Fourier transform with eigenvalue
(-i)^n, and the kernel q_z z - q_0 t is boost invariant.  The closed form
below is the n = 0 case, which momentum_wavefunction evaluates with the
oscillator kernel itself, boosted_wavefunction at (q_z, q_0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oscillator import (
    MOMENTUM_ENERGY,
    SPACE_TIME,
    SQRT2,
    GridSpec,
    OscillatorState,
    ScalarField,
    _centred,
    _parity,
    _sample_grid,
    boosted_wavefunction,
    lightcone,
)
from .parton import FourVector, _check_rapidity, marginal_variance


@dataclass(frozen=True)
class MomentumPoint:
    """Relative momentum q_z and energy q_0 of the pair."""

    q_z: float
    q_0: float

    @property
    def q_u(self) -> float:
        return lightcone(self.q_z, self.q_0).u

    @property
    def q_v(self) -> float:
        return lightcone(self.q_z, self.q_0).v


@dataclass(frozen=True)
class QuarkPairMomenta:
    """Four-momenta of the two constituents."""

    p_a: FourVector
    p_b: FourVector


def pair_momenta(pair: QuarkPairMomenta) -> tuple[FourVector, FourVector]:
    """Total momentum p_a + p_b and separation sqrt(2) (p_a - p_b)."""
    return pair.p_a + pair.p_b, SQRT2 * (pair.p_a - pair.p_b)


def momentum_wavefunction(eta: float, q: MomentumPoint) -> float:
    """Ground-state momentum-energy wave function at rapidity eta.

    (1/pi)^(1/2) exp(-(e^-2eta q_u^2 + e^2eta q_v^2) / 2); isotropic at
    eta = 0, elongated along the q_u axis for eta > 0.
    """
    _check_rapidity(eta, "momentum_wavefunction")
    return boosted_wavefunction(OscillatorState(0, eta), q.q_z, q.q_0)


def sample_momentum_wavefunction(eta: float, grid: GridSpec) -> ScalarField:
    """Closed-form momentum wave function sampled on a (q_z, q_0) grid, tail-guarded."""
    state = OscillatorState(0, eta)
    return ScalarField(grid, _sample_grid(0, eta, grid), state, MOMENTUM_ENERGY,
                       tail_ok=grid.covers_tails(eta))


#: field points per column block of the z fold; the default 512^2 grid is one block
FOLD_POINTS = 2**17
#: half-width of central_region_mask, in marginal standard deviations
CENTRAL_SIGMAS = 4.0


def _parity_kernels(offsets, weights, freqs) -> tuple[np.ndarray, np.ndarray]:
    """w cos and w sin of offset * freq on the upper halves of both axes."""
    h = len(offsets) // 2
    w = weights[h:, None].copy()
    w[0] /= 1 + len(offsets) % 2  # an odd axis's middle row folds onto itself
    phase = np.outer(offsets[h:], freqs[len(freqs) // 2:])
    return w * np.cos(phase), w * np.sin(phase)


def _fold(g, cos_w, sin_w, parity: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """g's rows folded into even and odd halves about the middle, times cos and sin.
    With parity 1 (-1), g is the upper half of rows exactly even (odd) about the
    middle: x + x is exact, so that half is g + g, and the other is exactly 0."""
    if parity:
        twice, zero = g + g, np.float64(0.0)
        return (cos_w.T @ twice, zero) if parity > 0 else (zero, sin_w.T @ twice)
    h = len(g) // 2
    mirror = g[:len(g) - h][::-1]
    return cos_w.T @ (g[h:] + mirror), sin_w.T @ (g[h:] - mirror)


def fourier_numeric(field: ScalarField, momentum_grid: GridSpec) -> ScalarField:
    """Direct quadrature of the transform kernel exp(-i (q_z z - q_0 t)).

    Returns complex samples on the momentum grid with prefactor 1/(2 pi)
    and measure dz dt.  The tail-guard flag goes false when the input
    window is too narrow for the sampled state.  Refuses a field that is not
    finite, and a window on which the phases or the sums overflow.
    """
    if field.representation != SPACE_TIME:
        raise ValueError("fourier_numeric needs a space-time field")
    g, m = field.grid, momentum_grid
    cz, zeta = _centred(g.z_min, g.z_max, g.n_z)
    ct, tau = _centred(g.t_min, g.t_max, g.n_t)
    cqz, kappa = _centred(m.z_min, m.z_max, m.n_z)
    cq0, lam = _centred(m.t_min, m.t_max, m.n_t)
    wz, wt = g.trapezoid_weights()
    values = np.empty((m.n_z, m.n_t), complex)  # first, so the temporaries above it free LIFO
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        cos_z, sin_z = _parity_kernels(zeta, wz, kappa)
        square = np.array_equal(zeta, tau) and np.array_equal(kappa, lam)  # equal offsets
        cos_t, sin_t = (cos_z, sin_z) if square else _parity_kernels(tau, wt, lam)
        # the momentum centre goes onto the field, one phase per row and per column
        rows, cols = np.exp(-1j * cqz * zeta)[:, None], np.exp(1j * cq0 * tau)
        # psi(-z, -t) = p psi(z, t) exactly makes hc p-even and hs -p-even in t: only their
        # upper halves are folded, and two of the four products below are exact zeros
        p = 0 if cqz or cq0 else _parity(field.values)
        width, folds = max(1, FOLD_POINTS // len(cos_z)), []
        for k in range(g.n_t // 2 if p else 0, g.n_t, width):
            block = field.values[:, k:k + width]
            if cqz or cq0:
                block = block * rows * cols[k:k + width]
            folds.append(_fold(block, cos_z, sin_z))
        hc, hs = (np.hstack(h) for h in zip(*folds))
        del folds, block
        # four quarter-size products fill the four output quadrants by parity
        cc, cs = (x.T for x in _fold(hc.T, cos_t, sin_t, p))
        sc, ss = (x.T for x in _fold(hs.T, cos_t, sin_t, -p))
        del hc, hs, cos_z, sin_z, cos_t, sin_t  # freed before the quadrants are assembled
        even, odd, i_diff, i_sum = cc + ss, cc - ss, 1j * (cs - sc), 1j * (cs + sc)
        up_z, lo_z = slice(m.n_z // 2, None), slice((m.n_z - 1) // 2, None, -1)
        up_t, lo_t = slice(m.n_t // 2, None), slice((m.n_t - 1) // 2, None, -1)
        values[up_z, up_t], values[up_z, lo_t] = even + i_diff, odd - i_sum
        values[lo_z, up_t], values[lo_z, lo_t] = odd + i_sum, even - i_diff
        values /= 2.0 * math.pi
        if cz or ct:  # the space centre goes onto the output
            values *= np.outer(np.exp(-1j * cz * (cqz + kappa)),
                               np.exp(1j * ct * (cq0 + lam)))
    if not np.isfinite(values).all():  # only then is the field itself read
        if not np.isfinite(field.values).all():
            raise ValueError("fourier_numeric needs a finite field")
        raise ValueError("fourier_numeric: the phases or sums overflow on this window")
    tail_ok = field.tail_ok and (field.state is None or g.covers_tails(field.state.eta))
    return ScalarField(m, values, field.state, MOMENTUM_ENERGY, tail_ok=tail_ok)


def central_region_mask(grid: GridSpec, eta: float) -> np.ndarray:
    """Boolean mask of grid nodes within CENTRAL_SIGMAS marginal standard
    deviations of 0; the one along q_z equals the one along z."""
    bound = CENTRAL_SIGMAS * math.sqrt(marginal_variance(eta))
    return (np.abs(grid.z_axis) <= bound)[:, None] & (np.abs(grid.t_axis) <= bound)


# last: hand the package this layer's names before any importer can replace them
from . import _bind  # noqa: E402

_bind(__name__)
