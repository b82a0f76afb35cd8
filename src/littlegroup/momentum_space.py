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

which fourier_numeric evaluates by direct trapezoidal quadrature
(vectorized as two dense matrix products, not an FFT) for arbitrary
output grids; a real field takes its first product in real arithmetic.
The two phase kernels are exp(-i z q_z) dz and exp(i t q_0) dt; on a square
window (t axis = z axis, q_0 axis = q_z axis) the second is the complex
conjugate of the first and is not built again.
The closed form is the oscillator kernel's n = 0 wave function at (q_u, q_v).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lorentz_algebra import FourVector
from .oscillator import (
    MOMENTUM_ENERGY,
    SPACE_TIME,
    SQRT2,
    GridSpec,
    OscillatorState,
    ScalarField,
    _psi,
    _sample_grid,
    marginal_variance,
)


@dataclass(frozen=True)
class MomentumPoint:
    """Relative momentum q_z and energy q_0 of the pair."""

    q_z: float
    q_0: float

    @property
    def q_u(self) -> float:
        return (self.q_z + self.q_0) / SQRT2

    @property
    def q_v(self) -> float:
        return (self.q_z - self.q_0) / SQRT2


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
    return float(_psi(0, eta, q.q_u, q.q_v))


def sample_momentum_wavefunction(eta: float, grid: GridSpec) -> ScalarField:
    """Closed-form momentum wave function sampled on a (q_z, q_0) grid."""
    return ScalarField(grid, _sample_grid(0, eta, grid), OscillatorState(0, eta),
                       MOMENTUM_ENERGY)


def _square(grid: GridSpec) -> bool:
    """True when the t axis is the z axis, so both get the same samples."""
    return (grid.z_min, grid.z_max, grid.n_z) == (grid.t_min, grid.t_max, grid.n_t)


def fourier_numeric(field: ScalarField, momentum_grid: GridSpec) -> ScalarField:
    """Direct quadrature of the transform kernel exp(-i (q_z z - q_0 t)).

    Returns complex samples on the momentum grid with prefactor 1/(2 pi)
    and measure dz dt.  The tail-guard flag goes false when the input
    window is too narrow for the sampled state.
    """
    if field.representation != SPACE_TIME:
        raise ValueError("fourier_numeric needs a space-time field")
    z = field.grid.z_axis
    t = field.grid.t_axis
    wz, wt = field.grid.trapezoid_weights()
    qz = momentum_grid.z_axis
    q0 = momentum_grid.t_axis
    kernel_z = np.exp(-1j * np.outer(z, qz)) * wz[:, None]
    if _square(field.grid) and _square(momentum_grid):
        kernel_t = kernel_z.conj()  # t = z and q_0 = q_z
    else:
        kernel_t = np.exp(1j * np.outer(t, q0)) * wt[:, None]
    if np.iscomplexobj(field.values):
        half = field.values.T @ kernel_z
    else:  # one real product: kernel_z's real and imaginary parts are adjacent columns
        half = (field.values.T @ kernel_z.view(float)).view(complex)
    values = (half.T @ kernel_t) / (2.0 * math.pi)
    tail_ok = field.tail_ok
    if field.state is not None:
        tail_ok = tail_ok and field.grid.covers_tails(field.state.eta)
    return ScalarField(momentum_grid, values, field.state, MOMENTUM_ENERGY,
                       tail_ok=tail_ok)


def marginal_sigma(eta: float) -> float:
    """Marginal standard deviation along q_z (equal to the one along z)."""
    return math.sqrt(marginal_variance(eta))


def central_region_mask(grid: GridSpec, eta: float,
                        n_sigmas: float = 4.0) -> np.ndarray:
    """Boolean mask of grid nodes within n_sigmas marginal widths of 0."""
    bound = n_sigmas * marginal_sigma(eta)
    return (np.abs(grid.z_axis) <= bound)[:, None] & (np.abs(grid.t_axis) <= bound)
