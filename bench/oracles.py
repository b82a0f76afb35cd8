"""Closed forms and tolerances the benchmark checks the library against.

Nothing here imports littlegroup: every expected value is derived from
the physics (exact group elements, exact contraction rate, unit norms,
Hermite functions as Fourier eigenfunctions, beam kinematics), so a
change to the library cannot move its own yardstick.

The tolerances carry the values of the CLI's check constants at the
commit that introduced the benchmark; they are copied, not imported, so
that loosening a library constant does not loosen the benchmark.
"""

from __future__ import annotations

import math

import numpy as np

COMMUTATOR_TOL = 1e-12   # bracket relations, absolute, per entry
INVARIANCE_TOL = 1e-9    # leaves_invariant tolerance argument
INTERVAL_TOL = 1e-10     # group elements and CLI numbers, relative
FOURIER_TOL = 1e-6       # transform modulus vs closed form, absolute
PARSEVAL_TOL = 1e-5      # unit norms, Gram entries, Parseval gap
#: residual * exp(2 eta) must be 1 to this, the Fourier tolerance: the
#: committed contract golden (1.0000000069 at eta = 10) is float noise
#: inside it, while the cancellation at eta >= 13 is not.
CONTRACTION_TOL = FOURIER_TOL
#: second-moment widths, relative; acceptance criterion 8 uses 1e-6
WIDTH_TOL = 1e-6
#: finite-difference eigenvalue at h = 0.02, acceptance criterion 6
EIGEN_TOL = 5e-3

#: a transform is compared with the closed form within this many
#: marginal sigmas of the origin, the region fourier-check uses
CENTRAL_SIGMAS = 4.0
PROTON_MASS_GEV = 0.938
SQRT2 = math.sqrt(2.0)

#: coordinate order (x, y, z, t)
X, Y, Z, T = range(4)


def hermite_function(n: int, x: np.ndarray) -> np.ndarray:
    """Normalized Hermite function h_n by its three-term recurrence.

    h_n(x) = (2^n n! sqrt(pi))^(-1/2) H_n(x) exp(-x^2/2); the recurrence
    carries the Gaussian, so it neither overflows nor underflows early.
    """
    x = np.asarray(x, dtype=float)
    prev = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n == 0:
        return prev
    cur = SQRT2 * x * prev
    for k in range(1, n):
        prev, cur = cur, math.sqrt(2.0 / (k + 1)) * x * cur - math.sqrt(k / (k + 1)) * prev
    return cur


def wavefunction(n: int, eta: float, z, t) -> np.ndarray:
    """psi_n at rapidity eta: h_n(z') h_0(t') of the rest-frame point.

    The rest-frame light-cone coordinates are u' = e^-eta u and
    v' = e^eta v.  The same function of (q_z, q_0) is the modulus of the
    momentum-energy wave function, since the Hermite functions are
    Fourier eigenfunctions and the kernel q_z z - q_0 t is boost invariant.
    """
    z = np.asarray(z, dtype=float)
    t = np.asarray(t, dtype=float)
    u = math.exp(-eta) * (z + t) / SQRT2
    v = math.exp(eta) * (z - t) / SQRT2
    return hermite_function(n, (u + v) / SQRT2) * hermite_function(0, (u - v) / SQRT2)


def lightcone_sigmas(n: int, eta: float) -> tuple[float, float]:
    """Exact (sigma_u, sigma_v): <u'^2> = <v'^2> = (n + 1)/2 at rest."""
    rest = math.sqrt((n + 1) / 2.0)
    return rest * math.exp(eta), rest * math.exp(-eta)


def marginal_sigma(eta: float) -> float:
    """Standard deviation of z (and of q_z) for the boosted ground state."""
    return math.sqrt(math.cosh(2.0 * eta) / 2.0)


def _rotation(i: int, j: int, theta: float) -> np.ndarray:
    """exp(-i theta J) for the generator turning axis i toward axis j."""
    g = np.eye(4)
    c, s = math.cos(theta), math.sin(theta)
    g[i, i] = g[j, j] = c
    g[j, i] = s
    g[i, j] = -s
    return g


def _boost(i: int, eta: float) -> np.ndarray:
    g = np.eye(4)
    g[i, i] = g[T, T] = math.cosh(eta)
    g[i, T] = g[T, i] = math.sinh(eta)
    return g


def _nilpotent(entries: dict[tuple[int, int], float], theta: float) -> np.ndarray:
    """I - i theta N - theta^2 N^2 / 2, with -iN given entry by entry."""
    a = np.zeros((4, 4))
    for (i, j), value in entries.items():
        a[i, j] = value
    a *= theta
    return np.eye(4) + a + 0.5 * (a @ a)


#: -i N1 = -i (K1 - J2) and -i N2 = -i (K2 + J1), entry by entry
_MINUS_I_N = {
    "N1": {(X, T): 1.0, (T, X): 1.0, (X, Z): -1.0, (Z, X): 1.0},
    "N2": {(Y, T): 1.0, (T, Y): 1.0, (Y, Z): -1.0, (Z, Y): 1.0},
}


def group_element(label: str, theta: float) -> np.ndarray:
    """Exact exp(-i theta G): cos/sin, cosh/sinh, or the quadratic form."""
    if label == "J1":
        return _rotation(Y, Z, theta)
    if label == "J2":
        return _rotation(Z, X, theta)
    if label == "J3":
        return _rotation(X, Y, theta)
    if label in ("K1", "K2", "K3"):
        return _boost(int(label[1]) - 1, theta)
    return _nilpotent(_MINUS_I_N[label], theta)


GENERATOR_LABELS = ("J1", "J2", "J3", "K1", "K2", "K3", "N1", "N2")


def beam_record(energy: float, mass: float = PROTON_MASS_GEV) -> dict[str, float]:
    """Coherence-subcommand columns from gamma = E/m alone.

    e^eta = gamma + sqrt(gamma^2 - 1); e^-eta is its reciprocal, so the
    coherence ratio is e^-2eta without cancellation at high energy.
    """
    gamma = energy / mass
    root = math.sqrt((gamma - 1.0) * (gamma + 1.0))
    dilation = gamma + root
    return {
        "eta": math.log(dilation),
        "period_dilation": dilation,
        "interaction_time_contraction": 1.0 / dilation,
        "coherence_ratio": 1.0 / dilation**2,
        "marginal_variance": gamma * gamma - 0.5,
    }


def rel_err(got: float, want: float) -> float:
    """|got - want| / |want| (absolute at 0); inf when got is not finite."""
    if not math.isfinite(got):
        return math.inf
    return abs(got - want) / abs(want) if want else abs(got)


#: the reporting rapidities 0, 1, 2, 4, 8 and the edges between them
ETA_BANDS = ("eta0", "eta1", "eta2", "eta4", "eta8")
_BAND_EDGES = (0.5, 1.5, 3.0, 6.0)


def eta_band(eta: float) -> str:
    """Nearest of the reporting rapidities."""
    for edge, label in zip(_BAND_EDGES, ETA_BANDS):
        if abs(eta) < edge:
            return label
    return ETA_BANDS[-1]
