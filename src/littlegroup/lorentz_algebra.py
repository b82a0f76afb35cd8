"""Matrix realization of the Lorentz algebra and its little groups.

Four-vectors are column vectors ordered (x, y, z, t) in natural units
(c = 1), with the spacelike-positive interval x^2 + y^2 + z^2 - t^2.
The library provides the six Lorentz generators, the two translation-like
combinations that generate the massless little group, a 3x3 realization
of the Euclidean group of the plane, and the boosted-generator family
whose large-rapidity limit contracts the massive little group into the
massless one.

Generator conventions, entry by entry (all other entries zero):

    J1 = -i in (y,z),  +i in (z,y)      rotation about x
    J2 = +i in (x,z),  -i in (z,x)      rotation about y
    J3 = -i in (x,y),  +i in (y,x)      rotation about z
    K1 = +i in (x,t),  +i in (t,x)      boost along x
    K2 = +i in (y,t),  +i in (t,y)      boost along y
    K3 = +i in (z,t),  +i in (t,z)      boost along z
    N1 = K1 - J2
    N2 = K2 + J1

Rotations act right-handedly: exp(-i theta J3) maps (1, 0, 0, 0) to
(cos theta, sin theta, 0, 0).  exp(-i eta K3) restricted to the (z, t)
block is [[cosh eta, sinh eta], [sinh eta, cosh eta]].  With these
conventions K = -iG is real, and every group element is the closed form

    exp(-i theta G) = I + a(theta) K + b(theta) K^2

with (a, b) = (sin, 1 - cos) for J1..J3 (K^3 = -K), (sinh, cosh - 1) for
K1..K3 (K^3 = K), and (theta, theta^2 / 2) for N1, N2 (K^3 = 0).

The planar generators act on homogeneous coordinates (x, y, 1):

    L  = -i in (x,y), +i in (y,x)       rotation about the origin
    Px = +i in (x,w)                    translation along x
    Py = +i in (y,w)                    translation along y

{J3, N1, N2} and {L, Px, Py} share their structure constants, which is
the sense in which the massless little group is E(2)-like.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .parton import (CONTRACTION_LIMIT_COEFFICIENT, FourVector, _check_contraction,
                     _contraction_residual)

GENERATOR_LABELS = ("J1", "J2", "J3", "K1", "K2", "K3", "N1", "N2")
PLANAR_LABELS = ("L", "Px", "Py")


def _levi_civita(i: int, j: int, k: int) -> float:
    return (i - j) * (j - k) * (k - i) / 2.0


def _readonly(m: np.ndarray) -> np.ndarray:
    m = np.ascontiguousarray(m)
    m.flags.writeable = False
    return m


def _build_generators() -> dict[str, np.ndarray]:
    gens: dict[str, np.ndarray] = {}
    for a in (1, 2, 3):
        rot = np.zeros((4, 4), dtype=complex)
        for i in range(3):
            for j in range(3):
                rot[i, j] = -1j * _levi_civita(a, i + 1, j + 1)
        gens[f"J{a}"] = rot
        boost = np.zeros((4, 4), dtype=complex)
        boost[a - 1, 3] = 1j
        boost[3, a - 1] = 1j
        gens[f"K{a}"] = boost
    gens["N1"] = gens["K1"] - gens["J2"]
    gens["N2"] = gens["K2"] + gens["J1"]
    return {label: _readonly(gens[label]) for label in GENERATOR_LABELS}


def _build_planar() -> dict[str, np.ndarray]:
    ell = np.zeros((3, 3), dtype=complex)
    ell[0, 1] = -1j
    ell[1, 0] = 1j
    px = np.zeros((3, 3), dtype=complex)
    px[0, 2] = 1j
    py = np.zeros((3, 3), dtype=complex)
    py[1, 2] = 1j
    return {"L": _readonly(ell), "Px": _readonly(px), "Py": _readonly(py)}


GENERATOR_MATRICES: Mapping[str, np.ndarray] = _build_generators()
PLANAR_MATRICES: Mapping[str, np.ndarray] = _build_planar()

#: (a, b) of exp(-i theta G) = I + a K + b K^2 by generator class.  For
#: J and K, K^2 is diagonal, so b only adds to an identity entry: the
#: diagonal comes out as cos or cosh itself
_COEFFICIENTS = {
    "J": lambda t: (math.sin(t), 1.0 - math.cos(t)),
    "K": lambda t: (math.sinh(t), math.cosh(t) - 1.0),
    "N": lambda t: (t, 0.5 * t * t),
}


def _closed_form(label: str) -> tuple:
    k = (-1j * GENERATOR_MATRICES[label]).real   # -iG has no imaginary part
    k2 = (k[:, :, None] * k).sum(axis=1)   # K @ K; a matmul would load BLAS at import
    return _COEFFICIENTS[label[0]], _readonly(k), _readonly(k2)


#: label -> (coefficients, K, K^2)
_CLOSED_FORMS = {label: _closed_form(label) for label in GENERATOR_MATRICES}
_IDENTITY = _readonly(np.eye(4))


def _contraction_family(start: np.ndarray, target: str) -> tuple:
    limit = CONTRACTION_LIMIT_COEFFICIENT * GENERATOR_MATRICES[target]
    return _readonly(limit), _readonly(start - limit)   # the family is start at eta = 0


#: source -> (limit, direction): (-N1/2, (J2 + K1)/2) from J2, (-N2/2, (K2 - J1)/2) from J1
_CONTRACTION_FAMILIES = {"J2": _contraction_family(GENERATOR_MATRICES["J2"], "N1"),
                         "J1": _contraction_family(-GENERATOR_MATRICES["J1"], "N2")}


@dataclass(frozen=True)
class Generator:
    """One of the eight canonical 4x4 generators, keyed by label."""

    label: str
    matrix: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class PlanarGenerator:
    """Rotation or translation generator on the plane, 3x3 homogeneous."""

    label: str
    matrix: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class GroupElement:
    """Real Lorentz matrix exp(-i theta G) with its provenance."""

    matrix: np.ndarray = field(repr=False)
    generator_label: str = ""
    parameter: float = 0.0

    def transform(self, p: FourVector) -> FourVector:
        return FourVector.from_array(self.matrix @ p.as_array())


def _lookup(table: Mapping, key, what: str):
    if key not in table:
        raise ValueError(f"unknown {what} {key!r}; expected one of {tuple(table)}")
    return table[key]


def generator(label: str) -> Generator:
    """Canonical generator for one of J1..J3, K1..K3, N1, N2."""
    return Generator(label, _lookup(GENERATOR_MATRICES, label, "generator label"))


def planar_generator(label: str) -> PlanarGenerator:
    """Canonical plane-group generator L, Px, or Py."""
    return PlanarGenerator(label, _lookup(PLANAR_MATRICES, label, "planar label"))


def _as_matrix(g) -> np.ndarray:
    return g.matrix if hasattr(g, "matrix") else np.asarray(g)


def commutator(a, b) -> np.ndarray:
    """ab - ba for two equally sized square matrices (or generators)."""
    ma, mb = _as_matrix(a), _as_matrix(b)
    if ma.shape != mb.shape or ma.ndim != 2 or ma.shape[0] != ma.shape[1]:
        raise ValueError("commutator needs two square matrices of equal shape")
    return ma @ mb - mb @ ma


def matrix_exponential(a: np.ndarray) -> np.ndarray:
    """exp(a) of a general square matrix by scaling and squaring; ValueError if not finite.

    The argument is scaled below norm 1/2, summed as a truncated power
    series to convergence at double precision, and squared back up.  No
    library code calls it; the tests use it on the planar E(2) generators.
    """
    a = np.asarray(a, dtype=complex)
    with np.errstate(all="ignore"):  # refused below
        norm = float(np.abs(a).sum(axis=0).max())
        squarings = max(0, int(math.ceil(math.log2(norm))) + 1) if 0.5 < norm < math.inf else 0
        scaled = a / (2.0**squarings)
        result = term = np.eye(a.shape[0], dtype=complex)
        for k in range(1, 30):
            term = term @ scaled / k
            result = result + term
            if float(np.abs(term).max()) < 1e-18:
                break
        for _ in range(squarings):
            result = result @ result
    if not np.isfinite(result).all():  # a NaN or inf entry makes it so, too
        raise ValueError("matrix_exponential needs a finite matrix whose exponential is finite")
    return result


def group_element(g: Generator | str, theta: float) -> GroupElement:
    """Finite transformation exp(-i theta g) as a real matrix, in closed form.

    I + a K + b K^2 with K = -ig: (a, b) is (sin, 1 - cos) for a
    rotation, (sinh, cosh - 1) for a boost, and (theta, theta^2 / 2) for
    N1 and N2.  A parameter whose element overflows double precision is
    refused with ValueError.
    """
    label = g if isinstance(g, str) else g.label
    coefficients, k, k2 = _lookup(_CLOSED_FORMS, label, "generator label")
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError("group parameter must be finite")
    try:
        a, b = coefficients(theta)
    except OverflowError:
        a = b = math.inf
    # |a| + b bounds every entry: K and K^2 have entries in [-1, 1], b >= 0
    if not math.isfinite(abs(a) + b):
        raise ValueError(f"exp(-i theta {label}) overflows double precision "
                         f"at theta = {theta:g}")
    return GroupElement(_readonly(_IDENTITY + a * k + b * k2), label, theta)


def invariance_residual(elem: GroupElement, p: FourVector) -> float:
    """Max-norm distance by which elem moves p."""
    a = p.as_array()
    return float(np.abs(elem.matrix @ a - a).max())


def leaves_invariant(elem: GroupElement, p: FourVector, tol: float) -> bool:
    """True iff elem moves p by at most tol in the max norm."""
    if not tol > 0:  # NaN too
        raise ValueError("tolerance must be positive")
    return invariance_residual(elem, p) <= tol


def contracted_generator(eta: float, source: str = "J2") -> np.ndarray:
    """Boosted, rescaled transverse rotation generator, in closed form.

    exp(-eta) B J2 B^{-1} for source J2 and minus the same conjugation of
    J1 for source J1, B the z boost of rapidity eta.  With e = exp(-2 eta),
    J2 gives 1/2 [(1 + e) J2 - (1 - e) K1] = -N1/2 + e (J2 + K1)/2 and J1
    gives -1/2 [(1 + e) J1 + (1 - e) K2] = -N2/2 + e (K2 - J1)/2: the limits
    are CONTRACTION_LIMIT_COEFFICIENT times N1 and N2, in the massless
    little-group algebra, and the distance to them decays like exp(-2 eta).
    """
    eta = _check_contraction(eta, source)
    limit, direction = _CONTRACTION_FAMILIES[source]
    return limit + math.exp(-2.0 * eta) * direction


def contraction_limit(source: str = "J2") -> np.ndarray:
    """Large-rapidity limit matrix of contracted_generator."""
    return _lookup(_CONTRACTION_FAMILIES, source, "contraction source")[0].copy()


def contraction_residual(eta: float, source: str = "J2") -> float:
    """Frobenius distance from contracted_generator(eta) to its limit, without
    building either matrix (parton._contraction_residual)."""
    return _contraction_residual(eta, source)


def structure_constants(basis: list[np.ndarray]) -> np.ndarray:
    """c[i, j, k] with [A_i, A_j] = sum_k c[i, j, k] A_k.

    Coefficients are extracted by Frobenius projection: a basis that is
    empty, not finite, or not nonzero and orthogonal under <A, B> = tr(A^H B) is refused.
    """
    b = np.asarray(basis, dtype=complex)
    with np.errstate(all="ignore"):  # a Gram matrix that is not finite is refused below
        gram = (np.einsum("iab,jab->ij", b.conj(), b) if b.ndim == 3 and len(b)
                else np.zeros((1, 1)))
    norms = gram.diagonal().real
    if not (np.isfinite(gram).all() and (norms > 0).all()
            and np.abs(gram - np.diag(norms)).max() <= 1e-12 * norms.max()):
        raise ValueError("structure_constants: the basis must be nonempty, nonzero and orthogonal")
    products = np.einsum("iab,jbc->ijac", b, b)
    brackets = products - products.transpose(1, 0, 2, 3)
    projections = np.einsum("kab,ijab->ijk", b.conj(), brackets)
    return projections / gram.diagonal()


def _lorentz_rows() -> list[tuple]:
    """[A_i B_j] = i sign eps_ijk C_k (0 when i = j), then the little group {J3, N1, N2}."""
    cyclic = ((1, 2), (2, 3), (3, 1))
    every = tuple((i, j) for i in (1, 2, 3) for j in (1, 2, 3))
    rows = []
    for a, b, c, sign, pairs in (("J", "J", "J", 1, cyclic), ("J", "K", "K", 1, every),
                                 ("K", "K", "J", -1, cyclic)):
        for i, j in pairs:
            k = 6 - i - j if i != j else i
            rows.append((f"{a}{i}", f"{b}{j}", 1j * sign * _levi_civita(i, j, k), f"{c}{k}"))
    return rows + [("N1", "N2", 0, "N1"), ("J3", "N1", 1j, "N2"), ("J3", "N2", -1j, "N1")]


#: rows (A, B, c, C), each meaning [A B] = c C
_LORENTZ_BRACKETS = _lorentz_rows()
_PLANAR_BRACKETS = (("Px", "Py", 0, "Px"), ("L", "Px", 1j, "Py"), ("L", "Py", -1j, "Px"))
_EPSILON_ROWS = 15   # the J/K rows, which precede the definitions of N1 and N2


def _stack(rows, mats: Mapping[str, np.ndarray]) -> tuple[np.ndarray, ...]:
    """A, B and c C of every bracket row, each packed into one (rows, k, k) array."""
    a, b, c, g = zip(*rows)
    ma, mb, mg = np.array([[mats[label] for label in column] for column in (a, b, g)])
    return ma, mb, np.array(c)[:, None, None] * mg


def _bracket_residuals(rows, stack) -> list[tuple[str, float]]:
    """Name and max entrywise residual of each bracket row, in one stacked pass."""
    ma, mb, expected = stack
    residuals = np.abs(ma @ mb - mb @ ma - expected).max(axis=(1, 2))
    return [(f"[{x} {y}] = " + (f"{'i' if z.imag > 0 else '-i'}{w}" if z else "0"), r)
            for (x, y, z, w), r in zip(rows, residuals.tolist())]


_LORENTZ_STACK = _stack(_LORENTZ_BRACKETS, GENERATOR_MATRICES)
#: structure constants of {J3, N1, N2} minus those of {L, Px, Py}, largest entry;
#: structure_constants is einsum only, so no matrix product runs at import
_LITTLE_GROUP_MISMATCH = float(np.abs(
    structure_constants([GENERATOR_MATRICES[k] for k in ("J3", "N1", "N2")])
    - structure_constants([PLANAR_MATRICES[k] for k in PLANAR_LABELS])).max())


def relation_residuals(gens: Mapping[str, np.ndarray] | None = None
                       ) -> list[tuple[str, float]]:
    """Max entrywise residual of every bracket relation of the algebra.

    An alternative generator mapping can be supplied to run the suite
    against perturbed matrices (negative-control self test); a missing label is refused.
    """
    gens, stack = (GENERATOR_MATRICES, _LORENTZ_STACK) if gens is None else (gens, None)
    if missing := [label for label in GENERATOR_LABELS if label not in gens]:
        raise ValueError(f"relation_residuals: the generator mapping lacks {', '.join(missing)}")
    rows = _bracket_residuals(_LORENTZ_BRACKETS, stack or _stack(_LORENTZ_BRACKETS, gens))
    defined = [("N1 = K1 - J2", gens["N1"] - (gens["K1"] - gens["J2"])),
               ("N2 = K2 + J1", gens["N2"] - (gens["K2"] + gens["J1"]))]
    return (rows[:_EPSILON_ROWS] + [(name, float(np.abs(d).max())) for name, d in defined]
            + rows[_EPSILON_ROWS:])


def planar_commutation_check() -> list[tuple[str, float]]:
    """Plane-group bracket residuals plus the little-group match.

    The final row compares the structure constants of {J3, N1, N2} with
    those of {L, Px, Py}, taken once at import from the canonical
    matrices; a zero residual is the statement that the massless little
    group is E(2)-like.
    """
    stack = _stack(_PLANAR_BRACKETS, PLANAR_MATRICES)
    return _bracket_residuals(_PLANAR_BRACKETS, stack) + [
        ("structure constants {J3 N1 N2} = {L Px Py}", _LITTLE_GROUP_MISMATCH)]


# last: hand the package this layer's names before any importer can replace them
from . import _bind  # noqa: E402

_bind(__name__)
