"""Generator matrices, bracket relations, group elements, and the contraction."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm as scipy_expm

from littlegroup import lorentz_algebra as la

ALL_LABELS = la.GENERATOR_LABELS


def series_exponential(a, terms=30):
    """Plain truncated power series, independent of the library's route."""
    a = np.asarray(a, dtype=complex)
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    return out


# ---------------------------------------------------------------------------
# generator matrices
# ---------------------------------------------------------------------------

def test_n1_is_k1_minus_j2_entrywise():
    n1 = la.generator("N1").matrix
    diff = n1 - (la.generator("K1").matrix - la.generator("J2").matrix)
    assert np.abs(diff).max() == 0.0


def test_n2_is_k2_plus_j1_entrywise():
    n2 = la.generator("N2").matrix
    diff = n2 - (la.generator("K2").matrix + la.generator("J1").matrix)
    assert np.abs(diff).max() == 0.0


@pytest.mark.parametrize("label", ALL_LABELS)
def test_all_generators_traceless(label):
    assert la.generator(label).matrix.trace() == 0.0


@pytest.mark.parametrize("label", ["J1", "J2", "J3"])
def test_rotations_hermitian(label):
    m = la.generator(label).matrix
    assert np.abs(m - m.conj().T).max() == 0.0


@pytest.mark.parametrize("label", ALL_LABELS)
def test_i_times_generator_is_real(label):
    m = 1j * la.generator(label).matrix
    assert np.abs(m.imag).max() == 0.0


def test_unknown_label_rejected():
    with pytest.raises(ValueError):
        la.generator("K4")
    with pytest.raises(ValueError):
        la.planar_generator("Pz")


def test_generator_matrices_read_only():
    with pytest.raises(ValueError):
        la.generator("J1").matrix[0, 0] = 1.0


# ---------------------------------------------------------------------------
# commutators
# ---------------------------------------------------------------------------

def test_j1_j2_commutator_is_i_j3():
    lhs = la.commutator(la.generator("J1"), la.generator("J2"))
    assert np.abs(lhs - 1j * la.generator("J3").matrix).max() == 0.0


def test_n1_n2_commute():
    lhs = la.commutator(la.generator("N1"), la.generator("N2"))
    assert np.abs(lhs).max() == 0.0


@pytest.mark.parametrize("label", ALL_LABELS)
def test_self_commutator_vanishes(label):
    g = la.generator(label)
    assert np.abs(la.commutator(g, g)).max() == 0.0


def test_commutator_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        la.commutator(np.eye(4), np.eye(3))


def test_every_bracket_relation_holds():
    rows = la.relation_residuals()
    assert len(rows) >= 18
    for name, residual in rows:
        assert residual <= 1e-12, name


def test_relation_suite_catches_perturbation():
    mats = {k: np.array(v) for k, v in la.GENERATOR_MATRICES.items()}
    mats["J1"] = mats["J1"] + 1e-3
    residuals = [r for _, r in la.relation_residuals(mats)]
    assert max(residuals) > 1e-12


#: every relation of the suite, in its order, as (name, A, B, c, C): [A B] = c C,
#: or for the two definitions A = B + c C.  Written out rather than derived.
LORENTZ_RELATIONS = [
    ("[J1 J2] = iJ3", "J1", "J2", 1j, "J3"),
    ("[J2 J3] = iJ1", "J2", "J3", 1j, "J1"),
    ("[J3 J1] = iJ2", "J3", "J1", 1j, "J2"),
    ("[J1 K1] = 0", "J1", "K1", 0, None),
    ("[J1 K2] = iK3", "J1", "K2", 1j, "K3"),
    ("[J1 K3] = -iK2", "J1", "K3", -1j, "K2"),
    ("[J2 K1] = -iK3", "J2", "K1", -1j, "K3"),
    ("[J2 K2] = 0", "J2", "K2", 0, None),
    ("[J2 K3] = iK1", "J2", "K3", 1j, "K1"),
    ("[J3 K1] = iK2", "J3", "K1", 1j, "K2"),
    ("[J3 K2] = -iK1", "J3", "K2", -1j, "K1"),
    ("[J3 K3] = 0", "J3", "K3", 0, None),
    ("[K1 K2] = -iJ3", "K1", "K2", -1j, "J3"),
    ("[K2 K3] = -iJ1", "K2", "K3", -1j, "J1"),
    ("[K3 K1] = -iJ2", "K3", "K1", -1j, "J2"),
    ("N1 = K1 - J2", "N1", "K1", -1, "J2"),
    ("N2 = K2 + J1", "N2", "K2", 1, "J1"),
    ("[N1 N2] = 0", "N1", "N2", 0, None),
    ("[J3 N1] = iN2", "J3", "N1", 1j, "N2"),
    ("[J3 N2] = -iN1", "J3", "N2", -1j, "N1"),
]
PLANAR_RELATIONS = [
    ("[Px Py] = 0", "Px", "Py", 0, None),
    ("[L Px] = iPy", "L", "Px", 1j, "Py"),
    ("[L Py] = -iPx", "L", "Py", -1j, "Px"),
]


def reference_residuals(relations, mats):
    """Each row's residual from commutator and its expected matrix, one at a time."""
    rows = []
    for name, a, b, c, g in relations:
        expected = 0.0 if g is None else c * mats[g]
        if name.startswith("["):
            diff = la.commutator(mats[a], mats[b]) - expected
        else:
            diff = mats[a] - (mats[b] + expected)
        rows.append((name, float(np.abs(diff).max())))
    return rows


def assert_rows_match(got, want, tol):
    assert [name for name, _ in got] == [name for name, _ in want]
    for (name, r), (_, w) in zip(got, want):
        assert abs(r - w) <= tol, name


def corrupted_generators():
    mats = {k: np.array(v) for k, v in la.GENERATOR_MATRICES.items()}
    mats["J1"] = mats["J1"] + 1e-3
    return mats


def test_relation_table_matches_reference_exactly():
    for mats in (la.GENERATOR_MATRICES, corrupted_generators()):
        assert la.relation_residuals(mats) == reference_residuals(LORENTZ_RELATIONS, mats)
    assert la.relation_residuals() == reference_residuals(LORENTZ_RELATIONS,
                                                          la.GENERATOR_MATRICES)
    assert (la.planar_commutation_check()[:3]
            == reference_residuals(PLANAR_RELATIONS, la.PLANAR_MATRICES))


def perturbations(labels):
    """Real or imaginary 4x4 (or 3x3) offsets on one or more of the labels."""
    offset = st.tuples(st.sampled_from((1.0, 1j)),
                       st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16))
    return st.dictionaries(st.sampled_from(labels), offset, min_size=1)


def perturbed(mats, offsets):
    out = dict(mats)
    for label, (unit, entries) in offsets.items():
        size = out[label].shape[0]
        out[label] = out[label] + unit * np.reshape(entries[:size * size], (size, size))
    return out


@given(perturbations(ALL_LABELS))
def test_relation_table_matches_reference_on_perturbed_generators(offsets):
    mats = perturbed(la.GENERATOR_MATRICES, offsets)
    assert_rows_match(la.relation_residuals(mats),
                      reference_residuals(LORENTZ_RELATIONS, mats), 1e-15)


@given(perturbations(la.PLANAR_LABELS))
def test_planar_table_matches_reference_on_perturbed_generators(offsets):
    mats = perturbed(la.PLANAR_MATRICES, offsets)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(la, "PLANAR_MATRICES", mats)
        got = la.planar_commutation_check()
    assert_rows_match(got[:3], reference_residuals(PLANAR_RELATIONS, mats), 1e-15)


# ---------------------------------------------------------------------------
# group elements
# ---------------------------------------------------------------------------

def test_rotation_of_unit_x_vector():
    # independent oracle: 30-term power series of the rotation generator
    theta = 0.7
    oracle = series_exponential(-1j * theta * la.generator("J3").matrix).real
    expected = oracle @ np.array([1.0, 0.0, 0.0, 0.0])
    elem = la.group_element("J3", theta)
    got = elem.matrix @ np.array([1.0, 0.0, 0.0, 0.0])
    assert np.abs(got - expected).max() < 1e-14
    assert got == pytest.approx([math.cos(theta), math.sin(theta), 0.0, 0.0],
                                abs=1e-14)


def test_boost_block_matches_cosh_sinh():
    eta = 0.8
    block = la.group_element("K3", eta).matrix[2:, 2:]
    expected = np.array([[math.cosh(eta), math.sinh(eta)],
                         [math.sinh(eta), math.cosh(eta)]])
    assert np.abs(block - expected).max() < 1e-12


@pytest.mark.parametrize("label", ALL_LABELS)
def test_zero_parameter_gives_identity(label):
    assert np.abs(la.group_element(label, 0.0).matrix - np.eye(4)).max() == 0.0


def test_full_turn_is_identity_in_vector_representation():
    elem = la.group_element("J3", 2.0 * math.pi)
    assert np.abs(elem.matrix - np.eye(4)).max() < 1e-13


@pytest.mark.parametrize("label", ALL_LABELS)
@pytest.mark.parametrize("theta", [-20.0, -3.3, 0.1, 2.7, 20.0])
def test_matrix_exponential_against_scipy(label, theta):
    a = -1j * theta * la.generator(label).matrix
    mine = la.matrix_exponential(a)
    ref = scipy_expm(a)
    scale = np.maximum(1.0, np.abs(ref))
    assert (np.abs(mine - ref) / scale).max() < 1e-13


@pytest.mark.parametrize("label", ALL_LABELS)
@pytest.mark.parametrize("theta", [-20.0, -3.3, 0.1, 2.7, 20.0])
def test_group_element_against_scipy(label, theta):
    ref = scipy_expm(-1j * theta * la.generator(label).matrix)
    got = la.group_element(label, theta).matrix
    scale = np.maximum(1.0, np.abs(ref))
    assert (np.abs(got - ref) / scale).max() <= 1e-12


@pytest.mark.parametrize("label", ALL_LABELS)
def test_closed_form_generator_class(label):
    # K = -iG obeys K^3 = -K (rotation), K (boost) or 0 (N1, N2), which
    # is what makes I + a K + b K^2 the whole exponential series
    _, k, k2 = la._CLOSED_FORMS[label]
    assert np.array_equal(k, (-1j * la.generator(label).matrix).real)
    assert np.array_equal(k2, k @ k)
    sign = {"J": -1.0, "K": 1.0, "N": 0.0}[label[0]]
    assert np.array_equal(k2 @ k, sign * k)


any_label = st.sampled_from(ALL_LABELS)
any_angle = st.floats(-20.0, 20.0)


@given(any_label, any_angle, any_angle)
def test_subgroup_law_property(label, a, b):
    ga = la.group_element(label, a).matrix
    gb = la.group_element(label, b).matrix
    err = np.abs(ga @ gb - la.group_element(label, a + b).matrix).max()
    assert err <= 1e-12 * (np.abs(ga) @ np.abs(gb)).max()


@given(any_label, any_angle)
def test_unimodular_property(label, theta):
    m = la.group_element(label, theta).matrix
    # Hadamard's bound on |det| is the scale of its rounding error
    assert abs(np.linalg.det(m) - 1.0) <= 1e-12 * np.prod(np.linalg.norm(m, axis=1))


@given(any_label, any_angle, st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4))
def test_interval_preserved_property(label, theta, p):
    elem = la.group_element(label, theta)
    p = la.FourVector(*p)
    # the sizes of the terms summed into each component of q set its rounding
    terms = np.abs(elem.matrix) @ np.abs(p.as_array())
    q = elem.transform(p)
    assert abs(q.interval() - p.interval()) <= 1e-12 * max(1.0, float(terms @ terms))


@pytest.mark.parametrize("label,theta", [("K3", 1000.0), ("K1", -711.0), ("N1", 1e200)])
def test_overflowing_group_element_refused(label, theta):
    with pytest.raises(ValueError, match="overflows"):
        la.group_element(label, theta)


def test_largest_boost_is_finite():
    assert np.isfinite(la.group_element("K3", 700.0).matrix).all()


@pytest.mark.parametrize("label", ALL_LABELS)
def test_one_parameter_subgroup_law(label):
    rng = np.random.default_rng(7)
    for _ in range(5):
        a, b = rng.uniform(-2.5, 2.5, size=2)
        lhs = (la.group_element(label, a).matrix
               @ la.group_element(label, b).matrix)
        rhs = la.group_element(label, a + b).matrix
        assert np.abs(lhs - rhs).max() < 1e-10


def test_interval_preserved_for_random_vectors():
    rng = np.random.default_rng(11)
    for _ in range(100):
        label = ALL_LABELS[int(rng.integers(len(ALL_LABELS)))]
        elem = la.group_element(label, float(rng.uniform(-2, 2)))
        p = la.FourVector(*(rng.normal(size=4) * 3.0))
        q = elem.transform(p)
        assert abs(q.interval() - p.interval()) <= 1e-10 * max(1.0, abs(p.interval()))


def test_group_elements_unimodular():
    rng = np.random.default_rng(13)
    for label in ALL_LABELS:
        for theta in rng.uniform(-5, 5, size=4):
            det = np.linalg.det(la.group_element(label, float(theta)).matrix)
            assert abs(det - 1.0) < 1e-10


def test_non_finite_parameter_rejected():
    with pytest.raises(ValueError):
        la.group_element("K3", math.inf)
    with pytest.raises(ValueError):
        la.group_element("J1", math.nan)


# ---------------------------------------------------------------------------
# invariance of momenta
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("label", ["J1", "J2", "J3"])
@pytest.mark.parametrize("mass", [0.5, 1.0, 10.0])
def test_rotations_fix_rest_momentum(label, mass):
    p = la.FourVector(0.0, 0.0, 0.0, mass)
    for theta in np.linspace(-5, 5, 20):
        assert la.leaves_invariant(la.group_element(label, float(theta)), p, 1e-9)


@pytest.mark.parametrize("label", ["J3", "N1", "N2"])
@pytest.mark.parametrize("omega", [0.5, 1.0, 10.0])
def test_massless_little_group_fixes_lightlike_momentum(label, omega):
    p = la.FourVector(0.0, 0.0, omega, omega)
    for theta in np.linspace(-5, 5, 20):
        assert la.leaves_invariant(la.group_element(label, float(theta)), p, 1e-9)


def test_identity_leaves_everything_invariant():
    elem = la.group_element("K2", 0.0)
    assert la.leaves_invariant(elem, la.FourVector(1.0, -2.0, 3.0, 4.0), 1e-15)


def test_boost_moves_rest_momentum():
    elem = la.group_element("K3", 1.0)
    assert not la.leaves_invariant(elem, la.FourVector(0, 0, 0, 1.0), 1e-9)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_leaves_invariant_needs_positive_tolerance(tol):
    with pytest.raises(ValueError, match="tolerance must be positive"):
        la.leaves_invariant(la.group_element("J1", 0.0),
                            la.FourVector(0, 0, 0, 1.0), tol)


# ---------------------------------------------------------------------------
# contraction of the massive little group
# ---------------------------------------------------------------------------

def brute_force_contraction(eta, source):
    """Oracle route: scipy exponentials, literal conjugation."""
    k3 = la.GENERATOR_MATRICES["K3"]
    j = la.GENERATOR_MATRICES["J2"] if source == "J2" else -la.GENERATOR_MATRICES["J1"]
    boost = scipy_expm(-1j * eta * k3).real
    boost_inv = scipy_expm(1j * eta * k3).real
    return math.exp(-eta) * (boost @ j @ boost_inv)


@pytest.mark.parametrize("source", ["J2", "J1"])
def test_contraction_at_zero_rapidity(source):
    got = la.contracted_generator(0.0, source)
    expected = (la.GENERATOR_MATRICES["J2"] if source == "J2"
                else -la.GENERATOR_MATRICES["J1"])
    assert np.abs(got - expected).max() == 0.0


@pytest.mark.parametrize("source,target", [("J2", "N1"), ("J1", "N2")])
def test_contraction_limit_coefficient(source, target):
    # pre-build oracle pinned the Frobenius projection onto the target
    # at minus one half; the off-span residual decays like exp(-2 eta)
    tgt = la.GENERATOR_MATRICES[target]
    got = la.contracted_generator(10.0, source)
    coeff = np.vdot(tgt, got) / np.vdot(tgt, tgt)
    assert abs(coeff.imag) < 1e-12
    assert coeff.real == pytest.approx(-0.5, abs=1e-8)
    assert coeff.real == pytest.approx(la.CONTRACTION_LIMIT_COEFFICIENT, abs=1e-8)
    assert np.linalg.norm(got - coeff * tgt) <= 1e-8


def exact_boost_contraction(eta, source):
    """Literal conjugation by the z boost written with math.cosh and math.sinh."""
    boost = np.eye(4)
    boost[2:, 2:] = [[math.cosh(eta), math.sinh(eta)], [math.sinh(eta), math.cosh(eta)]]
    boost_inv = boost.copy()
    boost_inv[2, 3] = boost_inv[3, 2] = -math.sinh(eta)
    j = la.GENERATOR_MATRICES["J2"] if source == "J2" else -la.GENERATOR_MATRICES["J1"]
    return math.exp(-eta) * (boost @ j @ boost_inv)


@pytest.mark.parametrize("source", ["J2", "J1"])
def test_contraction_matches_brute_force_oracle(source):
    # scipy's expm of eta K3 is itself off by up to ~2e-14 relative (scipy 1.17:
    # 1.1e-14 absolute at eta = 8.45), so 1e-15 is held against the cosh/sinh boost
    for eta in np.linspace(0.0, 12.0, 1201).tolist():
        mine = la.contracted_generator(eta, source)
        assert np.abs(mine - exact_boost_contraction(eta, source)).max() <= 1e-15
        assert np.abs(mine - brute_force_contraction(eta, source)).max() <= 1e-13


def test_contraction_closed_form_is_the_symbolic_conjugation():
    import sympy as sp
    eta = sp.symbols("eta", real=True)
    g = {label: sp.Matrix(la.GENERATOR_MATRICES[label].tolist()).applyfunc(sp.nsimplify)
         for label in ("J1", "J2", "K1", "K2", "K3")}
    boost = (-sp.I * eta * g["K3"]).exp()   # its inverse is the boost at -eta
    e = sp.exp(-2 * eta)
    for source, j, closed in (
            ("J2", g["J2"], ((1 + e) * g["J2"] - (1 - e) * g["K1"]) / 2),
            ("J1", -g["J1"], -((1 + e) * g["J1"] + (1 - e) * g["K2"]) / 2)):
        conjugated = sp.exp(-eta) * boost * j * boost.subs(eta, -eta)
        assert sp.simplify(conjugated - closed) == sp.zeros(4, 4)
        for x in (0.0, 0.7, 3.0):   # and the library is this closed form
            expected = np.array(closed.subs(eta, x).evalf(), dtype=complex)
            assert np.abs(la.contracted_generator(x, source) - expected).max() <= 1e-15


@pytest.mark.parametrize("source", ["J2", "J1"])
def test_contraction_residual_rate_up_to_the_cancellation_floor(source):
    # subtracting the limit leaves ~1e-16 / exp(-2 eta) of relative rounding,
    # which stays below 1e-6 through eta = 11
    for eta in np.linspace(0.0, 11.0, 2001).tolist():
        scaled = la.contraction_residual(eta, source) * math.exp(2.0 * eta)
        assert abs(scaled - 1.0) <= 1e-6


@pytest.mark.parametrize("source", ["J2", "J1"])
def test_contraction_residual_rate(source):
    r4 = la.contraction_residual(4.0, source)
    r5 = la.contraction_residual(5.0, source)
    assert r5 / r4 == pytest.approx(math.exp(-2.0), rel=0.01)


@pytest.mark.parametrize("source", ["J2", "J1"])
def test_contraction_residual_is_the_matrix_norm(source):
    # the residual builds no matrix; numpy's norm of the matrix difference is the
    # oracle, up to the order in which BLAS sums the four squares
    for eta in np.linspace(0.0, 350.0, 50001).tolist():
        want = float(np.linalg.norm(la.contracted_generator(eta, source)
                                    - la.contraction_limit(source)))
        got = la.contraction_residual(eta, source)
        assert abs(got - want) <= math.ulp(want), eta
    assert la.contraction_residual(20.0, source) == 0.0   # the cancellation floor


@pytest.mark.parametrize("source", ["J2", "J1"])
def test_contraction_direction_has_the_pattern_the_residual_assumes(source):
    # four purely imaginary entries of +-1/2 where the limit has its +-1/2, so
    # |direction|_F = 1; in row-major order the limit and direction share their
    # sign, then differ, then share, then differ: entries a, b, a, b
    limit = la.contraction_limit(source)
    direction = la.contracted_generator(0.0, source) - limit
    assert not direction.real.any() and not limit.real.any()
    assert (direction != 0).tolist() == (limit != 0).tolist()
    d, lim = direction.imag[direction != 0], limit.imag[limit != 0]
    assert np.abs(d).tolist() == [0.5] * 4
    assert np.abs(lim).tolist() == [abs(la.CONTRACTION_LIMIT_COEFFICIENT)] * 4
    assert (np.sign(d) == np.sign(lim)).tolist() == [True, False, True, False]
    assert np.linalg.norm(direction) == 1.0


def test_contraction_rejects_bad_input():
    with pytest.raises(ValueError):
        la.contracted_generator(-1.0, "J2")
    with pytest.raises(ValueError):
        la.contracted_generator(1.0, "J3")
    with pytest.raises(ValueError):
        la.contraction_limit("J3")
    with pytest.raises(ValueError, match=r"contracted_generator needs \|eta\| <= 350"):
        la.contracted_generator(800.0, "J2")
    for eta, source, message in (
            (-1.0, "J2", "contraction rapidity must be nonnegative"),
            (1.0, "J3", "unknown contraction source 'J3'; expected one of ('J2', 'J1')"),
            (800.0, "J2", "contracted_generator needs |eta| <= 350"),
            (math.nan, "J1", "contracted_generator needs |eta| <= 350")):
        with pytest.raises(ValueError) as caught:
            la.contraction_residual(eta, source)
        assert str(caught.value) == message


# ---------------------------------------------------------------------------
# planar group
# ---------------------------------------------------------------------------

def test_planar_relations_and_little_group_match():
    for name, residual in la.planar_commutation_check():
        assert residual <= 1e-12, name


def test_translations_commute():
    px = la.planar_generator("Px")
    py = la.planar_generator("Py")
    assert np.abs(la.commutator(px, py)).max() == 0.0


def test_translation_composition():
    px = la.planar_generator("Px").matrix
    a, b = 0.9, -2.4
    lhs = (la.matrix_exponential(-1j * a * px)
           @ la.matrix_exponential(-1j * b * px))
    rhs = la.matrix_exponential(-1j * (a + b) * px)
    assert np.abs(lhs - rhs).max() < 1e-14


def test_translation_moves_plane_point():
    px = la.planar_generator("Px").matrix
    shift = la.matrix_exponential(-1j * 2.0 * px).real
    assert shift @ np.array([1.0, 1.0, 1.0]) == pytest.approx([3.0, 1.0, 1.0])


def test_structure_constants_match_projection_loop():
    basis = [la.GENERATOR_MATRICES[k] for k in ("J1", "J2", "J3", "K1", "K2", "K3")]
    want = np.zeros((6, 6, 6), dtype=complex)
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            for k, c in enumerate(basis):
                want[i, j, k] = np.vdot(c, la.commutator(a, b)) / np.vdot(c, c)
    assert np.array_equal(la.structure_constants(basis), want)
    assert want[0, 1, 2] == 1j and want[3, 4, 2] == -1j


def test_structure_constants_of_little_and_planar_triples():
    little = [la.GENERATOR_MATRICES[k] for k in ("J3", "N1", "N2")]
    planar = [la.PLANAR_MATRICES[k] for k in ("L", "Px", "Py")]
    c_little = la.structure_constants(little)
    c_planar = la.structure_constants(planar)
    assert np.abs(c_little - c_planar).max() == 0.0


@pytest.mark.parametrize("basis", [
    [],
    np.zeros((0, 4, 4)),
    [la.GENERATOR_MATRICES["J3"], np.zeros((4, 4))],               # 0/0: NaN, with a warning
    [la.GENERATOR_MATRICES[k] for k in ("J3", "N1")]
    + [la.GENERATOR_MATRICES["N2"] + la.GENERATOR_MATRICES["J3"]],  # [A0, A1] rebuilt off by 0.667
    [np.diag([np.inf, 0.0, 0.0, 0.0])],                             # inf - inf: NaN and a warning
    [np.full((2, 2), 1e200)],                                       # the Gram matrix overflows
])
def test_structure_constants_refuse_a_basis_they_cannot_project_on(basis):
    with pytest.raises(ValueError, match="nonempty, nonzero and orthogonal"):
        la.structure_constants(basis)


def test_relation_residuals_name_the_labels_a_mapping_lacks():
    mats = {k: v for k, v in la.GENERATOR_MATRICES.items() if k not in ("J2", "N1")}
    with pytest.raises(ValueError, match="lacks J2, N1$"):
        la.relation_residuals(mats)


@pytest.mark.parametrize("a", [np.full((3, 3), np.nan), np.diag([1.0, np.inf]),
                               1e6 * np.eye(3),                 # overflow in matmul
                               np.full((2, 2), 1e308)])         # the norm overflows
def test_matrix_exponential_refuses_a_non_finite_result(a):
    with pytest.raises(ValueError, match="finite"):
        la.matrix_exponential(a)


def test_matrix_exponential_of_a_large_nilpotent_matrix_is_exact():
    # the column sum overflows, but a @ a = 0, so exp(a) = I + a
    a = np.zeros((3, 3))
    a[1:, 0] = 1e308
    assert np.array_equal(la.matrix_exponential(a), np.eye(3) + a)


# ---------------------------------------------------------------------------
# four-vectors
# ---------------------------------------------------------------------------

def test_interval_signature():
    assert la.FourVector(1.0, 2.0, 3.0, 4.0).interval() == 1 + 4 + 9 - 16


def test_four_vector_arithmetic():
    a = la.FourVector(1, 2, 3, 4)
    b = la.FourVector(0.5, -1, 0, 2)
    assert (a + b) == la.FourVector(1.5, 1.0, 3.0, 6.0)
    assert (a - b) == la.FourVector(0.5, 3.0, 3.0, 2.0)
    assert 2.0 * a == la.FourVector(2.0, 4.0, 6.0, 8.0)
