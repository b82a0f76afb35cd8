"""Wave functions, light-cone kinematics, quadrature, and the equation check."""

import math
import tracemalloc

import numpy as np
import pytest

from littlegroup.lorentz_algebra import FourVector
from littlegroup import oscillator as osc

SQRT2 = math.sqrt(2.0)

# frozen oracle values (direct evaluation / quadrature, see individual tests)
PEAK_VALUE = 0.5641895835477563          # (1/pi)^(1/2)
REST_N0_AT_1_1 = 0.2075537487102974      # exp(-1)/sqrt(pi)
VARIANCE_AT_ETA_1 = 1.8810978455418157   # cosh(2)/2


# ---------------------------------------------------------------------------
# relative coordinates
# ---------------------------------------------------------------------------

def test_coincident_pair():
    p = FourVector(0.3, -1.0, 2.0, 5.0)
    center, sep = osc.relative_coordinates(osc.QuarkPairCoordinates(p, p))
    assert center == p
    assert sep == FourVector(0.0, 0.0, 0.0, 0.0)


def test_separation_scale():
    pair = osc.QuarkPairCoordinates(FourVector(0, 0, 1.0, 0),
                                    FourVector(0, 0, -1.0, 0))
    center, sep = osc.relative_coordinates(pair)
    assert center == FourVector(0.0, 0.0, 0.0, 0.0)
    # (x_a - x_b)/(2 sqrt 2) has z component 2 / (2 sqrt 2) = 1/sqrt 2
    assert sep.z == pytest.approx(0.7071067811865475, abs=1e-15)
    assert (sep.x, sep.y, sep.t) == (0.0, 0.0, 0.0)


def test_relative_coordinates_linear():
    a = FourVector(1.0, 2.0, -1.0, 0.5)
    b = FourVector(-2.0, 0.0, 3.0, 1.5)
    c1, s1 = osc.relative_coordinates(osc.QuarkPairCoordinates(a, b))
    c2, s2 = osc.relative_coordinates(osc.QuarkPairCoordinates(3.0 * a, 3.0 * b))
    assert c2.as_array() == pytest.approx(3.0 * c1.as_array())
    assert s2.as_array() == pytest.approx(3.0 * s1.as_array())


# ---------------------------------------------------------------------------
# Hermite recurrence
# ---------------------------------------------------------------------------

def test_hermite_order_zero_constant():
    assert osc.hermite(0, 17.3) == 1.0
    assert osc.hermite(0, 9e307) == 1.0     # where 2 x overflows
    assert np.all(osc.hermite(0, np.linspace(-4, 4, 9)) == 1.0)


def test_hermite_low_orders():
    # recurrence oracle: H1 = 2x, H2 = 4x^2 - 2
    assert osc.hermite(1, 0.5) == 1.0
    assert osc.hermite(2, 1.0) == 2.0


def test_hermite_against_scipy():
    from scipy.special import eval_hermite
    x = np.linspace(-3, 3, 31)
    for n in (3, 7, 15, 30):
        assert osc.hermite(n, x) == pytest.approx(eval_hermite(n, x), rel=1e-10)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_hermite_refuses_a_non_finite_x_at_order_zero(x):
    with pytest.raises(ValueError, match="finite x"):
        osc.hermite(0, x)
    with pytest.raises(ValueError, match="finite x"):
        osc.hermite(0, np.array([0.5, x]))


def physicists_recurrence(n, x):
    """H_(k+1) = 2x H_k - 2k H_(k-1) from H_0 = 1, written out as the textbook states it."""
    h_prev, h = np.ones_like(x), 2.0 * x
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n):
            h_prev, h = h, 2.0 * x * h - 2.0 * k * h_prev
    return h_prev if n == 0 else h


def test_hermite_equals_the_physicists_recurrence():
    # H_k = 2^k M_k, but 2^n times the kernel's M_n rounds otherwise where M_k is
    # subnormal: H_3(5e-324) would read -4e-323, not -6e-323
    rng = np.random.default_rng(22)
    x = np.concatenate([rng.uniform(-10.0, 10.0, 5000),
                        rng.choice([-1.0, 1.0], 5000) * 10.0 ** rng.uniform(-323.0, 15.0, 5000),
                        [0.0, -0.0, 5e-324, -1e-310, 2.2e-308, 1e15, -1e15]])
    refused = 0
    for n in range(osc.MAX_EXCITATION + 1):
        with np.errstate(over="ignore"):
            want = physicists_recurrence(n, x)
        ok = np.isfinite(want)
        assert np.array_equal(osc.hermite(n, x[ok]), want[ok])
        assert all(osc.hermite(n, float(v)) == w for v, w in zip(x[ok][::97], want[ok][::97]))
        for v in x[~ok]:  # refused exactly where the recurrence is not finite
            with pytest.raises(ValueError, match="not finite"):
                osc.hermite(n, float(v))
        refused += np.count_nonzero(~ok)
    assert refused > 0


def test_hermite_order_guard():
    with pytest.raises(ValueError):
        osc.hermite(31, 0.0)
    with pytest.raises(ValueError):
        osc.hermite(-1, 0.0)


# ---------------------------------------------------------------------------
# light-cone coordinates
# ---------------------------------------------------------------------------

def test_lightcone_of_1_1():
    p = osc.lightcone(1.0, 1.0)
    assert p.u == pytest.approx(SQRT2, abs=1e-15)
    assert p.v == 0.0


def test_lightcone_round_trip():
    rng = np.random.default_rng(3)
    for z, t in rng.normal(size=(50, 2)) * 4:
        back = osc.lightcone_inverse(osc.lightcone(z, t))
        assert back == pytest.approx((z, t), abs=1e-14)


def test_lightcone_inverse_refuses_a_point_whose_z_overflows():
    # (u + v)/sqrt2 read inf here, with t = 0.0
    with pytest.raises(ValueError, match="finite"):
        osc.lightcone_inverse(osc.LightConePoint(1e308, 1e308))


@pytest.mark.parametrize("z, t", [(1e308, 1e308), (1e308, -1e308), (math.inf, 0.0),
                                  (np.array([0.0, 1e308]), 1e308)])
def test_lightcone_refuses_a_point_whose_u_or_v_overflows(z, t):
    with pytest.raises(ValueError, match="not finite"):
        osc.lightcone(z, t)


def test_sampling_path_builds_no_light_cone_point(monkeypatch):
    def refuse(*args):
        raise AssertionError("a light-cone point was built")
    state, grid = osc.OscillatorState(3, 0.8), osc.GridSpec.for_rapidity(0.8, 64)
    monkeypatch.setattr(osc, "lightcone", refuse)
    monkeypatch.setattr(osc, "LightConePoint", refuse)
    osc.sample_wavefunction(state, grid)
    osc.boosted_wavefunction(state, np.linspace(-2.0, 2.0, 9)[:, None], np.linspace(-1.0, 1.0, 5))
    osc.boosted_wavefunction(state, 0.3, -0.2)
    osc.lightcone_widths(osc.sample_wavefunction(state, grid))


def test_nan_point_is_refused_as_not_finite():
    with pytest.raises(ValueError, match="^points must be finite$"):
        osc.boosted_wavefunction(osc.OscillatorState(1), math.nan, 0.0)
    with pytest.raises(ValueError, match="^points must be finite$"):
        osc.boost_lightcone(1.0, osc.LightConePoint(math.nan, 0.0))


def test_boost_lightcone_identity_and_product():
    p = osc.LightConePoint(1.3, -0.4)
    assert osc.boost_lightcone(0.0, p) == p
    q = osc.boost_lightcone(1.7, p)
    assert q.u * q.v == pytest.approx(p.u * p.v, rel=1e-14)
    assert q.u == pytest.approx(math.exp(1.7) * p.u, rel=1e-15)
    assert q.v == pytest.approx(math.exp(-1.7) * p.v, rel=1e-15)


# ---------------------------------------------------------------------------
# wave functions
# ---------------------------------------------------------------------------

def test_ground_state_peak_value():
    assert osc.boosted_wavefunction(osc.OscillatorState(0, 0.0), 0.0, 0.0) \
        == pytest.approx(PEAK_VALUE, abs=1e-15)


@pytest.mark.parametrize("eta", [-2.0, 0.0, 0.7, 3.0])
def test_origin_is_fixed_point_of_squeeze(eta):
    val = osc.boosted_wavefunction(osc.OscillatorState(0, eta), 0.0, 0.0)
    assert val == pytest.approx(PEAK_VALUE, abs=1e-15)


def test_first_excited_state_odd_in_z():
    state = osc.OscillatorState(1, 0.0)
    for t in (-1.0, 0.0, 2.5):
        assert osc.boosted_wavefunction(state, 0.0, t) == 0.0


def test_rest_value_at_1_1():
    assert osc.rest_wavefunction(0, 1.0, 1.0) \
        == pytest.approx(REST_N0_AT_1_1, abs=1e-15)


def test_rest_equals_product_form():
    # oracle: (1/pi)^(1/4) exp(-t^2/2) times the 1-D oscillator function
    rng = np.random.default_rng(5)
    for n in range(5):
        z, t = rng.normal(size=2) * 2
        one_d = ((1.0 / (math.sqrt(math.pi) * math.factorial(n) * 2.0**n)) ** 0.5
                 * osc.hermite(n, z) * math.exp(-z * z / 2.0))
        product = (1.0 / math.pi) ** 0.25 * math.exp(-t * t / 2.0) * one_d
        assert osc.rest_wavefunction(n, z, t) == pytest.approx(product, rel=1e-12)


@pytest.mark.parametrize("n", [0, 2, 4])
def test_even_states_symmetric_in_z(n):
    z = np.linspace(-3, 3, 25)
    vals = osc.rest_wavefunction(n, z, 0.4)
    assert vals == pytest.approx(vals[::-1], abs=1e-15)


def test_boost_is_inverse_squeeze_composition():
    rng = np.random.default_rng(9)
    for n in range(5):
        for eta in (0.5, 1.3):
            state = osc.OscillatorState(n, eta)
            pts = rng.uniform(-4, 4, size=(1000, 2))
            direct = osc.boosted_wavefunction(state, pts[:, 0], pts[:, 1])
            u = (pts[:, 0] + pts[:, 1]) / SQRT2
            v = (pts[:, 0] - pts[:, 1]) / SQRT2
            z_back = (math.exp(-eta) * u + math.exp(eta) * v) / SQRT2
            t_back = (math.exp(-eta) * u - math.exp(eta) * v) / SQRT2
            composed = osc.rest_wavefunction(n, z_back, t_back)
            assert np.abs(direct - composed).max() <= 1e-12


def test_gaussian_anisotropy_ratio():
    # quadratic-form coefficients along u and v differ by exp(4 eta)
    eta = 0.9
    state = osc.OscillatorState(0, eta)
    peak = osc.boosted_wavefunction(state, 0.0, 0.0)
    on_u = osc.boosted_wavefunction(state, 1.0 / SQRT2, 1.0 / SQRT2)   # u=1, v=0
    on_v = osc.boosted_wavefunction(state, 1.0 / SQRT2, -1.0 / SQRT2)  # u=0, v=1
    coeff_u = -2.0 * math.log(on_u / peak)
    coeff_v = -2.0 * math.log(on_v / peak)
    assert coeff_v / coeff_u == pytest.approx(math.exp(4 * eta), rel=1e-12)


def test_state_validation():
    with pytest.raises(ValueError):
        osc.OscillatorState(-1, 0.0)
    with pytest.raises(ValueError):
        osc.OscillatorState(0, math.inf)


# ---------------------------------------------------------------------------
# grids and fields
# ---------------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ValueError):
        osc.GridSpec(1.0, -1.0, -1.0, 1.0, 32, 32)
    with pytest.raises(ValueError):
        osc.GridSpec(-1.0, 1.0, -1.0, 1.0, 8, 32)


@pytest.mark.parametrize("bounds, message", [
    ((-math.inf, math.inf, -1.0, 1.0), "finite"),
    ((math.nan, 1.0, -1.0, 1.0), "finite"),
    ((-1e308, 1e308, -1.0, 1.0), "span overflows"),
    ((-1.0, 1.0, 0.0, 5e-324), "step underflows"),
    ((np.float64(-1e308), np.float64(1e308), -1.0, 1.0), "span overflows"),
])
def test_grid_refuses_a_window_it_cannot_space(bounds, message):
    with pytest.raises(ValueError, match=message):
        osc.GridSpec(*bounds, 16, 16)


def test_window_too_wide_for_the_rapidity_is_refused():
    grid = osc.GridSpec(-1e300, 1e300, -1e300, 1e300, 16, 16)
    values = osc.sample_wavefunction(osc.OscillatorState(2, 3.0), grid).values
    assert np.isfinite(values).all()
    with pytest.raises(ValueError, match="too wide for this rapidity"):
        osc.sample_wavefunction(osc.OscillatorState(2, 300.0), grid)


def test_default_grid_covers_tails():
    grid = osc.GridSpec.for_rapidity(1.0)
    assert grid.covers_tails(1.0)
    assert not grid.covers_tails(1.5)


def test_field_shape_checked():
    grid = osc.GridSpec(-6, 6, -6, 6, 32, 48)
    f = osc.sample_wavefunction(osc.OscillatorState(0, 0.0), grid)
    assert f.values.shape == (32, 48)
    with pytest.raises(ValueError):
        osc.ScalarField(grid, np.zeros((48, 32)), None, osc.SPACE_TIME)
    with pytest.raises(ValueError):
        osc.ScalarField(grid, np.zeros((32, 48)), None, "position")
    for representation in ("position", [osc.SPACE_TIME], None):
        with pytest.raises(ValueError) as caught:
            osc.ScalarField(grid, np.zeros((32, 48)), None, representation)
        assert str(caught.value) == (f"unknown representation {representation!r}; "
                                     "expected one of ('space-time', 'momentum-energy')")


# ---------------------------------------------------------------------------
# normalization and orthogonality
# ---------------------------------------------------------------------------

def test_ground_state_normalized_on_default_grid():
    result = osc.normalization(osc.OscillatorState(0, 0.0))
    assert result.tail_ok
    assert result.value == pytest.approx(1.0, abs=1e-8)
    assert float(result) == result.value


def test_excited_boosted_state_normalized():
    state = osc.OscillatorState(3, 1.0)
    got = osc.normalization(state)
    # quadrature oracle at doubled resolution
    oracle = osc.normalization(state, osc.GridSpec.for_rapidity(1.0, 1024))
    assert got.value == pytest.approx(1.0, abs=1e-6)
    assert got.value == pytest.approx(oracle.value, abs=1e-7)


@pytest.mark.parametrize("n", [0, 2])
def test_normalization_independent_of_rapidity(n):
    values = []
    for eta in (0.0, 0.5, 1.0, 2.0):
        n_points = 512 if eta <= 1.0 else 1024
        grid = osc.GridSpec.for_rapidity(eta, n_points)
        values.append(osc.normalization(osc.OscillatorState(n, eta), grid).value)
    assert max(values) - min(values) <= 1e-6


def test_narrow_grid_sets_warning_flag():
    grid = osc.GridSpec(-4, 4, -4, 4, 64, 64)
    result = osc.normalization(osc.OscillatorState(0, 0.0), grid)
    assert not result.tail_ok


@pytest.mark.parametrize("eta", [0.0, 1.0])
def test_orthonormality(eta):
    grid = osc.GridSpec.for_rapidity(eta)
    for m in range(5):
        for n in range(m + 1):
            got = osc.overlap(osc.OscillatorState(m, eta),
                              osc.OscillatorState(n, eta), grid)
            assert got == pytest.approx(1.0 if m == n else 0.0, abs=1e-6)


# ---------------------------------------------------------------------------
# invariant oscillator equation, finite differences
# ---------------------------------------------------------------------------

def eig_grid(h):
    npts = int(round(12.0 / h)) + 1
    return osc.GridSpec(-6.0, 6.0, -6.0, 6.0, npts, npts)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_eigenvalue_matches_excitation(n):
    lam = osc.eigenvalue_check(n, eig_grid(0.02))
    assert lam == pytest.approx(float(n), abs=5e-3)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_eigenvalue_second_order_convergence(n):
    err_coarse = abs(osc.eigenvalue_check(n, eig_grid(0.04)) - n)
    err_fine = abs(osc.eigenvalue_check(n, eig_grid(0.02)) - n)
    assert 3.2 < err_coarse / err_fine < 4.8


def test_eigenvalue_spacing_guard():
    with pytest.raises(ValueError):
        osc.eigenvalue_check(0, osc.GridSpec(-6, 6, -6, 6, 64, 64))


def full_grid_eigenvalue(n, grid):
    """The ratio from stencils over the whole interior, masked afterwards.  Each stencil
    is ((psi[+1] + psi[-1]) - 2 psi), whose value does not depend on the pair's order."""
    psi = osc.sample_wavefunction(osc.OscillatorState(n, 0.0), grid).values
    core = psi[1:-1, 1:-1]
    d2z = ((psi[2:, 1:-1] + psi[:-2, 1:-1]) - 2.0 * core) / grid.dz**2
    d2t = ((psi[1:-1, 2:] + psi[1:-1, :-2]) - 2.0 * core) / grid.dt**2
    form = grid.z_axis[1:-1, None] ** 2 - grid.t_axis[1:-1] ** 2
    operator = 0.5 * (form * core - (d2z - d2t))
    mask = np.abs(core) > 1e-3
    return float(np.median(operator[mask] / core[mask]))


@pytest.mark.parametrize("n,grid", [
    (0, eig_grid(0.02)), (2, eig_grid(0.02)), (5, eig_grid(0.02)), (10, eig_grid(0.02)),
    (3, osc.GridSpec(-5.0, 4.0, -3.0, 6.0, 301, 250)),       # rectangular, off-centre
    (4, osc.GridSpec(-1.0, 1.0, -6.0, 6.0, 41, osc.BLOCK_POINTS + 9)),  # a row per block
    (0, osc.GridSpec(-1.0, 1.0, -1.2, 1.2, 41, 49)),  # |psi| > 1e-3 on every edge: a whole box
    (1, osc.GridSpec(-1.0, 1.0, -1.2, 1.2, 41, 49)),  # and a row of zeros inside it
])
def test_eigenvalue_equals_full_grid_stencil(n, grid):
    assert osc.eigenvalue_check(n, grid) == full_grid_eigenvalue(n, grid)


@pytest.mark.parametrize("grid", [
    osc.GridSpec(-6.0, 6.0, -6.0, 6.0, 241, 241),  # n_z and n_t odd: the centre point x0
    osc.GridSpec(-6.0, 6.0, -6.0, 6.0, 250, 250),  # both even: no centre row or point
    osc.GridSpec(-5.0, 5.0, -6.0, 6.0, 201, 260),  # odd n_z: the centre row's left half
    osc.GridSpec(-6.0, 6.0, -5.0, 5.0, 260, 201),  # odd n_t only
    osc.GridSpec(-6.0, 6.0, -6.0, 5.5, 241, 231),  # t off-centre: the full walk
    osc.GridSpec(-5.5, 6.0, -6.0, 6.0, 231, 241),  # z off-centre
])
def test_half_grid_eigenvalue_equals_full_grid_stencil(grid):
    for n in range(12):
        assert osc.eigenvalue_check(n, grid) == full_grid_eigenvalue(n, grid), n


@pytest.mark.parametrize("n, grid, points", [
    (0, osc.GridSpec(-0.375, 0.375, -0.375, 0.375, 16, 16), 196),  # 98 in the scanned half
    (1, osc.GridSpec(-0.003, 0.003, -0.375, 0.375, 17, 16), 112),  # 56, the centre row none
    (1, osc.GridSpec(-0.002, 0.002, -0.375, 0.375, 17, 16), 56),
])
def test_eigenvalue_guard_counts_both_halves(n, grid, points):
    psi = osc.sample_wavefunction(osc.OscillatorState(n, 0.0), grid).values
    assert np.count_nonzero(np.abs(psi[1:-1, 1:-1]) > 1e-3) == points
    if points < 100:
        with pytest.raises(ValueError, match="too few points"):
            osc.eigenvalue_check(n, grid)
    else:
        assert osc.eigenvalue_check(n, grid) == full_grid_eigenvalue(n, grid)


@pytest.mark.parametrize("size", [7, 8])
def test_mirrored_median_is_the_median_of_the_doubled_multiset(size):
    h = np.random.default_rng(size).normal(size=size)
    s = np.sort(h)
    lo, hi = s[(size - 1) // 2], s[size // 2]
    between = 0.5 * (lo + hi)
    for x0, want in [((), None), ([s[0] - 1.0], lo), ([lo], lo), ([between], between),
                     ([hi], hi), ([s[-1] + 1.0], hi)]:
        doubled = np.concatenate([h, h, np.asarray(x0, float)])
        got = osc._mirrored_median(h.copy(), x0)
        assert got == float(np.median(doubled)), x0
        assert want is None or got == want  # below, between and above the middle pair
    assert lo < between < hi or size % 2  # an even h has two middle values to lie between


@pytest.mark.parametrize("n", range(5))
def test_eigenvalue_check_memory(n):
    # the benchmark's grid: 601^2 at h = 0.02, a 2.8 MiB field
    grid = eig_grid(0.02)
    tracemalloc.start()
    try:
        osc.eigenvalue_check(n, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20
    # the full walk peaked at 1.67 to 1.98 fields (n = 0..4), the half grid at 1.28 to 1.56
    assert peak <= 1.65 * grid.n_z * grid.n_t * 8


def test_eigenvalue_degenerate_window():
    # window far in the tail: no points with |psi| > 1e-3
    grid = osc.GridSpec(5.0, 6.0, 5.0, 6.0, 32, 32)
    with pytest.raises(ValueError):
        osc.eigenvalue_check(0, grid)


# ---------------------------------------------------------------------------
# marginal variance and degeneracy
# ---------------------------------------------------------------------------

def quadrature_z_variance(eta, n_points=512):
    grid = osc.GridSpec.for_rapidity(eta, n_points)
    f = osc.sample_wavefunction(osc.OscillatorState(0, eta), grid)
    zz, _ = grid.meshgrid()
    wz, wt = grid.trapezoid_weights()
    weight = f.values**2 * wz[:, None] * wt[None, :]
    return float(np.sum(zz**2 * weight) / np.sum(weight))


def test_marginal_variance_at_rest():
    assert osc.marginal_variance(0.0) == 0.5
    assert quadrature_z_variance(0.0) == pytest.approx(0.5, abs=1e-10)


def test_marginal_variance_boosted():
    assert osc.marginal_variance(1.0) == pytest.approx(VARIANCE_AT_ETA_1, abs=1e-15)
    assert quadrature_z_variance(1.0) == pytest.approx(VARIANCE_AT_ETA_1, abs=1e-8)


def test_marginal_variance_even_in_eta():
    for eta in (0.3, 1.1, 2.0):
        assert osc.marginal_variance(eta) == osc.marginal_variance(-eta)


def test_lightcone_widths_of_boosted_state():
    grid = osc.GridSpec.for_rapidity(1.0)
    f = osc.sample_wavefunction(osc.OscillatorState(0, 1.0), grid)
    sigma_u, sigma_v = osc.lightcone_widths(f)
    assert sigma_u / sigma_v == pytest.approx(math.e**2, abs=1e-9)


def brute_force_degeneracy(total):
    return sum(1 for nx in range(total + 1) for ny in range(total + 1 - nx)
               for nz in range(total + 1 - nx - ny)
               if nx + ny + nz == total)


def test_degeneracy_small_levels():
    assert osc.degeneracy(0) == 1
    assert osc.degeneracy(2) == 6
    assert osc.degeneracy(5) == 21


def test_degeneracy_matches_enumeration():
    for total in range(21):
        assert osc.degeneracy(total) == brute_force_degeneracy(total)


def test_degeneracy_rejects_negative():
    for level in (-1, True, False):  # a bool is no level: True once read as level 1
        with pytest.raises(ValueError, match="^level must be a nonnegative integer$"):
            osc.degeneracy(level)
