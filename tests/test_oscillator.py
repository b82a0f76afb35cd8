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
    """The ratio from stencils over the whole interior, masked afterwards."""
    psi = osc.sample_wavefunction(osc.OscillatorState(n, 0.0), grid).values
    core = psi[1:-1, 1:-1]
    d2z = (psi[2:, 1:-1] - 2.0 * core + psi[:-2, 1:-1]) / grid.dz**2
    d2t = (psi[1:-1, 2:] - 2.0 * core + psi[1:-1, :-2]) / grid.dt**2
    form = grid.z_axis[1:-1, None] ** 2 - grid.t_axis[1:-1] ** 2
    operator = 0.5 * (form * core - (d2z - d2t))
    mask = np.abs(core) > 1e-3
    return float(np.median(operator[mask] / core[mask]))


@pytest.mark.parametrize("n,grid", [
    (0, eig_grid(0.02)), (2, eig_grid(0.02)), (5, eig_grid(0.02)), (10, eig_grid(0.02)),
    (3, osc.GridSpec(-5.0, 4.0, -3.0, 6.0, 301, 250)),       # rectangular, off-centre
    (4, osc.GridSpec(-1.0, 1.0, -6.0, 6.0, 41, osc.BLOCK_POINTS + 9)),  # a row per block
])
def test_eigenvalue_equals_full_grid_stencil(n, grid):
    assert osc.eigenvalue_check(n, grid) == full_grid_eigenvalue(n, grid)


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
    with pytest.raises(ValueError):
        osc.degeneracy(-1)
