"""The light-cone kernel: blocked grids against pointwise values, oracles, memory."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from littlegroup import momentum_space as ms
from littlegroup import oscillator as osc

SQRT2 = math.sqrt(2.0)
MIB = 2**20


def rest_frame_reference(n, eta, z, t):
    """psi_n from scipy's H_n at the rest-frame point of (z, t)."""
    from scipy.special import eval_hermite
    u, v = (z + t) / SQRT2, (z - t) / SQRT2
    x = (math.exp(-eta) * u + math.exp(eta) * v) / SQRT2
    y = (math.exp(-eta) * u - math.exp(eta) * v) / SQRT2
    norm = 1.0 / math.sqrt(math.pi * math.factorial(n) * 2.0**n)
    return norm * eval_hermite(n, x) * np.exp(-(x * x + y * y) / 2.0)


# ---------------------------------------------------------------------------
# the blocked grid and the pointwise kernel agree
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(0, osc.MAX_EXCITATION), st.floats(-8.0, 8.0),
       st.integers(16, 700), st.integers(16, 700))
@example(30, 0.0, 16, 16)                   # far less than one block
@example(4, 1.5, 700, 700)                  # rows per block do not divide n_z
@example(0, -3.0, osc.BLOCK_POINTS // 16 + 1, 16)  # one row past a block
def test_blocked_sample_equals_pointwise(n, eta, n_z, n_t):
    grid = osc.GridSpec.for_rapidity(eta, 16)
    grid = osc.GridSpec(grid.z_min, grid.z_max, grid.t_min, grid.t_max, n_z, n_t)
    state = osc.OscillatorState(n, eta)
    blocked = osc.sample_wavefunction(state, grid).values
    zz, tt = grid.meshgrid()
    pointwise = osc.boosted_wavefunction(state, zz, tt)
    assert np.abs(blocked - pointwise).max() <= 1e-13 * np.abs(pointwise).max()


def full_axes_reference(n, eta, grid):
    """_psi on the whole broadcast axes at once: no row blocks, no band."""
    return osc._psi(n, eta, grid.z_axis[:, None], grid.t_axis)


def light_cone_kernel(n, eta, u, v):
    """The kernel's formula on light-cone (u, v), rounded step by step as _psi rounds:
    a = e^-eta u/sqrt2 and b = e^eta v/sqrt2, M_0 = e^-(a^2+b^2) flushed below
    _LOG_FLUSH, M_(k+1) = x M_k - (k/2) M_(k-1) with x = a + b, and
    psi_n = sqrt(2^n / (pi n!)) M_n."""
    shape = np.broadcast_shapes(np.shape(u), np.shape(v))
    a = np.multiply(u, math.exp(-eta) / SQRT2, out=np.empty(shape))
    b = np.multiply(v, math.exp(eta) / SQRT2, out=np.empty(shape))
    x = a + b
    with np.errstate(over="ignore"):  # a square past 1e308 is inf: its Gaussian is 0
        gauss = -np.square(a) - np.square(b)
    m_prev = np.exp(np.where(gauss < osc._LOG_FLUSH, -np.inf, gauss))
    m = x * m_prev if n else m_prev
    for k in range(1, n):
        m_prev, m = m, x * m - (0.5 * k) * m_prev
    return m * math.sqrt(2.0**n / (math.pi * math.factorial(n)))


@pytest.mark.parametrize("n", [0, 1, 3, 7, 30])
@pytest.mark.parametrize("eta", [0.0, 0.3, -1.3, 4.0, -12.0])
def test_kernel_on_z_t_equals_the_light_cone_formula(n, eta):
    rng = np.random.default_rng(n)
    reach = 5.0 * math.exp(abs(eta))
    z, t = rng.uniform(-reach, reach, size=(2, 300))
    zz, tt = z[:40, None], t[:60]
    # the wide diagonal, where the narrow coordinate is small and psi is not flushed
    near = z[:200] + np.sign(eta or 1.0) * rng.uniform(-1.0, 1.0, 200) * math.exp(-abs(eta))
    for z_, t_ in ((z, t), (zz, tt), (near, np.sign(eta or 1.0) * z[:200]),
                   (np.float64(0.3), np.float64(-0.7))):
        want = light_cone_kernel(n, eta, (z_ + t_) / SQRT2, (z_ - t_) / SQRT2)
        assert np.array_equal(osc._psi(n, eta, z_, t_), want)
    assert np.count_nonzero(osc._psi(n, eta, near, np.sign(eta or 1.0) * z[:200])) > 100


window = st.tuples(st.floats(-2.0, 1.5), st.floats(0.05, 2.0))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, osc.MAX_EXCITATION), st.floats(-12.0, 12.0),
       window, window, st.integers(16, 600), st.integers(16, 600))
@example(30, 12.0, (-1.0, 2.0), (-1.0, 2.0), 301, 517)   # band far narrower than a column
@example(3, 0.0, (-1.0, 2.0), (-0.5, 1.0), 64, 48)       # band wider than the window
@example(4, 2.5, (-1.0, 2.0), (-1.0, 2.0), 601, 601)     # rows per block do not divide n_z
@example(2, -3.0, (-1.4, 1.9), (-0.3, 1.1), 211, 97)     # the anti-diagonal band
@example(1, 3.0, (0.5, 0.4), (-1.5, 0.4), 40, 40)        # the band misses the window
# windows centred on 0, of which half the rows are evaluated; three above are centred too
@example(29, -12.0, (-1.0, 2.0), (-1.0, 2.0), 300, 17)   # even rows, anti-diagonal band
@example(3, -1.3, (-1.0, 2.0), (-0.5, 1.0), 511, 64)     # odd rows: the centre row is evaluated
@example(1, 0.7, (-1.0, 2.0), (-1.0, 2.0), 16, 33)       # one block
def test_banded_sample_equals_full_axes(n, eta, z_window, t_window, n_z, n_t):
    half = osc.TAIL_HALF_WIDTH_FACTOR * math.exp(abs(eta))
    (z_lo, z_len), (t_lo, t_len) = z_window, t_window
    grid = osc.GridSpec(half * z_lo, half * (z_lo + z_len),
                        half * t_lo, half * (t_lo + t_len), n_z, n_t)
    with np.errstate(over="ignore"):  # squares past 1e308 in the reference
        want = full_axes_reference(n, eta, grid)
    assert np.array_equal(osc._sample_grid(n, eta, grid), want)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n, eta, bounds", [
    (0, 0.0, (-1.0, 1.0, 0.0, 1e-300)),      # a band 1e302 columns wide
    (3, 0.0, (0.0, 1e-300, 0.0, 1e-300)),
    (2, 1.0, (0.0, 1e-310, -1e300, 1e300)),  # its move per row underflows to 0
    (5, -2.0, (-1e300, 1e300, 0.0, 1e-310)), # ... or overflows
])
def test_extreme_window_bands_stay_finite(n, eta, bounds):
    grid = osc.GridSpec(*bounds, 16, 16)
    with np.errstate(over="ignore"):  # squares past 1e308 in the reference
        want = full_axes_reference(n, eta, grid)
    assert np.array_equal(osc._sample_grid(n, eta, grid), want)


@pytest.mark.parametrize("eta, band_spans_rows", [(0.0, True), (0.7, True), (-0.7, True),
                                                  (1.0, False), (-1.0, False)])
def test_sample_is_zero_filled_only_where_the_band_misses_columns(monkeypatch, eta,
                                                                 band_spans_rows):
    window = osc.GridSpec.for_rapidity(eta)
    for n, n_z in [(2, 512), (3, 511)]:  # odd n and rows: the centre row is not reflected
        grid = osc.GridSpec(window.z_min, window.z_max, window.t_min, window.t_max,
                            n_z, window.n_t)
        blocks = osc._band_blocks(eta, grid, grid.z_axis[:(n_z + 1) // 2])  # rows evaluated
        assert all(c.start == 0 and c.stop >= grid.n_t for _, c in blocks) == band_spans_rows
        # np.empty hands out NaN here, so a sample left unwritten, or a reflected
        # row left out, cannot pass as 0
        monkeypatch.setattr(np, "empty", lambda shape, *args, **kwargs: np.full(shape, np.nan))
        got = osc._sample_grid(n, eta, grid)
        monkeypatch.undo()
        assert np.array_equal(got, full_axes_reference(n, eta, grid))


def test_centred_sample_evaluates_half_the_rows(monkeypatch):
    grid = osc.GridSpec(-6.0, 6.0, -6.0, 6.0, 511, 64)
    rows = []
    kernel = osc._psi

    def counting(n, eta, u, v, out=None):
        rows.append(np.shape(u)[0])
        return kernel(n, eta, u, v, out=out)
    monkeypatch.setattr(osc, "_psi", counting)
    osc._sample_grid(1, 0.4, grid)
    assert sum(rows) == 256


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("bounds", [
    (-6.0, math.nextafter(6.0, 7.0), -6.0, 6.0),
    (-6.0, 6.0, math.nextafter(-6.0, -7.0), 6.0),
])
def test_window_off_centre_by_one_ulp_is_sampled_in_full(n, bounds):
    grid = osc.GridSpec(*bounds, 257, 130)
    assert np.array_equal(osc._sample_grid(n, 0.9, grid), full_axes_reference(n, 0.9, grid))


@pytest.mark.parametrize("n", [0, 1, 2, 5, 11, 20, 29, 30])
@pytest.mark.parametrize("eta", [0.0, 0.7, -1.3])
def test_kernel_against_scipy_hermite(n, eta):
    rng = np.random.default_rng(n)
    z, t = rng.uniform(-6.0, 6.0, size=(2, 400))
    want = rest_frame_reference(n, eta, z, t)
    got = osc.boosted_wavefunction(osc.OscillatorState(n, eta), z, t)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_scalar_input_returns_float():
    value = osc.boosted_wavefunction(osc.OscillatorState(3, 0.4), 0.3, -0.2)
    assert isinstance(value, float)
    assert value == pytest.approx(float(rest_frame_reference(3, 0.4, 0.3, -0.2)),
                                  rel=1e-13)


@pytest.mark.parametrize("window", [(-6.0, 6.0, -6.0, 6.0, 512, 512),
                                    (-7.3, 7.3, -0.2, 0.2, 301, 40)])
def test_symmetric_window_axes_are_antisymmetric(window):
    grid = osc.GridSpec(*window)
    assert np.array_equal(grid.z_axis[::-1], -grid.z_axis)
    assert np.array_equal(grid.t_axis[::-1], -grid.t_axis)


@pytest.mark.parametrize("n, eta, points", [(0, 0.0, 512), (1, 0.7, 512),
                                            (4, 1.3, 257), (3, 2.3, 200)])
def test_sampled_field_has_exact_parity(n, eta, points):
    # psi_n(-z, -t) = (-1)^n psi_n(z, t) holds bit for bit on the antisymmetric nodes
    v = osc.sample_wavefunction(osc.OscillatorState(n, eta),
                                osc.GridSpec.for_rapidity(eta, points)).values
    assert np.array_equal(v[::-1, ::-1], (-1) ** n * v)


def test_top_excitation_at_large_rapidity_is_finite():
    # H_30 overflowing against an underflowed Gaussian gave 231 842 NaNs
    with np.errstate(over="raise", invalid="raise"):
        field = osc.sample_wavefunction(osc.OscillatorState(30, 12.0),
                                        osc.GridSpec.for_rapidity(12.0))
    assert np.isfinite(field.values).all()


def test_excitation_cap_is_checked_on_the_state():
    with pytest.raises(ValueError, match=r"\[0, 30\]"):
        osc.OscillatorState(osc.MAX_EXCITATION + 1, 0.0)
    for n in (True, False):   # a bool is no excitation number, though operator.index takes it
        with pytest.raises(ValueError, match=r"\[0, 30\]"):
            osc.OscillatorState(n, 0.0)
        with pytest.raises(ValueError, match=r"\[0, 30\]"):
            osc.hermite(n, 0.5)


# ---------------------------------------------------------------------------
# quadrature built on the kernel
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, eta", [(0, 0.0), (3, 1.2), (7, -0.4)])
def test_normalization_is_the_self_overlap(n, eta):
    state = osc.OscillatorState(n, eta)
    for grid in (osc.GridSpec.for_rapidity(eta, 300), osc.GridSpec(-3.0, 4.0, -2.5, 2.0, 90, 70)):
        q = osc.normalization(state, grid)
        assert q.value == osc.overlap(state, state, grid)
        assert q.tail_ok == grid.covers_tails(eta)
    assert osc.normalization(state).value == osc.overlap(state, state,
                                                         osc.GridSpec.for_rapidity(eta))


def meshgrid_overlap(state_a, state_b, grid):
    """The trapezoid overlap as the exact (math.fsum) sum of the weighted products on a
    full meshgrid, and the fsum of their magnitudes, the scale its rounding is bounded on."""
    zz, tt = grid.meshgrid()
    wz, wt = grid.trapezoid_weights()
    terms = (wz[:, None] * osc.boosted_wavefunction(state_a, zz, tt)
             * osc.boosted_wavefunction(state_b, zz, tt) * wt).ravel()
    return math.fsum(terms), math.fsum(np.abs(terms))


def test_diagonal_overlap_equals_power_integral():
    # the streamed half-grid sum and power_integral's full one round differently
    # (1.0000000000000007 and ...04 at (3, 1.2)): each is held to 4 ulp of the exact sum
    grid = osc.GridSpec.for_rapidity(1.2, 300)
    for n in (0, 3):
        state = osc.OscillatorState(n, 1.2)
        want, _ = meshgrid_overlap(state, state, grid)
        for got in (osc.overlap(state, state, grid),
                    osc.power_integral(osc.sample_wavefunction(state, grid))):
            assert abs(got - want) <= 4 * math.ulp(want)


@pytest.mark.parametrize("m, eta_a, n, eta_b", [
    (0, 0.0, 0, 0.7), (1, 0.3, 1, -0.4), (2, -0.5, 2, 0.6), (5, 1.2, 5, 0.0),
    (10, 0.3, 10, 0.3), (3, -1.0, 3, -1.0),
    (0, 0.0, 2, 0.6), (1, 0.3, 3, -0.4), (2, 0.5, 4, 0.9)])   # even totals, orthogonal
def test_overlap_follows_the_closed_form_law(m, eta_a, n, eta_b):
    # <psi_m(eta_a)|psi_n(eta_b)> = delta_mn cosh(eta_a - eta_b)^-(n+1) on windows that
    # resolve both states, centred or not, in either order: the band walked, the
    # narrower state's, drops no non-zero sample of the product
    law = math.cosh(eta_a - eta_b) ** -(n + 1) if m == n else 0.0
    a, b = osc.OscillatorState(m, eta_a), osc.OscillatorState(n, eta_b)
    for grid in (osc.GridSpec(-14.0, 14.0, -14.0, 14.0, 401, 401),
                 osc.GridSpec(-13.0, 15.0, -14.5, 13.0, 400, 390)):
        assert osc.overlap(a, b, grid) == pytest.approx(law, abs=2e-15)
        assert osc.overlap(b, a, grid) == pytest.approx(law, abs=2e-15)


@pytest.mark.parametrize("m, eta_a, n, eta_b", [(0, 0.0, 1, 0.0), (1, 0.3, 2, -0.4),
                                                (4, 1.1, 7, 1.1)])
def test_odd_pair_is_exactly_zero_on_a_centred_window(m, eta_a, n, eta_b):
    a, b = osc.OscillatorState(m, eta_a), osc.OscillatorState(n, eta_b)
    got = osc.overlap(a, b, osc.GridSpec(-9.0, 9.0, -8.0, 8.0, 200, 181))
    assert got == 0.0 and type(got) is float
    # off centre the window cuts both states, so the pair no longer cancels
    off = osc.GridSpec(-2.0, 9.0, -3.0, 8.5, 220, 201)
    want, scale = meshgrid_overlap(a, b, off)
    assert abs(want) > 1e-3
    assert abs(osc.overlap(a, b, off) - want) <= 4 * math.ulp(scale)


@pytest.mark.parametrize("n_z, n_t", [(301, 301), (257, 200), (17, 16), (200, 181)])
def test_centred_window_counts_the_centre_row_once(n_z, n_t):
    grid = osc.GridSpec(-7.5, 7.5, -7.0, 7.0, n_z, n_t)
    for (m, eta_a), (n, eta_b) in (((2, 0.5), (2, 0.5)), ((1, 0.3), (3, -0.4)),
                                   ((0, 0.0), (0, 0.8))):
        a, b = osc.OscillatorState(m, eta_a), osc.OscillatorState(n, eta_b)
        want, scale = meshgrid_overlap(a, b, grid)
        assert abs(osc.overlap(a, b, grid) - want) <= 4 * math.ulp(scale)


@pytest.mark.parametrize("flip", [False, True])
def test_overlap_refuses_either_state_whose_reach_overflows(flip):
    # e^0 keeps (|z| + |t|) e^|eta| finite on this window, e^5 does not; the pair is odd,
    # so the refusal comes before its exact 0
    grid = osc.GridSpec(-1e306, 1e306, -1e306, 1e306, 16, 16)
    near, far = osc.OscillatorState(0, 0.0), osc.OscillatorState(1, 5.0)
    assert math.isfinite(osc.overlap(near, near, grid))
    with pytest.raises(ValueError, match="window too wide"):
        osc.overlap(*((far, near) if flip else (near, far)), grid)


def meshgrid_widths(field):
    """The light-cone widths as the sum over a full meshgrid."""
    zz, tt = field.grid.meshgrid()
    wz, wt = field.grid.trapezoid_weights()
    weight = np.abs(field.values) ** 2 * wz[:, None] * wt[None, :]
    mass = weight.sum()
    return (math.sqrt(np.sum(((zz + tt) / SQRT2) ** 2 * weight) / mass),
            math.sqrt(np.sum(((zz - tt) / SQRT2) ** 2 * weight) / mass))


@pytest.mark.parametrize("n_z, n_t", [(16, 20), (333, 517), (600, 64)])
def test_blocked_widths_equal_meshgrid_sum(n_z, n_t):
    grid = osc.GridSpec(-7.0, 9.0, -8.0, 6.5, n_z, n_t)
    rng = np.random.default_rng(n_z)
    values = rng.normal(size=(n_z, n_t)) + 1j * rng.normal(size=(n_z, n_t))
    fields = [osc.ScalarField(grid, values, None, osc.MOMENTUM_ENERGY),
              osc.sample_wavefunction(osc.OscillatorState(2, 0.8), grid)]
    for field in fields:
        got, want = osc.lightcone_widths(field), meshgrid_widths(field)
        assert got == pytest.approx(want, rel=1e-12)


def test_real_field_transform_matches_complex_path():
    field = osc.sample_wavefunction(osc.OscillatorState(2, 0.9),
                                    osc.GridSpec.for_rapidity(0.9, 200))
    as_complex = osc.ScalarField(field.grid, field.values.astype(complex),
                                 field.state, osc.SPACE_TIME)
    momentum_grid = osc.GridSpec.for_rapidity(0.9, 65)
    real = ms.fourier_numeric(field, momentum_grid).values
    complex_ = ms.fourier_numeric(as_complex, momentum_grid).values
    assert np.abs(real - complex_).max() <= 1e-13


def two_kernel_transform(field, momentum_grid):
    """The dense float64 quadrature: one complex exp kernel per axis."""
    z, t = field.grid.z_axis, field.grid.t_axis
    wz, wt = field.grid.trapezoid_weights()
    qz, q0 = momentum_grid.z_axis, momentum_grid.t_axis
    kernel_z = np.exp(-1j * np.outer(z, qz)) * wz[:, None]
    kernel_t = np.exp(1j * np.outer(q0, t)) * wt
    if np.iscomplexobj(field.values):
        half = field.values.T @ kernel_z
    else:
        half = (field.values.T @ kernel_z.view(float)).view(complex)
    return (half.T @ kernel_t.T) / (2.0 * math.pi)


def long_double_transform(field, momentum_grid):
    """The same trapezoid sum with nodes, weights, phases and sums in long double."""
    ld = np.longdouble

    def axis(lo, hi, n):
        nodes = np.linspace(ld(lo), ld(hi), n)
        weights = np.full(n, (ld(hi) - ld(lo)) / (n - 1))
        weights[[0, -1]] /= 2
        return nodes, weights

    g, m = field.grid, momentum_grid
    z, wz = axis(g.z_min, g.z_max, g.n_z)
    t, wt = axis(g.t_min, g.t_max, g.n_t)
    (qz, _), (q0, _) = axis(m.z_min, m.z_max, m.n_z), axis(m.t_min, m.t_max, m.n_t)
    kernel_z = np.exp(-1j * np.outer(qz, z).astype(np.clongdouble)) * wz
    kernel_t = np.exp(1j * np.outer(t, q0).astype(np.clongdouble)) * wt[:, None]
    return kernel_z @ field.values.astype(np.clongdouble) @ kernel_t / (2 * np.pi)


def square_case(n, eta, n_space=200, n_mom=65):
    field = osc.sample_wavefunction(osc.OscillatorState(n, eta),
                                    osc.GridSpec.for_rapidity(eta, n_space))
    return field, osc.GridSpec.for_rapidity(eta, n_mom)


def window_case(space, momentum, complex_=False):
    field = osc.sample_wavefunction(osc.OscillatorState(2, 0.4), osc.GridSpec(*space))
    if complex_:
        values = field.values * np.exp(0.3j * field.grid.z_axis)[:, None]
        field = osc.ScalarField(field.grid, values, None, osc.SPACE_TIME)
    return field, osc.GridSpec(*momentum)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no finer than float64 here")
@pytest.mark.parametrize("case", [
    lambda: square_case(0, 0.0),
    lambda: square_case(3, 2.3),
    lambda: square_case(1, 8.0),
    lambda: square_case(2, 0.7, 201, 64),                                  # odd in, even out
    lambda: window_case((-7.0, 8.0, -9.0, 7.5, 121, 140), (-4.0, 5.0, -3.5, 4.5, 40, 53)),
    lambda: window_case((-6.0, 6.0, -7.0, 7.0, 101, 90), (-3.0, 3.0, -2.0, 2.5, 33, 48)),
    lambda: window_case((-7.0, 8.0, -9.0, 7.5, 121, 140), (-4.0, 5.0, -3.5, 4.5, 40, 53),
                        complex_=True),
], ids=["rest", "eta2.3", "eta8", "odd-even", "off-centre", "non-square", "complex"])
def test_transform_is_as_accurate_as_the_dense_quadrature(case):
    field, momentum_grid = case()
    oracle = long_double_transform(field, momentum_grid)
    err = float(np.abs(ms.fourier_numeric(field, momentum_grid).values - oracle).max())
    dense = float(np.abs(two_kernel_transform(field, momentum_grid) - oracle).max())
    assert err <= 2.0 * dense + 1e-15 * float(np.abs(oracle).max())


@pytest.mark.parametrize("complex_", [False, True])
def test_column_blocks_do_not_change_the_transform(monkeypatch, complex_):
    field, momentum_grid = window_case((-7.0, 8.0, -9.0, 7.5, 121, 140),
                                       (-4.0, 5.0, -3.5, 4.5, 40, 53), complex_)
    whole = ms.fourier_numeric(field, momentum_grid).values
    monkeypatch.setattr(ms, "FOLD_POINTS", 61 * 9)  # 9 columns a block, the last one short
    blocked = ms.fourier_numeric(field, momentum_grid).values
    assert np.abs(blocked - whole).max() <= 1e-15 * np.abs(whole).max()


@pytest.mark.parametrize("space, momentum", [
    ((-7.0, 8.0, -9.0, 7.5, 301, 340), (-4.0, 5.0, -3.5, 4.5, 40, 52)),
    ((-8.0, 8.0, -8.0, 8.0, 301, 340), (-4.0, 4.0, -4.0, 4.0, 40, 52)),
])
def test_non_square_window_transform_matches_closed_form(space, momentum):
    eta = 0.4
    field = osc.sample_wavefunction(osc.OscillatorState(0, eta), osc.GridSpec(*space))
    momentum_grid = osc.GridSpec(*momentum)
    mom = ms.fourier_numeric(field, momentum_grid)
    analytic = ms.sample_momentum_wavefunction(eta, momentum_grid)
    central = ms.central_region_mask(momentum_grid, eta)
    assert np.abs(np.abs(mom.values) - analytic.values)[central].max() <= 1e-6


def full_fold(field, momentum_grid):
    """fourier_numeric without its parity path: the z fold over every column, then
    all four t products.  Also says whether this machine's products keep the field's
    exact parity: the fold's columns mirror exactly, and folding the upper columns
    alone gives the same numbers as folding them all."""
    g, m = field.grid, momentum_grid
    (cz, zeta), (ct, tau) = (osc._centred(g.z_min, g.z_max, g.n_z),
                             osc._centred(g.t_min, g.t_max, g.n_t))
    (cqz, kappa), (cq0, lam) = (osc._centred(m.z_min, m.z_max, m.n_z),
                                osc._centred(m.t_min, m.t_max, m.n_t))
    wz, wt = g.trapezoid_weights()
    with np.errstate(over="ignore", invalid="ignore"):
        cos_z, sin_z = ms._parity_kernels(zeta, wz, kappa)
        cos_t, sin_t = ms._parity_kernels(tau, wt, lam)
        values = field.values
        if cqz or cq0:
            values = values * np.exp(-1j * cqz * zeta)[:, None] * np.exp(1j * cq0 * tau)
        hc, hs = ms._fold(values, cos_z, sin_z)
        h = g.n_t // 2
        upper = ms._fold(values[:, h:], cos_z, sin_z)
        kept = all(np.array_equal(abs(x[:, h:]), abs(x[:, :g.n_t - h][:, ::-1]))
                   and np.array_equal(x[:, h:], y) for x, y in zip((hc, hs), upper))
        cc, cs = (x.T for x in ms._fold(hc.T, cos_t, sin_t))
        sc, ss = (x.T for x in ms._fold(hs.T, cos_t, sin_t))
        even, odd, i_diff, i_sum = cc + ss, cc - ss, 1j * (cs - sc), 1j * (cs + sc)
        out = np.empty((m.n_z, m.n_t), complex)
        up_z, lo_z = slice(m.n_z // 2, None), slice((m.n_z - 1) // 2, None, -1)
        up_t, lo_t = slice(m.n_t // 2, None), slice((m.n_t - 1) // 2, None, -1)
        out[up_z, up_t], out[up_z, lo_t] = even + i_diff, odd - i_sum
        out[lo_z, up_t], out[lo_z, lo_t] = odd + i_sum, even - i_diff
        out /= 2.0 * math.pi
        if cz or ct:
            out *= np.outer(np.exp(-1j * cz * (cqz + kappa)), np.exp(1j * ct * (cq0 + lam)))
    return out, kept


CENTRED_WINDOWS = [
    ((-12.0, 12.0, -12.0, 12.0, 512, 512), (-6.0, 6.0, -6.0, 6.0, 257, 257)),  # default sizes
    ((-6.0, 6.0, -7.0, 7.0, 201, 200), (-4.0, 4.0, -3.0, 3.0, 64, 65)),   # odd and even counts
    ((-6.0, 6.0, -7.0, 7.0, 40, 41), (-3.0, 3.0, -2.0, 2.0, 33, 32)),
    ((-6.0, 6.0, -7.0, 7.0, 257, 300), (-4.0, 4.0, -3.0, 3.0, 65, 80)),
]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7])
@pytest.mark.parametrize("space, momentum", CENTRED_WINDOWS)
def test_parity_path_equals_the_full_fold(n, space, momentum):
    field = osc.sample_wavefunction(osc.OscillatorState(n, 0.7), osc.GridSpec(*space))
    want, kept = full_fold(field, osc.GridSpec(*momentum))
    got = ms.fourier_numeric(field, osc.GridSpec(*momentum)).values
    if kept:
        assert np.array_equal(got, want)
    else:  # the full fold's "zero" products are rounding noise, the parity path's exact zeros
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("space, momentum", CENTRED_WINDOWS + [
    ((-6.0, 6.0, -7.0, 7.0, 201, 200), (-4.0, 5.0, -3.0, 3.0, 64, 65)),  # off-centre momenta
])
def test_a_field_without_exact_parity_takes_the_full_fold(space, momentum):
    grid = osc.GridSpec(*space)
    values = np.random.default_rng(grid.n_t).normal(size=(grid.n_z, grid.n_t))
    fields = [osc.ScalarField(grid, values, None, osc.SPACE_TIME),
              osc.ScalarField(grid, values + 1j * values[::-1], None, osc.SPACE_TIME)]
    # an exactly even field, one entry of it an ulp off, in a column the parity path skips
    even = osc.sample_wavefunction(osc.OscillatorState(2, 0.7), grid).values.copy()
    for i, j in [(grid.n_z // 2 + 3, grid.n_t // 2 - 5), (grid.n_z // 3, grid.n_t // 3)]:
        nudged = even.copy()
        nudged[i, j] = np.nextafter(nudged[i, j], np.inf)
        fields.append(osc.ScalarField(grid, nudged, None, osc.SPACE_TIME))
    for field in fields:
        want, _ = full_fold(field, osc.GridSpec(*momentum))
        assert np.array_equal(ms.fourier_numeric(field, osc.GridSpec(*momentum)).values, want)


def test_exact_parity_folds_half_the_columns_and_two_products(monkeypatch):
    grid, momentum_grid = osc.GridSpec.for_rapidity(0.7, 200), osc.GridSpec.for_rapidity(0.7, 65)
    calls, fold = [], ms._fold
    monkeypatch.setattr(ms, "_fold", lambda g, cos_w, sin_w, parity=0: calls.append(
        (g.shape, parity)) or fold(g, cos_w, sin_w, parity))
    for n, p in [(0, 1), (1, -1)]:
        calls.clear()
        ms.fourier_numeric(osc.sample_wavefunction(osc.OscillatorState(n, 0.7), grid),
                           momentum_grid)
        assert calls == [((200, 100), 0), ((100, 33), p), ((100, 33), -p)]
    field = osc.sample_wavefunction(osc.OscillatorState(1, 0.7), grid)
    field.values[0, 0] = 1.0
    calls.clear()
    ms.fourier_numeric(field, momentum_grid)
    assert calls == [((200, 200), 0), ((200, 33), 0), ((200, 33), 0)]


@pytest.mark.parametrize("space, momentum, pairs", [
    ((-8.0, 8.0, -8.0, 8.0, 100, 100), (-3.0, 3.0, -3.0, 3.0, 33, 33), 1),
    ((-8.0, 8.0, -8.0, 8.0, 100, 101), (-3.0, 3.0, -3.0, 3.0, 33, 33), 2),
    ((-8.0, 8.0, -8.0, 8.0, 100, 100), (-3.0, 3.0, -3.0, 3.5, 33, 33), 2),
])
def test_a_square_window_builds_one_kernel_pair(monkeypatch, space, momentum, pairs):
    calls, kernels = [], ms._parity_kernels
    monkeypatch.setattr(ms, "_parity_kernels", lambda *a: calls.append(1) or kernels(*a))
    field = osc.sample_wavefunction(osc.OscillatorState(0, 0.5), osc.GridSpec(*space))
    got = ms.fourier_numeric(field, osc.GridSpec(*momentum)).values
    assert len(calls) == pairs
    assert np.array_equal(got, full_fold(field, osc.GridSpec(*momentum))[0])


@pytest.mark.parametrize("values, window", [
    (np.pad([[np.nan]], ((7, 8), (8, 7))), (-1.0, 1.0, -1.0, 1.0)),  # NaN breaks the parity
    (np.zeros((16, 16)), (-1e160, 1e160, -1e160, 1e160)),  # even and odd; the phases overflow
])
def test_parity_path_still_refuses(values, window):
    grid = osc.GridSpec(*window, 16, 16)
    message = "overflow on this window" if np.isfinite(values).all() else "needs a finite field"
    with pytest.raises(ValueError, match=message):
        ms.fourier_numeric(osc.ScalarField(grid, values, None, osc.SPACE_TIME), grid)


def test_central_mask_equals_meshgrid_mask():
    grid = osc.GridSpec(-9.0, 7.0, -5.0, 12.0, 40, 33)
    qz, q0 = grid.meshgrid()
    bound = 4.0 * math.sqrt(osc.marginal_variance(0.6))
    want = (np.abs(qz) <= bound) & (np.abs(q0) <= bound)
    assert np.array_equal(ms.central_region_mask(grid, 0.6), want)


# ---------------------------------------------------------------------------
# memory: no grid-sized temporaries
# ---------------------------------------------------------------------------

def test_large_grid_sample_and_transform_memory():
    grid = osc.GridSpec.for_rapidity(3.0, 2048)
    output = grid.n_z * grid.n_t * 8
    tracemalloc.start()
    try:
        field = osc.sample_wavefunction(osc.OscillatorState(4, 3.0), grid)
        _, sample_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        held, _ = tracemalloc.get_traced_memory()
        ms.fourier_numeric(field, osc.GridSpec.for_rapidity(3.0, 65))
        _, transform_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sample_peak <= 1.1 * output + MIB
    assert transform_peak - held <= 16 * MIB


@pytest.mark.parametrize("eta", [2.5, 4.0])
def test_banded_sample_memory(eta):
    # the band is sliced from the 1-D axes: no grid-sized index or gather array
    grid = osc.GridSpec.for_rapidity(eta, 2048)
    tracemalloc.start()
    try:
        osc.sample_wavefunction(osc.OscillatorState(4, eta), grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * grid.n_z * grid.n_t * 8 + MIB


def test_overlap_makes_no_grid_sized_array():
    # a 512^2 array is 2 MiB; the streamed reduction holds a block or two of the band
    grid = osc.GridSpec.for_rapidity(4.0)
    a, b = osc.OscillatorState(0, 4.0), osc.OscillatorState(2, 4.0)
    for call in (lambda: osc.overlap(a, b, grid), lambda: osc.normalization(a)):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * MIB
