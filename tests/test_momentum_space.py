"""Momentum variables, the closed-form momentum Gaussian, and the transform."""

import math

import numpy as np
import pytest

from littlegroup.lorentz_algebra import FourVector
from littlegroup import momentum_space as ms
from littlegroup import oscillator as osc

SQRT2 = math.sqrt(2.0)
PEAK_VALUE = 0.5641895835477563  # (1/pi)^(1/2)


# ---------------------------------------------------------------------------
# momentum variables
# ---------------------------------------------------------------------------

def test_lightcone_momentum_components():
    q = ms.MomentumPoint(0.7, -0.2)
    assert q.q_u == pytest.approx((0.7 - 0.2) / SQRT2, abs=1e-14)
    assert q.q_v == pytest.approx((0.7 + 0.2) / SQRT2, abs=1e-14)


def test_lightcone_momentum_round_trip():
    rng = np.random.default_rng(2)
    for qz, q0 in rng.normal(size=(50, 2)) * 3:
        q = ms.MomentumPoint(qz, q0)
        assert (q.q_u + q.q_v) / SQRT2 == pytest.approx(qz, abs=1e-14)
        assert (q.q_u - q.q_v) / SQRT2 == pytest.approx(q0, abs=1e-14)


def test_lightcone_momentum_refuses_an_overflowing_point():
    q = ms.MomentumPoint(1e308, 1e308)  # q_u read inf
    for read in (lambda: q.q_u, lambda: q.q_v):
        with pytest.raises(ValueError, match="not finite"):
            read()


def test_pair_momenta_equal_momenta():
    p = FourVector(0.1, 0.2, 0.3, 1.0)
    total, sep = ms.pair_momenta(ms.QuarkPairMomenta(p, p))
    assert total == 2.0 * p
    assert sep == FourVector(0.0, 0.0, 0.0, 0.0)


def test_pair_momenta_example():
    pair = ms.QuarkPairMomenta(FourVector(0, 0, 1.0, 1.0),
                               FourVector(0, 0, 0.0, 1.0))
    total, sep = ms.pair_momenta(pair)
    assert total == FourVector(0.0, 0.0, 1.0, 2.0)
    assert sep.z == pytest.approx(1.4142135623730951, abs=1e-15)
    assert (sep.x, sep.y, sep.t) == (0.0, 0.0, 0.0)


def test_pair_momenta_linear():
    a = FourVector(1.0, -1.0, 0.5, 2.0)
    b = FourVector(0.0, 2.0, 1.0, 3.0)
    t1, s1 = ms.pair_momenta(ms.QuarkPairMomenta(a, b))
    t2, s2 = ms.pair_momenta(ms.QuarkPairMomenta(2.0 * a, 2.0 * b))
    assert t2.as_array() == pytest.approx(2.0 * t1.as_array())
    assert s2.as_array() == pytest.approx(2.0 * s1.as_array())


# ---------------------------------------------------------------------------
# closed-form momentum wave function
# ---------------------------------------------------------------------------

def test_momentum_peak_value():
    assert ms.momentum_wavefunction(0.0, ms.MomentumPoint(0.0, 0.0)) \
        == pytest.approx(PEAK_VALUE, abs=1e-15)
    assert ms.momentum_wavefunction(1.3, ms.MomentumPoint(0.0, 0.0)) \
        == pytest.approx(PEAK_VALUE, abs=1e-15)


def test_momentum_wavefunction_is_the_oscillator_kernel():
    rng = np.random.default_rng(5)
    for eta, (qz, q0) in zip((0.0, 0.9, -2.1), rng.normal(size=(3, 2))):
        got = ms.momentum_wavefunction(eta, ms.MomentumPoint(qz, q0))
        assert got == osc.boosted_wavefunction(osc.OscillatorState(0, eta), qz, q0)
    with pytest.raises(ValueError, match=r"^momentum_wavefunction needs \|eta\| <= 350$"):
        ms.momentum_wavefunction(400.0, ms.MomentumPoint(0.0, 0.0))


def test_momentum_isotropic_at_rest():
    rng = np.random.default_rng(4)
    for qz, q0 in rng.normal(size=(20, 2)):
        radius = math.hypot(qz, q0)
        val = ms.momentum_wavefunction(0.0, ms.MomentumPoint(qz, q0))
        ref = ms.momentum_wavefunction(0.0, ms.MomentumPoint(radius, 0.0))
        assert val == pytest.approx(ref, rel=1e-12)


def test_momentum_elongated_along_positive_lightcone_axis():
    eta = 1.0
    on_qu = ms.momentum_wavefunction(eta, ms.MomentumPoint(1 / SQRT2, 1 / SQRT2))
    on_qv = ms.momentum_wavefunction(eta, ms.MomentumPoint(1 / SQRT2, -1 / SQRT2))
    assert on_qu > on_qv  # slower decay along q_u for eta > 0


def test_same_squeeze_exponents_as_space_time():
    # the momentum quadratic form carries the same exp(-2 eta), exp(2 eta)
    # factors as the space-time Gaussian
    eta = 0.8
    mom = ms.momentum_wavefunction(eta, ms.MomentumPoint(1 / SQRT2, 1 / SQRT2))
    space = osc.boosted_wavefunction(osc.OscillatorState(0, eta),
                                     1 / SQRT2, 1 / SQRT2)
    assert mom == pytest.approx(space, rel=1e-12)


# ---------------------------------------------------------------------------
# numeric Fourier transform
# ---------------------------------------------------------------------------

def transform_setup(eta, n_space=512, n_mom=257):
    space_grid = osc.GridSpec.for_rapidity(eta, n_space)
    momentum_grid = osc.GridSpec.for_rapidity(eta, n_mom)
    field = osc.sample_wavefunction(osc.OscillatorState(0, eta), space_grid)
    return field, ms.fourier_numeric(field, momentum_grid)


@pytest.mark.parametrize("eta", [0.0, 0.5, 1.0])
def test_transform_modulus_matches_closed_form(eta):
    field, mom = transform_setup(eta)
    analytic = ms.sample_momentum_wavefunction(eta, mom.grid)
    central = ms.central_region_mask(mom.grid, eta)
    err = np.abs(np.abs(mom.values) - analytic.values)[central].max()
    assert err <= 1e-6


@pytest.mark.parametrize("eta", [0.0, 0.5, 1.0])
def test_parseval(eta):
    field, mom = transform_setup(eta)
    assert osc.power_integral(mom) == pytest.approx(osc.power_integral(field),
                                                    abs=1e-5)


def test_rest_transform_real_and_positive():
    # Gaussian maps to Gaussian: imaginary part at quadrature noise level
    _, mom = transform_setup(0.0)
    center = np.abs(mom.values.imag).max()
    assert center < 1e-9
    mid = mom.grid.n_z // 2
    assert mom.values.real[mid, mid] > 0.5


def test_transform_error_falls_with_resolution():
    errors = []
    for n_space in (64, 128, 256):
        field, mom = transform_setup(1.0, n_space=n_space, n_mom=129)
        analytic = ms.sample_momentum_wavefunction(1.0, mom.grid)
        errors.append(float(np.abs(np.abs(mom.values) - analytic.values).max()))
    for coarse, fine in zip(errors, errors[1:]):
        assert fine <= coarse / 4.0 or fine <= 1e-8


@pytest.mark.parametrize("n, eta, half", [(30, 0.2, 16.0), (7, 0.6, 14.0), (3, -0.7, 16.0)])
def test_transform_is_the_closed_form_times_its_phase(n, eta, half):
    # Hermite functions are Fourier eigenfunctions: phi_n = (-i)^n psi_n at (q_u, q_v),
    # so on the same window the closed form is the space-time samples themselves
    grid = osc.GridSpec(-half, half, -half, half, 1024, 1024)
    field = osc.sample_wavefunction(osc.OscillatorState(n, eta), grid)
    mom = ms.fourier_numeric(field, grid)
    assert np.abs(mom.values - (-1j) ** n * field.values).max() <= 1e-12


def test_transform_requires_space_time_field():
    field, mom = transform_setup(0.5, n_space=64, n_mom=64)
    with pytest.raises(ValueError):
        ms.fourier_numeric(mom, mom.grid)


def test_transform_propagates_tail_warning():
    narrow = osc.GridSpec(-3, 3, -3, 3, 64, 64)
    field = osc.sample_wavefunction(osc.OscillatorState(0, 0.0), narrow)
    assert not field.tail_ok
    mom = ms.fourier_numeric(field, osc.GridSpec.for_rapidity(0.0, 64))
    assert not mom.tail_ok


def test_momentum_sample_flags_a_window_short_of_the_tails():
    narrow = osc.GridSpec(-3, 3, -3, 3, 64, 64)
    assert not ms.sample_momentum_wavefunction(0.0, narrow).tail_ok
    assert ms.sample_momentum_wavefunction(1.0, osc.GridSpec.for_rapidity(1.0, 64)).tail_ok


def test_momentum_widths_mirror_space_widths():
    # both representations concentrate along their positive light-cone
    # axes with the same anisotropy
    eta = 1.0
    space_grid = osc.GridSpec.for_rapidity(eta)
    space = osc.sample_wavefunction(osc.OscillatorState(0, eta), space_grid)
    s_u, s_v = osc.lightcone_widths(space)
    mom = ms.sample_momentum_wavefunction(eta, osc.GridSpec.for_rapidity(eta))
    m_u, m_v = osc.lightcone_widths(mom)
    assert s_u / s_v == pytest.approx(math.exp(2 * eta), abs=1e-9)
    assert m_u / m_v == pytest.approx(math.exp(2 * eta), abs=1e-9)
