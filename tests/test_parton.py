"""Beam kinematics and the decoherence scaling laws."""

import math

import pytest

from littlegroup import parton

# frozen kinematics oracle: arccosh(900 / 0.938) = ln(E/m + sqrt((E/m)^2 - 1))
FERMILAB_RAPIDITY = 7.559547002303268
FERMILAB_RATIO = 2.7155693760973723e-07


def test_rapidity_zero_at_threshold():
    assert parton.rapidity_from_beam(parton.BeamSpec(0.938, 0.938)) == 0.0


def test_rapidity_of_900_gev_proton():
    beam = parton.BeamSpec(900.0, 0.938)
    eta = parton.rapidity_from_beam(beam)
    assert eta == pytest.approx(FERMILAB_RAPIDITY, rel=1e-12)
    # large-energy expansion ln(2 E / m) agrees to the neglected m^2/E^2
    assert eta == pytest.approx(math.log(2 * 900.0 / 0.938), abs=1e-6)


def test_rapidity_equals_atanh_velocity():
    beam = parton.BeamSpec(10.0, 0.938)
    eta = parton.rapidity_from_beam(beam)
    gamma = beam.energy / beam.mass
    velocity = math.sqrt(1.0 - 1.0 / gamma**2)
    assert eta == pytest.approx(math.atanh(velocity), rel=1e-12)


def test_rapidity_monotone_in_energy():
    etas = [parton.rapidity_from_beam(parton.BeamSpec(e, 0.938))
            for e in (1.0, 10.0, 100.0, 900.0)]
    assert etas == sorted(etas)
    assert len(set(etas)) == len(etas)


def test_beam_validation():
    with pytest.raises(ValueError):
        parton.BeamSpec(0.5, 0.938)
    with pytest.raises(ValueError):
        parton.BeamSpec(1.0, 0.0)


@pytest.mark.parametrize("eta", [None, "1.0", True, math.nan, -math.inf,
                                 pytest.param(10**400, id="10**400")])
def test_rapidity_laws_refuse_what_is_not_a_finite_real(eta):
    for law in (parton.period_dilation, parton.interaction_time_contraction,
                parton.coherence_ratio, parton.marginal_variance):
        with pytest.raises(ValueError, match=f"^{law.__name__} eta must be a finite real number$"):
            law(eta)
    with pytest.raises(ValueError, match=r"^coherence_ratio needs \|eta\| <= 350$"):
        parton.coherence_ratio(350.5)  # a finite real past the bound keeps its message


@pytest.mark.parametrize("energy, mass, what", [
    (math.nan, 0.938, "energy"), pytest.param(10**400, 1.0, "energy", id="10**400-1.0-energy"),
    (None, 1.0, "energy"),
    (1.0, math.inf, "mass"), (1.0, True, "mass"), (2.0, "1.0", "mass"),
])
def test_beam_refuses_what_is_not_a_finite_real(energy, mass, what):
    with pytest.raises(ValueError, match=f"^beam {what} must be a finite real number$"):
        parton.BeamSpec(energy, mass)


def test_dilation_and_contraction():
    assert parton.period_dilation(0.0) == 1.0
    assert parton.interaction_time_contraction(0.0) == 1.0
    assert parton.period_dilation(1.0) == pytest.approx(math.e, rel=1e-15)
    assert parton.interaction_time_contraction(FERMILAB_RAPIDITY) \
        == pytest.approx(5.2e-4, rel=1e-2)


def test_dilation_composes_multiplicatively():
    assert parton.period_dilation(1.3) * parton.period_dilation(0.9) \
        == pytest.approx(parton.period_dilation(2.2), rel=1e-14)


def test_dilation_times_contraction_is_one():
    for eta in (0.0, 0.5, 3.0, 7.5):
        assert parton.period_dilation(eta) \
            * parton.interaction_time_contraction(eta) \
            == pytest.approx(1.0, rel=1e-14)


def test_coherence_ratio_identity():
    for eta in (0.0, 0.4, 2.0, 7.559547002303268):
        assert parton.coherence_ratio(eta) == pytest.approx(
            parton.interaction_time_contraction(eta)
            / parton.period_dilation(eta), rel=1e-13)


def test_coherence_ratio_at_rest_and_decreasing():
    assert parton.coherence_ratio(0.0) == 1.0
    ratios = [parton.coherence_ratio(eta) for eta in (0.0, 0.5, 1.0, 2.0, 8.0)]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_fermilab_beam_ratio():
    eta = parton.rapidity_from_beam(parton.BeamSpec(900.0, 0.938))
    ratio = parton.coherence_ratio(eta)
    assert ratio == pytest.approx(FERMILAB_RATIO, rel=1e-12)
    # order-of-magnitude statement: within a factor of ten of 1e-6
    assert 1e-7 <= ratio <= 1e-5


def test_widening_and_decoherence_go_together():
    # the longitudinal spread grows without bound while the coherence
    # ratio drains to zero: both halves of the free-parton appearance
    from littlegroup.oscillator import marginal_variance
    etas = (0.0, 1.0, 2.0, 4.0, 8.0)
    widths = [marginal_variance(eta) for eta in etas]
    ratios = [parton.coherence_ratio(eta) for eta in etas]
    assert all(a < b for a, b in zip(widths, widths[1:]))
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert widths[-1] > 1e6 and ratios[-1] < 1e-6
