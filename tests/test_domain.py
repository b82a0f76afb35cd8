"""The domain rules: every entry point returns finite numbers or refuses.

For any float input, and any key where a label is expected, each entry
point below either returns values that are all finite or raises ValueError.  pyproject.toml turns a
RuntimeWarning into an error, so a warning fails these properties too.
The @examples are inputs that once gave NaN, inf, a warning, an
OverflowError, a TypeError or an AttributeError, or a bool read as a number.
"""

import dataclasses
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from littlegroup import lorentz_algebra as la
from littlegroup import momentum_space as ms
from littlegroup import oscillator as osc
from littlegroup import parton

any_float = st.floats()
# st.floats() alone seldom lands near the rapidity bound
rapidity = st.one_of(st.floats(), st.floats(-400.0, 400.0))
excitation = st.one_of(st.integers(-2, osc.MAX_EXCITATION + 3), st.booleans())
SMALL_GRID = osc.GridSpec(-4.0, 4.0, -4.0, 4.0, 16, 16)


def finite(x) -> bool:
    """Whether every number in x, through dataclass fields, tuples and arrays, is finite."""
    if dataclasses.is_dataclass(x):
        return all(finite(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, tuple):
        return all(map(finite, x))
    if x is None or isinstance(x, str):
        return True
    return bool(np.isfinite(x).all())


def refuse_or_vouch(fn, *args):
    """fn(*args) when every number it returns is finite, None when it refuses."""
    try:
        out = fn(*args)
    except ValueError:
        return None
    assert finite(out), (fn, args, out)
    return out


@settings(deadline=None)
@given(rapidity, any_float, any_float)
@example(800.0, 1.0, 1.0)           # OverflowError: OscillatorState(0, 800), covers_tails(800)
@example(0.0, 1.6e131, 8.9e-178)    # energy / mass overflows: the beam rapidity read inf
@example(None, 1.0, 1.0)            # OscillatorState(0, None), coherence_ratio(None): TypeError
@example(0.0, 10**400, 1.0)         # BeamSpec(10**400, 1.0): OverflowError from math.isfinite
@example(True, 1.0, 1.0)            # OscillatorState read True as eta = 1
def test_every_rapidity_is_refused_or_vouched_for(eta, energy, mass):
    refuse_or_vouch(lambda: parton.rapidity_from_beam(parton.BeamSpec(energy, mass)))
    # a bool is no rapidity: refused, not read as 0 or 1
    assert refuse_or_vouch(osc.OscillatorState, 0, eta) is None or not isinstance(eta, bool)
    refuse_or_vouch(osc.GridSpec.for_rapidity, eta, 16)
    refuse_or_vouch(SMALL_GRID.covers_tails, eta)
    refuse_or_vouch(lambda: osc.normalization(osc.OscillatorState(0, eta), SMALL_GRID))
    for law in (parton.period_dilation, parton.interaction_time_contraction,
                parton.coherence_ratio, parton.marginal_variance,
                la.contracted_generator, la.contraction_residual):
        refuse_or_vouch(law, eta)
    refuse_or_vouch(ms.sample_momentum_wavefunction, eta, SMALL_GRID)


@settings(deadline=None)
@given(excitation, rapidity, any_float, any_float)
@example(1, 0.0, 1e308, 1e308)          # NaN, with two warnings
@example(2, 300.0, 0.0, 1e200)          # NaN the same way
@example(0, 1.0, 8.99e307, 8.99e307)    # z + t overflows
@example(30, 0.0, 1e200, 0.0)           # H_30: NaN, with overflow and invalid-value warnings
@example(21, 0.0, 2.4e14, 0.0)          # H_21: an overflow warning
@example(3, 0.0, math.nan, 0.0)         # H_3: NaN
@example(0, 0.0, 1e308, 1e308)          # lightcone, q_u: (z + t)/sqrt2 read inf; so did its inverse
@example(True, 0.0, 0.5, 0.0)           # OscillatorState and hermite read True as n = 1
def test_every_point_is_refused_or_vouched_for(n, eta, z, t):
    # a bool is no excitation number: refused, not read as 0 or 1
    assert refuse_or_vouch(osc.OscillatorState, n, eta) is None or not isinstance(n, bool)
    refuse_or_vouch(lambda: osc.boosted_wavefunction(osc.OscillatorState(n, eta), z, t))
    refuse_or_vouch(lambda: osc.boosted_wavefunction(osc.OscillatorState(n, eta),
                                                     np.array([0.0, z]), t))
    refuse_or_vouch(osc.rest_wavefunction, n, z, t)
    refuse_or_vouch(osc.boost_lightcone, eta, osc.LightConePoint(z, t))
    refuse_or_vouch(osc.lightcone, z, t)
    refuse_or_vouch(osc.lightcone_inverse, osc.LightConePoint(z, t))
    refuse_or_vouch(lambda: (ms.MomentumPoint(z, t).q_u, ms.MomentumPoint(z, t).q_v))
    refuse_or_vouch(ms.momentum_wavefunction, eta, ms.MomentumPoint(z, t))
    refuse_or_vouch(osc.hermite, n, z)
    refuse_or_vouch(osc.hermite, n, np.array([0.5, z]))


@settings(deadline=None)
@given(st.integers(0, osc.MAX_EXCITATION), rapidity,
       st.one_of(st.none(), st.tuples(any_float, any_float, any_float, any_float)),
       st.one_of(st.just(16), st.integers(-1, 40), st.floats(0.0, 64.0)))
@example(0, 0.0, (100.0, 101.0, 100.0, 101.0), 16)  # no weight on the grid: NaN widths
@example(0, 200.0, None, 16)                        # moments overflow on the default window
@example(0, 0.0, (-1.0, 1.0, -1.0, 1.0), 16.5)      # the grid built, then TypeError at sampling
@example(0, 0.0, (-1.0, 1.0, -1.0, 1.0), 16.0)      # so did an integral float count
def test_every_window_is_refused_or_vouched_for(n, eta, window, n_z):
    def widths():
        grid = (osc.GridSpec.for_rapidity(eta, 64) if window is None
                else osc.GridSpec(*window, n_z, 16))
        return osc.lightcone_widths(osc.sample_wavefunction(osc.OscillatorState(n, eta), grid))
    refuse_or_vouch(widths)


@settings(deadline=None)
@given(st.tuples(any_float, any_float, any_float, any_float),
       st.one_of(st.none(), st.tuples(any_float, any_float, any_float, any_float)),
       any_float)
@example((-1e160, 1e160, -1e160, 1e160), None, 1.0)  # phases overflow: 256 NaN, warnings
def test_every_transform_is_refused_or_vouched_for(window, momentum_window, value):
    def transform():
        grid = osc.GridSpec(*window, 16, 16)
        momentum = grid if momentum_window is None else osc.GridSpec(*momentum_window, 16, 16)
        field = osc.ScalarField(grid, np.full((16, 16), value), None, osc.SPACE_TIME)
        return ms.fourier_numeric(field, momentum)
    refuse_or_vouch(transform)


labels = st.one_of(st.sampled_from(la.GENERATOR_LABELS + la.PLANAR_LABELS), st.text(),
                   st.lists(st.sampled_from(la.GENERATOR_LABELS), max_size=2), st.none(),
                   st.integers(), st.just(la.planar_generator("L")))


@settings(deadline=None)
@given(labels, any_float, st.tuples(any_float, any_float, any_float, any_float))
@example(["J1"], 1.0, (0.0, 0.0, 0.0, 1.0))          # generator: TypeError, unhashable
@example(None, 1.0, (0.0, 0.0, 0.0, 1.0))            # group_element: AttributeError
@example("K3", 700.0, (0.0, 0.0, 1e10, 1e10))        # the product overflows, with a warning
@example("J3", 1.0, (math.nan, 0.0, 0.0, 0.0))       # NaN components and residual
@example(np.array("J1"), 1.0, (0.0, 0.0, 0.0, 1.0))  # equal to "J1", yet unhashable
@example("J3", math.pi, (1e308, 0.0, 0.0, 0.0))      # a finite image; the distance overflows
@example("J2", None, (0.0, 0.0, 0.0, 1.0))           # group_element, the contraction: TypeError
@example("J3", 1.0, (10**400, 0.0, 0.0, 0.0))        # transform: OverflowError from float()
def test_every_label_and_four_vector_is_refused_or_vouched_for(label, theta, components):
    refuse_or_vouch(la.generator, label)
    refuse_or_vouch(la.planar_generator, label)
    elem = refuse_or_vouch(la.group_element, label, theta)
    if elem is not None:
        p = la.FourVector(*components)
        refuse_or_vouch(elem.transform, p)
        refuse_or_vouch(la.invariance_residual, elem, p)
        refuse_or_vouch(la.leaves_invariant, elem, p, 1e-9)
    refuse_or_vouch(la.contraction_limit, label)
    refuse_or_vouch(la.contracted_generator, theta, label)
    refuse_or_vouch(la.contraction_residual, theta, label)


@settings(deadline=None)
@given(st.sets(st.sampled_from(la.GENERATOR_LABELS)), any_float)
@example({"J1", "J2"}, 1e200)   # [J1 J2] overflows: inf and NaN, with two warnings
def test_every_scaled_generator_mapping_is_refused_or_vouched_for(labels, scale):
    with np.errstate(invalid="ignore"):  # inf times a zero entry: a NaN matrix, refused
        mats = {k: scale * m if k in labels else m for k, m in la.GENERATOR_MATRICES.items()}
    refuse_or_vouch(lambda: tuple(r for _, r in la.relation_residuals(mats)))
