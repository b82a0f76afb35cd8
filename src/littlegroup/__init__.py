"""Little-group algebra, boost contraction, and squeezed oscillator numerics.

The package realizes the Lorentz generators and Wigner little groups as
explicit matrices, contracts the massive little group into the massless
one under large boosts, evaluates the covariant harmonic-oscillator wave
functions with their light-cone squeeze in both the space-time and
momentum-energy representations, and quantifies the decoherence scaling
that makes a fast bound state look like free constituents.
"""

from .lorentz_algebra import (
    CONTRACTION_LIMIT_COEFFICIENT,
    FourVector,
    Generator,
    GroupElement,
    PlanarGenerator,
    commutator,
    contracted_generator,
    contraction_limit,
    contraction_residual,
    generator,
    group_element,
    invariance_residual,
    leaves_invariant,
    matrix_exponential,
    planar_commutation_check,
    planar_generator,
    relation_residuals,
    structure_constants,
)
from .momentum_space import (
    MomentumPoint,
    QuarkPairMomenta,
    fourier_numeric,
    momentum_wavefunction,
    pair_momenta,
    sample_momentum_wavefunction,
)
from .oscillator import (
    GridSpec,
    LightConePoint,
    OscillatorState,
    Quadrature,
    QuarkPairCoordinates,
    ScalarField,
    boost_lightcone,
    boosted_wavefunction,
    degeneracy,
    eigenvalue_check,
    hermite,
    lightcone,
    lightcone_inverse,
    lightcone_widths,
    marginal_variance,
    normalization,
    overlap,
    power_integral,
    relative_coordinates,
    rest_wavefunction,
    sample_wavefunction,
)
from .parton import (
    DEFAULT_PROTON_MASS_GEV,
    BeamSpec,
    coherence_ratio,
    interaction_time_contraction,
    period_dilation,
    rapidity_from_beam,
)

__version__ = "0.1.0"
