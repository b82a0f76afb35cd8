"""Little-group algebra, boost contraction, and squeezed oscillator numerics.

The package realizes the Lorentz generators and Wigner little groups as
explicit matrices, contracts the massive little group into the massless
one under large boosts, evaluates the covariant harmonic-oscillator wave
functions with their light-cone squeeze in both the space-time and
momentum-energy representations, and quantifies the decoherence scaling
that makes a fast bound state look like free constituents.

The namespace is lazy: `import littlegroup` loads no layer module and no
numpy.  Reading a public name, or a layer module's own name, imports
the layer that defines it.  Each layer's last statement binds its names
into the package, so every name is the layer's original object, just as
an eager `from .layer import name` would have bound it, even if the
layer's attribute was replaced before the package name was first read.
After that, a name is a plain global of a plain module: reading it costs
what it did when the package imported eagerly.
"""

import sys

__version__ = "0.1.0"

#: layer module -> the public names the package re-exports from it
_LAYERS = {
    "lorentz_algebra": (
        "CONTRACTION_LIMIT_COEFFICIENT", "Generator", "GroupElement",
        "PlanarGenerator", "commutator", "contracted_generator", "contraction_limit",
        "contraction_residual", "generator", "group_element", "invariance_residual",
        "leaves_invariant", "matrix_exponential", "planar_commutation_check",
        "planar_generator", "relation_residuals", "structure_constants",
    ),
    "momentum_space": (
        "MomentumPoint", "QuarkPairMomenta", "fourier_numeric", "momentum_wavefunction",
        "pair_momenta", "sample_momentum_wavefunction",
    ),
    "oscillator": (
        "GridSpec", "LightConePoint", "OscillatorState", "Quadrature",
        "QuarkPairCoordinates", "ScalarField", "boost_lightcone",
        "boosted_wavefunction", "degeneracy", "eigenvalue_check", "hermite",
        "lightcone", "lightcone_inverse", "lightcone_widths", "normalization",
        "overlap", "power_integral", "relative_coordinates", "rest_wavefunction",
        "sample_wavefunction",
    ),
    "parton": (
        "DEFAULT_PROTON_MASS_GEV", "BeamSpec", "FourVector", "coherence_ratio",
        "interaction_time_contraction", "marginal_variance", "period_dilation",
        "rapidity_from_beam",
    ),
}

_LAYER_OF = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = sorted(_LAYER_OF)


def _bind(layer_name):
    """Bind a layer's re-exported names here; the layer's last statement."""
    layer = sys.modules[layer_name]
    names = _LAYERS[layer_name.rpartition(".")[2]]
    globals().update((name, getattr(layer, name)) for name in names)


def __getattr__(name):
    layer = name if name in _LAYERS else _LAYER_OF.get(name)
    if layer is not None:
        __import__(f"{__name__}.{layer}")  # the import path -X importtime reports
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({n for n in globals() if n.startswith("__")} | set(__all__) | set(_LAYERS))
