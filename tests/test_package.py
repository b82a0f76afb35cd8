"""The package namespace: every public name, lazily loaded, is its layer's object."""

import importlib
import subprocess
import sys
import types

import pytest

import littlegroup

#: the names the package has always re-exported, by the layer they come from
EXPORTED = {
    "lorentz_algebra": """CONTRACTION_LIMIT_COEFFICIENT Generator GroupElement
        PlanarGenerator commutator contracted_generator contraction_limit
        contraction_residual generator group_element invariance_residual
        leaves_invariant matrix_exponential planar_commutation_check planar_generator
        relation_residuals structure_constants""",
    "momentum_space": """MomentumPoint QuarkPairMomenta fourier_numeric
        momentum_wavefunction pair_momenta sample_momentum_wavefunction""",
    "oscillator": """GridSpec LightConePoint OscillatorState Quadrature
        QuarkPairCoordinates ScalarField boost_lightcone boosted_wavefunction
        degeneracy eigenvalue_check hermite lightcone lightcone_inverse
        lightcone_widths marginal_variance normalization overlap power_integral
        relative_coordinates rest_wavefunction sample_wavefunction""",
    "parton": """DEFAULT_PROTON_MASS_GEV BeamSpec FourVector coherence_ratio
        interaction_time_contraction period_dilation rapidity_from_beam""",
}
EXPORTED = {layer: names.split() for layer, names in EXPORTED.items()}


def test_all_lists_every_exported_name():
    names = [name for names in EXPORTED.values() for name in names]
    assert sorted(littlegroup.__all__) == sorted(names)
    assert set(names) | set(EXPORTED) | {"__version__"} <= set(dir(littlegroup))
    assert littlegroup.__version__ == "0.1.0"


@pytest.mark.parametrize("layer", sorted(EXPORTED))
def test_every_name_is_the_layer_object(layer):
    module = importlib.import_module(f"littlegroup.{layer}")
    assert getattr(littlegroup, layer) is module
    for name in EXPORTED[layer]:
        assert getattr(littlegroup, name) is getattr(module, name), name


def test_algebra_re_exports_the_base_layer_four_vector():
    import littlegroup.lorentz_algebra
    import littlegroup.parton

    assert littlegroup.lorentz_algebra.FourVector is littlegroup.parton.FourVector


def test_package_is_a_plain_module():
    # the interpreter speeds up attribute reads on exact module objects
    # only; a ModuleType subclass would slow every warm `littlegroup.name`
    assert type(littlegroup) is types.ModuleType


def test_star_import():
    namespace = {}
    exec("from littlegroup import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(littlegroup.__all__)


def test_unknown_attribute_is_named():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        littlegroup.no_such_name
    assert not hasattr(littlegroup, "cli_main")


def test_a_name_is_bound_before_its_layer_can_be_patched():
    # what an eager `from .lorentz_algebra import group_element` gave: the
    # package keeps the original even if the layer's attribute is replaced
    # before the package name is first read
    code = """
import littlegroup
import littlegroup.lorentz_algebra as la
original = la.group_element
la.group_element = lambda *args: None
print(littlegroup.group_element is original)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True\n", "")
