"""Every input guard raises its own error on one bad input.

One case per guard that no other test reaches: the error class is the
contract (the CLI maps each ``ReebcutError`` subclass to an exit code), so
each case names the subclass its guard raises and a fragment of its
message, which pins the guard and not some earlier failure.
"""

import importlib.util
from importlib.machinery import ModuleSpec

import numpy as np
import pytest

from reebcut import (
    BindingChart,
    ConfigurationError,
    ConjugatorSpec,
    ExtensionSettings,
    Frame,
    GridFunction2D,
    HamiltonianIsotopyPath,
    InconclusiveError,
    PreconditionError,
    QuadraticHamiltonian,
    QuotientMapSpec,
    ResolutionError,
    RigidRotationHamiltonian,
    ValidationError,
    cosine_defect_hamiltonian,
    extension_test,
    golden_mean_inverse,
    moser_flow,
    quotient_map,
    rotation_number,
    self_linking,
    stage_sequence,
    zero_integral_fixture,
)
from reebcut import hamiltonians
from reebcut.geometry import as_xy
from reebcut.moser import g_function_values
from reebcut.pseudorotations import boundary_jet_check
from reebcut.reports import RunConfig, parse_hamiltonian

from conftest import SQRT2


def _ellipsoid_model():
    return QuadraticHamiltonian(SQRT2, 2 - SQRT2)


def _edge_mismatch():
    # equal totals, positive, but +-0.5 on two cells of the boundary band
    g1 = np.ones((16, 16))
    g1[0, 0], g1[0, 1] = 1.5, 0.5
    return (GridFunction2D(np.ones((16, 16)), compact=False),
            GridFunction2D(g1, compact=False))


GUARDS = {
    # binding.py
    "BindingChart-h": (PreconditionError, "integer h >= 1",
                       lambda: BindingChart(h=0)),
    "BindingChart-eps": (PreconditionError, "eps must lie in",
                         lambda: BindingChart(h=2, eps=1.5)),
    "extension_test-n_rungs": (
        ConfigurationError, "at least 5 rungs",
        lambda: extension_test(_ellipsoid_model(), BindingChart(h=2),
                               ExtensionSettings(n_rungs=4))),
    "QuotientMapSpec-variant": (PreconditionError, "unknown quotient variant",
                                lambda: QuotientMapSpec("cylinder", 2)),
    "QuotientMapSpec-a0": (PreconditionError, "needs a0 > 0",
                           lambda: QuotientMapSpec("ellipsoid", 2)),
    "quotient_map-r": (
        PreconditionError, "r in \\[0, 1\\]",
        lambda: quotient_map(QuotientMapSpec("hemisphere", 2), 0.0, 1.5, 0.0)),
    # geometry.py
    "as_xy-shape": (PreconditionError, "expected \\(..., 2\\)",
                    lambda: as_xy(np.zeros(3))),
    # hamiltonians.py
    "RigidRotationHamiltonian-h": (PreconditionError, "integer h >= 1",
                                   lambda: RigidRotationHamiltonian(0, 1, 3)),
    "QuinticField-order": (
        PreconditionError, "partial order \\(5, 0\\) outside 0..4",
        lambda: hamiltonians.QuinticField(
            np.linspace(0.0, 1.0, 8), np.linspace(0.0, 1.0, 8),
            np.zeros((8, 8))).ev(5, 0, 0.5, 0.5)),
    "QuinticField-axis": (
        PreconditionError, "spline fit failed, FITPACK ier=10",
        lambda: hamiltonians.QuinticField(
            np.linspace(1.0, 0.0, 8), np.linspace(0.0, 1.0, 8), np.zeros((8, 8)))),
    # invariants.py
    "rotation_number-binding_extension": (
        PreconditionError, "needs a C\\^1 extension",
        lambda: rotation_number(cosine_defect_hamiltonian(2, 0.4, 0.5), "B")),
    "rotation_number-binding_surface_frame": (
        PreconditionError, "surface framing",
        lambda: rotation_number(_ellipsoid_model(), "B", Frame.SURFACE)),
    "rotation_number-point": (
        PreconditionError, "explicit point",
        lambda: rotation_number(_ellipsoid_model(), "periodic")),
    "self_linking-resolution": (
        ResolutionError, "quadrature unreliable",
        lambda: self_linking(QuotientMapSpec("hemisphere", 2),
                             _ellipsoid_model(), push_eps=1e-3, n_samples=4)),
    # 0.117 segments apart: the integral -3.495 was called inconclusive,
    # but at 32 samples the same push-off gave a wrong -7
    "self_linking-segment_ratio": (
        ResolutionError, "0.117 segments apart",
        lambda: self_linking(QuotientMapSpec("hemisphere", 2),
                             _ellipsoid_model(), push_eps=0.01, n_samples=64)),
    # 0.351 segments apart, resolved, and the integral -1.337 is inconclusive
    "self_linking-inconclusive": (
        InconclusiveError, "too far from any integer",
        lambda: self_linking(QuotientMapSpec("hemisphere", 2),
                             _ellipsoid_model(), push_eps=0.01, n_samples=192)),
    # moser.py
    "GridFunction2D-square": (ConfigurationError, "must be square",
                              lambda: GridFunction2D(np.zeros((8, 9)))),
    "zero_integral_fixture-idx": (ConfigurationError, "no fixture 4",
                                  lambda: zero_integral_fixture(4, n=16)),
    "moser_flow-sizes": (
        ConfigurationError, "differ in size",
        lambda: moser_flow(GridFunction2D(np.ones((16, 16)), compact=False),
                           GridFunction2D(np.ones((32, 32)), compact=False))),
    "moser_flow-edge": (PreconditionError, "agree near the boundary",
                        lambda: moser_flow(*_edge_mismatch())),
    "g_function_values-route": (
        ConfigurationError, "unknown route",
        lambda: g_function_values(
            HamiltonianIsotopyPath(_ellipsoid_model()), 0.5, [[0.1, 0.2]],
            route="spiral")),
    # pseudorotations.py
    "ConjugatorSpec-delta": (PreconditionError, "delta must lie in",
                             lambda: ConjugatorSpec(delta=0.9)),
    "ConjugatorSpec-annulus": (
        PreconditionError, "annulus is empty",
        lambda: ConjugatorSpec(delta=0.2, r_inner=0.85)),
    "ConjugatorSpec-mode": (PreconditionError, "mode must be >= 1",
                            lambda: ConjugatorSpec(mode=0)),
    "stage_sequence-contact": (
        PreconditionError, "h \\+ target_a > 0",
        lambda: stage_sequence(golden_mean_inverse(), 2, -1)),
    "boundary_jet_check-order": (
        PreconditionError, "limited to order 6",
        lambda: boundary_jet_check(_ellipsoid_model(), 2 - SQRT2, order=7)),
    # reports.py
    "RunConfig-params_object": (
        ValidationError, "config must be an object",
        lambda: RunConfig.parse("ellipsoid", [1.0, 2])),
    "parse_hamiltonian-h": (ValidationError, "hamiltonian.h is required",
                            lambda: parse_hamiltonian({"type": "cosine-defect"})),
    "RunConfig-seed": (
        ValidationError, "64-bit unsigned",
        lambda: RunConfig.parse("ellipsoid", {"a0": 1.0, "h": 2}, seed=-1)),
}


@pytest.mark.parametrize("guard", sorted(GUARDS))
def test_guard_raises_its_error(guard):
    error, message, call = GUARDS[guard]
    with pytest.raises(error, match=message) as info:
        call()
    # the exact class, not a subclass standing in for it
    assert type(info.value) is error


def test_missing_fitpack_module_is_a_configuration_error(monkeypatch, tmp_path):
    # scipy found, but no _dfitpack in its interpolate directory; the
    # uncached loader runs, so the module the other tests use stays loaded
    spec = ModuleSpec("scipy", None, is_package=True)
    spec.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
    with pytest.raises(ConfigurationError,
                       match="no scipy.interpolate._dfitpack") as info:
        hamiltonians._fitpack.__wrapped__()
    assert type(info.value) is ConfigurationError
