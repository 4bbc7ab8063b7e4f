"""Every input guard raises its own error on one bad input.

One case per guard that no other test reaches: the error class is the
contract (the CLI maps each ``ReebcutError`` subclass to an exit code), so
each case names the subclass its guard raises and a fragment of its
message, which pins the guard and not some earlier failure.
"""

import importlib.util
from importlib.machinery import ModuleSpec
from types import SimpleNamespace

import numpy as np
import pytest

from reebcut import (
    BindingChart,
    CanonicalRecoverySettings,
    ConfigurationError,
    ConjugatorSpec,
    EvaluationError,
    ExtensionSettings,
    Frame,
    GridFunction2D,
    HamiltonianIsotopyPath,
    InconclusiveError,
    MoserSettings,
    PreconditionError,
    QuadraticHamiltonian,
    QuotientMapSpec,
    ResolutionError,
    RigidRotationHamiltonian,
    ValidationError,
    canonical_hamiltonian,
    cosine_defect_hamiltonian,
    cz_from_rotation,
    extension_test,
    golden_mean_inverse,
    moser_flow,
    orbit_statistics,
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

from conftest import SQRT2, compact_disc_hamiltonian


def _ellipsoid_model():
    return QuadraticHamiltonian(SQRT2, 2 - SQRT2)


def _edge_mismatch():
    # equal totals, positive, but +-0.5 on two cells of the boundary band
    g1 = np.ones((16, 16))
    g1[0, 0], g1[0, 1] = 1.5, 0.5
    return (GridFunction2D(np.ones((16, 16)), compact=False),
            GridFunction2D(g1, compact=False))


def _densities_with(value, cell, both=False):
    """Unit densities on a 16 x 16 grid, omega1 (and omega0 too if
    ``both``) holding ``value`` at ``cell``."""
    g0, g1 = np.ones((16, 16)), np.ones((16, 16))
    g1[cell] = value
    if both:
        g0[cell] = value
    return (GridFunction2D(g0, compact=False),
            GridFunction2D(g1, compact=False))


def _zeros_but(index, value):
    values = np.zeros((16, 16))
    values[index] = value
    return values


_SMALL_RECOVERY = CanonicalRecoverySettings(n_r=64, n_theta=16, n_s=32)
# the grid nodes of _SMALL_RECOVERY; canonical_hamiltonian evaluates them,
# then their +x, -x, +y and -y probes, in blocks of this many points
_SMALL_NODES = 65 * 16


def _identity_path_with_nan(s_index, point_index):
    """The identity path, with a NaN image of one point at one s node."""

    class Path:
        def evaluate_on_grid(self, s_values, pts):
            out = np.broadcast_to(pts, (len(s_values),) + pts.shape).copy()
            out[s_index, point_index] = np.nan
            return out

    return canonical_hamiltonian(Path(), _SMALL_RECOVERY)


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
    "cz_from_rotation-finite": (
        PreconditionError, "rotation number inf is not finite",
        lambda: cz_from_rotation(float("inf"))),
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
    # a NaN fails each comparison of these guards, so each refuses it
    "GridFunction2D-nan_margin": (
        PreconditionError, "are not all finite",
        lambda: GridFunction2D(_zeros_but((0, 0), np.nan), compact=True)),
    # an interior non-finite value would make the margin's scale NaN or inf
    "GridFunction2D-nan_interior": (
        PreconditionError, "are not all finite",
        lambda: GridFunction2D(_zeros_but((8, 8), np.nan), compact=True)),
    "GridFunction2D-inf_interior": (
        PreconditionError, "are not all finite",
        lambda: GridFunction2D(_zeros_but((8, 8), np.inf), compact=True)),
    "GridFunction2D-ninf_interior": (
        PreconditionError, "are not all finite",
        lambda: GridFunction2D(_zeros_but((8, 8), -np.inf), compact=True)),
    "moser_flow-nan_interior": (
        PreconditionError, "positive everywhere",
        lambda: moser_flow(*_densities_with(np.nan, (8, 8)), MoserSettings(2))),
    "moser_flow-nan_edge": (
        PreconditionError, "positive everywhere",
        lambda: moser_flow(*_densities_with(np.nan, (0, 5)), MoserSettings(2))),
    # inf - inf: the totals differ by NaN
    "moser_flow-inf_total": (
        PreconditionError, "different total integrals",
        lambda: moser_flow(*_densities_with(np.inf, (8, 8), both=True),
                           MoserSettings(2))),
    # the x-probe of node 5 at the last s node: its Jacobian, so its
    # area defect, is NaN
    "canonical_hamiltonian-nan_later_slice": (
        PreconditionError, "area defect nan",
        lambda: _identity_path_with_nan(-1, _SMALL_NODES + 5)),
    # node 5 itself at the last s node: no probe, so no Jacobian, reads it
    "canonical_hamiltonian-nan_node_later_slice": (
        PreconditionError, "path is not finite",
        lambda: _identity_path_with_nan(-1, 5)),
    "canonical_hamiltonian-nan_first_slice": (
        PreconditionError, "not start at the identity \\(defect nan\\)",
        lambda: _identity_path_with_nan(0, 5)),
    # a quintic fit in r needs six nodes, the s-stencil six snapshots;
    # below these each grid failed inside FITPACK or numpy
    "CanonicalRecoverySettings-n_r": (
        ConfigurationError, "needs n_r >= 5",
        lambda: CanonicalRecoverySettings(n_r=4)),
    "CanonicalRecoverySettings-n_theta": (
        ConfigurationError, "n_theta >= 2",
        lambda: CanonicalRecoverySettings(n_theta=1)),
    "CanonicalRecoverySettings-n_s": (
        ConfigurationError, "n_s >= 5",
        lambda: CanonicalRecoverySettings(n_s=4)),
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
    # a negative length used to reach an IndexError on the empty orbit
    "orbit_statistics-iterations": (
        PreconditionError, "desk scale",
        lambda: orbit_statistics(RigidRotationHamiltonian(2, 1, 3), (0.5, 0.0),
                                 iterations=-1)),
    "boundary_jet_check-order": (
        PreconditionError, "limited to order 6",
        lambda: boundary_jet_check(_ellipsoid_model(), 2 - SQRT2, order=7)),
    # reports.py
    "RunConfig-params_object": (
        ValidationError, "config must be an object",
        lambda: RunConfig.parse("ellipsoid", [1.0, 2])),
    "parse_hamiltonian-h": (ValidationError,
                            r"missing field\(s\): hamiltonian\.h$",
                            lambda: parse_hamiltonian({"type": "cosine-defect"})),
    # the binding rotates by 1 + 1/a0 = 3: no CZ window, refused at parse
    "RunConfig-ellipsoid_degenerate_a0": (
        ValidationError, "a0: rotation number 3.0 is within",
        lambda: RunConfig.parse("ellipsoid", {"a0": 0.5, "h": 2})),
    "RunConfig-seed": (
        ValidationError, "64-bit unsigned",
        lambda: RunConfig.parse("ellipsoid", {"a0": 1.0, "h": 2}, seed=-1)),
    # True would pass as the seed 1, yet the report would echo "seed": true
    "RunConfig-seed_bool": (
        ValidationError, "64-bit unsigned",
        lambda: RunConfig.parse("ellipsoid", {"a0": 1.0, "h": 2}, seed=True)),
}


@pytest.mark.parametrize("guard", sorted(GUARDS))
def test_guard_raises_its_error(guard):
    error, message, call = GUARDS[guard]
    with pytest.raises(error, match=message) as info:
        call()
    # the exact class, not a subclass standing in for it
    assert type(info.value) is error


def test_smallest_canonical_recovery_grid_runs():
    # the guard admits the smallest grid that recovers a Hamiltonian
    path = HamiltonianIsotopyPath(compact_disc_hamiltonian(time_factor=np.cos),
                                  steps_per_period=200)
    H = canonical_hamiltonian(path, CanonicalRecoverySettings(5, 2, 5))
    assert np.isfinite(H.value(0.3, np.array([0.1, 0.2])))


def test_fitpack_error_in_point_grad_is_an_evaluation_error(monkeypatch):
    # bispeu reports an error only for input a one-point call cannot make,
    # so a stand-in module reports one; the partials are derived for real
    field = hamiltonians.QuinticField(np.linspace(0.0, 1.0, 8),
                                      np.linspace(0.0, 1.0, 8), np.zeros((8, 8)))
    failing = SimpleNamespace(pardtc=hamiltonians._fitpack().pardtc,
                              bispeu=lambda *args: (np.zeros(1), 10))
    monkeypatch.setattr(hamiltonians, "_fitpack", lambda: failing)
    with pytest.raises(EvaluationError,
                       match="spline evaluation failed, FITPACK ier=10") as info:
        field.point_grad(0.5, 0.5)
    assert type(info.value) is EvaluationError


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
