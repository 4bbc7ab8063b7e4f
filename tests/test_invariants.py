import numpy as np
import pytest

from reebcut import (
    CallableHamiltonian,
    DegenerateOrbitError,
    Frame,
    NonEllipticOrbitError,
    PreconditionError,
    QuadraticHamiltonian,
    QuotientMapSpec,
    RigidRotationHamiltonian,
    cz_ellipsoid,
    cz_from_rotation,
    gauss_linking_integral,
    resonance_check,
    rotation_number,
    self_linking,
)
from reebcut.invariants import (
    RotationSettings,
    _orthonormal_complement,
    stereographic_project,
)
from reebcut.flows import FlowSettings
from reebcut.geometry import TWO_PI

from conftest import SQRT2, hopf_circles, hopf_circles_r3, split_circles


def as_plain_callable(H):
    """Strip the closed-form type so rotation_number takes the numeric path."""
    return CallableHamiltonian(H.value, H.boundary_value, grad_fn=H.grad,
                               hessian_fn=H.hessian, time_dependent=False)


# ---------------------------------------------------------------------------
# index windows
# ---------------------------------------------------------------------------


def test_cz_from_rotation_windows():
    assert cz_from_rotation(1.707) == 3
    assert cz_from_rotation(2.414) == 5
    assert cz_from_rotation(0.5) == 1


def test_cz_from_rotation_shift_by_one():
    for rho in (0.3, 1.7, 2.42, 5.99):
        assert cz_from_rotation(rho + 1) == cz_from_rotation(rho) + 2


def test_cz_from_rotation_degenerate():
    with pytest.raises(DegenerateOrbitError):
        cz_from_rotation(2.0)
    with pytest.raises(DegenerateOrbitError):
        cz_from_rotation(3.0 + 4e-10)


def test_cz_ellipsoid_sqrt2():
    rep = cz_ellipsoid(SQRT2)
    assert rep.mu_binding == 3 and rep.mu_central == 5
    assert rep.n == 1 and rep.m == 2
    assert abs(rep.rho_binding - (1 + 1 / SQRT2)) <= 1e-14
    assert abs(rep.rho_central - (1 + SQRT2)) <= 1e-14
    assert rep.dynamically_convex
    assert rep.resonance_defect <= 1e-12


def test_cz_ellipsoid_inverse_sqrt2():
    rep = cz_ellipsoid(1 / SQRT2)
    assert rep.mu_binding == 5 and rep.mu_central == 3


def test_cz_ellipsoid_exactly_one_index_three(rng):
    for _ in range(50):
        a0 = rng.uniform(0.1, 10.0)
        if abs(a0 - 1.0) < 1e-6:
            continue
        rep = cz_ellipsoid(a0)
        assert rep.mu_binding >= 3 and rep.mu_central >= 3
        assert (rep.mu_binding == 3) != (rep.mu_central == 3)
        assert (rep.mu_binding == 3) == (a0 > 1.0)


def test_cz_ellipsoid_rejects_nonpositive():
    with pytest.raises(PreconditionError):
        cz_ellipsoid(-0.5)


def test_resonance_check():
    res = resonance_check(2, -0.3)
    assert res["proportionality_defect"] <= 1e-15
    res = resonance_check(1, (np.sqrt(5) - 1) / 2 - 0.0)
    assert res["proportionality_defect"] <= 1e-15
    res = resonance_check(2, 0.5, theta1_override=3.0)
    assert abs(res["proportionality_defect"] - abs(3.0 / 2.5 - 1.0)) <= 1e-15


def test_resonance_requires_positive_slope():
    with pytest.raises(PreconditionError):
        resonance_check(1, -1.5)


# ---------------------------------------------------------------------------
# rotation numbers
# ---------------------------------------------------------------------------


def test_rotation_closed_form_quadratic():
    H = QuadraticHamiltonian(SQRT2, 2 - SQRT2)
    # surface framing of the central orbit sees the full a0 angle
    assert abs(rotation_number(H, "C", Frame.SURFACE, h=2) - SQRT2) <= 1e-14
    # the frame extending over the spanning disc adds one positive twist
    assert abs(rotation_number(H, "C", Frame.BINDING, h=2) - (1 + SQRT2)) <= 1e-14
    assert abs(rotation_number(H, "B", Frame.BINDING, h=2) - 1 / SQRT2) <= 1e-14
    assert abs(rotation_number(H, "B", Frame.INTERIOR, h=2) - (1 + 1 / SQRT2)) <= 1e-14


@pytest.mark.parametrize("a0, a2", [(SQRT2, 2 - SQRT2), (0.7, 1.6),
                                    (1.2, -0.3)])
def test_rotation_default_h_is_the_rounded_boundary_value(a0, a2):
    # without h, the surface offset is h = round(a0 + a2): rho = -a2 + h
    H = QuadraticHamiltonian(a0, a2)
    assert rotation_number(H, "C", Frame.SURFACE) == -a2 + round(a0 + a2)


def test_rotation_numeric_rigid():
    H = as_plain_callable(RigidRotationHamiltonian(2, 1, 3))
    rho = rotation_number(H, "C", Frame.INTERIOR, h=2,
                          settings=RotationSettings(covers=6))
    assert abs(rho - 1 / 3) <= 1e-6


def test_rotation_numeric_matches_closed_form():
    exact = QuadraticHamiltonian(SQRT2, 2 - SQRT2)
    numeric = as_plain_callable(exact)
    settings = RotationSettings(covers=16, flow=FlowSettings(step=TWO_PI / 1000))
    num = rotation_number(numeric, "C", Frame.BINDING, h=2, settings=settings)
    assert abs(num - rotation_number(exact, "C", Frame.BINDING, h=2)) <= 0.02


def test_rotation_frame_offsets_numeric():
    H = as_plain_callable(RigidRotationHamiltonian(2, 1, 3))
    settings = RotationSettings(covers=6)
    base = rotation_number(H, "C", Frame.INTERIOR, h=2, settings=settings)
    surf = rotation_number(H, "C", Frame.SURFACE, h=2, settings=settings)
    bind = rotation_number(H, "C", Frame.BINDING, h=2, settings=settings)
    assert abs(surf - base - 2) <= 1e-12
    assert abs(bind - surf - 1) <= 1e-12


def test_rotation_binding_from_measured_limit():
    H = as_plain_callable(RigidRotationHamiltonian(2, 1, 3))
    rho = rotation_number(H, "B", Frame.INTERIOR, h=2)
    assert abs(rho - (1 + 1 / (2 + 1 / 3))) <= 1e-6


def test_rotation_center_must_be_fixed():
    H = cosine = CallableHamiltonian(
        lambda s, xy: 2.0 + xy[..., 0], 2.0,
        grad_fn=lambda s, xy: np.stack(
            [np.ones(xy.shape[:-1]), np.zeros(xy.shape[:-1])], axis=-1),
        time_dependent=False,
    )
    with pytest.raises(PreconditionError):
        rotation_number(H, "C", Frame.INTERIOR, h=2)


def test_rotation_hyperbolic_reported():
    # H = x y has a saddle at the origin: no rotation number
    def value(s, xy):
        return 2.0 + xy[..., 0] * xy[..., 1]

    def grad(s, xy):
        return np.stack([xy[..., 1], xy[..., 0]], axis=-1)

    def hess(s, xy):
        out = np.zeros(xy.shape[:-1] + (2, 2))
        out[..., 0, 1] = 1.0
        out[..., 1, 0] = 1.0
        return out

    H = CallableHamiltonian(value, 2.0, grad_fn=grad, hessian_fn=hess,
                            time_dependent=False)
    with pytest.raises(NonEllipticOrbitError) as err:
        rotation_number(H, "C", Frame.INTERIOR, h=2,
                        settings=RotationSettings(covers=1))
    assert err.value.eigenvalues is not None


def test_rotation_periodic_point_numeric():
    H = as_plain_callable(RigidRotationHamiltonian(2, 1, 3))
    rho = rotation_number(H, "periodic", Frame.INTERIOR, h=2, period=3,
                          point=np.array([0.5, 0.0]),
                          settings=RotationSettings(covers=4))
    # three loops of a rigid rotation by 2 pi /3 wind once
    assert abs(rho - 1.0) <= 1e-6


# ---------------------------------------------------------------------------
# Gauss linking
# ---------------------------------------------------------------------------


def test_gauss_split_circles():
    c1, c2 = split_circles(256)
    assert abs(gauss_linking_integral(c1, c2)) <= 1e-10


def test_gauss_geometric_hopf():
    c1, c2 = hopf_circles_r3(512)
    val = gauss_linking_integral(c1, c2)
    assert abs(abs(val) - 1.0) <= 1e-9
    assert round(val) == -1


def test_gauss_hopf_fibers_positive():
    f1, f2 = hopf_circles(512)
    pole = np.array([0.5, -0.5, 0.5, 0.5])
    val = gauss_linking_integral(stereographic_project(f1, pole),
                                 stereographic_project(f2, pole))
    assert abs(val - 1.0) <= 1e-9


@pytest.mark.parametrize("axis", range(4))
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_stereographic_frame_is_right_handed(axis, sign):
    # the completed frame and the pole make a positive basis of R^4, also
    # where the Gram-Schmidt completion has to flip its last vector
    pole = sign * np.eye(4)[axis]
    frame = _orthonormal_complement(pole)
    basis = np.vstack([frame, pole[None, :]])
    assert np.allclose(basis @ basis.T, np.eye(4), atol=1e-15)
    assert abs(np.linalg.det(basis) - 1.0) <= 1e-15


def test_gauss_orientation_reversal():
    c1, c2 = hopf_circles_r3(256)
    assert abs(gauss_linking_integral(c1, c2)
               + gauss_linking_integral(c1[::-1], c2)) <= 1e-9


# ---------------------------------------------------------------------------
# self-linking of the binding
# ---------------------------------------------------------------------------


def test_self_linking_ellipsoid(quadratic_sqrt2):
    spec = QuotientMapSpec("ellipsoid", h=2, a0=SQRT2)
    res = self_linking(spec, quadratic_sqrt2, push_eps=0.02, n_samples=512)
    assert res.value == -1
    assert res.confidence <= 0.05


def test_self_linking_hemisphere_variant(quadratic_sqrt2):
    spec = QuotientMapSpec("hemisphere", h=2)
    res = self_linking(spec, quadratic_sqrt2, push_eps=0.02, n_samples=512)
    assert res.value == -1


def test_self_linking_push_eps_independence(quadratic_sqrt2):
    spec = QuotientMapSpec("ellipsoid", h=2, a0=SQRT2)
    values = set()
    for eps in (5e-3, 2e-2, 5e-2):
        res = self_linking(spec, quadratic_sqrt2, push_eps=eps, n_samples=1024)
        values.add(res.value)
    assert values == {-1}


def test_self_linking_confidence_monotone(quadratic_sqrt2):
    # the tight push (5e-3) needs resolution; confidence improves with it
    spec = QuotientMapSpec("ellipsoid", h=2, a0=SQRT2)
    conf = [self_linking(spec, quadratic_sqrt2, push_eps=5e-3, n_samples=n).confidence
            for n in (512, 1024, 2048)]
    assert conf[2] <= conf[1] <= conf[0]


def test_self_linking_rejects_bad_push():
    spec = QuotientMapSpec("ellipsoid", h=2, a0=SQRT2)
    with pytest.raises(PreconditionError):
        self_linking(spec, QuadraticHamiltonian(SQRT2, 2 - SQRT2), push_eps=0.5)
