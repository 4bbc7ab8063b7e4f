"""Dynamical invariants of the constructed Reeb flows.

Conley-Zehnder indices of the two distinguished orbits (binding B and
central orbit C), transverse rotation numbers in several framings, the
resonance identity between them, and the self-linking number of the
binding via a Gauss linking integral in stereographic coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .binding import BindingChart, QuotientMapSpec, extension_test, quotient_map
from .errors import (
    DegenerateOrbitError,
    InconclusiveError,
    NonEllipticOrbitError,
    PreconditionError,
    ResolutionError,
)
from .flows import FlowSettings, _check_finite, _rk4_steps, _step_grid
from .geometry import TWO_PI, spectral_derivative, tiles
from .hamiltonians import QuadraticHamiltonian

DEGENERACY_TOL = 1e-9
# count and seed of the random candidate poles of the stereographic chart
_N_POLES = 64
_POLE_SEED = 7
# self_linking's least curve distance per longest polyline segment: on the
# ellipsoid model 0.14 and 0.21 gave wrong integers, 1/3 to 0.42 no integer
_MIN_SEGMENT_RATIO = 1.0 / 3.0


class Frame(Enum):
    """Trivializations of the contact planes used for twist counting.

    INTERIOR is the frame spanning the planes over the interior of the
    solid torus; BINDING the one smooth near the collapsed boundary circle;
    SURFACE the framing induced by the spanning disc of the central orbit.
    """

    INTERIOR = "interior"
    BINDING = "binding"
    SURFACE = "surface"


def cz_from_rotation(rho):
    """Index window 2 floor(rho) + 1 of an elliptic orbit.

    Raises DegenerateOrbitError within 1e-9 of an integer rotation number:
    the window is then unstable to double-precision wobble.  A rotation
    number that is not finite has no window: PreconditionError.
    """
    rho = float(rho)
    if not np.isfinite(rho):
        raise PreconditionError(f"rotation number {rho} is not finite")
    if abs(rho - round(rho)) <= DEGENERACY_TOL:
        raise DegenerateOrbitError(
            f"rotation number {rho} is within {DEGENERACY_TOL} of an integer"
        )
    return 2 * int(np.floor(rho)) + 1


@dataclass
class CZReport:
    """Indices and rotation data of the binding and central orbits."""

    n: int
    m: int
    mu_binding: int
    mu_central: int
    rho_binding: float
    rho_central: float
    theta0: float
    theta1: float
    resonance_defect: float
    dynamically_convex: bool

    def to_dict(self):
        return {
            "n": self.n,
            "m": self.m,
            "mu_cz_B": self.mu_binding,
            "mu_cz_C": self.mu_central,
            "rho_B": self.rho_binding,
            "rho_C": self.rho_central,
            "theta0": self.theta0,
            "theta1": self.theta1,
            "resonance_defect": self.resonance_defect,
            "dynamically_convex": self.dynamically_convex,
        }


def cz_ellipsoid(a0):
    """Conley-Zehnder indices for the quadratic (ellipsoid) model.

    a0 plays the role of the limit slope h + a: the binding orbit rotates
    by 1 + 1/a0 in the frame extending over its spanning disc, the central
    orbit by 1 + a0 in its own disc frame, and the indices are the odd
    windows around those values.  Both are >= 3 for every admissible a0,
    and exactly one equals 3 unless a0 = 1 (excluded as degenerate).
    """
    if a0 <= 0:
        raise PreconditionError("cz_ellipsoid needs a0 > 0")
    rho_b = 1.0 + 1.0 / a0
    rho_c = 1.0 + a0
    mu_b = cz_from_rotation(rho_b)
    mu_c = cz_from_rotation(rho_c)
    n = (mu_b - 1) // 2
    m = (mu_c - 1) // 2
    theta0, theta1 = 1.0 / a0, a0
    return CZReport(
        n=n,
        m=m,
        mu_binding=mu_b,
        mu_central=mu_c,
        rho_binding=rho_b,
        rho_central=rho_c,
        theta0=theta0,
        theta1=theta1,
        resonance_defect=abs(theta0 * theta1 - 1.0),
        dynamically_convex=(mu_b >= 3 and mu_c >= 3),
    )


def resonance_check(h, a, theta1_override=None):
    """The resonance data (theta0, theta1) of the two-orbit Reeb flow.

    theta0 = 1/(h+a) and theta1 = h+a make (theta0, 1) and (1, theta1)
    proportional, i.e. the flow sits exactly on the resonance locus; the
    defect |theta0 theta1 - 1| measures the distance from it (nonzero only
    with a diagnostic override of theta1).
    """
    if h + a <= 0:
        raise PreconditionError("resonance data needs h + a > 0")
    theta0 = 1.0 / (h + a)
    theta1 = (h + a) if theta1_override is None else float(theta1_override)
    return {
        "theta0": theta0,
        "theta1": theta1,
        "proportionality_defect": abs(theta0 * theta1 - 1.0),
    }


# ---------------------------------------------------------------------------
# rotation numbers
# ---------------------------------------------------------------------------


# the largest |X(0)| for which the center still counts as a fixed point
_CENTER_TOL = 1e-8


@dataclass
class RotationSettings:
    covers: int = 32
    flow: FlowSettings = None

    def __post_init__(self):
        if self.flow is None:
            self.flow = FlowSettings()


def _winding_of_transported_vector(H, p, period, covers, flow_settings):
    """Total continuous angle of J(s) v0 over ``covers`` periods, / 2 pi."""
    _check_finite(p, 0.0)
    n_steps, step = _step_grid(0.0, period * covers, flow_settings.step)
    _, jacs = _rk4_steps(H.velocity, p, 0.0, step, n_steps,
                         H.velocity_jacobian, record=True)
    vx = jacs[:, 0, 0]   # J @ (1, 0)
    vy = jacs[:, 1, 0]
    angles = np.arctan2(vy, vx)
    increments = np.diff(angles)
    increments = (increments + np.pi) % TWO_PI - np.pi
    total = float(np.sum(increments))

    # one-cover monodromy for the ellipticity check
    mono = jacs[n_steps // covers]
    tr = mono[0, 0] + mono[1, 1]
    if abs(tr) > 2.0 + 1e-9:
        raise NonEllipticOrbitError(
            f"linearized return is hyperbolic (trace {tr:.6f})",
            eigenvalues=np.linalg.eigvals(mono),
        )
    return total / TWO_PI / covers


def rotation_number(H, orbit, frame=Frame.INTERIOR, settings=None,
                    h=None, period=1, point=None):
    """Rotation number of a closed Reeb orbit in a chosen framing.

    orbit 'C' is the central orbit (the Hamiltonian vector field must
    vanish at the origin); orbit 'B' the binding circle, whose rotation is
    read off the extension limit f(0), measured by ``extension_test``;
    any other closed orbit is specified by ``point`` and ``period`` and
    handled numerically.  Closed-form quadratic Hamiltonians short-circuit
    to their analytic values; numeric orbits transport a frame vector
    under the variational flow over many covers and count its winding.
    """
    settings = settings or RotationSettings()
    if h is None:
        h = int(round(H.boundary_value))

    if orbit == "B":
        if isinstance(H, QuadraticHamiltonian):
            f0 = 2.0 * H.a0
        else:
            report = extension_test(H, BindingChart(h=h))
            if not report.order_passed(1):
                raise PreconditionError(
                    "binding rotation number needs a C^1 extension"
                )
            f0 = report.f0
        rho_binding = 2.0 / f0
        offsets = {
            Frame.BINDING: 0.0,
            Frame.INTERIOR: 1.0,
        }
        if frame not in offsets:
            raise PreconditionError(
                "surface framing is not defined along the binding"
            )
        return rho_binding + offsets[frame]

    if orbit == "C":
        # the central orbit: the closed orbit of period 1 at the origin
        point, period = np.zeros(2), 1
        speed = float(np.max(np.abs(H.velocity(0.0, point))))
        if speed > _CENTER_TOL:
            raise PreconditionError(
                f"center is not a fixed point (|X(0)| = {speed:.3e})"
            )
    elif point is None:
        raise PreconditionError("periodic orbits need an explicit point")
    if orbit == "C" and isinstance(H, QuadraticHamiltonian):
        rho_int = -H.a2
    else:
        rho_int = _winding_of_transported_vector(
            H, np.asarray(point, dtype=float), TWO_PI * period,
            settings.covers, settings.flow,
        )
    offsets = {
        Frame.INTERIOR: 0.0,
        Frame.SURFACE: float(h * period),
        Frame.BINDING: float(h * period) + 1.0,
    }
    return rho_int + offsets[frame]


# ---------------------------------------------------------------------------
# Gauss linking and the self-linking number of the binding
# ---------------------------------------------------------------------------


def gauss_linking_integral(curve1, curve2):
    """Gauss double integral of two closed curves in R^3.

    Curves are uniform closed samples (n, 3); tangents are spectral, the
    double integral is a trapezoid sum over all sample pairs, which for
    smooth disjoint curves converges beyond algebraic order.
    """
    c1 = np.asarray(curve1, dtype=float)
    c2 = np.asarray(curve2, dtype=float)
    t1 = spectral_derivative(c1, axis=0) * (TWO_PI / len(c1))
    t2 = spectral_derivative(c2, axis=0) * (TWO_PI / len(c2))
    u0, u1, u2 = t2.T
    # row tiles fill one integrand, so its single sum keeps its order.  A
    # tile has TILE_ELEMENTS / 3 pairs: (rows, n2) temporaries of a full
    # TILE_ELEMENTS floats lift the peak RSS of self-linking by 0.7 MiB
    integrand = np.empty((len(c1), len(c2)))
    for rows in tiles(len(c1), 3 * len(c2)):
        d0, d1, d2 = _pair_differences(c1[rows], c2)
        s0, s1, s2 = t1[rows].T[:, :, None]
        # the cross product and both dot products as np.cross and a sum
        # over the last axis form them, component by component
        dist3 = ((d0 * d0 + d1 * d1) + d2 * d2) ** 1.5
        integrand[rows] = (((s1 * u2 - s2 * u1) * d0
                            + (s2 * u0 - s0 * u2) * d1)
                           + (s0 * u1 - s1 * u0) * d2) / dist3
    return float(integrand.sum() / (4.0 * np.pi))


def _pair_differences(a, b):
    """The components of a_i - b_j, each a (len(a), len(b)) array.

    numpy reduces a short contiguous axis left to right, one output at a
    time, which is slow; sums of these (n1, n2) components taken left to
    right have its bits at a fraction of its cost.
    """
    return [ak[:, None] - bk for ak, bk in zip(a.T, b.T)]


def _pair_distances(a, b):
    """|a_i - b_j| over (len(a), len(b)): bitwise np.linalg.norm of
    a[:, None] - b[None] over its last axis."""
    parts = _pair_differences(a, b)
    total = parts[0] * parts[0]
    for d in parts[1:]:
        total = total + d * d
    return np.sqrt(total)


def min_curve_distance(curve1, curve2):
    c1, c2 = np.asarray(curve1), np.asarray(curve2)
    return float(np.min([_pair_distances(c1[rows], c2).min()
                         for rows in tiles(len(c1), 3 * len(c2))]))


def stereographic_project(points4, pole):
    """Orientation-preserving stereographic chart of S^3 minus the pole.

    The target frame is completed around the pole with a right-handed
    basis of R^4, so Gauss linking numbers in the image agree with
    linking in the sphere.
    """
    pole = np.asarray(pole, dtype=float)
    pole = pole / np.linalg.norm(pole)
    basis = _orthonormal_complement(pole)
    pts = np.asarray(points4, dtype=float)
    coords = pts @ basis.T
    denom = 1.0 - pts @ pole
    return coords / denom[:, None]


def _orthonormal_complement(pole):
    seed = np.eye(4)
    vecs = [pole]
    for v in seed:
        w = v - sum(np.dot(v, u) * u for u in vecs)
        norm = np.linalg.norm(w)
        if norm > 1e-8:
            vecs.append(w / norm)
        if len(vecs) == 4:
            break
    frame = np.stack(vecs[1:])
    # enforce det [e1, e2, e3, pole] = +1 so the chart is right-handed
    if np.linalg.det(np.vstack([frame, pole[None, :]])) < 0:
        frame[2] = -frame[2]
    return frame


@dataclass
class SelfLinkingResult:
    value: int
    gauss_integral: float
    confidence: float
    push_eps: float
    n_samples: int

    def to_dict(self):
        return {
            "value": self.value,
            "gauss_integral": self.gauss_integral,
            "confidence": self.confidence,
            "push_eps": self.push_eps,
            "n_samples": self.n_samples,
        }


def binding_pushoff_curves(spec: QuotientMapSpec, H, push_eps, n_samples):
    """The binding circle and its interior-frame push-off, in R^4.

    The push direction is the boundary limit, along the spanning disc of
    the binding, of the interior frame field; expressed in the binding
    chart it makes one negative twist per meridian loop, and the pushed
    curve stays inside the solid torus where the quotient map is defined.
    """
    b = np.linspace(0.0, TWO_PI, n_samples, endpoint=False)
    curve_b = quotient_map(spec, np.zeros(n_samples), np.ones(n_samples), b)

    rho = push_eps
    r_eval = 1.0 - rho**2
    xy = np.stack([r_eval * np.cos(b), r_eval * np.sin(b)], axis=-1)
    h_val = H.value(0.0, xy)
    # Interior frame direction in chart coordinates (u, v) at vartheta = 0.
    # The raw components carry weights 1/(2 rho) and rho; dividing each by
    # its positive scale is a GL+ homotopy of nonvanishing sections, so the
    # framing class (hence the linking number) is unchanged, while the
    # resulting curve varies at unit rate and stays resolvable at the
    # quadrature's sampling density.
    d_u = -h_val / H.boundary_value * np.cos(b)
    d_v = r_eval * np.sin(b)
    vartheta = np.arctan2(d_v, d_u)

    s_push = np.mod(vartheta, TWO_PI)
    theta_push = b - spec.h * vartheta
    r_push = 1.0 - push_eps**2
    curve_push = quotient_map(spec, s_push, np.full(n_samples, r_push),
                              theta_push)
    return curve_b, curve_push


def _candidate_poles():
    rng = np.random.default_rng(_POLE_SEED)
    pts = rng.normal(size=(_N_POLES, 4))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _project_from_farthest_pole(curve_b, curve_push):
    """Both R^4 curves on the unit sphere, projected from the candidate
    pole farthest from either; returns the two R^3 curves."""
    sb, sp = (c / np.linalg.norm(c, axis=-1, keepdims=True)
              for c in (curve_b, curve_push))
    poles = _candidate_poles()
    # in tiles of poles too: whole (64, n) temporaries stay in the heap and
    # lift the peak RSS of self-linking by about 0.5 MiB
    dists = np.concatenate([
        np.minimum(_pair_distances(poles[rows], sb).min(axis=1),
                   _pair_distances(poles[rows], sp).min(axis=1))
        for rows in tiles(len(poles), 4 * len(sb))])
    pole = poles[int(np.argmax(dists))]
    return stereographic_project(sb, pole), stereographic_project(sp, pole)


def self_linking(spec: QuotientMapSpec, H, push_eps=0.02, n_samples=512):
    """Self-linking number of the binding orbit.

    Maps the binding and its push-off to the sphere (the ellipsoid image
    is normalized radially, a diffeomorphism), projects stereographically
    from the candidate pole farthest from both curves, and evaluates the
    Gauss linking integral over all sample pairs.  The rounded integer is
    returned with its distance from the raw integral as confidence.  Curves
    closer than a third of the longest polyline segment raise
    ``ResolutionError``, and a confidence above 0.2 ``InconclusiveError``.
    """
    if not 1e-3 <= push_eps <= 1e-1:
        raise PreconditionError("push_eps must lie in [1e-3, 1e-1]")
    curve_b, curve_push = binding_pushoff_curves(spec, H, push_eps, n_samples)
    p1, p2 = _project_from_farthest_pole(curve_b, curve_push)

    ratio = min_curve_distance(p1, p2) / np.max(
        [np.linalg.norm(np.roll(p, -1, axis=0) - p, axis=-1).max() for p in (p1, p2)])
    if not ratio >= _MIN_SEGMENT_RATIO:
        raise ResolutionError(f"curves are {ratio:.3f} segments apart; quadrature "
                              f"unreliable below {_MIN_SEGMENT_RATIO:.3f}")
    integral = gauss_linking_integral(p1, p2)
    value = int(round(integral))
    confidence = abs(integral - value)
    if confidence > 0.2:
        raise InconclusiveError(
            f"Gauss integral {integral:.4f} is too far from any integer"
        )
    return SelfLinkingResult(
        value=value,
        gauss_integral=integral,
        confidence=confidence,
        push_eps=push_eps,
        n_samples=n_samples,
    )
