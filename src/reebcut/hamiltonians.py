"""Symplectic calculus on the unit disc.

The area form is omega = 2 dx ^ dy (equal to 2r dr ^ dtheta) with primitive
lambda = r^2 dtheta = x dy - y dx.  A time-periodic Hamiltonian H_s defines
the vector field X_s through omega(X_s, .) = dH_s, which in cartesian
coordinates reads X = (dH/dy / 2, -dH/dx / 2).  All interior calculus is
cartesian so the polar singularity at r = 0 never enters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, EvaluationError, PreconditionError
from .geometry import TWO_PI, as_xy, radius

DEFAULT_FD_STEP = 1e-5


# ---------------------------------------------------------------------------
# finite-difference fallbacks
# ---------------------------------------------------------------------------

def _fd_partial(value_fn, s, xy, axis, step, keep_in_disc):
    """Second-order partial derivative along one cartesian axis.

    Uses centered differences with step scaled by max(1, |coordinate|).
    When a probe point would leave the closed disc, the stencil is shifted
    inward (one-sided, still second order): H is only defined on the disc.
    Works for scalar- and vector-valued oracles alike.
    """
    xy = np.asarray(xy, dtype=float)
    h = step * np.maximum(1.0, np.abs(xy[..., axis]))

    def shifted(mult):
        probe = xy.copy()
        probe[..., axis] = probe[..., axis] + mult * h
        return probe

    if keep_in_disc:
        out_plus = radius(shifted(1.0)) > 1.0
        out_minus = radius(shifted(-1.0)) > 1.0
    else:
        out_plus = np.zeros(xy.shape[:-1], dtype=bool)
        out_minus = out_plus

    sample = np.asarray(value_fn(s, xy))
    extra = sample.ndim - h.ndim
    h_b = h.reshape(h.shape + (1,) * extra)
    mask_plus = out_plus.reshape(out_plus.shape + (1,) * extra)
    mask_minus = out_minus.reshape(out_minus.shape + (1,) * extra)

    result = (np.asarray(value_fn(s, shifted(1.0)))
              - np.asarray(value_fn(s, shifted(-1.0)))) / (2.0 * h_b)

    if np.any(out_plus):
        back = (
            3.0 * sample - 4.0 * np.asarray(value_fn(s, shifted(-1.0)))
            + np.asarray(value_fn(s, shifted(-2.0)))
        ) / (2.0 * h_b)
        result = np.where(mask_plus, back, result)
    if np.any(out_minus):
        fwd = (
            -3.0 * sample + 4.0 * np.asarray(value_fn(s, shifted(1.0)))
            - np.asarray(value_fn(s, shifted(2.0)))
        ) / (2.0 * h_b)
        result = np.where(mask_minus, fwd, result)
    return result


def fd_gradient(value_fn, s, xy, step=DEFAULT_FD_STEP, keep_in_disc=True):
    """Centered-difference gradient (..., 2) of a value oracle."""
    gx = _fd_partial(value_fn, s, xy, 0, step, keep_in_disc)
    gy = _fd_partial(value_fn, s, xy, 1, step, keep_in_disc)
    return np.stack([gx, gy], axis=-1)


def fd_s_derivative(value_fn, s, xy, step=DEFAULT_FD_STEP):
    return (value_fn(s + step, xy) - value_fn(s - step, xy)) / (2.0 * step)


def fd_hessian(grad_fn, s, xy, step=1e-4, keep_in_disc=True):
    """Symmetrized finite-difference Jacobian of a gradient oracle."""
    cols = []
    for axis in range(2):
        col = _fd_partial(
            lambda ss, pts: grad_fn(ss, pts), s, xy, axis, step, keep_in_disc
        )
        cols.append(col)
    hess = np.stack(cols, axis=-1)  # (..., 2 grad comps, 2 axes)
    return 0.5 * (hess + np.swapaxes(hess, -1, -2))


# ---------------------------------------------------------------------------
# Hamiltonian families
# ---------------------------------------------------------------------------


class Hamiltonian:
    """A 2*pi-periodic family of functions on the closed unit disc.

    Subclasses supply ``value`` and may override the derivative oracles with
    analytic expressions; the base class falls back to centered finite
    differences (inward-shifted at the boundary).

    A subclass may also define ``point_velocity(s, x, y)``: the velocity at
    one point given as two floats, returned as a ``(vx, vy)`` float pair
    bitwise equal to ``velocity`` on that point.  The fixed-step flow of a
    single unrecorded point then runs in Python floats instead of numpy
    calls on 2-element arrays.  The base class does not define it, so every
    other Hamiltonian integrates through ``velocity``.

    Attributes
    ----------
    boundary_value : float
        The constant value h taken on the boundary circle.
    autonomous_near_boundary, radial_near_boundary : bool
        Metadata flags describing the collar behaviour.
    collar_width : float
        Width of the collar on which the flags are claimed to hold.
    """

    boundary_value: float = 0.0
    autonomous_near_boundary: bool = False
    radial_near_boundary: bool = False
    collar_width: float = 0.0
    fd_step: float = DEFAULT_FD_STEP
    #: set on families known to be independent of s; lets chart sweeps
    #: evaluate one parameter slice instead of looping
    time_dependent: bool = True

    def value(self, s, xy):
        raise NotImplementedError

    def grad(self, s, xy):
        return fd_gradient(self.value, s, xy, self.fd_step)

    def ds(self, s, xy):
        return fd_s_derivative(self.value, s, xy, self.fd_step)

    def hessian(self, s, xy):
        return fd_hessian(self.grad, s, xy)

    # -- derived fields -----------------------------------------------------

    def velocity(self, s, xy):
        """Hamiltonian vector field X = (dH/dy, -dH/dx) / 2 at (s, xy)."""
        g = self.grad(s, xy)
        return np.stack([0.5 * g[..., 1], -0.5 * g[..., 0]], axis=-1)

    def velocity_jacobian(self, s, xy):
        """DX as a (..., 2, 2) array, from the Hessian of H."""
        hess = self.hessian(s, xy)
        out = np.empty_like(hess)
        out[..., 0, 0] = 0.5 * hess[..., 1, 0]
        out[..., 0, 1] = 0.5 * hess[..., 1, 1]
        out[..., 1, 0] = -0.5 * hess[..., 0, 0]
        out[..., 1, 1] = -0.5 * hess[..., 0, 1]
        return out


def slice_weights(s_nodes, s):
    """Cubic Lagrange weights in s across the four nearest uniform slices.

    Returns the four slice indices and their weights.  The caller applies
    its own domain rule to s first (wrap or refuse); near either end the
    stencil stays inside the nodes.
    """
    ds = s_nodes[1] - s_nodes[0]
    j = int(np.clip(np.floor(s / ds), 1, len(s_nodes) - 3))
    js = [j - 1, j, j + 1, j + 2]
    w = []
    for a in js:
        num = 1.0
        for b in js:
            if b != a:
                num *= (s - s_nodes[b]) / (s_nodes[a] - s_nodes[b])
        w.append(num)
    return js, w


class QuadraticHamiltonian(Hamiltonian):
    """H = a2 r^2 + a0, the intrinsic model of an ellipsoid Reeb flow.

    The Hamiltonian vector field is the rigid rotation field -a2 d/dtheta,
    and a0 > 0 is exactly the contact condition.
    """

    autonomous_near_boundary = True
    radial_near_boundary = True
    collar_width = 1.0
    time_dependent = False

    def __init__(self, a0, a2):
        self.a0 = float(a0)
        self.a2 = float(a2)
        self.boundary_value = self.a0 + self.a2

    def value(self, s, xy):
        xy = np.asarray(xy, dtype=float)
        r2 = xy[..., 0] ** 2 + xy[..., 1] ** 2
        return self.a2 * r2 + self.a0

    def grad(self, s, xy):
        xy = np.asarray(xy, dtype=float)
        return 2.0 * self.a2 * xy

    def ds(self, s, xy):
        xy = np.asarray(xy, dtype=float)
        return np.zeros(xy.shape[:-1])

    def hessian(self, s, xy):
        xy = np.asarray(xy, dtype=float)
        hess = np.zeros(xy.shape[:-1] + (2, 2))
        hess[..., 0, 0] = 2.0 * self.a2
        hess[..., 1, 1] = 2.0 * self.a2
        return hess

    def __repr__(self):
        return f"QuadraticHamiltonian(a0={self.a0}, a2={self.a2})"


def _rigid_value(h, pq, r2):
    # shared expression so conjugated stages reproduce the tail bitwise
    return h + pq - pq * r2


class RigidRotationHamiltonian(QuadraticHamiltonian):
    """H = h + p/q - (p/q) r^2, whose time-2*pi map rotates by 2*pi*p/q."""

    def __init__(self, h, p, q):
        if q < 1 or h < 1 or int(h) != h:
            raise PreconditionError("need integer h >= 1 and q >= 1")
        self.h = int(h)
        self.p = int(p)
        self.q = int(q)
        pq = p / q
        if h + pq <= 0:
            raise PreconditionError(
                f"h + p/q = {h + pq} <= 0 violates the contact condition"
            )
        super().__init__(h + pq, -pq)
        self.boundary_value = float(h)

    def value(self, s, xy):
        xy = np.asarray(xy, dtype=float)
        r2 = xy[..., 0] ** 2 + xy[..., 1] ** 2
        return _rigid_value(self.h, self.p / self.q, r2)

    def __repr__(self):
        return f"RigidRotationHamiltonian(h={self.h}, p={self.p}, q={self.q})"


class CallableHamiltonian(Hamiltonian):
    """Wrap plain callables ``fn(s, xy)`` as a Hamiltonian.

    ``grad_fn``/``ds_fn``/``hessian_fn`` are optional analytic oracles; when
    omitted, finite differences are used.
    """

    def __init__(
        self,
        value_fn,
        boundary_value,
        grad_fn=None,
        ds_fn=None,
        hessian_fn=None,
        autonomous_near_boundary=False,
        radial_near_boundary=False,
        collar_width=0.0,
        fd_step=DEFAULT_FD_STEP,
        time_dependent=True,
    ):
        self._value_fn = value_fn
        self._grad_fn = grad_fn
        self._ds_fn = ds_fn
        self._hessian_fn = hessian_fn
        self.boundary_value = float(boundary_value)
        self.autonomous_near_boundary = autonomous_near_boundary
        self.radial_near_boundary = radial_near_boundary
        self.collar_width = collar_width
        self.fd_step = fd_step
        self.time_dependent = time_dependent

    def value(self, s, xy):
        try:
            return np.asarray(self._value_fn(s, np.asarray(xy, dtype=float)))
        except Exception as exc:  # pragma: no cover - defensive
            raise EvaluationError(f"value oracle failed: {exc}", s=s, point=xy)

    def grad(self, s, xy):
        if self._grad_fn is not None:
            return np.asarray(self._grad_fn(s, np.asarray(xy, dtype=float)))
        return super().grad(s, xy)

    def ds(self, s, xy):
        if self._ds_fn is not None:
            return np.asarray(self._ds_fn(s, np.asarray(xy, dtype=float)))
        return super().ds(s, xy)

    def hessian(self, s, xy):
        if self._hessian_fn is not None:
            return np.asarray(self._hessian_fn(s, np.asarray(xy, dtype=float)))
        return super().hessian(s, xy)


class PullbackHamiltonian(Hamiltonian):
    """H o phi for a disc map phi with value and Jacobian oracles.

    grad(H o phi) = Dphi^T (grad H) o phi; the Hessian falls back to finite
    differences of that gradient since second derivatives of phi are not
    part of the map protocol.
    """

    def __init__(self, base, disc_map):
        self.base = base
        self.map = disc_map
        self.boundary_value = base.boundary_value
        self.autonomous_near_boundary = base.autonomous_near_boundary
        self.radial_near_boundary = False
        self.collar_width = 0.0

    def value(self, s, xy):
        return self.base.value(s, self.map(np.asarray(xy, dtype=float)))

    def grad(self, s, xy):
        xy = np.asarray(xy, dtype=float)
        img = self.map(xy)
        g = self.base.grad(s, img)
        jac = self.map.jacobian(xy)
        return np.einsum("...ji,...j->...i", jac, g)

    def ds(self, s, xy):
        return self.base.ds(s, self.map(np.asarray(xy, dtype=float)))


def cosine_defect_hamiltonian(h, c, d):
    """H = h + (1 - r^2)(c + d cos(theta)).

    For d != 0 this violates the radial-collar assumption on every collar:
    the binding function acquires a direction-dependent limit and the
    extension test must fail at order zero.  Gradients are analytic; the
    field is Lipschitz but not differentiable at the origin, which the
    collar-focused audits never sample.
    """

    def value(s, xy):
        x, y = xy[..., 0], xy[..., 1]
        r = np.sqrt(x * x + y * y)
        r2 = r * r
        cos_t = np.where(r > 0, x / np.where(r > 0, r, 1.0), 1.0)
        return h + (1.0 - r2) * (c + d * cos_t)

    def grad(s, xy):
        x, y = xy[..., 0], xy[..., 1]
        r = np.sqrt(x * x + y * y)
        safe = np.where(r > 0, r, 1.0)
        r3 = safe**3
        gx = -2.0 * c * x + d * (y * y / r3 - safe - x * x / safe)
        gy = -2.0 * c * y + d * (-x * y / r3 - x * y / safe)
        gx = np.where(r > 0, gx, 0.0)
        gy = np.where(r > 0, gy, 0.0)
        return np.stack([gx, gy], axis=-1)

    return CallableHamiltonian(
        value,
        boundary_value=h,
        grad_fn=grad,
        ds_fn=lambda s, xy: np.zeros(np.asarray(xy).shape[:-1]),
        autonomous_near_boundary=True,
        radial_near_boundary=(d == 0),
        collar_width=1.0,
        time_dependent=False,
    )


def check_s_periodicity(H, n_s=16, n_points=64, tol=1e-10, rng=None):
    """Max |H(s + 2*pi) - H(s)| over random samples; must stay below tol."""
    rng = rng or np.random.default_rng(0)
    r = np.sqrt(rng.uniform(0.0, 1.0, n_points))
    t = rng.uniform(0.0, TWO_PI, n_points)
    xy = np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)
    worst = 0.0
    for s in np.linspace(0.0, TWO_PI, n_s, endpoint=False):
        defect = np.max(np.abs(H.value(s + TWO_PI, xy) - H.value(s, xy)))
        worst = max(worst, float(defect))
    if worst > tol:
        raise PreconditionError(f"H is not 2*pi-periodic in s (defect {worst:.3e})")
    return worst


# ---------------------------------------------------------------------------
# pointwise contact calculus
# ---------------------------------------------------------------------------


def hamiltonian_vector_field(H, s, p):
    """The vector X with omega(X, .) = dH at (s, p), as a length-2 array."""
    return H.velocity(s, as_xy(p))


def liouville_pairing(H, s, p):
    """lambda(X_s) = -(x dH/dx + y dH/dy)/2, the radial pairing of the flow."""
    xy = as_xy(p)
    g = H.grad(s, xy)
    return -0.5 * (xy[..., 0] * g[..., 0] + xy[..., 1] * g[..., 1])


def contact_margin(H, s, p):
    """H + lambda(X); positive exactly where H ds + lambda is contact."""
    xy = as_xy(p)
    return H.value(s, xy) + liouville_pairing(H, s, xy)


@dataclass
class SamplingGrid:
    """Product grid over [0, 2*pi) x D^2, uniform in (s, r^2, theta)."""

    n_s: int = 32
    n_r: int = 64
    n_theta: int = 64

    def __post_init__(self):
        if min(self.n_s, self.n_r, self.n_theta) < 8:
            raise ConfigurationError(
                "contact audits need at least 8 samples per axis"
            )

    def s_values(self):
        return np.linspace(0.0, TWO_PI, self.n_s, endpoint=False)

    def disc_points(self):
        r2 = np.linspace(0.0, 1.0, self.n_r)
        theta = np.linspace(0.0, TWO_PI, self.n_theta, endpoint=False)
        rr, tt = np.meshgrid(np.sqrt(r2), theta, indexing="ij")
        return np.stack([rr * np.cos(tt), rr * np.sin(tt)], axis=-1).reshape(-1, 2)

    def boundary_points(self):
        theta = np.linspace(0.0, TWO_PI, self.n_theta, endpoint=False)
        return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


@dataclass
class ContactAuditReport:
    """Grid audit of the contact condition H + lambda(X) > 0.

    ``boundary_slope_max`` is the largest radial derivative of H on the
    boundary circle; the cut construction additionally needs it below 2h.
    """

    min_margin: float
    boundary_slope_max: float
    grid: SamplingGrid
    boundary_value: float
    passed: bool = field(init=False)

    def __post_init__(self):
        # a non-finite score fails: NaN comparisons are false, and an
        # infinite margin or slope is no evidence of the contact condition
        self.passed = bool(
            np.isfinite(self.min_margin)
            and np.isfinite(self.boundary_slope_max)
            and self.min_margin > 0.0
            and self.boundary_slope_max < 2.0 * self.boundary_value
        )

    def to_dict(self):
        return {
            "min_margin": self.min_margin,
            "boundary_slope_max": self.boundary_slope_max,
            "boundary_value": self.boundary_value,
            "grid": [self.grid.n_s, self.grid.n_r, self.grid.n_theta],
            "pass": self.passed,
        }


def contact_audit(H, grid=None):
    """Minimize the contact margin over a grid and check the boundary slope.

    Iteration order is fixed (s-major), so the report is deterministic
    regardless of how the per-slice work is scheduled.  The reductions
    propagate NaN, so a non-finite sample fails the audit.
    """
    grid = grid or SamplingGrid()
    pts = grid.disc_points()
    bpts = grid.boundary_points()

    min_margin = np.inf
    slope_max = -np.inf
    for s in grid.s_values():
        margin = contact_margin(H, s, pts)
        min_margin = float(np.minimum(min_margin, np.min(margin)))
        g = H.grad(s, bpts)
        # on r = 1 the radial derivative is x dH/dx + y dH/dy
        slope = bpts[..., 0] * g[..., 0] + bpts[..., 1] * g[..., 1]
        slope_max = float(np.maximum(slope_max, np.max(slope)))
    return ContactAuditReport(
        min_margin=min_margin,
        boundary_slope_max=slope_max,
        grid=grid,
        boundary_value=H.boundary_value,
    )
