"""Symplectic calculus on the unit disc.

The area form is omega = 2 dx ^ dy (equal to 2r dr ^ dtheta) with primitive
lambda = r^2 dtheta = x dy - y dx.  A time-periodic Hamiltonian H_s defines
the vector field X_s through omega(X_s, .) = dH_s, which in cartesian
coordinates reads X = (dH/dy / 2, -dH/dx / 2).  All interior calculus is
cartesian so the polar singularity at r = 0 never enters.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, EvaluationError, PreconditionError
from .geometry import TWO_PI, as_xy

_PERIODICITY_N_S = 16
_PERIODICITY_N_POINTS = 64
_PERIODICITY_TOL = 1e-10


# ---------------------------------------------------------------------------
# Hamiltonian families
# ---------------------------------------------------------------------------


class Hamiltonian:
    """A 2*pi-periodic family of functions on the closed unit disc.

    Subclasses supply ``value`` and the analytic hooks ``grad_components``
    -> (gx, gy) and ``hessian_components`` -> (hxx, hxy, hyy), from which
    the base class alone builds ``grad``, ``hessian``, ``velocity`` and
    ``velocity_jacobian``; it raises ``NotImplementedError`` for the three,
    so no derivative is ever a finite difference.

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
    time_dependent : bool
        False on families independent of s: chart sweeps take one slice.
    linear_velocity : bool
        True on families with X_s(p) = A p for one constant A, so DX = A
        everywhere: ``flows.linearized_return`` moves one J for a batch.
    """

    boundary_value: float = 0.0
    time_dependent: bool = True
    linear_velocity: bool = False

    def value(self, s, xy):
        raise NotImplementedError

    def grad_components(self, s, xy):
        raise NotImplementedError

    def hessian_components(self, s, xy):
        raise NotImplementedError

    # -- derived fields -----------------------------------------------------

    def grad(self, s, xy):
        """dH as a (..., 2) array."""
        return np.stack(self.grad_components(s, xy), axis=-1)

    def hessian(self, s, xy):
        """The symmetric Hessian of H as a (..., 2, 2) array."""
        hxx, hxy, hyy = self.hessian_components(s, xy)
        return np.stack([hxx, hxy, hxy, hyy], axis=-1).reshape(
            np.shape(hxx) + (2, 2))

    def velocity(self, s, xy):
        """Hamiltonian vector field X = (dH/dy, -dH/dx) / 2 at (s, xy)."""
        gx, gy = self.grad_components(s, xy)
        out = np.empty(np.shape(gx) + (2,))
        np.multiply(0.5, gy, out=out[..., 0])
        np.multiply(-0.5, gx, out=out[..., 1])
        return out

    def velocity_jacobian(self, s, xy):
        """DX as the (..., 2, 2) view of a C-contiguous components-first
        (2, 2, ...) buffer, written from the Hessian components: the
        variational RK4 (``flows._rk4_steps``) carries J components first
        and turns it back by a transpose without a copy."""
        hxx, hxy, hyy = self.hessian_components(s, xy)
        out = np.empty((2, 2) + np.shape(hxx))
        np.multiply(0.5, hxy, out=out[0, 0, ...])
        np.multiply(0.5, hyy, out=out[0, 1, ...])
        np.multiply(-0.5, hxx, out=out[1, 0, ...])
        np.multiply(-0.5, hxy, out=out[1, 1, ...])
        return out.transpose(tuple(range(2, out.ndim)) + (0, 1))


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


@functools.cache
def _fitpack():
    """scipy's FITPACK module ``interpolate._dfitpack``, loaded without scipy."""
    scipy = importlib.util.find_spec("scipy")
    where = [f"{d}/interpolate"
             for d in (scipy.submodule_search_locations if scipy else [])]
    spec = importlib.machinery.PathFinder.find_spec("_dfitpack", where)
    if spec is None:
        raise ConfigurationError(f"no scipy.interpolate._dfitpack in {where}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class QuinticField:
    """A quintic interpolating spline on the grid ``ax_x`` x ``ax_y``.

    ``tck`` = (tx, ty, c) is FITPACK's fit and ``ev(dx, dy, x, y)`` the
    (dx, dy) partial at the points (x, y), dx and dy in 0..4, derived on
    first use and kept; both are scipy's public calls, bit for bit.
    ``point_grad(x, y)`` is the gradient at one point, for one-point flows.
    FITPACK runs without scipy's ``FITPACK_LOCK``: each reebcut process,
    forked workers included, evaluates splines from one thread.
    """

    degree = 5

    def __init__(self, ax_x, ax_y, values):
        k = self.degree
        nx, tx, ny, ty, c, _, ier = _fitpack().regrid_smth(
            ax_x, ax_y, np.ravel(values), None, None, None, None, k, k, 0.0, 20)
        if ier not in (0, -1, -2):
            raise PreconditionError(f"spline fit failed, FITPACK ier={ier}")
        self.tck = tx[:nx], ty[:ny], c[:(nx - k - 1) * (ny - k - 1)]
        self.drop_partials()

    def drop_partials(self):
        """Forget the derived partials; each is derived again on next use."""
        k = self.degree
        self._partials = {(0, 0): (*self.tck, k, k)}

    def _partial(self, dx, dy):
        """The (dx, dy) partial as ``bispeu``'s leading arguments."""
        part = self._partials.get((dx, dy))
        if part is None:
            tx, ty, c = self.tck
            k, mx, my = self.degree, len(tx) - dx, len(ty) - dy
            if not (0 <= dx < k and 0 <= dy < k):
                raise PreconditionError(f"partial order ({dx}, {dy}) outside 0..4")
            newc, ier = _fitpack().pardtc(tx, ty, c, k, k, dx, dy)
            if ier != 0:
                raise EvaluationError(f"spline partial failed, FITPACK ier={ier}")
            part = self._partials[dx, dy] = (tx[dx:mx], ty[dy:my],
                newc[:(mx - k - 1) * (my - k - 1)], k - dx, k - dy)
        return part

    def ev(self, dx, dy, x, y):
        part = self._partial(dx, dy)
        x, y = np.asarray(x), np.asarray(y)
        if x.shape != y.shape:
            x, y = np.broadcast_arrays(x, y)
        if x.size == 0:
            return np.zeros(x.shape)
        z, ier = _fitpack().bispeu(*part, x.ravel(), y.ravel())
        if ier != 0:
            raise EvaluationError(f"spline evaluation failed, FITPACK ier={ier}")
        return z.reshape(x.shape)

    def point_grad(self, x, y):
        """(d/dx, d/dy) at one point given as two floats, as two floats.

        The same ``bispeu`` call as ``ev(1, 0, x, y)`` and
        ``ev(0, 1, x, y)``, so bitwise equal to them, without the array
        handling that costs a one-point call about a third of its time.
        """
        bispeu = _fitpack().bispeu
        gx, ier_x = bispeu(*self._partial(1, 0), x, y)
        gy, ier_y = bispeu(*self._partial(0, 1), x, y)
        if ier_x != 0 or ier_y != 0:
            raise EvaluationError(
                f"spline evaluation failed, FITPACK ier={ier_x or ier_y}")
        return gx.item(), gy.item()


# slices a SliceFields keeps at a time
_SLICE_CACHE = 16


class SliceFields(dict):
    """Time slice j -> its ``QuinticField``, built by ``build(j)`` on first use.

    At most ``_SLICE_CACHE`` slices are kept.  A new slice evicts the one
    farthest from it: outer integrations march forward in s, but a caller
    may also step back.
    """

    def __init__(self, build):
        super().__init__()
        self._build = build

    def __missing__(self, j):
        field = self[j] = self._build(j)
        if len(self) > _SLICE_CACHE:
            self.pop(max(self, key=lambda a: abs(a - j)))
        return field

    def blend(self, js, w, dx, dy, xy, out):
        """``out`` plus the ``slice_weights`` blend of the slices' (dx, dy)
        partials at the points ``xy``, summed slice by slice."""
        for a, wa in zip(js, w):
            out = out + wa * self[a].ev(dx, dy, xy[..., 0], xy[..., 1])
        return out


class QuadraticHamiltonian(Hamiltonian):
    """H = a2 r^2 + a0, the intrinsic model of an ellipsoid Reeb flow.

    The Hamiltonian vector field is the rigid rotation field -a2 d/dtheta,
    and a0 > 0 is exactly the contact condition.
    """

    time_dependent = False
    linear_velocity = True

    def __init__(self, a0, a2):
        self.a0 = float(a0)
        self.a2 = float(a2)
        self.boundary_value = self.a0 + self.a2

    def value(self, s, xy):
        xy = np.asarray(xy, dtype=float)
        r2 = xy[..., 0] ** 2 + xy[..., 1] ** 2
        return self.a2 * r2 + self.a0

    def grad_components(self, s, xy):
        xy = np.asarray(xy, dtype=float)
        c = 2.0 * self.a2
        return c * xy[..., 0], c * xy[..., 1]

    def hessian_components(self, s, xy):
        c = np.full(np.shape(xy)[:-1], 2.0 * self.a2)
        return c, np.zeros(c.shape), c

    def velocity(self, s, xy):
        """X = (c y, -c x) / 2 with c = 2 a2, the constants folded in.

        The base class computes 0.5 * (c * y); this computes (0.5 * c) * y
        without the gradient components.  A scale by +-0.5 is exact, so it
        commutes with the rounding of the product and the bits agree,
        except where |c y| < 2**-1021, whose half is subnormal and may
        round, or where c y overflows.
        """
        xy = np.asarray(xy, dtype=float)
        c = 2.0 * self.a2
        out = np.empty(xy.shape)
        np.multiply(0.5 * c, xy[..., 1], out=out[..., 0])
        np.multiply(-0.5 * c, xy[..., 0], out=out[..., 1])
        return out


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


class CallableHamiltonian(Hamiltonian):
    """Wrap plain callables ``fn(s, xy)`` as a Hamiltonian.

    ``grad_fn``/``hessian_fn`` are the analytic derivative oracles,
    returning (..., 2) and symmetric (..., 2, 2) arrays; without one, the
    derivatives built on it raise ``NotImplementedError``.
    """

    def __init__(self, value_fn, boundary_value, grad_fn=None, hessian_fn=None,
                 time_dependent=True):
        self._value_fn = value_fn
        self._grad_fn = grad_fn
        self._hessian_fn = hessian_fn
        self.boundary_value = float(boundary_value)
        self.time_dependent = time_dependent

    def value(self, s, xy):
        try:
            return np.asarray(self._value_fn(s, np.asarray(xy, dtype=float)))
        except Exception as exc:  # pragma: no cover - defensive
            raise EvaluationError(f"value oracle failed: {exc}", s=s, point=xy)

    def grad_components(self, s, xy):
        if self._grad_fn is None:
            return super().grad_components(s, xy)
        g = np.asarray(self._grad_fn(s, np.asarray(xy, dtype=float)))
        return g[..., 0], g[..., 1]

    def hessian_components(self, s, xy):
        if self._hessian_fn is None:
            return super().hessian_components(s, xy)
        hess = np.asarray(self._hessian_fn(s, np.asarray(xy, dtype=float)))
        return hess[..., 0, 0], hess[..., 1, 0], hess[..., 1, 1]


def cosine_defect_hamiltonian(h, c, d):
    """H = h + (1 - r^2)(c + d cos(theta)).

    For d != 0 this violates the radial-collar assumption on every collar:
    the binding function acquires a direction-dependent limit and the
    extension test must fail at order zero.  Gradient and Hessian are
    analytic; the field is Lipschitz but not differentiable at the origin,
    which the collar-focused audits never sample, and both oracles read 0
    there.
    """

    def value(s, xy):
        x, y = xy[..., 0], xy[..., 1]
        r = np.sqrt(x * x + y * y)
        r2 = r * r
        cos_t = np.where(r > 0, x / np.where(r > 0, r, 1.0), 1.0)
        return h + (1.0 - r2) * (c + d * cos_t)

    def grad_fn(s, xy):
        x, y = xy[..., 0], xy[..., 1]
        r = np.sqrt(x * x + y * y)
        safe = np.where(r > 0, r, 1.0)
        r3 = safe**3
        gx = -2.0 * c * x + d * (y * y / r3 - safe - x * x / safe)
        gy = -2.0 * c * y + d * (-x * y / r3 - x * y / safe)
        gx = np.where(r > 0, gx, 0.0)
        gy = np.where(r > 0, gy, 0.0)
        return np.stack([gx, gy], axis=-1)

    def hessian_fn(s, xy):
        # H - h = g (c + d u) with g = 1 - r^2 and u = x / r
        x, y = xy[..., 0], xy[..., 1]
        r = np.sqrt(x * x + y * y)
        safe = np.where(r > 0, r, 1.0)
        r3, r5 = safe**3, safe**5
        g, u = 1.0 - r * r, x / safe
        ux, uy = y * y / r3, -x * y / r3
        uxx = -3.0 * x * y * y / r5
        uxy = y * (2.0 * x * x - y * y) / r5
        uyy = x * (2.0 * y * y - x * x) / r5
        out = np.empty(xy.shape[:-1] + (2, 2))
        out[..., 0, 0] = -2.0 * (c + d * u) - 4.0 * d * x * ux + d * g * uxx
        out[..., 0, 1] = -2.0 * d * (x * uy + y * ux) + d * g * uxy
        out[..., 1, 0] = out[..., 0, 1]
        out[..., 1, 1] = -2.0 * (c + d * u) - 4.0 * d * y * uy + d * g * uyy
        return np.where((r > 0)[..., None, None], out, 0.0)

    return CallableHamiltonian(
        value,
        boundary_value=h,
        grad_fn=grad_fn,
        hessian_fn=hessian_fn,
        time_dependent=False,
    )


def check_s_periodicity(H):
    """Max |H(s + 2*pi) - H(s)| over random samples, at most _PERIODICITY_TOL."""
    # a fresh generator per call: a shared one would move the draws
    rng = np.random.default_rng(0)
    r = np.sqrt(rng.uniform(0.0, 1.0, _PERIODICITY_N_POINTS))
    t = rng.uniform(0.0, TWO_PI, _PERIODICITY_N_POINTS)
    xy = np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)
    worst = float(np.max([
        np.max(np.abs(H.value(s + TWO_PI, xy) - H.value(s, xy)))
        for s in np.linspace(0.0, TWO_PI, _PERIODICITY_N_S, endpoint=False)]))
    # written so that a NaN defect fails too
    if not worst <= _PERIODICITY_TOL:
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
    gx, gy = H.grad_components(s, xy)
    return -0.5 * (xy[..., 0] * gx + xy[..., 1] * gy)


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
        gx, gy = H.grad_components(s, bpts)
        # on r = 1 the radial derivative is x dH/dx + y dH/dy
        slope = bpts[..., 0] * gx + bpts[..., 1] * gy
        slope_max = float(np.maximum(slope_max, np.max(slope)))
    return ContactAuditReport(
        min_margin=min_margin,
        boundary_slope_max=slope_max,
        grid=grid,
        boundary_value=H.boundary_value,
    )
