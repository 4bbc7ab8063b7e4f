"""Time-dependent Hamiltonian flow on the disc and Poincare return maps.

The section {0} x D^2 of the mapping torus is returned to at parameter time
2*pi, so the return map is simply the time-2*pi map of the disc isotopy.
True Reeb time is accounted separately through ``reeb_period``: rescaling
the field to unit return time would blow up at the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, IntegrationError, PreconditionError
from .geometry import TWO_PI, as_xy

DISC_DRIFT_TOL = 1e-6


@dataclass
class FlowSettings:
    """Integrator configuration: the step of the fixed-step RK4.

    A deterministic step sequence makes every report bit-reproducible.
    """

    # not a field: the one integrator, still read by name by the benchmark
    # tracer (bench/tracer.py), which counts RK4 steps only when it is "rk4"
    integrator = "rk4"
    step: float = TWO_PI / 2000.0

    def __post_init__(self):
        # written so that NaN fails the check: NaN comparisons are false
        if not (math.isfinite(self.step) and self.step > 0):
            raise ConfigurationError("step must be positive and finite")


@dataclass
class IsotopyPath:
    """A solved trajectory batch: s_values (M,), points (M, ..., 2)."""

    s_values: np.ndarray
    points: np.ndarray

    @property
    def endpoint(self):
        return self.points[-1]


def _check_finite(xy, s):
    if not np.all(np.isfinite(xy)):
        raise IntegrationError(
            f"trajectory state is not finite at s = {s}", last_s=s, last_state=xy
        )


def _check_in_disc(xy, s):
    _check_finite(xy, s)
    r = np.sqrt(xy[..., 0] ** 2 + xy[..., 1] ** 2)
    worst = float(np.max(r)) if r.size else 0.0
    if worst > 1.0 + DISC_DRIFT_TOL:
        raise IntegrationError(
            f"trajectory left the closed disc (r = {worst}) at s = {s}",
            last_s=s,
            last_state=xy,
        )


def _step_grid(s0, s1, step):
    """Step count and signed step of the fixed-step integrator on [s0, s1]."""
    n_steps = max(1, int(np.ceil(abs(s1 - s0) / step - 1e-12)))
    # even count keeps composite Simpson available on the recorded grid
    n_steps += n_steps % 2
    return n_steps, (s1 - s0) / n_steps


def _rk4_steps(velocity, y, s0, h, n_steps, velocity_jacobian=None,
               record=False):
    """``n_steps`` fixed RK4 steps of size ``h`` from parameter ``s0``.

    Returns ``(y, J)``: J solves dJ/ds = DX_s J from J = I as its own
    (..., 2, 2) array when ``velocity_jacobian`` is given, else it is None.
    With ``record`` both are stacked over the steps, the start first.
    DX J takes two rounded products per entry: np.matmul may fuse the
    multiply-add and so move the last bit.
    """

    def dxj(s, q, j):
        a = velocity_jacobian(s, q)
        return (a[..., :, 0, None] * j[..., None, 0, :]
                + a[..., :, 1, None] * j[..., None, 1, :])

    jac = (None if velocity_jacobian is None
           else np.broadcast_to(np.eye(2), y.shape[:-1] + (2, 2)))
    jacs = None
    if record:
        ys = np.empty((n_steps + 1,) + y.shape)
        ys[0] = y
        if jac is not None:
            jacs = np.empty((n_steps + 1,) + jac.shape)
            jacs[0] = jac
    s = s0
    for i in range(n_steps):
        k1 = velocity(s, y)
        if jac is None:
            k2 = velocity(s + 0.5 * h, y + 0.5 * h * k1)
            k3 = velocity(s + 0.5 * h, y + 0.5 * h * k2)
            k4 = velocity(s + h, y + h * k3)
        else:
            l1 = dxj(s, y, jac)
            q = y + 0.5 * h * k1
            k2, l2 = velocity(s + 0.5 * h, q), dxj(s + 0.5 * h, q, jac + 0.5 * h * l1)
            q = y + 0.5 * h * k2
            k3, l3 = velocity(s + 0.5 * h, q), dxj(s + 0.5 * h, q, jac + 0.5 * h * l2)
            q = y + h * k3
            k4, l4 = velocity(s + h, q), dxj(s + h, q, jac + h * l3)
            jac = jac + (h / 6.0) * (l1 + 2.0 * l2 + 2.0 * l3 + l4)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        s = s0 + (i + 1) * h
        if record:
            ys[i + 1] = y
            if jac is not None:
                jacs[i + 1] = jac
    return (ys, jacs) if record else (y, jac)


def _rk4_point_steps(point_velocity, xy, s0, h, n_steps):
    """``_rk4_steps`` for one (2,) state, carried as two Python floats.

    A return map of one point is bound by numpy dispatch on 2-element
    arrays.  Python floats perform the same IEEE operations as numpy's
    elementwise float64 loops, and every update below is written in the
    order of ``_rk4_steps``, so the endpoint is bitwise the same.
    """
    x, y = xy.tolist()
    s0, h = float(s0), float(h)
    s = s0
    for i in range(n_steps):
        k1x, k1y = point_velocity(s, x, y)
        k2x, k2y = point_velocity(s + 0.5 * h, x + 0.5 * h * k1x,
                                  y + 0.5 * h * k1y)
        k3x, k3y = point_velocity(s + 0.5 * h, x + 0.5 * h * k2x,
                                  y + 0.5 * h * k2y)
        k4x, k4y = point_velocity(s + h, x + h * k3x, y + h * k3y)
        x = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        y = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        s = s0 + (i + 1) * h
    return np.array([x, y])


def _rk4(velocity, y0, s0, s1, step, record=False, point_velocity=None):
    n_steps, h = _step_grid(s0, s1, step)
    y = np.array(y0, dtype=float)
    _check_finite(y, s0)
    if point_velocity is not None and not record and y.shape == (2,):
        y = _rk4_point_steps(point_velocity, y, s0, h, n_steps)
    else:
        y, _ = _rk4_steps(velocity, y, s0, h, n_steps, record=record)
    _check_in_disc(y[-1] if record else y, s0 + n_steps * h)
    if record:
        return np.linspace(s0, s1, n_steps + 1), y
    return y


def integrate_isotopy(H, p0, s0=0.0, s1=TWO_PI, settings=None, record=True):
    """Solve dp/ds = X_s(p) for one point or a batch.

    Returns an IsotopyPath when ``record`` is set, otherwise the endpoint
    array.  Points must stay in the closed disc (small drift tolerated).
    An unrecorded single (2,) point of an H with ``point_velocity`` is
    integrated in Python floats, bitwise equal to the array path.
    """
    settings = settings or FlowSettings()
    out = _rk4(H.velocity, as_xy(p0), s0, s1, settings.step, record,
               getattr(H, "point_velocity", None))
    return IsotopyPath(*out) if record else out


def return_map(H, p, settings=None):
    """The Poincare return map: the time-2*pi map of the isotopy."""
    return integrate_isotopy(H, p, 0.0, TWO_PI, settings, record=False)


def linearized_return(H, p, settings=None, s1=TWO_PI, return_endpoint=False):
    """Solve the variational equation dJ/ds = DX_s(path) J with J(0) = I.

    Returns the 2x2 monodromy of the return map (batched when ``p`` is a
    batch); with ``return_endpoint`` also the flowed points.
    """
    settings = settings or FlowSettings()
    xy = as_xy(p)
    _check_finite(xy, 0.0)
    n_steps, h = _step_grid(0.0, s1, settings.step)
    end, jac = _rk4_steps(H.velocity, xy, 0.0, h, n_steps, H.velocity_jacobian)
    _check_in_disc(end, s1)
    if return_endpoint:
        return jac, end
    return jac


def reeb_period(H, path: IsotopyPath, closure_tol=1e-6):
    """Elapsed Reeb time along a closed orbit of R = d/ds + X_s.

    The field R satisfies alpha(R) = H + lambda(X), so true Reeb time is the
    integral of that density over one parameter period.  Composite Simpson
    on the integrator grid, whose step count is kept even for this; a path
    on any other grid is refused.
    """
    gap = float(np.max(np.abs(path.points[0] - path.points[-1])))
    if gap > closure_tol:
        raise PreconditionError(f"path does not close up (gap {gap:.3e})")
    s = path.s_values
    n = len(s) - 1
    h = (s[-1] - s[0]) / n
    if n % 2 or not np.allclose(np.diff(s), h, rtol=0,
                                atol=1e-12 * abs(h) + 1e-15):
        raise PreconditionError(
            "reeb_period needs an even number of uniform steps"
        )
    vals = np.empty(len(s))
    for i, si in enumerate(s):
        xy = path.points[i]
        g = H.grad(si, xy)
        lam = -0.5 * (xy[..., 0] * g[..., 0] + xy[..., 1] * g[..., 1])
        vals[i] = H.value(si, xy) + lam
    return float(h / 3.0 * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum()
                            + 2 * vals[2:-2:2].sum()))


def area_preservation_audit(H, grid_points, settings=None):
    """max |det Dpsi - 1| of the return map over the given points."""
    jac = linearized_return(H, as_xy(grid_points), settings)
    det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
    return float(np.max(np.abs(det - 1.0)))


@dataclass
class ReturnMapReport:
    """Audited return-map data over a batch of points."""

    points: np.ndarray
    images: np.ndarray
    jacobians: np.ndarray
    area_defects: np.ndarray
    rotation_by_radius: list = field(default_factory=list)

    @property
    def max_area_defect(self):
        return float(np.max(self.area_defects))


def return_map_report(H, points, settings=None, rotation_radii=()):
    """Return map images, Jacobians and rotation estimates at given radii."""
    pts = as_xy(points)
    jac, images = linearized_return(H, pts, settings, return_endpoint=True)
    det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
    rotations = []
    if len(rotation_radii):
        radii = np.asarray(rotation_radii, dtype=float)
        img = return_map(H, np.stack([radii, np.zeros_like(radii)], axis=-1),
                         settings)
        angles = np.arctan2(img[:, 1], img[:, 0])
        rotations = [(float(r), float(a)) for r, a in zip(radii, angles)]
    return ReturnMapReport(
        points=pts,
        images=images,
        jacobians=jac,
        area_defects=np.abs(det - 1.0),
        rotation_by_radius=rotations,
    )


@dataclass
class PeriodicPointRecord:
    """A grid point returning to itself after ``period`` iterations."""

    period: int
    point: np.ndarray
    residual: float
    converged: bool = True

    def to_dict(self):
        return {
            "period": self.period,
            "point": [float(self.point[0]), float(self.point[1])],
            "residual": self.residual,
            "converged": self.converged,
        }


def periodic_point_scan(H, max_period, grid_points, tol=1e-6, settings=None,
                        newton_steps=10, newton_tol=1e-10):
    """Scan grid points for |psi^k(p) - p| < tol, k <= max_period.

    Candidates are refined by Newton on psi^k - id using the variational
    Jacobian.  The refinement is batched per period: every hit of period k
    is refined together, one batched ``linearized_return`` per iteration of
    psi, and a point leaves the batch once it converges or its Newton
    system turns singular.  The per-point semantics are those of refining
    each hit on its own: records come in period order, then grid order;
    points where the Newton system is singular (every point of a rational
    rotation, for instance) keep their scan residual and are reported
    rather than dropped.
    """
    if max_period > 64:
        raise PreconditionError("periodic scans are desk scale: max_period <= 64")
    settings = settings or FlowSettings()
    pts = as_xy(grid_points).reshape(-1, 2)
    found: list[PeriodicPointRecord] = []
    remaining = np.arange(len(pts))
    current = pts.copy()
    for k in range(1, max_period + 1):
        if not len(remaining):
            break
        current = return_map(H, current, settings)
        res = np.sqrt(np.sum((current - pts[remaining]) ** 2, axis=-1))
        hits = res < tol
        found.extend(_refine_periodic_points(
            H, pts[remaining[hits]], k, settings, newton_steps, newton_tol
        ))
        remaining = remaining[~hits]
        current = current[~hits]
    return found


def _refine_periodic_points(H, p0, k, settings, newton_steps, newton_tol):
    """Newton on psi^k - id for a batch (n, 2) of period-k candidates."""
    p = np.array(p0, dtype=float)
    residual = [None] * len(p)
    converged = np.zeros(len(p), dtype=bool)
    active = np.arange(len(p))
    eye = np.eye(2)
    for _ in range(newton_steps):
        if not len(active):
            break
        start = p[active]
        jac = eye
        cur = start
        for _ in range(k):
            jstep, cur = linearized_return(H, cur, settings, return_endpoint=True)
            jac = jstep @ jac
        delta = cur - start
        res = np.hypot(delta[:, 0], delta[:, 1])
        for i, r in zip(active, res):
            residual[i] = float(r)
        done = res < newton_tol
        converged[active[done]] = True
        system = jac - eye
        # singular: rigid-rotation-like, psi^k = id, nothing to refine
        singular = np.abs(np.linalg.det(system)) < 1e-12
        move = ~done & ~singular
        step = np.linalg.solve(system[move], delta[move][:, :, None])
        moved = start[move] - step[:, :, 0]
        norm = np.hypot(moved[:, 0], moved[:, 1])
        outside = norm > 1.0
        moved[outside] = moved[outside] / norm[outside, None]
        p[active[move]] = moved
        active = active[move]
    return [PeriodicPointRecord(k, p[i], residual[i], converged=bool(converged[i]))
            for i in range(len(p))]
