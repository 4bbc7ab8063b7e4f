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
    """Integrator configuration.

    Fixed-step RK4 is the default: deterministic step sequences make every
    report bit-reproducible.  The adaptive pair is opt-in for stiff user
    Hamiltonians.
    """

    integrator: str = "rk4"
    step: float = TWO_PI / 2000.0
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_steps: int = 2_000_000

    def __post_init__(self):
        # written so that NaN fails every check: NaN comparisons are false
        if not (math.isfinite(self.step) and self.step > 0):
            raise ConfigurationError("step must be positive and finite")
        if not all(math.isfinite(t) and t > 0 for t in (self.abs_tol, self.rel_tol)):
            raise ConfigurationError("tolerances must be positive and finite")
        if not self.max_steps >= 1:
            raise ConfigurationError("max_steps must be at least 1")
        if self.integrator not in ("rk4", "rk45"):
            raise ConfigurationError(f"unknown integrator {self.integrator!r}")


@dataclass
class IsotopyPath:
    """A solved trajectory batch: s_values (M,), points (M, ..., 2)."""

    s_values: np.ndarray
    points: np.ndarray

    @property
    def endpoint(self):
        return self.points[-1]


def _check_in_disc(xy, s):
    if not np.all(np.isfinite(xy)):
        raise IntegrationError(
            f"trajectory state is not finite at s = {s}", last_s=s, last_state=xy
        )
    r = np.sqrt(xy[..., 0] ** 2 + xy[..., 1] ** 2)
    worst = float(np.max(r)) if r.size else 0.0
    if worst > 1.0 + DISC_DRIFT_TOL:
        raise IntegrationError(
            f"trajectory left the closed disc (r = {worst}) at s = {s}",
            last_s=s,
            last_state=xy,
        )


def _rk4(velocity, y0, s0, s1, step, record=False, check_disc=True):
    n_steps = max(1, int(np.ceil(abs(s1 - s0) / step - 1e-12)))
    # even count keeps composite Simpson available on the recorded grid
    if n_steps % 2:
        n_steps += 1
    h = (s1 - s0) / n_steps
    y = np.array(y0, dtype=float)
    if record:
        out = np.empty((n_steps + 1,) + y.shape)
        out[0] = y
    s = s0
    for i in range(n_steps):
        k1 = velocity(s, y)
        k2 = velocity(s + 0.5 * h, y + 0.5 * h * k1)
        k3 = velocity(s + 0.5 * h, y + 0.5 * h * k2)
        k4 = velocity(s + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        s = s0 + (i + 1) * h
        if record:
            out[i + 1] = y
    if check_disc:
        _check_in_disc(y if not record else out[-1], s)
    if record:
        return np.linspace(s0, s1, n_steps + 1), out
    return y


# Dormand-Prince 5(4) coefficients for the adaptive path
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


def _rk45(velocity, y0, s0, s1, settings, record=False, check_disc=True):
    y = np.array(y0, dtype=float)
    s = s0
    h = min(settings.step, abs(s1 - s0)) * np.sign(s1 - s0 or 1.0)
    ss = [s]
    ys = [y.copy()]
    for _ in range(settings.max_steps):
        if (s1 - s) * np.sign(h) <= 1e-15:
            break
        if abs(h) > abs(s1 - s):
            h = s1 - s
        ks = []
        for i in range(7):
            yi = y
            for a, k in zip(_DP_A[i], ks):
                yi = yi + h * a * k
            ks.append(velocity(s + _DP_C[i] * h, yi))
        y5 = y + h * sum(b * k for b, k in zip(_DP_B5, ks))
        y4 = y + h * sum(b * k for b, k in zip(_DP_B4, ks))
        scale = settings.abs_tol + settings.rel_tol * np.maximum(
            np.abs(y), np.abs(y5)
        )
        err = float(np.max(np.abs(y5 - y4) / scale))
        if err <= 1.0:
            s = s + h
            y = y5
            ss.append(s)
            ys.append(y.copy())
        factor = 0.9 * (max(err, 1e-16)) ** (-0.2)
        h = h * min(5.0, max(0.2, factor))
        if abs(h) < 1e-14:
            raise IntegrationError("step underflow", last_s=s, last_state=y)
    else:
        raise IntegrationError("max step count exceeded", last_s=s, last_state=y)
    if check_disc:
        _check_in_disc(y, s)
    if record:
        return np.array(ss), np.array(ys)
    return y


def _solve(velocity, y0, s0, s1, settings, record=False, check_disc=True):
    if settings.integrator == "rk4":
        return _rk4(velocity, y0, s0, s1, settings.step, record, check_disc)
    return _rk45(velocity, y0, s0, s1, settings, record, check_disc)


def integrate_isotopy(H, p0, s0=0.0, s1=TWO_PI, settings=None, record=True):
    """Solve dp/ds = X_s(p) for one point or a batch.

    Returns an IsotopyPath when ``record`` is set, otherwise the endpoint
    array.  Points must stay in the closed disc (small drift tolerated).
    """
    settings = settings or FlowSettings()
    y0 = as_xy(p0)
    if record:
        s_values, points = _solve(H.velocity, y0, s0, s1, settings, record=True)
        return IsotopyPath(s_values=s_values, points=points)
    return _solve(H.velocity, y0, s0, s1, settings, record=False)


def return_map(H, p, settings=None):
    """The Poincare return map: the time-2*pi map of the isotopy."""
    return integrate_isotopy(H, p, 0.0, TWO_PI, settings, record=False)


def _variational_velocity(H):
    def velocity(s, state):
        xy = state[..., :2]
        jac = state[..., 2:].reshape(state.shape[:-1] + (2, 2))
        v = H.velocity(s, xy)
        a = H.velocity_jacobian(s, xy)
        dj = np.einsum("...ij,...jk->...ik", a, jac)
        return np.concatenate(
            [v, dj.reshape(state.shape[:-1] + (4,))], axis=-1
        )

    return velocity


def linearized_return(H, p, settings=None, s1=TWO_PI, return_endpoint=False):
    """Solve the variational equation dJ/ds = DX_s(path) J with J(0) = I.

    Returns the 2x2 monodromy of the return map (batched when ``p`` is a
    batch); with ``return_endpoint`` also the flowed points.
    """
    settings = settings or FlowSettings()
    xy = as_xy(p)
    eye = np.broadcast_to(np.eye(2).reshape((1,) * (xy.ndim - 1) + (2, 2)),
                          xy.shape[:-1] + (2, 2))
    state0 = np.concatenate([xy, eye.reshape(xy.shape[:-1] + (4,))], axis=-1)
    out = _solve(_variational_velocity(H), state0, 0.0, s1, settings,
                 record=False, check_disc=False)
    end = out[..., :2]
    _check_in_disc(end, s1)
    jac = out[..., 2:].reshape(xy.shape[:-1] + (2, 2))
    if return_endpoint:
        return jac, end
    return jac


def reeb_period(H, path: IsotopyPath, closure_tol=1e-6):
    """Elapsed Reeb time along a closed orbit of R = d/ds + X_s.

    The field R satisfies alpha(R) = H + lambda(X), so true Reeb time is the
    integral of that density over one parameter period.  Composite Simpson
    on the integrator grid (the step count is kept even for this).
    """
    gap = float(np.max(np.abs(path.points[0] - path.points[-1])))
    if gap > closure_tol:
        raise PreconditionError(f"path does not close up (gap {gap:.3e})")
    s = path.s_values
    vals = np.empty(len(s))
    for i, si in enumerate(s):
        xy = path.points[i]
        g = H.grad(si, xy)
        lam = -0.5 * (xy[..., 0] * g[..., 0] + xy[..., 1] * g[..., 1])
        vals[i] = H.value(si, xy) + lam
    n = len(s) - 1
    h = (s[-1] - s[0]) / n
    uniform = np.allclose(np.diff(s), h, rtol=0, atol=1e-12 * abs(h) + 1e-15)
    if n % 2 == 0 and uniform:
        return float(h / 3.0 * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum()
                                + 2 * vals[2:-2:2].sum()))
    # adaptive paths have non-uniform nodes; trapezoid handles them
    return float(np.trapezoid(vals, s))


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
    for r in rotation_radii:
        start = np.array([r, 0.0])
        img = return_map(H, start, settings)
        angle = np.arctan2(img[1], img[0])
        rotations.append((float(r), float(angle)))
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
