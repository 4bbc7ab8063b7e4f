"""Time-dependent Hamiltonian flow on the disc and Poincare return maps.

The section {0} x D^2 of the mapping torus is returned to at parameter time
2*pi, so the return map is simply the time-2*pi map of the disc isotopy.
True Reeb time is accounted separately through ``reeb_period``: rescaling
the field to unit return time would blow up at the boundary.

The module also holds the one fork helper, ``_run_jobs``, and the one
flow of large point batches on top of it, ``_flow_batch``, which
``DiscDiffeo`` and ``MoserMap`` use.
"""

from __future__ import annotations

import functools
import gc
import math
import os
import signal
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, IntegrationError, PreconditionError
from .geometry import TWO_PI, as_xy
from .hamiltonians import contact_margin

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
               record=False, trace=None):
    """``n_steps`` fixed RK4 steps of size ``h`` from parameter ``s0``.

    Returns ``(y, J)``: J solves dJ/ds = DX_s J from J = I when
    ``velocity_jacobian`` is given, else it is None.  With ``record`` both
    are stacked over the steps, the start first.  A ``trace`` array of
    shape (n_steps + 1, k, ...) gets the first k rows of y at each step,
    the start first.

    ``velocity_jacobian`` returns DX as a (..., 2, 2) array over the batch
    shape of ``y``.  J is carried components first, as a C-contiguous
    (2, 2, ...) array, so that each product of DX J runs over the whole
    batch in one contiguous loop; DX is turned the same way by a transpose,
    which costs a copy only when the oracle's buffer is not components
    first.  J comes back as a C-contiguous (..., 2, 2) array (stacked
    (n_steps + 1, ..., 2, 2) with ``record``).  Entry (r, c) of DX J is
    DX[r, 0] J[0, c] + DX[r, 1] J[1, c], two rounded products and one add:
    np.matmul and np.einsum may fuse the multiply-add and so move the last
    bit.
    """
    nd = y.ndim - 1
    # transposes by axes tuples: np.moveaxis costs microseconds per call,
    # which small batches would pay at every stage of every step
    to_components = (nd, nd + 1) + tuple(range(nd))
    to_points = tuple(range(2, nd + 2)) + (0, 1)

    def dxj(s, q, j):
        a = np.ascontiguousarray(velocity_jacobian(s, q).transpose(to_components))
        return a[:, 0, None] * j[None, 0] + a[:, 1, None] * j[None, 1]

    jac = (None if velocity_jacobian is None
           else np.broadcast_to(np.eye(2).reshape((2, 2) + (1,) * nd),
                                (2, 2) + y.shape[:-1]))
    jacs = None
    if record:
        ys = np.empty((n_steps + 1,) + y.shape)
        ys[0] = y
        if jac is not None:
            jacs = np.empty((n_steps + 1,) + y.shape[:-1] + (2, 2))
            # the steps are written components first through this view
            jacs_components = jacs.transpose(
                (0,) + tuple(i + 1 for i in to_components))
            jacs_components[0] = jac
    if trace is not None:
        trace[0] = y[:trace.shape[1]]
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
        if trace is not None:
            trace[i + 1] = y[:trace.shape[1]]
        if record:
            ys[i + 1] = y
            if jac is not None:
                jacs_components[i + 1] = jac
    if record:
        return ys, jacs
    return y, (None if jac is None
               else np.ascontiguousarray(jac.transpose(to_points)))


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


def _rk4_point_jacobian(dx, h, n_steps):
    """``_rk4_steps``' J for a constant (2, 2) DX, carried in Python floats
    in that loop's order, so bitwise the J it carries for every point."""
    (a, b), (c, d) = dx.tolist()
    h = float(h)

    def dxj(j):  # DX J, with j and the result flat: J00, J01, J10, J11
        return [a * j[0] + b * j[2], a * j[1] + b * j[3],
                c * j[0] + d * j[2], c * j[1] + d * j[3]]

    jac = [1.0, 0.0, 0.0, 1.0]
    for _ in range(n_steps):
        l1 = dxj(jac)
        l2 = dxj([j + 0.5 * h * l for j, l in zip(jac, l1)])
        l3 = dxj([j + 0.5 * h * l for j, l in zip(jac, l2)])
        l4 = dxj([j + h * l for j, l in zip(jac, l3)])
        jac = [j + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
               for j, k1, k2, k3, k4 in zip(jac, l1, l2, l3, l4)]
    return np.array(jac).reshape(2, 2)


def _cpu_count():
    """CPUs in this process's affinity set; one without sched_getaffinity."""
    return len(getattr(os, "sched_getaffinity", lambda pid: [0])(0))


# set in a forked worker of _run_jobs, whose own job lists run in-process
_IN_WORKER = False


def _run_jobs(jobs):
    """The results of the no-argument callables ``jobs``, in job order.

    The caller runs jobs[0]; each other job runs in a forked worker, which
    pickles its result back through a pipe.  Pickle round-trips floats and
    arrays exactly and a job does the same arithmetic in any process, so
    the results are bitwise the one-process results.  A worker that
    raises, warns or dies has its job run again here, in job order, where
    the error surfaces as in one process; a caller that raises kills and
    reaps every worker first.  With one job, one CPU in the affinity set,
    no ``fork``, or inside a worker, every job runs in-process.
    """
    global _IN_WORKER
    if (len(jobs) < 2 or _IN_WORKER or not hasattr(os, "fork")
            or _cpu_count() < 2):
        return [job() for job in jobs]
    import pickle
    workers = {}                      # job index -> (pid, its pipe)
    try:
        for k in range(1, len(jobs)):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                # the worker: never returns into the caller's frames
                try:
                    # no cycle collection: parent garbage with finalizers
                    # (temporary files, say) must not be finalized here
                    gc.disable()
                    _IN_WORKER = True
                    with warnings.catch_warnings(record=True) as caught:
                        result = jobs[k]()
                    if not caught:
                        with open(w, "wb") as pipe:
                            pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
                        os._exit(0)
                finally:
                    os._exit(1)
            os.close(w)
            workers[k] = pid, open(r, "rb")
        first, done = jobs[0](), {}
        for k in range(1, len(jobs)):
            pid, pipe = workers[k]
            with pipe:
                data = pipe.read()
            if os.waitpid(pid, 0)[1] == 0:
                done[k] = pickle.loads(data)
            del workers[k]
        return [first] + [done[k] if k in done else jobs[k]()
                          for k in range(1, len(jobs))]
    finally:
        for pid, pipe in workers.values():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _share_bounds(n, count):
    """``count`` contiguous (lo, hi) shares of range(n), sizes within one."""
    return [(n * k // count, n * (k + 1) // count) for k in range(count)]


# bytes of the one array that _flow_batch frees before its shares start.
# glibc's malloc (mallopt(3)) hands the free top of its heap back to the
# kernel once it exceeds the trim threshold, which is twice the mmap
# threshold; that starts at 128 KiB and rises only when the process frees
# an mmapped chunk larger than it, to that chunk's size.  The RK4
# temporaries of a flow block of some thousand points are 64-512 KiB, so
# at the starting thresholds every stage trims the heap and faults it
# back in.  Freeing a 4 MiB chunk lifts the mmap threshold to 4 MiB and
# the trim threshold to 8 MiB, in this process and in the workers it forks.
_HEAP_RAISE_BYTES = 4 << 20


def _flow_batch(velocity, pts, h, n_steps, block, velocity_jacobian):
    """``n_steps`` RK4 steps of size ``h`` from s = 0 of the points ``pts``
    (..., 2): the flowed points and, when ``velocity_jacobian`` is given,
    their Jacobians (..., 2, 2), else None.

    The flattened batch is cut into contiguous shares, one per CPU of the
    affinity set, at most one per ``block`` points and at least one, run
    as the jobs of ``_run_jobs``.  Each share integrates ``block`` points
    at a time through all steps, so that the RK4 temporaries stay
    cache-sized instead of fresh page-faulted allocations of the whole
    batch.  A flow whose every operation acts on each point alone gives
    each point the same arithmetic in any block, share and process, so
    the result is bitwise the flow of the whole batch at once.

    Every share writes its blocks into its slice of one output array and
    returns that slice: a worker's slice comes back pickled alone and is
    copied in, a share run in the caller is already in place.
    """
    pts = np.asarray(pts, dtype=float)
    flat = pts.reshape(-1, 2)
    # allocated and freed at once: an mmapped chunk, untouched
    np.empty(_HEAP_RAISE_BYTES, dtype=np.uint8)
    out = np.empty(flat.shape)
    jac = None if velocity_jacobian is None else np.empty((len(flat), 2, 2))

    def share(lo, hi):
        for i in range(lo, hi, block):
            j = min(i + block, hi)
            out[i:j], dy = _rk4_steps(velocity, flat[i:j], 0.0, h, n_steps,
                                      velocity_jacobian)
            if jac is not None:
                jac[i:j] = dy
        return out[lo:hi], None if jac is None else jac[lo:hi]

    count = min(_cpu_count(), max(1, -(-len(flat) // block)))
    bounds = _share_bounds(len(flat), count)
    shares = _run_jobs([functools.partial(share, lo, hi) for lo, hi in bounds])
    for (lo, hi), (y, dy) in zip(bounds, shares):
        out[lo:hi] = y
        if jac is not None:
            jac[lo:hi] = dy
    return (out.reshape(pts.shape),
            None if jac is None else jac.reshape(pts.shape[:-1] + (2, 2)))


def integrate_isotopy(H, p0, s0=0.0, s1=TWO_PI, settings=None, record=True):
    """Solve dp/ds = X_s(p) for one point or a batch.

    Returns an IsotopyPath when ``record`` is set, otherwise the endpoint
    array.  Points must stay in the closed disc (small drift tolerated).
    An unrecorded single (2,) point of an H with ``point_velocity`` is
    integrated in Python floats, bitwise equal to the array path.
    """
    settings = settings or FlowSettings()
    n_steps, h = _step_grid(s0, s1, settings.step)
    y = np.array(as_xy(p0), dtype=float)
    _check_finite(y, s0)
    point_velocity = getattr(H, "point_velocity", None)
    if point_velocity is not None and not record and y.shape == (2,):
        y = _rk4_point_steps(point_velocity, y, s0, h, n_steps)
    else:
        y, _ = _rk4_steps(H.velocity, y, s0, h, n_steps, record=record)
    _check_in_disc(y[-1] if record else y, s0 + n_steps * h)
    if record:
        return IsotopyPath(np.linspace(s0, s1, n_steps + 1), y)
    return y


def return_map(H, p, settings=None):
    """The Poincare return map: the time-2*pi map of the isotopy."""
    return integrate_isotopy(H, p, 0.0, TWO_PI, settings, record=False)


def linearized_return(H, p, settings=None, s1=TWO_PI, return_endpoint=False,
                      trace=None):
    """Solve the variational equation dJ/ds = DX_s(path) J with J(0) = I.

    Returns the 2x2 monodromy of the return map (batched when ``p`` is a
    batch); with ``return_endpoint`` also the flowed points.  A ``trace``
    array is filled as by ``_rk4_steps``.

    For an H with ``linear_velocity`` the batch flows without J, and every
    point gets one J moved from DX at the origin: the same bits.
    """
    settings = settings or FlowSettings()
    xy = as_xy(p)
    _check_finite(xy, 0.0)
    n_steps, h = _step_grid(0.0, s1, settings.step)
    if H.linear_velocity:
        end, _ = _rk4_steps(H.velocity, xy, 0.0, h, n_steps, trace=trace)
        one = _rk4_point_jacobian(H.velocity_jacobian(0.0, np.zeros(2)),
                                  h, n_steps)
        jac = np.broadcast_to(one, xy.shape[:-1] + (2, 2)).copy()
    else:
        end, jac = _rk4_steps(H.velocity, xy, 0.0, h, n_steps,
                              H.velocity_jacobian, trace=trace)
    _check_in_disc(end, s1)
    if return_endpoint:
        return jac, end
    return jac


# the largest endpoint gap of a path that reeb_period accepts as closed
_CLOSURE_TOL = 1e-6


def reeb_period(H, path: IsotopyPath):
    """Elapsed Reeb time along a closed orbit of R = d/ds + X_s.

    The field R satisfies alpha(R) = H + lambda(X), so true Reeb time is the
    integral of that density over one parameter period.  Composite Simpson
    on the integrator grid, whose step count is kept even for this; a path
    on any other grid is refused.
    """
    gap = float(np.max(np.abs(path.points[0] - path.points[-1])))
    if gap > _CLOSURE_TOL:
        raise PreconditionError(f"path does not close up (gap {gap:.3e})")
    s = path.s_values
    n = len(s) - 1
    h = (s[-1] - s[0]) / n
    if n % 2 or not np.allclose(np.diff(s), h, rtol=0,
                                atol=1e-12 * abs(h) + 1e-15):
        raise PreconditionError(
            "reeb_period needs an even number of uniform steps"
        )
    vals = np.array([contact_margin(H, si, xy)
                     for si, xy in zip(s, path.points)])
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

    images: np.ndarray
    jacobians: np.ndarray
    area_defects: np.ndarray
    # (n_steps + 1, k, 2): the paths of the first k <= TRACE_POINTS points
    traces: np.ndarray
    rotation_by_radius: list = field(default_factory=list)

    @property
    def max_area_defect(self):
        return float(np.max(self.area_defects))


# the flattened points whose paths a return_map_report records, for plots
TRACE_POINTS = 4


def return_map_report(H, points, settings=None, rotation_radii=()):
    """Return map images, Jacobians and rotation estimates at given radii.

    The rotation starts (r, 0) flow in the batch of the points, and the
    paths of the first ``TRACE_POINTS`` flattened points are recorded from
    that flow: every RK4 operation acts on each point alone, so they are
    bitwise the paths of those points flowed alone.
    """
    settings = settings or FlowSettings()
    pts = as_xy(points)
    radii = np.asarray(rotation_radii, dtype=float)
    starts = np.stack([radii, np.zeros_like(radii)], axis=-1)
    n = math.prod(pts.shape[:-1])
    n_steps, _ = _step_grid(0.0, TWO_PI, settings.step)
    traces = np.empty((n_steps + 1, min(TRACE_POINTS, n), 2))
    jac, images = linearized_return(
        H, np.concatenate([pts.reshape(n, 2), starts]), settings,
        return_endpoint=True, trace=traces)
    ends = images[n:]
    images = images[:n].reshape(pts.shape)
    jac = jac[:n].reshape(pts.shape[:-1] + (2, 2))
    det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
    angles = np.arctan2(ends[:, 1], ends[:, 0])
    return ReturnMapReport(
        images=images,
        jacobians=jac,
        area_defects=np.abs(det - 1.0),
        traces=traces,
        rotation_by_radius=[(float(r), float(a))
                            for r, a in zip(radii, angles)],
    )


# the longest period a scan follows; the pseudorotation schema bounds q by it
MAX_SCAN_PERIOD = 64


@dataclass
class PeriodicPointRecord:
    """A grid point returning to itself after ``period`` iterations."""

    period: int
    point: np.ndarray
    residual: float
    converged = False  # not a field: bench/tracer.py reads it by name


def periodic_point_scan(H, max_period, grid_points, tol=1e-6, settings=None):
    """Scan grid points for |psi^k(p) - p| < tol, k <= max_period: each point
    is recorded at its first hit, with its scan residual, in period order,
    then grid order."""
    if max_period > MAX_SCAN_PERIOD:
        raise PreconditionError(
            f"periodic scans are desk scale: max_period <= {MAX_SCAN_PERIOD}")
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
        found.extend(PeriodicPointRecord(k, p, r)
                     for p, r in zip(pts[remaining[hits]], res[hits].tolist()))
        remaining = remaining[~hits]
        current = current[~hits]
    return found
