"""Desk-scale pseudorotation approximation stages.

A stage is a conjugated rational rotation psi_nu = phi o R_{p/q} o phi^{-1}
generated by the autonomous Hamiltonian H = R o phi^{-1}, where R is the
rigid-rotation Hamiltonian and phi an explicit compactly supported
area-preserving map.  The published examples use conjugators that are not
explicitly available, so the built-in family realizes them as time-1 flows
of compactly supported generators: exactly area-preserving up to
integration error, identity near the boundary and near the center, and
fully reproducible.
"""

from __future__ import annotations

import functools
import gc
import os
import signal
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import IntegrationError, PreconditionError
from .flows import (
    FlowSettings,
    _rk4_steps,
    area_preservation_audit,
    periodic_point_scan,
    return_map,
)
from .geometry import TWO_PI, polar_grid
from .hamiltonians import (
    Hamiltonian,
    QuinticField,
    RigidRotationHamiltonian,
    SamplingGrid,
    SliceFields,
    _rigid_value,
    contact_audit,
    slice_weights,
)
from .binding import BindingChart, ExtensionSettings, extension_test


# ---------------------------------------------------------------------------
# continued fractions
# ---------------------------------------------------------------------------


# targets this close to a fraction of small denominator count as rational
_REJECT_RATIONAL_TOL = 1e-9
_MAX_REJECT_DENOMINATOR = 64


def continued_fraction_convergents(x, count):
    """The first ``count`` convergents p/q (with p >= 1) of x in (0, 1).

    Rational targets make the expansion terminate and the limit process
    meaningless, so inputs within ``_REJECT_RATIONAL_TOL`` of a fraction
    with denominator <= ``_MAX_REJECT_DENOMINATOR`` are rejected, and so
    is any x whose expansion ends before ``count`` convergents.  The float
    x is a fraction itself and is expanded exactly: floating-point
    division would invent partial quotients past the end of the expansion.
    """
    for q in range(1, _MAX_REJECT_DENOMINATOR + 1):
        if abs(x * q - round(x * q)) < _REJECT_RATIONAL_TOL * q:
            raise PreconditionError(
                f"target {x} is within tolerance of {round(x*q)}/{q}; "
                "convergents would terminate"
            )
    convergents = []
    p_prev, p_cur = 0, 1   # numerators h_{-2}, h_{-1}
    q_prev, q_cur = 1, 0   # denominators k_{-2}, k_{-1}
    num, den = float(x).as_integer_ratio()   # x = num / den exactly
    while True:
        a, rem = divmod(num, den)
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        if p_cur >= 1 and q_cur >= 1:
            convergents.append((p_cur, q_cur))
        if len(convergents) >= count:
            return convergents[:count]
        if rem == 0:
            raise PreconditionError(f"target {x} = {p_cur}/{q_cur} has only "
                                    f"{len(convergents)} convergents")
        num, den = den, rem


def golden_mean_inverse():
    """1/phi = (sqrt(5) - 1)/2, the standard Liouville-free test target."""
    return (np.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# conjugators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjugatorSpec:
    """A compactly supported autonomous generator for a conjugating map.

    F = amplitude * w(r^2) * Re((x + iy)^mode e^{-i phase}) with w a
    polynomial bump supported on [r_inner^2, (1 - delta)^2]; the time-1
    flow of F is the conjugator.  It is the identity near the boundary
    (support margin delta) and near the center, as in the approximation
    scheme being modelled.
    """

    amplitude: float = 0.2
    delta: float = 0.2
    mode: int = 2
    r_inner: float = 0.15
    phase: float = 0.0

    def __post_init__(self):
        if not 0 < self.delta < 0.8:
            raise PreconditionError("support margin delta must lie in (0, 0.8)")
        if self.r_inner >= 1.0 - self.delta:
            raise PreconditionError("support annulus is empty")
        if self.mode < 1:
            raise PreconditionError("angular mode must be >= 1")

    def generator(self):
        return _ConjugatorGenerator(self)


class _ConjugatorGenerator(Hamiltonian):
    """Analytic value/gradient/Hessian oracles for the conjugator field."""

    time_dependent = False

    def __init__(self, spec: ConjugatorSpec):
        self.spec = spec
        self.boundary_value = 0.0
        self.t0 = spec.r_inner**2
        self.t1 = (1.0 - spec.delta) ** 2
        width = self.t1 - self.t0
        # normalize the quartic bump to peak amplitude 1
        self._norm = (width / 2.0) ** -8

    def _jet(self, xy, order):
        """Bump jet [w, w', w''] at t = r^2 and angular jet [P, k z^(k-1),
        k(k-1) z^(k-2)], each power of z = x + iy times e^{-i phase} and P
        the real part of the first, both cut at ``order``.  The last term is
        0 for k < 2, where it would be 0 * inf at the origin."""
        if xy.ndim == 1:
            # one (2,) point runs as a one-point batch: on 0-d arrays numpy's
            # complex scalar arithmetic differs in the last bit from its loops
            bump, ang = self._jet(xy[None], order)
            return [v[0] for v in bump], [v[0] for v in ang]
        k = self.spec.mode
        x, y = xy[..., 0], xy[..., 1]
        t = x * x + y * y
        inside = (t > self.t0) & (t < self.t1)
        a = np.where(inside, t - self.t0, 0.0)
        b = np.where(inside, self.t1 - t, 0.0)
        ab = a * b
        # x + iy as a zero-copy view of the (..., 2) pairs
        z = np.ascontiguousarray(xy).view(np.complex128)[..., 0]
        rot = np.exp(-1j * self.spec.phase)
        bump, ang = [self._norm * ab ** 4], [np.real(z ** k * rot)]
        if order >= 1:
            bump.append(self._norm * 4.0 * ab ** 3 * (b - a))
            # z ** 1 costs a complex pow and returns z, except that a zero
            # base comes back as +0: only the origin, outside the support,
            # can then see a zero change sign, and only from -0.0 inputs
            ang.append(k * ((z if k == 2 else z ** (k - 1)) * rot))
        if order >= 2:
            bump.append(self._norm * (12.0 * ab ** 2 * (b - a) ** 2
                                      - 8.0 * ab ** 3))
            ang.append(k * (k - 1) * (z ** (k - 2) * rot) if k >= 2
                       else np.zeros_like(z))
        return bump, ang

    def value(self, s, xy):
        (w,), (p,) = self._jet(np.asarray(xy, dtype=float), 0)
        return self.spec.amplitude * w * p

    def _grad_components(self, xy):
        x, y = xy[..., 0], xy[..., 1]
        (w, wp), (p, zk1) = self._jet(xy, 1)
        px, py = np.real(zk1), -np.imag(zk1)
        gx = self.spec.amplitude * (2.0 * x * wp * p + w * px)
        gy = self.spec.amplitude * (2.0 * y * wp * p + w * py)
        return gx, gy

    def grad(self, s, xy):
        return np.stack(self._grad_components(np.asarray(xy, dtype=float)),
                        axis=-1)

    def velocity(self, s, xy):
        xy = np.asarray(xy, dtype=float)
        gx, gy = self._grad_components(xy)
        out = np.empty(xy.shape)
        np.multiply(0.5, gy, out=out[..., 0])
        np.multiply(-0.5, gx, out=out[..., 1])
        return out

    def hessian(self, s, xy):
        xy = np.asarray(xy, dtype=float)
        x, y = xy[..., 0], xy[..., 1]
        (w, wp, wpp), (p, zk1, zk2) = self._jet(xy, 2)
        px, py = np.real(zk1), -np.imag(zk1)
        pxx, pxy = np.real(zk2), -np.imag(zk2)
        pyy = -np.real(zk2)
        a = self.spec.amplitude
        hxx = a * (4 * x * x * wpp * p + 2 * wp * p + 4 * x * wp * px + w * pxx)
        hyy = a * (4 * y * y * wpp * p + 2 * wp * p + 4 * y * wp * py + w * pyy)
        hxy = a * (4 * x * y * wpp * p + 2 * x * wp * py + 2 * y * wp * px
                   + w * pxy)
        hess = np.empty(xy.shape[:-1] + (2, 2))
        hess[..., 0, 0] = hxx
        hess[..., 0, 1] = hxy
        hess[..., 1, 0] = hxy
        hess[..., 1, 1] = hyy
        return hess


# points per integration block of DiscDiffeo.  In the 512^2 W-field build,
# blocks of 8192 to 16384 points ran fastest; 4096 paid ~10% in per-call
# overhead, and larger blocks bring back the page faults of fresh
# allocations.
_FLOW_BLOCK = 16384


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


class DiscDiffeo:
    """A disc diffeomorphism realized as the time-1 flow of a generator.

    ``__call__``, ``inverse`` and the two Jacobian oracles integrate the
    (variational) flow on demand, vectorized over point batches; the
    inverse is the flow of the negated generator, so it is area-preserving
    to the same accuracy as the forward map.

    A batch is flattened and integrated in consecutive blocks of
    ``_FLOW_BLOCK`` points, each through all steps, so that the RK4
    temporaries of a block stay cache-sized instead of being fresh
    page-faulted allocations of the whole batch.  The blocking is exact:
    every operation of the RK4 update, of the generator's oracles and of
    the 2x2 Jacobian product acts on each point alone, so each point sees
    the same arithmetic whatever block it falls in.

    For the same reason a batch of two or more blocks is split into equal
    contiguous shares, one per CPU of the process's affinity set (at most
    one per block), flowed as the jobs of ``_run_jobs`` and concatenated,
    so the result is bitwise the one-process result.  ``taskset -c 0``
    gives one share and no fork.
    """

    def __init__(self, generator: Hamiltonian, steps=300):
        self.generator = generator
        self.steps = steps

    def _flow_share(self, pts, sign, want_jacobian):
        """The flow of the points ``pts`` (n, 2) and, if ``want_jacobian``,
        their Jacobians (else None), in blocks of ``_FLOW_BLOCK`` points."""
        h = sign * 1.0 / self.steps
        gen = self.generator

        def field(s, q):
            return gen.velocity(0.0, q)

        def field_jacobian(s, q):
            return gen.velocity_jacobian(0.0, q)

        out = np.empty(pts.shape)
        jac_out = np.empty(pts.shape + (2,)) if want_jacobian else None
        for start in range(0, len(pts), _FLOW_BLOCK):
            block = slice(start, start + _FLOW_BLOCK)
            y, jac = _rk4_steps(field, pts[block], 0.0, h, self.steps,
                                field_jacobian if want_jacobian else None)
            out[block] = y
            if want_jacobian:
                jac_out[block] = jac
        return out, jac_out

    def _flow(self, pts, sign, want_jacobian=False):
        pts = np.asarray(pts, dtype=float)
        flat = pts.reshape(-1, 2)
        # one share per CPU, at most one per block and at least one
        count = min(_cpu_count(), max(1, -(-len(flat) // _FLOW_BLOCK)))
        parts = _run_jobs([
            functools.partial(self._flow_share, flat[lo:hi], sign, want_jacobian)
            for lo, hi in _share_bounds(len(flat), count)])
        out = np.concatenate([y for y, _ in parts]).reshape(pts.shape)
        if want_jacobian:
            jac = np.concatenate([j for _, j in parts])
            return out, jac.reshape(pts.shape[:-1] + (2, 2))
        return out

    def __call__(self, pts):
        return self._flow(pts, +1.0)

    def inverse(self, pts):
        return self._flow(pts, -1.0)

    def jacobian(self, pts):
        return self._flow(pts, +1.0, want_jacobian=True)[1]

    def inverse_jacobian(self, pts):
        return self._flow(pts, -1.0, want_jacobian=True)[1]


def build_conjugator(spec: ConjugatorSpec, steps=300, audit=False):
    """Time-1 flow of the spec's generator, optionally audited.

    The audit checks |det Dphi - 1| and the round trip phi^{-1}(phi(p))
    on a polar grid; both should sit at integration accuracy (~1e-9 with
    the default step count).
    """
    phi = DiscDiffeo(spec.generator(), steps=steps)
    if audit:
        pts = polar_grid(16, 24, r_max=0.97)
        jac = phi.jacobian(pts)
        det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
        area_defect = float(np.max(np.abs(det - 1.0)))
        round_trip = float(np.max(np.abs(phi.inverse(phi(pts)) - pts)))
        # written so that NaN fails: NaN comparisons are false
        if not (area_defect <= 1e-8 and round_trip <= 1e-8):
            raise IntegrationError(
                f"conjugator audit failed: area defect {area_defect:.2e}, "
                f"round trip {round_trip:.2e}"
            )
        phi.audit = {"area_defect": area_defect, "round_trip": round_trip}
    return phi


# ---------------------------------------------------------------------------
# stage Hamiltonians
# ---------------------------------------------------------------------------


# the W-field lattice's margin around the unit square, and the RK4 steps of
# the inverse flow that fills it
_W_PAD = 0.05
_W_FLOW_STEPS = 150


class ConjugatedRotationHamiltonian(Hamiltonian):
    """H = R o phi^{-1} = h + (p/q)(1 - W), W(p) = |phi^{-1}(p)|^2, autonomous.

    W is splined on a ``grid_n``-squared lattice.  Outside r >= 1 - delta,
    where delta is the support margin of phi's generator, the inverse is the
    identity and W is computed as the literal |p|^2: H then evaluates
    through the same expression as the rigid-rotation Hamiltonian, so the
    tail identity holds bitwise.

    Only lattice points inside the open support t0 < r^2 < t1 of the
    generator are flowed.  Elsewhere the generator's velocity is exactly
    +-0 at the start of every RK4 stage, so such a point never moves and
    its flowed W would be r^2 bitwise, which it already holds.
    """

    time_dependent = False

    def __init__(self, h, p, q, phi: DiscDiffeo, *, grid_n=512):
        self.h = int(h)
        self.p = int(p)
        self.q = int(q)
        self.pq = p / q
        self.boundary_value = float(h)
        gen = phi.generator
        lim = 1.0 + _W_PAD
        ax = np.linspace(-lim, lim, grid_n)
        xx, yy = np.meshgrid(ax, ax, indexing="ij")
        pts = np.stack([xx, yy], axis=-1).reshape(-1, 2)
        r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
        w = r2.copy()
        inner = (gen.t0 < r2) & (r2 < gen.t1)
        inv = DiscDiffeo(gen, steps=_W_FLOW_STEPS).inverse(pts[inner])
        w[inner] = inv[:, 0] ** 2 + inv[:, 1] ** 2
        self.w_field = QuinticField(ax, ax, w.reshape(grid_n, grid_n))
        # t1 = (1 - delta)^2: the rigid tail starts where the support ends
        self._switch2 = gen.t1

    def value(self, s, xy):
        xy = np.asarray(xy, float)
        x, y = xy[..., 0], xy[..., 1]
        r2 = x * x + y * y
        tail = r2 >= self._switch2
        return _rigid_value(self.h, self.pq,
                            np.where(tail, r2, self.w_field.ev(0, 0, x, y)))

    def _grad_components(self, xy):
        """The two partials (dW/dx, dW/dy) as separate arrays."""
        x, y = xy[..., 0], xy[..., 1]
        r2 = x * x + y * y
        tail = r2 >= self._switch2
        gx = np.where(tail, 2.0 * x, self.w_field.ev(1, 0, x, y))
        gy = np.where(tail, 2.0 * y, self.w_field.ev(0, 1, x, y))
        return gx, gy

    def grad(self, s, xy):
        xy = np.asarray(xy, float)
        return -self.pq * np.stack(self._grad_components(xy), axis=-1)

    def point_velocity(self, s, x, y):
        """The velocity at one point given as two floats, as a float pair.

        One-point return maps (orbit_statistics) are bound by numpy
        dispatch on 2-element arrays, so the flow integrates them through
        this.  The same tail test and splines as ``_grad_components`` keep
        it bitwise equal to the batched ``velocity``.
        """
        if x * x + y * y >= self._switch2:
            gx, gy = 2.0 * x, 2.0 * y
        else:
            gx = float(self.w_field.ev(1, 0, x, y))
            gy = float(self.w_field.ev(0, 1, x, y))
        return 0.5 * (-self.pq * gy), -0.5 * (-self.pq * gx)

    def velocity(self, s, xy):
        # same products, in the same order, as the generic velocity of grad
        xy = np.asarray(xy, float)
        if xy.shape == (2,):
            return np.array(self.point_velocity(s, *xy.tolist()))
        gx, gy = self._grad_components(xy)
        return np.stack([0.5 * (-self.pq * gy), -0.5 * (-self.pq * gx)], axis=-1)

    def hessian(self, s, xy):
        xy = np.asarray(xy, float)
        x, y = xy[..., 0], xy[..., 1]
        r2 = x * x + y * y
        tail = r2 >= self._switch2
        hxx = np.where(tail, 2.0, self.w_field.ev(2, 0, x, y))
        hyy = np.where(tail, 2.0, self.w_field.ev(0, 2, x, y))
        hxy = np.where(tail, 0.0, self.w_field.ev(1, 1, x, y))
        hess = np.empty(xy.shape[:-1] + (2, 2))
        hess[..., 0, 0] = hxx
        hess[..., 0, 1] = hxy
        hess[..., 1, 0] = hxy
        hess[..., 1, 1] = hyy
        return -self.pq * hess


@dataclass
class ApproximationStage:
    """One conjugated rational stage with its audit results."""

    nu: int
    p: int
    q: int
    delta: float
    conjugator_spec: ConjugatorSpec
    conjugator: DiscDiffeo
    hamiltonian: ConjugatedRotationHamiltonian
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "nu": self.nu,
            "p": self.p,
            "q": self.q,
            "delta": self.delta,
            "amplitude": self.conjugator_spec.amplitude,
            "diagnostics": self.diagnostics,
        }


def conjugated_stage(h, p, q, spec: ConjugatorSpec = None, phi: DiscDiffeo = None,
                     w_grid=512):
    """Build the stage Hamiltonian H = R o phi^{-1} for one convergent.

    The time-2*pi flow of the result is phi o R_{2*pi p/q} o phi^{-1}
    (audited in the tests, not here).  Raises when phi moves points of the
    claimed support margin.
    """
    spec = spec or ConjugatorSpec()
    if phi is None:
        phi = build_conjugator(spec)
    theta = np.linspace(0, TWO_PI, 32, endpoint=False)
    for r in (1.0 - spec.delta, 1.0 - 0.5 * spec.delta, 0.999):
        ring = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
        if float(np.max(np.abs(phi(ring) - ring))) > 1e-10:
            raise PreconditionError(
                f"conjugator moves points at r = {r}; support margin "
                f"delta = {spec.delta} is violated"
            )
    RigidRotationHamiltonian(h, p, q)  # validates h, p, q
    ham = ConjugatedRotationHamiltonian(h, p, q, phi, grid_n=w_grid)
    return ApproximationStage(
        nu=0, p=p, q=q, delta=spec.delta, conjugator_spec=spec,
        conjugator=phi, hamiltonian=ham,
    )


# ---------------------------------------------------------------------------
# stage sequences
# ---------------------------------------------------------------------------


# each stage's conjugator amplitude is this fraction of the previous one's
_AMPLITUDE_FACTOR = 0.5
# per stage: the periodic scan's polar grid (rings, rays) and the audit grid
_SCAN_GRID = (3, 8)
_AUDIT_GRID = SamplingGrid(n_s=8, n_r=24, n_theta=24)
# the last stage's orbit: its start point and the RK4 step of its return maps
_ORBIT_START = (0.5, 0.0)
_ORBIT_STEP = TWO_PI / 400


@dataclass
class ConjugatorSchedule:
    delta0: float = 0.4
    amplitude0: float = 0.2
    mode: int = 2

    def spec(self, nu):
        return ConjugatorSpec(
            amplitude=self.amplitude0 * _AMPLITUDE_FACTOR**nu,
            delta=self.delta0 * 2.0**-nu,
            mode=self.mode,
        )


@dataclass
class StageSequenceReport:
    target_a: float
    h: int
    stages: list
    difference_norms: list        # per consecutive pair, dict k -> norm
    f0_values: list
    f0_expected: list
    orbit: OrbitStatistics        # of the last stage, or None

    def to_dict(self):
        out = {
            "target_a": self.target_a,
            "h": self.h,
            "stages": [st.to_dict() for st in self.stages],
            "difference_norms": self.difference_norms,
            "f0_values": list(map(float, self.f0_values)),
            "f0_expected": list(map(float, self.f0_expected)),
        }
        if self.orbit is not None:
            out["orbit_statistics"] = self.orbit.to_dict()
        return out


def _stage_extension_settings(delta):
    # Keep the widest stencil reach (1 + 3/_ETA_FRAC) * rho0 inside the
    # exact rigid tail r >= 1 - delta.  The order-4 jet stencil needs
    # rungs rho >~ 0.066 before its rho^{-6} rounding amplification clears
    # the verdict threshold, so thin tails are only certifiable through
    # order 2: one more order per factor ~4 of tail width, a hard
    # double-precision wall, not a tunable.
    rho0 = min(0.1, 0.53 * np.sqrt(delta))
    k_max = 4 if rho0 >= 0.066 else 2
    return ExtensionSettings(rho0=rho0, k_max=k_max)


def _stage_diagnostics(stage, h, settings):
    """A built stage's audits: contact audit, extension test (with the
    expected a set to the stage rotation number), area-preservation defect
    and a periodic point scan at the stage denominator."""
    ham = stage.hamiltonian
    audit = contact_audit(ham, _AUDIT_GRID)
    ext = extension_test(ham, BindingChart(h=h),
                         _stage_extension_settings(stage.delta))
    area = area_preservation_audit(ham, polar_grid(3, 6, r_max=0.8), settings)
    recs = periodic_point_scan(ham, max_period=stage.q,
                               grid_points=polar_grid(*_SCAN_GRID, r_max=0.8,
                                                      include_center=False),
                               tol=1e-5, settings=settings)
    return {
        "contact": audit.to_dict(),
        "extension_pass": ext.passed,
        "f0": ext.f0,
        "f0_expected": 2.0 * (h + stage.p / stage.q),
        "area_defect": area,
        "periodic_periods": sorted({r.period for r in recs}),
        "periodic_found": len(recs),
    }


def stage_sequence(target_a, count, h, schedule: ConjugatorSchedule = None,
                   settings: FlowSettings = None, w_grid=512,
                   orbit_iterations=0):
    """Build ``count`` stages along the convergents of an irrational target.

    Once all are built, the ``_stage_diagnostics`` of each and, if
    ``orbit_iterations`` > 0, the last stage's ``orbit_statistics`` run as
    the jobs of ``_run_jobs``.  Consecutive stages are compared in C^0, C^1
    and C^2 norms on a fixed polar grid.
    """
    schedule = schedule or ConjugatorSchedule()
    settings = settings or FlowSettings()
    convergents = continued_fraction_convergents(target_a, count)
    if (h + target_a) <= 0:
        raise PreconditionError("need h + target_a > 0")

    stages = []
    for nu, (p, q) in enumerate(convergents, start=1):
        stage = conjugated_stage(h, p, q, schedule.spec(nu), w_grid=w_grid)
        stage.nu = nu
        stages.append(stage)
    jobs = [functools.partial(_stage_diagnostics, st, h, settings)
            for st in stages]
    if orbit_iterations:
        jobs.append(functools.partial(
            orbit_statistics, stages[-1].hamiltonian, _ORBIT_START,
            iterations=orbit_iterations,
            settings=FlowSettings(step=_ORBIT_STEP)))
    results = _run_jobs(jobs)
    for stage, diagnostics in zip(stages, results):
        stage.diagnostics = diagnostics

    # C^k difference norms on a fixed grid, k = 0, 1, 2
    pts = polar_grid(10, 16, r_max=0.95)
    diffs = [{k: float(np.max(np.abs(getattr(a.hamiltonian, oracle)(0.0, pts)
                                     - getattr(b.hamiltonian, oracle)(0.0, pts))))
              for k, oracle in enumerate(("value", "grad", "hessian"))}
             for a, b in zip(stages[:-1], stages[1:])]

    return StageSequenceReport(
        target_a=target_a, h=h, stages=stages, difference_norms=diffs,
        f0_values=[st.diagnostics["f0"] for st in stages],
        f0_expected=[st.diagnostics["f0_expected"] for st in stages],
        orbit=results[-1] if orbit_iterations else None)


# ---------------------------------------------------------------------------
# boundary jets and orbit statistics
# ---------------------------------------------------------------------------


def fd_weights(nodes, x0, order):
    """Fornberg finite-difference weights for d^order/dx^order at x0."""
    nodes = np.asarray(nodes, dtype=float)
    n = len(nodes)
    w = np.zeros((order + 1, n))
    w[0, 0] = 1.0
    c1 = 1.0
    c4 = nodes[0] - x0
    for i in range(1, n):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = nodes[i] - x0
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    w[k, i] = c1 * (k * w[k - 1, i - 1]
                                    - c5 * w[k, i - 1]) / c2
                w[0, i] = -c1 * c5 * w[0, i - 1] / c2
            for k in range(mn, 0, -1):
                w[k, j] = (c4 * w[k, j] - k * w[k - 1, j]) / c3
            w[0, j] = c4 * w[0, j] / c3
        c1 = c2
    return w[order]


_JET_N_S = 8
_JET_N_THETA = 16


def boundary_jet_check(H, a, order=2):
    """Radial jets of H - (h + a - a r^2) at the boundary circle.

    One-sided stencils reach inward from r = 1; per-order max defects are
    returned.  Rounding grows like step^{-k}, so high orders need wide
    steps: order k steps by max(0.02, 0.01 (k + 1)), and the defects of an
    exact quadratic tail sit near 1e-11 (k <= 2) to 1e-8 (k = 4).
    """
    if order > 6:
        raise PreconditionError("boundary jets are limited to order 6")
    h_val = H.boundary_value
    s_vals = np.linspace(0.0, TWO_PI, _JET_N_S, endpoint=False)
    t_vals = np.linspace(0.0, TWO_PI, _JET_N_THETA, endpoint=False)
    defects = []
    for k in range(order + 1):
        eta = max(0.02, 0.01 * (k + 1))
        nodes = 1.0 - eta * np.arange(k + 3)
        wts = fd_weights(nodes, 1.0, k)
        worst = 0.0
        for s in s_vals:
            xy = np.stack(
                [nodes[:, None] * np.cos(t_vals)[None, :],
                 nodes[:, None] * np.sin(t_vals)[None, :]], axis=-1,
            )
            model = h_val + a - a * nodes[:, None] ** 2
            vals = H.value(s, xy) - model
            jet = np.einsum("i,ij->j", wts, vals)
            worst = max(worst, float(np.max(np.abs(jet))))
        defects.append(worst)
    return defects


@dataclass
class OrbitStatistics:
    radii: np.ndarray
    angles: np.ndarray
    r_histogram: tuple
    theta_histogram: tuple
    birkhoff_r2: np.ndarray
    birkhoff_cos: np.ndarray
    completed: int
    aborted: bool = False

    def to_dict(self):
        return {
            "completed": self.completed,
            "aborted": self.aborted,
            "r_histogram": [self.r_histogram[0].tolist(),
                            self.r_histogram[1].tolist()],
            "theta_histogram": [self.theta_histogram[0].tolist(),
                                self.theta_histogram[1].tolist()],
            "birkhoff_r2_final": float(self.birkhoff_r2[-1]),
            "birkhoff_cos_final": float(self.birkhoff_cos[-1]),
        }


def orbit_statistics(H, p0, iterations=512, bins=32, settings=None):
    """Iterate the return map and histogram the orbit.

    Running Birkhoff averages of r^2 and cos(theta) come along; orbits
    drifting outside the disc abort with the partial data flagged.
    """
    if iterations > 1_000_000:
        raise PreconditionError("orbit statistics are desk scale: N <= 1e6")
    settings = settings or FlowSettings()
    pts = np.empty((iterations + 1, 2))
    pts[0] = np.asarray(p0, dtype=float)
    aborted = False
    count = iterations
    for i in range(iterations):
        try:
            pts[i + 1] = return_map(H, pts[i], settings)
        except IntegrationError:
            count = i
            aborted = True
            break
    orbit = pts[: count + 1]
    radii = np.sqrt(orbit[:, 0] ** 2 + orbit[:, 1] ** 2)
    angles = np.mod(np.arctan2(orbit[:, 1], orbit[:, 0]), TWO_PI)
    r_hist = np.histogram(radii, bins=bins, range=(0.0, 1.0))
    t_hist = np.histogram(angles, bins=bins, range=(0.0, TWO_PI))
    counts = np.arange(1, len(orbit) + 1)
    birkhoff_r2 = np.cumsum(radii**2) / counts
    birkhoff_cos = np.cumsum(np.cos(angles)) / counts
    return OrbitStatistics(
        radii=radii,
        angles=angles,
        r_histogram=r_hist,
        theta_histogram=t_hist,
        birkhoff_r2=birkhoff_r2,
        birkhoff_cos=birkhoff_cos,
        completed=count,
        aborted=aborted,
    )


# ---------------------------------------------------------------------------
# composition of Hamiltonian isotopies
# ---------------------------------------------------------------------------


# how far s may stray outside [0, 2*pi] before slice interpolation refuses it
_S_DOMAIN_SLACK = 1e-12
# the slice lattice's margin around the unit square, and RK4 steps per slice
_GRID_PAD = 0.05
_BUILD_SUBSTEPS = 2


class ComposedHamiltonian(Hamiltonian):
    """K_s + H2 o (Psi^K_s)^{-1}: the generator of Psi^K_s o psi^{H2}_s.

    The inverse isotopy is tabulated once on an (s, grid) lattice by
    marching backward one slice interval at a time (method of
    characteristics with rolling splines), and the composed scalar
    H2 o Psi_s^{-1} is stored per slice.  Evaluations then interpolate:
    cubic Lagrange across the four nearest slices, quintic splines in
    space, with gradients read off the spline derivatives.  H2 must be
    evaluable on the padded square the lattice lives on.
    """

    time_dependent = True

    def __init__(self, K: Hamiltonian, H2: Hamiltonian, n_slices=240,
                 grid_n=301):
        self.K = K
        self.H2 = H2
        self.boundary_value = K.boundary_value + H2.boundary_value
        self._build(n_slices, grid_n)
        self.slices = SliceFields(self._slice_field)

    def _build(self, n_slices, grid_n):
        ax = np.linspace(-1.0 - _GRID_PAD, 1.0 + _GRID_PAD, grid_n)
        self._ax = ax
        self.s_nodes = np.linspace(0.0, TWO_PI, n_slices + 1)
        xx, yy = np.meshgrid(ax, ax, indexing="ij")
        nodes = np.stack([xx, yy], axis=-1).reshape(-1, 2)
        self._w2 = np.empty((n_slices + 1, grid_n, grid_n))
        self._w2[0] = self.H2.value(0.0, nodes).reshape(grid_n, grid_n)
        # For autonomous H2 the scalar itself satisfies the transport
        # recursion W2_{j+1} = W2_j o backstep: one interpolation per march.
        # Time-dependent H2 needs the inverse map tabulated alongside.
        scalar_march = not getattr(self.H2, "time_dependent", True)
        inverse = nodes.copy()            # Psi_0^{-1} = id
        for j in range(n_slices):
            s_hi = self.s_nodes[j + 1]
            h = (self.s_nodes[j] - s_hi) / _BUILD_SUBSTEPS
            pts, _ = _rk4_steps(self.K.velocity, nodes, s_hi, h, _BUILD_SUBSTEPS)
            px = np.clip(pts[:, 0], ax[0], ax[-1])
            py = np.clip(pts[:, 1], ax[0], ax[-1])
            if scalar_march:
                w2 = QuinticField(ax, ax, self._w2[j]).ev(0, 0, px, py)
                self._w2[j + 1] = w2.reshape(grid_n, grid_n)
            else:
                inverse = np.stack(
                    [QuinticField(ax, ax, c.reshape(grid_n, grid_n)).ev(0, 0, px, py)
                     for c in inverse.T], axis=-1)
                self._w2[j + 1] = self.H2.value(
                    self.s_nodes[j + 1], inverse
                ).reshape(grid_n, grid_n)

    def _slice_field(self, j):
        return QuinticField(self._ax, self._ax, self._w2[j])

    def _s_weights(self, s):
        s = float(s)
        # the composite is in general not 2pi-periodic, so the cubic must
        # not extrapolate; the slack covers RK4's rounding of the last step
        if not (-_S_DOMAIN_SLACK <= s <= TWO_PI + _S_DOMAIN_SLACK):
            raise PreconditionError(
                f"s = {s} lies outside the tabulated domain [0, 2*pi]"
            )
        return slice_weights(self.s_nodes, s)

    def value(self, s, xy):
        xy = np.asarray(xy, dtype=float)
        js, w = self._s_weights(s)
        return self.slices.blend(js, w, 0, 0, xy, self.K.value(s, xy))

    def grad(self, s, xy):
        xy = np.asarray(xy, dtype=float)
        js, w = self._s_weights(s)
        g = self.K.grad(s, xy)
        gx = self.slices.blend(js, w, 1, 0, xy, np.zeros(xy.shape[:-1]))
        gy = self.slices.blend(js, w, 0, 1, xy, np.zeros(xy.shape[:-1]))
        return g + np.stack([gx, gy], axis=-1)
