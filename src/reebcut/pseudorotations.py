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
from dataclasses import dataclass, field

import numpy as np

from .errors import IntegrationError, PreconditionError
from .flows import (
    FlowSettings,
    _flow_batch,
    _rk4_steps,
    _run_jobs,
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
    SlicedHamiltonian,
    contact_audit,
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

    def grad_components(self, s, xy):
        xy = np.asarray(xy, dtype=float)
        x, y = xy[..., 0], xy[..., 1]
        (w, wp), (p, zk1) = self._jet(xy, 1)
        px, py = np.real(zk1), -np.imag(zk1)
        gx = self.spec.amplitude * (2.0 * x * wp * p + w * px)
        gy = self.spec.amplitude * (2.0 * y * wp * p + w * py)
        return gx, gy

    def hessian_components(self, s, xy):
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
        return hxx, hxy, hyy


# points per integration block of DiscDiffeo.  In the 512^2 W-field build,
# blocks of 8192 to 16384 points ran fastest; 4096 paid ~10% in per-call
# overhead, and larger blocks bring back the page faults of fresh
# allocations.
_FLOW_BLOCK = 16384


class DiscDiffeo:
    """A disc diffeomorphism realized as the time-1 flow of a generator.

    ``__call__``, ``inverse`` and the two Jacobian oracles integrate the
    (variational) flow on demand, vectorized over point batches; the
    inverse is the flow of the negated generator, so it is area-preserving
    to the same accuracy as the forward map.

    The generator is autonomous (every ``ConjugatorSpec`` generator is), so
    its ``velocity`` and ``velocity_jacobian`` go to ``flows._flow_batch``
    as they are, with blocks of ``_FLOW_BLOCK`` points.
    """

    def __init__(self, generator: Hamiltonian, steps=300):
        self.generator = generator
        self.steps = steps

    def _flow(self, pts, sign, want_jacobian):
        gen = self.generator
        out, jac = _flow_batch(gen.velocity, pts, sign * 1.0 / self.steps,
                               self.steps, _FLOW_BLOCK,
                               gen.velocity_jacobian if want_jacobian else None)
        return (out, jac) if want_jacobian else out

    def __call__(self, pts):
        return self._flow(pts, +1.0, False)

    def inverse(self, pts):
        return self._flow(pts, -1.0, False)

    def jacobian(self, pts):
        return self._flow(pts, +1.0, True)[1]

    def inverse_jacobian(self, pts):
        return self._flow(pts, -1.0, True)[1]


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
    identity and W is computed as the literal |p|^2.  There H equals the
    rigid rotation's a2 r^2 + a0 bitwise, with a2 = -p/q and a0 = h + p/q:
    (-c) r^2 is -(c r^2) exactly, and IEEE addition commutes.

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
        # r^2 of node (i, j) is ax[i]^2 + ax[j]^2; only the support nodes,
        # in row-major order (that of boolean indexing), become points
        sq = ax ** 2
        w = sq[:, None] + sq[None, :]
        support = (gen.t0 < w) & (w < gen.t1)
        pts = np.empty((np.count_nonzero(support), 2))
        pts[:, 0] = np.broadcast_to(ax[:, None], w.shape)[support]
        pts[:, 1] = np.broadcast_to(ax[None, :], w.shape)[support]
        inv = DiscDiffeo(gen, steps=_W_FLOW_STEPS).inverse(pts)
        del pts
        w[support] = inv[:, 0] ** 2 + inv[:, 1] ** 2
        self.w_field = QuinticField(ax, ax, w)
        # t1 = (1 - delta)^2: the rigid tail starts where the support ends
        self._switch2 = gen.t1

    def value(self, s, xy):
        xy = np.asarray(xy, float)
        x, y = xy[..., 0], xy[..., 1]
        r2 = x * x + y * y
        tail = r2 >= self._switch2
        return self.h + self.pq - self.pq * np.where(
            tail, r2, self.w_field.ev(0, 0, x, y))

    def grad_components(self, s, xy):
        """-(p/q) (dW/dx, dW/dy), with W = r^2 on the tail."""
        xy = np.asarray(xy, float)
        x, y = xy[..., 0], xy[..., 1]
        r2 = x * x + y * y
        tail = r2 >= self._switch2
        gx = np.where(tail, 2.0 * x, self.w_field.ev(1, 0, x, y))
        gy = np.where(tail, 2.0 * y, self.w_field.ev(0, 1, x, y))
        return -self.pq * gx, -self.pq * gy

    def point_velocity(self, s, x, y):
        """The velocity at one point given as two floats, as a float pair.

        One-point return maps (orbit_statistics) are bound by numpy
        dispatch on 2-element arrays, so the flow integrates them through
        this.  The same tail test and splines as ``grad_components`` keep
        it bitwise equal to the batched ``velocity``.
        """
        if x * x + y * y >= self._switch2:
            gx, gy = 2.0 * x, 2.0 * y
        else:
            gx, gy = self.w_field.point_grad(x, y)
        return 0.5 * (-self.pq * gy), -0.5 * (-self.pq * gx)

    def hessian_components(self, s, xy):
        """-(p/q) (W_xx, W_xy, W_yy), with W = r^2 on the tail."""
        xy = np.asarray(xy, float)
        x, y = xy[..., 0], xy[..., 1]
        r2 = x * x + y * y
        tail = r2 >= self._switch2
        hxx = np.where(tail, 2.0, self.w_field.ev(2, 0, x, y))
        hyy = np.where(tail, 2.0, self.w_field.ev(0, 2, x, y))
        hxy = np.where(tail, 0.0, self.w_field.ev(1, 1, x, y))
        return -self.pq * hxx, -self.pq * hxy, -self.pq * hyy


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
    # the three support rings flow as one batch; each point flows alone
    radii = np.array([1.0 - spec.delta, 1.0 - 0.5 * spec.delta, 0.999])
    theta = np.linspace(0, TWO_PI, 32, endpoint=False)
    rings = np.stack([radii[:, None] * np.cos(theta),
                      radii[:, None] * np.sin(theta)], axis=-1)
    moved = np.max(np.abs(phi(rings) - rings), axis=(1, 2))
    for r, m in zip(radii, moved):
        if not m <= 1e-10:
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
    rho0 = np.minimum(0.1, 0.53 * np.sqrt(delta))
    k_max = 4 if rho0 >= 0.066 else 2
    return ExtensionSettings(rho0=rho0, k_max=k_max)


def _stage_diagnostics(stage, h, settings):
    """A built stage's audits: contact audit, extension test (with the
    expected a set to the stage rotation number), area-preservation defect
    and a periodic point scan at the stage denominator, of which the
    diagnostics read the periods and the count of its hits."""
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


def _stage_job(stage, h, settings):
    """A stage's ``_stage_diagnostics`` and its value, gradient and Hessian
    at s = 0 on the fixed grid of the C^k norms: the process that audits a
    stage also derives the spline partials of its samples, and drops them
    once they are taken, so that a job run in the caller keeps none."""
    ham = stage.hamiltonian
    pts = polar_grid(10, 16, r_max=0.95)
    result = (_stage_diagnostics(stage, h, settings),
              [ham.value(0.0, pts), ham.grad(0.0, pts), ham.hessian(0.0, pts)])
    ham.w_field.drop_partials()
    return result


def _orbit_job(ham, iterations):
    """The ``orbit_statistics`` of ``ham`` from ``_ORBIT_START``; like
    ``_stage_job`` it drops the spline partials it derived."""
    result = orbit_statistics(ham, _ORBIT_START, iterations=iterations,
                              settings=FlowSettings(step=_ORBIT_STEP))
    ham.w_field.drop_partials()
    return result


def stage_sequence(target_a, count, h, schedule: ConjugatorSchedule = None,
                   settings: FlowSettings = None, w_grid=512,
                   orbit_iterations=0):
    """Build ``count`` stages along the convergents of an irrational target.

    Once all are built, the ``_stage_job`` of each and, if
    ``orbit_iterations`` > 0, the ``_orbit_job`` of the last stage run as
    the jobs of ``_run_jobs``.  The orbit job comes first, so the caller
    runs it: it derives two W-field partials where a stage job derives
    five.  Consecutive stages are compared in C^0, C^1 and C^2 norms on a
    fixed polar grid, from the samples that each stage's job returns: a
    stage audited in a worker has its partials derived there, never in
    the caller.
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
    jobs = [functools.partial(_stage_job, st, h, settings) for st in stages]
    if orbit_iterations:
        jobs.insert(0, functools.partial(
            _orbit_job, stages[-1].hamiltonian, orbit_iterations))
    results = _run_jobs(jobs)
    orbit = results.pop(0) if orbit_iterations else None
    samples = []
    for stage, (diagnostics, sampled) in zip(stages, results):
        stage.diagnostics = diagnostics
        samples.append(sampled)

    # C^k difference norms on a fixed grid, k = 0, 1, 2
    diffs = [{k: float(np.max(np.abs(sa - sb)))
              for k, (sa, sb) in enumerate(zip(a, b))}
             for a, b in zip(samples[:-1], samples[1:])]

    return StageSequenceReport(
        target_a=target_a, h=h, stages=stages, difference_norms=diffs,
        f0_values=[st.diagnostics["f0"] for st in stages],
        f0_expected=[st.diagnostics["f0_expected"] for st in stages],
        orbit=orbit)


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
    exact quadratic tail sit near 1e-11 (k <= 2) to 1e-8 (k = 4).  An H
    that is not ``time_dependent`` is checked on its first slice alone.
    """
    if order > 6:
        raise PreconditionError("boundary jets are limited to order 6")
    h_val = H.boundary_value
    s_vals = np.linspace(0.0, TWO_PI, _JET_N_S if H.time_dependent else 1,
                         endpoint=False)
    t_vals = np.linspace(0.0, TWO_PI, _JET_N_THETA, endpoint=False)
    defects = []
    for k in range(order + 1):
        eta = max(0.02, 0.01 * (k + 1))
        nodes = 1.0 - eta * np.arange(k + 3)
        wts = fd_weights(nodes, 1.0, k)
        xy = np.stack(
            [nodes[:, None] * np.cos(t_vals)[None, :],
             nodes[:, None] * np.sin(t_vals)[None, :]], axis=-1,
        )
        model = h_val + a - a * nodes[:, None] ** 2
        # np.max keeps a NaN slice, which a running builtin max would drop
        defects.append(float(np.max([
            np.max(np.abs(np.einsum("i,ij->j", wts, H.value(s, xy) - model)))
            for s in s_vals])))
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
    if not 0 <= iterations <= 1_000_000:
        raise PreconditionError(
            "orbit statistics are desk scale: 0 <= N <= 1e6")
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


class ComposedHamiltonian(SlicedHamiltonian):
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
        super().__init__(np.linspace(0.0, TWO_PI, n_slices + 1))
        self._build(n_slices, grid_n)

    def _build(self, n_slices, grid_n):
        ax = np.linspace(-1.0 - _GRID_PAD, 1.0 + _GRID_PAD, grid_n)
        self._ax = ax
        xx, yy = np.meshgrid(ax, ax, indexing="ij")
        nodes = np.stack([xx, yy], axis=-1).reshape(-1, 2)
        self._w2 = np.empty((n_slices + 1, grid_n, grid_n))
        self._w2[0] = self.H2.value(0.0, nodes).reshape(grid_n, grid_n)
        # For autonomous H2 the scalar itself satisfies the transport
        # recursion W2_{j+1} = W2_j o backstep: one interpolation per march.
        # Time-dependent H2 needs the inverse map tabulated alongside.
        scalar_march = not self.H2.time_dependent
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

    @staticmethod
    def _tabulated(s):
        s = float(s)
        # the composite is in general not 2pi-periodic, so the cubic must
        # not extrapolate; the slack covers RK4's rounding of the last step
        if not (-_S_DOMAIN_SLACK <= s <= TWO_PI + _S_DOMAIN_SLACK):
            raise PreconditionError(
                f"s = {s} lies outside the tabulated domain [0, 2*pi]"
            )
        return s

    def value(self, s, xy):
        xy = np.asarray(xy, dtype=float)
        return self._blend(self._tabulated(s), 0, 0, xy, self.K.value(s, xy))

    def grad_components(self, s, xy):
        xy = np.asarray(xy, dtype=float)
        s_tab = self._tabulated(s)
        kx, ky = self.K.grad_components(s, xy)
        zero = np.zeros(xy.shape[:-1])
        return (kx + self._blend(s_tab, 1, 0, xy, zero),
                ky + self._blend(s_tab, 0, 1, xy, zero))
