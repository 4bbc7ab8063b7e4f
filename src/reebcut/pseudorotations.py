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

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, IntegrationError, PreconditionError
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
    RigidRotationHamiltonian,
    SamplingGrid,
    _rigid_value,
    contact_audit,
    slice_weights,
)
from .binding import BindingChart, ExtensionSettings, extension_test


def rigid_rotation_hamiltonian(h, p, q):
    """H = h + p/q - (p/q) r^2; its time-2*pi map rotates by 2*pi p/q."""
    return RigidRotationHamiltonian(h, p, q)


# ---------------------------------------------------------------------------
# continued fractions
# ---------------------------------------------------------------------------


def continued_fraction_convergents(x, count, reject_rational_tol=1e-9,
                                   max_denominator=64):
    """The first ``count`` convergents p/q (with p >= 1) of x in (0, 1).

    Rational targets make the expansion terminate and the limit process
    meaningless, so inputs within ``reject_rational_tol`` of a fraction
    with denominator <= ``max_denominator`` are rejected.
    """
    for q in range(1, max_denominator + 1):
        if abs(x * q - round(x * q)) < reject_rational_tol * q:
            raise PreconditionError(
                f"target {x} is within tolerance of {round(x*q)}/{q}; "
                "convergents would terminate"
            )
    convergents = []
    p_prev, p_cur = 0, 1   # numerators h_{-2}, h_{-1}
    q_prev, q_cur = 1, 0   # denominators k_{-2}, k_{-1}
    val = x
    while len(convergents) < count + 2:
        a = int(np.floor(val))
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        if p_cur >= 1 and q_cur >= 1:
            convergents.append((p_cur, q_cur))
        frac = val - a
        if frac < 1e-15:
            break
        val = 1.0 / frac
    return convergents[:count]


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

    def _bump(self, t, order=0):
        t0, t1 = self.t0, self.t1
        inside = (t > t0) & (t < t1)
        a = np.where(inside, t - t0, 0.0)
        b = np.where(inside, t1 - t, 0.0)
        if order == 0:
            return self._norm * (a * b) ** 4
        if order == 1:
            return self._norm * 4.0 * (a * b) ** 3 * (b - a)
        return self._norm * (12.0 * (a * b) ** 2 * (b - a) ** 2
                             - 8.0 * (a * b) ** 3)

    def _angular(self, xy, d=0):
        k = self.spec.mode
        z = xy[..., 0] + 1j * xy[..., 1]
        rot = np.exp(-1j * self.spec.phase)
        return z ** (k - d) * rot

    def value(self, s, xy):
        xy = np.asarray(xy, dtype=float)
        t = xy[..., 0] ** 2 + xy[..., 1] ** 2
        return self.spec.amplitude * self._bump(t) * np.real(self._angular(xy))

    def _grad_components(self, xy):
        # _bump(t), _bump(t, 1), _angular(xy) and k * _angular(xy, 1) with
        # their shared subexpressions computed once; same expressions in the
        # same order, so the result is bitwise that of the composition
        x, y = xy[..., 0], xy[..., 1]
        k = self.spec.mode
        t = x * x + y * y
        inside = (t > self.t0) & (t < self.t1)
        a = np.where(inside, t - self.t0, 0.0)
        b = np.where(inside, self.t1 - t, 0.0)
        ab = a * b
        w = self._norm * ab ** 4
        wp = self._norm * 4.0 * ab ** 3 * (b - a)
        # x + iy as a zero-copy view of the (..., 2) pairs
        z = np.ascontiguousarray(xy).view(np.complex128)[..., 0]
        rot = np.exp(-1j * self.spec.phase)
        p = np.real(z ** k * rot)
        # z ** 1 costs a complex pow and returns z, except that a zero base
        # comes back as +0: only the origin, outside the support, can then
        # see its zero gradient change sign, and only from -0.0 inputs
        zk1 = k * ((z if k == 2 else z ** (k - 1)) * rot)
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
        k = self.spec.mode
        t = x * x + y * y
        w, wp, wpp = self._bump(t), self._bump(t, 1), self._bump(t, 2)
        zk = self._angular(xy)
        zk1 = k * self._angular(xy, 1)
        zk2 = k * (k - 1) * self._angular(xy, 2)
        p = np.real(zk)
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
    """

    def __init__(self, generator: Hamiltonian, steps=300):
        self.generator = generator
        self.steps = steps

    def _flow(self, pts, sign, want_jacobian=False):
        pts = np.asarray(pts, dtype=float)
        h = sign * 1.0 / self.steps
        flat = pts.reshape(-1, 2)
        out = np.empty_like(flat)
        if want_jacobian:
            jac_out = np.empty((len(flat), 2, 2))
        gen = self.generator

        def field(s, q):
            return gen.velocity(0.0, q)

        def field_jacobian(s, q):
            return gen.velocity_jacobian(0.0, q)

        for lo in range(0, len(flat), _FLOW_BLOCK):
            y, jac = _rk4_steps(field, flat[lo:lo + _FLOW_BLOCK], 0.0, h,
                                self.steps,
                                field_jacobian if want_jacobian else None)
            out[lo:lo + _FLOW_BLOCK] = y
            if want_jacobian:
                jac_out[lo:lo + _FLOW_BLOCK] = jac
        out = out.reshape(pts.shape)
        if want_jacobian:
            return out, jac_out.reshape(pts.shape[:-1] + (2, 2))
        return out

    def __call__(self, pts):
        return self._flow(pts, +1.0)

    def inverse(self, pts):
        return self._flow(pts, -1.0)

    def jacobian(self, pts):
        return self._flow(pts, +1.0, want_jacobian=True)[1]

    def inverse_jacobian(self, pts):
        return self._flow(pts, -1.0, want_jacobian=True)[1]


def build_conjugator(spec: ConjugatorSpec, steps=300, audit=False,
                     audit_grid=(16, 24)):
    """Time-1 flow of the spec's generator, optionally audited.

    The audit checks |det Dphi - 1| and the round trip phi^{-1}(phi(p))
    on a polar grid; both should sit at integration accuracy (~1e-9 with
    the default step count).
    """
    phi = DiscDiffeo(spec.generator(), steps=steps)
    if audit:
        pts = polar_grid(*audit_grid, r_max=0.97)
        jac = phi.jacobian(pts)
        det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
        area_defect = float(np.max(np.abs(det - 1.0)))
        round_trip = float(np.max(np.abs(phi.inverse(phi(pts)) - pts)))
        if area_defect > 1e-8 or round_trip > 1e-8:
            raise IntegrationError(
                f"conjugator audit failed: area defect {area_defect:.2e}, "
                f"round trip {round_trip:.2e}"
            )
        phi.audit = {"area_defect": area_defect, "round_trip": round_trip}
    return phi


# ---------------------------------------------------------------------------
# stage Hamiltonians
# ---------------------------------------------------------------------------


class _InverseRadiusSquared:
    """W(p) = |phi^{-1}(p)|^2, splined inside the support annulus.

    Outside r >= 1 - delta the inverse is the identity and W is computed
    as the literal |p|^2, which keeps the stage Hamiltonian bitwise equal
    to the rigid-rotation tail there.

    Only grid points inside the open support t0 < r^2 < t1 of the
    conjugator's generator are flowed.  Elsewhere the generator's velocity
    is exactly +-0 at the start of every RK4 stage, so such a point never
    moves and its flowed W would be r^2 bitwise, which it already holds.
    """

    def __init__(self, phi: DiscDiffeo, delta, grid_n=512, pad=0.05,
                 flow_steps=150):
        from scipy.interpolate import RectBivariateSpline

        self.delta = delta
        lim = 1.0 + pad
        ax = np.linspace(-lim, lim, grid_n)
        xx, yy = np.meshgrid(ax, ax, indexing="ij")
        pts = np.stack([xx, yy], axis=-1).reshape(-1, 2)
        r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
        w = r2.copy()
        inner = r2 < (1.0 - delta + 2.0 * (ax[1] - ax[0])) ** 2
        gen = phi.generator
        if isinstance(gen, _ConjugatorGenerator):
            inner &= (gen.t0 < r2) & (r2 < gen.t1)
        if np.any(inner):
            coarse = DiscDiffeo(gen, steps=flow_steps)
            inv = coarse.inverse(pts[inner])
            w[inner] = inv[:, 0] ** 2 + inv[:, 1] ** 2
        base = RectBivariateSpline(ax, ax, w.reshape(grid_n, grid_n), kx=5, ky=5)
        # cache derivative splines: scipy rebuilds them on every ev(dx=...)
        self._sp = base
        self._spx = base.partial_derivative(1, 0)
        self._spy = base.partial_derivative(0, 1)
        self._spxx = base.partial_derivative(2, 0)
        self._spxy = base.partial_derivative(1, 1)
        self._spyy = base.partial_derivative(0, 2)
        self._switch2 = (1.0 - delta) ** 2

    def value(self, xy):
        x, y = xy[..., 0], xy[..., 1]
        r2 = x * x + y * y
        tail = r2 >= self._switch2
        return np.where(tail, r2, self._sp(x, y, grid=False))

    def grad_components(self, xy):
        """The two partials (dW/dx, dW/dy) as separate arrays."""
        x, y = xy[..., 0], xy[..., 1]
        r2 = x * x + y * y
        tail = r2 >= self._switch2
        gx = np.where(tail, 2.0 * x, self._spx(x, y, grid=False))
        gy = np.where(tail, 2.0 * y, self._spy(x, y, grid=False))
        return gx, gy

    def point_grad(self, x, y):
        """(dW/dx, dW/dy) at one point given as two floats, as floats.

        The same tail test and the same splines as ``grad_components``, so
        the result is bitwise equal to that of a one-point batch.
        """
        if x * x + y * y >= self._switch2:
            return 2.0 * x, 2.0 * y
        return (float(self._spx(x, y, grid=False)),
                float(self._spy(x, y, grid=False)))

    def grad(self, xy):
        return np.stack(self.grad_components(xy), axis=-1)

    def hessian(self, xy):
        x, y = xy[..., 0], xy[..., 1]
        r2 = x * x + y * y
        tail = r2 >= self._switch2
        hxx = np.where(tail, 2.0, self._spxx(x, y, grid=False))
        hyy = np.where(tail, 2.0, self._spyy(x, y, grid=False))
        hxy = np.where(tail, 0.0, self._spxy(x, y, grid=False))
        hess = np.empty(xy.shape[:-1] + (2, 2))
        hess[..., 0, 0] = hxx
        hess[..., 0, 1] = hxy
        hess[..., 1, 0] = hxy
        hess[..., 1, 1] = hyy
        return hess


class ConjugatedRotationHamiltonian(Hamiltonian):
    """H = R o phi^{-1} = h + (p/q)(1 - |phi^{-1}(p)|^2), autonomous.

    On r >= 1 - delta this evaluates through the same expression as the
    rigid-rotation Hamiltonian, so the tail identity holds bitwise.
    """

    autonomous_near_boundary = True
    radial_near_boundary = True
    time_dependent = False

    def __init__(self, h, p, q, w_field: _InverseRadiusSquared, delta):
        self.h = int(h)
        self.p = int(p)
        self.q = int(q)
        self.pq = p / q
        self.w = w_field
        self.boundary_value = float(h)
        self.collar_width = delta

    def value(self, s, xy):
        return _rigid_value(self.h, self.pq, self.w.value(np.asarray(xy, float)))

    def grad(self, s, xy):
        return -self.pq * self.w.grad(np.asarray(xy, float))

    def point_velocity(self, s, x, y):
        """The velocity at one point given as two floats, as a float pair.

        One-point return maps (orbit_statistics) are bound by numpy
        dispatch on 2-element arrays, so the flow integrates them through
        this.  It must stay bitwise equal to the batched ``velocity``.
        """
        gx, gy = self.w.point_grad(x, y)
        return 0.5 * (-self.pq * gy), -0.5 * (-self.pq * gx)

    def velocity(self, s, xy):
        # same products, in the same order, as the generic velocity of grad
        xy = np.asarray(xy, float)
        if xy.shape == (2,):
            return np.array(self.point_velocity(s, *xy.tolist()))
        gx, gy = self.w.grad_components(xy)
        return np.stack([0.5 * (-self.pq * gy), -0.5 * (-self.pq * gx)], axis=-1)

    def ds(self, s, xy):
        return np.zeros(np.asarray(xy).shape[:-1])

    def hessian(self, s, xy):
        return -self.pq * self.w.hessian(np.asarray(xy, float))


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

    @property
    def rotation(self):
        return self.p / self.q

    def to_dict(self):
        return {
            "nu": self.nu,
            "p": self.p,
            "q": self.q,
            "delta": self.delta,
            "amplitude": self.conjugator_spec.amplitude,
            "diagnostics": _as_jsonable(self.diagnostics),
        }


def _as_jsonable(obj):
    if isinstance(obj, dict):
        return {k: _as_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_as_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if hasattr(obj, "to_dict"):
        return obj.to_dict()
    return obj


def conjugated_stage(h, p, q, spec: ConjugatorSpec = None, phi: DiscDiffeo = None,
                     w_grid=512, flow_steps=300, check_support=True):
    """Build the stage Hamiltonian H = R o phi^{-1} for one convergent.

    The time-2*pi flow of the result is phi o R_{2*pi p/q} o phi^{-1}
    (audited in the tests, not here).  Raises when phi moves points of the
    claimed support margin.
    """
    spec = spec or ConjugatorSpec()
    if phi is None:
        phi = build_conjugator(spec, steps=flow_steps)
    if check_support:
        theta = np.linspace(0, TWO_PI, 32, endpoint=False)
        for r in (1.0 - spec.delta, 1.0 - 0.5 * spec.delta, 0.999):
            ring = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
            if float(np.max(np.abs(phi(ring) - ring))) > 1e-10:
                raise PreconditionError(
                    f"conjugator moves points at r = {r}; support margin "
                    f"delta = {spec.delta} is violated"
                )
    rig = RigidRotationHamiltonian(h, p, q)  # validates h, p, q
    w_field = _InverseRadiusSquared(phi, spec.delta, grid_n=w_grid)
    ham = ConjugatedRotationHamiltonian(h, p, q, w_field, spec.delta)
    return ApproximationStage(
        nu=0, p=p, q=q, delta=spec.delta, conjugator_spec=spec,
        conjugator=phi, hamiltonian=ham,
    )


# ---------------------------------------------------------------------------
# stage sequences
# ---------------------------------------------------------------------------


@dataclass
class ConjugatorSchedule:
    delta0: float = 0.4
    amplitude0: float = 0.2
    amplitude_factor: float = 0.5
    mode: int = 2
    r_inner: float = 0.15

    def spec(self, nu):
        return ConjugatorSpec(
            amplitude=self.amplitude0 * self.amplitude_factor**nu,
            delta=self.delta0 * 2.0**-nu,
            mode=self.mode,
            r_inner=self.r_inner,
        )


@dataclass
class StageSequenceReport:
    target_a: float
    h: int
    stages: list
    difference_norms: list        # per consecutive pair, dict k -> norm
    f0_values: list
    f0_expected: list

    def to_dict(self):
        return {
            "target_a": self.target_a,
            "h": self.h,
            "stages": [st.to_dict() for st in self.stages],
            "difference_norms": _as_jsonable(self.difference_norms),
            "f0_values": list(map(float, self.f0_values)),
            "f0_expected": list(map(float, self.f0_expected)),
        }


def _stage_extension_settings(delta):
    # Keep the widest stencil reach (1 + 3/eta_frac) * rho0 inside the
    # exact rigid tail r >= 1 - delta.  The order-4 jet stencil needs
    # rungs rho >~ 0.066 before its rho^{-6} rounding amplification clears
    # the verdict threshold, so thin tails are only certifiable through
    # order 2: one more order per factor ~4 of tail width, a hard
    # double-precision wall, not a tunable.
    rho0 = min(0.1, 0.53 * np.sqrt(delta))
    k_max = 4 if rho0 >= 0.066 else 2
    return ExtensionSettings(rho0=rho0, k_max=k_max)


def _thread_count():
    """Worker cap from REEBCUT_THREADS; unset, empty, 0 and 1 mean serial."""
    raw = os.environ.get("REEBCUT_THREADS", "").strip()
    if not raw:
        return 0
    if not raw.isdecimal():
        raise ConfigurationError(
            f"REEBCUT_THREADS must be a non-negative integer, got {raw!r}"
        )
    return int(raw)


def stage_sequence(target_a, count, h, schedule: ConjugatorSchedule = None,
                   settings: FlowSettings = None, scan_grid=(3, 8),
                   audit_grid=SamplingGrid(n_s=8, n_r=24, n_theta=24),
                   k_max_norms=2, w_grid=512):
    """Build ``count`` stages along the convergents of an irrational target.

    Per stage: contact audit, extension test (with the expected a set to
    the stage rotation number), area-preservation defect, and a periodic
    point scan at the stage denominator.  Consecutive stages are compared
    in C^k norms on a fixed polar grid.  Stages are independent; when
    REEBCUT_THREADS is set they are built in a pool and merged in order.
    """
    n_threads = _thread_count()
    schedule = schedule or ConjugatorSchedule()
    settings = settings or FlowSettings()
    convergents = continued_fraction_convergents(target_a, count)
    if (h + target_a) <= 0:
        raise PreconditionError("need h + target_a > 0")

    def build(nu_pq):
        nu, (p, q) = nu_pq
        spec = schedule.spec(nu)
        stage = conjugated_stage(h, p, q, spec, w_grid=w_grid)
        stage.nu = nu
        ham = stage.hamiltonian
        audit = contact_audit(ham, audit_grid)
        ext = extension_test(
            ham, BindingChart(h=h),
            _stage_extension_settings(spec.delta),
        )
        area = area_preservation_audit(ham, polar_grid(3, 6, r_max=0.8),
                                       settings)
        recs = periodic_point_scan(ham, max_period=q,
                                   grid_points=polar_grid(*scan_grid, r_max=0.8,
                                                          include_center=False),
                                   tol=1e-5, settings=settings)
        stage.diagnostics = {
            "contact": audit.to_dict(),
            "extension_pass": ext.passed,
            "f0": ext.f0,
            "f0_expected": 2.0 * (h + p / q),
            "area_defect": area,
            "periodic_periods": sorted({r.period for r in recs}),
            "periodic_found": len(recs),
        }
        return stage, ext

    tasks = list(enumerate(convergents, start=1))
    if n_threads > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            results = list(pool.map(build, tasks))
    else:
        results = [build(t) for t in tasks]

    stages = [r[0] for r in results]
    f0_values = [r[1].f0 for r in results]
    f0_expected = [2.0 * (h + p / q) for p, q in convergents]

    # C^k difference norms on a fixed grid
    pts = polar_grid(10, 16, r_max=0.95)
    diffs = []
    for a, b in zip(stages[:-1], stages[1:]):
        entry = {}
        va = a.hamiltonian.value(0.0, pts)
        vb = b.hamiltonian.value(0.0, pts)
        entry[0] = float(np.max(np.abs(va - vb)))
        if k_max_norms >= 1:
            ga = a.hamiltonian.grad(0.0, pts)
            gb = b.hamiltonian.grad(0.0, pts)
            entry[1] = float(np.max(np.abs(ga - gb)))
        if k_max_norms >= 2:
            ha = a.hamiltonian.hessian(0.0, pts)
            hb = b.hamiltonian.hessian(0.0, pts)
            entry[2] = float(np.max(np.abs(ha - hb)))
        diffs.append(entry)

    return StageSequenceReport(
        target_a=target_a,
        h=h,
        stages=stages,
        difference_norms=diffs,
        f0_values=f0_values,
        f0_expected=f0_expected,
    )


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


def boundary_jet_check(H, a, order=2, n_s=8, n_theta=16, step=None):
    """Radial jets of H - (h + a - a r^2) at the boundary circle.

    One-sided stencils reach inward from r = 1; per-order max defects are
    returned.  Rounding grows like step^{-k}, so high orders need wide
    steps; with the default the defects of an exact quadratic tail sit
    near 1e-11 (k <= 2) to 1e-8 (k = 4).
    """
    if order > 6:
        raise PreconditionError("boundary jets are limited to order 6")
    h_val = H.boundary_value
    s_vals = np.linspace(0.0, TWO_PI, n_s, endpoint=False)
    t_vals = np.linspace(0.0, TWO_PI, n_theta, endpoint=False)
    defects = []
    for k in range(order + 1):
        eta = step if step is not None else max(0.02, 0.01 * (k + 1))
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
        self._splines = {}

    def _build(self, n_slices, grid_n):
        from scipy.interpolate import RectBivariateSpline

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
                spw = RectBivariateSpline(ax, ax, self._w2[j], kx=5, ky=5)
                self._w2[j + 1] = spw.ev(px, py).reshape(grid_n, grid_n)
            else:
                spx = RectBivariateSpline(ax, ax,
                                          inverse[:, 0].reshape(grid_n, grid_n),
                                          kx=5, ky=5)
                spy = RectBivariateSpline(ax, ax,
                                          inverse[:, 1].reshape(grid_n, grid_n),
                                          kx=5, ky=5)
                inverse = np.stack([spx.ev(px, py), spy.ev(px, py)], axis=-1)
                self._w2[j + 1] = self.H2.value(
                    self.s_nodes[j + 1], inverse
                ).reshape(grid_n, grid_n)

    def _slice(self, j):
        cached = self._splines.get(j)
        if cached is None:
            from scipy.interpolate import RectBivariateSpline

            sp = RectBivariateSpline(self._ax, self._ax, self._w2[j], kx=5, ky=5)
            cached = (sp, sp.partial_derivative(1, 0), sp.partial_derivative(0, 1))
            self._splines[j] = cached
            # evict the slice farthest from j: outer integrations march
            # forward in s, but a caller may also step back
            if len(self._splines) > 16:
                self._splines.pop(max(self._splines, key=lambda a: abs(a - j)))
        return cached

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
        out = self.K.value(s, xy)
        for a, wa in zip(js, w):
            out = out + wa * self._slice(a)[0](xy[..., 0], xy[..., 1], grid=False)
        return out

    def grad(self, s, xy):
        xy = np.asarray(xy, dtype=float)
        js, w = self._s_weights(s)
        g = self.K.grad(s, xy)
        gx = np.zeros(xy.shape[:-1])
        gy = np.zeros(xy.shape[:-1])
        for a, wa in zip(js, w):
            _, spx, spy = self._slice(a)
            gx = gx + wa * spx(xy[..., 0], xy[..., 1], grid=False)
            gy = gy + wa * spy(xy[..., 0], xy[..., 1], grid=False)
        return g + np.stack([gx, gy], axis=-1)
