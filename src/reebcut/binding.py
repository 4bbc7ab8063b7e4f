"""The contact-cut side: binding chart, extension verdicts, quotient maps.

Collapsing the boundary orbits of Y = d/ds - h d/dtheta turns the solid
torus into the 3-sphere.  Near the resulting binding circle, the chart

    Phi(b, rho, vartheta) = (s = vartheta, r = 1 - rho^2,
                             theta = b - h*vartheta)

identifies a pointed disc bundle with a neighbourhood inside the torus,
and the induced 1-form extends over rho = 0 precisely when

    f = (H o Phi - h (1 - rho^2)^2) / rho^2

does.  Smoothness of f at the binding is certified numerically: verdicts
per differentiability order with explicit scores and thresholds, because
the underlying criteria are limit statements and finite evidence needs
declared tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, PreconditionError
from .geometry import TWO_PI, spectral_derivative, tiles, wrap_angle

# extended_contact_audit's b values, directions and rho ladder
_AUDIT_B = np.linspace(0.0, TWO_PI, 16, endpoint=False)
_AUDIT_DIRS = np.linspace(0.0, TWO_PI, 32, endpoint=False)
_AUDIT_RHO = 0.05 * 0.5 ** np.arange(6)
# adapted_collar_g solves on [1 - _COLLAR_WIDTH, 1] to _COLLAR_TOL in tau
_COLLAR_WIDTH = 0.5
_COLLAR_TOL = 1e-12
# pullback_residual's radial range, and grid spacing / difference step
_PULLBACK_R_RANGE = (0.05, 0.8)
_PULLBACK_STEP_FRACTION = 10.0
# the angular step of PolarFunction.dtheta's fallback; primitive_change_audit's
# boundary angles and the radial step of its one-sided stencils at r = 1
_DTHETA_STEP = 1e-5
_PRIMITIVE_N_THETA = 64
_BOUNDARY_HR = 1e-3

# ---------------------------------------------------------------------------
# chart and binding function
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BindingChart:
    """Coordinates (b, rho, vartheta) near the binding circle.

    b and vartheta are angles; rho ranges over [0, sqrt(eps)).  h is the
    twisting integer of the collapsed circle action.
    """

    h: int
    eps: float = 0.25

    def __post_init__(self):
        if self.h < 1 or int(self.h) != self.h:
            raise PreconditionError("chart needs an integer h >= 1")
        if not 0 < self.eps < 1:
            raise PreconditionError("collar width eps must lie in (0, 1)")

    @property
    def rho_max(self):
        return float(np.sqrt(self.eps))


def phi_embed(chart: BindingChart, b, rho, vartheta):
    """The embedding (b, rho, vartheta) -> (s, x, y) into the solid torus.

    s = vartheta, r = 1 - rho^2, theta = b - h*vartheta; exact closed form,
    injective for rho > 0.
    """
    b = np.asarray(b, dtype=float)
    rho = np.asarray(rho, dtype=float)
    vartheta = np.asarray(vartheta, dtype=float)
    if np.any(rho < 0) or np.any(rho >= chart.rho_max):
        raise PreconditionError(
            f"rho out of chart range [0, {chart.rho_max:.4f})"
        )
    r = 1.0 - rho**2
    theta = b - chart.h * vartheta
    s = wrap_angle(vartheta)
    xy = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
    return s, xy


def phi_invert(chart: BindingChart, s, xy):
    """Inverse of phi_embed on rho > 0."""
    xy = np.asarray(xy, dtype=float)
    r = np.sqrt(xy[..., 0] ** 2 + xy[..., 1] ** 2)
    rho = np.sqrt(np.maximum(0.0, 1.0 - r))
    theta = np.arctan2(xy[..., 1], xy[..., 0])
    b = wrap_angle(theta + chart.h * np.asarray(s))
    return b, rho, wrap_angle(np.asarray(s))


def binding_function_f(H, chart: BindingChart, b, rho, vartheta):
    """f = (H_s o Phi - h (1 - rho^2)^2) / rho^2, for rho > 0.

    The value at rho = 0 is an extension verdict, not an evaluation; use
    ``extension_test`` for it.
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0):
        raise PreconditionError(
            "binding_function_f needs rho > 0; the rho = 0 value is decided "
            "by extension_test"
        )
    s, xy = phi_embed(chart, b, rho, vartheta)
    shell = (1.0 - rho**2) ** 2
    return (_eval_h(H, s, xy) - chart.h * shell) / rho**2


def _eval_h(H, s, xy):
    """Evaluate H at (possibly array) parameter values s."""
    s = np.asarray(s, dtype=float)
    if s.ndim == 0:
        return H.value(float(s), xy)
    if not getattr(H, "time_dependent", True):
        return H.value(0.0, xy)
    s = np.broadcast_to(s, xy.shape[:-1])
    out = np.empty(xy.shape[:-1])
    flat_s = s.reshape(-1)
    flat_xy = xy.reshape(-1, 2)
    flat_out = out.reshape(-1)
    for sv in np.unique(flat_s):
        mask = flat_s == sv
        flat_out[mask] = H.value(float(sv), flat_xy[mask])
    return out


def make_f_tilde(H, chart: BindingChart):
    """The lifted binding function (b, rho, vartheta) -> f, vectorized."""

    def f_tilde(b, rho, vartheta):
        return binding_function_f(H, chart, b, rho, vartheta)

    return f_tilde


# ---------------------------------------------------------------------------
# jet estimation engine for lifted functions on [0, delta) x S^1
# ---------------------------------------------------------------------------

# centered stencils on 7 nodes for the rho-derivatives of orders 1..4, all
# fourth-order accurate: the order-3/4 jets feed a parity test whose
# forbidden modes would otherwise collect the second-order truncation of
# narrower stencils
_STENCILS = (
    np.array([0.0, 1.0, -8.0, 0.0, 8.0, -1.0, 0.0]) / 12.0,
    np.array([0.0, -1.0, 16.0, -30.0, 16.0, -1.0, 0.0]) / 12.0,
    np.array([1.0, -8.0, 13.0, 0.0, -13.0, 8.0, -1.0]) / 8.0,
    np.array([-1.0, 12.0, -39.0, 56.0, -39.0, 12.0, -1.0]) / 6.0,
)


def _extrapolation_weights(nodes):
    """Lagrange weights evaluating the interpolating polynomial at 0."""
    nodes = np.asarray(nodes, dtype=float)
    w = np.ones(len(nodes))
    for i, xi in enumerate(nodes):
        for j, xj in enumerate(nodes):
            if i != j:
                w[i] *= xj / (xj - xi)
    return w


@dataclass
class LiftJetData:
    """Sampled lift and rho-derivative estimates on a geometric ladder."""

    b_values: np.ndarray          # (nb,)
    rungs: np.ndarray             # (nm,)
    directions: np.ndarray        # (nd,)
    values: np.ndarray            # (nb, nm, nd)
    deriv_rungs: np.ndarray       # (nk,)
    d_rho: tuple                  # d_rho[k] (nb, nk, nd): order-k rho-derivative
                                  # at the sub-ladder, d_rho[0] the lift itself


_ETA_FRAC = 3.5


def sample_lift_jets(lift, b_values, rungs, n_dirs, n_deriv_rungs):
    """Evaluate a lift u(b, rho, vartheta) and rho-derivative stencils.

    Derivatives use the centered 7-node ``_STENCILS`` with step
    rho/_ETA_FRAC; they are only taken on the shallow rungs, where the
    1/rho^2 cancellation in typical lifts has not yet amplified rounding
    noise.
    """
    b_values = np.asarray(b_values, dtype=float)
    rungs = np.asarray(rungs, dtype=float)
    dirs = np.linspace(0.0, TWO_PI, n_dirs, endpoint=False)
    # derivative estimates live on a slower (ratio sqrt 2) sub-ladder: deep
    # rungs amplify the 1/rho^2 rounding of the lift as rho^{-k}, while the
    # extrapolations only need a modest range to cancel their truncation
    deriv_rungs = rungs[0] * 2.0 ** (-0.5 * np.arange(n_deriv_rungs))

    bb, rr, tt = np.meshgrid(b_values, rungs, dirs, indexing="ij")
    values = lift(bb, rr, tt)

    offsets = np.arange(-3, 4)
    rk = deriv_rungs[None, :, None, None]
    eta = rk / _ETA_FRAC
    bb4 = b_values[:, None, None, None]
    tt4 = dirs[None, None, None, :]
    rho_nodes = rk + offsets[None, None, :, None] * eta
    stack = lift(bb4, rho_nodes, tt4)  # (nb, nk, 7, nd) by broadcasting
    eta_k = eta[0, :, 0, 0][None, :, None]
    d_rho = [stack[:, :, 3, :]]
    for k, stencil in enumerate(_STENCILS, start=1):
        d_rho.append(np.einsum("j,bkjd->bkd", stencil, stack) / eta_k**k)
    return LiftJetData(
        b_values=b_values,
        rungs=rungs,
        directions=dirs,
        values=values,
        deriv_rungs=deriv_rungs,
        d_rho=tuple(d_rho),
    )


def _limit_to_zero(samples, rungs, use=slice(3, 7)):
    """Richardson limit rho -> 0 along axis 1 of (nb, nm, nd) samples."""
    nodes = rungs[use]
    w = _extrapolation_weights(nodes)
    return np.einsum("m,bmd->bd", w, samples[:, use, :])


# ---------------------------------------------------------------------------
# the extension report
# ---------------------------------------------------------------------------


@dataclass
class OrderVerdict:
    order: int
    score: float
    threshold: float
    passed: bool
    detail: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "order": self.order,
            "score": self.score,
            "threshold": self.threshold,
            "pass": self.passed,
            "detail": {k: float(v) for k, v in self.detail.items()},
        }


_THRESHOLD_SCALE = 1e-4


@dataclass
class ExtensionSettings:
    """Ladder and thresholds for the smooth-extension verdicts."""

    k_max: int = 4
    rho0: float = 0.1
    n_rungs: int = 12
    n_dirs: int = 64
    n_b: int = 8
    expected_a: float = None
    n_deriv_rungs: int = 6

    def __post_init__(self):
        # the rho-jets reach order 4, as the cut-check schema allows
        if not 0 <= self.k_max <= 4:
            raise ConfigurationError(
                f"k_max = {self.k_max} outside the verdict orders 0..4")

    def rungs(self):
        return self.rho0 * 0.5 ** np.arange(self.n_rungs)

    def threshold(self, order):
        return _THRESHOLD_SCALE * (order + 1)


@dataclass
class ExtensionReport:
    """Numerical verdicts on smooth extension of f over the binding.

    ``f0`` is the extrapolated limit per (b, direction) sample; a passing
    C^0 verdict means those limits agree across directions.  Higher-order
    verdicts are cumulative: C^k can only pass if every lower order does.
    ``lift_samples`` keeps the raw ladder values for external re-analysis.
    """

    chart: BindingChart
    settings: ExtensionSettings
    f0_samples: np.ndarray                 # (nb, nd)
    f0: float
    direction_spread: float
    f_rho_at_zero: np.ndarray              # (nb, nd)
    f_rhorho_at_zero: np.ndarray           # (nb, nd)
    uniformity_scores: np.ndarray          # per rung gap, max over dirs
    verdicts: list
    effective_a: float
    expected_a: float
    model_jet_defects: dict
    lift_samples: np.ndarray               # (nb, nm, nd) raw ladder values
    b_values: np.ndarray
    directions: np.ndarray

    @property
    def passed(self):
        return all(v.passed for v in self.verdicts)

    def order_passed(self, k):
        return all(v.passed for v in self.verdicts if v.order <= k)

    def to_dict(self):
        return {
            "h": self.chart.h,
            "eps": self.chart.eps,
            "f0": self.f0,
            "direction_spread": self.direction_spread,
            "effective_a": self.effective_a,
            "expected_a": self.expected_a,
            "pass": self.passed,
            "verdicts": [v.to_dict() for v in self.verdicts],
            "uniformity_scores": [float(u) for u in self.uniformity_scores],
            "model_jet_defects": (
                {k: float(v) for k, v in self.model_jet_defects.items()}
                if self.model_jet_defects
                else None
            ),
            "rungs": [float(r) for r in self.settings.rungs()],
            "b_values": self.b_values.tolist(),
            "directions": self.directions.tolist(),
            "f0_samples": self.f0_samples.tolist(),
            "f_rho_at_zero": self.f_rho_at_zero.tolist(),
            "f_rhorho_at_zero": self.f_rhorho_at_zero.tolist(),
            "lift_samples": self.lift_samples.tolist(),
        }


def extension_test(H, chart: BindingChart, settings: ExtensionSettings = None):
    """Decide numerically whether the binding function extends smoothly.

    The lift f~ is sampled on a geometric rho-ladder times a direction
    grid; geometric rungs expose the double-limit structure (uniformity in
    the direction as rho -> 0) directly.  Checks, in order:

    C^0   directional limits exist, are uniform, and agree across
          directions (and the direction spread is the reported score);
    C^1   (k_max >= 1) the polar-to-cartesian limit conditions: antipodal
          oddness of f~_rho at rho = 0 and direction-independent limits
          of cos(t) f~_rho - sin(t) f~_t / rho (and the sine counterpart);
    C^2   the five-term second-derivative decomposition: assembled f_xx,
          f_xy, f_yy have direction-independent limits;
    C^k   (3 <= k <= k_max) the order-k rho-jet is a trigonometric
          polynomial in the direction with degree <= k and parity k.

    When ``expected_a`` is supplied, the measured jet is also compared to
    the model (h + a)(2 - rho^2): f0 = 2(h+a), f~_rho(0) = 0,
    f~_rhorho(0) = -2(h+a), all higher orders zero.
    """
    settings = settings or ExtensionSettings()
    if settings.n_rungs < 5:
        raise ConfigurationError("the rho ladder needs at least 5 rungs")
    rungs = settings.rungs()
    max_reach = rungs[0] * (1.0 + 3.0 / _ETA_FRAC)
    if max_reach >= chart.rho_max:
        raise ConfigurationError(
            f"rho ladder (reach {max_reach:.4f}) exits the chart "
            f"(rho_max {chart.rho_max:.4f})"
        )

    lift = make_f_tilde(H, chart)
    b_values = np.linspace(0.0, TWO_PI, settings.n_b, endpoint=False)
    data = sample_lift_jets(lift, b_values, rungs, settings.n_dirs,
                            n_deriv_rungs=settings.n_deriv_rungs)
    return _assemble_extension_report(chart, settings, data)


def _assemble_extension_report(chart, settings, data: LiftJetData):
    verdicts = []

    def verdict(order, **parts):
        # the score is the worst part, and np.max keeps a NaN part, so it fails
        score = float(np.max(list(parts.values())))
        threshold = settings.threshold(order)
        passed = score <= threshold and all(v.passed for v in verdicts)
        verdicts.append(OrderVerdict(order, score, threshold, passed, parts))

    # ---- C^0: limits, uniformity, direction independence
    rungs = data.rungs
    f0_samples = _limit_to_zero(data.values, rungs,
                                use=slice(3, min(7, len(rungs))))
    gaps = np.abs(np.diff(data.values, axis=1))
    uniformity = np.max(gaps, axis=(0, 2))
    spread = float(np.max(
        0.5 * (f0_samples.max(axis=1) - f0_samples.min(axis=1))
    ))
    verdict(0, direction_spread=spread, last_rung_gap=float(uniformity[-1]))
    f0 = float(np.mean(f0_samples))

    # ---- derivative ladders
    f, d1, d2 = data.d_rho[:3]
    dk = data.deriv_rungs
    # reported jets: three shallow nodes keep the 1/rho^2 rounding of the
    # lift out of the stencil (noise-optimal, exact through quadratic
    # rho-dependence, which covers the model jets)
    f_rho0 = _limit_to_zero(d1, dk, use=slice(0, 3))
    f_rhorho0 = _limit_to_zero(d2, dk, use=slice(0, 3))

    def limit(samples):
        # the limit comparisons need one more extrapolation order: cubic jet
        # content would otherwise masquerade as a differentiability defect
        return _limit_to_zero(samples, dk, use=slice(0, min(4, len(dk))))

    def span(lim):
        # the widest range of a (nb, nd) limit across the directions
        return float(np.max(lim.max(axis=1) - lim.min(axis=1)))

    dirs = data.directions
    cos_t, sin_t = np.cos(dirs), np.sin(dirs)

    # ---- C^1: Lemma-style limit conditions
    if settings.k_max >= 1:
        f_rho0_chk = limit(d1)
        f_theta = spectral_derivative(f)
        lim_cos = limit(cos_t * d1 - sin_t * f_theta / dk[None, :, None])
        lim_sin = limit(sin_t * d1 + cos_t * f_theta / dk[None, :, None])
        half = settings.n_dirs // 2
        quarter = settings.n_dirs // 4
        verdict(
            1,
            antipodal_defect=float(np.max(np.abs(
                f_rho0_chk + np.roll(f_rho0_chk, half, 1)))),
            cos_limit_spread=span(lim_cos),
            sin_limit_spread=span(lim_sin),
            # limits must also match the axis values of f~_rho at rho = 0
            axis_defect_x=float(np.max(np.abs(lim_cos - f_rho0_chk[:, [0]]))),
            axis_defect_y=float(np.max(np.abs(lim_sin - f_rho0_chk[:, [quarter]]))),
        )

    # ---- C^2: assembled second derivatives via the 5-term decomposition
    if settings.k_max >= 2:
        rho_k = dk[None, :, None]
        f_rt = spectral_derivative(d1)
        f_tt = spectral_derivative(f, order=2)
        s, c = sin_t, cos_t
        f_xx = (d2 * c**2 - f_rt * 2 * s * c / rho_k + d1 * s**2 / rho_k
                + f_tt * s**2 / rho_k**2 + f_theta * 2 * s * c / rho_k**2)
        f_yy = (d2 * s**2 + f_rt * 2 * s * c / rho_k + d1 * c**2 / rho_k
                + f_tt * c**2 / rho_k**2 - f_theta * 2 * s * c / rho_k**2)
        f_xy = (d2 * s * c + f_rt * (c**2 - s**2) / rho_k - d1 * s * c / rho_k
                - f_tt * s * c / rho_k**2 + f_theta * (s**2 - c**2) / rho_k**2)
        verdict(2, spread_xx=span(limit(f_xx)), spread_xy=span(limit(f_xy)),
                spread_yy=span(limit(f_yy)))

    # ---- orders 3..k_max: trig-polynomial parity of the rho-jets
    for k in range(3, settings.k_max + 1):
        ck = limit(data.d_rho[k]) / math.factorial(k)
        spectrum = np.abs(np.fft.rfft(ck, axis=1)) / settings.n_dirs * 2.0
        modes = np.arange(spectrum.shape[1])
        forbidden = (modes > k) | ((modes % 2) != (k % 2))
        verdict(k, max_forbidden_mode=(float(np.max(spectrum[:, forbidden]))
                                       if forbidden.any() else 0.0))

    effective_a = f0 / 2.0 - chart.h
    model = None
    if settings.expected_a is not None:
        ha = chart.h + settings.expected_a
        model = {
            "f0": abs(f0 - 2.0 * ha),
            "f_rho": float(np.max(np.abs(f_rho0))),
            "f_rhorho": float(np.max(np.abs(f_rhorho0 + 2.0 * ha))),
        }

    return ExtensionReport(
        chart=chart,
        settings=settings,
        f0_samples=f0_samples,
        f0=f0,
        direction_spread=spread,
        f_rho_at_zero=f_rho0,
        f_rhorho_at_zero=f_rhorho0,
        uniformity_scores=uniformity,
        verdicts=verdicts,
        effective_a=float(effective_a),
        expected_a=settings.expected_a,
        model_jet_defects=model,
        lift_samples=data.values,
        b_values=data.b_values,
        directions=data.directions,
    )


# ---------------------------------------------------------------------------
# the extended form near the binding
# ---------------------------------------------------------------------------


@dataclass
class ExtendedContactReport:
    """Audit of alpha-hat = (1-rho^2)^2 db + f rho^2 dvartheta at rho = 0."""

    f_on_binding_min: float
    volume_density_min: float
    reeb_pairing_defect: float
    reeb_contraction_defect: float
    passed: bool
    certificate: dict = None

    def to_dict(self):
        out = {
            "f_on_binding_min": self.f_on_binding_min,
            "volume_density_min": self.volume_density_min,
            "reeb_pairing_defect": self.reeb_pairing_defect,
            "reeb_contraction_defect": self.reeb_contraction_defect,
            "pass": self.passed,
        }
        if self.certificate:
            out["certificate"] = self.certificate
        return out


def extended_contact_audit(f_lift):
    """Check that the extended form is contact along the binding.

    The volume density per db ^ rho drho ^ dvartheta is

        2 f (1-rho^2)^2 + (1-rho^2)^2 f_rho rho + 4 f (1-rho^2) rho^2,

    which at rho = 0 reduces to 2f; positivity of f on the binding is the
    whole condition there.  The Reeb defects |alpha-hat(d/db) - 1| and
    |i_{d/db} d alpha-hat| are extrapolated to rho = 0 and vanish exactly
    when f is C^1.  A nonpositive f is reported as a failed audit with a
    zero-volume certificate, not raised.
    """
    bb, rr, tt = np.meshgrid(_AUDIT_B, _AUDIT_RHO, _AUDIT_DIRS, indexing="ij")
    f = f_lift(bb, rr, tt)
    eta = _AUDIT_RHO[None, :, None] / 4.0
    f_rho = (f_lift(bb, rr + eta, tt) - f_lift(bb, rr - eta, tt)) / (2 * eta)
    f_b = spectral_derivative(f, axis=0)

    shell = (1.0 - rr**2)
    density = 2 * f * shell**2 + shell**2 * f_rho * rr + 4 * f * shell * rr**2

    def limit(samples):
        return _limit_to_zero(samples, _AUDIT_RHO, use=slice(2, None))

    f_binding = limit(f)
    density_binding = limit(density)

    pairing = np.abs((1.0 - rr**2) ** 2 - 1.0)
    contraction = rr * np.sqrt(16.0 * (1.0 - rr**2) ** 2 + f_b**2)
    pairing_defect = abs(float(limit(pairing).max()))
    contraction_defect = abs(float(limit(contraction).max()))

    fmin = float(f_binding.min())
    vmin = float(np.min([density.min(), density_binding.min()]))
    passed = fmin > 0 and vmin > 0
    cert = None
    if not passed:
        idx = np.unravel_index(np.argmin(f_binding), f_binding.shape)
        cert = {
            "where": {"b": float(_AUDIT_B[idx[0]]),
                      "vartheta": float(_AUDIT_DIRS[idx[1]])},
            "f_limit": fmin,
            "volume_density": vmin,
        }
    return ExtendedContactReport(
        f_on_binding_min=fmin,
        volume_density_min=vmin,
        reeb_pairing_defect=pairing_defect,
        reeb_contraction_defect=contraction_defect,
        passed=passed,
        certificate=cert,
    )


# ---------------------------------------------------------------------------
# adapted collar parameter
# ---------------------------------------------------------------------------


def adapted_collar_g(H, h, s, theta, tau):
    """Solve tau = h r^2 - H_s(r, theta) for r near the boundary.

    The boundary-slope form of the contact condition makes tau strictly
    increasing in r on a collar, so a bracketed bisection converges: 60
    halvings, or fewer once the bracket is below 1e-14, drive the residual
    below ``_COLLAR_TOL`` (in tau units).  An unbracketed tau, or a
    residual left above the tolerance (tau not continuous in r), raises.
    """

    def tau_of(r):
        xy = np.array([r * np.cos(theta), r * np.sin(theta)])
        return h * r * r - float(H.value(s, xy))

    r_lo = 1.0 - _COLLAR_WIDTH
    t_lo, t_hi = tau_of(r_lo), tau_of(1.0)
    tol = _COLLAR_TOL
    if not (min(t_lo, t_hi) - tol <= tau <= max(t_lo, t_hi) + tol):
        raise PreconditionError(
            f"tau = {tau} not bracketed on the collar "
            f"[{t_lo:.6f}, {t_hi:.6f}]; contact condition violated or tau "
            "out of range"
        )
    lo, hi = r_lo, 1.0
    if t_lo > t_hi:
        lo, hi = hi, lo
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if tau_of(mid) < tau:
            lo = mid
        else:
            hi = mid
        if abs(hi - lo) < 1e-14:
            break
    r = 0.5 * (lo + hi)
    if abs(tau_of(r) - tau) > tol:
        raise PreconditionError(f"collar solve stalled at residual "
                                f"{abs(tau_of(r) - tau):.3e}")
    return float(r)


# ---------------------------------------------------------------------------
# quotient maps to the 3-sphere and the ellipsoid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuotientMapSpec:
    """Which explicit model of the collapse to use.

    variant 'hemisphere' parametrizes the northern hemisphere as a graph,
    'stereographic' uses the projection from the south pole (smooth in r),
    'ellipsoid' adapts the radius to a quadratic Hamiltonian with a0 > 0.
    """

    variant: str
    h: int
    a0: float = None

    def __post_init__(self):
        if self.variant not in ("hemisphere", "stereographic", "ellipsoid"):
            raise PreconditionError(f"unknown quotient variant {self.variant!r}")
        if self.variant == "ellipsoid":
            if self.a0 is None or self.a0 <= 0:
                raise PreconditionError("ellipsoid variant needs a0 > 0")


def quotient_map(spec: QuotientMapSpec, s, r, theta):
    """Image of (s, r, theta) in C^2 = R^4, as (x1, y1, x2, y2).

    hemisphere:     (sqrt(1-r^2) e^{is},          r e^{i(theta+hs)})
    stereographic:  ((1-r^2)/(1+r^2) e^{is}, 2r/(1+r^2) e^{i(theta+hs)})
    ellipsoid(a0):  (sqrt(a0 (1-r^2)) e^{is},     r e^{i(theta+hs)})
    """
    s = np.asarray(s, dtype=float)
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if np.any(r < 0) or np.any(r > 1 + 1e-12):
        raise PreconditionError("quotient map needs r in [0, 1]")
    phase2 = theta + spec.h * s
    if spec.variant == "hemisphere":
        r1 = np.sqrt(np.maximum(0.0, 1.0 - r**2))
        r2 = r
    elif spec.variant == "stereographic":
        r1 = (1.0 - r**2) / (1.0 + r**2)
        r2 = 2.0 * r / (1.0 + r**2)
    else:
        r1 = np.sqrt(np.maximum(0.0, spec.a0 * (1.0 - r**2)))
        r2 = r
    return np.stack(
        [r1 * np.cos(s), r1 * np.sin(s), r2 * np.cos(phase2), r2 * np.sin(phase2)],
        axis=-1,
    )


def pullback_residual(spec: QuotientMapSpec, H, n_s=32, n_r=32, n_theta=32):
    """sup |Psi^*(r1^2 dth1 + r2^2 dth2) - (H ds + r^2 dtheta)| over a grid.

    The pullback is computed through fourth-order finite differences of the
    four components of the quotient map, with step = grid spacing divided
    by ``_PULLBACK_STEP_FRACTION``; on coarse grids the residual is
    discretization dominated.  The exact identity makes the true value zero.
    """
    r_lo, r_hi = _PULLBACK_R_RANGE
    s_vals = np.linspace(0.0, TWO_PI, n_s, endpoint=False)
    r_vals = np.linspace(r_lo, r_hi, n_r)
    t_vals = np.linspace(0.0, TWO_PI, n_theta, endpoint=False)

    steps = (
        (s_vals[1] - s_vals[0]) / _PULLBACK_STEP_FRACTION,
        np.min([(r_vals[1] - r_vals[0]) / _PULLBACK_STEP_FRACTION,
                r_lo / 2.2, (1.0 - r_hi) / 2.2]),
        (t_vals[1] - t_vals[0]) / _PULLBACK_STEP_FRACTION,
    )

    def liouville_pair(coords, d_coords):
        # x1 dy1 - y1 dx1 + x2 dy2 - y2 dx2 applied to the differential
        x1, y1, x2, y2 = np.moveaxis(coords, -1, 0)
        dx1, dy1, dx2, dy2 = np.moveaxis(d_coords, -1, 0)
        return x1 * dy1 - y1 * dx1 + x2 * dy2 - y2 * dx2

    def shift(coords, axis, mult):
        a = [c.copy() for c in coords]
        a[axis] = a[axis] + mult * steps[axis]
        if axis == 1:
            a[axis] = np.clip(a[axis], 0.0, 1.0)
        return quotient_map(spec, *a)

    # the lattice in tiles of s-slices, so scratch does not grow with it
    defects = []
    for tile in tiles(n_s, 4 * n_r * n_theta):
        ss, rr, tt = np.meshgrid(s_vals[tile], r_vals, t_vals, indexing="ij")
        base = quotient_map(spec, ss, rr, tt)
        xy = np.stack([rr * np.cos(tt), rr * np.sin(tt)], axis=-1)
        expected = [_eval_h(H, ss, xy), np.zeros_like(rr), rr**2]
        coords = [ss, rr, tt]
        for axis in range(3):
            h = steps[axis]
            d = (shift(coords, axis, -2.0) - 8.0 * shift(coords, axis, -1.0)
                 + 8.0 * shift(coords, axis, 1.0) - shift(coords, axis, 2.0)) / (12 * h)
            coeff = liouville_pair(base, d)
            defects.append(np.max(np.abs(coeff - expected[axis])))
    # np.max keeps a NaN defect, which a running builtin max would drop
    return float(np.max(defects))


# ---------------------------------------------------------------------------
# change of primitive
# ---------------------------------------------------------------------------


@dataclass
class PrimitiveChangeReport:
    theta2_defect: float
    mixed_defect: float
    factorization_ok: bool
    lift_verdicts: list
    passed: bool


class PolarFunction:
    """A smooth function on the closed disc given in polar form.

    ``value(r, theta)`` is required (vectorized); ``dtheta`` is optional
    and defaults to centered differences in the angle.
    """

    def __init__(self, value, dtheta=None):
        self._value = value
        self._dtheta = dtheta

    def value(self, r, theta):
        return np.asarray(self._value(np.asarray(r, float), np.asarray(theta, float)))

    def dtheta(self, r, theta):
        if self._dtheta is not None:
            return np.asarray(self._dtheta(np.asarray(r, float), np.asarray(theta, float)))
        step = _DTHETA_STEP
        return (self.value(r, theta + step) - self.value(r, theta - step)) / (2 * step)


_BOUNDARY_TOL = 1e-6


def primitive_change_audit(F: PolarFunction, h):
    """Audit whether lambda + dF still yields an extendable contact form.

    Invariance of the new form under the boundary circle action forces the
    second angular derivative and the mixed r-theta derivative of F to
    vanish on r = 1; both defects are measured by boundary finite
    differences.  When they vanish, the angular derivative factors as
    (r-1)^2 G with G smooth, and the remaining obstruction is whether
    rho^2 G(1-rho^2, b - h*vartheta) lifts a C^2 function; that reuses the
    extension machinery at order 2.

    Returns the report and ``g_of(r, theta)``, the quotient
    F_theta / (r-1)^2, defined on r < 1: the lift's deepest rung,
    rho = 0.25 * 2^-7, keeps (r-1)^2 = rho^4 above 1e-11.
    """
    theta = np.linspace(0.0, TWO_PI, _PRIMITIVE_N_THETA, endpoint=False)

    ft = F.dtheta(np.ones_like(theta), theta)
    ftt = spectral_derivative(ft, order=2)
    theta2_defect = float(np.max(np.abs(ftt)))

    # one-sided r-derivative of dF/dtheta at the boundary
    nodes = 1.0 - _BOUNDARY_HR * np.arange(5)
    vals = np.stack([F.dtheta(np.full_like(theta, rn), theta) for rn in nodes])
    c = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
    mixed = -(c @ vals) / _BOUNDARY_HR
    mixed_defect = float(np.max(np.abs(mixed)))

    ok_boundary = theta2_defect <= _BOUNDARY_TOL and mixed_defect <= _BOUNDARY_TOL

    settings = ExtensionSettings(
        k_max=2, rho0=0.25, n_rungs=8, n_deriv_rungs=4, n_b=6, n_dirs=theta.size
    )

    def g_of(r, th):
        return F.dtheta(r, th) / (np.asarray(r, dtype=float) - 1.0) ** 2

    def lift(b, rho, vt):
        r = 1.0 - np.asarray(rho, float) ** 2
        return np.asarray(rho, float) ** 2 * g_of(r, b - h * vt)

    b_values = np.linspace(0.0, TWO_PI, settings.n_b, endpoint=False)
    data = sample_lift_jets(lift, b_values, settings.rungs(), settings.n_dirs,
                            n_deriv_rungs=settings.n_deriv_rungs)
    chart = BindingChart(
        h=h, eps=np.minimum(0.99, (settings.rungs()[0] * 2.2) ** 2 + 0.2))
    report = _assemble_extension_report(chart, settings, data)

    passed = ok_boundary and report.order_passed(2)
    return PrimitiveChangeReport(
        theta2_defect=theta2_defect,
        mixed_defect=mixed_defect,
        factorization_ok=ok_boundary,
        lift_verdicts=report.verdicts,
        passed=passed,
    ), g_of

