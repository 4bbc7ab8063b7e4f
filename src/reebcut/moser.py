"""Compactly supported Poincare lemma on the unit square, Moser flow, and
the canonical Hamiltonian of a compactly supported disc isotopy.

The square-side operations work on uniform periodic grids over [0, 1)^2;
compact support in the open square makes the periodic extension smooth, so
spectral differentiation and antidifferentiation converge at the rate of
the fixture's edge regularity.  The disc-side recovery never touches the
square lemma: it only line-integrates the exact form psi* lambda - lambda.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import ConfigurationError, PreconditionError
from .flows import _flow_batch, _rk4_steps
from .geometry import TWO_PI, spectral_derivative, tiles, wavenumbers
from .hamiltonians import Hamiltonian, QuinticField, SlicedHamiltonian

# ---------------------------------------------------------------------------
# spectral helpers on periodic grids
# ---------------------------------------------------------------------------


def _fd6_partial(values, axis, rows):
    """Sixth-order centered periodic finite-difference derivative of a 2-D
    array along ``axis``, at the slice ``rows`` of its axis-0 indices.

    It is accumulated in place in the order of the stencil, -f(-3) + 9 f(-2)
    - 45 f(-1) + 45 f(1) - 9 f(2) + f(3), then divided by 60 h, so a caller
    that takes the rows tile by tile gets every value of the whole-array
    expression bitwise, with temporaries of one tile.
    """
    n = values.shape[axis]
    h = 1.0 / n
    if axis == 0:
        idx = np.arange(values.shape[0])[rows]

        def shifted(k):  # f(i + k) on the tile's rows
            return values[(idx + k) % n]
    else:
        tile = values[rows]

        def shifted(k):
            return np.roll(tile, -k, axis=1)

    acc = np.negative(shifted(-3))
    acc += 9 * shifted(-2)
    acc -= 45 * shifted(-1)
    acc += 45 * shifted(1)
    acc -= 9 * shifted(2)
    acc += shifted(3)
    acc /= 60 * h
    return acc


def spectral_cumulative(values, axis):
    """Antiderivative F with F' = values and F = 0 at index 0 along ``axis``.

    Requires zero mean along the axis (true for all the compactly supported
    zero-integral data handled here); the mean mode is dropped.  The
    transforms run in place on one complex copy of ``values``, which is
    left unchanged.
    """
    buf = np.array(values, dtype=complex)
    k = wavenumbers(buf.shape[axis], 1.0)
    shape = [1] * buf.ndim
    shape[axis] = -1
    np.fft.fft(buf, axis=axis, out=buf)
    # the mean mode is divided by one, then zeroed
    buf /= np.where(k == 0, 1.0, k).reshape(shape)
    buf.swapaxes(0, axis)[0] = 0.0
    np.fft.ifft(buf, axis=axis, out=buf)
    prim = buf.real
    return prim - np.take(prim, [0], axis=axis)


# ---------------------------------------------------------------------------
# grid data types
# ---------------------------------------------------------------------------


# support and power of the polynomial bump profile
_CHI_SUPPORT = (0.3, 0.7)
_CHI_POWER = 8


def bump_profile(y):
    """The bump chi: ((y-a)(b-y))^power on [a, b], normalized to integral 1.

    [a, b] is ``_CHI_SUPPORT``, and the power ``_CHI_POWER`` keeps the
    periodic extension C^7, so spectral antiderivatives built from it
    leave only ~1e-12 dust outside the mathematical support.
    """
    a, b = _CHI_SUPPORT
    # int_0^1 t^p (1-t)^p dt = 1 / ((2p+1) C(2p, p))
    norm = (2 * _CHI_POWER + 1) * comb(2 * _CHI_POWER, _CHI_POWER) / (b - a)
    y = np.asarray(y, dtype=float)
    t = (y - a) / (b - a)
    inside = (t > 0) & (t < 1)
    t = np.clip(t, 0.0, 1.0)
    return np.where(inside, norm * (t * (1.0 - t)) ** _CHI_POWER, 0.0)


# the boundary margin, in cells, on which compactly supported grid data vanish
_MARGIN = 2


def edge_band(values):
    """The ``_MARGIN``-cell strips at the four edges of a grid array, each
    flattened, in one array: first and last rows, first and last columns."""
    m = _MARGIN
    return np.concatenate([values[:m].ravel(), values[-m:].ravel(),
                           values[:, :m].ravel(), values[:, -m:].ravel()])


@dataclass
class GridFunction2D:
    """Samples of a function on the uniform periodic grid (i/n, j/n).

    ``values[i, j] = f(x_i, y_j)``.  When ``compact`` is set, the samples
    must vanish on the ``edge_band``.
    """

    values: np.ndarray
    compact: bool = True

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        n = self.values.shape[0]
        if self.values.shape != (n, n):
            raise ConfigurationError("grid values must be square")
        if self.compact:
            # max |f| is max(max f, -min f), read without an |f| grid; both
            # are finite only if every value is (a NaN makes both NaN)
            hi, lo = np.max(self.values), np.min(self.values)
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise PreconditionError(
                    "values flagged compactly supported are not all finite")
            scale = np.max([hi, -lo, 1.0])
            if not np.max(np.abs(edge_band(self.values))) <= 1e-12 * scale:
                raise PreconditionError(
                    "values flagged compactly supported do not vanish on the "
                    f"{_MARGIN}-cell boundary margin"
                )

    @property
    def n(self):
        return self.values.shape[0]

    def integral(self):
        # exact trapezoid for periodic samples
        return float(self.values.sum()) / self.n**2

    def support_box(self):
        nz = np.nonzero(np.abs(self.values) > 0)
        if len(nz[0]) == 0:
            return (0.0, 0.0), (0.0, 0.0)
        x = np.arange(self.n) / self.n
        return (
            (float(x[nz[0].min()]), float(x[nz[0].max()])),
            (float(x[nz[1].min()]), float(x[nz[1].max()])),
        )


@dataclass
class OneForm2D:
    """A 1-form beta = p dx + q dy sampled on the periodic grid."""

    dx: GridFunction2D
    dy: GridFunction2D

    def _d_rows(self, rows):
        """d beta = (dq/dx - dp/dy) on the slice ``rows`` of the grid's
        first axis.

        The sixth-order finite-difference stencil is independent of the
        spectral machinery used to build primitives, so residual audits
        measure a genuine discrepancy rather than an algebraic identity.
        """
        q, p = self.dy.values, self.dx.values
        d = _fd6_partial(q, 0, rows)
        d -= _fd6_partial(p, 1, rows)
        return d


# ---------------------------------------------------------------------------
# the explicit compactly supported Poincare lemma
# ---------------------------------------------------------------------------


def poincare_primitive(eta: GridFunction2D) -> OneForm2D:
    """Primitive beta with d beta = eta, compactly supported in the square.

    For eta = g dx ^ dy with zero total integral, set

        a(x) = int_0^1 g(x, y) dy          b(x) = int_0^x a
        u    = -g + a(x) chi(y)            v(x, y) = int_0^y u(x, t) dt

    and beta = v dx + b chi dy, with chi the polynomial ``bump_profile``.
    All four pieces are linear in g and vanish near the boundary of the
    square, so beta does.

    Raises PreconditionError when the total integral exceeds 1e-8; the
    primitive cannot exist then.
    """
    total = eta.integral()
    if abs(total) > 1e-8:
        raise PreconditionError(
            f"eta has nonzero total integral {total:.3e}; no compactly "
            "supported primitive exists"
        )
    g = eta.values
    n = eta.n
    y = np.arange(n) / n
    chi_y = bump_profile(y)
    # renormalize on the grid so the discrete column means of u vanish
    # exactly; otherwise v inherits a rounding-level linear drift
    chi_y = chi_y / (chi_y.sum() / n)

    a = g.sum(axis=1) / n                      # (n,) column means = int g dy
    a = a - a.mean()                           # remove the 1e-8 slack exactly
    b = spectral_cumulative(a, axis=0)
    # v runs along the rows, each transformed alone: a few rows at a time
    v = np.empty(g.shape)
    for rows in tiles(n, 2 * n):
        u = -g[rows] + a[rows, None] * chi_y[None, :]
        v[rows] = spectral_cumulative(u, axis=1)

    # In exact arithmetic v and b vanish on the margin band (the inputs are
    # two cells inside); zero exactly those cells so the compact-support
    # flag holds bitwise.  Only aliasing dust (~1e-12 with the default
    # bump) is removed, and the same cells are cleared for every input, so
    # linearity of the construction survives exactly.
    m = _MARGIN
    v[:m, :] = v[-m:, :] = 0.0
    v[:, :m] = v[:, -m:] = 0.0
    b[:m] = b[-m:] = 0.0

    beta_dx = GridFunction2D(values=v, compact=True)
    beta_dy = GridFunction2D(values=b[:, None] * chi_y[None, :], compact=True)
    return OneForm2D(dx=beta_dx, dy=beta_dy)


def primitive_residual(eta: GridFunction2D, beta: OneForm2D) -> float:
    """sup norm of d beta - eta on the grid, a few rows at a time."""
    maxima = []
    for rows in tiles(eta.n, eta.n):
        d = beta._d_rows(rows)
        d -= eta.values[rows]
        maxima.append(np.max(np.abs(d, out=d)))
    return float(np.max(maxima))


def _poly_bump(t, a, b, power=6, order=0):
    """(4u(1-u))^power on [a, b], rescaled to [0, 1]; C^{power-1} at edges."""
    u = (np.asarray(t, dtype=float) - a) / (b - a)
    inside = (u > 0) & (u < 1)
    uc = np.clip(u, 0.0, 1.0)
    if order == 0:
        return np.where(inside, (4.0 * uc * (1.0 - uc)) ** power, 0.0)
    d = (4.0 * power * (4.0 * uc * (1.0 - uc)) ** (power - 1)
         * (1.0 - 2.0 * uc) / (b - a))
    return np.where(inside, d, 0.0)


def zero_integral_fixture(idx, n=256):
    """Three smooth, compactly supported, zero-integral 2-form densities.

    1. an exact x-derivative times a bump (zero integral structurally);
    2. the difference of two product bumps, balanced on the grid;
    3. a product bump weighted by a centered linear factor.
    """
    # the two axes broadcast to the (n, n) grid, values[i, j] = f(x_i, y_j)
    x = np.arange(n) / n
    xx, yy = x[:, None], x[None, :]
    if idx == 1:
        vals = _poly_bump(xx, 0.15, 0.85, order=1) * _poly_bump(yy, 0.2, 0.8)
    elif idx == 2:
        vals = _poly_bump(xx, 0.2, 0.8, 5) * _poly_bump(yy, 0.25, 0.75, 5)
        b = _poly_bump(xx, 0.1, 0.9, 5) * _poly_bump(yy, 0.1, 0.9, 5)
        b *= vals.sum() / b.sum()
        vals -= b
    elif idx == 3:
        vals = _poly_bump(xx, 0.12, 0.88) * _poly_bump(yy, 0.15, 0.85)
        center = (vals * xx).sum() / vals.sum()
        vals *= xx - center
    else:
        raise ConfigurationError(f"no fixture {idx}; choose 1, 2 or 3")
    return GridFunction2D(values=vals, compact=True)


# ---------------------------------------------------------------------------
# Moser flow between area forms
# ---------------------------------------------------------------------------


@dataclass
class MoserSettings:
    steps: int = 80

    def __post_init__(self):
        if not (isinstance(self.steps, numbers.Integral) and self.steps >= 1):
            raise ConfigurationError("steps must be an integer of at least 1")


# points per integration block of MoserMap
_BLOCK = 4096


def _fpbspl_basis(t, k, arg):
    """FITPACK's B-spline basis of degree ``k`` on knots ``t`` at ``arg``.

    Returns ``(offset, h)``: at point p the k + 1 nonzero basis values
    ``h[0][p] .. h[k][p]`` belong to the coefficients ``offset[p] ..
    offset[p] + k``.  This is the per-point work of ``fpbisp`` with
    ``fpbspl``, vectorised over points with the same clamp, interval and
    operation order, so the values are bitwise FITPACK's.  Arguments
    outside [t[k], t[n-k-1]] are clamped to it; NaN stays NaN and lands in
    the last interval, as in FITPACK's left-to-right knot scan.
    """
    n = len(t)
    tb, te = t[k], t[n - k - 1]
    arg = np.where(arg < tb, tb, arg)
    arg = np.where(arg > te, te, arg)
    l = np.clip(np.searchsorted(t, arg, "right") - 1, k, n - k - 2)
    # t[l + d] for d <= 0 and d >= 1 straddle arg, and t[l + 1] > t[l]:
    # interpolating knots never take fpbspl's zero-width branch
    knot = {d: t[l + d] for d in range(1 - k, k + 1)}
    right = {d: knot[d] - arg for d in range(1, k + 1)}
    left = {d: arg - knot[d] for d in range(1 - k, 1)}
    h = [np.ones_like(arg)]
    for j in range(1, k + 1):
        # fpbspl sets h(1) = 0, then for i = 1..j:
        #   h(i) = h(i) + f * (t(li) - x);  h(i+1) = f * (x - t(lj))
        nxt = []
        carry = 0.0
        for i in range(1, j + 1):
            f = h[i - 1] / (knot[i] - knot[i - j])
            nxt.append(carry + f * right[i])
            carry = f * left[i - j]
        nxt.append(carry)
        h = nxt
    return l - k, h


def _tensor_splines_ev(tx, ty, kx, ky, coefs, x, y):
    """Several bivariate splines on shared knots at the points (x[p], y[p]).

    ``coefs`` is (m, ncoef), one row of FITPACK coefficients per spline;
    the result is (m, npoints).  Each value is summed from 0.0 in
    ``fpbisp``'s order, ``sp += (c * wx[i1]) * wy[j1]`` with i1 outer, so it
    equals ``QuinticField.ev`` bit for bit, while the basis is built
    once for all m splines.  ``MoserMap`` calls it on blocks of at most
    ``_BLOCK`` points (``flows._flow_batch``), which keeps temporaries small.
    """
    nky1 = len(ty) - ky - 1
    lx, wx = _fpbspl_basis(tx, kx, x)
    ly, wy = _fpbspl_basis(ty, ky, y)
    base = lx * nky1 + ly
    out = np.zeros((len(coefs), base.size))
    for i1 in range(kx + 1):
        row = base + i1 * nky1
        for j1 in range(ky + 1):
            c = np.take(coefs, row + j1, axis=1)
            c *= wx[i1]
            c *= wy[j1]
            out += c
    return out


class MoserMap:
    """The time-1 Moser flow pulling omega_1 back to omega_0 on the square.

    ``__call__`` flows a batch through ``flows._flow_batch`` with blocks of
    ``_BLOCK`` points: every operation of the RK4 update, of ``_field`` and
    of ``_tensor_splines_ev`` acts on each point alone.  The README
    config's 128^2 nodes make two shares on two CPUs; grids of at most
    64^2 nodes, or ``taskset -c 0``, flow in-process.
    """

    def __init__(self, sigma: OneForm2D, g0, g1, settings: MoserSettings):
        self.settings = settings
        n = g0.n
        x = np.arange(n) / n
        self._g1 = QuinticField(x, x, g1.values)
        # one grid, so the four fits share their knots; the first three
        # fields are dropped as soon as their coefficients are read
        self._knots = self._g1.tck[:2]
        self._coefs = np.stack([QuinticField(x, x, v).tck[2] for v in (
            sigma.dx.values, sigma.dy.values, g0.values)] + [self._g1.tck[2]])
        self._hi = x[-1]
        self.n = n
        # sigma vanishes outside this box in exact arithmetic; the field is
        # clamped to zero there so boundary cells never move at all
        (ax0, ax1), (ay0, ay1) = sigma.dx.support_box()
        (bx0, bx1), (by0, by1) = sigma.dy.support_box()
        pad = 1.0 / n
        self._box = (min(ax0, bx0) - pad, max(ax1, bx1) + pad,
                     min(ay0, by0) - pad, max(ay1, by1) + pad)
        xx, yy = np.meshgrid(x, x, indexing="ij")
        nodes = np.stack([xx, yy], axis=-1).reshape(-1, 2)
        self.grid_images = self(nodes).reshape(n, n, 2)

    def _field(self, t, pts):
        # sigma + i_X omega_t = 0  =>  X = (-sigma_y, sigma_x) / g_t
        px = np.clip(pts[..., 0], 0.0, self._hi)
        py = np.clip(pts[..., 1], 0.0, self._hi)
        deg = QuinticField.degree
        sx, sy, g0, g1 = _tensor_splines_ev(
            *self._knots, deg, deg, self._coefs, px.ravel(), py.ravel()
        ).reshape((4,) + px.shape)
        gt = (1.0 - t) * g0 + t * g1
        x0, x1, y0, y1 = self._box
        inside = (px >= x0) & (px <= x1) & (py >= y0) & (py <= y1)
        return np.stack([np.where(inside, -sy / gt, 0.0),
                         np.where(inside, sx / gt, 0.0)], axis=-1)

    def __call__(self, pts):
        nsteps = self.settings.steps
        return _flow_batch(self._field, pts, 1.0 / nsteps, nsteps, _BLOCK,
                           None)[0]

    def displacement(self):
        n = self.n
        x = np.arange(n) / n
        xx, yy = np.meshgrid(x, x, indexing="ij")
        return self.grid_images - np.stack([xx, yy], axis=-1)

    def jacobian_grid(self):
        """D psi on the grid, via spectral derivatives of the displacement."""
        d = self.displacement()
        jac = np.empty((self.n, self.n, 2, 2))
        for comp in range(2):
            for axis in range(2):
                jac[..., comp, axis] = spectral_derivative(
                    d[..., comp], axis=axis, period=1.0)
        jac[..., 0, 0] += 1.0
        jac[..., 1, 1] += 1.0
        return jac


def moser_flow(omega0: GridFunction2D, omega1: GridFunction2D,
               settings: MoserSettings = None) -> MoserMap:
    """Diffeomorphism psi of the square with psi* omega_1 = omega_0.

    Both densities must be positive (the linear path between them then stays
    positive, which the vector field division needs), share their total
    integral within 1e-8, and agree near the boundary of the square.
    """
    settings = settings or MoserSettings()
    g0, g1 = omega0, omega1
    if g0.n != g1.n:
        raise ConfigurationError("density grids differ in size")
    # each guard is written so that a NaN fails it: NaN comparisons are false
    if not (np.min(g0.values) > 0 and np.min(g1.values) > 0):
        raise PreconditionError(
            "densities must be positive everywhere for the interpolation "
            "path to stay nondegenerate"
        )
    if not abs(g0.integral() - g1.integral()) <= 1e-8:
        raise PreconditionError("densities have different total integrals")
    edge = np.max(np.abs(edge_band(g0.values) - edge_band(g1.values)))
    # measured densities (e.g. refinement passes) carry quadrature noise
    if not edge <= 1e-9:
        raise PreconditionError("densities must agree near the boundary")

    eta = GridFunction2D(values=g1.values - g0.values, compact=True)
    sigma = poincare_primitive(eta)
    return MoserMap(sigma, g0, g1, settings)


def moser_pullback_residual(psi: MoserMap, omega0: GridFunction2D,
                            omega1: GridFunction2D) -> float:
    """sup |g1(psi(p)) det Dpsi(p) - g0(p)| over the grid."""
    jac = psi.jacobian_grid()
    det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
    img = psi.grid_images
    hi = (omega1.n - 1) / omega1.n
    g1_at = psi._g1.ev(0, 0, np.clip(img[..., 0], 0.0, hi),
                       np.clip(img[..., 1], 0.0, hi))
    return float(np.max(np.abs(g1_at * det - omega0.values)))


# ---------------------------------------------------------------------------
# canonical Hamiltonian of a compactly supported disc isotopy
# ---------------------------------------------------------------------------


class HamiltonianIsotopyPath:
    """Path s -> psi_s given as the flow of a known generator (fixtures).

    Provides the batch protocol ``evaluate_on_grid(s_values, points)`` used
    by ``canonical_hamiltonian``: one dense integration with snapshots, so
    recovering H from the path costs a single flow of the probe cloud.
    """

    def __init__(self, generator: Hamiltonian, steps_per_period=2000):
        self.generator = generator
        self.steps_per_period = steps_per_period

    def evaluate_on_grid(self, s_values, points):
        s_values = np.asarray(s_values, dtype=float)
        pts = np.asarray(points, dtype=float)
        out = np.empty((len(s_values),) + pts.shape)
        cur = pts.copy()
        s_prev = 0.0
        order = np.argsort(s_values)
        for idx in order:
            s = s_values[idx]
            if s > s_prev:
                n = max(2, int(np.ceil((s - s_prev) / TWO_PI * self.steps_per_period)))
                cur, _ = _rk4_steps(self.generator.velocity, cur, s_prev,
                                    (s - s_prev) / n, n)
                s_prev = s
            out[idx] = cur
        return out


def _stencil_derivative(f, ds):
    """Fourth-order d/ds of equally spaced snapshots along axis 0, one-sided
    at the ends."""
    out = np.empty_like(f)
    out[2:-2] = (f[:-4] - 8 * f[1:-3] + 8 * f[3:-1] - f[4:]) / (12 * ds)
    # one-sided 5-point, also fourth order
    c = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
    for i in (0, 1):
        out[i] = sum(cj * f[i + j] for j, cj in enumerate(c)) / ds
    for i in (-2, -1):
        out[i] = -sum(cj * f[i - j] for j, cj in enumerate(c)) / ds
    return out


def _lambda_pairing(points, vectors):
    """lambda = x dy - y dx evaluated on tangent vectors at points."""
    return points[..., 0] * vectors[..., 1] - points[..., 1] * vectors[..., 0]


def _probe_path(path, s_values, points, h):
    """Read an isotopy path at (n, 2) points and at their +-h probes.

    Returns the snapshots of the 5n probes (the points, then those moved by
    +h, -h along x and by +h, -h along y), the points' images and their
    central-difference Jacobians D psi_s, each with a leading s axis.
    """
    n = len(points)
    probes = np.concatenate([points, points + [h, 0.0], points - [h, 0.0],
                             points + [0.0, h], points - [0.0, h]])
    snaps = path.evaluate_on_grid(s_values, probes)
    jac = np.empty((len(snaps), n, 2, 2))
    jac[..., 0] = (snaps[:, n:2 * n] - snaps[:, 2 * n:3 * n]) / (2 * h)
    jac[..., 1] = (snaps[:, 3 * n:4 * n] - snaps[:, 4 * n:]) / (2 * h)
    return snaps, snaps[:, :n], jac


# Small enough that probe truncation (cubic in the step for the
# determinant) stays under the closedness gate, large enough that rounding
# (eps / step) does not surface in the recovered values.
_PROBE_STEP = 3e-6
# the closedness gate on max |det D psi_s - 1|
_AREA_TOL = 1e-5
# points per axis of the cartesian grid each oracle slice is splined on
_ORACLE_GRID = 160
# probe step of the Jacobians along g_function_values' integration lines
_LINE_PROBE_STEP = 1e-5
# angle nodes wrapped onto each end of a slice before splining in theta
_THETA_PAD = 6


@dataclass
class CanonicalRecoverySettings:
    # G is recovered by integrating along rays: spectrally when the path
    # moves an annulus (both radial ends quiet), composite Simpson
    # otherwise.  Either way n_r must resolve the radial derivatives of
    # psi_s* lambda - lambda; it is the knob to turn when the closedness
    # diagnostics look fine but the round-trip residual does not drop.
    n_r: int = 256
    n_theta: int = 32
    n_s: int = 192

    def __post_init__(self):
        # a quintic fit in r needs six nodes (n_r + 1) and the one-sided
        # s-stencil six snapshots (n_s + 1); the angle nodes are padded to
        # a spline's worth
        if self.n_r < 5 or self.n_theta < 2 or self.n_s < 5:
            raise ConfigurationError(
                "canonical recovery needs n_r >= 5, n_theta >= 2 and n_s >= 5")


class CanonicalHamiltonian(SlicedHamiltonian):
    """Hamiltonian recovered from a path of disc diffeomorphisms.

    Values are exact on the stored samples, which sit at the images of a
    polar grid (a smooth structured mesh).  The continuous oracle re-grids
    each time slice by splining the mesh map over its parameters,
    inverting it with a vectorized Newton iteration, and splining the
    resulting values on a regular cartesian grid; it vanishes identically
    outside the recorded support radius.  It is 2pi-periodic in s, so s is
    wrapped before the slices are blended.
    """

    def __init__(self, s_nodes, r_nodes, theta_nodes, images, velocities,
                 g_dot, support_radius):
        super().__init__(s_nodes)
        self.r_nodes = r_nodes
        self.theta_nodes = theta_nodes
        self.images = images          # (ns, nr, nt, 2)
        self.velocities = velocities  # (ns, nr, nt, 2)
        self.g_dot = g_dot            # (ns, nr, nt)
        self.support_radius = float(support_radius)

    # -- scattered samples (used by the round-trip diagnostics) ---------

    @property
    def image_points(self):
        return self.images.reshape(len(self.s_nodes), -1, 2)

    @property
    def values_at_images(self):
        lam = _lambda_pairing(self.images, self.velocities)
        vals = -lam + self.g_dot
        return vals.reshape(len(self.s_nodes), -1)

    # -- re-gridding one time slice --------------------------------------

    def _theta_padded(self, arr):
        # arr indexed (..., nr, nt); wrap the angle axis for splining
        pad = _THETA_PAD
        return np.concatenate([arr[..., -pad:], arr, arr[..., :pad]], axis=-1)

    def _slice_field(self, j):
        from scipy.spatial import cKDTree

        th = self.theta_nodes
        th_pad = np.concatenate([th[-_THETA_PAD:] - TWO_PI, th,
                                 th[:_THETA_PAD] + TWO_PI])
        r = self.r_nodes

        def psp(values):
            return QuinticField(r, th_pad, self._theta_padded(values))

        mx = psp(self.images[j, ..., 0])
        my = psp(self.images[j, ..., 1])
        vx = psp(self.velocities[j, ..., 0])
        vy = psp(self.velocities[j, ..., 1])
        gd = psp(self.g_dot[j])

        ax = np.linspace(-1.0, 1.0, _ORACLE_GRID)
        xx, yy = np.meshgrid(ax, ax, indexing="ij")
        rr = np.sqrt(xx**2 + yy**2)
        inside = rr <= 1.0
        qx, qy = xx[inside], yy[inside]

        # Newton inversion of the mesh map in its polar parameters, seeded
        # at the mesh node whose forward image is nearest: the seed is
        # within one cell of the preimage, so undamped Newton converges
        # quadratically
        tree = cKDTree(self.images[j].reshape(-1, 2))
        _, idx = tree.query(np.stack([qx, qy], axis=-1))
        rr_mesh, tt_mesh = np.meshgrid(r, th, indexing="ij")
        pr = rr_mesh.reshape(-1)[idx].copy()
        pt = tt_mesh.reshape(-1)[idx].copy()
        for _ in range(12):
            ex = mx.ev(0, 0, pr, pt) - qx
            ey = my.ev(0, 0, pr, pt) - qy
            if float(np.max(np.abs([ex, ey]))) < 1e-12:
                break
            j11 = mx.ev(1, 0, pr, pt)
            j12 = mx.ev(0, 1, pr, pt)
            j21 = my.ev(1, 0, pr, pt)
            j22 = my.ev(0, 1, pr, pt)
            det = j11 * j22 - j12 * j21
            ok = (np.abs(det) > 1e-9) & (pr > 1e-6)
            safe = np.where(ok, det, 1.0)
            dr = np.where(ok, (j22 * ex - j12 * ey) / safe, 0.0)
            dt = np.where(ok, (-j21 * ex + j11 * ey) / safe, 0.0)
            step = np.sqrt(dr**2 + (pr * dt)**2)
            damp = np.minimum(1.0, 0.5 / np.maximum(step, 1e-30))
            pr = np.clip(pr - damp * dr, 0.0, 1.0)
            pt = np.mod(pt - damp * dt, TWO_PI)

        x_v = vx.ev(0, 0, pr, pt)
        y_v = vy.ev(0, 0, pr, pt)
        h_in = -(qx * y_v - qy * x_v) + gd.ev(0, 0, pr, pt)
        vals = np.zeros_like(xx)
        vals[inside] = h_in
        vals[rr >= self.support_radius] = 0.0
        return QuinticField(ax, ax, vals)

    def value(self, s, xy):
        xy = np.asarray(xy, dtype=float)
        out = self._blend(float(s) % TWO_PI, 0, 0, xy, np.zeros(xy.shape[:-1]))
        r2 = xy[..., 0] ** 2 + xy[..., 1] ** 2
        return np.where(r2 >= self.support_radius**2, 0.0, out)

    def grad_components(self, s, xy):
        xy = np.asarray(xy, dtype=float)
        s = float(s) % TWO_PI
        gx = self._blend(s, 1, 0, xy, np.zeros(xy.shape[:-1]))
        gy = self._blend(s, 0, 1, xy, np.zeros(xy.shape[:-1]))
        r2 = xy[..., 0] ** 2 + xy[..., 1] ** 2
        inside = r2 < self.support_radius**2
        return np.where(inside, gx, 0.0), np.where(inside, gy, 0.0)


def canonical_hamiltonian(path, settings: CanonicalRecoverySettings = None
                          ) -> CanonicalHamiltonian:
    """Recover the generating Hamiltonian of a compactly supported isotopy.

    For the path psi_s (psi_0 = id, each psi_s area-preserving and the
    identity near the boundary), read through its ``evaluate_on_grid``,
    let X_s be the velocity field read off the path and G_s the unique
    compactly supported function with psi_s* lambda - lambda = dG_s.  Then

        H_s = -lambda(X_s) + (dG_s/ds) o psi_s^{-1}

    generates the path.  Everything is evaluated at image points
    q = psi_s(p), which avoids inverting the maps:
    H_s(psi_s(p)) = -lambda(X_s)|_{psi_s(p)} + dG_s/ds (p).

    G_s is integrated inward from the boundary, where the form vanishes;
    that fixes the compactly supported normalization.

    Raises PreconditionError when psi_s fails to be area-preserving within
    ``_AREA_TOL`` (the form psi_s* lambda - lambda is then not
    closed and no G_s exists), when psi_0 is not the identity, or when the
    path is not finite at the grid nodes and probes.
    """
    st = settings or CanonicalRecoverySettings()
    # polar evaluation grid: radial lines, r = 0 .. 1 inclusive
    r_nodes = np.linspace(0.0, 1.0, st.n_r + 1)
    theta = np.linspace(0.0, TWO_PI, st.n_theta, endpoint=False)
    rr, tt = np.meshgrid(r_nodes, theta, indexing="ij")
    base = np.stack([rr * np.cos(tt), rr * np.sin(tt)], axis=-1)  # (nr+1, nt, 2)
    flat = base.reshape(-1, 2)

    s_nodes = np.linspace(0.0, TWO_PI, st.n_s + 1)
    snaps, images, jac = _probe_path(path, s_nodes, flat, _PROBE_STEP)
    id_defect = float(np.max(np.abs(images[0] - flat)))
    if not id_defect <= 1e-8:
        raise PreconditionError(f"path does not start at the identity "
                                f"(defect {id_defect:.3e})")

    det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
    area_defect = float(np.max(np.abs(det - 1.0)))
    if not area_defect <= _AREA_TOL:
        raise PreconditionError(
            f"psi_s* lambda - lambda is not closed: area defect "
            f"{area_defect:.3e} exceeds {_AREA_TOL}"
        )
    # a NaN image of a grid node, not of a probe, passes the area check
    if not np.all(np.isfinite(snaps)):
        raise PreconditionError("path is not finite on the recovery grid")

    ds = s_nodes[1] - s_nodes[0]
    velocities = _stencil_derivative(images, ds)  # X_s at image points

    # gamma(e_r) at the grid nodes; lambda(e_r) = 0 along rays, so only the
    # pushed-forward term survives
    e_r = np.stack([np.cos(tt), np.sin(tt)], axis=-1).reshape(-1, 2)
    push = np.einsum("snij,nj->sni", jac, e_r)
    gamma_r = _lambda_pairing(images, push)
    gamma_r = gamma_r.reshape(len(s_nodes), st.n_r + 1, st.n_theta)

    # G(r) = integral from the boundary inward (vanishing normalization)
    g_vals = _radial_antiderivative(gamma_r, r_nodes)

    g_dot = _stencil_derivative(g_vals, ds)

    # a NaN image counts as moved
    moved = ~(np.sqrt(np.sum((images - flat[None]) ** 2, axis=-1)) <= 1e-10)
    radii = np.sqrt(flat[:, 0] ** 2 + flat[:, 1] ** 2)
    if np.any(moved):
        support_radius = float(np.min(
            [1.0, np.max(radii[np.any(moved, axis=0)]) + 2.0 / st.n_r]))
    else:
        support_radius = 0.5
    shape = (len(s_nodes), st.n_r + 1, st.n_theta)
    return CanonicalHamiltonian(
        s_nodes, r_nodes, theta,
        images.reshape(shape + (2,)),
        velocities.reshape(shape + (2,)),
        g_dot,
        support_radius,
    )


def _radial_antiderivative(gamma, r_nodes):
    """G with dG/dr = gamma along each ray and G(1) = 0.

    When gamma vanishes identically near both radial ends (annular
    support), its periodic extension is smooth and the antiderivative is
    computed spectrally; otherwise composite Simpson is used and the
    caller's n_r controls the fourth-order quadrature error.
    """
    n = len(r_nodes) - 1
    edge = max(2, n // 32)
    annular = (
        float(np.max(np.abs(gamma[:, :edge, :]))) < 1e-12
        and float(np.max(np.abs(gamma[:, -edge:, :]))) < 1e-12
    )
    if annular:
        body = gamma[:, :n, :]
        mean = body.mean(axis=1, keepdims=True)
        prim = spectral_cumulative(body - mean, axis=1)
        r = r_nodes[:n].reshape(1, n, 1)
        cum = mean * r + prim
        full = np.concatenate([cum, mean * 1.0 + prim[:, :1, :]], axis=1)
        return full - full[:, -1:, :]
    from scipy.integrate import cumulative_simpson

    g_cum = cumulative_simpson(gamma, x=r_nodes, axis=1, initial=0.0)
    return g_cum - g_cum[:, -1:, :]


def g_function_values(path, s, targets, route="radial", n_quad=129):
    """G_s at target points by line integration of psi_s* lambda - lambda.

    route 'radial' integrates along rays from the boundary circle; 'axis'
    walks parallel to the x-axis from the right or left boundary point at
    the same height.  Exactness of the form makes both agree.  ``path``
    is read through its ``evaluate_on_grid``.
    """
    from scipy.integrate import cumulative_simpson

    targets = np.asarray(targets, dtype=float)
    out = np.empty(len(targets))
    for i, q in enumerate(targets):
        if route == "radial":
            r0 = np.hypot(*q)
            if r0 < 1e-12:
                direction = np.array([1.0, 0.0])
            else:
                direction = q / r0
            # integrate on increasing radius and flip: G(q) = -int_{r0}^{1}
            ts = np.linspace(r0, 1.0, n_quad)
            line = ts[:, None] * direction[None, :]
            tangent = direction
            sign = -1.0
        elif route == "axis":
            xb = np.sqrt(np.maximum(0.0, 1.0 - q[1] ** 2)) * (1 if q[0] >= 0 else -1)
            lo, hi = sorted((xb, float(q[0])))
            ts = np.linspace(lo, hi, n_quad)
            line = np.stack([ts, np.full(n_quad, q[1])], axis=-1)
            tangent = np.array([1.0, 0.0])
            sign = 1.0 if q[0] >= xb else -1.0
        else:
            raise ConfigurationError(f"unknown route {route!r}")
        _, img, jac = _probe_path(path, [s], line, _LINE_PROBE_STEP)
        push = np.einsum("nij,j->ni", jac[0], tangent)
        vals = (_lambda_pairing(img[0], push)
                - _lambda_pairing(line, np.broadcast_to(tangent, (n_quad, 2))))
        integral = cumulative_simpson(vals, x=ts, initial=0.0)
        out[i] = sign * integral[-1]
    return out
