import os
import zlib

import numpy as np
import pytest

from reebcut import (
    CallableHamiltonian,
    ComposedHamiltonian,
    ConjugatorSpec,
    FlowSettings,
    HamiltonianIsotopyPath,
    QuadraticHamiltonian,
    RigidRotationHamiltonian,
    canonical_hamiltonian,
    conjugated_stage,
)
from reebcut.geometry import TWO_PI

SQRT2 = np.sqrt(2.0)


def _bump_core(t, t0, t1):
    u = (np.asarray(t, dtype=float) - t0) / (t1 - t0)
    inside = (u > 1e-9) & (u < 1 - 1e-9)
    uc = np.where(inside, u, 0.5)
    return inside, uc, np.exp(-1.0 / (uc * (1.0 - uc)) + 4.0)


def smooth_bump_t(t, t0, t1):
    """C-infinity bump in t on [t0, t1], peak value 1."""
    inside, _, core = _bump_core(t, t0, t1)
    return np.where(inside, core, 0.0)


def smooth_bump_t_jet(t, t0, t1, order=1):
    """The bump and its first ``order`` (1 or 2) t-derivatives, from one
    shared exp core."""
    inside, uc, core = _bump_core(t, t0, t1)
    # core = exp(g(u) + 4) with g = -1/p, p = u (1 - u), u = (t - t0) / L
    p, dp = uc * (1.0 - uc), 1.0 - 2.0 * uc
    dcore = core * dp / p ** 2 / (t1 - t0)
    jet = (np.where(inside, core, 0.0), np.where(inside, dcore, 0.0))
    if order == 1:
        return jet
    # g' = dp / p^2 and g'' = -2 (p + dp^2) / p^3, so core'' = core (g'^2 + g'')
    dg = dp / p ** 2
    ddcore = core * (dg * dg - 2.0 * (p + dp * dp) / p ** 3) / (t1 - t0) ** 2
    return jet + (np.where(inside, ddcore, 0.0),)


def compact_disc_hamiltonian(amp=0.02, t0=0.04, t1=0.7744, angular=0.4,
                             time_factor=None):
    """Compactly supported generator amp * w(r^2) (1 + angular x) [* f(s)]."""

    def value(s, xy):
        t = xy[..., 0] ** 2 + xy[..., 1] ** 2
        base = amp * smooth_bump_t(t, t0, t1) * (1.0 + angular * xy[..., 0])
        return base * (time_factor(s) if time_factor else 1.0)

    def grad(s, xy):
        x, y = xy[..., 0], xy[..., 1]
        t = x * x + y * y
        w, wp = smooth_bump_t_jet(t, t0, t1)
        gx = amp * (wp * 2 * x * (1 + angular * x) + w * angular)
        gy = amp * (wp * 2 * y * (1 + angular * x))
        g = np.stack([gx, gy], axis=-1)
        if time_factor:
            g = g * time_factor(s)
        return g

    def hess(s, xy):
        x, y = xy[..., 0], xy[..., 1]
        t = x * x + y * y
        _, wp, wpp = smooth_bump_t_jet(t, t0, t1, order=2)
        a = 1 + angular * x
        out = np.empty(xy.shape[:-1] + (2, 2))
        out[..., 0, 0] = amp * (2 * wp * a + 4 * x * x * wpp * a
                                + 4 * angular * x * wp)
        out[..., 0, 1] = amp * (4 * x * y * wpp * a + 2 * angular * y * wp)
        out[..., 1, 0] = out[..., 0, 1]
        out[..., 1, 1] = amp * (2 * wp * a + 4 * y * y * wpp * a)
        if time_factor:
            out = out * time_factor(s)
        return out

    return CallableHamiltonian(
        value, 0.0, grad_fn=grad, hessian_fn=hess,
        time_dependent=time_factor is not None,
    )


def radial_collar_hamiltonian(h=3, amp=0.7):
    """Radial, autonomous H = h + amp (1 - r^2)^2: satisfies every collar
    assumption without being quadratic."""

    def value(s, xy):
        r2 = xy[..., 0] ** 2 + xy[..., 1] ** 2
        return h + amp * (1.0 - r2) ** 2

    def grad(s, xy):
        r2 = xy[..., 0] ** 2 + xy[..., 1] ** 2
        factor = -4.0 * amp * (1.0 - r2)
        return factor[..., None] * xy

    def hess(s, xy):
        x, y = xy[..., 0], xy[..., 1]
        r2 = x * x + y * y
        out = np.empty(xy.shape[:-1] + (2, 2))
        out[..., 0, 0] = -4 * amp * (1 - r2) + 8 * amp * x * x
        out[..., 1, 1] = -4 * amp * (1 - r2) + 8 * amp * y * y
        out[..., 0, 1] = 8 * amp * x * y
        out[..., 1, 0] = out[..., 0, 1]
        return out

    return CallableHamiltonian(
        value, h, grad_fn=grad, hessian_fn=hess, time_dependent=False,
    )


def polynomial_defect_hamiltonian(h, c, d):
    """H = h + (1 - r^2)(c + d x): like the cosine-defect family but a
    polynomial, hence smooth through the origin (flow-accuracy fixtures
    need that; the cosine version is only Lipschitz at r = 0)."""

    def value(s, xy):
        x, y = xy[..., 0], xy[..., 1]
        return h + (1.0 - x * x - y * y) * (c + d * x)

    def grad(s, xy):
        x, y = xy[..., 0], xy[..., 1]
        r2 = x * x + y * y
        gx = -2 * x * (c + d * x) + (1.0 - r2) * d
        gy = -2 * y * (c + d * x)
        return np.stack([gx, gy], axis=-1)

    def hess(s, xy):
        x, y = xy[..., 0], xy[..., 1]
        out = np.empty(xy.shape[:-1] + (2, 2))
        out[..., 0, 0] = -2 * c - 6 * d * x
        out[..., 0, 1] = -2 * y * d
        out[..., 1, 0] = out[..., 0, 1]
        out[..., 1, 1] = -2 * (c + d * x)
        return out

    return CallableHamiltonian(
        value, h, grad_fn=grad, hessian_fn=hess, time_dependent=False,
    )


@pytest.fixture
def rng(request):
    """A generator seeded from the test's node id alone, so the points a
    test draws do not depend on which tests ran before it (``zlib.crc32``,
    not ``hash``, which is salted per process)."""
    nodeid = zlib.crc32(request.node.nodeid.encode())
    return np.random.default_rng([20260808, nodeid])


@pytest.fixture(scope="session")
def quadratic_sqrt2():
    return QuadraticHamiltonian(SQRT2, 2.0 - SQRT2)


@pytest.fixture(scope="session")
def rigid_2_1_3():
    return RigidRotationHamiltonian(2, 1, 3)


@pytest.fixture(scope="session")
def stage_2_1_3():
    """A conjugated rotation stage shared by the heavier tests."""
    spec = ConjugatorSpec(amplitude=0.12, delta=0.2, mode=2, r_inner=0.2)
    return conjugated_stage(2, 1, 3, spec, w_grid=704)


@pytest.fixture(scope="session")
def composed_k_2_1_2():
    """K + H2 o Psi_K^{-1} for K = compact_disc_hamiltonian(amp=0.05) and
    H2 = RigidRotationHamiltonian(2, 1, 2) at the default slices and grid,
    shared by the composition-law tests (its build takes most of their
    time); ``.K`` and ``.H2`` are the two parts."""
    return ComposedHamiltonian(compact_disc_hamiltonian(amp=0.05),
                               RigidRotationHamiltonian(2, 1, 2))


def _canonical_recovery(K):
    path = HamiltonianIsotopyPath(K, steps_per_period=1000)
    return K, path, canonical_hamiltonian(path)


@pytest.fixture(scope="session")
def autonomous_recovery():
    """(K, path, H): the canonical Hamiltonian H recovered from the
    isotopy path of K = compact_disc_hamiltonian(amp=0.02)."""
    return _canonical_recovery(compact_disc_hamiltonian(amp=0.02))


@pytest.fixture(scope="session")
def time_dependent_recovery():
    """(K, path, H) as ``autonomous_recovery``, for an s-dependent K."""
    return _canonical_recovery(compact_disc_hamiltonian(
        amp=0.015, angular=0.0, time_factor=np.sin))


@pytest.fixture(scope="session")
def fast_flow():
    return FlowSettings(step=TWO_PI / 600)


def random_disc_points(rng, n, r_max=0.9, r_min=0.02):
    r = np.sqrt(rng.uniform(r_min**2, r_max**2, n))
    t = rng.uniform(0.0, TWO_PI, n)
    return np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)


# the second Hopf fiber's phase
_HOPF_PHASE = 0.3


def hopf_circles(n=256):
    """Two fibers of the positive Hopf fibration, as R^4 samples."""
    t = np.linspace(0.0, TWO_PI, n, endpoint=False)
    c1 = np.stack([np.cos(t), np.sin(t), np.zeros(n), np.zeros(n)], axis=-1)
    c2 = np.stack([np.zeros(n), np.zeros(n), np.cos(t + _HOPF_PHASE),
                   np.sin(t + _HOPF_PHASE)], axis=-1)
    return c1, c2


def split_circles(n=256):
    """Two far-apart round circles in R^3 (unlinked fixture)."""
    t = np.linspace(0.0, TWO_PI, n, endpoint=False)
    c1 = np.stack([np.cos(t), np.sin(t), np.zeros(n)], axis=-1)
    c2 = np.stack([np.cos(t) + 5.0, np.sin(t), np.full(n, 0.7)], axis=-1)
    return c1, c2


def hopf_circles_r3(n=256):
    """A geometric Hopf link in R^3: unit circle plus a circle through it."""
    t = np.linspace(0.0, TWO_PI, n, endpoint=False)
    c1 = np.stack([np.cos(t), np.sin(t), np.zeros(n)], axis=-1)
    c2 = np.stack([1.0 + np.cos(t), np.zeros(n), np.sin(t)], axis=-1)
    return c1, c2


def count_forks(monkeypatch):
    """Count the os.fork calls of this process; the children run on."""
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
