"""The all-pairs and lattice audits run in tiles, bit for bit as in one shot.

``gauss_linking_integral`` and ``min_curve_distance`` walk the sample pairs
in row tiles, one (rows, n2) array per component, and ``pullback_residual``
its (s, r, theta) lattice in tiles of s-slices, each of about
``geometry.TILE_ELEMENTS`` floats.  The one-shot formulas below build every
pair or lattice point at once, with numpy's reductions over the component
axis; they are the reference, and each tiled result must equal theirs to
the last bit, as the farthest-pole choice must equal its np.linalg.norm
form.  The tracemalloc bounds keep the n^2 and lattice-sized temporaries from coming
back: in one shot the README self-linking config traces 22 MiB and the
32^3 pullback 8.5 MiB.
"""

import tracemalloc

import numpy as np
import pytest

from reebcut import (
    QuadraticHamiltonian,
    QuotientMapSpec,
    gauss_linking_integral,
    pullback_residual,
    quotient_map,
    self_linking,
)
from reebcut.binding import _PULLBACK_R_RANGE, _PULLBACK_STEP_FRACTION, _eval_h
from reebcut.geometry import TWO_PI, spectral_derivative, tiles
from reebcut.invariants import (_candidate_poles, _project_from_farthest_pole,
                                binding_pushoff_curves, min_curve_distance,
                                stereographic_project)

from conftest import SQRT2, compact_disc_hamiltonian


def _gauss_one_shot(c1, c2):
    t1 = spectral_derivative(c1, axis=0) * (TWO_PI / len(c1))
    t2 = spectral_derivative(c2, axis=0) * (TWO_PI / len(c2))
    diff = c1[:, None, :] - c2[None, :, :]
    dist3 = np.sum(diff**2, axis=-1) ** 1.5
    cross = np.cross(t1[:, None, :], t2[None, :, :])
    integrand = np.sum(cross * diff, axis=-1) / dist3
    return float(integrand.sum() / (4.0 * np.pi))


def _distance_one_shot(c1, c2):
    diff = c1[:, None, :] - c2[None, :, :]
    return float(np.sqrt(np.sum(diff**2, axis=-1)).min())


def _farthest_pole_by_norm(curve_b, curve_push):
    # the pole choice with np.linalg.norm over the (poles, n, 4) differences
    sb, sp = (c / np.linalg.norm(c, axis=-1, keepdims=True)
              for c in (curve_b, curve_push))
    poles = _candidate_poles()
    dists = np.minimum(
        np.linalg.norm(sb[None] - poles[:, None], axis=-1).min(axis=1),
        np.linalg.norm(sp[None] - poles[:, None], axis=-1).min(axis=1),
    )
    pole = poles[int(np.argmax(dists))]
    return stereographic_project(sb, pole), stereographic_project(sp, pole), pole


def _pullback_one_shot(spec, H, n_s, n_r, n_theta):
    r_lo, r_hi = _PULLBACK_R_RANGE
    s_vals = np.linspace(0.0, TWO_PI, n_s, endpoint=False)
    r_vals = np.linspace(r_lo, r_hi, n_r)
    t_vals = np.linspace(0.0, TWO_PI, n_theta, endpoint=False)
    ss, rr, tt = np.meshgrid(s_vals, r_vals, t_vals, indexing="ij")
    steps = (
        (s_vals[1] - s_vals[0]) / _PULLBACK_STEP_FRACTION,
        min((r_vals[1] - r_vals[0]) / _PULLBACK_STEP_FRACTION,
            r_lo / 2.2, (1.0 - r_hi) / 2.2),
        (t_vals[1] - t_vals[0]) / _PULLBACK_STEP_FRACTION,
    )

    def liouville_pair(coords, d_coords):
        x1, y1, x2, y2 = np.moveaxis(coords, -1, 0)
        dx1, dy1, dx2, dy2 = np.moveaxis(d_coords, -1, 0)
        return x1 * dy1 - y1 * dx1 + x2 * dy2 - y2 * dx2

    base = quotient_map(spec, ss, rr, tt)
    xy = np.stack([rr * np.cos(tt), rr * np.sin(tt)], axis=-1)
    expected = [_eval_h(H, ss, xy), np.zeros_like(rr), rr**2]
    coords = [ss, rr, tt]
    defects = []
    for axis in range(3):
        h = steps[axis]

        def shift(mult):
            a = [c.copy() for c in coords]
            a[axis] = a[axis] + mult * h
            if axis == 1:
                a[axis] = np.clip(a[axis], 0.0, 1.0)
            return quotient_map(spec, *a)

        d = (shift(-2.0) - 8.0 * shift(-1.0) + 8.0 * shift(1.0) - shift(2.0)) / (12 * h)
        coeff = liouville_pair(base, d)
        defects.append(np.max(np.abs(coeff - expected[axis])))
    return float(np.max(defects))


def _linked_curves(n1, n2, rng):
    """A wobbly unit circle in the xy-plane and one through its disc in the
    xz-plane: linked once, no symmetry for the sums to hide behind."""
    t = np.linspace(0.0, TWO_PI, n1, endpoint=False)
    u = np.linspace(0.0, TWO_PI, n2, endpoint=False)
    a, b = rng.uniform(0.05, 0.1, 2)
    c1 = np.stack([np.cos(t) * (1 + a * np.sin(3 * t)), np.sin(t),
                   b * np.cos(2 * t)], axis=-1)
    c2 = np.stack([1.0 + np.cos(u), a * np.sin(5 * u), np.sin(u)], axis=-1)
    return c1, c2


def _hex(x):
    return float(x).hex()


def _ellipsoid():
    return (QuotientMapSpec("ellipsoid", h=2, a0=SQRT2),
            QuadraticHamiltonian(SQRT2, 2 - SQRT2))


@pytest.mark.parametrize("n1", [16, 33, 511, 512, 1000])
@pytest.mark.parametrize("shape", ["square", "unequal"])
def test_pair_kernels_equal_the_one_shot_sums(n1, shape, rng):
    n2 = n1 if shape == "square" else n1 // 2 + 7
    c1, c2 = _linked_curves(n1, n2, rng)
    got = gauss_linking_integral(c1, c2)
    assert _hex(got) == _hex(_gauss_one_shot(c1, c2))
    assert abs(got + 1.0) <= 0.05 or abs(got - 1.0) <= 0.05
    assert _hex(min_curve_distance(c1, c2)) == _hex(_distance_one_shot(c1, c2))
    assert _hex(min_curve_distance(c2, c1)) == _hex(_distance_one_shot(c2, c1))


def test_the_larger_pair_cases_span_several_tiles():
    # so the cases above compare more than one tile with the one-shot sum
    assert len(tiles(511, 3 * 512)) > 1 and len(tiles(1000, 3 * 507)) > 1
    assert len(tiles(33, 4 * 32 * 32)) > 1 and len(tiles(64, 4 * 64 * 64)) > 1


@pytest.mark.parametrize("grid", [(4, 4, 4), (7, 9, 5), (33, 8, 8),
                                  (33, 32, 32), (64, 64, 64)])
def test_pullback_residual_equals_the_one_shot_lattice(grid):
    spec, H = _ellipsoid()
    assert _hex(pullback_residual(spec, H, *grid)) == _hex(
        _pullback_one_shot(spec, H, *grid))


@pytest.mark.parametrize("n_samples", [16, 100, 512, 1000])
def test_farthest_pole_equals_the_norm_form(n_samples):
    # the README ellipsoid's binding and push-off: the pole and both
    # projected curves, bit for bit
    spec, H = _ellipsoid()
    curves = binding_pushoff_curves(spec, H, 0.02, n_samples)
    got = _project_from_farthest_pole(*curves)
    want = _farthest_pole_by_norm(*curves)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


def test_pullback_residual_of_a_time_dependent_h_equals_the_one_shot():
    # _eval_h evaluates H slice by slice, in each tile's own s values
    spec, _ = _ellipsoid()
    H = compact_disc_hamiltonian(amp=0.05, time_factor=np.cos)
    got = pullback_residual(spec, H, 33, 32, 32)
    assert np.isfinite(got) and got > 1e-3
    assert _hex(got) == _hex(_pullback_one_shot(spec, H, 33, 32, 32))


@pytest.mark.parametrize("curve,index", [(0, 3), (1, 700)])
def test_a_nan_sample_makes_the_pair_kernels_nan(curve, index, rng):
    curves = list(_linked_curves(1000, 1000, rng))
    curves[curve][index] = np.nan
    assert np.isnan(gauss_linking_integral(*curves))
    assert np.isnan(min_curve_distance(*curves))


def _traced_peak_mib(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_self_linking_scratch_is_bounded():
    # the README self-linking config: about 2.6 MiB traced in tiles
    spec, H = _ellipsoid()
    peak = _traced_peak_mib(lambda: self_linking(spec, H, push_eps=0.02,
                                                 n_samples=512))
    assert peak <= 8.0


def test_pullback_residual_scratch_is_bounded():
    # the default 32^3 lattice: about 1.1 MiB traced in tiles
    spec, H = _ellipsoid()
    assert _traced_peak_mib(lambda: pullback_residual(spec, H, 32, 32, 32)) <= 3.0
