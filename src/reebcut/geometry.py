"""Points of the closed unit disc and the solid torus S^1 x D^2.

All heavy numerics work on plain ndarrays of shape (..., 2); the point
classes are thin immutable views used at API boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError

TWO_PI = 2.0 * np.pi

#: slack allowed on the disc constraint r <= 1
DISC_TOL = 1e-12


def wrap_angle(a):
    """Normalize an angle (scalar or array) to [0, 2*pi)."""
    return np.mod(a, TWO_PI)


@dataclass(frozen=True)
class DiscPoint:
    """A point of the closed unit disc, stored in cartesian coordinates."""

    x: float
    y: float

    def __post_init__(self):
        if self.r > 1.0 + DISC_TOL:
            raise PreconditionError(
                f"point ({self.x}, {self.y}) lies outside the closed unit disc "
                f"(r = {self.r})"
            )

    @property
    def r(self) -> float:
        return float(np.hypot(self.x, self.y))

    @property
    def theta(self) -> float:
        return float(wrap_angle(np.arctan2(self.y, self.x)))

    @classmethod
    def from_polar(cls, r, theta) -> "DiscPoint":
        return cls(float(r * np.cos(theta)), float(r * np.sin(theta)))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)


@dataclass(frozen=True)
class SolidTorusPoint:
    """A point (s, p) of the solid torus, s normalized to [0, 2*pi)."""

    s: float
    p: DiscPoint

    def __post_init__(self):
        object.__setattr__(self, "s", float(wrap_angle(self.s)))

    def as_array(self) -> np.ndarray:
        return np.array([self.s, self.p.x, self.p.y], dtype=float)


def spectral_derivative(values, axis=-1, order=1):
    """d^order/dt^order of samples taken uniformly on t in [0, 2*pi).

    Differentiates along ``axis`` by multiplying the FFT with (i k)^order.
    """
    values = np.asarray(values)
    n = values.shape[axis]
    shape = [1] * values.ndim
    shape[axis] = n
    k = (1.0j * np.fft.fftfreq(n, d=1.0 / n)) ** order
    hat = np.fft.fft(values, axis=axis) * k.reshape(shape)
    return np.real(np.fft.ifft(hat, axis=axis))


def as_xy(points) -> np.ndarray:
    """Coerce DiscPoint / pair / array-like into an ndarray of shape (..., 2)."""
    if isinstance(points, DiscPoint):
        return points.as_array()
    arr = np.asarray(points, dtype=float)
    if arr.shape[-1] != 2:
        raise PreconditionError(f"expected (..., 2) coordinates, got shape {arr.shape}")
    return arr


def radius(xy) -> np.ndarray:
    xy = np.asarray(xy, dtype=float)
    return np.sqrt(xy[..., 0] ** 2 + xy[..., 1] ** 2)


def polar_grid(n_r, n_theta, r_max=1.0, include_center=True):
    """Cartesian sample points on a polar grid, uniform in r^2 and theta.

    r^2 is the natural radial variable for the primitive r^2 dtheta, so
    audits sample uniformly in it.  Returns an (N, 2) array; the center
    appears once when requested.
    """
    r2 = np.linspace(r_max**2 / n_r, r_max**2, n_r)
    theta = np.linspace(0.0, TWO_PI, n_theta, endpoint=False)
    r = np.sqrt(r2)
    rr, tt = np.meshgrid(r, theta, indexing="ij")
    pts = np.stack([rr * np.cos(tt), rr * np.sin(tt)], axis=-1).reshape(-1, 2)
    if include_center:
        pts = np.concatenate([np.zeros((1, 2)), pts], axis=0)
    return pts
