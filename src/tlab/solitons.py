"""Reference translators: grim cylinders, tilted CMC cylinders, bowl profile.

The grim-cylinder family over strips and the tilted constant-mean-curvature
cylinders are closed forms; the rotationally symmetric entire translator is
integrated as a radial ODE profile. All of them can be sampled onto grids,
and the grim family also exposes exact derivative fields so checks can run
against analytic rather than differenced data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .geometry import Partials, quasilinear_residual
from .grids import GridFunction, Rectangle

# evaluation is refused within this distance of the strip edge, where
# log sec diverges
EDGE_MARGIN = 1e-9


@dataclass(frozen=True)
class GrimParams:
    """Scale and tilt of one member of the grim-cylinder family.

    lam >= 1 is the scale; tilt_sign +1 or -1 picks the tilt direction.
    half_width is the strip half-width lam*pi/2 and tilt_slope the slope
    sqrt(lam^2 - 1) of the tilted ruling (0 when lam = 1).
    """

    lam: float
    tilt_sign: int = 1

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam >= 1.0):
            raise ValueError("grim scale lambda must be >= 1")
        if self.tilt_sign not in (1, -1):
            raise ValueError("tilt_sign must be +1 or -1")

    @property
    def half_width(self) -> float:
        return self.lam * math.pi / 2.0

    @property
    def tilt_slope(self) -> float:
        return math.sqrt(self.lam * self.lam - 1.0)


@dataclass(frozen=True)
class CylinderParams:
    """Tilted cylinder graph of constant mean curvature 1/radius."""

    radius: float
    tilt: float = 0.0
    offset: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError("cylinder radius must be positive")


def _first_bad_index(bad: np.ndarray):
    if bad.ndim == 0:
        return None
    return tuple(int(k) for k in np.unravel_index(int(np.argmax(bad)), bad.shape))


def _require_strip(x1, half_width: float):
    x1a = np.asarray(x1, dtype=float)
    bad = np.abs(x1a) > half_width - EDGE_MARGIN
    if np.any(bad):
        idx = _first_bad_index(bad)
        val = float(x1a[idx]) if idx is not None else float(x1a)
        where = f" at node index {idx}" if idx else ""
        raise DomainError(
            f"x1 = {val!r} is outside the open strip |x1| < {half_width!r}{where}")
    return x1a


def grim_reaper_value(x1):
    """Height log sec(x1) of the grim reaper curve, |x1| < pi/2."""
    x1a = _require_strip(x1, math.pi / 2.0)
    return -np.log(np.cos(x1a))


def grim_cylinder_value(p: GrimParams, x1, x2):
    """Height lam^2 log sec(x1/lam) + tilt * sqrt(lam^2-1) * x2."""
    x1a = _require_strip(x1, p.half_width)
    x2a = np.asarray(x2, dtype=float)
    return (p.lam * p.lam) * (-np.log(np.cos(x1a / p.lam))) \
        + p.tilt_sign * p.tilt_slope * x2a


def grim_cylinder_gradient(p: GrimParams, x1, x2):
    """Gradient (lam tan(x1/lam), tilt * sqrt(lam^2-1))."""
    x1a = _require_strip(x1, p.half_width)
    x2a = np.asarray(x2, dtype=float)
    g1 = p.lam * np.tan(x1a / p.lam)
    g2 = np.broadcast_to(np.asarray(p.tilt_sign * p.tilt_slope), x2a.shape).copy() \
        if x2a.ndim else p.tilt_sign * p.tilt_slope
    return g1, g2


def grim_cylinder_hessian(p: GrimParams, x1):
    """Hessian entries (u11, u12, u22) = (1 + tan^2(x1/lam), 0, 0).

    sec^2 is evaluated as 1 + tan^2 so that the translator residual of the
    family cancels to rounding even where the strip edge amplifies sec.
    """
    x1a = _require_strip(x1, p.half_width)
    t = np.tan(x1a / p.lam)
    u11 = 1.0 + t * t
    zero = np.zeros_like(u11)
    return u11, zero, zero


def grim_cylinder_residual(p: GrimParams, x1, x2):
    """Translator residual of the grim cylinder from its analytic fields."""
    g1, g2 = grim_cylinder_gradient(p, x1, x2)
    u11, u12, u22 = grim_cylinder_hessian(p, x1)
    g2a = np.broadcast_to(np.asarray(g2, dtype=float), np.shape(u11))
    return quasilinear_residual(g1, g2a, u11, u12, u22)


def grim_partials(p: GrimParams, u: GridFunction) -> Partials:
    """Exact derivative fields of the grim cylinder on u's mesh.

    The boundary ring is NaN to match the finite-difference convention.
    """
    X1, X2 = u.mesh()
    g1, g2 = grim_cylinder_gradient(p, X1, X2)
    u11, u12, u22 = grim_cylinder_hessian(p, X1)
    g2 = np.broadcast_to(np.asarray(g2, dtype=float), X1.shape).copy()
    fields = [np.array(f, dtype=float) for f in (g1, g2, u11, u12, u22)]
    for f in fields:
        f[0, :] = f[-1, :] = np.nan
        f[:, 0] = f[:, -1] = np.nan
    return Partials(*fields)


def tilted_cylinder_value(c: CylinderParams, x1, x2):
    """Height -sqrt(1+t^2) sqrt(R^2 - x1^2) + t (x2 - offset), |x1| <= R."""
    x1a = np.asarray(x1, dtype=float)
    bad = np.abs(x1a) > c.radius
    if np.any(bad):
        idx = _first_bad_index(bad)
        val = float(x1a[idx]) if idx is not None else float(x1a)
        where = f" at node index {idx}" if idx else ""
        raise DomainError(f"x1 = {val!r} is outside |x1| <= {c.radius!r}{where}")
    x2a = np.asarray(x2, dtype=float)
    root = np.sqrt(np.maximum(c.radius * c.radius - x1a * x1a, 0.0))
    return -math.sqrt(1.0 + c.tilt * c.tilt) * root + c.tilt * (x2a - c.offset)


@dataclass
class BowlProfile:
    """Radial samples (r, f, f') of the rotationally symmetric translator.

    f(0) = 0, f'(0) = 0; f' is strictly increasing (the profile is strictly
    convex) and f(r) - (r^2/2 - log r) tends to a constant.
    """

    r: np.ndarray
    f: np.ndarray
    fp: np.ndarray

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.f = np.asarray(self.f, dtype=float)
        self.fp = np.asarray(self.fp, dtype=float)
        if not (self.r.shape == self.f.shape == self.fp.shape) or self.r.ndim != 1:
            raise ValueError("profile arrays must be 1-D and congruent")
        if self.r[0] != 0.0 or np.any(np.diff(self.r) <= 0.0):
            raise ValueError("r must increase strictly from 0")

    @property
    def r_max(self) -> float:
        return float(self.r[-1])

    @property
    def step(self) -> float:
        return float(self.r[1] - self.r[0])

    @cached_property
    def interpolant(self):
        # monotone cubic keeps the sampled convexity; scipy.interpolate is
        # imported here so that commands that never sample the bowl skip it
        from scipy.interpolate import PchipInterpolator
        return PchipInterpolator(self.r, self.f)

    def second_derivative_at_origin(self) -> float:
        """f''(0) estimated from the first interior slope sample."""
        return float(self.fp[1] / self.r[1])

    def ode_residual(self) -> np.ndarray:
        """Radial residual f''/(1+f'^2) + f'/r - 1 at interior nodes.

        f'' is the centered difference of the stored slopes, so the residual
        is O(step^2) for a correctly integrated profile.
        """
        h = self.step
        fpp = (self.fp[2:] - self.fp[:-2]) / (2.0 * h)
        rr = self.r[1:-1]
        fpm = self.fp[1:-1]
        return fpp / (1.0 + fpm * fpm) + fpm / rr - 1.0


def _bowl_slope_rate(r: float, fp: float) -> float:
    return (1.0 + fp * fp) * (1.0 - fp / r)


def bowl_profile_solve(r_max: float, step: float) -> BowlProfile:
    """Integrate the radial translator ODE with a classical 4th-order step.

    The axis singularity of f'/r is removed by starting one step out with
    the series f = r^2/4, f' = r/2. The requested step is rounded so the
    grid divides [0, r_max] exactly.
    """
    if not (np.isfinite(r_max) and r_max > 0.0):
        raise ValueError("r_max must be positive")
    if not (np.isfinite(step) and step > 0.0):
        raise ValueError("step must be positive")
    n = int(round(r_max / step))
    if n < 4:
        raise ValueError("step too coarse for r_max")
    h = float(r_max) / n
    r = np.linspace(0.0, r_max, n + 1)
    # the steps run on Python floats: numpy scalars round the same but
    # cost several times more per operation
    y = 0.25 * h * h
    yp = 0.5 * h
    f = [0.0, y]
    fp = [0.0, yp]
    for rk in r.tolist()[1:n]:
        k1 = _bowl_slope_rate(rk, yp)
        s2 = yp + 0.5 * h * k1
        k2 = _bowl_slope_rate(rk + 0.5 * h, s2)
        s3 = yp + 0.5 * h * k2
        k3 = _bowl_slope_rate(rk + 0.5 * h, s3)
        s4 = yp + h * k3
        k4 = _bowl_slope_rate(rk + h, s4)
        y += (h / 6.0) * (yp + 2.0 * s2 + 2.0 * s3 + s4)
        yp += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        f.append(y)
        fp.append(yp)
    return BowlProfile(r=r, f=np.array(f), fp=np.array(fp))


def bowl_asymptote_gap(profile: BowlProfile, r_lo: float, r_hi: float) -> float:
    """Oscillation of f(r) - r^2/2 + log r over [r_lo, r_hi].

    A small gap certifies that the profile matches the quadratic-minus-log
    expansion up to an additive constant on that window.
    """
    if not (0.0 < r_lo < r_hi <= profile.r_max):
        raise ValueError("need 0 < r_lo < r_hi <= r_max of the profile")
    sel = (profile.r >= r_lo) & (profile.r <= r_hi)
    if np.count_nonzero(sel) < 2:
        raise ValueError("window contains fewer than two profile nodes")
    rr = profile.r[sel]
    g = profile.f[sel] - 0.5 * rr * rr + np.log(rr)
    return float(np.max(g) - np.min(g))


def bowl_radial_function(profile: BowlProfile):
    """Radialization u(x1, x2) = f(sqrt(x1^2 + x2^2)) by monotone cubic."""
    interp = profile.interpolant
    r_max = profile.r_max

    def fn(x1, x2):
        rr = np.hypot(np.asarray(x1, dtype=float), np.asarray(x2, dtype=float))
        bad = rr > r_max * (1.0 + 1e-12)
        if np.any(bad):
            idx = _first_bad_index(bad)
            where = f" at node index {idx}" if idx else ""
            raise DomainError(f"radius {float(np.max(rr))!r} exceeds the profile "
                              f"extent {r_max!r}{where}")
        return interp(np.minimum(rr, r_max))

    return fn


def sample_to_grid(fn, rect: Rectangle, nx: int, ny: int) -> GridFunction:
    """Sample a (vectorized) formula onto a uniform grid.

    Raises DomainError identifying the first offending node if the formula
    is undefined or nonfinite anywhere on the mesh.
    """
    if nx < 3 or ny < 3:
        raise ValueError("sampling needs nx, ny >= 3")
    x1 = np.linspace(rect.x1_min, rect.x1_max, nx)
    x2 = np.linspace(rect.x2_min, rect.x2_max, ny)
    X1, X2 = np.meshgrid(x1, x2)
    vals = np.asarray(fn(X1, X2), dtype=float)
    vals = np.broadcast_to(vals, (ny, nx)).copy()
    bad = ~np.isfinite(vals)
    if np.any(bad):
        j, i = np.unravel_index(int(np.argmax(bad)), vals.shape)
        raise DomainError(f"formula is nonfinite at node (i={i}, j={j}), "
                          f"x1={x1[i]!r}, x2={x2[j]!r}")
    return GridFunction(rect, vals)


def grim_grid(p: GrimParams, rect: Rectangle, nx: int, ny: int) -> GridFunction:
    return sample_to_grid(lambda a, b: grim_cylinder_value(p, a, b), rect, nx, ny)


def bowl_grid(profile: BowlProfile, rect: Rectangle, nx: int, ny: int) -> GridFunction:
    return sample_to_grid(bowl_radial_function(profile), rect, nx, ny)
