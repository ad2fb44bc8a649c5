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

import numpy as np

from .geometry import Partials, quasilinear_residual
from .grids import GridFunction, Rectangle


class DomainError(ValueError):
    """Evaluation was requested outside a formula's domain of definition."""


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

    def __post_init__(self):
        if not (np.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError("cylinder radius must be positive")


def _refuse_where(bad: np.ndarray, values: np.ndarray, message) -> None:
    """Raise DomainError if bad holds anywhere: message(value) at the first
    bad node, followed by that node's index when the input is an array."""
    if not np.any(bad):
        return
    if bad.ndim == 0:
        raise DomainError(message(float(values)))
    idx = tuple(int(k) for k in np.unravel_index(int(np.argmax(bad)), bad.shape))
    raise DomainError(f"{message(float(values[idx]))} at node index {idx}")


def _require_strip(x1, half_width: float):
    x1a = np.asarray(x1, dtype=float)
    _refuse_where(np.abs(x1a) > half_width - EDGE_MARGIN, x1a,
                  lambda v: f"x1 = {v!r} is outside the open strip |x1| < {half_width!r}")
    return x1a


def _grim_profile(lam: float, x1):
    """The grim family's x1 profile lam^2 log sec(x1/lam), unchecked."""
    return (lam * lam) * (-np.log(np.cos(x1 / lam)))


def _grim_slope(lam: float, x1):
    """The profile's slope lam tan(x1/lam), unchecked."""
    return lam * np.tan(x1 / lam)


def grim_reaper_value(x1):
    """Height log sec(x1) of the grim reaper curve, |x1| < pi/2."""
    return _grim_profile(1.0, _require_strip(x1, math.pi / 2.0))


def grim_cylinder_value(p: GrimParams, x1, x2):
    """Height lam^2 log sec(x1/lam) + tilt * sqrt(lam^2-1) * x2."""
    x1a = _require_strip(x1, p.half_width)
    x2a = np.asarray(x2, dtype=float)
    return _grim_profile(p.lam, x1a) + p.tilt_sign * p.tilt_slope * x2a


def grim_cylinder_gradient(p: GrimParams, x1, x2):
    """Gradient (lam tan(x1/lam), tilt * sqrt(lam^2-1)); the constant u2
    has the broadcast shape of x1 and x2."""
    x1a = _require_strip(x1, p.half_width)
    g1 = _grim_slope(p.lam, x1a)
    g2 = np.full(np.broadcast_shapes(x1a.shape, np.shape(x2)), p.tilt_sign * p.tilt_slope)
    return g1, g2[()]


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
    return quasilinear_residual(g1, g2, *grim_cylinder_hessian(p, x1))


def grim_partials(p: GrimParams, u: GridFunction) -> Partials:
    """Exact derivative fields of the grim cylinder on u's mesh.

    The boundary ring is NaN to match the finite-difference convention.
    """
    X1, X2 = u.mesh()
    fields = [np.array(f, dtype=float) for f in (*grim_cylinder_gradient(p, X1, X2),
                                                  *grim_cylinder_hessian(p, X1))]
    for f in fields:
        f[0, :] = f[-1, :] = np.nan
        f[:, 0] = f[:, -1] = np.nan
    return Partials(*fields)


def strip_boundary_data(p: GrimParams, epsilon: float, Y: float,
                        smoothing: float):
    """Dirichlet data emulating a two-ended convex strip translator.

    Returns the truncated rectangle [-R+eps, R-eps] x [-Y, Y] and the data
    g(x1, x2) = lam^2 log sec(x1/lam) + sqrt(L^2 x2^2 + smoothing^2), which
    is even in both variables (p.tilt_sign is not read) and asymptotically
    tilted by +-L for large |x2|.
    """
    R = p.half_width
    if not (0.0 < epsilon < R):
        raise ValueError("need 0 < epsilon < strip half-width")
    if epsilon < 0.1 * R:
        # the area element grows like 1/(R - |x1|); thinner truncations make
        # the discrete problem needlessly stiff
        raise ValueError("epsilon must be at least 0.1 of the strip half-width")
    if not Y > 0.0:
        raise ValueError("Y must be positive")
    if not smoothing > 0.0:
        raise ValueError("smoothing must be positive")
    rect = Rectangle(-(R - epsilon), R - epsilon, -Y, Y)
    lam = p.lam
    L = p.tilt_slope

    def g(x1, x2):
        return _grim_profile(lam, np.asarray(x1, dtype=float)) \
            + np.hypot(L * np.asarray(x2, dtype=float), smoothing)

    return rect, g


def tilted_cylinder_value(c: CylinderParams, x1, x2):
    """Height -sqrt(1+t^2) sqrt(R^2 - x1^2) + t x2, |x1| <= R."""
    x1a = np.asarray(x1, dtype=float)
    _refuse_where(np.abs(x1a) > c.radius, x1a,
                  lambda v: f"x1 = {v!r} is outside |x1| <= {c.radius!r}")
    x2a = np.asarray(x2, dtype=float)
    root = np.sqrt(np.maximum(c.radius * c.radius - x1a * x1a, 0.0))
    return -math.sqrt(1.0 + c.tilt * c.tilt) * root + c.tilt * x2a


# RK4's stability interval on the negative real axis ends at about -2.785
RK4_STABILITY_LIMIT = 2.785


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
        if self.r.size < 2:
            raise ValueError("a profile needs at least 2 samples")
        if self.r[0] != 0.0 or np.any(np.diff(self.r) <= 0.0):
            raise ValueError("r must increase strictly from 0")

    @property
    def r_max(self) -> float:
        return float(self.r[-1])

    @property
    def step(self) -> float:
        return float(self.r[1] - self.r[0])


def bowl_profile_solve(r_max: float, step: float) -> BowlProfile:
    """Integrate the radial translator ODE with a classical 4th-order step.

    The axis singularity of f'/r is removed by starting one step out with
    the series f = r^2/4, f' = r/2. The requested step is rounded so the
    grid divides [0, r_max] exactly. Far out the slope rate's derivative in
    f' is about -r, and RK4 is stable on the negative real axis only down
    to about -2.785, so a step with step * r_max above 2.785 is refused.
    """
    if not (np.isfinite(r_max) and r_max > 0.0):
        raise ValueError("r_max must be positive")
    if not (np.isfinite(step) and step > 0.0):
        raise ValueError("step must be positive")
    n = int(round(r_max / step))
    if n < 4:
        raise ValueError("step too coarse for r_max")
    h = float(r_max) / n
    if h * r_max > RK4_STABILITY_LIMIT:
        raise ValueError(f"step {step!r} is too coarse for r_max {r_max!r}: RK4 is "
                         f"stable only for steps up to {RK4_STABILITY_LIMIT / r_max:.6g}")
    from array import array

    r = np.linspace(0.0, r_max, n + 1)
    # the slope steps run on Python floats from array.array buffers (array
    # is imported above, so only a bowl integration loads it), with the rate
    # (1 + s^2)(1 - s/r) written out at each stage. The written steps form
    # 0.5 * h and h / 6.0 first, so hoisting them moves no bit
    hh = 0.5 * h
    h6 = h / 6.0
    yp = 0.5 * h
    fp = array("d", (0.0, yp))
    for rk in array("d", r[1:n].tobytes()):
        k1 = (1.0 + yp * yp) * (1.0 - yp / rk)
        s2 = yp + hh * k1
        rm = rk + hh
        k2 = (1.0 + s2 * s2) * (1.0 - s2 / rm)
        s3 = yp + hh * k2
        k3 = (1.0 + s3 * s3) * (1.0 - s3 / rm)
        s4 = yp + h * k3
        k4 = (1.0 + s4 * s4) * (1.0 - s4 / (rk + h))
        yp += h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        fp.append(yp)
    fp = np.frombuffer(fp)
    # f's steps need only the stage slopes, which the stored f' gives back
    # on whole arrays in the loop's operations and order. The weighted sum
    # yp + 2 s2 + 2 s3 + s4 is built in f's own storage, and cumsum adds
    # the steps one after another, as y += h6 * (...) in the loop would
    q, rk = fp[1:n], r[1:n]
    rm = rk + hh
    f = np.empty(n + 1)
    f[:2] = 0.0, 0.25 * h * h
    f[2:] = q
    s, inc = q, f[2:]
    for rs, c, w in ((rk, hh, 2.0), (rm, hh, 2.0), (rm, h, 1.0)):
        s = q + c * ((1.0 + s * s) * (1.0 - s / rs))
        inc += w * s
    inc *= h6
    np.cumsum(f, out=f)
    return BowlProfile(r=r, f=f, fp=fp)


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


def _hermite_coefficients(x: np.ndarray, y: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Power-basis coefficients c[k, i] of the cubic Hermite interpolant of
    values y and slopes d at x.

    On [x[i], x[i+1]] the cubic is sum_k c[k, i] (t - x[i])^(3-k). Every
    operation follows scipy 1.17's CubicHermiteSpline in order, so the
    coefficients agree bit for bit.
    """
    hk = np.diff(x)
    mk = np.diff(y) / hk
    t = (d[:-1] + d[1:] - 2.0 * mk) / hk
    return np.stack((t / hk, (mk - d[:-1]) / hk - t, d[:-1], y[:-1]))


def _piecewise_cubic(x: np.ndarray, c: np.ndarray, v) -> np.ndarray:
    """Evaluate the cubic of _hermite_coefficients at v, extrapolating past
    either end from the outermost interval; NaN stays NaN."""
    # the interval holding v: x[i] <= v < x[i+1], clamped to the first and
    # last, and the last for v == x[-1] or NaN
    i = np.searchsorted(x[1:-1], v, side="right")
    s = v - x[i]
    # accumulated as scipy's evaluate_poly1 does: constant term first, the
    # powers of s built up one multiplication at a time
    out = 0.0 + c[3][i]
    out += c[2][i] * s
    s2 = s * s
    out += c[1][i] * s2
    out += c[0][i] * (s2 * s)
    return out


def bowl_radial_function(profile: BowlProfile):
    """Radialization u(x1, x2) = f(sqrt(x1^2 + x2^2)) by the cubic Hermite
    interpolant of the profile's values f and its RK4 slopes f'. f'' is
    linear on each interval, so where it is >= 0 at both ends the cubic is
    convex there; tests check this on the profiles the lab samples."""
    r = profile.r
    c = _hermite_coefficients(r, profile.f, profile.fp)
    r_max = profile.r_max

    def fn(x1, x2):
        rr = np.hypot(np.asarray(x1, dtype=float), np.asarray(x2, dtype=float))
        _refuse_where(rr > r_max * (1.0 + 1e-12), rr,
                      lambda v: f"radius {v!r} exceeds the profile extent {r_max!r}")
        return _piecewise_cubic(r, c, np.minimum(rr, r_max))

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
