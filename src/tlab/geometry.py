"""Discrete differential geometry on height-field grids.

One centered second-order stencil, _centered, produces the gradient and
Hessian fields; from those come the area element W, the principal
curvatures of the shape operator, the convexity pinching ratio, and the
drift-operator identity residuals used to certify translator solutions.

Derived fields are full-size arrays whose boundary ring (and, for fields
built from second differences of derived quantities, a second ring) is NaN:
one-sided stencils are never used, so NaN marks exactly the untrusted nodes
and propagates through downstream stencils automatically. Every reduction
over such fields, here and in the checks, follows one rule: NaN is
untrusted and skipped, and +-inf is a value like any other. It is applied
through numpy's NaN-skipping np.fmax.reduce and np.fmin.reduce.

Every field is evaluated in its written left-to-right order, so freeing
an intermediate early or reusing its room in place moves no bit. A
reduction runs over its field in place: worst_over adds one boolean array
of the field's shape.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .grids import GridFunction

# exp(z) underflows to subnormal near z = -745; flush the pinching weight to
# exact zero before that to avoid spurious underflow traps.
_EXP_FLUSH = -745.0

# relative gap under which worst_over treats a node and its mirror images
# as tied: far above rounding, far below every check tolerance
_MIRROR_TIE_RTOL = 1e-9

# a mirror defect within this many ulps of max|u| is rounding, not shape:
# the solver folds a problem across such a mirror, and check_symmetry names
# no node for it
_MIRROR_ROUNDING_RTOL = 256 * np.finfo(float).eps


@dataclass(frozen=True)
class Partials:
    """First and second difference fields of a grid function.

    Arrays have the grid's shape with the boundary ring set to NaN.
    """

    u1: np.ndarray
    u2: np.ndarray
    u11: np.ndarray
    u12: np.ndarray
    u22: np.ndarray


@dataclass(frozen=True)
class GeometryFields:
    """Per-node extrinsic geometry of the graph of u: the fields the checks read.

    W is the area element sqrt(1+|grad u|^2), H = kappa1 + kappa2 the mean
    curvature, A2 = kappa1^2 + kappa2^2 the squared norm of the second
    fundamental form and pinch the convexity ratio phi(kappa2/kappa1) (NaN
    where kappa1 <= 0).
    """

    grid: GridFunction
    parts: Partials
    W: np.ndarray
    H: np.ndarray
    kappa1: np.ndarray
    kappa2: np.ndarray
    A2: np.ndarray
    pinch: np.ndarray


def _centered(F: np.ndarray, h1: float, h2: float, k: int, out: np.ndarray) -> np.ndarray:
    """Difference k of (F1, F2, F11, F12, F22) at the interior nodes of F, into out.

    The one difference stencil of the lab. Each difference rounds exactly
    like its written left-to-right expression, with no temporary.
    """
    if k == 3:
        np.subtract(F[2:, 2:], F[2:, :-2], out=out)
        out -= F[:-2, 2:]
        out += F[:-2, :-2]
        out /= 4.0 * h1 * h2
        return out
    # F1 and F11 along x1 (axis 1), F2 and F22 along x2 (axis 0)
    ahead, behind, h = ((F[1:-1, 2:], F[1:-1, :-2], h1) if k in (0, 2)
                        else (F[2:, 1:-1], F[:-2, 1:-1], h2))
    if k < 2:
        np.subtract(ahead, behind, out=out)
        out /= 2.0 * h
    else:
        np.multiply(F[1:-1, 1:-1], 2.0, out=out)
        np.subtract(ahead, out, out=out)
        out += behind
        out /= h * h
    return out


def interior_partials(U: np.ndarray, h1: float, h2: float):
    """(u1, u2, u11, u12, u22) at the interior nodes of U.

    The solver's residual and Jacobian read these directly; partials and
    difference embed the same differences in a NaN ring. The five partials
    are rows of one block, filled in place.
    """
    out = np.empty((5, U.shape[0] - 2, U.shape[1] - 2))
    for k in range(5):
        _centered(U, h1, h2, k, out[k])
    return tuple(out)


def difference(F: np.ndarray, h1: float, h2: float, k: int) -> np.ndarray:
    """Difference k of (F1, F2, F11, F12, F22) of a full-size field; NaN edge ring."""
    full = np.full(F.shape, np.nan)
    _centered(F, h1, h2, k, full[1:-1, 1:-1])
    return full


def partials(u: GridFunction) -> Partials:
    """Gradient and Hessian by centered second-order differences.

    Requires at least a 5x5 grid so the trusted interior is nonempty after
    excluding the boundary ring.
    """
    if u.nx < 5 or u.ny < 5:
        raise ValueError("partials needs nx, ny >= 5")
    return Partials(*(difference(u.values, u.h1, u.h2, k) for k in range(5)))


def quasilinear_residual(u1, u2, u11, u12, u22):
    """Pointwise translator residual LHS - RHS of the nondivergence form.

    (1+u2^2) u11 - 2 u1 u2 u12 + (1+u1^2) u22 - (1 + u1^2 + u2^2); zero
    exactly on translators.
    """
    return _residual_and_wsq(u1, u2, u11, u12, u22)[0]


def _residual_and_wsq(u1, u2, u11, u12, u22):
    """quasilinear_residual and the W^2 = (1 + u1^2) + u2^2 it subtracts.

    Each square is formed once. The in-place steps round exactly like the
    written expression evaluated left to right: a - b is computed as
    (-b) + a, the same IEEE result. At most three full-size temporaries
    are alive at once, and the result is allocated first, so the freed
    temporaries leave no heap hole below it.
    """
    R = -2.0 * u1
    R *= u2
    R *= u12
    u2sq = u2 * u2
    A = 1.0 + u2sq
    A *= u11
    R += A
    del A
    Cc = u1 * u1
    Cc += 1.0
    Wsq = u2sq
    Wsq += Cc
    Cc *= u22
    R += Cc
    R -= Wsq
    return R, Wsq


def translator_residual(u: GridFunction) -> np.ndarray:
    """Residual grid of the translator equation; NaN on the boundary ring."""
    p = partials(u)
    return quasilinear_residual(p.u1, p.u2, p.u11, p.u12, p.u22)


def geometry_fields(u: GridFunction, parts: Partials | None = None) -> GeometryFields:
    """Extrinsic geometry of graph(u): W, H, kappa1, kappa2, A2 and pinch.

    The induced metric is g = I + grad u (x) grad u, the second fundamental
    form (upward normal) is hess u / W, and the shape operator S = g^{-1} h.
    Eigenvalues are computed from the symmetric congruent matrix obtained by
    rotating the gradient onto the first axis and scaling by diag(W, 1), so
    the discriminant is a stable hypot and kappa1 >= kappa2 always. At the
    peak, seven full-size arrays are alive besides the five partials.
    """
    p = parts if parts is not None else partials(u)
    u1, u2 = p.u1, p.u2
    with np.errstate(invalid="ignore", divide="ignore"):
        q = u1 * u1 + u2 * u2
        Wsq = 1.0 + q
        W = np.sqrt(Wsq)

        # rotate so the gradient points along the first axis: (c, s) is
        # grad u / |grad u|, or (1, 0) where the gradient vanishes
        np.sqrt(q, out=q)
        flat = ~(q > 0.0)
        q[flat] = 1.0
        c = u1 / q
        c[flat] = 1.0
        s = np.divide(u2, q, out=q)
        s[flat] = 0.0
        del flat, q

        # symmetric matrix (a, b; b, d) similar to the shape operator, with
        # the second fundamental form h_ij = u_ij / W formed where it is read
        a = (c * c * (p.u11 / W) + 2.0 * c * s * (p.u12 / W) + s * s * (p.u22 / W)) / Wsq
        del Wsq
        b = (c * s * (p.u22 / W - p.u11 / W) + (c * c - s * s) * (p.u12 / W)) / W
        # d = s s h11 - 2 c s h12 + c c h22, the last reader of c and s
        d = s * s * (p.u11 / W)
        y = 2.0 * c * s
        y *= np.divide(p.u12, W, out=s)
        d -= y
        c *= c
        c *= np.divide(p.u22, W, out=y)
        d += c
        del c, s, y

        H = a + d
        rad = np.hypot(0.5 * (a - d), b)
        del a, b, d
        m = 0.5 * H
        kappa1 = m + rad
        kappa2 = m - rad
        del m, rad
        A2 = kappa1 * kappa1 + kappa2 * kappa2

        # kappa1 is NaN wherever a partial is, and NaN fails kappa1 > 0
        convex = kappa1 > 0.0
        r = np.where(convex, kappa1, 1.0)
        pinch = _phi(np.divide(kappa2, r, out=r))
        del r
        pinch[~convex] = np.nan
    return GeometryFields(grid=u, parts=p, W=W, H=H, kappa1=kappa1, kappa2=kappa2,
                          A2=A2, pinch=pinch)


def _phi(r: np.ndarray) -> np.ndarray:
    """Convexity weight: r^4 exp(-1/r^2) for r < 0, else 0; NaN where r is."""
    r = np.asarray(r, dtype=float)
    out = np.multiply(r, r, out=np.empty_like(r))
    with np.errstate(over="ignore", divide="ignore"):
        np.divide(-1.0, out, out=out)
    # a weight below exp(_EXP_FLUSH) is exactly zero: only the others are formed
    live = r < 0.0
    live &= out >= _EXP_FLUSH
    weight = r[live] ** 4 * np.exp(out[live])
    out.fill(0.0)
    out[live] = weight
    out[np.isnan(r)] = np.nan
    return out


def drift_identity_residuals(g: GeometryFields):
    """Residual grids of three translator identities on the graph of g.grid.

    (a) |grad u|^2 / W^2 - (1 - 1/W^2): an algebraic identity, zero to
        rounding; a consistency check of the field assembly.
    (b) a^{ij} H_{x_i x_j} + H |A|^2 with a^{ij} = delta_ij - u_i u_j / W^2:
        the drift Laplacian of the mean curvature vanishes against H |A|^2
        on translators.
    (c) a^{ij} W_{x_i x_j} - (2/W) a^{ij} W_{x_i} W_{x_j} - |A|^2 W: the
        drift operator applied to the area element. The right-hand side
        |A|^2 W is forced by substituting H = 1/W into (b); it is the form
        consistent with the lower bound |A|^2 W >= 1/(2W).

    (b) and (c) difference derived fields, so their trusted region is two
    rings deep; all three are O(h^2) on exactly sampled translators. Each
    residual has its own builder, which the identities check runs one at a
    time; every sum is evaluated in its written left-to-right order.
    """
    return _gradient_identity(g), _drift_H_identity(g), _drift_W_identity(g)


def _coefficient(g: GeometryFields, i: int, j: int) -> np.ndarray:
    """a^{ij} = delta_ij - u_i u_j / W^2, as drift_identity_residuals writes it."""
    u = (g.parts.u1, g.parts.u2)
    if i == j:
        return 1.0 - u[i] * u[i] / (g.W * g.W)
    return -u[0] * u[1] / (g.W * g.W)


# Each residual builder below is one expression in its written order, with
# a(i, j) = a^{ij} and d(k) the k-th of (F1, F2, F11, F12, F22). numpy
# reuses the room of a large temporary in place, so besides the fields of g
# only the sum so far and its current term are alive.

@np.errstate(invalid="ignore")
def _gradient_identity(g: GeometryFields) -> np.ndarray:
    """Residual (a) of drift_identity_residuals."""
    p = g.parts
    return (p.u1 * p.u1 + p.u2 * p.u2) / (g.W * g.W) - (1.0 - 1.0 / (g.W * g.W))


@np.errstate(invalid="ignore")
def _drift_H_identity(g: GeometryFields) -> np.ndarray:
    """Residual (b) of drift_identity_residuals: three full-size arrays at its peak."""
    d = functools.partial(difference, g.H, g.grid.h1, g.grid.h2)
    a = functools.partial(_coefficient, g)
    return a(0, 0) * d(2) + 2.0 * a(0, 1) * d(3) + a(1, 1) * d(4) + g.H * g.A2


@np.errstate(invalid="ignore")
def _drift_W_identity(g: GeometryFields) -> np.ndarray:
    """Residual (c) of drift_identity_residuals: four full-size arrays at its peak."""
    d = functools.partial(difference, g.W, g.grid.h1, g.grid.h2)
    a = functools.partial(_coefficient, g)
    res = a(0, 0) * d(2) + 2.0 * a(0, 1) * d(3) + a(1, 1) * d(4)
    # each first difference is formed again where it is read
    res -= (a(0, 0) * d(0) * d(0) + 2.0 * a(0, 1) * d(0) * d(1)
            + a(1, 1) * d(1) * d(1)) * (2.0 / g.W)
    res -= g.A2 * g.W
    return res


def worst_over(arr: np.ndarray):
    """Max over trusted (non-NaN) nodes and its (i, j) location.

    NaN marks an untrusted node; a value that overflowed to +inf is a
    violation like any other. The max is np.fmax.reduce over the field in
    place, and its location the first node equal to it: besides the field,
    only one boolean array of its shape is alive. Fields of even solutions
    tie between a node and its mirror images (nx-1-i, j), (i, ny-1-j) and
    (nx-1-i, ny-1-j). Of those that are trusted and within _MIRROR_TIE_RTOL
    of the max, the one with the largest (j, i) is reported (x1, x2 >= 0 on
    a grid centred at the origin), so rounding cannot move the location
    across an axis. The returned value is always the true max.
    """
    worst = np.fmax.reduce(arr, axis=None)
    if np.isnan(worst):
        raise ValueError("field has no trusted nodes")
    j, i = np.unravel_index(int(np.argmax(arr == worst)), arr.shape)
    worst = float(arr[j, i])
    ny, nx = arr.shape
    mirrors = [(j, i), (j, nx - 1 - i), (ny - 1 - j, i), (ny - 1 - j, nx - 1 - i)]
    # an infinite max ties only with an equal value, and NaN never ties
    gap = _MIRROR_TIE_RTOL * abs(worst) if np.isfinite(worst) else 0.0
    j, i = max(m for m in mirrors if arr[m] == worst or worst - arr[m] <= gap)
    return worst, (int(i), int(j))
