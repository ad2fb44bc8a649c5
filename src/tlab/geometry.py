"""Discrete differential geometry on height-field grids.

Centered second-order stencils produce gradient and Hessian fields; from
those come the area element W, the principal curvatures of the shape
operator, the convexity pinching ratio, and the drift-operator identity
residuals used to certify translator solutions.

Derived fields are full-size arrays whose boundary ring (and, for fields
built from second differences of derived quantities, a second ring) is NaN:
one-sided stencils are never used, so NaN marks exactly the untrusted nodes
and propagates through downstream stencils automatically. Every reduction
over such fields, here and in the checks, follows one rule: NaN is
untrusted and skipped, and +-inf is a value like any other. It is applied
through numpy's NaN-skipping np.fmax.reduce and np.fmin.reduce.

Memory: the ringed differences are filled in place, with no interior copy,
and each intermediate is freed after its last use. Besides the five
partials, geometry_fields holds at most ten full-size arrays at once;
besides the fields it reads, drift_identity_residuals holds at most nine.
Freeing early moves no bit: every expression keeps its written
left-to-right order. A reduction runs over its field in place: worst_over
adds one boolean array of the field's shape, and the checks' side
statistics add nothing.
"""

from __future__ import annotations

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


def _centered_diff(F: np.ndarray, h: float, axis: int, out: np.ndarray) -> np.ndarray:
    """Centered first difference along x1 (axis 1) or x2 (axis 0) at the
    interior nodes of F, h that axis's spacing, into out."""
    if axis == 1:
        np.subtract(F[1:-1, 2:], F[1:-1, :-2], out=out)
    else:
        np.subtract(F[2:, 1:-1], F[:-2, 1:-1], out=out)
    out /= 2.0 * h
    return out


def _centered_first(F: np.ndarray, h1: float, h2: float, out: np.ndarray) -> np.ndarray:
    """Centered first differences (F1, F2) at the interior nodes of F, into out."""
    _centered_diff(F, h1, 1, out[0])
    _centered_diff(F, h2, 0, out[1])
    return out


def _centered_second(F: np.ndarray, h1: float, h2: float, out: np.ndarray) -> np.ndarray:
    """Centered second differences (F11, F12, F22) at the interior nodes of F, into out."""
    F11, F12, F22 = out
    C2 = 2.0 * F[1:-1, 1:-1]
    np.subtract(F[1:-1, 2:], C2, out=F11)
    F11 += F[1:-1, :-2]
    F11 /= h1 * h1
    np.subtract(F[2:, 2:], F[2:, :-2], out=F12)
    F12 -= F[:-2, 2:]
    F12 += F[:-2, :-2]
    F12 /= 4.0 * h1 * h2
    np.subtract(F[2:, 1:-1], C2, out=F22)
    F22 += F[:-2, 1:-1]
    F22 /= h2 * h2
    return out


def _interior_block(F: np.ndarray, k: int) -> np.ndarray:
    """Uninitialized room for k interior-sized fields of F, in one allocation."""
    return np.empty((k, F.shape[0] - 2, F.shape[1] - 2))


def interior_partials(U: np.ndarray, h1: float, h2: float):
    """(u1, u2, u11, u12, u22) at the interior nodes of U.

    The one difference stencil of the lab: the solver's residual and
    Jacobian use it directly, and partials, first_diffs and second_diffs
    embed the same differences in a NaN ring. The five partials are rows
    of one block, filled in place; each difference rounds exactly like its
    written left-to-right expression. One block in place of a dozen
    temporaries matters on mid-size grids: there each temporary fell under
    the allocator's mmap threshold, and a relax step's freed temporaries
    were trimmed from the heap and faulted back in on the next step.
    """
    out = _interior_block(U, 5)
    _centered_first(U, h1, h2, out[:2])
    _centered_second(U, h1, h2, out[2:])
    return tuple(out)


def _ringed(stencil, k: int, F: np.ndarray, h1: float, h2: float):
    """The stencil's k differences of F, filled into the interiors of
    full-size arrays with a NaN edge ring (no interior copy is made)."""
    full = tuple(np.full(F.shape, np.nan) for _ in range(k))
    stencil(F, h1, h2, [f[1:-1, 1:-1] for f in full])
    return full


def first_diffs(F: np.ndarray, h1: float, h2: float) -> tuple[np.ndarray, np.ndarray]:
    """Centered first differences of a full-size field; NaN edge ring."""
    return _ringed(_centered_first, 2, F, h1, h2)


def first_diff(F: np.ndarray, h: float, axis: int) -> np.ndarray:
    """The one centered first difference of first_diffs along x1 (axis 1)
    or x2 (axis 0), h that axis's spacing; NaN edge ring."""
    full = np.full(F.shape, np.nan)
    _centered_diff(F, h, axis, full[1:-1, 1:-1])
    return full


def second_diffs(F: np.ndarray, h1: float, h2: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centered second differences of a full-size field; NaN edge ring."""
    return _ringed(_centered_second, 3, F, h1, h2)


def partials(u: GridFunction) -> Partials:
    """Gradient and Hessian by centered second-order differences.

    Requires at least a 5x5 grid so the trusted interior is nonempty after
    excluding the boundary ring.
    """
    if u.nx < 5 or u.ny < 5:
        raise ValueError("partials needs nx, ny >= 5")
    return Partials(*first_diffs(u.values, u.h1, u.h2), *second_diffs(u.values, u.h1, u.h2))


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
    are alive at once, and the result is allocated first, so freeing the
    temporaries leaves no heap hole below it (with the result allocated
    second, a 303x303 Newton solve peaked 1.7 MB higher).
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
    the discriminant is a stable hypot and kappa1 >= kappa2 always.
    """
    p = parts if parts is not None else partials(u)
    u1, u2 = p.u1, p.u2
    with np.errstate(invalid="ignore", divide="ignore"):
        q2 = u1 * u1 + u2 * u2
        Wsq = 1.0 + q2
        W = np.sqrt(Wsq)

        # rotate so the gradient points along the first axis
        q = np.sqrt(q2)
        safe = q > 0.0
        c = np.where(safe, u1 / np.where(safe, q, 1.0), 1.0)
        s = np.where(safe, u2 / np.where(safe, q, 1.0), 0.0)
        del q2, q, safe

        h11 = p.u11 / W
        h12 = p.u12 / W
        h22 = p.u22 / W
        # symmetric matrix (a, b; b, d) similar to the shape operator
        a = (c * c * h11 + 2.0 * c * s * h12 + s * s * h22) / Wsq
        del Wsq
        b = (c * s * (h22 - h11) + (c * c - s * s) * h12) / W
        d = s * s * h11 - 2.0 * c * s * h12 + c * c * h22
        del h11, h12, h22, c, s

        H = a + d
        m = 0.5 * H
        rad = np.hypot(0.5 * (a - d), b)
        kappa1 = m + rad
        kappa2 = m - rad
        del a, b, d, m, rad
        A2 = kappa1 * kappa1 + kappa2 * kappa2

        # kappa1 is NaN wherever a partial is, and NaN fails kappa1 > 0
        pinch = np.where(kappa1 > 0.0, _phi(kappa2 / np.where(kappa1 > 0.0, kappa1, 1.0)), np.nan)
    return GeometryFields(grid=u, parts=p, W=W, H=H, kappa1=kappa1, kappa2=kappa2,
                          A2=A2, pinch=pinch)


def _phi(r: np.ndarray) -> np.ndarray:
    """Convexity weight: r^4 exp(-1/r^2) for r < 0, else 0."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    neg = r < 0.0
    rn = r[neg]
    with np.errstate(over="ignore", divide="ignore"):
        z = np.where(rn > -1e-150, -np.inf, -1.0 / (rn * rn))
    # rounding-level negatives all flush: skip rn ** 4's discarded subnormal work
    if not np.all(z < _EXP_FLUSH):
        out[neg] = np.where(z < _EXP_FLUSH, 0.0, rn ** 4 * np.exp(np.maximum(z, _EXP_FLUSH)))
    return np.where(np.isnan(r), np.nan, out)


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
    rings deep; all three are O(h^2) on exactly sampled translators.

    Each difference field is freed after its last use, and res_a comes
    last, on W^2 formed again: besides the fields of g, at most nine
    full-size arrays are alive at once (the coefficients a^{ij}, the
    residuals built so far, three ringed differences and two temporaries).
    Every sum is evaluated in its written left-to-right order.
    """
    p = g.parts
    h1, h2 = g.grid.h1, g.grid.h2
    with np.errstate(invalid="ignore"):
        Wsq = g.W * g.W
        a11 = 1.0 - p.u1 * p.u1 / Wsq
        a12 = -p.u1 * p.u2 / Wsq
        a22 = 1.0 - p.u2 * p.u2 / Wsq
        del Wsq

        H11, H12, H22 = second_diffs(g.H, h1, h2)
        res_b = a11 * H11 + 2.0 * a12 * H12 + a22 * H22 + g.H * g.A2
        del H11, H12, H22

        W11, W12, W22 = second_diffs(g.W, h1, h2)
        res_c = a11 * W11 + 2.0 * a12 * W12 + a22 * W22
        del W11, W12, W22
        W1, W2 = first_diffs(g.W, h1, h2)
        # the factor 2/W last, so it is formed after the sum's temporaries
        res_c -= (a11 * W1 * W1 + 2.0 * a12 * W1 * W2 + a22 * W2 * W2) * (2.0 / g.W)
        res_c -= g.A2 * g.W
        del a11, a12, a22, W1, W2

        Wsq = g.W * g.W
        res_a = (p.u1 * p.u1 + p.u2 * p.u2) / Wsq - (1.0 - 1.0 / Wsq)
    return res_a, res_b, res_c


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
