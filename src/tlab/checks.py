"""Pass/fail certification of translator inequalities and identities.

Each check measures the worst violation of one quantitative statement over
the trusted interior of a solution grid and reports it against a tolerance;
worst_violation <= 0 means the statement holds with margin. Every check has
a synthetic failing input in the test suite, so none is vacuously true.
Every check takes one GeometryFields g (the grid g.grid, its partials
g.parts); run_suite builds it once per solution grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (_MIRROR_ROUNDING_RTOL, GeometryFields, _drift_H_identity,
                       _drift_W_identity, _gradient_identity, difference, geometry_fields,
                       interior_partials, quasilinear_residual, worst_over)
from .grids import GridFunction
from .solitons import GrimParams


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one certified statement: passed iff worst <= tolerance,
    and for the translator check only if the residual falls under injection."""

    name: str
    statement_ref: str
    worst_violation: float
    tolerance: float
    passed: bool
    worst_location: tuple[int, int] | None = None
    notes: str = ""


def _report(name, ref, worst, tol, loc=None, notes="") -> CheckReport:
    worst = float(worst)
    return CheckReport(name=name, statement_ref=ref, worst_violation=worst,
                       tolerance=float(tol), passed=bool(worst <= tol),
                       worst_location=loc, notes=notes)


def _binding(terms: dict) -> tuple[float, tuple[int, int], str, dict]:
    """Worst over several violation fields, one field alive at a time.

    terms maps a label to a zero-argument callable that builds a
    grid-shaped violation field (NaN where not evaluated). The callables
    run once each, in label order; each field is reduced and dropped
    before the next is built. Returns (worst, location, binding label,
    {label: that term's worst}); the location follows worst_over's mirror
    rule, and on a tie between terms the first label binds.
    """
    each, where = {}, {}
    for label, build in terms.items():
        each[label], where[label] = worst_over(build())
    label = max(each, key=each.get)
    return each[label], where[label], label, each


def check_convexity(g: GeometryFields, tol: float) -> CheckReport:
    """Smallest principal curvature nonnegative (up to tol) everywhere."""
    worst, loc = worst_over(-g.kappa2)
    notes = f"max pinching ratio {np.fmax.reduce(g.pinch, axis=None):.3e}"
    return _report("convexity",
                   "kappa2 >= 0: complete mean-convex translators are convex",
                   worst, tol, loc, notes)


def check_strip_H_bound(g: GeometryFields, p: GrimParams) -> CheckReport:
    """Mean curvature bounded by the distance to the strip edge."""
    bound = p.half_width - np.abs(g.grid.x1())
    worst, loc = worst_over(g.H - bound)
    notes = (f"min H over the grid {np.fmin.reduce(g.H, axis=None):.6e} "
             "(strictly positive expected)")
    return _report("strip_H_bound",
                   "H(x1, x2) <= R - |x1| on strip translators",
                   worst, 0.0, loc, notes)


def _edge_lengths(u: GridFunction, axis: int) -> np.ndarray:
    """Graph length hypot(h, delta u) of every edge along x1 (axis 1) or x2 (axis 0).

    Edge k joins nodes k and k + 1 along the axis of values[j, i]; its
    length upper-bounds the intrinsic distance between them.
    """
    w = np.diff(u.values, axis=axis)
    return np.hypot(u.h1 if axis == 1 else u.h2, w, out=w)


def check_harnack(g: GeometryFields, tol: float) -> CheckReport:
    """Curvature Harnack bound H(Q) >= exp(-w) H(P) across every grid edge.

    w, the edge's graph length (_edge_lengths), upper-bounds the intrinsic
    distance. Both directions of every edge between trusted nodes are
    tested: the violation at Q is the max over its trusted neighbours P of
    exp(-w) H(P) - H(Q), located at Q. The bound multiplies along a path and
    w adds, so a worst <= 0 certifies every 4-connected grid path between
    trusted nodes; chaining edges that pass only within tol > 0 is lossy.
    """
    H = g.H
    violation = np.full(H.shape, np.nan)
    edges = 0
    # one axis at a time: violation, the damping factors and one term are
    # the only full-size arrays alive
    for axis, lo, hi in ((1, np.s_[:, :-1], np.s_[:, 1:]), (0, np.s_[:-1], np.s_[1:])):
        damp = _edge_lengths(g.grid, axis)
        np.negative(damp, out=damp)
        np.exp(damp, out=damp)
        # NaN wherever either end is untrusted, and fmax keeps the other side
        term = damp * H[lo]
        term -= H[hi]
        edges += np.count_nonzero(~np.isnan(term))
        np.fmax(violation[hi], term, out=violation[hi])
        np.multiply(damp, H[hi], out=term)
        term -= H[lo]
        np.fmax(violation[lo], term, out=violation[lo])
        del damp, term
    worst, loc = worst_over(violation)
    return _report("harnack",
                   "H(P2) >= exp(-d(P1,P2)) H(P1) along the surface",
                   worst, tol, loc,
                   f"{edges} edges between trusted nodes, both directions; "
                   "worst <= 0 certifies every grid path between them")


def check_gradient_bounds(g: GeometryFields, tol: float) -> CheckReport:
    """Slope-of-arctan and Hessian bounds satisfied by convex translators.

    Checks |d/dx_i arctan u_i| <= 1 (by differencing arctan of the slope
    field), u_11 <= 1 + u_1^2 and u_22 <= 1 + u_2^2, the mixed bound
    |u_12| <= sqrt(1+u_1^2) sqrt(1+u_2^2), and
    |d/dx2 sqrt(1+u_1^2)| <= |u_1| sqrt(1+u_2^2).
    """
    p = g.parts
    h1, h2 = g.grid.h1, g.grid.h2

    def root(v):
        r = v * v
        r += 1.0
        return np.sqrt(r, out=r)

    with np.errstate(invalid="ignore"):
        worst, loc, which, _ = _binding({
            "|d/dx1 arctan u1| <= 1":
                lambda: np.abs(difference(np.arctan(p.u1), h1, h2, 0)) - 1.0,
            "|d/dx2 arctan u2| <= 1":
                lambda: np.abs(difference(np.arctan(p.u2), h1, h2, 1)) - 1.0,
            "u11 <= 1 + u1^2": lambda: p.u11 - (1.0 + p.u1 * p.u1),
            "u22 <= 1 + u2^2": lambda: p.u22 - (1.0 + p.u2 * p.u2),
            "|u12| <= sqrt(1+u1^2) sqrt(1+u2^2)":
                lambda: np.abs(p.u12) - root(p.u1) * root(p.u2),
            "|d/dx2 sqrt(1+u1^2)| <= |u1| sqrt(1+u2^2)":
                lambda: np.abs(difference(root(p.u1), h1, h2, 1)) - np.abs(p.u1) * root(p.u2),
        })
    return _report("gradient_bounds",
                   "first- and second-derivative bounds for convex strip translators",
                   worst, tol, loc, f"binding bound: {which}")


# the least injection ratio check_translator accepts
_MIN_INJECTION_RATIO = 1.5


def _magnitude(res: np.ndarray) -> np.ndarray:
    return np.abs(res, out=res)


def check_translator(g: GeometryFields, tol: float) -> CheckReport:
    """Translator residual within tol and falling under injection.

    Every other check certifies a statement about translators; this one
    says whether the grid is one at its resolution. The worst violation is
    max|residual|. The injection ratio is max|residual| of the samples
    values[::2, ::2] at spacing 2h over max|residual| at h: a translator's
    discretization error falls about 4x per halving of h, a fixed defect's
    not at all. The check fails when the ratio is under
    _MIN_INJECTION_RATIO (a zero residual at h reads an infinite ratio).
    With even nx or ny the coarse samples end one h short of that edge:
    they are a grid on a rectangle of their own. The notes give the ratio
    and the observed order log2(ratio).
    """
    p = g.parts
    worst, loc = worst_over(_magnitude(quasilinear_residual(p.u1, p.u2, p.u11, p.u12, p.u22)))
    U, h1, h2 = g.grid.values, g.grid.h1, g.grid.h2
    coarse = float(np.max(_magnitude(
        quasilinear_residual(*interior_partials(U[::2, ::2], 2.0 * h1, 2.0 * h2)))))
    with np.errstate(divide="ignore"):
        ratio = coarse / worst if worst > 0.0 else np.inf
        notes = f"injection ratio {ratio:.3f} (order {np.log2(ratio):.2f})"
    falls = bool(ratio >= _MIN_INJECTION_RATIO)
    if not falls:
        notes += f"; does not fall under injection by the bound {_MIN_INJECTION_RATIO:g}"
    return CheckReport("translator", "the translator equation holds to O(h^2) on the grid",
                       worst, float(tol), bool(worst <= tol) and falls, loc, notes)


def check_soliton_identities(g: GeometryFields, tol: float) -> CheckReport:
    """Drift-operator identities plus |A|^2 W^2 >= 1/2 on a near-solution.

    The identities hold on translators; check_translator says whether the
    grid is one. The three drift residuals are built and reduced one at a
    time: at the peak, the drift-W builder's four full-size arrays are
    alive besides g.
    """
    worst, loc, _, each = _binding({
        "|grad|^2 identity": lambda: _magnitude(_gradient_identity(g)),
        "drift-H identity": lambda: _magnitude(_drift_H_identity(g)),
        "drift-W identity": lambda: _magnitude(_drift_W_identity(g)),
        "1/2 - |A|^2 W^2 worst": lambda: 0.5 - g.A2 * g.W * g.W,
    })
    return _report("soliton_identities",
                   "|grad u|^2 = 1 - H^2, drift identities for H and W, |A|^2 W^2 >= 1/2",
                   worst, tol, loc, "; ".join(f"{k} {w:.3e}" for k, w in each.items()))


def _nearest_column(u: GridFunction, x1_target: float) -> int:
    return int(np.argmin(np.abs(u.x1() - x1_target)))


def check_strip_asymptotics(g: GeometryFields, p: GrimParams, window: float,
                            tol: float, side: str = "top") -> CheckReport:
    """Tilt limits and profile convergence in one far window of the strip.

    In the window |x2| in [Y - window, Y - 1] (top: x2 > 0, bottom: x2 < 0)
    the slope u_x2 must approach +L (top) or -L (bottom), u_x1 must approach
    lam tan(x1/lam), and row profiles u(x1, A) - u(0, A) must approach
    lam^2 log sec(x1/lam), all uniformly over |x1| <= R - margin, where
    margin = 2 max(R - x1_max, 0) is twice the grid's truncation of the strip.
    """
    if side not in ("top", "bottom"):
        raise ValueError("side must be 'top' or 'bottom'")
    if window <= 1.0:
        raise ValueError("window must exceed 1 (the outermost unit is excluded)")
    u = g.grid
    if window > u.rect.width2 + 1e-12:
        raise ValueError("window is taller than the grid")
    margin = 2.0 * max(p.half_width - u.rect.x1_max, 0.0)
    if margin >= p.half_width:
        raise ValueError("margin leaves no strip interior")

    x2 = u.x2()
    if side == "top":
        lo, hi = u.rect.x2_max - window, u.rect.x2_max - 1.0
        L_target = p.tilt_slope
    else:
        lo, hi = u.rect.x2_min + 1.0, u.rect.x2_min + window
        L_target = -p.tilt_slope
    rows = (x2 >= lo - 1e-12) & (x2 <= hi + 1e-12)
    rows[[0, -1]] = False
    if not rows.any():
        raise ValueError("window is taller than the grid")

    x1 = u.x1()
    cols = np.abs(x1) <= p.half_width - margin
    cols[[0, -1]] = False
    if not cols.any():
        raise ValueError("margin excludes every interior column")

    pp = g.parts
    V = u.values
    i0 = _nearest_column(u, 0.0)
    # read only inside the window, where |x1| < R and the log is defined
    with np.errstate(invalid="ignore", divide="ignore"):
        profile_target = (p.lam ** 2) * (-np.log(np.cos(x1 / p.lam)))
    window_nodes = np.outer(rows, cols)

    def in_window(defect):
        return np.where(window_nodes, defect, np.nan)

    # defect of each limit, in the order ties are resolved
    worst, loc, _, each = _binding({
        "tilt": lambda: in_window(np.abs(pp.u2 - L_target)),
        "slope": lambda: in_window(np.abs(pp.u1 - p.lam * np.tan(x1 / p.lam))),
        "profile": lambda: in_window(np.abs(V - V[:, i0, None]
                                            - (profile_target - profile_target[i0]))),
    })
    v_tilt, v_slope, v_prof = each.values()
    notes = (f"{side} window x2 in [{lo:.3g}, {hi:.3g}], |x1| <= "
             f"{p.half_width - margin:.3g}: |u_x2 - ({L_target:+.6g})| "
             f"{v_tilt:.3e}; |u_x1 - lam tan| {v_slope:.3e}; profile {v_prof:.3e}")
    return _report(f"strip_asymptotics_{side}",
                   "u_x2 -> +-sqrt(lam^2-1) and row profiles -> lam^2 log sec(x1/lam) "
                   "at the strip ends",
                   worst, tol, loc, notes)


def symmetric_in_x1(u: GridFunction) -> bool:
    """Whether the grid's x1 range is centred on 0 (to 1e-9 of its width)."""
    return abs(u.rect.x1_min + u.rect.x1_max) <= 1e-9 * u.rect.width1


def check_symmetry(g: GeometryFields, tol: float) -> CheckReport:
    """Evenness in x1 plus strict monotonicity u_x1 > 0 for x1 > 0.

    Strictness is tested as u_x1 >= -tol away from the axis, with a census
    of nonpositive-slope nodes reported; the exact zero at x1 = 0 is
    excluded. When the symmetry defect binds at rounding level (within
    _MIRROR_ROUNDING_RTOL of max|u|), no node stands out and worst_location
    is None.
    """
    u = g.grid
    if not symmetric_in_x1(u):
        raise ValueError("grid is not symmetric about x1 = 0")
    V = u.values
    pp = g.parts
    # u1 is NaN on the ring, so neg_slope is too
    neg_slope = np.where(u.x1() > 0.5 * u.h1, -pp.u1, np.nan)
    worst, loc, which, each = _binding({"symmetry defect": lambda: np.abs(V - V[:, ::-1]),
                                        "worst -u_x1 over x1>0": lambda: neg_slope})
    if which == "symmetry defect" and worst <= _MIRROR_ROUNDING_RTOL * float(np.max(np.abs(V))):
        loc = None
    notes = ("".join(f"{k} {w:.3e}; " for k, w in each.items())
             + f"{np.count_nonzero(neg_slope >= 0.0)} nodes with u_x1 <= 0")
    return _report("symmetry",
                   "u(x1, x2) = u(-x1, x2) and u_x1 > 0 for x1 > 0",
                   worst, tol, loc, notes)


def check_A_bound(g: GeometryFields) -> CheckReport:
    """Global curvature bound |A|^2 <= 1 on convex translators."""
    worst, loc = worst_over(g.A2 - 1.0)
    return _report("A_bound",
                   "|A|^2 bounded by a universal constant on complete mean-convex translators",
                   worst, 0.0, loc,
                   f"cap 1; observed max |A|^2 = {np.fmax.reduce(g.A2, axis=None):.6e}")


def _trusted_max(vals: np.ndarray, where: str) -> float:
    # starting from NaN, an empty slice reads NaN too: it has no trusted node
    best = float(np.fmax.reduce(vals, initial=np.nan))
    if np.isnan(best):
        raise ValueError(f"{where} has no trusted nodes")
    return best


def check_halfstrip_W_bound(g: GeometryFields, p: GrimParams, delta: float) -> CheckReport:
    """Interior area-element bound on the upper half-strip.

    With C0 = max W on the x2 = 0 row over |x1| <= R - delta and C1 = max W
    on the x1 = 0 column over x2 >= 0, checks
    W <= 2 (R-delta)/delta * max(C0, C1) on |x1| <= R - 1.5 delta, x2 >= 0.
    """
    R = p.half_width
    if not (0.0 < delta < R):
        raise ValueError("need 0 < delta < strip half-width")
    u = g.grid
    if u.rect.x2_min > 0.0 or u.rect.x2_max <= 0.0:
        raise ValueError("grid does not cover the half-strip x2 >= 0 with its base row")
    if u.rect.x1_max < R - delta - 1e-12 or u.rect.x1_min > -(R - delta) + 1e-12:
        raise ValueError("grid does not cover |x1| <= R - delta")
    W = g.W
    x1 = u.x1()
    x2 = u.x2()
    j0 = int(np.argmin(np.abs(x2)))
    base_cols = np.abs(x1) <= R - delta
    C0 = _trusted_max(W[j0, base_cols], "base row")
    C1 = _trusted_max(W[x2 >= 0.0, _nearest_column(u, 0.0)], "x1 = 0 column on x2 >= 0")
    bound = 2.0 * (R - delta) / delta * max(C0, C1)

    region = np.outer(x2 >= 0.0, np.abs(x1) <= R - 1.5 * delta)
    vals = np.where(region, W - bound, np.nan)
    worst, loc = worst_over(vals)
    notes = f"C0={C0:.6g}, C1={C1:.6g}, bound={bound:.6g}"
    return _report("halfstrip_W_bound",
                   "W <= 2 (R-delta)/delta max(C0, C1) on the half-strip",
                   worst, 0.0, loc, notes)


# ---------------------------------------------------------------------------
# suite driver

STRIP_CHECKS = ("strip_H_bound", "strip_asymptotics_top",
                "strip_asymptotics_bottom", "halfstrip_W_bound")


@dataclass(frozen=True)
class SuiteConfig:
    """What a certification run needs beyond the grid.

    grim names the strip family the strip checks compare against (None runs
    none of them), and window is the height of each far window of the strip
    asymptotics. Every tolerance and region is set from the grid by the
    suite table, _SUITE. seed has no effect: no check samples at random.
    """

    grim: GrimParams | None = None
    window: float = 5.0
    seed: int = 0


# check name -> check(fields, h, config) with h = max(h1, h2): each entry
# sets its tolerance and region from the grid. The suite runs them in this
# (canonical) order. The translator tolerance is ten times the identities'.
# Only a Harnack worst <= 0 certifies every grid path.
_SUITE = {
    "translator": lambda g, h, cfg: check_translator(g, 10.0 * (100.0 * h * h)),
    "convexity": lambda g, h, cfg: check_convexity(g, max(1e-10, 0.01 * h * h)),
    "strip_H_bound": lambda g, h, cfg: check_strip_H_bound(g, cfg.grim),
    "harnack": lambda g, h, cfg: check_harnack(g, 1e-8),
    "gradient_bounds": lambda g, h, cfg: check_gradient_bounds(g, 10.0 * h * h),
    "soliton_identities": lambda g, h, cfg: check_soliton_identities(g, 100.0 * h * h),
    "strip_asymptotics_top": lambda g, h, cfg: check_strip_asymptotics(
        g, cfg.grim, cfg.window, 0.05, "top"),
    "strip_asymptotics_bottom": lambda g, h, cfg: check_strip_asymptotics(
        g, cfg.grim, cfg.window, 0.05, "bottom"),
    "symmetry": lambda g, h, cfg: check_symmetry(
        g, 1e-6 * max(1.0, float(np.max(np.abs(g.grid.values))))),
    "A_bound": lambda g, h, cfg: check_A_bound(g),
    "halfstrip_W_bound": lambda g, h, cfg: check_halfstrip_W_bound(
        g, cfg.grim, 1.2 * (cfg.grim.half_width - g.grid.rect.x1_max)),
}

CANONICAL_ORDER = tuple(_SUITE)


def default_suite(grim: GrimParams | None, symmetric: bool) -> tuple[str, ...]:
    """Every check, in canonical order, but symmetry unless the grid is
    symmetric and the strip checks unless grim is given."""
    return tuple(n for n in CANONICAL_ORDER
                 if (symmetric or n != "symmetry") and (grim is not None or n not in STRIP_CHECKS))


def require_known(names) -> None:
    """Raise ValueError listing (sorted) the names that are not checks."""
    unknown = sorted(set(names) - set(CANONICAL_ORDER))
    if unknown:
        raise ValueError(f"unknown check name(s) {unknown}; "
                         f"valid names: {', '.join(CANONICAL_ORDER)}")


def run_suite(u: GridFunction, names, cfg: SuiteConfig) -> list[CheckReport]:
    """Run the named checks (at least one) in canonical order over one grid.

    The translator check always runs, first: every other check certifies a
    statement about translators.
    """
    requested = list(names)
    require_known(requested)
    if not requested:
        raise ValueError("no checks to run: the suite is empty")
    requested.append("translator")
    needs_grim = [n for n in requested if n in STRIP_CHECKS]
    if needs_grim:
        if cfg.grim is None:
            raise ValueError(f"checks {needs_grim} need grim-family parameters")
        # a strip solution truncated in the outer half of the strip: then
        # the asymptotics margin 2 (R - x1_max) and the half-strip delta
        # 1.2 (R - x1_max) both leave a region to check
        R, rect = cfg.grim.half_width, u.rect
        if not 0.0 < 2.0 * (R - rect.x1_max) < R:
            raise ValueError(
                f"strip checks need R/2 < x1_max < R: the grid's x1 extent "
                f"[{rect.x1_min:.6g}, {rect.x1_max:.6g}] does not fit lambda "
                f"{cfg.grim.lam:g}, whose strip half-width is R = {R:.6g}")

    g = geometry_fields(u)
    h = max(u.h1, u.h2)
    return [_SUITE[name](g, h, cfg) for name in CANONICAL_ORDER if name in requested]
