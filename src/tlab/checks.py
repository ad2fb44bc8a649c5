"""Pass/fail certification of translator inequalities and identities.

Each check measures the worst violation of one quantitative statement over
the trusted interior of a solution grid and reports it against a tolerance;
worst_violation <= 0 means the statement holds with margin. Every check has
a synthetic failing input in the test suite, so none is vacuously true.
Every check takes one GeometryFields g (the grid g.grid, its partials
g.parts); run_suite builds it once per solution grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import (_MIRROR_ROUNDING_RTOL, GeometryFields,
                       drift_identity_residuals, first_diffs, geometry_fields,
                       quasilinear_residual, path_intrinsic_length, worst_over)
from .grids import GridFunction
from .solitons import GrimParams


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one certified statement: passed iff worst <= tolerance."""

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
    """Worst over several grid-shaped violation fields (NaN where not evaluated).

    Returns (worst, location, binding label, {label: that term's worst});
    the location follows worst_over's mirror rule, and on a tie between
    terms the first one binds.
    """
    each = {label: worst_over(field) for label, field in terms.items()}
    label = max(each, key=lambda k: each[k][0])
    worst, loc = each[label]
    return worst, loc, label, {k: w for k, (w, _) in each.items()}


def check_convexity(g: GeometryFields, tol: float) -> CheckReport:
    """Smallest principal curvature nonnegative (up to tol) everywhere."""
    worst, loc = worst_over(-g.kappa2)
    finite = np.isfinite(g.pinch)
    max_pinch = float(np.max(g.pinch[finite])) if np.any(finite) else float("nan")
    notes = f"max pinching ratio {max_pinch:.3e}"
    return _report("convexity",
                   "kappa2 >= 0: complete mean-convex translators are convex",
                   worst, tol, loc, notes)


def check_strip_H_bound(g: GeometryFields, p: GrimParams) -> CheckReport:
    """Mean curvature bounded by the distance to the strip edge."""
    bound = p.half_width - np.abs(g.grid.x1())
    worst, loc = worst_over(g.H - bound)
    finite = np.isfinite(g.H)
    min_H = float(np.min(g.H[finite]))
    notes = f"min H over the grid {min_H:.6e} (strictly positive expected)"
    return _report("strip_H_bound",
                   "H(x1, x2) <= R - |x1| on strip translators",
                   worst, 0.0, loc, notes)


def check_harnack(g: GeometryFields, paths, tol: float) -> CheckReport:
    """Curvature Harnack bound H(P2) >= exp(-length) H(P1) along grid paths.

    Graph path length upper-bounds intrinsic distance, so the tested bound
    is implied by the intrinsic one; both orientations of every path are
    checked, and the violation is located at the far end of the path.
    """
    paths = [np.asarray(path, dtype=int).reshape(-1, 2) for path in paths]
    if not paths:
        raise ValueError("check_harnack needs at least one path")
    # math.exp, not np.exp: the two can differ in the last place
    damp = np.array([math.exp(-path_intrinsic_length(g.grid, path)) for path in paths])
    ends = np.array([(path[0], path[-1]) for path in paths])  # path, end, (i, j)
    H_end = g.H[ends[..., 1], ends[..., 0]]
    untrusted = ~np.isfinite(H_end)
    if np.any(untrusted):
        i, j = ends[untrusted][0]
        raise ValueError(f"path endpoint ({i}, {j}) is not a trusted interior node")
    # columns: forward P1 -> P2, backward P2 -> P1; argmax keeps the first max
    violation = damp[:, None] * H_end - H_end[:, ::-1]
    k, backward = np.unravel_index(int(np.argmax(violation)), violation.shape)
    i, j = ends[k, 1 - backward]
    return _report("harnack",
                   "H(P2) >= exp(-d(P1,P2)) H(P1) along the surface",
                   violation[k, backward], tol, (int(i), int(j)),
                   f"{len(paths)} paths, both orientations")


def check_gradient_bounds(g: GeometryFields, tol: float) -> CheckReport:
    """Slope-of-arctan and Hessian bounds satisfied by convex translators.

    Checks |d/dx_i arctan u_i| <= 1 (by differencing arctan of the slope
    field), u_11 <= 1 + u_1^2 and u_22 <= 1 + u_2^2, the mixed bound
    |u_12| <= sqrt(1+u_1^2) sqrt(1+u_2^2), and
    |d/dx2 sqrt(1+u_1^2)| <= |u_1| sqrt(1+u_2^2).
    """
    p = g.parts
    h1, h2 = g.grid.h1, g.grid.h2
    with np.errstate(invalid="ignore"):
        a1_1, _ = first_diffs(np.arctan(p.u1), h1, h2)
        _, a2_2 = first_diffs(np.arctan(p.u2), h1, h2)
        v_arctan1 = np.abs(a1_1) - 1.0
        v_arctan2 = np.abs(a2_2) - 1.0
        v_h11 = p.u11 - (1.0 + p.u1 * p.u1)
        v_h22 = p.u22 - (1.0 + p.u2 * p.u2)
        root1 = np.sqrt(1.0 + p.u1 * p.u1)
        root2 = np.sqrt(1.0 + p.u2 * p.u2)
        v_mixed = np.abs(p.u12) - root1 * root2
        _, w2 = first_diffs(root1, h1, h2)
        v_slope = np.abs(w2) - np.abs(p.u1) * root2

    worst, loc, which, _ = _binding({
        "|d/dx1 arctan u1| <= 1": v_arctan1,
        "|d/dx2 arctan u2| <= 1": v_arctan2,
        "u11 <= 1 + u1^2": v_h11,
        "u22 <= 1 + u2^2": v_h22,
        "|u12| <= sqrt(1+u1^2) sqrt(1+u2^2)": v_mixed,
        "|d/dx2 sqrt(1+u1^2)| <= |u1| sqrt(1+u2^2)": v_slope,
    })
    return _report("gradient_bounds",
                   "first- and second-derivative bounds for convex strip translators",
                   worst, tol, loc, f"binding bound: {which}")


_IDENTITIES_REF = "|grad u|^2 = 1 - H^2, drift identities for H and W, |A|^2 W^2 >= 1/2"


def check_soliton_identities(g: GeometryFields, tol: float) -> CheckReport:
    """Drift-operator identities plus |A|^2 W^2 >= 1/2 on a near-solution.

    Refuses an input whose translator residual exceeds the gate, 10x tol:
    the report then fails with that residual as its worst violation, no
    location, and notes starting "refused: ".
    """
    gate = 10.0 * tol
    p = g.parts
    res = quasilinear_residual(p.u1, p.u2, p.u11, p.u12, p.u22)
    res_max = float(np.nanmax(np.abs(res)))
    if not res_max <= gate:
        msg = (f"translator residual {res_max:.3e} exceeds the gate {gate:.3e}; "
               "identities are only meaningful on (near-)solutions")
        return _report("soliton_identities", _IDENTITIES_REF, res_max, tol,
                       notes=f"refused: {msg}")
    res_a, res_b, res_c = drift_identity_residuals(g)
    worst, loc, _, each = _binding({
        "|grad|^2 identity": np.abs(res_a),
        "drift-H identity": np.abs(res_b),
        "drift-W identity": np.abs(res_c),
        "1/2 - |A|^2 W^2 worst": 0.5 - g.A2 * g.W * g.W,
    })
    notes = "".join(f"{k} {w:.3e}; " for k, w in each.items()) + f"input residual {res_max:.3e}"
    return _report("soliton_identities", _IDENTITIES_REF, worst, tol, loc, notes)


def _nearest_column(u: GridFunction, x1_target: float) -> int:
    return int(np.argmin(np.abs(u.x1() - x1_target)))


def check_strip_asymptotics(g: GeometryFields, p: GrimParams, window: float,
                            tol: float, side: str = "top",
                            margin: float | None = None) -> CheckReport:
    """Tilt limits and profile convergence in one far window of the strip.

    In the window |x2| in [Y - window, Y - 1] (top: x2 > 0, bottom: x2 < 0)
    the slope u_x2 must approach +L (top) or -L (bottom), u_x1 must approach
    lam tan(x1/lam), and row profiles u(x1, A) - u(0, A) must approach
    lam^2 log sec(x1/lam), all uniformly over |x1| <= R - margin.
    """
    if side not in ("top", "bottom"):
        raise ValueError("side must be 'top' or 'bottom'")
    if window <= 1.0:
        raise ValueError("window must exceed 1 (the outermost unit is excluded)")
    u = g.grid
    if window > u.rect.width2 + 1e-12:
        raise ValueError("window is taller than the grid")
    eps_grid = p.half_width - u.rect.x1_max
    eff_margin = margin if margin is not None else 2.0 * max(eps_grid, 0.0)
    if eff_margin >= p.half_width:
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
    cols = np.abs(x1) <= p.half_width - eff_margin
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
    # defect of each limit, in the order ties are resolved
    terms = {"tilt": np.abs(pp.u2 - L_target),
             "slope": np.abs(pp.u1 - p.lam * np.tan(x1 / p.lam)),
             "profile": np.abs(V - V[:, i0, None] - (profile_target - profile_target[i0]))}
    worst, loc, _, each = _binding({k: np.where(window_nodes, t, np.nan)
                                    for k, t in terms.items()})
    v_tilt, v_slope, v_prof = each.values()
    notes = (f"{side} window x2 in [{lo:.3g}, {hi:.3g}], |x1| <= "
             f"{p.half_width - eff_margin:.3g}: |u_x2 - ({L_target:+.6g})| "
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
    worst, loc, which, each = _binding({"symmetry defect": np.abs(V - V[:, ::-1]),
                                        "worst -u_x1 over x1>0": neg_slope})
    if which == "symmetry defect" and worst <= _MIRROR_ROUNDING_RTOL * float(np.max(np.abs(V))):
        loc = None
    notes = ("".join(f"{k} {w:.3e}; " for k, w in each.items())
             + f"{np.count_nonzero(neg_slope >= 0.0)} nodes with u_x1 <= 0")
    return _report("symmetry",
                   "u(x1, x2) = u(-x1, x2) and u_x1 > 0 for x1 > 0",
                   worst, tol, loc, notes)


def check_A_bound(g: GeometryFields, cap: float = 1.0) -> CheckReport:
    """Global curvature bound |A|^2 <= cap (default 1 on convex translators)."""
    worst, loc = worst_over(g.A2 - cap)
    finite = np.isfinite(g.A2)
    observed = float(np.max(g.A2[finite]))
    return _report("A_bound",
                   "|A|^2 bounded by a universal constant on complete mean-convex translators",
                   worst, 0.0, loc, f"cap {cap:g}; observed max |A|^2 = {observed:.6e}")


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
    row = W[j0, base_cols]
    if not np.any(np.isfinite(row)):
        raise ValueError("base row has no trusted nodes")
    C0 = float(np.nanmax(row))
    i0 = _nearest_column(u, 0.0)
    col = W[x2 >= 0.0, i0]
    C1 = float(np.nanmax(col))
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


@dataclass
class SuiteConfig:
    """Tolerances and parameters for a full certification run.

    Tolerances left as None default to scales appropriate for second-order
    stencils at the grid's spacing.
    """

    grim: GrimParams | None = None
    convexity_tol: float | None = None
    gradient_tol: float | None = None
    harnack_tol: float = 1e-8
    identity_tol: float | None = None
    asymptotics_tol: float = 0.05
    symmetry_tol: float | None = None
    a_cap: float = 1.0
    window: float = 5.0
    delta: float | None = None
    margin: float | None = None
    harnack_paths: int = 100
    seed: int = 0

    def resolved(self, u: GridFunction) -> "SuiteConfig":
        h = max(u.h1, u.h2)
        out = replace(self)
        if out.convexity_tol is None:
            out.convexity_tol = max(1e-10, 0.01 * h * h)
        if out.gradient_tol is None:
            out.gradient_tol = 10.0 * h * h
        if out.identity_tol is None:
            out.identity_tol = 100.0 * h * h
        if out.symmetry_tol is None:
            out.symmetry_tol = 1e-6 * max(1.0, float(np.max(np.abs(u.values))))
        if out.delta is None and out.grim is not None:
            out.delta = 1.2 * (out.grim.half_width - u.rect.x1_max)
        return out


def random_monotone_paths(u: GridFunction, count: int, seed: int = 0) -> list[np.ndarray]:
    """Random monotone staircase paths between interior nodes.

    Each path is a (k, 2) integer array of (i, j) nodes; every step moves
    one node east (i + 1) or north (j + 1).
    """
    rng = np.random.default_rng(seed)
    paths = []
    for _ in range(count):
        i0, i1 = sorted(rng.integers(1, u.nx - 1, size=2))
        j0, j1 = sorted(rng.integers(1, u.ny - 1, size=2))
        if i0 == i1 and j0 == j1:
            if i1 < u.nx - 2:
                i1 += 1
            else:
                i0 -= 1
        north = np.repeat([0, 1], [i1 - i0, j1 - j0])
        rng.shuffle(north)
        steps = np.column_stack((1 - north, north))
        paths.append(np.cumsum(np.vstack(([i0, j0], steps)), axis=0))
    return paths


# check name -> check(fields, resolved config); the suite runs them in this
# (canonical) order
_SUITE = {
    "convexity": lambda g, cfg: check_convexity(g, cfg.convexity_tol),
    "strip_H_bound": lambda g, cfg: check_strip_H_bound(g, cfg.grim),
    "harnack": lambda g, cfg: check_harnack(
        g, random_monotone_paths(g.grid, cfg.harnack_paths, cfg.seed), cfg.harnack_tol),
    "gradient_bounds": lambda g, cfg: check_gradient_bounds(g, cfg.gradient_tol),
    "soliton_identities": lambda g, cfg: check_soliton_identities(g, cfg.identity_tol),
    "strip_asymptotics_top": lambda g, cfg: check_strip_asymptotics(
        g, cfg.grim, cfg.window, cfg.asymptotics_tol, "top", cfg.margin),
    "strip_asymptotics_bottom": lambda g, cfg: check_strip_asymptotics(
        g, cfg.grim, cfg.window, cfg.asymptotics_tol, "bottom", cfg.margin),
    "symmetry": lambda g, cfg: check_symmetry(g, cfg.symmetry_tol),
    "A_bound": lambda g, cfg: check_A_bound(g, cfg.a_cap),
    "halfstrip_W_bound": lambda g, cfg: check_halfstrip_W_bound(g, cfg.grim, cfg.delta),
}

CANONICAL_ORDER = tuple(_SUITE)


def default_suite(grim: GrimParams | None, symmetric: bool) -> tuple[str, ...]:
    names = ["convexity", "harnack", "gradient_bounds", "soliton_identities",
             "A_bound"]
    if symmetric:
        names.append("symmetry")
    if grim is not None:
        names.extend(STRIP_CHECKS)
    return tuple(n for n in CANONICAL_ORDER if n in names)


def require_known(names) -> None:
    """Raise ValueError listing (sorted) the names that are not checks."""
    unknown = sorted(set(names) - set(CANONICAL_ORDER))
    if unknown:
        raise ValueError(f"unknown check name(s) {unknown}; "
                         f"valid names: {', '.join(CANONICAL_ORDER)}")


def run_suite(u: GridFunction, names, cfg: SuiteConfig) -> list[CheckReport]:
    """Run the named checks (at least one) in canonical order over one grid."""
    requested = list(names)
    require_known(requested)
    if not requested:
        raise ValueError("no checks to run: the suite is empty")
    needs_grim = [n for n in requested if n in STRIP_CHECKS]
    cfg = cfg.resolved(u)
    if needs_grim and cfg.grim is None:
        raise ValueError(f"checks {needs_grim} need grim-family parameters")

    g = geometry_fields(u)
    return [_SUITE[name](g, cfg) for name in CANONICAL_ORDER if name in requested]
