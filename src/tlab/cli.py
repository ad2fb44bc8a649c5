"""Command-line surface: generate / solve / check / profile-export.

check certifies at the suite's own tolerances and regions, which follow
from the grid (its step, its x1 extent and, for the strip checks,
--lambda); no flag sets or loosens them. Exit codes: 0 success or all
checks passing, 1 usage or file errors, 2 solver non-convergence, 3 check
failures, 4 a Newton solve stopped at its rounding floor above --tol. An
unconverged solve, a singular Newton step included, still writes its last
iterate and its log, <out>.log. The translator check runs first in
every check command and cannot be skipped. Runs are deterministic: the
same command line produces byte-identical output files.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import checks as ck
from . import reporting as rep
from .grids import Rectangle
from .geometry import translator_residual
from .solitons import (CylinderParams, GrimParams, bowl_profile_solve,
                       bowl_radial_function, grim_cylinder_value, sample_to_grid,
                       tilted_cylinder_value)
from .solver import (SolveConfig, fill_from_boundary, newton_solve,
                     parabolic_relax, strip_boundary_data)


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # no prefix matching, so --l is not read as --lambda; add_subparsers
    # builds every subcommand's parser with this class
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise CliUsageError(message)


def _add_family_flags(p):
    """The surface, grid and output flags that generate and solve share."""
    p.add_argument("--lambda", dest="lam", type=float, default=2.0)
    p.add_argument("--tilt", choices=["+", "-"], default="+")
    p.add_argument("--rmax", type=float, default=None)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--nx", type=int, default=101)
    p.add_argument("--ny", type=int, default=101)
    for edge in ("x1-min", "x1-max", "x2-min", "x2-max"):
        p.add_argument(f"--{edge}", type=float)
    p.add_argument("--out", required=True)


def build_parser() -> _Parser:
    solve_defaults = SolveConfig()
    suite_defaults = ck.SuiteConfig()
    parser = _Parser(prog="tlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="sample a closed-form family to a grid file")
    g.set_defaults(run=cmd_generate)
    g.add_argument("family", choices=["grim", "tilted", "bowl"])
    g.add_argument("--radius", type=float, default=1.0)
    g.add_argument("--t", type=float, default=0.5)
    _add_family_flags(g)

    s = sub.add_parser("solve", help="solve the translator equation on a rectangle")
    s.set_defaults(run=cmd_solve)
    s.add_argument("mode", choices=["newton", "relax"])
    s.add_argument("--boundary", choices=["grim", "bowl", "strip", "file"],
                   default="grim")
    s.add_argument("--boundary-file", default=None)
    s.add_argument("--Y", type=float, default=30.0)
    s.add_argument("--init", choices=["fill", "file"], default="fill")
    s.add_argument("--init-file", default=None)
    s.add_argument("--tol", type=float, default=solve_defaults.tol)
    s.add_argument("--max-iters", type=int, default=solve_defaults.max_newton_iters)
    s.add_argument("--max-steps", type=int, default=solve_defaults.max_relax_steps)
    _add_family_flags(s)

    c = sub.add_parser("check", help="certify a solution grid against the statement suite")
    c.set_defaults(run=cmd_check)
    c.add_argument("solution")
    c.add_argument("--suite", default="default",
                   help="comma-separated check names, or 'default'")
    c.add_argument("--skip", default="",
                   help="comma-separated check names to drop from the suite")
    c.add_argument("--lambda", dest="lam", type=float, default=None)
    c.add_argument("--window", type=float, default=suite_defaults.window)
    c.add_argument("--seed", type=int, default=suite_defaults.seed,
                   help="has no effect: no check samples at random")
    c.add_argument("--out", required=True)

    e = sub.add_parser("profile-export",
                       help="CSV of the radial profile and its asymptote gap")
    e.set_defaults(run=cmd_profile_export)
    e.add_argument("--rmax", type=float, default=80.0)
    e.add_argument("--step", type=float, default=1e-3)
    e.add_argument("--out", required=True)

    return parser


def _bowl_profile(args, rect: Rectangle):
    """Bowl profile out to --rmax, by default just past the corner radius of rect."""
    corner = math.hypot(max(abs(rect.x1_min), abs(rect.x1_max)),
                        max(abs(rect.x2_min), abs(rect.x2_max)))
    rmax = args.rmax if args.rmax is not None else corner * (1.0 + 1e-9) + args.step
    if rmax < corner:
        raise ValueError(f"--rmax {rmax} does not cover the domain corner radius {corner}")
    return bowl_profile_solve(rmax, args.step)


def _closed_form(args, family, grim_x2):
    """Rectangle and height callable of a closed-form family.

    The rectangle is the family's default with the --x1-min ... --x2-max
    overrides applied; grim's default is [-3R/4, 3R/4] x [-grim_x2, grim_x2].
    """
    if family == "grim":
        p = GrimParams(args.lam, 1 if args.tilt == "+" else -1)
        R = p.half_width
        default, fn = ((-0.75 * R, 0.75 * R, -grim_x2, grim_x2),
                       lambda a, b: grim_cylinder_value(p, a, b))
    elif family == "tilted":
        cyl = CylinderParams(args.radius, args.t)
        default, fn = ((-0.8 * cyl.radius, 0.8 * cyl.radius, -2.0, 2.0),
                       lambda a, b: tilted_cylinder_value(cyl, a, b))
    else:
        default, fn = (-4.0, 4.0, -4.0, 4.0), None
    given = (args.x1_min, args.x1_max, args.x2_min, args.x2_max)
    rect = Rectangle(*(d if v is None else v for v, d in zip(given, default)))
    return rect, fn or bowl_radial_function(_bowl_profile(args, rect))


def cmd_generate(args) -> int:
    rect, fn = _closed_form(args, args.family, grim_x2=5.0)
    u = sample_to_grid(fn, rect, args.nx, args.ny)
    # before writing: a grid too small for the residual is refused with no file
    res = translator_residual(u)
    rep.write_grid(args.out, u)
    print(f"max_interior_residual {np.nanmax(np.abs(res)):.17g}")
    return 0


def _solve_problem(args):
    """Boundary callable + init grid for a solve command."""
    nx, ny = args.nx, args.ny
    if args.boundary in ("grim", "bowl"):
        rect, boundary = _closed_form(args, args.boundary, grim_x2=3.0)
    elif args.boundary == "strip":
        p = GrimParams(args.lam, 1 if args.tilt == "+" else -1)
        # corner rounding max(1, lambda^2 - 1) keeps the data within the
        # translator Hessian bounds
        rect, boundary = strip_boundary_data(p, 0.25 * p.half_width, args.Y,
                                             max(1.0, args.lam * args.lam - 1.0))
    else:
        if not args.boundary_file:
            raise ValueError("--boundary file needs --boundary-file")
        boundary = rep.read_grid(args.boundary_file)
        rect, nx, ny = boundary.rect, boundary.nx, boundary.ny
    if args.init == "fill":
        return boundary, fill_from_boundary(rect, nx, ny, boundary)
    if not args.init_file:
        raise ValueError("--init file needs --init-file")
    init = rep.read_grid(args.init_file)
    if init.rect != rect:
        raise ValueError("init grid domain does not match the solve domain")
    return boundary, init


# stdout word, log text and exit code of a solve status; any other status exits 2
_EXIT = {"converged": ("converged", "converged", 0),
         "at_rounding_floor": ("at-rounding-floor", "at rounding floor", 4)}


def cmd_solve(args) -> int:
    cfg = SolveConfig(tol=args.tol, max_newton_iters=args.max_iters,
                      max_relax_steps=args.max_steps)
    boundary, init = _solve_problem(args)
    solve = newton_solve if args.mode == "newton" else parabolic_relax
    outcome = solve(boundary, init, cfg)
    rep.write_grid(args.out, outcome.solution)
    word, status, code = _EXIT.get(
        outcome.status, ("not-converged", f"not converged: {outcome.notes}", 2))
    lines = [f"{k} {r:.17g}" for k, r in enumerate(outcome.history)]
    lines.append(f"# {status}; final_residual {outcome.final_residual:.17g}; "
                 f"iterations {outcome.iterations}")
    Path(str(args.out) + ".log").write_text("\n".join(lines) + "\n")
    print(f"{word} final_residual {outcome.final_residual:.17g} "
          f"iterations {outcome.iterations}")
    return code


def cmd_check(args) -> int:
    u = rep.read_grid(args.solution)
    grim = None
    if args.lam is not None:
        grim = GrimParams(args.lam)
    if args.suite == "default":
        requested = ck.default_suite(grim, ck.symmetric_in_x1(u))
    else:
        requested = {n.strip() for n in args.suite.split(",") if n.strip()}
    skip = sorted({n.strip() for n in args.skip.split(",") if n.strip()})
    ck.require_known([*skip, *requested])
    if "translator" in skip:
        raise CliUsageError("the translator check cannot be skipped: every other "
                            "check certifies a statement about translators")
    names = [n for n in ck.CANONICAL_ORDER if n in requested and n not in skip]
    reports = ck.run_suite(u, names, ck.SuiteConfig(grim=grim, window=args.window))
    # the flags as given, in parser order, with the suite and skip resolved;
    # each check runs once, in canonical order, and the suite echoes that
    inputs = {("lambda" if k == "lam" else k): v for k, v in vars(args).items()
              if k not in ("command", "run", "out")}
    inputs.update(suite=",".join(r.name for r in reports), skip=",".join(skip))
    report = rep.report_dict("tlab-check", inputs, reports)
    rep.write_report(args.out, report)
    for r in reports:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name} "
              f"worst={r.worst_violation:.6e} tol={r.tolerance:.6e}")
    return 0 if all(r.passed for r in reports) else 3


def cmd_profile_export(args) -> int:
    profile = bowl_profile_solve(args.rmax, args.step)
    lines = ["r,f,fp,asymptote_gap"]
    for r, f, fp in zip(profile.r.tolist(), profile.f.tolist(), profile.fp.tolist()):
        gap = "" if r < 1.0 else format(f - 0.5 * r * r + math.log(r), ".17g")
        lines.append(f"{r:.17g},{f:.17g},{fp:.17g},{gap}")
    Path(args.out).write_text("\n".join(lines) + "\n")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except CliUsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
