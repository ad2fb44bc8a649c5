"""Command-line surface: generate / solve / check / profile-export.

check certifies at the suite's own tolerances and regions, which follow
from the grid (its step, its x1 extent and, for the strip checks,
--lambda); no flag sets or loosens them. Exit codes: 0 success or all
checks passing, 1 usage or file errors, 2 solver non-convergence, 3 check
failures. An unconverged solve, a singular Newton step included, still
writes its last iterate and its log. A refused identities check is a
failed report that the check returns. Runs are deterministic: the same
command line produces byte-identical output files.
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
from .solitons import (CylinderParams, GrimParams, bowl_grid, bowl_profile_solve,
                       bowl_radial_function, grim_cylinder_value, grim_grid,
                       sample_to_grid, tilted_cylinder_value)
from .solver import (SolveConfig, fill_from_boundary, newton_solve,
                     parabolic_relax, strip_boundary_data)


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)


def _add_domain_flags(p):
    p.add_argument("--x1-min", type=float)
    p.add_argument("--x1-max", type=float)
    p.add_argument("--x2-min", type=float)
    p.add_argument("--x2-max", type=float)


def build_parser() -> _Parser:
    solve_defaults = SolveConfig()
    suite_defaults = ck.SuiteConfig()
    parser = _Parser(prog="tlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="sample a closed-form family to a grid file")
    g.add_argument("family", choices=["grim", "tilted", "bowl"])
    g.add_argument("--lambda", dest="lam", type=float, default=2.0)
    g.add_argument("--tilt", choices=["+", "-"], default="+")
    g.add_argument("--radius", type=float, default=1.0)
    g.add_argument("--t", type=float, default=0.5)
    g.add_argument("--offset", type=float, default=0.0)
    g.add_argument("--rmax", type=float, default=None)
    g.add_argument("--step", type=float, default=1e-3)
    g.add_argument("--nx", type=int, default=101)
    g.add_argument("--ny", type=int, default=101)
    _add_domain_flags(g)
    g.add_argument("--out", required=True)

    s = sub.add_parser("solve", help="solve the translator equation on a rectangle")
    s.add_argument("mode", choices=["newton", "relax"])
    s.add_argument("--boundary", choices=["grim", "bowl", "strip", "file"],
                   default="grim")
    s.add_argument("--boundary-file", default=None)
    s.add_argument("--lambda", dest="lam", type=float, default=2.0)
    s.add_argument("--tilt", choices=["+", "-"], default="+")
    s.add_argument("--eps-frac", type=float, default=0.25,
                   help="strip truncation as a fraction of the half-width")
    s.add_argument("--Y", type=float, default=30.0)
    s.add_argument("--smoothing", type=float, default=None,
                   help="corner rounding of the strip data; defaults to "
                        "max(1, lambda^2 - 1) so the data stays within the "
                        "translator Hessian bounds")
    s.add_argument("--rmax", type=float, default=None)
    s.add_argument("--step", type=float, default=1e-3)
    s.add_argument("--nx", type=int, default=101)
    s.add_argument("--ny", type=int, default=101)
    _add_domain_flags(s)
    s.add_argument("--init", choices=["fill", "file"], default="fill")
    s.add_argument("--init-file", default=None)
    s.add_argument("--tol", type=float, default=solve_defaults.tol)
    s.add_argument("--max-iters", type=int, default=solve_defaults.max_newton_iters)
    s.add_argument("--max-steps", type=int, default=solve_defaults.max_relax_steps)
    s.add_argument("--out", required=True)
    s.add_argument("--log", default=None)

    c = sub.add_parser("check", help="certify a solution grid against the statement suite")
    c.add_argument("solution")
    c.add_argument("--suite", default="default",
                   help="comma-separated check names, or 'default'")
    c.add_argument("--skip", default="",
                   help="comma-separated check names to drop from the suite")
    c.add_argument("--lambda", dest="lam", type=float, default=None)
    c.add_argument("--window", type=float, default=suite_defaults.window)
    c.add_argument("--seed", type=int, default=suite_defaults.seed,
                   help="has no effect: no check samples at random")
    c.add_argument("--run-id", default="tlab-check")
    c.add_argument("--out", required=True)

    e = sub.add_parser("profile-export",
                       help="CSV of the radial profile and its asymptote gap")
    e.add_argument("--rmax", type=float, default=80.0)
    e.add_argument("--step", type=float, default=1e-3)
    e.add_argument("--out", required=True)

    return parser


def _default_domain(args):
    if args.family == "grim":
        R = GrimParams(args.lam).half_width
        return (-0.75 * R, 0.75 * R, -5.0, 5.0)
    if args.family == "tilted":
        return (-0.8 * args.radius, 0.8 * args.radius, -2.0, 2.0)
    return (-4.0, 4.0, -4.0, 4.0)


def _domain_from(args, defaults) -> Rectangle:
    vals = [args.x1_min, args.x1_max, args.x2_min, args.x2_max]
    vals = [d if v is None else v for v, d in zip(vals, defaults)]
    return Rectangle(*vals)


def _bowl_profile(args, rect: Rectangle):
    """Bowl profile out to --rmax, by default just past the corner radius of rect."""
    corner = math.hypot(max(abs(rect.x1_min), abs(rect.x1_max)),
                        max(abs(rect.x2_min), abs(rect.x2_max)))
    rmax = args.rmax if args.rmax is not None else corner * (1.0 + 1e-9) + args.step
    if rmax < corner:
        raise ValueError(f"--rmax {rmax} does not cover the domain corner radius {corner}")
    return bowl_profile_solve(rmax, args.step)


def cmd_generate(args) -> int:
    rect = _domain_from(args, _default_domain(args))
    if args.family == "grim":
        p = GrimParams(args.lam, 1 if args.tilt == "+" else -1)
        u = grim_grid(p, rect, args.nx, args.ny)
    elif args.family == "tilted":
        cyl = CylinderParams(args.radius, args.t, args.offset)
        u = sample_to_grid(lambda a, b: tilted_cylinder_value(cyl, a, b),
                           rect, args.nx, args.ny)
    else:
        u = bowl_grid(_bowl_profile(args, rect), rect, args.nx, args.ny)
    # before writing: a grid too small for the residual is refused with no file
    res = translator_residual(u)
    rep.write_grid(args.out, u)
    print(f"max_interior_residual {np.nanmax(np.abs(res)):.17g}")
    return 0


def _solve_problem(args):
    """Boundary callable + rectangle + init grid for a solve command."""
    if args.boundary == "grim":
        p = GrimParams(args.lam, 1 if args.tilt == "+" else -1)
        R = p.half_width
        rect = _domain_from(args, (-0.75 * R, 0.75 * R, -3.0, 3.0))
        boundary = lambda a, b: grim_cylinder_value(p, a, b)
    elif args.boundary == "strip":
        p = GrimParams(args.lam, 1 if args.tilt == "+" else -1)
        eps = args.eps_frac * p.half_width
        smoothing = args.smoothing
        if smoothing is None:
            smoothing = max(1.0, args.lam * args.lam - 1.0)
        rect, boundary = strip_boundary_data(p, eps, args.Y, smoothing)
    elif args.boundary == "bowl":
        rect = _domain_from(args, (-4.0, 4.0, -4.0, 4.0))
        boundary = bowl_radial_function(_bowl_profile(args, rect))
    else:
        if not args.boundary_file:
            raise ValueError("--boundary file needs --boundary-file")
        bgrid = rep.read_grid(args.boundary_file)
        rect = bgrid.rect
        boundary = bgrid
        if args.init == "fill":
            init = fill_from_boundary(rect, bgrid.nx, bgrid.ny, bgrid)
            return boundary, init
    if args.init == "file":
        if not args.init_file:
            raise ValueError("--init file needs --init-file")
        init = rep.read_grid(args.init_file)
        if init.rect != rect:
            raise ValueError("init grid domain does not match the solve domain")
    else:
        init = fill_from_boundary(rect, args.nx, args.ny, boundary)
    return boundary, init


def cmd_solve(args) -> int:
    cfg = SolveConfig(tol=args.tol, max_newton_iters=args.max_iters,
                      max_relax_steps=args.max_steps)
    boundary, init = _solve_problem(args)
    if args.mode == "newton":
        outcome = newton_solve(boundary, init, cfg)
    else:
        outcome = parabolic_relax(boundary, init, cfg)
    rep.write_grid(args.out, outcome.solution)
    log_path = args.log if args.log is not None else str(args.out) + ".log"
    lines = [f"{k} {r:.17g}" for k, r in enumerate(outcome.history)]
    status = "converged" if outcome.converged else f"not converged: {outcome.notes}"
    lines.append(f"# {status}; final_residual {outcome.final_residual:.17g}; "
                 f"iterations {outcome.iterations}")
    Path(log_path).write_text("\n".join(lines) + "\n")
    print(f"{'converged' if outcome.converged else 'not-converged'} "
          f"final_residual {outcome.final_residual:.17g} "
          f"iterations {outcome.iterations}")
    return 0 if outcome.converged else 2


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
    # each check runs once, in canonical order, and the report echoes that
    names = [n for n in ck.CANONICAL_ORDER if n in requested and n not in skip]
    reports = ck.run_suite(u, names, ck.SuiteConfig(grim=grim, window=args.window))
    # the flags as given, in parser order, with the suite and skip resolved
    inputs = {("lambda" if k == "lam" else k): v for k, v in vars(args).items()
              if k not in ("command", "run_id", "out")}
    inputs.update(suite=",".join(names), skip=",".join(skip))
    report = rep.report_dict(args.run_id, inputs, reports)
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
        if args.command == "generate":
            return cmd_generate(args)
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "check":
            return cmd_check(args)
        return cmd_profile_export(args)
    except CliUsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
