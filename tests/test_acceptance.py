"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[acceptance N] PASS/FAIL` line (visible with -s or in
failure output) and then asserts, so a red criterion still reports its
measured numbers.
"""

import dataclasses
import math

import numpy as np
import pytest

import tlab
from tlab import reporting
from tlab.geometry import interior_partials, quasilinear_residual


def _verdict(num, ok, detail):
    line = f"[acceptance {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    return ok


def _grim_sample(lam, h=0.01, frac=0.75, x2_span=1.0):
    p = tlab.GrimParams(lam)
    R = p.half_width
    nx = int(round(2 * frac * R / h)) + 1
    ny = int(round(2 * x2_span / h)) + 1
    rect = tlab.Rectangle(-frac * R, frac * R, -x2_span, x2_span)
    return p, tlab.grim_grid(p, rect, nx, ny)


def test_criterion_1_closed_form_exactness():
    """Analytic residual of the grim family <= 1e-12 at 1000 random points."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for lam in (1.0, 1.5, 2.0, 4.0):
        for tilt in (1, -1):
            p = tlab.GrimParams(lam, tilt)
            x1 = rng.uniform(-0.9 * p.half_width, 0.9 * p.half_width, 1000)
            x2 = rng.uniform(-10.0, 10.0, 1000)
            res = tlab.grim_cylinder_residual(p, x1, x2)
            worst = max(worst, float(np.max(np.abs(res))))
    ok = worst <= 1e-12
    assert _verdict(1, ok, f"max |analytic residual| = {worst:.3e} (<= 1e-12)")


def test_criterion_2_discrete_consistency_order():
    """Sampled-grim residual drops by [3.5, 4.5] when h halves 0.02 -> 0.01."""
    p = tlab.GrimParams(2.0)
    rect = tlab.Rectangle(-2.0, 2.0, -1.0, 1.0)
    maxima = {}
    for h in (0.02, 0.01):
        nx = int(round(4.0 / h)) + 1
        ny = int(round(2.0 / h)) + 1
        u = tlab.grim_grid(p, rect, nx, ny)
        maxima[h] = float(np.nanmax(np.abs(tlab.translator_residual(u))))
    ratio = maxima[0.02] / maxima[0.01]
    ok = 3.5 <= ratio <= 4.5
    assert _verdict(2, ok, f"residual ratio h=0.02/h=0.01 = {ratio:.3f} (in [3.5, 4.5])")


def test_criterion_3_bowl_profile(bowl_profile_long):
    """f''(0) = 1/2 within 1e-6 and asymptote gap over [40, 80] < 0.01."""
    f2 = bowl_profile_long.fp[1] / bowl_profile_long.r[1]
    gap = tlab.bowl_asymptote_gap(bowl_profile_long, 40.0, 80.0)
    ok = abs(f2 - 0.5) <= 1e-6 and gap < 0.01
    assert _verdict(3, ok, f"f''(0) = {f2:.9f} (+-1e-6 of 0.5); gap[40,80] = {gap:.3e} (< 0.01)")


def test_criterion_4_solver_vs_oracle(bowl_solves):
    """Manufactured grim solve to 1e-9; bowl solve O(h^2) vs the ODE oracle."""
    p = tlab.GrimParams(2.0)
    rect = tlab.Rectangle(-2.5, 2.5, -3.0, 3.0)
    sample = tlab.grim_grid(p, rect, 101, 121)  # h = 0.05
    boundary = lambda a, b: tlab.grim_cylinder_value(p, a, b)
    forcing = np.zeros_like(sample.values)
    forcing[1:-1, 1:-1] = quasilinear_residual(
        *interior_partials(sample.values, sample.h1, sample.h2))
    t = np.linspace(0, 1, sample.ny)[:, None]
    s = np.linspace(0, 1, sample.nx)[None, :]
    init = tlab.GridFunction(sample.rect,
                             sample.values + 0.5 * np.sin(np.pi * s) * np.sin(np.pi * t))
    out = tlab.newton_solve(boundary, init, tlab.SolveConfig(tol=1e-10), forcing=forcing)
    dev = float(np.max(np.abs(out.solution.values - sample.values)))
    ok_grim = out.converged and out.final_residual <= 1e-10 and dev <= 1e-9

    errs = {}
    for h, (res, oracle) in bowl_solves.items():
        errs[h] = float(np.max(np.abs(res.solution.values - oracle.values)))
    order = math.log2(errs[0.1] / errs[0.05])
    ok_bowl = order >= 1.8
    ok = ok_grim and ok_bowl
    assert _verdict(4, ok,
                    f"grim fixed point: residual {out.final_residual:.2e} (<= 1e-10), "
                    f"deviation {dev:.2e} (<= 1e-9); bowl error {errs[0.1]:.2e} -> "
                    f"{errs[0.05]:.2e}, order {order:.2f} (>= 1.8)")


def test_criterion_5_inequality_suite(bowl_solves, strip_solution, grim2):
    """Convexity, H bound, gradient bounds, Harnack, |A|^2 <= 1 on all solutions."""
    failures = []

    def run(label, fields, grim, grad_tol, strip_like):
        reps = [tlab.check_convexity(fields, 1e-6),
                tlab.check_gradient_bounds(fields, grad_tol),
                tlab.check_harnack(fields, 1e-8),
                tlab.check_A_bound(fields)]
        if strip_like:
            reps.append(tlab.check_strip_H_bound(fields, grim))
        for rep in reps:
            if not rep.passed:
                failures.append(f"{label}/{rep.name} worst={rep.worst_violation:.3e}")

    for lam in (1.0, 2.0):
        p, u = _grim_sample(lam)
        parts = tlab.grim_partials(p, u)
        fields = tlab.geometry_fields(u, parts)
        run(f"exact lam={lam}", fields, p, 1e-8, strip_like=True)

    bowl_out, _ = bowl_solves[0.05]
    ub = bowl_out.solution
    run("bowl solve", tlab.geometry_fields(ub), None, 1e-4, strip_like=False)

    us = strip_solution.solution
    run("strip solve", tlab.geometry_fields(us), grim2, 1e-4, strip_like=True)

    ok = not failures
    assert _verdict(5, ok, "all inequality checks passed on exact, bowl and strip "
                           "solutions" if ok else "; ".join(failures))


def test_criterion_6_identity_suite():
    """Gradient identity at rounding; drift identities O(h^2), order >= 1.8."""
    p = tlab.GrimParams(2.0)
    rect = tlab.Rectangle(-2.0, 2.0, -0.1, 0.1)
    rounding_worst = 0.0
    orders = {}
    worst = {}
    for h in (0.01, 0.005):
        nx = int(round(4.0 / h)) + 1
        ny = int(round(0.2 / h)) + 1
        u = tlab.grim_grid(p, rect, nx, ny)
        parts = tlab.grim_partials(p, u)
        res_a, res_b, res_c = tlab.drift_identity_residuals(tlab.geometry_fields(u, parts))
        rounding_worst = max(rounding_worst, float(np.nanmax(np.abs(res_a))))
        worst[h] = (float(np.nanmax(np.abs(res_b))), float(np.nanmax(np.abs(res_c))))
    orders["drift_H"] = math.log2(worst[0.01][0] / worst[0.005][0])
    orders["drift_W"] = math.log2(worst[0.01][1] / worst[0.005][1])
    ok = rounding_worst <= 1e-13 and all(o >= 1.8 for o in orders.values())
    assert _verdict(6, ok,
                    f"gradient identity residual {rounding_worst:.2e} (rounding); "
                    f"drift-H order {orders['drift_H']:.2f}, "
                    f"drift-W order {orders['drift_W']:.2f} (>= 1.8)")


def test_criterion_7_strip_asymptotics_and_symmetry(strip_solution, grim2):
    """Two-ended strip solve passes both windows at 0.05 and symmetry."""
    u = strip_solution.solution
    fields = tlab.geometry_fields(u)
    top = tlab.check_strip_asymptotics(fields, grim2, 5.0, 0.05, "top")
    bottom = tlab.check_strip_asymptotics(fields, grim2, 5.0, 0.05, "bottom")
    sym_tol = 1e-6 * float(np.max(np.abs(u.values)))
    sym = tlab.check_symmetry(fields, sym_tol)
    ok = top.passed and bottom.passed and sym.passed
    assert _verdict(7, ok,
                    f"top worst {top.worst_violation:.3e}, bottom worst "
                    f"{bottom.worst_violation:.3e} (tol 0.05); symmetry "
                    f"{sym.worst_violation:.3e} (tol {sym_tol:.1e})")


def test_criterion_8_harness_falsifiability(saddle_grid):
    """Synthetic bad inputs must fail with positive worst violations."""
    results = []

    fields_saddle = tlab.geometry_fields(saddle_grid)
    rep = tlab.check_convexity(fields_saddle, 1e-6)
    results.append(("saddle convexity", not rep.passed and rep.worst_violation > 0))

    # lam = 1 runs tight against the edge bound, so a 3x inflation must trip it
    p1, u1 = _grim_sample(1.0, h=0.02, x2_span=0.5)
    fields1 = tlab.geometry_fields(u1)
    inflated = dataclasses.replace(fields1, H=3.0 * fields1.H)
    rep = tlab.check_strip_H_bound(inflated, p1)
    results.append(("inflated H strip bound", not rep.passed and rep.worst_violation > 0))

    p, u = _grim_sample(2.0, h=0.05)
    parts = tlab.partials(u)
    fields = tlab.geometry_fields(u, parts)

    H = fields.H.copy()
    H[7, 7] *= 10.0
    jumpy = dataclasses.replace(fields, H=H)
    rep = tlab.check_harnack(jumpy, 1e-8)
    results.append(("H jump harnack", not rep.passed and rep.worst_violation > 0))

    rect = tlab.Rectangle(-1.0, 1.0, -1.0, 1.0)
    sheared = tlab.sample_to_grid(lambda a, b: a + b, rect, 21, 21)
    rep = tlab.check_symmetry(tlab.geometry_fields(sheared), 1e-9)
    results.append(("asymmetric u symmetry", not rep.passed and rep.worst_violation > 0))

    para = tlab.sample_to_grid(lambda a, b: a * a + 0.0 * b, rect, 21, 21)
    rep = tlab.check_gradient_bounds(tlab.geometry_fields(para), 1e-6)
    results.append(("parabola gradient bound", not rep.passed and rep.worst_violation > 0))

    bad = [name for name, good in results if not good]
    ok = not bad
    assert _verdict(8, ok, "all synthetic failures detected" if ok
                    else f"vacuous checks: {bad}")


def test_criterion_9_format_roundtrips(tmp_path):
    """GridFile and ReportFile write-read-write are byte-identical."""
    p, u = _grim_sample(1.5, h=0.1, x2_span=0.5)
    g1, g2 = tmp_path / "g1.grid", tmp_path / "g2.grid"
    reporting.write_grid(g1, u)
    reporting.write_grid(g2, reporting.read_grid(g1))
    grids_ok = g1.read_bytes() == g2.read_bytes()

    fields = tlab.geometry_fields(u)
    checks = [tlab.check_convexity(fields, 1e-6),
              tlab.check_A_bound(fields)]
    rep = reporting.report_dict("acceptance-9", {"lambda": 1.5, "h": 0.1}, checks)
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    reporting.write_report(r1, rep)
    reporting.write_report(r2, reporting.read_report(r1))
    reports_ok = r1.read_bytes() == r2.read_bytes()

    ok = grids_ok and reports_ok
    assert _verdict(9, ok, f"grid byte-identical: {grids_ok}; "
                           f"report byte-identical: {reports_ok}")
