import hashlib
import math
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

import tlab
from tlab.geometry import interior_partials, quasilinear_residual
from tlab.solver import (_OFFSETS, _PANEL_SIZE, _RKL_STAGES, _SUPERNODE_RELAX, _factorize,
                         _fold_origin, _jacobian, _mirror, _mirror_axes, _norm,
                         _preconditioned_step, _residual, _rounding_floor,
                         _stencil_pattern)


def _grim_problem(lam=2.0, rect=(-2.5, 2.5, -3.0, 3.0), nx=51, ny=61):
    p = tlab.GrimParams(lam)
    rect = tlab.Rectangle(*rect)
    boundary = lambda a, b: tlab.grim_cylinder_value(p, a, b)
    sample = tlab.grim_grid(p, rect, nx, ny)
    return p, rect, boundary, sample


def _manufactured_forcing(sample):
    forcing = np.zeros_like(sample.values)
    forcing[1:-1, 1:-1] = quasilinear_residual(
        *interior_partials(sample.values, sample.h1, sample.h2))
    return forcing


def _bump(ny, nx, amp):
    t = np.linspace(0.0, 1.0, ny)[:, None]
    s = np.linspace(0.0, 1.0, nx)[None, :]
    return amp * np.sin(np.pi * s) * np.sin(np.pi * t)


def _zero(a, b):
    return np.zeros(np.broadcast_shapes(np.shape(a), np.shape(b)))


def _noisy_grim(nx, ny, amp, seed):
    # the exact lambda = 2 grim sample with U(-amp, amp) noise on the interior
    p, rect, boundary, sample = _grim_problem(nx=nx, ny=ny)
    noisy = sample.values.copy()
    rng = np.random.default_rng(seed)
    noisy[1:-1, 1:-1] += rng.uniform(-amp, amp, size=noisy[1:-1, 1:-1].shape)
    return boundary, sample, tlab.GridFunction(sample.rect, noisy)


class TestNewton:
    def test_manufactured_grim_recovers_sample(self):
        p, rect, boundary, sample = _grim_problem(nx=101, ny=121)
        forcing = _manufactured_forcing(sample)
        init = tlab.GridFunction(sample.rect, sample.values + _bump(sample.ny, sample.nx, 0.5))
        cfg = tlab.SolveConfig(tol=1e-10)
        out = tlab.newton_solve(boundary, init, cfg, forcing=forcing)
        assert out.converged
        assert out.final_residual <= 1e-10
        assert np.max(np.abs(out.solution.values - sample.values)) <= 1e-9

    def test_forcing_must_have_the_grid_shape(self):
        p, rect, boundary, sample = _grim_problem(nx=21, ny=21)
        interior = _manufactured_forcing(sample)[1:-1, 1:-1]
        with pytest.raises(ValueError, match="forcing shape does not match the grid"):
            tlab.newton_solve(boundary, sample, tlab.SolveConfig(), forcing=interior)

    def test_plain_solve_is_second_order_accurate(self):
        errs = {}
        for nx, ny in [(51, 61), (101, 121)]:
            p, rect, boundary, sample = _grim_problem(nx=nx, ny=ny)
            init = tlab.fill_from_boundary(rect, nx, ny, boundary)
            out = tlab.newton_solve(boundary, init, tlab.SolveConfig(tol=1e-10))
            assert out.converged
            errs[nx] = np.max(np.abs(out.solution.values - sample.values))
        assert errs[51] / errs[101] >= 3.0

    def test_zero_boundary_cap_regression(self):
        # fine-grid oracle value frozen from a 257x257 run: min u = -0.0744772
        rect = tlab.Rectangle(-0.5, 0.5, -0.5, 0.5)
        zero = lambda a, b: np.zeros(np.broadcast_shapes(np.shape(a), np.shape(b)))
        init = tlab.GridFunction(rect, np.zeros((65, 65)))
        out = tlab.newton_solve(zero, init, tlab.SolveConfig(tol=1e-11))
        assert out.converged
        assert np.all(out.solution.values[1:-1, 1:-1] < 0.0)
        assert np.min(out.solution.values) == pytest.approx(-0.0744772, abs=2e-5)

    def test_noisy_init_contract(self):
        # damped Newton alone does not globalize this start: its line search
        # stalls about 5e4 off after 50 iterations. Relaxed to 1e-2 first,
        # the start converges to the solve from the sample
        boundary, sample, noisy = _noisy_grim(31, 37, 10.0, seed=7)
        cfg = tlab.SolveConfig(tol=1e-9, max_newton_iters=50)
        alone = tlab.newton_solve(boundary, noisy, cfg)
        assert (alone.status, alone.converged) == ("stalled", False)
        assert alone.final_residual > cfg.tol
        assert alone.notes
        pre = tlab.parabolic_relax(boundary, noisy, tlab.SolveConfig(tol=1e-2))
        assert pre.converged
        out = tlab.newton_solve(boundary, pre.solution, cfg)
        assert out.converged
        assert out.final_residual <= cfg.tol
        reference = tlab.newton_solve(boundary, sample, cfg)
        assert np.max(np.abs(out.solution.values - reference.solution.values)) <= 1e-6

    def test_singular_jacobian_ends_unconverged_with_iterate(self, monkeypatch):
        p, rect, boundary, sample = _grim_problem(nx=11, ny=11)
        calls = {"n": 0}

        def bad_factorize(J):
            calls["n"] += 1
            return lambda rhs: np.full(J.shape[0], np.nan)

        monkeypatch.setattr(tlab.solver, "_factorize", bad_factorize)
        init = tlab.GridFunction(sample.rect, sample.values + _bump(11, 11, 0.1))
        out = tlab.newton_solve(boundary, init, tlab.SolveConfig(tol=1e-12))
        assert not out.converged
        assert out.notes.startswith("singular Jacobian")
        assert calls["n"] == 1  # no retry
        # the x1-folded iterate comes back on the full grid: the init's ring,
        # an exactly even interior
        U, V = out.solution.values, init.values
        assert U.shape == V.shape
        for edge in (np.s_[0, :], np.s_[-1, :], np.s_[:, 0], np.s_[:, -1]):
            assert U[edge].tobytes() == V[edge].tobytes()
        inner = U[1:-1, 1:-1]
        assert np.array_equal(inner, inner[:, ::-1])

    def test_exactly_singular_jacobian_gives_nonfinite_step(self):
        # the real factorization must hand Newton a nonfinite step, not raise,
        # so the singular-Jacobian outcome above stays reachable
        p, rect, boundary, sample = _grim_problem(nx=11, ny=11)
        J = _jacobian(sample.values, sample.h1, sample.h2).tolil()
        J[4, :] = 0.0
        delta = _factorize(J.tocsc())(np.ones(J.shape[0]))
        assert delta.shape == (J.shape[0],)
        assert not np.all(np.isfinite(delta))

    def test_rough_iterate_keeps_the_ordering_fill(self):
        # SuperLU's default partial pivoting threw the minimum-degree ordering
        # away on this noisy start: 3,729,585 nonzeros in L + U against 200,298
        R = tlab.GrimParams(2.0).half_width
        _, _, _, sample = _grim_problem(rect=(-0.75 * R, 0.75 * R, -3.0, 3.0), nx=61, ny=67)
        rng = np.random.default_rng(0)
        noisy = sample.values.copy()
        noisy[1:-1, 1:-1] += rng.uniform(-10.0, 10.0, size=noisy[1:-1, 1:-1].shape)

        def fill(U):
            # the returned solve keeps its SuperLU factor as lu
            lu = _factorize(_jacobian(U, sample.h1, sample.h2)).lu
            return lu.L.nnz + lu.U.nnz

        assert fill(noisy) <= 2 * fill(sample.values)

    def test_jacobian_matches_central_differences(self):
        p, rect, boundary, sample = _grim_problem(nx=9, ny=7)
        U = sample.values + _bump(7, 9, 0.3)
        J = _jacobian(U, sample.h1, sample.h2)
        assert J.format == "csc" and J.has_sorted_indices
        rng = np.random.default_rng(3)
        v = np.zeros_like(U)
        v[1:-1, 1:-1] = rng.standard_normal((5, 7))
        f_int = np.zeros((5, 7))
        eps = 1e-6
        fd = (_residual(U + eps * v, sample.h1, sample.h2, f_int)[0]
              - _residual(U - eps * v, sample.h1, sample.h2, f_int)[0]) / (2.0 * eps)
        np.testing.assert_allclose(J @ v[1:-1, 1:-1].ravel(), fd.ravel(), rtol=1e-6, atol=1e-6)

    def test_preconditioned_step_solves_rhs_once(self):
        # the factor's step from rhs is GMRES's start and also the M*rhs it
        # scales its tolerance by; the kept factor must not solve it twice
        p, rect, boundary, sample = _grim_problem(nx=21, ny=25)
        h1, h2 = sample.h1, sample.h2
        solve = _factorize(_jacobian(sample.values, h1, h2))
        U = sample.values + _bump(25, 21, 0.2)
        J = _jacobian(U, h1, h2)
        rhs = -_residual(U, h1, h2, np.zeros((23, 19)))[0].ravel()
        seen = []

        def counted(v):
            seen.append(np.array_equal(v, rhs))
            return solve(v)

        x, met = _preconditioned_step(J, rhs, counted, 1e-8)
        assert met
        assert seen.count(True) == 1 and len(seen) >= 2
        assert np.linalg.norm(J @ x - rhs) <= 1e-8 * np.linalg.norm(rhs)

    def test_strip_solve_reuses_factorizations(self, strip_solution):
        assert strip_solution.converged
        assert (strip_solution.iterations, strip_solution.factorizations) == (6, 1)

    def test_strip_cycles_all_run_on_the_fill_lu(self, strip_cycles):
        # the fill's float32 LU meets its own step's target with one solve
        # and serves the five later cycles, the first of which scipy's
        # left-preconditioned gmres refused at a true residual of 2.55e-2
        # against 1e-2. Without the tol / 2 floor the last cycle was asked
        # for 3.8e-15, gave up after two inner iterations, and a second LU
        # was factored for it
        out, cycles = strip_cycles
        assert (out.status, out.iterations, out.factorizations) == ("converged", 6, 1)
        assert [(solves, met) for solves, met, _ in cycles] == [
            (1, True), (4, True), (4, True), (3, True), (6, True), (6, True)]

    def test_strip_cycle_targets_stop_at_half_tol(self, strip_cycles):
        # each cycle's absolute target rtol |rhs| is the forcing term's until
        # that falls under tol / 2, which only the last step's does
        out, cycles = strip_cycles
        tol = tlab.SolveConfig().tol
        targets = [target for _, _, target in cycles]
        assert all(t > 0.5 * tol for t in targets[:-1])
        assert targets[-1] >= 0.5 * tol
        assert targets[-1] == pytest.approx(0.5 * tol, rel=4 * np.finfo(float).eps)
        # the fill's LU finishes the solve
        assert out.factorizations == 1 and cycles[-1][1]

    @pytest.mark.parametrize("bad", [np.nan, 0.0], ids=["nan", "zero"])
    @pytest.mark.parametrize("bad_from", [1, 2], ids=["start", "arnoldi"])
    def test_cycle_gives_up_on_a_nonfinite_or_zero_product(self, bad_from, bad):
        # J @ x turns NaN, or 0 as for a singular J, from the bad_from-th
        # product on: the start's residual, or the first Arnoldi vector's.
        # A zero product zeroes the rotated Hessenberg diagonal; no warning
        # or LinAlgError escapes
        p, rect, boundary, sample = _grim_problem(nx=21, ny=25)
        h1, h2 = sample.h1, sample.h2
        solve = _factorize(_jacobian(sample.values, h1, h2))
        U = sample.values + _bump(25, 21, 0.2)
        J = _jacobian(U, h1, h2)
        rhs = -_residual(U, h1, h2)[0].ravel()
        assert _preconditioned_step(J, rhs, solve, 1e-8)[1]

        class Poisoned:
            products = 0

            def __matmul__(self, x):
                self.products += 1
                y = J @ x
                return y if self.products < bad_from else np.full_like(y, bad)

        # a miss gives back the cycle's start, the factor's own step
        x, met = _preconditioned_step(Poisoned(), rhs, solve, 1e-8)
        assert not met
        assert np.array_equal(x, solve(rhs))

    def test_ring_mismatch_rejected(self):
        p, rect, boundary, sample = _grim_problem(nx=11, ny=11)
        off = tlab.GridFunction(sample.rect, sample.values + 1.0)
        with pytest.raises(ValueError, match="ring"):
            tlab.newton_solve(boundary, off, tlab.SolveConfig())

    def test_quadratic_tail(self):
        p, rect, boundary, sample = _grim_problem(nx=51, ny=61)
        init = tlab.fill_from_boundary(rect, 51, 61, boundary)
        out = tlab.newton_solve(boundary, init, tlab.SolveConfig(tol=1e-10))
        hist = np.array(out.history)
        below = np.where(hist < 1e-3)[0]
        tail = hist[below[0] - 1:]
        # superlinear: contraction factors strictly improve down the tail
        ratios = tail[1:] / tail[:-1]
        assert len(ratios) >= 2
        assert np.all(np.diff(ratios) < 0.0)
        # fitted quadratic-convergence constants stay bounded
        cs = tail[1:] / tail[:-1] ** 2
        assert np.all(cs < 1e3)

    def test_discrete_comparison_principle(self):
        rect = tlab.Rectangle(-0.5, 0.5, -0.5, 0.5)
        tol = 1e-10
        g_low = lambda a, b: np.zeros(np.broadcast_shapes(np.shape(a), np.shape(b)))
        g_high = lambda a, b: 0.1 * np.broadcast_to(a * a, np.broadcast_shapes(np.shape(a), np.shape(b)))
        cfg = tlab.SolveConfig(tol=tol)
        u_low = tlab.newton_solve(g_low, tlab.GridFunction(rect, np.zeros((41, 41))),
                                  cfg).solution
        init_high = tlab.fill_from_boundary(rect, 41, 41, g_high)
        u_high = tlab.newton_solve(g_high, init_high, cfg).solution
        assert np.all(u_high.values >= u_low.values - 10.0 * tol)

    def test_converged_residual_reevaluates_below_tol(self):
        p, rect, boundary, sample = _grim_problem(nx=41, ny=41)
        init = tlab.fill_from_boundary(rect, 41, 41, boundary)
        cfg = tlab.SolveConfig(tol=1e-10)
        out = tlab.newton_solve(boundary, init, cfg)
        res = tlab.translator_residual(out.solution)
        assert np.nanmax(np.abs(res)) <= cfg.tol

    def test_interpolated_residual_is_second_order(self):
        from scipy.interpolate import RectBivariateSpline
        rect = tlab.Rectangle(-2.0, 2.0, -1.0, 1.0)
        p = tlab.GrimParams(2.0)
        boundary = lambda a, b: tlab.grim_cylinder_value(p, a, b)
        worst = {}
        for nx, ny in [(41, 21), (81, 41)]:
            init = tlab.fill_from_boundary(rect, nx, ny, boundary)
            out = tlab.newton_solve(boundary, init, tlab.SolveConfig(tol=1e-10))
            u = out.solution
            # converged residual re-evaluates below tol on its own grid
            assert np.nanmax(np.abs(tlab.translator_residual(u))) <= 1e-10
            spline = RectBivariateSpline(u.x2(), u.x1(), u.values, kx=3, ky=3)
            fine = tlab.GridFunction(
                rect, spline(np.linspace(rect.x2_min, rect.x2_max, 2 * u.ny - 1),
                             np.linspace(rect.x1_min, rect.x1_max, 2 * u.nx - 1)))
            res = np.nanmax(np.abs(tlab.translator_residual(fine)))
            assert res <= 12.0 * u.h1 ** 2
            worst[u.h1] = res
        assert worst[0.1] / worst[0.05] >= 3.0

    def test_history_invariants(self):
        p, rect, boundary, sample = _grim_problem(nx=31, ny=31)
        init = tlab.fill_from_boundary(rect, 31, 31, boundary)
        out = tlab.newton_solve(boundary, init, tlab.SolveConfig(tol=1e-10))
        hist = np.array(out.history)
        assert np.all(hist > 0.0)
        assert np.all(np.isfinite(hist))
        assert out.final_residual == hist[-1]
        if out.converged:
            assert out.final_residual <= 1e-10


@pytest.mark.parametrize("solver", [tlab.newton_solve, tlab.parabolic_relax])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_boundary_data_rejected(solver, bad):
    # NaN and inf compare false against any ring-mismatch bound
    p, rect, boundary, sample = _grim_problem(nx=21, ny=21)
    nonfinite = lambda a, b: np.full(np.broadcast_shapes(np.shape(a), np.shape(b)), bad)
    with pytest.raises(ValueError, match="not finite"):
        solver(nonfinite, sample, tlab.SolveConfig())


@pytest.mark.parametrize("solver", [tlab.newton_solve, tlab.parabolic_relax])
@pytest.mark.parametrize("rect", [(-1.7e308, 1.7e308, 0.0, 1.0), (0.0, 1.0, 0.0, 1e-310)],
                         ids=["width overflows", "step squares to 0"])
def test_steps_that_cannot_be_differenced_rejected(solver, rect):
    init = tlab.GridFunction(tlab.Rectangle(*rect), np.zeros((5, 5)))
    with pytest.raises(ValueError, match=r"cannot difference a 5x5 grid on the rectangle"):
        solver(_zero, init, tlab.SolveConfig())


@pytest.mark.parametrize("budget", ["max_newton_iters", "max_relax_steps"])
def test_negative_budget_rejected(budget):
    for bad in (-1, -3):
        with pytest.raises(ValueError, match=f"{budget} must be >= 0"):
            tlab.SolveConfig(**{budget: bad})


@pytest.mark.parametrize("solver, budget", [(tlab.newton_solve, "max_newton_iters"),
                                            (tlab.parabolic_relax, "max_relax_steps")])
def test_zero_budget_evaluates_the_start_only(solver, budget):
    p, rect, boundary, sample = _grim_problem(nx=21, ny=21)
    init = tlab.fill_from_boundary(rect, 21, 21, boundary)
    out = solver(boundary, init, tlab.SolveConfig(**{budget: 0}))
    assert out.iterations == 0 and not out.converged
    assert out.history == [out.final_residual]
    # Newton's fold may mirror the start, which moves it by rounding only
    scale = np.max(np.abs(init.values))
    assert np.max(np.abs(out.solution.values - init.values)) <= 16 * np.finfo(float).eps * scale


def _strip_problem(nx=21, ny=41):
    g2 = tlab.GrimParams(2.0)
    rect, g = tlab.strip_boundary_data(g2, 0.25 * g2.half_width, 6.0, 3.0)
    return g, tlab.fill_from_boundary(rect, nx, ny, g)


def _one_sided(init, amp=1e-9):
    # a bump on one interior node off both centre lines breaks every mirror
    V = init.values.copy()
    V[init.ny // 2 - 3, init.nx // 2 + 2] += amp
    return tlab.GridFunction(init.rect, V)


def _grim_fill(nx=31, ny=37):
    p, rect, boundary, sample = _grim_problem(nx=nx, ny=ny)
    return boundary, tlab.fill_from_boundary(rect, nx, ny, boundary)


def _ring_asymmetric_strip():
    g, init = _strip_problem()
    V = init.values.copy()
    V[init.ny // 2 - 3, 0] += 64 * np.finfo(float).eps * np.max(np.abs(V))
    return g, tlab.GridFunction(init.rect, V)


def _stalled_strip():
    # lambda = 5 with the CLI's default smoothing: the fold stops at its
    # rounding floor, and so does the full grid without a pass of its own
    g5 = tlab.GrimParams(5.0)
    rect, g = tlab.strip_boundary_data(g5, 0.25 * g5.half_width, 6.0, 24.0)
    return g, tlab.fill_from_boundary(rect, 61, 121, g)


class TestMirrorFold:
    def test_mirror_axes(self, strip_solution):
        assert strip_solution.mirror_axes == ("x1", "x2")
        cfg = tlab.SolveConfig()
        boundary, init = _grim_fill()
        assert tlab.newton_solve(boundary, init, cfg).mirror_axes == ("x1",)
        boundary, init = _grim_fill(30, 36)
        assert tlab.newton_solve(boundary, init, cfg).mirror_axes == ()
        g, init = _strip_problem(20, 40)
        assert tlab.newton_solve(g, init, cfg).mirror_axes == ()

    @pytest.mark.parametrize("problem, axes", [(_strip_problem, ("x1", "x2")),
                                               (_grim_fill, ("x1",))])
    def test_folded_solve_equals_full_solve(self, problem, axes):
        # the one-sided bump of 1e-9 disables the fold: a full solve
        boundary, init = problem()
        cfg = tlab.SolveConfig(tol=1e-10)
        folded = tlab.newton_solve(boundary, init, cfg)
        full = tlab.newton_solve(boundary, _one_sided(init), cfg)
        assert folded.mirror_axes == axes and full.mirror_axes == ()
        assert folded.converged and full.converged
        assert np.max(np.abs(folded.solution.values - full.solution.values)) <= 1e-12

    def test_ring_asymmetry_inside_fold_tolerance_still_converges(self):
        # 64 ulps of max|U| on one ring node of the mirror side: the problem
        # still folds, but the even solution's residual there misses tol
        g, init = _strip_problem()
        cfg = tlab.SolveConfig(tol=1e-12)
        V = init.values.copy()
        V[init.ny // 2 - 3, 0] += 64 * np.finfo(float).eps * np.max(np.abs(V))
        even = tlab.newton_solve(g, init, cfg).solution.values.copy()
        even[:, 0] = V[:, 0]
        even_res = np.nanmax(np.abs(tlab.translator_residual(tlab.GridFunction(init.rect, even))))
        assert even_res > 2.0 * cfg.tol
        out = tlab.newton_solve(g, tlab.GridFunction(init.rect, V), cfg)
        full = tlab.newton_solve(g, _one_sided(tlab.GridFunction(init.rect, V)), cfg)
        assert out.mirror_axes == ("x1", "x2") and full.mirror_axes == ()
        assert out.converged and full.converged
        res = float(np.nanmax(np.abs(tlab.translator_residual(out.solution))))
        assert out.final_residual == res == out.history[-1] <= cfg.tol
        assert out.solution.values[:, 0].tobytes() == V[:, 0].tobytes()
        assert np.max(np.abs(out.solution.values - full.solution.values)) <= 1e-12

    @pytest.mark.parametrize("problem", [_strip_problem, _grim_fill])
    def test_unfolded_interior_is_even_and_ring_is_kept(self, problem):
        boundary, init = problem()
        out = tlab.newton_solve(boundary, init, tlab.SolveConfig())
        U, V = out.solution.values, init.values
        assert out.converged and out.mirror_axes
        inner = U[1:-1, 1:-1]
        assert np.array_equal(inner, inner[:, ::-1])
        if "x2" in out.mirror_axes:
            assert np.array_equal(inner, inner[::-1, :])
        for edge in (np.s_[0, :], np.s_[-1, :], np.s_[:, 0], np.s_[:, -1]):
            assert U[edge].tobytes() == V[edge].tobytes()
        # converged, final_residual and history[-1] are the full grid's
        res = float(np.nanmax(np.abs(tlab.translator_residual(out.solution))))
        assert out.final_residual == res == out.history[-1]

    def test_stalled_line_search_restores_the_iterate(self, monkeypatch):
        # every trial of a huge step raises the residual: the trials written
        # into the iterate are undone, so the solve returns the mirrored init
        monkeypatch.setattr(tlab.solver, "_MIN_STEP_FRACTION", 0.25)
        monkeypatch.setattr(tlab.solver, "_factorize",
                            lambda J: lambda rhs: np.full(np.shape(rhs), 1e3))
        boundary, init = _strip_problem()
        out = tlab.newton_solve(boundary, init, tlab.SolveConfig())
        assert out.mirror_axes == ("x1", "x2")
        assert not out.converged and out.notes.startswith("backtracking stalled")
        expected = init.values.copy()
        _mirror(expected, out.mirror_axes)
        assert out.solution.values.tobytes() == expected.tobytes()
        res = float(np.nanmax(np.abs(tlab.translator_residual(out.solution))))
        assert out.final_residual == res == out.history[-1]

    @pytest.mark.parametrize("axes", [("x1",), ("x2",), ("x1", "x2")])
    def test_folded_jacobian_matches_central_differences(self, axes):
        p, rect, boundary, sample = _grim_problem(nx=11, ny=9)
        h1, h2 = sample.h1, sample.h2
        j0, i0 = _fold_origin(sample.values.shape, axes)
        full = sample.values + _bump(9, 11, 0.3)
        _mirror(full, axes)
        U = full[j0:, i0:]
        J = _jacobian(U, h1, h2, axes=axes)
        assert J.format == "csc" and J.has_sorted_indices
        shape = (U.shape[0] - 2, U.shape[1] - 2)
        v = np.zeros_like(U)
        v[1:-1, 1:-1] = np.random.default_rng(5).standard_normal(shape)

        def folded_residual(W):
            G = full.copy()
            G[j0:, i0:] = W
            _mirror(G, axes)
            return _residual(G[j0:, i0:], h1, h2)[0]

        eps = 1e-6
        fd = (folded_residual(U + eps * v) - folded_residual(U - eps * v)) / (2.0 * eps)
        np.testing.assert_allclose(J @ v[1:-1, 1:-1].ravel(), fd.ravel(), rtol=1e-6, atol=1e-6)

    def test_unfolded_solves_pinned(self):
        # problems with no mirror run today's full-grid loop, bit for bit
        cfg = tlab.SolveConfig()
        boundary, init = _grim_fill(30, 36)
        out = tlab.newton_solve(boundary, init, cfg)
        assert out.history[-1].hex() == "0x1.a900000000000p-40"
        assert (hashlib.sha256(out.solution.values.tobytes()).hexdigest()
                == "956beb758ff01ed176cb7fd790526d949dc2dd7c20d184182a04c45a072ac5b0")
        g, init = _strip_problem()
        out = tlab.newton_solve(g, _one_sided(init), cfg)
        assert out.history[-1].hex() == "0x1.a4c0000000000p-36"
        assert (hashlib.sha256(out.solution.values.tobytes()).hexdigest()
                == "d215fa19714c9af356816bfce700e7e3083d339a55e1e06db020b5442f749ea2")

    @pytest.mark.parametrize("problem, tol, axes, counts, digest, history", [
        (_strip_problem, 1e-10, ("x1", "x2"), (True, 6, 1),
         "01e37d11580481ea8491240ecf2dfc8a1e3b3183d7175342401d5a1eb14caaa6",
         "0x1.0c1b4b166b70ap+2 0x1.0d404a2e8ff48p+0 0x1.c43b83b42aaa0p-3 "
         "0x1.1d7a90d8f2800p-7 0x1.e6957abe70000p-14 0x1.83edf40000000p-29 "
         "0x1.3e90000000000p-36"),
        (_grim_fill, 1e-10, ("x1",), (True, 3, 1),
         "23c6f5b7677f358e19fde181019a0fd09ee9e453e69c8cea8cb4c47cd1c5d450",
         "0x1.20a5999e00d00p-3 0x1.10a2cc5780000p-13 0x1.5a0e000000000p-32 "
         "0x1.2c80000000000p-39"),
        (_ring_asymmetric_strip, 1e-12, ("x1", "x2"), (True, 7, 2),
         "7d9398641ba958e3922a9f3622e0c7301a2b6a6c52c9ba455f189cc2153aa2d9",
         "0x1.0c1b4b166b70ap+2 0x1.0d404a2e8ff48p+0 0x1.c43b83b42aaa0p-3 "
         "0x1.1d7a90d8f2800p-7 0x1.e6957abe70000p-14 0x1.83edf40000000p-29 "
         "0x1.1680000000000p-38 0x1.2c00000000000p-41"),
        (_stalled_strip, 1e-10, ("x1", "x2"), (False, 7, 1),
         "c895fa085a985e9d90d99a3ca767a639f46f18ab58f1c45ee9e31b8731170ce6",
         "0x1.eab01661541e8p+3 0x1.0f8b3ea24c100p-1 0x1.8a37305875a40p-4 "
         "0x1.5900334897000p-8 0x1.0a25b99580000p-16 0x1.2670000000000p-33 "
         "0x1.0e98000000000p-33 0x1.1768000000000p-32"),
    ], ids=["strip 21x41", "grim 31x37", "ring-asymmetric strip", "stalled strip"])
    def test_folded_solves_pinned(self, problem, tol, axes, counts, digest, history):
        boundary, init = problem()
        out = tlab.newton_solve(boundary, init, tlab.SolveConfig(tol=tol))
        assert out.mirror_axes == axes
        assert (out.converged, out.iterations, out.factorizations) == counts
        assert hashlib.sha256(out.solution.values.tobytes()).hexdigest() == digest
        assert " ".join(h.hex() for h in out.history) == history


def _counting(mp, name):
    """Replace tlab.solver's name by a wrapper; returns the list of the
    positional arguments of each call."""
    calls = []
    fn = getattr(tlab.solver, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    mp.setattr(tlab.solver, name, counted)
    return calls


def _cli_strip(lam, nx=61, ny=121, Y=6.0):
    # `tlab solve newton --boundary strip` with the CLI's default smoothing
    p = tlab.GrimParams(lam)
    rect, g = tlab.strip_boundary_data(p, 0.25 * p.half_width, Y, max(1.0, lam * lam - 1.0))
    return g, tlab.fill_from_boundary(rect, nx, ny, g)


@pytest.fixture(scope="module")
def strip_cycles():
    """The 121x601 strip solved from the fill at the default tol, with each
    GMRES cycle's (solves, met, absolute target), the target computed as
    the cycle computes it."""
    cycles = []
    step = tlab.solver._preconditioned_step

    def counted(J, rhs, solve, rtol):
        solves = []
        x, met = step(J, rhs, lambda v: solves.append(v) or solve(v), rtol)
        cycles.append((len(solves), met, rtol * _norm(rhs)))
        return x, met

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tlab.solver, "_preconditioned_step", counted)
        g, init = _cli_strip(2.0, 121, 601, 30.0)
        out = tlab.newton_solve(g, init, tlab.SolveConfig(max_newton_iters=60))
    return out, cycles


@pytest.fixture(scope="module")
def grim_303():
    """The 303x303 grim solve from the fill on the CLI's default domain, with
    the residual evaluations and rounding floor estimates it made."""
    with pytest.MonkeyPatch.context() as mp:
        residuals = _counting(mp, "_residual")
        floors = _counting(mp, "_rounding_floor")
        boundary, init = _grim_box(303, 303)
        out = tlab.newton_solve(boundary, init, tlab.SolveConfig())
    return out, len(residuals), len(floors)


def _floor_ratio(out):
    U = out.solution.values
    h1, h2 = out.solution.h1, out.solution.h2
    return _rounding_floor(U, h1, h2) / float(np.max(np.abs(_residual(U, h1, h2)[0])))


class TestRoundingFloor:
    @pytest.mark.parametrize("lam", [3.0, 5.0, 8.0])
    def test_estimate_bounds_the_strip_residuals(self, lam):
        # max(est) / max|F| read 2.77, 2.79 and 2.41 on these solves
        out = tlab.newton_solve(*_cli_strip(lam), tlab.SolveConfig())
        assert 2.0 <= _floor_ratio(out) <= 5.0

    def test_estimate_bounds_the_benchmark_residuals(self, strip_solution, grim_303):
        # 3.06 on the converged strip, 3.26 on the grim that stops at its floor
        for out in (strip_solution, grim_303[0]):
            assert 2.0 <= _floor_ratio(out) <= 5.0

    def test_strip_full_step_converges_from_below_the_floor(self, strip_solution):
        # the converged strip plus a bump whose linearized residual is halfway
        # between tol and the floor: the start is within the floor and above
        # tol, and its first full step still converges, so the floor is never
        # tested at the top of an iteration
        sol = strip_solution.solution
        U, h1, h2 = sol.values, sol.h1, sol.h2
        tol = 1e-10
        bump = _bump(*U.shape, 1.0)
        slope = np.max(np.abs(_jacobian(U, h1, h2) @ bump[1:-1, 1:-1].ravel()))
        scale = 0.5 * (tol + _rounding_floor(U, h1, h2)) / slope
        start = tlab.GridFunction(sol.rect, U + scale * bump)
        out = tlab.newton_solve(sol, start, tlab.SolveConfig(tol=tol))
        assert out.mirror_axes == ("x1", "x2")
        assert tol < out.history[0] <= _rounding_floor(start.values, h1, h2)
        assert (out.status, out.iterations) == ("converged", 1)

    def test_grim_stops_at_the_floor_without_halving(self, grim_303):
        # backtracking used to halve 30 times below the floor: 35 residual
        # evaluations, now 5 and one estimate
        out, residuals, floors = grim_303
        assert out.status == "at_rounding_floor" and not out.converged
        assert out.notes.startswith("at rounding floor: ")
        assert (out.iterations, out.factorizations) == (3, 1)
        assert (residuals, floors) == (5, 1)
        assert out.final_residual > 1e-10
        R = tlab.GrimParams(2.0).half_width
        oracle = tlab.grim_grid(tlab.GrimParams(2.0),
                                tlab.Rectangle(-0.75 * R, 0.75 * R, -3.0, 3.0), 303, 303)
        assert np.max(np.abs(out.solution.values - oracle.values)) <= 1e-4

    def test_ring_asymmetric_strip_still_takes_the_full_grid_pass(self, monkeypatch):
        # its even solution misses tol on the mirror side by more than
        # rounding: an estimate that stopped this solve would be too loose
        jacobians = _counting(monkeypatch, "_jacobian")
        g, init = _ring_asymmetric_strip()
        out = tlab.newton_solve(g, init, tlab.SolveConfig(tol=1e-12))
        assert out.status == "converged" and out.final_residual <= 1e-12
        axes = [call[4] for call in jacobians]  # _jacobian(U, h1, h2, pattern, axes)
        assert ("x1", "x2") in axes and () in axes

    @pytest.mark.slow
    def test_large_strip_stops_at_the_floor_before_the_full_grid_pass(self, monkeypatch):
        # the 241x1201 strip's folded pass ends within its floor, and the
        # full-grid residual is within it too, so no full-grid pass runs
        jacobians = _counting(monkeypatch, "_jacobian")
        g, init = _cli_strip(2.0, 241, 1201, 30.0)
        out = tlab.newton_solve(g, init, tlab.SolveConfig(max_newton_iters=60))
        assert out.status == "at_rounding_floor"
        assert out.mirror_axes == ("x1", "x2")
        assert all(call[4] == ("x1", "x2") for call in jacobians)
        assert (out.iterations, out.factorizations) == (7, 1)


class TestStatus:
    def test_converged(self):
        out = tlab.newton_solve(*_grim_fill(), tlab.SolveConfig())
        assert (out.status, out.converged, out.notes) == ("converged", True, "")

    def test_at_rounding_floor(self):
        out = tlab.newton_solve(*_stalled_strip(), tlab.SolveConfig())
        assert (out.status, out.converged) == ("at_rounding_floor", False)
        assert out.final_residual > 1e-10
        assert out.notes.startswith("at rounding floor: the residual is within")

    def test_stalled_above_the_floor(self, monkeypatch):
        # a huge step fails at every fraction from a start far above the floor
        monkeypatch.setattr(tlab.solver, "_MIN_STEP_FRACTION", 0.25)
        monkeypatch.setattr(tlab.solver, "_factorize",
                            lambda J: lambda rhs: np.full(np.shape(rhs), 1e3))
        out = tlab.newton_solve(*_strip_problem(), tlab.SolveConfig())
        assert (out.status, out.converged) == ("stalled", False)
        assert out.notes.startswith("backtracking stalled")

    def test_converged_is_read_from_status(self):
        out = tlab.solver.SolveOutcome(solution=None, final_residual=0.0, iterations=0,
                                       status="converged")
        assert out.converged
        with pytest.raises(AttributeError):
            out.converged = False
        with pytest.raises(TypeError):
            tlab.solver.SolveOutcome(solution=None, final_residual=0.0, iterations=0,
                                     status="budget", converged=True)
        out.status = "budget"
        assert not out.converged

    def test_singular(self, monkeypatch):
        monkeypatch.setattr(tlab.solver, "_factorize",
                            lambda J: lambda rhs: np.full(np.shape(rhs), np.nan))
        out = tlab.newton_solve(*_grim_fill(), tlab.SolveConfig())
        assert (out.status, out.notes) == ("singular", "singular Jacobian at iteration 0")

    def test_missed_cycle_takes_the_direct_step(self, monkeypatch):
        # at rtol 0 every cycle abandons at k = 2 and gives back its start,
        # the factor's own step: each iteration factors afresh, takes that
        # step and still converges. The iteration's rhs is solved once by
        # its fresh factor, as that cycle's start, and never again
        step, factorize = tlab.solver._preconditioned_step, tlab.solver._factorize
        solved = []  # per factor, the vectors it solved
        rhss = []  # per iteration, its rhs

        def counted_factorize(J):
            solve, seen = factorize(J), []
            solved.append(seen)
            return lambda v: seen.append(v.copy()) or solve(v)

        def missed(J, rhs, solve, rtol):
            x, met = step(J, rhs, solve, 0.0)
            assert not met
            if not rhss or rhss[-1] is not rhs:
                rhss.append(rhs)
            return x, met

        monkeypatch.setattr(tlab.solver, "_factorize", counted_factorize)
        monkeypatch.setattr(tlab.solver, "_preconditioned_step", missed)
        out = tlab.newton_solve(*_grim_fill(), tlab.SolveConfig())
        assert out.status == "converged"
        assert out.factorizations == out.iterations == len(rhss) == len(solved)
        assert [sum(np.array_equal(v, rhs) for v in seen)
                for rhs, seen in zip(rhss, solved)] == [1] * out.iterations

    def test_budget(self):
        out = tlab.newton_solve(*_grim_fill(), tlab.SolveConfig(tol=1e-12, max_newton_iters=1))
        assert (out.status, out.notes) == ("budget", "iteration budget exhausted after 1 steps")

    def test_relax_statuses(self, monkeypatch):
        p, rect, boundary, sample = _grim_problem(nx=31, ny=37)
        init = tlab.fill_from_boundary(rect, 31, 37, boundary)
        out = tlab.parabolic_relax(boundary, init, tlab.SolveConfig(tol=1e-1))
        assert (out.status, out.notes) == ("converged", "")
        out = tlab.parabolic_relax(boundary, init, tlab.SolveConfig(max_relax_steps=20))
        assert (out.status, out.notes) == ("budget", "step budget exhausted after 20 steps")
        monkeypatch.setattr(tlab.solver, "_RELAX_DT", 100.0)
        out = tlab.parabolic_relax(boundary, sample, tlab.SolveConfig(max_relax_steps=5000))
        assert out.status == "unstable" and out.notes.startswith("instability")


def _start_block(boundary, init):
    # the block a solve's first iteration reads, (block, h1, h2, axes): the
    # fold block when the start is mirror-even
    U = init.values.copy()
    axes = _mirror_axes(init, None)
    _mirror(U, axes)
    j0, i0 = _fold_origin(U.shape, axes)
    return U[j0:, i0:], init.h1, init.h2, axes


def _start_jacobian(boundary, init):
    # the Jacobian and Newton right-hand side of a solve's first iteration
    block, h1, h2, axes = _start_block(boundary, init)
    return _jacobian(block, h1, h2, axes=axes), -_residual(block, h1, h2)[0].ravel()


def _noisy_cli_grim():
    # the grim sample of the CLI's default domain at 61x67 with U(-10, 10)
    # noise on the interior, the start of test_rough_iterate_keeps_the_ordering_fill
    R = tlab.GrimParams(2.0).half_width
    _, _, boundary, sample = _grim_problem(rect=(-0.75 * R, 0.75 * R, -3.0, 3.0), nx=61, ny=67)
    noisy = sample.values.copy()
    rng = np.random.default_rng(0)
    noisy[1:-1, 1:-1] += rng.uniform(-10.0, 10.0, size=noisy[1:-1, 1:-1].shape)
    return boundary, tlab.GridFunction(sample.rect, noisy)


# rtol: the smooth quarter's steps agree to 2e-15. The noisy start's
# Jacobian has condition number 6e5, so every step on it, the default
# factor's included, is off by about 4e-11 relative (its condition number
# times eps); the two steps differ by 9e-12
@pytest.mark.parametrize("problem, rtol", [
    (lambda: _start_jacobian(*_cli_strip(2.0, 121, 601, 30.0)), 1e-12),
    (lambda: _start_jacobian(*_noisy_cli_grim()), 1e-10),
], ids=["strip 121x601 quarter", "noisy grim 61x67"])
def test_supernode_settings_keep_ordering_fill_and_step(problem, rtol):
    # the supernode settings change only the order of the numeric updates:
    # against SuperLU's defaults, the same column order, row pivots and fill,
    # in float64 and in the float32 that _factorize builds
    from scipy.sparse.linalg import splu
    J, rhs = problem()
    default = splu(J, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0)
    chosen = splu(J, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  relax=_SUPERNODE_RELAX, panel_size=_PANEL_SIZE)
    for lu in (chosen, _factorize(J).lu):
        assert np.array_equal(lu.perm_c, default.perm_c)
        assert np.array_equal(lu.perm_r, default.perm_r)
        assert lu.L.nnz + lu.U.nnz == default.L.nnz + default.U.nnz
    x0, x = default.solve(rhs), chosen.solve(rhs)
    assert np.linalg.norm(x - x0) <= rtol * np.linalg.norm(x0)


def _grim_box(nx, ny):
    # the CLI's default grim domain: both solves of each pair end well below
    # tol after the same number of steps
    R = tlab.GrimParams(2.0).half_width
    p, rect, boundary, sample = _grim_problem(rect=(-0.75 * R, 0.75 * R, -3.0, 3.0),
                                              nx=nx, ny=ny)
    return boundary, tlab.fill_from_boundary(rect, nx, ny, boundary)


def _bowl_box():
    fn = tlab.bowl_radial_function(tlab.bowl_profile_solve(6.0, 0.01))
    rect = tlab.Rectangle(-3.0, 4.0, -2.5, 3.5)
    return fn, tlab.fill_from_boundary(rect, 41, 33, fn)


# each symmetry maps the rectangle, the boundary data, grid values and
# mirror axes onto their images
_SWAP = {"x1": "x2", "x2": "x1"}
_SYMMETRIES = {
    "transpose": (lambda r: tlab.Rectangle(r.x2_min, r.x2_max, r.x1_min, r.x1_max),
                  lambda g: lambda a, b: g(b, a),
                  lambda V: V.T,
                  lambda axes: tuple(sorted(_SWAP[a] for a in axes))),
    "x2 reflection": (lambda r: tlab.Rectangle(r.x1_min, r.x1_max, -r.x2_max, -r.x2_min),
                      lambda g: lambda a, b: g(a, -b),
                      lambda V: V[::-1, :],
                      lambda axes: axes),
    "shift by 100": (lambda r: r,
                     lambda g: lambda a, b: g(a, b) + 100.0,
                     lambda V: V + 100.0,
                     lambda axes: axes),
}
# problem: (boundary and init, the axes Newton folds it across)
_SYMMETRY_PROBLEMS = {
    "grim 41x57": (lambda: _grim_box(41, 57), ("x1",)),
    "grim 40x57": (lambda: _grim_box(40, 57), ()),
    "strip 31x61": (lambda: _strip_problem(31, 61), ("x1", "x2")),
    "bowl 41x33": (_bowl_box, ()),
}


class TestSymmetries:
    """Newton commutes with the translator's symmetries to rounding.

    The discrete system maps onto itself under the x1 <-> x2 swap, a
    reflection and u -> u + c, so these catch an h1/h2 or orientation slip
    that bit pins recorded from the code itself cannot see.
    """

    @pytest.mark.parametrize("name", _SYMMETRIES)
    @pytest.mark.parametrize("problem", _SYMMETRY_PROBLEMS)
    def test_newton_commutes(self, problem, name):
        make, axes = _SYMMETRY_PROBLEMS[problem]
        rect_map, data_map, grid_map, axes_map = _SYMMETRIES[name]
        cfg = tlab.SolveConfig(tol=1e-10)
        boundary, init = make()
        out = tlab.newton_solve(boundary, init, cfg)
        image = tlab.newton_solve(data_map(boundary),
                                  tlab.GridFunction(rect_map(init.rect), grid_map(init.values)),
                                  cfg)
        expected = grid_map(out.solution.values)
        assert out.mirror_axes == axes
        assert image.mirror_axes == axes_map(axes)
        assert image.converged == out.converged
        scale = np.finfo(float).eps * np.max(np.abs(expected))
        assert np.max(np.abs(image.solution.values - expected)) <= 16.0 * scale

    # At tol=1e-12 the shift leaves the discrete system as it is, but the
    # iterate rounds on |U|, so it raises the rounding floor about 8.5x. The
    # 61x121 strip is within its floor either way and ends alike. The
    # ring-asymmetric strip converges in its full-grid pass (5.3e-13);
    # shifted, its folded pass already ends within the raised floor (5.6e-12
    # against 2.7e-11), so it stops there without that pass and its LU.
    @pytest.mark.parametrize("problem, ending, shifted_ending", [
        (lambda: _cli_strip(2.0), ("at_rounding_floor", 7, 1), ("at_rounding_floor", 7, 1)),
        (_ring_asymmetric_strip, ("converged", 7, 2), ("at_rounding_floor", 7, 1)),
    ], ids=["strip 61x121", "ring-asymmetric strip"])
    def test_shifted_solve_ends_alike_but_for_its_floor(self, problem, ending, shifted_ending):
        _, data_map, grid_map, _ = _SYMMETRIES["shift by 100"]
        cfg = tlab.SolveConfig(tol=1e-12)
        boundary, init = problem()
        out = tlab.newton_solve(boundary, init, cfg)
        image = tlab.newton_solve(data_map(boundary),
                                  tlab.GridFunction(init.rect, grid_map(init.values)), cfg)
        assert (out.status, out.iterations, out.factorizations) == ending
        assert (image.status, image.iterations, image.factorizations) == shifted_ending
        sol = image.solution
        assert image.final_residual <= _rounding_floor(sol.values, sol.h1, sol.h2)


# Newton iterations of tier-1 solves that no other test pins, recorded
# before the forcing term was floored at 0.5 tol / |F|: the floor only ever
# relaxes a cycle's target, so no solve may take more
@pytest.mark.parametrize("problem, tol, iterations", [
    (lambda: _grim_box(41, 57), 1e-10, 2),
    (lambda: _strip_problem(31, 61), 1e-10, 6),
    (_bowl_box, 1e-10, 5),
    (lambda: _cli_strip(3.0), 1e-10, 6),
    (lambda: _cli_strip(8.0), 1e-10, 7),
    (lambda: (_zero, tlab.GridFunction(tlab.Rectangle(-0.5, 0.5, -0.5, 0.5),
                                       np.zeros((65, 65)))), 1e-11, 4),
], ids=["grim 41x57", "strip 31x61", "bowl 41x33", "strip lambda 3", "strip lambda 8",
        "zero cap 65x65"])
def test_floored_target_takes_no_more_iterations(problem, tol, iterations):
    out = tlab.newton_solve(*problem(), tlab.SolveConfig(tol=tol))
    assert out.iterations <= iterations


def _stencil_pattern_by_column(mi, mj):
    # the pattern as first written: one row of 9 slots per column, in int64
    # until the final casts
    n = mi * mj
    jc, ic = np.divmod(np.arange(n), mi)
    di, dj = np.array(_OFFSETS).T
    ri = ic[:, None] - di
    rj = jc[:, None] - dj
    keep = (ri >= 0) & (ri < mi) & (rj >= 0) & (rj < mj)
    rows = rj * mi + ri
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
    return (rows[keep].astype(np.int32), indptr,
            (np.arange(len(_OFFSETS)) * n + rows)[keep].astype(np.int32))


@pytest.mark.parametrize("mi, mj", [(3, 3), (1, 1), (1, 4), (5, 1), (2, 7), (19, 23),
                                    (60, 300), (151, 301)])
def test_stencil_pattern_matches_the_column_construction(mi, mj):
    for got, want in zip(_stencil_pattern(mi, mj), _stencil_pattern_by_column(mi, mj)):
        assert got.dtype == want.dtype == np.int32
        assert np.array_equal(got, want)


class _WeakFactor:
    """A SuperLU factor behind a weak-referenceable wrapper (SuperLU itself
    takes no weak references); the wrapper holds the factor's only reference."""

    def __init__(self, lu):
        self.lu = lu

    def solve(self, rhs):
        return self.lu.solve(rhs)


class TestWorkingSet:
    @pytest.mark.parametrize("problem, axes, digests", [
        (lambda: _grim_box(303, 303), ("x1",),
         ("289f7e0a3e711ac6ab6bd285cd70163719d45f4417f18735dfe47c2b95f51d1c",
          "7e425da545fca24aeab3e8978f2d28c388be84806bee120fa13e46991d4b1d56",
          "68883479b631ed4b06f032b0f1dfa9c5224be67875847bc65e808a843439f0ac")),
        (_bowl_box, (),
         ("871d76a3661d674fad1443839468bd3b5d017ff4907699a3b5007dc26f563d3e",
          "670b2780c0dba266ecbe9f7f6f459aac6b10d8356ffe78179deb019f79d8182a",
          "b4bd907aa9a1e1cc9cc8cb14aa374d501daa5014d92b997b55b41645d2713131")),
    ], ids=["grim 303x303 start", "off-centre bowl 41x33 start"])
    def test_jacobian_bytes_pinned(self, problem, axes, digests):
        # sha256 of the CSC data, indices and indptr, recorded when every
        # coefficient was its own array and the nine were stacked
        block, h1, h2, got_axes = _start_block(*problem())
        assert got_axes == axes
        J = _jacobian(block, h1, h2, axes=axes)
        assert tuple(hashlib.sha256(a.tobytes()).hexdigest()
                     for a in (J.data, J.indices, J.indptr)) == digests

    def test_jacobian_peak_in_interior_arrays(self):
        # the coefficient block and the CSC data gathered from it read 18.1
        # interior-sized arrays; with a dict of coefficients and its stacked
        # copy, 37.1
        block, h1, h2, axes = _start_block(*_grim_box(303, 303))
        mj, mi = block.shape[0] - 2, block.shape[1] - 2
        pattern = _stencil_pattern(mi, mj)
        tracemalloc.start()
        try:
            _jacobian(block, h1, h2, pattern, axes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 22 * mi * mj * 8

    def test_newton_drops_what_the_next_step_rebuilds(self, monkeypatch):
        # every earlier Jacobian is dead when the next is assembled, and the
        # folded pass's factor and Jacobian when the full-grid residual runs
        from scipy.sparse.linalg import splu
        boundary, init = _grim_fill()
        factors, jacobians, alive_at = [], [], {}

        def weak_splu(*args, **kwargs):
            factor = _WeakFactor(splu(*args, **kwargs))
            factors.append(weakref.ref(factor))
            return factor

        jacobian = tlab.solver._jacobian

        def tracked_jacobian(*args, **kwargs):
            alive_at.setdefault("jacobian", []).append(
                sum(r() is not None for r in jacobians))
            J = jacobian(*args, **kwargs)
            jacobians.append(weakref.ref(J))
            return J

        residual = tlab.solver._residual

        def tracked_residual(U, *args, **kwargs):
            if U.shape == init.values.shape and factors:
                alive_at.setdefault("full grid", []).append(
                    sum(r() is not None for r in factors + jacobians))
            return residual(U, *args, **kwargs)

        monkeypatch.setattr(tlab.solver, "spla", SimpleNamespace(splu=weak_splu))
        monkeypatch.setattr(tlab.solver, "_jacobian", tracked_jacobian)
        monkeypatch.setattr(tlab.solver, "_residual", tracked_residual)
        out = tlab.newton_solve(boundary, init, tlab.SolveConfig())
        assert out.mirror_axes == ("x1",) and out.converged
        assert (out.iterations, out.factorizations) == (3, 1) == (len(jacobians), len(factors))
        assert alive_at == {"jacobian": [0, 0, 0], "full grid": [0]}


class TestParabolicRelax:
    def test_exact_sample_is_fixed_point(self):
        p, rect, boundary, sample = _grim_problem(rect=(-2.0, 2.0, -1.0, 1.0),
                                                  nx=41, ny=21)
        # discrete residual of the exact sample is O(h^2), below this tol
        cfg = tlab.SolveConfig(tol=5e-2)
        out = tlab.parabolic_relax(boundary, sample, cfg)
        assert out.converged
        assert out.iterations == 0

    def test_matches_newton_terminal_state(self):
        p, rect, boundary, sample = _grim_problem(nx=31, ny=37)
        tol = 1e-3
        interior_zero = sample.values.copy()
        interior_zero[1:-1, 1:-1] = 0.0
        init = tlab.GridFunction(sample.rect, interior_zero)
        cfg = tlab.SolveConfig(tol=tol, max_relax_steps=60000)
        relaxed = tlab.parabolic_relax(boundary, init, cfg)
        assert relaxed.converged
        newton = tlab.newton_solve(boundary, init, tlab.SolveConfig(tol=tol))
        dev = np.max(np.abs(relaxed.solution.values - newton.solution.values))
        assert dev <= 10.0 * tol

    def test_residual_decreases_after_transient(self):
        p, rect, boundary, sample = _grim_problem(nx=31, ny=37)
        interior_zero = sample.values.copy()
        interior_zero[1:-1, 1:-1] = 0.0
        init = tlab.GridFunction(sample.rect, interior_zero)
        cfg = tlab.SolveConfig(tol=1e-3, max_relax_steps=60000)
        out = tlab.parabolic_relax(boundary, init, cfg)
        hist = np.array(out.history)
        # one entry per super-step; the transient is its first 100 evaluations
        cut = math.ceil(100 / _RKL_STAGES)
        assert len(hist) - cut >= 0.75 * len(hist)
        assert np.all(np.diff(hist[cut:]) <= 1e-12)

    def test_unstable_dt_reports_instability(self, monkeypatch):
        p, rect, boundary, sample = _grim_problem(nx=31, ny=37)
        monkeypatch.setattr(tlab.solver, "_RELAX_DT", 1.0)
        cfg = tlab.SolveConfig(tol=1e-10, max_relax_steps=5000)
        out = tlab.parabolic_relax(boundary, sample, cfg)
        assert not out.converged
        assert "instability" in out.notes

    def test_last_super_step_takes_the_stages_left(self):
        p, rect, boundary, sample = _grim_problem(nx=31, ny=37)
        init = tlab.fill_from_boundary(rect, 31, 37, boundary)
        budget = 2 * _RKL_STAGES + 5
        out = tlab.parabolic_relax(boundary, init, tlab.SolveConfig(max_relax_steps=budget))
        assert not out.converged and out.iterations == budget
        assert len(out.history) == 4 and out.notes == f"step budget exhausted after {budget} steps"

    def test_overflow_is_a_nonfinite_outcome(self, monkeypatch):
        # far above the stable step the iterate overflows within a few
        # super-steps; no RuntimeWarning escapes and init comes back
        p, rect, boundary, sample = _grim_problem(nx=31, ny=37)
        monkeypatch.setattr(tlab.solver, "_RELAX_DT", 100.0)
        cfg = tlab.SolveConfig(tol=1e-10, max_relax_steps=5000)
        out = tlab.parabolic_relax(boundary, sample, cfg)
        assert not out.converged and out.final_residual == math.inf
        assert "instability: nonfinite residual" in out.notes
        assert "returning init" in out.notes
        assert np.array_equal(out.solution.values, sample.values)

    def test_warm_start_feeds_newton(self):
        p = tlab.GrimParams(2.0)
        rect, g = tlab.strip_boundary_data(p, 0.25 * p.half_width, 4.0, 1.0)
        init = tlab.fill_from_boundary(rect, 25, 41, g)
        pre = tlab.parabolic_relax(g, init, tlab.SolveConfig(tol=1e-2, max_relax_steps=20000))
        out = tlab.newton_solve(g, pre.solution, tlab.SolveConfig(tol=1e-10))
        assert out.converged


def _relax_then_newton(nx, ny, amp, seed, budget):
    boundary, sample, init = _noisy_grim(nx, ny, amp, seed)
    pre = tlab.parabolic_relax(boundary, init, tlab.SolveConfig(tol=1e-2, max_relax_steps=budget))
    assert pre.converged, pre.notes
    cfg = tlab.SolveConfig(tol=1e-9, max_newton_iters=60)
    out = tlab.newton_solve(boundary, pre.solution, cfg)
    assert out.converged, out.notes
    # the Dirichlet problem has one solution: the one Newton finds from the sample
    reference = tlab.newton_solve(boundary, sample, cfg)
    assert np.max(np.abs(out.solution.values - reference.solution.values)) <= 1e-6


# Hard starts where damped Newton alone exhausts its iterations; relax to
# 1e-2 globalizes them.
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("nx, ny, amp", [(31, 37, 10.0), (61, 67, 10.0), (61, 67, 100.0)])
def test_hard_start_relax_then_newton(nx, ny, amp, seed):
    _relax_then_newton(nx, ny, amp, seed, budget=3000)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_large_hard_start_relax_then_newton(seed):
    _relax_then_newton(101, 107, 30.0, seed, budget=6000)


class TestStripBoundaryData:
    def test_center_value_is_smoothing(self):
        p = tlab.GrimParams(2.0)
        rect, g = tlab.strip_boundary_data(p, 0.5, 10.0, 0.3)
        assert g(0.0, 0.0) == pytest.approx(0.3, rel=1e-15)

    def test_rect_extents(self):
        p = tlab.GrimParams(2.0)
        rect, g = tlab.strip_boundary_data(p, 0.5, 10.0, 1.0)
        assert rect.x1_max == pytest.approx(p.half_width - 0.5, rel=1e-15)
        assert rect.x2_max == 10.0

    def test_ratio_tends_to_tilt_slope(self):
        p = tlab.GrimParams(2.0)
        _, g = tlab.strip_boundary_data(p, 0.5, 10.0, 1.0)
        x1 = 1.0
        vals = [abs(float(g(x1, Y)) / Y - p.tilt_slope) for Y in (10.0, 100.0, 1e6)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-5

    def test_even_in_both_variables(self):
        p = tlab.GrimParams(1.5)
        _, g = tlab.strip_boundary_data(p, 0.3, 5.0, 0.7)
        x1 = np.linspace(-1.5, 1.5, 13)
        x2 = np.linspace(-5.0, 5.0, 11)
        X1, X2 = np.meshgrid(x1, x2)
        np.testing.assert_array_equal(g(X1, X2), g(-X1, X2))
        np.testing.assert_array_equal(g(X1, X2), g(X1, -X2))

    def test_epsilon_validation(self):
        p = tlab.GrimParams(2.0)
        with pytest.raises(ValueError):
            tlab.strip_boundary_data(p, p.half_width, 10.0, 1.0)
        with pytest.raises(ValueError):
            tlab.strip_boundary_data(p, 0.5, 10.0, 0.0)
        with pytest.raises(ValueError, match="0.1"):
            tlab.strip_boundary_data(p, 0.05 * p.half_width, 10.0, 1.0)


class TestFill:
    def test_fill_matches_ring(self):
        p, rect, boundary, sample = _grim_problem(nx=21, ny=17)
        filled = tlab.fill_from_boundary(rect, 21, 17, boundary)
        np.testing.assert_allclose(filled.values[0, :], sample.values[0, :], rtol=1e-15)
        np.testing.assert_allclose(filled.values[-1, :], sample.values[-1, :], rtol=1e-15)
        np.testing.assert_allclose(filled.values[:, 0], sample.values[:, 0], rtol=1e-15)
        np.testing.assert_allclose(filled.values[:, -1], sample.values[:, -1], rtol=1e-15)

    def test_constant_callable_is_broadcast_along_each_side(self):
        rect = tlab.Rectangle(-1.0, 1.0, -1.0, 1.0)
        filled = tlab.fill_from_boundary(rect, 9, 9, lambda a, b: 2.0)
        assert np.all(filled.values == 2.0)
        assert tlab.newton_solve(lambda a, b: 2.0, filled, tlab.SolveConfig()).converged


@pytest.mark.slow
def test_large_grid_manufactured_solve():
    # 303x303 has 90601 interior unknowns
    p, rect, boundary, sample = _grim_problem(nx=303, ny=303, rect=(-2.0, 2.0, -2.0, 2.0))
    forcing = _manufactured_forcing(sample)
    init = tlab.GridFunction(sample.rect, sample.values + _bump(303, 303, 1e-3))
    out = tlab.newton_solve(boundary, init, tlab.SolveConfig(tol=1e-8, max_newton_iters=10),
                            forcing=forcing)
    assert out.converged
    assert np.max(np.abs(out.solution.values - sample.values)) <= 1e-7
