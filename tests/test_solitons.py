import math

import numpy as np
import pytest

import tlab
from tlab import DomainError


class TestGrimReaper:
    def test_axis_value(self):
        assert tlab.grim_reaper_value(0.0) == 0.0

    def test_log_two_point(self):
        # sec(pi/3) = 2
        assert tlab.grim_reaper_value(math.pi / 3) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_even_and_convex(self):
        x = np.linspace(-1.2, 1.2, 41)
        v = tlab.grim_reaper_value(x)
        assert np.allclose(v, v[::-1], atol=1e-14)
        assert np.all(np.diff(v, 2) > 0)

    def test_blows_up_at_strip_edge(self):
        with pytest.raises(DomainError):
            tlab.grim_reaper_value(math.pi / 2)
        with pytest.raises(DomainError):
            tlab.grim_reaper_value(-(math.pi / 2 - 1e-10))
        # 1e-8 inside the edge is still a legal evaluation point
        assert np.isfinite(tlab.grim_reaper_value(math.pi / 2 - 1e-8))


class TestGrimParams:
    def test_invariants(self):
        for lam in (1.0, 1.5, 2.0, 4.0):
            p = tlab.GrimParams(lam)
            assert p.half_width == pytest.approx(lam * math.pi / 2, rel=1e-15)
            assert p.tilt_slope ** 2 == pytest.approx(lam * lam - 1.0, abs=1e-14)
        assert tlab.GrimParams(1.0).tilt_slope == 0.0

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            tlab.GrimParams(0.5)
        with pytest.raises(ValueError):
            tlab.GrimParams(2.0, tilt_sign=0)


class TestGrimCylinder:
    def test_untilted_ridge_is_flat(self):
        p = tlab.GrimParams(1.0)
        assert tlab.grim_cylinder_value(p, 0.0, 7.0) == 0.0

    def test_scaled_value(self):
        p = tlab.GrimParams(2.0)
        # x1/lam = pi/3, sec = 2
        got = tlab.grim_cylinder_value(p, 2 * math.pi / 3, 0.0)
        assert got == pytest.approx(4 * math.log(2.0), abs=1e-12)

    def test_tilt_contribution(self):
        p = tlab.GrimParams(2.0)
        assert tlab.grim_cylinder_value(p, 0.0, 1.0) == pytest.approx(math.sqrt(3.0), abs=1e-14)

    def test_gradient_values(self):
        p = tlab.GrimParams(2.0)
        g1, g2 = tlab.grim_cylinder_gradient(p, math.pi / 2, 0.0)
        assert g1 == pytest.approx(2.0, abs=1e-12)
        assert g2 == pytest.approx(math.sqrt(3.0), abs=1e-14)
        g1, g2 = tlab.grim_cylinder_gradient(tlab.GrimParams(1.0), 0.0, 123.0)
        assert (g1, g2) == (0.0, 0.0)
        g1, g2 = tlab.grim_cylinder_gradient(tlab.GrimParams(2.0, -1), 0.0, 5.0)
        assert g1 == 0.0
        assert g2 == pytest.approx(-math.sqrt(3.0), abs=1e-14)

    def test_domain_error_outside_strip(self):
        p = tlab.GrimParams(2.0)
        with pytest.raises(DomainError):
            tlab.grim_cylinder_value(p, p.half_width, 0.0)

    def test_lambda_one_is_the_reaper(self):
        p = tlab.GrimParams(1.0)
        rng = np.random.default_rng(1)
        x1 = rng.uniform(-1.4, 1.4, 200)
        x2 = rng.uniform(-50.0, 50.0, 200)
        np.testing.assert_array_equal(tlab.grim_cylinder_value(p, x1, x2),
                                      tlab.grim_reaper_value(x1))

    def test_scaling_law(self):
        # u^lam(x1, 0) = lam^2 * reaper(x1/lam)
        for lam in (1.5, 2.0, 3.0):
            p = tlab.GrimParams(lam)
            x1 = np.linspace(-0.8, 0.8, 17) * p.half_width
            np.testing.assert_allclose(
                tlab.grim_cylinder_value(p, x1, 0.0),
                lam * lam * tlab.grim_reaper_value(x1 / lam), rtol=1e-14, atol=1e-14)

    def test_analytic_residual_vanishes(self):
        rng = np.random.default_rng(0)
        for lam in (1.0, 1.5, 2.0, 4.0):
            for tilt in (1, -1):
                p = tlab.GrimParams(lam, tilt)
                x1 = rng.uniform(-0.9 * p.half_width, 0.9 * p.half_width, 1000)
                x2 = rng.uniform(-10.0, 10.0, 1000)
                res = tlab.grim_cylinder_residual(p, x1, x2)
                assert np.max(np.abs(res)) <= 1e-12

    def test_tilted_1d_ode_consistency(self):
        # eta = lam^2 log sec(x1/lam) with slope alpha = L satisfies
        # (1 + alpha^2) eta'' = 1 + alpha^2 + eta'^2 to rounding
        rng = np.random.default_rng(3)
        for lam in (1.5, 2.0, 4.0):
            p = tlab.GrimParams(lam)
            x1 = rng.uniform(-0.85 * p.half_width, 0.85 * p.half_width, 300)
            alpha = p.tilt_slope
            eta_p = lam * np.tan(x1 / lam)
            eta_pp, _, _ = tlab.solitons.grim_cylinder_hessian(p, x1)
            lhs = (1.0 + alpha * alpha) * eta_pp
            rhs = 1.0 + alpha * alpha + eta_p * eta_p
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(rhs)


class TestTiltedCylinder:
    def test_untilted_bottom(self):
        c = tlab.CylinderParams(1.0, 0.0, 0.0)
        assert tlab.tilted_cylinder_value(c, 0.0, 0.0) == -1.0

    def test_tilted_value(self):
        c = tlab.CylinderParams(1.0, 1.0, 0.0)
        got = tlab.tilted_cylinder_value(c, 0.0, 3.0)
        assert got == pytest.approx(-math.sqrt(2.0) + 3.0, abs=1e-14)

    def test_domain(self):
        c = tlab.CylinderParams(1.0)
        assert tlab.tilted_cylinder_value(c, 1.0, 0.0) == 0.0
        with pytest.raises(DomainError):
            tlab.tilted_cylinder_value(c, 1.0 + 1e-12, 0.0)

    @pytest.mark.parametrize("tilt", [0.0, 0.7])
    def test_constant_mean_curvature(self, tilt):
        c = tlab.CylinderParams(2.0, tilt, 0.5)
        rect = tlab.Rectangle(-1.2, 1.2, -1.0, 1.0)
        u = tlab.sample_to_grid(lambda a, b: tlab.tilted_cylinder_value(c, a, b),
                                rect, 121, 101)
        f = tlab.geometry_fields(u)
        H = f.H[np.isfinite(f.H)]
        assert np.max(np.abs(H - 1.0 / c.radius)) < 5e-4


class TestBowlProfile:
    def test_axis_conditions(self, bowl_profile_long):
        b = bowl_profile_long
        assert b.f[0] == 0.0
        assert b.fp[0] == 0.0

    def test_second_derivative_at_origin(self, bowl_profile_long):
        b = bowl_profile_long
        assert abs(b.fp[1] / b.r[1] - 0.5) <= 1e-6

    def test_strict_convexity(self, bowl_profile_long):
        assert np.all(np.diff(bowl_profile_long.fp) > 0.0)

    def test_ode_residual_below_tolerance(self, bowl_profile_long):
        res = bowl_profile_long.ode_residual()
        assert np.max(np.abs(res)) <= bowl_profile_long.step ** 2

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            tlab.bowl_profile_solve(-1.0, 1e-3)
        with pytest.raises(ValueError):
            tlab.bowl_profile_solve(10.0, 0.0)

    @pytest.mark.parametrize("r_max", [5.0, 20.0, 100.0])
    def test_steps_at_the_rk4_limit(self, r_max):
        # just inside step * r_max <= 2.785 the profile stays finite and
        # strictly convex; a tenth outside (after rounding the step to divide
        # r_max), the step is refused
        limit = tlab.solitons.RK4_STABILITY_LIMIT / r_max
        p = tlab.bowl_profile_solve(r_max, 0.999 * limit)
        assert np.all(np.isfinite(p.f)) and np.all(np.diff(p.fp) > 0.0)
        with pytest.raises(ValueError, match="RK4 is stable only"):
            tlab.bowl_profile_solve(r_max, 1.1 * limit)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_samples_rejected(self, n):
        with pytest.raises(ValueError, match="at least 2 samples"):
            tlab.BowlProfile(r=np.zeros(n), f=np.zeros(n), fp=np.zeros(n))

    def test_two_samples_sample_the_line(self):
        p = tlab.BowlProfile(r=[0.0, 2.0], f=[0.0, 1.0], fp=[0.5, 0.5])
        assert p.step == 2.0
        assert p.fp[1] / p.r[1] == 0.25
        assert p.ode_residual().size == 0
        r = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
        got = tlab.bowl_radial_function(p)(r, np.zeros_like(r))
        assert np.array_equal(got, 0.5 * r)

    def test_asymptote_gap_of_shifted_exact_asymptote_is_zero(self):
        # f = r^2/2 - log r + const has gap 0 up to float cancellation
        r = np.linspace(0.0, 80.0, 8001)
        f = np.where(r > 0, 0.5 * r * r - np.log(np.maximum(r, 1e-300)) + 7.0, 0.0)
        f[0] = 0.0
        prof = tlab.BowlProfile(r=r, f=f, fp=np.linspace(0, 80, 8001))
        assert tlab.bowl_asymptote_gap(prof, 40.0, 80.0) <= 1e-11

    def test_gap_small_far_out(self, bowl_profile_long):
        assert tlab.bowl_asymptote_gap(bowl_profile_long, 40.0, 80.0) < 0.01

    def test_gap_larger_near_origin(self, bowl_profile_long):
        near = tlab.bowl_asymptote_gap(bowl_profile_long, 1.0, 2.0)
        far = tlab.bowl_asymptote_gap(bowl_profile_long, 40.0, 80.0)
        assert near > far

    def test_gap_window_validation(self, bowl_profile_long):
        with pytest.raises(ValueError):
            tlab.bowl_asymptote_gap(bowl_profile_long, 0.0, 10.0)
        with pytest.raises(ValueError):
            tlab.bowl_asymptote_gap(bowl_profile_long, 40.0, 81.0)


class TestSampling:
    def test_zero_function(self):
        rect = tlab.Rectangle(0.0, 1.0, 0.0, 1.0)
        u = tlab.sample_to_grid(lambda a, b: np.zeros_like(a), rect, 3, 3)
        assert u.values.shape == (3, 3)
        assert np.all(u.values == 0.0)

    def test_matches_pointwise_evaluation(self, grim2):
        rect = tlab.Rectangle(-2.5, 2.5, -5.0, 5.0)
        u = tlab.grim_grid(grim2, rect, 21, 31)
        X1, X2 = u.mesh()
        np.testing.assert_array_equal(u.values, tlab.grim_cylinder_value(grim2, X1, X2))

    def test_domain_error_identifies_node(self, grim2):
        rect = tlab.Rectangle(-4.0, 4.0, 0.0, 1.0)  # wider than the lam=2 strip
        with pytest.raises(DomainError, match="node"):
            tlab.grim_grid(grim2, rect, 11, 5)

    def test_domain_errors_name_the_value_at_the_first_bad_node(self, grim2):
        x1 = np.array([0.0, 3.5, 5.0])
        bowl = tlab.bowl_radial_function(tlab.bowl_profile_solve(2.0, 0.1))
        refusals = [
            (lambda: tlab.grim_cylinder_value(grim2, x1, 0.0),
             f"x1 = 3.5 is outside the open strip |x1| < {grim2.half_width!r} at node index (1,)"),
            (lambda: tlab.grim_cylinder_value(grim2, 5.0, 0.0),
             f"x1 = 5.0 is outside the open strip |x1| < {grim2.half_width!r}"),
            (lambda: tlab.tilted_cylinder_value(tlab.CylinderParams(2.0), x1, 0.0),
             "x1 = 3.5 is outside |x1| <= 2.0 at node index (1,)"),
            (lambda: bowl(x1, np.zeros(3)),
             "radius 3.5 exceeds the profile extent 2.0 at node index (1,)"),
        ]
        for refused, message in refusals:
            with pytest.raises(DomainError) as err:
                refused()
            assert str(err.value) == message

    def test_too_few_nodes(self):
        rect = tlab.Rectangle(0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            tlab.sample_to_grid(lambda a, b: a, rect, 2, 5)

    def test_radialization_interpolation_error(self):
        rect = tlab.Rectangle(-1.5, 1.5, -1.5, 1.5)
        grids = {}
        for step in (0.04, 0.02, 0.01):
            prof = tlab.bowl_profile_solve(3.0, step)
            grids[step] = tlab.bowl_grid(prof, rect, 61, 61).values
        d1 = np.max(np.abs(grids[0.04] - grids[0.02]))
        d2 = np.max(np.abs(grids[0.02] - grids[0.01]))
        assert d1 / d2 > 3.0  # successive differences shrink at 2nd order or better
        assert d2 <= 1e-7
