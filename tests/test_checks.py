import dataclasses
import hashlib
import math

import numpy as np
import pytest

import tlab
from tlab import reporting


def _readme_grim():
    # the README example: tlab generate grim --lambda 2 --nx 101 --ny 201
    p = tlab.GrimParams(2.0)
    R = p.half_width
    return p, tlab.grim_grid(p, tlab.Rectangle(-0.75 * R, 0.75 * R, -5.0, 5.0), 101, 201)


def _digest_without_locations(reports):
    report = reporting.report_dict("pin", {}, reports)
    for entry in report["checks"]:
        del entry["worst_location"]
    return hashlib.sha256(reporting.format_report(report).encode()).hexdigest()


def _grim_sample(lam=2.0, h=0.02, x2_span=1.0, frac=0.75):
    p = tlab.GrimParams(lam)
    R = p.half_width
    nx = int(round(2 * frac * R / h)) + 1
    ny = int(round(2 * x2_span / h)) + 1
    rect = tlab.Rectangle(-frac * R, frac * R, -x2_span, x2_span)
    u = tlab.grim_grid(p, rect, nx, ny)
    return p, u


@pytest.fixture(scope="module")
def grim_setup():
    p, u = _grim_sample()
    parts = tlab.partials(u)
    fields = tlab.geometry_fields(u, parts)
    return p, u, parts, fields


class TestConvexity:
    def test_exact_grim_passes(self, grim_setup):
        _, _, _, fields = grim_setup
        rep = tlab.check_convexity(fields, 1e-6)
        assert rep.passed
        assert rep.worst_violation <= 1e-6

    def test_bowl_strictly_convex(self, bowl_solves):
        out, _ = bowl_solves[0.1]
        fields = tlab.geometry_fields(out.solution)
        rep = tlab.check_convexity(fields, 0.0)
        assert rep.passed
        assert rep.worst_violation < 0.0  # strict interior margin

    def test_saddle_fails(self, saddle_grid):
        fields = tlab.geometry_fields(saddle_grid)
        rep = tlab.check_convexity(fields, 1e-6)
        assert not rep.passed
        assert rep.worst_violation > 0.5
        assert rep.worst_location is not None


class TestStripHBound:
    def test_exact_grim_passes_with_margin(self, grim_setup):
        p, _, _, fields = grim_setup
        rep = tlab.check_strip_H_bound(fields, p)
        assert rep.passed
        assert rep.worst_violation < 0.0

    def test_scalar_inequality_dense_sampling(self):
        # cos t <= pi/2 - t on [0, pi/2) underlies the bound for all lam >= 1
        t = np.linspace(0.0, math.pi / 2 - 1e-9, 20001)
        assert np.all(np.cos(t) <= math.pi / 2 - t + 1e-12)

    def test_margin_at_axis_lambda1(self):
        p, u = _grim_sample(lam=1.0, h=0.01, x2_span=0.2)
        fields = tlab.geometry_fields(u)
        i0 = u.nx // 2
        j0 = u.ny // 2
        margin = p.half_width - 0.0 - fields.H[j0, i0]
        assert margin == pytest.approx(math.pi / 2 - 1.0, abs=1e-4)

    def test_inflated_H_fails(self):
        # the lam = 1 sample runs tight against the edge bound
        p, u = _grim_sample(lam=1.0, h=0.02, x2_span=0.5)
        fields = tlab.geometry_fields(u)
        fake = dataclasses.replace(fields, H=3.0 * fields.H)
        rep = tlab.check_strip_H_bound(fake, p)
        assert not rep.passed
        assert rep.worst_violation > 0.0


class TestHarnack:
    def test_zero_length_path_is_equality(self, grim_setup):
        _, u, _, fields = grim_setup
        rep = tlab.check_harnack(fields, [[(5, 5)]], 0.0)
        assert rep.passed
        assert rep.worst_violation == 0.0

    def test_random_paths_pass_with_margin(self, grim_setup):
        _, u, _, fields = grim_setup
        paths = tlab.random_monotone_paths(u, 100, seed=0)
        rep = tlab.check_harnack(fields, paths, 1e-8)
        assert rep.passed
        assert rep.worst_violation < 0.0

    def test_curvature_jump_fails(self, grim_setup):
        _, u, _, fields = grim_setup
        H = fields.H.copy()
        H[10, 10] *= 10.0
        fake = dataclasses.replace(fields, H=H)
        rep = tlab.check_harnack(fake, [[(10, 10), (11, 10)]], 1e-8)
        assert not rep.passed
        assert rep.worst_violation > 0.0

    def test_invalid_path_rejected(self, grim_setup):
        _, u, _, fields = grim_setup
        with pytest.raises(ValueError):
            tlab.check_harnack(fields, [[(1, 1), (4, 1)]], 0.0)

    def test_empty_path_list_rejected(self, grim_setup):
        _, u, _, fields = grim_setup
        with pytest.raises(ValueError, match="at least one path"):
            tlab.check_harnack(fields, [], 0.0)

    def test_path_ending_on_the_ring_rejected(self, grim_setup):
        _, u, _, fields = grim_setup
        with pytest.raises(ValueError, match=r"\(2, 0\) is not a trusted"):
            tlab.check_harnack(fields, [[(2, 2), (2, 1), (2, 0)]], 0.0)

    def test_location_is_the_far_end_of_the_worst_orientation(self, grim_setup):
        _, u, _, fields = grim_setup
        H = fields.H.copy()
        H[10, 10] *= 10.0
        fake = dataclasses.replace(fields, H=H)
        rep = tlab.check_harnack(fake, [[(12, 10), (11, 10)], [(10, 10), (11, 10)]], 1e-8)
        assert rep.worst_location == (11, 10)
        rep = tlab.check_harnack(fake, [[(11, 10), (10, 10)]], 1e-8)
        assert rep.worst_location == (11, 10)


class TestRandomPaths:
    def test_monotone_staircases_between_interior_nodes(self):
        p, u = _grim_sample(h=0.1)
        for path in tlab.random_monotone_paths(u, 200, seed=3):
            assert path.ndim == 2 and path.shape[1] == 2 and len(path) >= 2
            i, j = path[:, 0], path[:, 1]
            assert np.all((1 <= i) & (i <= u.nx - 2) & (1 <= j) & (j <= u.ny - 2))
            steps = np.diff(path, axis=0)
            assert np.all((steps == (1, 0)).all(axis=1) | (steps == (0, 1)).all(axis=1))

    def test_seed_zero_stream_is_pinned(self):
        # the generator stream fixes every Harnack report; these nodes must not drift
        u = tlab.sample_to_grid(lambda a, b: 0.0 * a, tlab.Rectangle(-1, 1, -1, 1), 12, 10)
        paths = tlab.random_monotone_paths(u, 4, seed=0)
        assert [path.tolist() for path in paths] == [
            [[7, 3], [7, 4], [7, 5], [8, 5], [9, 5]],
            [[1, 6], [2, 6], [2, 7]],
            [[6, 6], [7, 6], [7, 7], [7, 8]],
            [[3, 1], [4, 1], [5, 1], [5, 2], [5, 3], [5, 4], [6, 4], [7, 4], [7, 5],
             [7, 6], [8, 6], [9, 6]],
        ]


class TestGradientBounds:
    def test_exact_grim_analytic_fields(self, grim_setup):
        p, u, _, _ = grim_setup
        exact = tlab.geometry_fields(u, tlab.grim_partials(p, u))
        rep = tlab.check_gradient_bounds(exact, 1e-8)
        assert rep.passed

    def test_plane_has_unit_margin(self):
        rect = tlab.Rectangle(-1.0, 1.0, -1.0, 1.0)
        u = tlab.sample_to_grid(lambda a, b: 5.0 * a, rect, 21, 21)
        rep = tlab.check_gradient_bounds(tlab.geometry_fields(u), 0.0)
        assert rep.passed
        assert rep.worst_violation == pytest.approx(-1.0, abs=1e-12)

    def test_parabola_violates_hessian_bound(self):
        rect = tlab.Rectangle(-2.0, 2.0, -1.0, 1.0)
        u = tlab.sample_to_grid(lambda a, b: a * a + 0.0 * b, rect, 41, 21)
        rep = tlab.check_gradient_bounds(tlab.geometry_fields(u), 1e-6)
        assert not rep.passed
        assert rep.worst_violation == pytest.approx(1.0, abs=1e-6)  # 2 > 1 at the axis


class TestSolitonIdentities:
    def test_exact_grim_passes(self, grim_setup):
        _, u, _, fields = grim_setup
        h = max(u.h1, u.h2)
        rep = tlab.check_soliton_identities(fields, 100.0 * h * h)
        assert rep.passed

    def test_bowl_apex_is_umbilic_equality(self, bowl_profile_fine):
        rect = tlab.Rectangle(-1.0, 1.0, -1.0, 1.0)
        u = tlab.bowl_grid(bowl_profile_fine, rect, 101, 101)
        fields = tlab.geometry_fields(u)
        i0 = u.nx // 2
        j0 = u.ny // 2
        assert fields.kappa1[j0, i0] == pytest.approx(0.5, abs=1e-3)
        assert fields.kappa2[j0, i0] == pytest.approx(0.5, abs=1e-3)
        assert fields.A2[j0, i0] * fields.W[j0, i0] ** 2 == pytest.approx(0.5, abs=1e-3)

    def test_far_from_solution_refused(self):
        rect = tlab.Rectangle(-1.0, 1.0, -1.0, 1.0)
        u = tlab.sample_to_grid(lambda a, b: np.zeros_like(a), rect, 21, 21)
        fields = tlab.geometry_fields(u)
        (refused,) = tlab.run_suite(u, ["soliton_identities"],
                                    tlab.SuiteConfig(identity_tol=1e-3))
        assert tlab.check_soliton_identities(fields, 1e-3) == refused
        assert not refused.passed and refused.notes.startswith("refused: ")
        assert refused.worst_violation == float(np.nanmax(np.abs(tlab.translator_residual(u))))
        _, grim = _grim_sample()
        passing = tlab.check_soliton_identities(tlab.geometry_fields(grim), 0.04)
        assert passing.passed and refused.statement_ref == passing.statement_ref


class TestStripAsymptotics:
    def test_exact_tilted_sample_top_passes_bottom_fails(self, grim_setup):
        # with exact derivative fields the top window is exact to rounding,
        # while the bottom window must report the 2L tilt mismatch
        p, u, _, _ = grim_setup
        exact = tlab.grim_partials(p, u)
        top = tlab.check_strip_asymptotics(tlab.geometry_fields(u, exact), p, 1.5, 1e-10, "top")
        bottom = tlab.check_strip_asymptotics(tlab.geometry_fields(u, exact), p, 1.5, 1e-10,
                                              "bottom")
        assert top.passed
        assert not bottom.passed  # single tilt is not the two-ended soliton
        assert bottom.worst_violation == pytest.approx(2 * p.tilt_slope, rel=1e-6)

    @pytest.mark.parametrize("nx", [100, 101])
    def test_exact_profile_without_a_centre_column(self, nx):
        # with an even nx no node sits on x1 = 0, so the profile term must
        # subtract the target at the nearest column as it does u there; the
        # exact sample then reads rounding, not a bias of h1^2/8
        p = tlab.GrimParams(2.0)
        R = p.half_width
        u = tlab.grim_grid(p, tlab.Rectangle(-0.75 * R, 0.75 * R, -5.0, 5.0), nx, 201)
        fields = tlab.geometry_fields(u, tlab.grim_partials(p, u))
        rep = tlab.check_strip_asymptotics(fields, p, 3.0, 1e-10, "top")
        assert rep.worst_violation <= 1e-13, rep.notes

    def test_location_is_the_binding_node(self, grim_setup):
        # a tilt defect and a larger slope defect at two window nodes: the
        # report must point at the slope defect, the term that sets worst
        p, u, _, _ = grim_setup
        exact = tlab.grim_partials(p, u)
        j_tilt, j_slope = (int(np.argmin(np.abs(u.x2() - t))) for t in (-0.4, -0.2))
        i_tilt, i_slope = (int(np.argmin(np.abs(u.x1() - t * p.half_width)))
                           for t in (-0.3, 0.2))
        u1, u2 = exact.u1.copy(), exact.u2.copy()
        u2[j_tilt, i_tilt] += 0.1
        u1[j_slope, i_slope] += 0.3
        parts = dataclasses.replace(exact, u1=u1, u2=u2)
        rep = tlab.check_strip_asymptotics(tlab.geometry_fields(u, parts), p, 1.5, 1e-10, "top")
        assert rep.worst_violation == pytest.approx(0.3, rel=1e-9)
        assert rep.worst_location == (i_slope, j_slope)

    def test_location_is_stable_under_rounding(self):
        # the exact sample is even in x1, so the binding node ties with its
        # mirror; rounding-level changes must not move the report across x1 = 0
        p, u = _readme_grim()
        for k in (1, 2, 3, 4):
            for sign in (1.0, -1.0):
                v = u.with_values(u.values * (1.0 + sign * k * 2e-16))
                rep = tlab.check_strip_asymptotics(tlab.geometry_fields(v), p, 3.0, 0.05, "top")
                assert rep.worst_location[0] >= u.nx // 2, (k * sign, rep.worst_location)

    def test_window_validation(self, grim_setup):
        p, _, _, fields = grim_setup
        with pytest.raises(ValueError):
            tlab.check_strip_asymptotics(fields, p, 0.5, 0.05)
        with pytest.raises(ValueError):
            tlab.check_strip_asymptotics(fields, p, 100.0, 0.05)

    def test_solver_strip_passes_both_windows(self, strip_solution, grim2):
        fields = tlab.geometry_fields(strip_solution.solution)
        for side in ("top", "bottom"):
            rep = tlab.check_strip_asymptotics(fields, grim2, 5.0, 0.05, side)
            assert rep.passed, rep.notes

    def test_tilt_monotone_and_bounded(self, strip_solution, grim2):
        # u_x2 is nondecreasing in x2 with values in [-L-tol, L+tol]
        u = strip_solution.solution
        parts = tlab.partials(u)
        inner = parts.u2[1:-1, 1:-1]
        assert np.all(np.diff(inner, axis=0) >= -1e-9)
        L = grim2.tilt_slope
        assert np.nanmax(np.abs(parts.u2)) <= L + 0.05


class TestSymmetry:
    def test_exact_grim_symmetric(self, grim_setup):
        _, _, _, fields = grim_setup
        rep = tlab.check_symmetry(fields, 1e-10)
        assert rep.passed
        assert "0 nodes" in rep.notes

    def test_solver_strip_symmetric(self, strip_solution):
        u = strip_solution.solution
        rep = tlab.check_symmetry(tlab.geometry_fields(u),
                                  1e-6 * float(np.max(np.abs(u.values))))
        assert rep.passed

    def test_sheared_plane_fails(self):
        rect = tlab.Rectangle(-1.0, 1.0, -1.0, 1.0)
        u = tlab.sample_to_grid(lambda a, b: a + b, rect, 21, 21)
        rep = tlab.check_symmetry(tlab.geometry_fields(u), 1e-9)
        assert not rep.passed
        assert rep.worst_violation > 0.0

    def test_location_follows_the_binding_term(self):
        rect = tlab.Rectangle(-1.0, 1.0, -1.0, 1.0)
        # monotone and even but for one bumped node: the symmetry defect
        # binds, at the bump or its mirror image
        u = tlab.sample_to_grid(lambda a, b: a * a + b, rect, 21, 21)
        bumped = u.values.copy()
        bumped[7, 14] += 1e-3
        rep = tlab.check_symmetry(tlab.geometry_fields(u.with_values(bumped)), 1e-9)
        assert rep.worst_violation == pytest.approx(1e-3, rel=1e-6)
        assert rep.worst_location in ((14, 7), (6, 7))
        # even but decreasing for x1 > 0: monotonicity binds, at the steepest
        # descent next to the right edge
        u = tlab.sample_to_grid(lambda a, b: -a * a + b, rect, 21, 21)
        rep = tlab.check_symmetry(tlab.geometry_fields(u), 1e-9)
        assert rep.worst_violation > 1.0
        assert rep.worst_location[0] == 19

    def test_rounding_level_defect_has_no_location(self):
        # two rounding-level defects at different nodes report alike
        rect = tlab.Rectangle(-1.0, 1.0, -1.0, 1.0)
        u = tlab.sample_to_grid(lambda a, b: a * a + b, rect, 21, 21)
        locations = []
        for j, i in ((7, 14), (15, 3)):
            V = u.values.copy()
            V[j, i] = np.nextafter(np.nextafter(V[j, i], np.inf), np.inf)
            rep = tlab.check_symmetry(tlab.geometry_fields(u.with_values(V)), 1e-9)
            assert 0.0 < rep.worst_violation < 1e-14 and rep.passed
            locations.append(rep.worst_location)
        assert locations == [None, None]

    def test_overflowing_defect_fails(self):
        rect = tlab.Rectangle(-1.0, 1.0, -1.0, 1.0)
        V = tlab.sample_to_grid(lambda a, b: a * a + b, rect, 21, 21).values.copy()
        V[10, 15], V[10, 5] = 1.7e308, -1.7e308
        with np.errstate(over="ignore"):
            rep = tlab.check_symmetry(tlab.geometry_fields(tlab.GridFunction(rect, V)), 1e-9)
        assert rep.worst_violation == np.inf and not rep.passed

    def test_asymmetric_grid_rejected(self):
        rect = tlab.Rectangle(0.0, 1.0, -1.0, 1.0)
        u = tlab.sample_to_grid(lambda a, b: a, rect, 21, 21)
        with pytest.raises(ValueError):
            tlab.check_symmetry(tlab.geometry_fields(u), 1e-9)


class TestABound:
    def test_exact_grim_lambda2(self, grim_setup):
        _, _, _, fields = grim_setup
        rep = tlab.check_A_bound(fields, 1.0)
        assert rep.passed
        # max |A|^2 = 1/lam^2 = 0.25 on the lam = 2 cylinder
        assert np.nanmax(fields.A2) == pytest.approx(0.25, abs=1e-4)

    def test_bowl_apex_value(self, bowl_solves):
        out, _ = bowl_solves[0.05]
        fields = tlab.geometry_fields(out.solution)
        rep = tlab.check_A_bound(fields, 1.0)
        assert rep.passed
        assert np.nanmax(fields.A2) == pytest.approx(0.5, abs=1e-2)

    def test_inflated_A2_fails(self, grim_setup):
        _, _, _, fields = grim_setup
        fake = dataclasses.replace(fields, A2=10.0 * fields.A2)
        rep = tlab.check_A_bound(fake, 1.0)
        assert not rep.passed
        assert rep.worst_violation > 0.0


class TestHalfstripWBound:
    def test_exact_grim_passes(self, grim_setup):
        p, _, _, fields = grim_setup
        delta = 0.3 * p.half_width
        rep = tlab.check_halfstrip_W_bound(fields, p, delta)
        assert rep.passed
        assert rep.worst_violation < 0.0

    def test_solver_strip_passes(self, strip_solution, grim2):
        u = strip_solution.solution
        rep = tlab.check_halfstrip_W_bound(tlab.geometry_fields(u), grim2,
                                           0.3 * grim2.half_width)
        assert rep.passed

    def test_inflated_W_fails(self, grim_setup):
        p, u, parts, _ = grim_setup
        delta = 0.3 * p.half_width
        x1 = u.x1()
        i_spot = int(np.argmin(np.abs(x1 - (p.half_width - 1.6 * delta))))
        u1 = parts.u1.copy()
        u1[u.ny // 2 + 2, i_spot] = 10.0 * np.nanmax(np.abs(parts.u1)) + 50.0
        doctored = dataclasses.replace(parts, u1=u1)
        rep = tlab.check_halfstrip_W_bound(tlab.geometry_fields(u, doctored), p, delta)
        assert not rep.passed
        assert rep.worst_violation > 0.0

    def test_uncovered_grid_rejected(self, grim_setup):
        p, _, _, _ = grim_setup
        rect = tlab.Rectangle(-0.5, 0.5, -1.0, 1.0)
        small = tlab.sample_to_grid(lambda a, b: a * a, rect, 11, 11)
        with pytest.raises(ValueError):
            tlab.check_halfstrip_W_bound(tlab.geometry_fields(small), p, 0.3 * p.half_width)


class TestSuite:
    def test_monotone_in_tolerance(self, grim_setup):
        _, _, _, fields = grim_setup
        tight = tlab.check_convexity(fields, 1e-12)
        loose = tlab.check_convexity(fields, 1e-3)
        assert tight.worst_violation == loose.worst_violation
        if tight.passed:
            assert loose.passed

    def test_pass_iff_worst_below_tol(self, grim_setup):
        _, _, _, fields = grim_setup
        for tol in (1e-12, 1e-6, 1.0):
            rep = tlab.check_convexity(fields, tol)
            assert rep.passed == (rep.worst_violation <= rep.tolerance)

    def test_full_run_emits_one_report_per_check(self, strip_solution, grim2):
        u = strip_solution.solution
        names = tlab.default_suite(grim2, symmetric=True)
        cfg = tlab.SuiteConfig(grim=grim2, harnack_paths=25)
        reports = tlab.run_suite(u, names, cfg)
        assert [r.name for r in reports] == list(names)
        assert len({r.name for r in reports}) == len(reports)

    def test_unknown_name_rejected(self, grim_setup):
        _, u, _, _ = grim_setup
        with pytest.raises(ValueError, match="valid names"):
            tlab.run_suite(u, ["bogus"], tlab.SuiteConfig())

    def test_empty_suite_rejected(self, grim_setup):
        _, u, _, _ = grim_setup
        with pytest.raises(ValueError, match="empty"):
            tlab.run_suite(u, [], tlab.SuiteConfig())

    def test_partials_and_fields_computed_once_per_suite(self, monkeypatch, strip_solution,
                                                         grim2):
        calls = {"partials": 0, "geometry_fields": 0}

        def count(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        count(tlab.geometry, "partials")
        count(tlab.checks, "geometry_fields")
        names = tlab.default_suite(grim2, symmetric=True)
        reports = tlab.run_suite(strip_solution.solution, names,
                                 tlab.SuiteConfig(grim=grim2, harnack_paths=25))
        assert [r.name for r in reports] == list(tlab.checks.CANONICAL_ORDER)
        assert calls == {"partials": 1, "geometry_fields": 1}

    def test_unknown_names_listed_sorted(self):
        # the message must not depend on set iteration order
        with pytest.raises(ValueError, match=r"\['bogus', 'zeta'\]; valid names: convexity,"):
            tlab.checks.require_known(["zeta", "convexity", "bogus", "zeta"])
        tlab.checks.require_known(tlab.checks.CANONICAL_ORDER)

    def test_refusal_becomes_failed_report(self, saddle_grid):
        reports = tlab.run_suite(saddle_grid, ["convexity", "soliton_identities"],
                                 tlab.SuiteConfig())
        by_name = {r.name: r for r in reports}
        assert not by_name["convexity"].passed
        ident = by_name["soliton_identities"]
        assert not ident.passed
        assert "refused" in ident.notes

    # every report field but worst_location, as recorded before the
    # multi-term checks shared one reduction
    def test_readme_grim_report_pinned_but_for_locations(self):
        p, u = _readme_grim()
        names = [n for n in tlab.default_suite(p, True) if n != "strip_asymptotics_bottom"]
        reports = tlab.run_suite(u, names, tlab.SuiteConfig(grim=p, window=3.0))
        assert (_digest_without_locations(reports)
                == "7c740388ce055fc2edee111eece48fefe060caac55aeaac6bb8594702fda78c3")

    def test_strip_report_pinned_but_for_locations(self, strip_solution, grim2):
        reports = tlab.run_suite(strip_solution.solution, tlab.default_suite(grim2, True),
                                 tlab.SuiteConfig(grim=grim2))
        assert (_digest_without_locations(reports)
                == "3ad6711faf24c9921938bf140ebf5c54caeec43448ddd76a11dbf190d422bbaf")

    def test_strip_checks_need_grim_params(self, grim_setup):
        _, u, _, _ = grim_setup
        with pytest.raises(ValueError, match="grim"):
            tlab.run_suite(u, ["strip_H_bound"], tlab.SuiteConfig())

    def test_refinement_consistency_gradient_bound(self):
        # FD-limited worst violation of the lam=1 sample drops >= 3x per halving
        worsts = []
        for h in (0.02, 0.01):
            _, u = _grim_sample(lam=1.0, h=h, x2_span=0.2)
            rep = tlab.check_gradient_bounds(tlab.geometry_fields(u), 1.0)
            worsts.append(rep.worst_violation)
        assert worsts[0] > 0.0  # discretization-limited (positive) violation
        assert worsts[0] / worsts[1] >= 3.0
