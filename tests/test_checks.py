import dataclasses
import hashlib
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import tlab
from tlab import reporting


def _readme_grim():
    # the README example: tlab generate grim --lambda 2 --nx 101 --ny 201
    p = tlab.GrimParams(2.0)
    R = p.half_width
    return p, tlab.grim_grid(p, tlab.Rectangle(-0.75 * R, 0.75 * R, -5.0, 5.0), 101, 201)


def _digest(reports):
    report = reporting.report_dict("pin", {}, reports)
    return hashlib.sha256(reporting.format_report(report).encode()).hexdigest()


def _readme_bowl():
    # the README example: tlab generate bowl --nx 101 --ny 101, whose
    # profile runs at step 1e-3 just past the corner radius of [-4, 4]^2
    rmax = math.hypot(4.0, 4.0) * (1.0 + 1e-9) + 1e-3
    bowl = tlab.bowl_radial_function(tlab.bowl_profile_solve(rmax, 1e-3))
    return tlab.sample_to_grid(bowl, tlab.Rectangle(-4.0, 4.0, -4.0, 4.0), 101, 101)


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

    def test_no_trusted_pinch_reads_nan(self, grim_setup):
        _, _, _, fields = grim_setup
        fake = dataclasses.replace(fields, pinch=np.full(fields.pinch.shape, np.nan))
        assert tlab.check_convexity(fake, 1e-6).notes == "max pinching ratio nan"


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


def _path_length(u, path):
    """Graph length of a 4-adjacent node path, hypot(h, delta u) summed left to right."""
    total = 0.0
    for (i0, j0), (i1, j1) in zip(path[:-1], path[1:]):
        h = u.h1 if j1 == j0 else u.h2
        total += float(np.hypot(h, u.values[j1, i1] - u.values[j0, i0]))
    return total


def _staircase(start, end, rng):
    """A 4-connected path from start to end whose steps each move toward end."""
    (i0, j0), (i1, j1) = start, end
    moves = np.repeat([0, 1], [abs(i1 - i0), abs(j1 - j0)])
    rng.shuffle(moves)
    steps = np.where(moves[:, None] == 0, (np.sign(i1 - i0), 0), (0, np.sign(j1 - j0)))
    return np.cumsum(np.vstack(([i0, j0], steps)), axis=0)


class TestHarnack:
    def test_flat_curvature_is_equality(self):
        # H = 0 on a plane, so every edge reads exp(-w) * 0 - 0 = 0
        rect = tlab.Rectangle(-1.0, 1.0, -1.0, 1.0)
        u = tlab.sample_to_grid(lambda a, b: 0.0 * a + 0.0 * b, rect, 9, 7)
        rep = tlab.check_harnack(tlab.geometry_fields(u), 0.0)
        assert rep.passed
        assert rep.worst_violation == 0.0

    def test_exact_grim_passes_with_margin(self, grim_setup):
        _, u, _, fields = grim_setup
        rep = tlab.check_harnack(fields, 1e-8)
        assert rep.passed
        assert rep.worst_violation < 0.0
        # every edge between two interior nodes, counted once
        nx, ny = u.nx - 2, u.ny - 2
        assert rep.notes.startswith(f"{(nx - 1) * ny + nx * (ny - 1)} edges")

    def test_edge_lengths_are_two_node_path_lengths(self):
        rng = np.random.default_rng(5)
        u = tlab.GridFunction(tlab.Rectangle(-1.0, 2.0, -0.5, 0.5),
                              rng.uniform(-3.0, 3.0, size=(7, 9)))
        for axis, step in ((1, (1, 0)), (0, (0, 1))):
            w = tlab.checks._edge_lengths(u, axis)
            assert w.shape == (7 - step[1], 9 - step[0])
            for (j, i), wk in np.ndenumerate(w):
                far = (i + step[0], j + step[1])
                assert wk == _path_length(u, [(i, j), far])
                assert wk == _path_length(u, [far, (i, j)])

    @given(seed=st.integers(0, 2 ** 32 - 1), noise=st.floats(0.0, 0.015),
           ends=st.lists(st.integers(1, 10 ** 6), min_size=4, max_size=4))
    @example(seed=0, noise=0.0, ends=[1, 1, 10 ** 6, 10 ** 6])
    @settings(max_examples=60, deadline=None)
    def test_random_paths_pass_with_margin(self, grim_setup, seed, noise, ends):
        # multiplicative noise of up to 1.5% on H lets some fields fail an
        # edge; whenever none does, every staircase path passes as well
        _, u, _, fields = grim_setup
        rng = np.random.default_rng(seed)
        H = fields.H * np.exp(noise * rng.uniform(-1.0, 1.0, size=fields.H.shape))
        edge = tlab.check_harnack(dataclasses.replace(fields, H=H), 0.0)
        i0, j0, i1, j1 = (1 + e % (n - 2) for e, n in zip(ends, (u.nx, u.ny) * 2))
        path = _staircase((i0, j0), (i1, j1), rng)
        damp = math.exp(-_path_length(u, path))
        H0, H1 = H[j0, i0], H[j1, i1]
        # chaining the edge bounds rounds once per factor: a few ulps per segment
        allowance = 8.0 * len(path) * np.finfo(float).eps * max(H0, H1)
        if edge.passed:
            assert damp * H0 - H1 <= allowance
            assert damp * H1 - H0 <= allowance

    def test_curvature_jump_fails(self, grim_setup):
        _, u, _, fields = grim_setup
        H = fields.H.copy()
        H[10, 10] *= 10.0
        fake = dataclasses.replace(fields, H=H)
        rep = tlab.check_harnack(fake, 1e-8)
        assert not rep.passed
        assert rep.worst_violation > 0.0
        assert rep.worst_location in {(9, 10), (11, 10), (10, 9), (10, 11)}

    def test_location_is_the_far_end_of_the_worst_orientation(self, grim_setup):
        # a dip at one node: the edges into it fail and the report names it
        _, u, _, fields = grim_setup
        H = fields.H.copy()
        H[10, 12] /= 10.0
        rep = tlab.check_harnack(dataclasses.replace(fields, H=H), 1e-8)
        assert not rep.passed
        assert rep.worst_location == (12, 10)
        expected = max(math.exp(-_path_length(u, [(i, j), (12, 10)])) * H[j, i]
                       for i, j in ((11, 10), (13, 10), (12, 9), (12, 11))) - H[10, 12]
        assert rep.worst_violation == pytest.approx(expected, rel=1e-14)


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


def _translator_tol(u):
    # the suite's: ten times the identities' 100 h^2
    h = max(u.h1, u.h2)
    return 10.0 * (100.0 * h * h)


class TestTranslator:
    def test_far_from_solution_refused(self):
        # the zero function misses the translator equation by 1; at h = 0.02
        # the suite's tolerance, 10 x 100 h^2 = 0.4, refuses it, and so
        # does the injection ratio 1. The translator check runs in front of
        # any request
        rect = tlab.Rectangle(-1.0, 1.0, -1.0, 1.0)
        u = tlab.sample_to_grid(lambda a, b: np.zeros_like(a), rect, 101, 101)
        fields = tlab.geometry_fields(u)
        refused, _ = tlab.run_suite(u, ["soliton_identities"], tlab.SuiteConfig())
        assert tlab.check_translator(fields, _translator_tol(u)) == refused
        assert not refused.passed and refused.worst_violation > refused.tolerance
        assert "does not fall under injection by the bound 1.5" in refused.notes
        assert refused.worst_violation == float(np.nanmax(np.abs(tlab.translator_residual(u))))
        _, grim = _grim_sample()
        passing = tlab.check_translator(tlab.geometry_fields(grim), _translator_tol(grim))
        assert passing.passed and refused.statement_ref == passing.statement_ref
        assert "does not fall" not in passing.notes

    @pytest.mark.parametrize("nx, ny", [(5, 5), (6, 6), (5, 8)])
    def test_smallest_grids_inject(self, nx, ny):
        # every grid that partials accepts injects onto at least 3x3 nodes,
        # so the coarse residual has a node and the ratio is a number
        rect = tlab.Rectangle(-1.0, 1.0, -1.0, 1.0)
        u = tlab.sample_to_grid(lambda a, b: -np.log(np.cos(a)) + 0.0 * b, rect, nx, ny)
        rep = tlab.check_translator(tlab.geometry_fields(u), 1.0)
        assert np.isfinite(float(re.search(r"injection ratio (\S+)", rep.notes).group(1)))

    def test_location_is_the_worst_residual_node(self, saddle_grid):
        # the saddle's residual 4 x2^2 - 12 x1^2 - 1 is largest in magnitude
        # next to the x1 edges on x2 = 0: the mirror rule reports x1 > 0
        rep = tlab.check_translator(tlab.geometry_fields(saddle_grid), 1.0)
        res = np.abs(tlab.translator_residual(saddle_grid))
        assert rep.worst_violation == float(np.nanmax(res))
        assert rep.worst_location == (39, 20) and res[20, 39] == rep.worst_violation


# the translator equation's grid symmetries, each mapping the rectangle and
# the values onto their images
_GRID_SYMMETRIES = {
    "transpose": lambda u: tlab.GridFunction(
        tlab.Rectangle(u.rect.x2_min, u.rect.x2_max, u.rect.x1_min, u.rect.x1_max),
        u.values.T.copy()),
    "x1 reflection": lambda u: tlab.GridFunction(
        tlab.Rectangle(-u.rect.x1_max, -u.rect.x1_min, u.rect.x2_min, u.rect.x2_max),
        u.values[:, ::-1].copy()),
    "x2 reflection": lambda u: tlab.GridFunction(
        tlab.Rectangle(u.rect.x1_min, u.rect.x1_max, -u.rect.x2_max, -u.rect.x2_min),
        u.values[::-1].copy()),
}
# (bump on the bowl, rectangle, n): two fixed defects and one translator
_INJECTION_INPUTS = {
    "sin bump": (lambda a, b: 1e-3 * np.sin(3.0 * a), tlab.Rectangle(-1.0, 1.0, -1.0, 1.0), 21),
    "off-centre bowl": (lambda a, b: 0.0 * a, tlab.Rectangle(-0.5, 1.5, -1.0, 1.0), 41),
    "cos bump": (lambda a, b: 1e-3 * np.cos(3.0 * a) * np.cos(3.0 * b),
                 tlab.Rectangle(-1.0, 1.0, -1.0, 1.0), 21),
}


def _bumped_bowl(profile, bump, rect, n):
    bowl = tlab.bowl_radial_function(profile)
    return tlab.sample_to_grid(lambda a, b: bowl(a, b) + bump(a, b), rect, n, n)


def _injection(u):
    """Pass bit and notes ratio of the translator check at the suite's tol."""
    rep = tlab.check_translator(tlab.geometry_fields(u), _translator_tol(u))
    return rep.passed, re.search(r"injection ratio (\S+)", rep.notes).group(1)


class TestInjectionSymmetries:
    @pytest.mark.parametrize("symmetry", _GRID_SYMMETRIES)
    @pytest.mark.parametrize("name", _INJECTION_INPUTS)
    def test_commutes_on_odd_grids(self, bowl_profile_fine, name, symmetry):
        # with odd nx and ny, values[::2, ::2] keeps both edges of each axis,
        # so the coarse grid of the image is the image of the coarse grid
        u = _bumped_bowl(bowl_profile_fine, *_INJECTION_INPUTS[name])
        passed, ratio = _injection(u)
        assert passed == (name == "off-centre bowl")
        assert _injection(_GRID_SYMMETRIES[symmetry](u)) == (passed, ratio)

    def test_even_grid_reflection_takes_the_other_parity(self, bowl_profile_fine):
        # at 20x20, [::2] drops the last column; after the x1 reflection that
        # is the first column of the original, so the coarse grid is the
        # other parity's and the ratio moves. The refusal holds
        bump, rect, _ = _INJECTION_INPUTS["sin bump"]
        u = _bumped_bowl(bowl_profile_fine, bump, rect, 20)
        assert _injection(u) == (False, "0.990")
        assert _injection(_GRID_SYMMETRIES["x1 reflection"](u)) == (False, "1.014")


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
                v = tlab.GridFunction(u.rect, u.values * (1.0 + sign * k * 2e-16))
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
        rep = tlab.check_symmetry(tlab.geometry_fields(tlab.GridFunction(u.rect, bumped)), 1e-9)
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
            rep = tlab.check_symmetry(tlab.geometry_fields(tlab.GridFunction(u.rect, V)), 1e-9)
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
        rep = tlab.check_A_bound(fields)
        assert rep.passed
        # max |A|^2 = 1/lam^2 = 0.25 on the lam = 2 cylinder
        assert np.nanmax(fields.A2) == pytest.approx(0.25, abs=1e-4)

    def test_bowl_apex_value(self, bowl_solves):
        out, _ = bowl_solves[0.05]
        fields = tlab.geometry_fields(out.solution)
        rep = tlab.check_A_bound(fields)
        assert rep.passed
        assert np.nanmax(fields.A2) == pytest.approx(0.5, abs=1e-2)

    def test_inflated_A2_fails(self, grim_setup):
        _, _, _, fields = grim_setup
        fake = dataclasses.replace(fields, A2=10.0 * fields.A2)
        rep = tlab.check_A_bound(fake)
        assert not rep.passed
        assert rep.worst_violation > 0.0

    def test_overflowed_node_binds_and_is_observed(self, grim_setup):
        # +inf is a value, in the worst and in the notes' observed max alike
        _, _, _, fields = grim_setup
        A2 = fields.A2.copy()
        A2[5, 7] = np.inf
        rep = tlab.check_A_bound(dataclasses.replace(fields, A2=A2))
        assert (rep.worst_violation, rep.worst_location) == (np.inf, (7, 5))
        assert rep.notes == "cap 1; observed max |A|^2 = inf"


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

    def test_untrusted_center_column_is_named(self, grim2):
        # x2 >= 0 holds only the top row, on the NaN ring: C1 has no node
        R = grim2.half_width
        u = tlab.grim_grid(grim2, tlab.Rectangle(-0.75 * R, 0.75 * R, -5.0, 0.03), 61, 102)
        with pytest.raises(ValueError, match="x1 = 0 column"):
            tlab.check_halfstrip_W_bound(tlab.geometry_fields(u), grim2, 0.3 * R)


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
        cfg = tlab.SuiteConfig(grim=grim2)
        reports = tlab.run_suite(u, names, cfg)
        assert [r.name for r in reports] == list(names)
        assert len({r.name for r in reports}) == len(reports)

    def test_default_suite_filters_the_canonical_order(self, grim2):
        core = ("translator", "convexity", "harnack", "gradient_bounds", "soliton_identities")
        strip = ("translator", "convexity", "strip_H_bound", "harnack", "gradient_bounds",
                 "soliton_identities", "strip_asymptotics_top", "strip_asymptotics_bottom")
        assert tlab.default_suite(None, False) == (*core, "A_bound")
        assert tlab.default_suite(None, True) == (*core, "symmetry", "A_bound")
        assert tlab.default_suite(grim2, False) == (*strip, "A_bound", "halfstrip_W_bound")
        assert tlab.default_suite(grim2, True) == (*strip, "symmetry", "A_bound",
                                                   "halfstrip_W_bound")

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
                                 tlab.SuiteConfig(grim=grim2))
        assert [r.name for r in reports] == list(tlab.checks.CANONICAL_ORDER)
        assert calls == {"partials": 1, "geometry_fields": 1}

    def test_unknown_names_listed_sorted(self):
        # the message must not depend on set iteration order
        with pytest.raises(ValueError,
                           match=r"\['bogus', 'zeta'\]; valid names: translator, convexity,"):
            tlab.checks.require_known(["zeta", "convexity", "bogus", "zeta"])
        tlab.checks.require_known(tlab.checks.CANONICAL_ORDER)

    def test_refusal_becomes_failed_report(self, saddle_grid):
        reports = tlab.run_suite(saddle_grid, ["convexity", "soliton_identities"],
                                 tlab.SuiteConfig())
        assert [r.name for r in reports] == ["translator", "convexity", "soliton_identities"]
        translator, convexity, _ = reports
        assert not convexity.passed
        assert not translator.passed and translator.worst_violation > translator.tolerance
        assert "does not fall under injection" in translator.notes

    # every report field but worst_location, as recorded before the
    # multi-term checks shared one reduction; the harnack entry as recorded
    # when the check moved from random paths to every grid edge; the
    # translator entry and the identities notes as recorded when the
    # translator check took the residual and its injection ratio
    def test_readme_grim_report_pinned_but_for_locations(self):
        p, u = _readme_grim()
        names = [n for n in tlab.default_suite(p, True) if n != "strip_asymptotics_bottom"]
        reports = tlab.run_suite(u, names, tlab.SuiteConfig(grim=p, window=3.0))
        assert (_digest_without_locations(reports)
                == "eaf66f511b183dcb03d966e60ff2d46b7a02b51bfeb69b5b9b9603666fa47bab")

    # whole reports, locations included, recorded before the multi-term
    # checks built one violation field at a time; re-recorded when the
    # translator check became the suite's first entry
    def test_readme_grim_report_pinned(self):
        p, u = _readme_grim()
        names = [n for n in tlab.default_suite(p, True) if n != "strip_asymptotics_bottom"]
        reports = tlab.run_suite(u, names, tlab.SuiteConfig(grim=p, window=3.0))
        assert _digest(reports) == (
            "83b3bbd91e6106db587224056a7dae1af0724e49677a5ff84e62b59d00a0bd26")

    def test_readme_bowl_report_pinned(self):
        reports = tlab.run_suite(_readme_bowl(), tlab.default_suite(None, True),
                                 tlab.SuiteConfig())
        assert _digest(reports) == (
            "98525ab96675e089a4db20d93bf29c6a09fdadc6f75445d77ddbe9375c01ecde")

    def test_strip_report_pinned_but_for_locations(self, strip_solution, grim2):
        reports = tlab.run_suite(strip_solution.solution, tlab.default_suite(grim2, True),
                                 tlab.SuiteConfig(grim=grim2))
        assert (_digest_without_locations(reports)
                == "95ae8536f702619fa09770c506269401b3791ab4c4c10610e630fbe701666d3b")

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

    def test_commutes_with_the_x2_reflection(self):
        # u(x1, x2) -> u(x1, -x2) maps tilt + onto tilt - and swaps the far
        # windows; nothing in the suite samples at random, so every report
        # maps onto its image
        p, u = _readme_grim()
        image = tlab.GridFunction(u.rect, u.values[::-1].copy())
        minus = tlab.grim_grid(tlab.GrimParams(2.0, -1), u.rect, u.nx, u.ny)
        eps_u = np.finfo(float).eps * np.max(np.abs(u.values))
        assert np.max(np.abs(image.values - minus.values)) <= 16.0 * eps_u
        names = tlab.default_suite(p, True)
        cfg = tlab.SuiteConfig(grim=p, window=3.0)
        swap = {"strip_asymptotics_top": "strip_asymptotics_bottom",
                "strip_asymptotics_bottom": "strip_asymptotics_top"}
        mapped = {r.name: r for r in tlab.run_suite(image, names, cfg)}
        for r in tlab.run_suite(u, names, cfg):
            m = mapped[swap.get(r.name, r.name)]
            assert m.passed == r.passed, r.name
            scale = max(eps_u, np.finfo(float).eps * abs(r.worst_violation))
            assert abs(m.worst_violation - r.worst_violation) <= 16.0 * scale, r.name
            # the fields of a tilted grim are constant along x2 up to
            # rounding, so rounding picks the row; the column is the shape's
            assert (m.worst_location is None) == (r.worst_location is None), r.name
            if r.worst_location is not None:
                assert m.worst_location[0] == r.worst_location[0], r.name


class TestOneFieldAtATime:
    def test_binding_builds_each_field_once_in_order_and_drops_it(self):
        built, refs = [], []

        def term(label, node, value):
            def build():
                # every field built before this one is already freed
                assert all(ref() is None for ref in refs)
                built.append(label)
                field = np.full((5, 7), np.nan)
                field[node] = value
                refs.append(weakref.ref(field))
                return field
            return build

        worst, loc, label, each = tlab.checks._binding({
            "a": term("a", (1, 1), -1.0),
            "b": term("b", (1, 2), 2.0),
            "c": term("c", (3, 1), 2.0),
        })
        assert built == ["a", "b", "c"]
        # an exact tie: the first label binds, at its own node
        assert (worst, loc, label) == (2.0, (2, 1), "b")
        assert each == {"a": -1.0, "b": 2.0, "c": 2.0}
        assert all(ref() is None for ref in refs)


# tracemalloc peak of each stage on the 201x401 tilted grim, in full-size
# arrays; every check not named here stays within 4. A reduction adds at
# most one boolean array to the field it reads. run_suite builds the fields
# and keeps them for every check, so its peak is theirs plus the largest
# check's, soliton_identities'.
_PEAK_ARRAYS = {"geometry_fields": 12.5, "soliton_identities": 4.5, "run_suite": 15.5,
                "gradient_bounds": 3.25, "worst_over": 0.5, "convexity": 1.5,
                "strip_H_bound": 1.5, "A_bound": 1.5}


@pytest.fixture(scope="module")
def tilted_grim_201x401():
    p = tlab.GrimParams(2.0)
    R = p.half_width
    u = tlab.grim_grid(p, tlab.Rectangle(-0.75 * R, 0.75 * R, -5.0, 5.0), 201, 401)
    return p, u, tlab.geometry_fields(u)


@pytest.mark.parametrize("stage", ["geometry_fields", "worst_over", "run_suite",
                                   *tlab.checks.CANONICAL_ORDER])
def test_peak_memory_in_full_size_arrays(stage, tilted_grim_201x401):
    p, u, g = tilted_grim_201x401
    if stage == "geometry_fields":
        def run():
            tlab.geometry_fields(u)
    elif stage == "run_suite":
        def run():
            tlab.run_suite(u, tlab.checks.CANONICAL_ORDER, tlab.SuiteConfig(grim=p, window=3.0))
    elif stage == "worst_over":
        def run():
            tlab.geometry.worst_over(g.H)
    else:
        def run():
            tlab.checks._SUITE[stage](g, max(u.h1, u.h2), tlab.SuiteConfig(grim=p, window=3.0))
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _PEAK_ARRAYS.get(stage, 4) * u.values.nbytes
