import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tlab
from tlab.geometry import _phi, worst_over


def _grid(fn, rect=(-1.0, 1.0, -1.0, 1.0), nx=41, ny=41):
    return tlab.sample_to_grid(fn, tlab.Rectangle(*rect), nx, ny)


def _shape_operator(f):
    """S = g^{-1} h per node, with g = I + grad u grad u^T and h = hess u / W.

    NaN on the boundary ring, where the partials are untrusted.
    """
    p = f.parts
    grad = np.stack([p.u1, p.u2], axis=-1)
    g = np.eye(2) + grad[..., :, None] * grad[..., None, :]
    hess = np.stack([np.stack([p.u11, p.u12], axis=-1),
                     np.stack([p.u12, p.u22], axis=-1)], axis=-2)
    inner = np.s_[1:-1, 1:-1]
    S = np.full(g.shape, np.nan)
    S[inner] = np.linalg.solve(g[inner], hess[inner] / f.W[inner][..., None, None])
    return S


class TestPartials:
    def test_linear_exact(self):
        # exact up to the rounding of the sampled node coordinates
        u = _grid(lambda a, b: a)
        p = tlab.partials(u)
        inner = np.s_[1:-1, 1:-1]
        np.testing.assert_allclose(p.u1[inner], 1.0, atol=1e-12)
        np.testing.assert_allclose(p.u2[inner], 0.0, atol=1e-12)
        for f in (p.u11, p.u12, p.u22):
            np.testing.assert_allclose(f[inner], 0.0, atol=1e-11)

    def test_bilinear_cross_term_exact(self):
        u = _grid(lambda a, b: a * b)
        p = tlab.partials(u)
        np.testing.assert_allclose(p.u12[1:-1, 1:-1], 1.0, atol=1e-11)

    def test_sine_derivative_bound(self):
        # centered-difference error bound h^2/6 * max|u'''| at h = 0.01
        u = _grid(lambda a, b: np.sin(a) + 0.0 * b, rect=(-1.0, 1.0, -0.05, 0.05),
                  nx=201, ny=11)
        p = tlab.partials(u)
        X1, _ = u.mesh()
        err = np.abs(p.u1 - np.cos(X1))
        assert np.nanmax(err) <= 2e-5

    def test_boundary_ring_untrusted(self):
        u = _grid(lambda a, b: a * a + b * b)
        p = tlab.partials(u)
        assert np.all(np.isnan(p.u1[0, :]))
        assert np.all(np.isnan(p.u22[:, -1]))
        assert np.all(np.isfinite(p.u11[1:-1, 1:-1]))

    def test_grid_too_small(self):
        u = tlab.GridFunction(tlab.Rectangle(0, 1, 0, 1), np.zeros((4, 6)))
        with pytest.raises(ValueError):
            tlab.partials(u)

    # valid rectangles whose width overflows to inf, whose step squares to
    # inf, or whose step squares to 0
    @pytest.mark.parametrize("rect", [(-1.7e308, 1.7e308, 0.0, 1.0), (0.0, 1e300, 0.0, 1.0),
                                      (0.0, 1.0, 0.0, 1e-310)])
    def test_steps_that_cannot_be_differenced(self, rect):
        u = tlab.GridFunction(tlab.Rectangle(*rect), np.zeros((5, 5)))
        with pytest.raises(ValueError, match=r"cannot difference a 5x5 grid on the rectangle"):
            tlab.partials(u)


class TestGeometryFields:
    def test_plane_is_flat(self):
        a, b = 2.0, -0.5
        u = _grid(lambda x, y: a * x + b * y)
        f = tlab.geometry_fields(u)
        inner = np.s_[1:-1, 1:-1]
        np.testing.assert_allclose(f.H[inner], 0.0, atol=1e-11)
        np.testing.assert_allclose(f.kappa1[inner], 0.0, atol=1e-11)
        np.testing.assert_allclose(f.kappa2[inner], 0.0, atol=1e-11)
        np.testing.assert_allclose(f.W[inner], math.sqrt(1 + a * a + b * b), rtol=1e-12)

    def test_grim_reaper_ridge(self):
        p = tlab.GrimParams(1.0)
        u = _grid(lambda a, b: tlab.grim_cylinder_value(p, a, b),
                  rect=(-0.5, 0.5, -1.0, 1.0), nx=101, ny=21)
        f = tlab.geometry_fields(u)
        i0, j0 = u.nx // 2, u.ny // 2  # the x1 = 0 column
        assert f.kappa1[j0, i0] == pytest.approx(1.0, abs=1e-4)
        assert f.kappa2[j0, i0] == pytest.approx(0.0, abs=1e-10)
        assert f.H[j0, i0] == pytest.approx(1.0, abs=1e-4)
        assert f.W[j0, i0] == pytest.approx(1.0, abs=1e-6)

    def test_grim_cylinder_point_values(self):
        # at x1 = 2 pi/3 with lam = 2: H = cos(pi/3)/2 = 0.25, W = 4
        p = tlab.GrimParams(2.0)
        x0 = 2 * math.pi / 3
        u = _grid(lambda a, b: tlab.grim_cylinder_value(p, a, b),
                  rect=(x0 - 0.05, x0 + 0.05, -0.5, 0.5), nx=11, ny=11)
        f = tlab.geometry_fields(u)
        i0, j0 = 5, 5
        assert f.H[j0, i0] == pytest.approx(0.25, abs=2e-3)
        assert f.W[j0, i0] == pytest.approx(4.0, abs=1e-3)

    def test_W_squared_is_one_plus_gradient_squared(self):
        # W^2 = 1 + |grad|^2 holds exactly as assembled
        u = _grid(lambda a, b: a * a - 0.3 * a * b)
        f = tlab.geometry_fields(u)
        p = f.parts
        np.testing.assert_allclose(f.W ** 2, 1 + p.u1 ** 2 + p.u2 ** 2,
                                   rtol=1e-15, equal_nan=True)

    def test_eigenpairs_of_shape_operator(self):
        u = _grid(lambda a, b: np.sin(1.3 * a) * np.cos(0.7 * b) + 0.2 * a * b)
        f = tlab.geometry_fields(u)
        inner = np.s_[1:-1, 1:-1]
        S = _shape_operator(f)[inner]
        # S is similar to a symmetric matrix, so its eigenvalues are real
        eig = np.sort(np.linalg.eigvals(S).real, axis=-1)
        assert np.all(f.kappa1[inner] >= f.kappa2[inner])
        scale = np.abs(f.kappa1[inner]) + np.abs(f.kappa2[inner]) + 1.0
        assert np.max(np.abs(eig[..., 1] - f.kappa1[inner]) / scale) <= 1e-12
        assert np.max(np.abs(eig[..., 0] - f.kappa2[inner]) / scale) <= 1e-12

    def test_A2_equals_H2_minus_2K(self):
        # K = det S, with S built from the partials independently of the fields
        u = _grid(lambda a, b: np.sin(a) * np.sin(b))
        f = tlab.geometry_fields(u)
        inner = np.s_[1:-1, 1:-1]
        K = np.linalg.det(_shape_operator(f)[inner])
        diff = f.A2[inner] - (f.H[inner] ** 2 - 2.0 * K)
        assert np.max(np.abs(diff)) <= 1e-12

    def test_trace_matches_divergence_form(self):
        u = _grid(lambda a, b: 0.4 * a * a + np.cos(a + 0.5 * b))
        f = tlab.geometry_fields(u)
        p = f.parts
        div_form = tlab.geometry.quasilinear_residual(
            p.u1, p.u2, p.u11, p.u12, p.u22) + (1 + p.u1 ** 2 + p.u2 ** 2)
        H_div = div_form / f.W ** 3
        rel = np.abs(f.H - H_div) / (np.abs(H_div) + 1.0)
        assert np.nanmax(rel) <= 1e-10

    def test_translator_satisfies_HW_equals_one(self):
        # H = <N, e3> = 1/W on any translator, to discretization error
        p = tlab.GrimParams(2.0)
        u = _grid(lambda a, b: tlab.grim_cylinder_value(p, a, b),
                  rect=(-2.0, 2.0, -1.0, 1.0), nx=201, ny=101)
        f = tlab.geometry_fields(u)
        assert np.nanmax(np.abs(f.H * f.W - 1.0)) <= 1e-3

    def test_constant_shift_changes_nothing(self):
        u = _grid(lambda a, b: np.sin(a) + np.cos(b))
        shifted = tlab.GridFunction(u.rect, u.values + 42.0)
        f0 = tlab.geometry_fields(u)
        f1 = tlab.geometry_fields(shifted)
        for name in ("W", "H", "kappa1", "kappa2", "A2"):
            np.testing.assert_allclose(getattr(f1, name), getattr(f0, name),
                                       atol=1e-9, equal_nan=True)

    def test_tilt_pair_is_x2_reflection(self, grim2):
        # tilt_sign = -1 samples are the x2-reflection of tilt_sign = +1
        rect = tlab.Rectangle(-2.0, 2.0, -1.0, 1.0)
        up = tlab.grim_grid(tlab.GrimParams(2.0, 1), rect, 41, 21)
        dn = tlab.grim_grid(tlab.GrimParams(2.0, -1), rect, 41, 21)
        np.testing.assert_allclose(dn.values, up.values[::-1, :], atol=1e-12)
        fu = tlab.geometry_fields(up)
        fd = tlab.geometry_fields(dn)
        for name in ("W", "H", "kappa1", "kappa2"):
            a, b = getattr(fu, name), getattr(fd, name)
            np.testing.assert_allclose(b[1:-1, 1:-1], a[::-1, :][1:-1, 1:-1],
                                       atol=1e-10)

    def test_commutes_with_the_x1_x2_transpose(self):
        # the stencils and the rotation differ from the transposed ones only
        # in the order of their additions, so the fields agree to rounding.
        # On this grid h1 != h2: a stencil that uses one axis's step for the
        # other axis fails here. Swapping h1 and h2 everywhere commutes with
        # the transpose; the tests against exact fields catch that.
        u = _asymmetric_grid()
        r = u.rect
        t = tlab.GridFunction(tlab.Rectangle(r.x2_min, r.x2_max, r.x1_min, r.x1_max),
                              u.values.T.copy())
        f, ft = tlab.geometry_fields(u), tlab.geometry_fields(t)
        eps = np.finfo(float).eps
        for name in ("W", "H", "kappa1", "kappa2", "A2", "pinch"):
            a, b = getattr(f, name), getattr(ft, name).T
            np.testing.assert_array_equal(np.isnan(a), np.isnan(b), err_msg=name)
        for name in ("W", "H", "kappa1", "kappa2", "A2"):
            a, b = getattr(f, name), getattr(ft, name).T
            assert np.nanmax(np.abs(a - b)) <= 16 * eps * np.nanmax(np.abs(a)), name
        # pinch = phi(r), r = kappa2/kappa1, magnifies a relative error of r
        # by 4 + 2/r^2, and r carries the error of kappa1 relative to its
        # own size, which grows like max|kappa| / kappa1 as kappa1 -> 0+
        pos = f.pinch > 0.0
        k1, ratio = f.kappa1[pos], f.kappa2[pos] / f.kappa1[pos]
        cond = (4.0 + 2.0 / ratio ** 2) * np.nanmax(np.abs(f.kappa1)) / k1
        rel = np.abs(ft.pinch.T[pos] - f.pinch[pos]) / f.pinch[pos]
        assert np.all(rel <= 16 * eps * cond)
        np.testing.assert_array_equal(ft.pinch.T[f.pinch == 0.0], 0.0)


# sha256 of each field on a grid with no symmetry, NaNs written as one NaN
# (the sign of a NaN is platform arithmetic, not geometry)
_FIELD_SHA256 = {
    "W": "61f89da320f4db8fe682abe9ff9f5669b5f19f35680a2589480095234c519c4f",
    "H": "effc610b95c49dde60f2afd1d2435ec151813141531efb07bd446f7071e6fa13",
    "kappa1": "2c2226d0f3535c7278be27e102e67c51025577fec50b86806f7de79d00015ace",
    "kappa2": "521d61a031396c7879dc52369225b0b43d2aa86c721219e252f36ba0b5d0d497",
    "A2": "f9ea8b1ec567f9311459519beab5a6926f93b95f3bfbbbbeedeae87d9e151288",
    "pinch": "e62393760b1696f5cd87bfb7a03b75da4dace00060dfbd31fe98665e2f87c996",
}

# the same for the three drift_identity_residuals fields, (a), (b) and (c)
_DRIFT_SHA256 = (
    "442a0d7cdb98dbf1b47e359d73dcdbeaf28189f53ae266a9f1bba7ce88bda90b",
    "543ab4ebc4169bc83a9eb71438b7f48ca82f03e9a1ad3a840b3bf19987294b47",
    "a951624a6fa80edb6efbf47feb8db2c7f1161a70202b69774ba56f88b905328b",
)


def _asymmetric_grid():
    # kappa1 <= 0 at two nodes and kappa2 < 0 < kappa1 at 942, so pinch
    # takes its NaN, zero and positive branches
    return _grid(lambda a, b: (np.sin(1.7 * a + 0.4 * b) + 0.3 * a * b * b - 0.2 * b
                               + 0.05 * a ** 3),
                 rect=(-1.3, 0.9, -0.4, 1.7), nx=37, ny=29)


class TestGeometryFieldsPinned:
    def test_fields_pinned(self):
        f = tlab.geometry_fields(_asymmetric_grid())
        for name, want in _FIELD_SHA256.items():
            arr = getattr(f, name)
            arr = np.where(np.isnan(arr), np.nan, arr)
            assert hashlib.sha256(arr.tobytes()).hexdigest() == want, name

    def test_drift_residuals_pinned(self):
        # recorded from the written expressions, before the function freed
        # its intermediates as it went
        res = tlab.drift_identity_residuals(tlab.geometry_fields(_asymmetric_grid()))
        for name, arr, want in zip(("a", "b", "c"), res, _DRIFT_SHA256):
            arr = np.where(np.isnan(arr), np.nan, arr)
            assert hashlib.sha256(arr.tobytes()).hexdigest() == want, name


class TestTranslatorResidual:
    def test_zero_function(self):
        u = _grid(lambda a, b: np.zeros_like(a))
        res = tlab.translator_residual(u)
        np.testing.assert_array_equal(res[1:-1, 1:-1], -1.0)

    def test_exact_sample_residual_and_refinement(self, grim2):
        rect = tlab.Rectangle(-2.0, 2.0, -0.2, 0.2)
        maxima = {}
        for h in (0.02, 0.01):
            nx = int(round(4.0 / h)) + 1
            ny = int(round(0.4 / h)) + 1
            u = tlab.grim_grid(grim2, rect, nx, ny)
            maxima[h] = np.nanmax(np.abs(tlab.translator_residual(u)))
        assert maxima[0.01] <= 1e-4
        assert 3.5 <= maxima[0.02] / maxima[0.01] <= 4.5

    def test_bowl_joint_refinement(self):
        # ODE step refined with h^2 so the profile's and its cubic Hermite
        # samples' errors stay below the stencil's own truncation error
        rect = tlab.Rectangle(-1.0, 1.0, -1.0, 1.0)
        worst = []
        for step, n in [(0.01, 21), (0.0025, 41), (0.000625, 81)]:
            prof = tlab.bowl_profile_solve(2.0, step)
            u = tlab.bowl_grid(prof, rect, n, n)
            worst.append(np.nanmax(np.abs(tlab.translator_residual(u))))
        assert worst[0] > worst[1] > worst[2]
        assert worst[2] < worst[0] / 9.0


class TestDriftIdentities:
    def test_gradient_identity_is_rounding_level(self, grim2):
        rect = tlab.Rectangle(-2.0, 2.0, -0.2, 0.2)
        u = tlab.grim_grid(grim2, rect, 201, 21)
        res_a, _, _ = tlab.drift_identity_residuals(tlab.geometry_fields(u))
        assert np.nanmax(np.abs(res_a)) <= 1e-13

    def test_fd_magnitudes(self, grim2):
        rect = tlab.Rectangle(-2.0, 2.0, -0.1, 0.1)
        u = tlab.grim_grid(grim2, rect, 801, 41)  # h = 0.005
        _, res_b, res_c = tlab.drift_identity_residuals(tlab.geometry_fields(u))
        assert np.nanmax(np.abs(res_b)) <= 1e-3
        assert np.nanmax(np.abs(res_c)) <= 1e-1

    def test_refinement_order_on_analytic_fields(self, grim2):
        rect = tlab.Rectangle(-2.0, 2.0, -0.1, 0.1)
        worst = {}
        for h in (0.01, 0.005):
            nx = int(round(4.0 / h)) + 1
            ny = int(round(0.2 / h)) + 1
            u = tlab.grim_grid(grim2, rect, nx, ny)
            parts = tlab.grim_partials(grim2, u)
            _, res_b, res_c = tlab.drift_identity_residuals(tlab.geometry_fields(u, parts))
            worst[h] = (np.nanmax(np.abs(res_b)), np.nanmax(np.abs(res_c)))
        order_b = math.log2(worst[0.01][0] / worst[0.005][0])
        order_c = math.log2(worst[0.01][1] / worst[0.005][1])
        assert order_b >= 1.8
        assert order_c >= 1.8


class TestPinchingRatio:
    # _phi(kappa2 / kappa1) is the pinch field wherever kappa1 > 0
    def test_reference_values(self):
        assert _phi(0.5) == 0.0
        assert _phi(-1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert _phi(-0.5) == pytest.approx(math.exp(-4.0) / 16.0, rel=1e-13)

    def test_flat_to_zero_near_convexity(self):
        for k2 in (-1e-3, -1e-6):
            assert _phi(k2) < 1e-12

    @given(st.floats(min_value=-1.0, max_value=5.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_range_on_mean_convex_ratios(self, ratio):
        val = float(_phi(ratio))
        assert 0.0 <= val <= math.exp(-1.0)
        if ratio >= 0.0:
            assert val == 0.0
        elif ratio < -0.037:  # above the documented exp-flush threshold
            assert val > 0.0

    @given(st.floats(min_value=-1.0, max_value=-1e-3, allow_nan=False),
           st.floats(min_value=1e-3, max_value=0.9, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_monotone_toward_convexity(self, r, bump):
        # moving kappa2/kappa1 toward 0 from the left decreases the ratio
        r2 = r * (1.0 - bump)
        assert _phi(r2) <= _phi(r)


class TestWorstOver:
    def test_mirror_tie_reports_the_same_node_under_rounding(self):
        # x1-even field peaking at |x1| = 0.6, with the boundary ring untrusted
        u = _grid(lambda a, b: -(a * a - 0.36) ** 2 + 0.1 * b, nx=11, ny=9)
        field = u.values.copy()
        field[[0, -1], :] = np.nan
        field[:, [0, -1]] = np.nan
        locs = set()
        for side in (2, 8):  # the two x1 = -0.6, +0.6 nodes of the top trusted row
            bumped = field.copy()
            bumped[7, side] += 4.0 * np.spacing(bumped[7, side])
            worst, loc = worst_over(bumped)
            assert worst == np.nanmax(bumped)
            locs.add(loc)
        assert locs == {(8, 7)}

    def test_x2_mirror_tie_reports_the_same_node_under_rounding(self):
        u = _grid(lambda a, b: 1.0 - (a * a - 0.36) ** 2 - (b * b - 0.25) ** 2, nx=11, ny=9)
        locs = set()
        for side in [(2, 2), (2, 6), (8, 2), (8, 6)]:  # x1 = +-0.6, x2 = +-0.5
            bumped = u.values.copy()
            bumped[side[1], side[0]] += 4.0 * np.spacing(1.0)
            worst, loc = worst_over(bumped)
            assert worst == np.max(bumped)
            locs.add(loc)
        assert locs == {(8, 6)}

    def test_distinct_values_keep_the_true_arg_max(self):
        u = _grid(lambda a, b: -(a * a - 0.36) ** 2, nx=11, ny=9)
        field = u.values.copy()
        field[4, 2] += 1e-6
        assert worst_over(field) == (float(field[4, 2]), (2, 4))

    def test_overflow_is_a_violation_not_an_untrusted_node(self):
        field = np.zeros((5, 7))
        field[0, :] = np.nan
        field[3, 1] = np.inf
        field[3, 5] = 1e308  # the mirror of the overflowed node does not tie
        assert worst_over(field) == (np.inf, (1, 3))
        assert worst_over(np.full((3, 3), -np.inf)) == (-np.inf, (2, 2))

    def test_all_minus_inf_interior_is_trusted(self):
        # -inf is a value: the max lies on the trusted interior, never the NaN ring
        field = np.full((5, 5), -np.inf)
        field[[0, -1], :] = np.nan
        field[:, [0, -1]] = np.nan
        assert worst_over(field) == (-np.inf, (3, 3))
