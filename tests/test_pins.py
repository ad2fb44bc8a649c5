"""Bit-level pins on the hot numerical kernels.

The stencil, the residual and the bowl ODE loop are written for speed (in
place, on Python floats); these pins hold them to the plain expressions and
to values recorded from those expressions, so a later rewrite cannot drift
by a rounding. The bowl's cubic Hermite interpolant (on the profile's own
RK4 slopes) is held to scipy's CubicHermiteSpline, which only the tests
import.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline

import tlab
import tlab.cli
from tlab.geometry import (_EXP_FLUSH, _phi, _residual_and_wsq, difference,
                           interior_partials, quasilinear_residual)
from tlab.solitons import RK4_STABILITY_LIMIT, _hermite_coefficients, _piecewise_cubic
from tlab.solver import _rounding_floor


def _fields(seed, shape, k=5):
    # signed values spread over 11 decades, so large and negative entries
    # meet small ones in every term
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 9, size=shape)
            for _ in range(k)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_residual_matches_the_written_expression(seed):
    u1, u2, u11, u12, u22 = _fields(seed, (37, 23))
    expected = ((1.0 + u2 * u2) * u11 - 2.0 * u1 * u2 * u12
                + (1.0 + u1 * u1) * u22 - (1.0 + u1 * u1 + u2 * u2))
    assert np.array_equal(quasilinear_residual(u1, u2, u11, u12, u22), expected)
    R, Wsq = _residual_and_wsq(u1, u2, u11, u12, u22)
    assert np.array_equal(R, expected)
    assert np.array_equal(Wsq, 1.0 + u1 * u1 + u2 * u2)


def test_residual_of_scalars():
    args = (-0.7, 1e4, 3.5, -2e-3, 11.0)
    u1, u2, u11, u12, u22 = args
    expected = ((1.0 + u2 * u2) * u11 - 2.0 * u1 * u2 * u12
                + (1.0 + u1 * u1) * u22 - (1.0 + u1 * u1 + u2 * u2))
    assert quasilinear_residual(*args) == expected


@pytest.mark.parametrize("shape", [(119, 59), (599, 119)])
def test_residual_holds_at_most_three_temporaries(shape):
    # the written expression peaks at three full-size arrays once numpy
    # reuses its temporaries; forming the shared squares must not add one
    u = _fields(3, shape)
    tracemalloc.start()
    try:
        quasilinear_residual(*u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * u[0].nbytes


def test_stencil_matches_the_written_differences():
    (F,) = _fields(4, (31, 17), k=1)
    h1, h2 = 0.3, 0.07
    C = F[1:-1, 1:-1]
    expected = ((F[1:-1, 2:] - F[1:-1, :-2]) / (2.0 * h1),
                (F[2:, 1:-1] - F[:-2, 1:-1]) / (2.0 * h2),
                (F[1:-1, 2:] - 2.0 * C + F[1:-1, :-2]) / (h1 * h1),
                (F[2:, 2:] - F[2:, :-2] - F[:-2, 2:] + F[:-2, :-2]) / (4.0 * h1 * h2),
                (F[2:, 1:-1] - 2.0 * C + F[:-2, 1:-1]) / (h2 * h2))
    for k, (got, want) in enumerate(zip(interior_partials(F, h1, h2), expected)):
        assert np.array_equal(got, want)
        full = difference(F, h1, h2, k)
        assert np.array_equal(full[1:-1, 1:-1], want)
        assert np.isnan(full[[0, -1]]).all() and np.isnan(full[:, [0, -1]]).all()


def _rounding_floor_written(U, h1, h2):
    u1 = (U[1:-1, 2:] - U[1:-1, :-2]) / (2.0 * h1)
    u2 = (U[2:, 1:-1] - U[:-2, 1:-1]) / (2.0 * h2)
    a = np.abs(U)
    centre = 2.0 * a[1:-1, 1:-1]
    est = ((1.0 + u2 * u2) / (h1 * h1) * (a[1:-1, 2:] + centre + a[1:-1, :-2])
           + (1.0 + u1 * u1) / (h2 * h2) * (a[2:, 1:-1] + centre + a[:-2, 1:-1])
           + np.abs(u1 * u2) / (2.0 * h1 * h2)
           * (a[2:, 2:] + a[2:, :-2] + a[:-2, 2:] + a[:-2, :-2]))
    return float(np.finfo(float).eps * np.max(est))


@pytest.mark.parametrize("grid", ["random", "strip"])
def test_rounding_floor_matches_the_written_expression(grid, request):
    # and the values recorded from that expression
    if grid == "random":
        (U,) = _fields(5, (41, 29), k=1)
        h1, h2, recorded = 0.3, 0.07, "0x1.693cf0d456f0fp+39"
    else:
        u = request.getfixturevalue("strip_solution").solution
        U, h1, h2, recorded = u.values, u.h1, u.h2, "0x1.39fc5cf60dc0dp-32"
    floor = _rounding_floor(U, h1, h2)
    assert floor == _rounding_floor_written(U, h1, h2)
    assert floor.hex() == recorded


def _phi_written(r):
    # the convexity weight as written before its all-flushed early exit
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    neg = r < 0.0
    if np.any(neg):
        rn = r[neg]
        with np.errstate(over="ignore", divide="ignore"):
            z = np.where(rn > -1e-150, -np.inf, -1.0 / (rn * rn))
        out[neg] = np.where(z < _EXP_FLUSH, 0.0, rn ** 4 * np.exp(np.maximum(z, _EXP_FLUSH)))
    return np.where(np.isnan(r), np.nan, out)


def _around_flush_boundary(ulps=6):
    # -1/sqrt(745) and its neighbours, where -1/r^2 crosses _EXP_FLUSH
    edge = -1.0 / np.sqrt(-_EXP_FLUSH)
    up = down = edge
    out = [edge]
    for _ in range(ulps):
        up, down = np.nextafter(up, 0.0), np.nextafter(down, -np.inf)
        out += [up, down]
    return out


_TINY_NEGATIVE = [-1e-150, -9.99e-151, -1e-151, -1e-200, -2.2250738585072014e-308,
                  -2.2250738585072009e-308, -1e-320, -5e-324, -0.0, -2.1e-12]
_OTHER = [np.nan, -np.nan, 0.0, 5e-324, 1e-3, 0.5, 1.0, 1e300, np.inf,
          -0.04, -0.5, -1.0, -3.0, -1e10, -1e300, -1.7976931348623157e308, -np.inf]


@pytest.mark.parametrize("r", [
    _around_flush_boundary(),
    _TINY_NEGATIVE,
    _OTHER,
    _TINY_NEGATIVE + [0.0, 0.25, np.nan, -0.01, -0.03],  # every negative flushes
    _around_flush_boundary() + _TINY_NEGATIVE + _OTHER,
], ids=["flush-boundary", "tiny-negative", "nan-positive-large", "all-flushed", "mixed"])
def test_phi_matches_the_written_expression(r):
    r = np.array(r)
    with np.errstate(over="ignore"):  # r ** 4 overflows on the largest negatives
        assert _phi(r).tobytes() == _phi_written(r).tobytes()
        assert (_phi(r.reshape(1, -1)[:, ::-1]).tobytes()
                == _phi_written(r[::-1].reshape(1, -1)).tobytes())
        for x in r:
            assert _phi(np.asarray(x)).tobytes() == _phi_written(np.asarray(x)).tobytes()


def test_bowl_profile_end_values_pinned():
    p = tlab.bowl_profile_solve(5.8, 1e-3)
    assert len(p.r) == 5801
    assert float(p.f[-1]).hex() == "0x1.ce2917e61bd0ap+3"
    assert float(p.fp[-1]).hex() == "0x1.675c8f5730e6bp+2"


@pytest.mark.parametrize("fixture, n, f_digest, fp_digest", [
    ("bowl_profile_fine", 58001,
     "7eed22d6a1f1c7a56c83baa87e195adca9c2170455c47e6b4cb2a44a56bb521a",
     "436f5ada084a612eae3cbbc5e9f09672d4f0fa64a65dc52ee49dac30f83394c6"),
    ("bowl_profile_long", 80001,
     "b9cf3da58a93fe1239ff357530895bc2c47f2a3b6131f79867a72bc1741fa85b",
     "2abda82eb205458fa7e002b2526f5af53c66f53935bc5d3c232f3f2d1d64b919"),
], ids=["fine-5.8", "long-80"])
def test_bowl_profile_samples_pinned(request, fixture, n, f_digest, fp_digest):
    # every sample of (5.8, 1e-4) and (80, 1e-3), recorded from the plain
    # RK4 loop: one slope-rate call per stage, f and f' stepped together
    p = request.getfixturevalue(fixture)
    assert len(p.r) == n
    assert hashlib.sha256(p.f.tobytes()).hexdigest() == f_digest
    assert hashlib.sha256(p.fp.tobytes()).hexdigest() == fp_digest


def _bowl_written(r_max, step):
    # the RK4 loop as written before its stages were fused and f moved to
    # whole arrays
    rate = lambda r, s: (1.0 + s * s) * (1.0 - s / r)
    n = int(round(r_max / step))
    h = float(r_max) / n
    y, yp = 0.25 * h * h, 0.5 * h
    f, fp = [0.0, y], [0.0, yp]
    for rk in np.linspace(0.0, r_max, n + 1).tolist()[1:n]:
        k1 = rate(rk, yp)
        s2 = yp + 0.5 * h * k1
        k2 = rate(rk + 0.5 * h, s2)
        s3 = yp + 0.5 * h * k2
        k3 = rate(rk + 0.5 * h, s3)
        s4 = yp + h * k3
        k4 = rate(rk + h, s4)
        y += (h / 6.0) * (yp + 2.0 * s2 + 2.0 * s3 + s4)
        yp += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        f.append(y)
        fp.append(yp)
    return np.array(f), np.array(fp)


@pytest.mark.parametrize("r_max, step", [(2.0, 0.1), (6.0, 0.01), (12.345, 0.0017),
                                         (60.0, 0.01), (1000.0, 0.37)])
def test_bowl_profile_matches_the_written_loop(r_max, step):
    f, fp = _bowl_written(r_max, step)
    if step * r_max > RK4_STABILITY_LIMIT:
        # at (1000, 0.37) the step is too coarse: the written loop overflows
        # f' to inf and NaN, and the solve refuses the step instead
        assert not np.all(np.isfinite(fp))
        with pytest.raises(ValueError, match="too coarse for r_max 1000"):
            tlab.bowl_profile_solve(r_max, step)
        return
    p = tlab.bowl_profile_solve(r_max, step)
    assert p.f.tobytes() == f.tobytes()
    assert p.fp.tobytes() == fp.tobytes()


@pytest.mark.parametrize("n, digest", [
    (81, "c90041080599136057e3525eaf5e1f457ff3669e9513464dcbbb3c9f1b1d815a"),
    (161, "551223d4c064e849018263cbb7407f39dd089d9ba27ee193499c18b6914ed015"),
])
def test_bowl_grid_pinned(bowl_profile_fine, n, digest):
    # the oracle grids of the Dirichlet bowl solves, recorded from
    # scipy.interpolate.CubicHermiteSpline(r, f, fp)
    rect = tlab.Rectangle(-4.0, 4.0, -4.0, 4.0)
    u = tlab.bowl_grid(bowl_profile_fine, rect, n, n)
    assert hashlib.sha256(u.values.tobytes()).hexdigest() == digest


def _cli_bowl_profile():
    # the profile `tlab generate bowl` samples with its default flags
    args = tlab.cli.build_parser().parse_args(["generate", "bowl", "--out", "unused"])
    rect, _ = tlab.cli._closed_form(args, "bowl", grim_x2=5.0)
    return tlab.cli._bowl_profile(args, rect)


# certify_sweep's profile, the README's profile-export, the CLI default
# (the README's generate bowl), two that the solver and sampling tests use,
# and the coarsest the tests sample (generate bowl at step 0.4)
_PROFILES = pytest.mark.parametrize("make", [
    lambda request: request.getfixturevalue("bowl_profile_fine"),
    lambda request: request.getfixturevalue("bowl_profile_long"),
    lambda request: _cli_bowl_profile(),
    lambda request: tlab.bowl_profile_solve(6.0, 0.01),
    lambda request: tlab.bowl_profile_solve(2.0, 0.1),
    lambda request: tlab.bowl_profile_solve(3.2, 0.4),
], ids=["fine-5.8", "long-80", "cli-default", "6-0.01", "2-0.1", "3.2-0.4"])


@_PROFILES
def test_bowl_samples_are_scipy_pchip(request, make):
    # PCHIP read as the acronym: the piecewise cubic Hermite interpolant,
    # here on the profile's own slopes
    p = make(request)
    oracle = CubicHermiteSpline(p.r, p.f, p.fp)
    assert np.array_equal(_hermite_coefficients(p.r, p.f, p.fp), oracle.c)
    fn = tlab.bowl_radial_function(p)
    rr = np.concatenate([p.r, [0.0, p.r_max, np.nan]])
    assert np.array_equal(fn(rr, np.zeros_like(rr)), oracle(rr), equal_nan=True)
    rng = np.random.default_rng(7)
    radius = p.r_max * np.sqrt(rng.uniform(0.0, 1.0, 20000))
    angle = rng.uniform(0.0, 2.0 * np.pi, 20000)
    x1, x2 = radius * np.cos(angle), radius * np.sin(angle)
    assert np.array_equal(fn(x1, x2), oracle(np.hypot(x1, x2)))
    half = p.r_max / 1.5
    rect = tlab.Rectangle(-half, half, -half, half)
    u = tlab.bowl_grid(p, rect, 41, 41)
    assert np.array_equal(u.values, oracle(np.hypot(*u.mesh())))


@_PROFILES
def test_sampled_bowl_is_convex(request, make):
    # f'' is linear on each interval, so f'' >= 0 at both ends makes every
    # interval's cubic convex; the cubics share their slopes at the nodes,
    # so the whole sampled profile is convex
    p = make(request)
    c = _hermite_coefficients(p.r, p.f, p.fp)
    h = np.diff(p.r)
    assert np.all(2.0 * c[1] >= 0.0)
    assert np.all(6.0 * c[0] * h + 2.0 * c[1] >= 0.0)


_X = np.array([0.0, 0.1, 0.5, 0.6, 2.0, 3.5, 3.6, 5.0])


@pytest.mark.parametrize("x, y", [
    (_X, np.array([0.0, 0.3, 0.4, 1.5, 1.6, 4.0, 7.0, 7.1])),
    (_X, np.array([0.0, 1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0])),
    (_X, np.array([0.0, 2.0, -1.0, 3.0, -1.0, 0.5, 0.5, -2.0])),
    (np.array([0.0, 0.7]), np.array([1.0, -2.0])),
], ids=["monotone", "zero-slopes", "sign-changes", "two-samples"])
def test_pchip_is_scipy_on_non_uniform_data(x, y):
    # the given slopes are the data's own difference quotients
    d = np.gradient(y, x)
    oracle = CubicHermiteSpline(x, y, d)
    c = _hermite_coefficients(x, y, d)
    assert np.array_equal(c, oracle.c)
    mid = 0.5 * (x[:-1] + x[1:])
    v = np.concatenate([x, mid, np.linspace(x[0] - 1.0, x[-1] + 1.0, 997), [np.nan]])
    assert np.array_equal(_piecewise_cubic(x, c, v), oracle(v), equal_nan=True)


def test_pchip_is_scipy_on_random_non_monotone_data():
    rng = np.random.default_rng(11)
    for k in range(300):
        n = int(rng.integers(2, 30))
        x = np.cumsum(rng.uniform(0.01, 2.0, n))
        y = rng.standard_normal(n)
        if k % 3 == 0:
            y[rng.integers(0, n, n // 2)] = 0.0
        d = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 3)
        oracle = CubicHermiteSpline(x, y, d)
        c = _hermite_coefficients(x, y, d)
        assert np.array_equal(c, oracle.c)
        v = np.concatenate([x, rng.uniform(x[0] - 1.0, x[-1] + 1.0, 200)])
        assert np.array_equal(_piecewise_cubic(x, c, v), oracle(v))


def test_relax_on_a_small_strip_pinned():
    g2 = tlab.GrimParams(2.0)
    rect, g = tlab.strip_boundary_data(g2, 0.25 * g2.half_width, 6.0, 3.0)
    init = tlab.fill_from_boundary(rect, 21, 41, g)
    out = tlab.parabolic_relax(g, init, tlab.SolveConfig(tol=1e-6))
    assert out.converged
    assert out.iterations == 464
    assert out.history[-1].hex() == "0x1.ac8ee99000000p-21"
    assert (hashlib.sha256(out.solution.values.tobytes()).hexdigest()
            == "8c21e1127f676c609bd515fd35ca07ceccbb1ff269c4a017c4b85aa0ec5e805a")


def test_profile_export_csv_pinned(tmp_path):
    out = tmp_path / "bowl.csv"
    assert tlab.cli.main(["profile-export", "--rmax", "5", "--step", "0.01",
                          "--out", str(out)]) == 0
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == "bb074fa903c2179efb2fd913518d6f84b5d861969333af1651e8725dba7bafef")
