"""Bit-level pins on the hot numerical kernels.

The stencil, the residual and the bowl ODE loop are written for speed (in
place, on Python floats); these pins hold them to the plain expressions and
to values recorded from those expressions, so a later rewrite cannot drift
by a rounding.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

import tlab
import tlab.cli
from tlab.geometry import (_EXP_FLUSH, _phi, _residual_and_wsq, first_diffs,
                           interior_partials, quasilinear_residual, second_diffs)


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
    ringed = (*first_diffs(F, h1, h2), *second_diffs(F, h1, h2))
    for got, full, want in zip(interior_partials(F, h1, h2), ringed, expected):
        assert np.array_equal(got, want)
        assert np.array_equal(full[1:-1, 1:-1], want)


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


def test_relax_on_a_small_strip_pinned():
    g2 = tlab.GrimParams(2.0)
    rect, g = tlab.strip_boundary_data(g2, 0.25 * g2.half_width, 6.0, 3.0)
    init = tlab.fill_from_boundary(rect, 21, 41, g)
    out = tlab.parabolic_relax(g, init, tlab.SolveConfig(tol=1e-6))
    assert out.converged
    assert out.iterations == 4370
    assert out.history[-1].hex() == "0x1.0c64cf3000000p-20"
    assert (hashlib.sha256(out.solution.values.tobytes()).hexdigest()
            == "aba934233289826714b68758d8597fdc527d1411fe9a22973131410776ec5bf2")


def test_profile_export_csv_pinned(tmp_path):
    out = tmp_path / "bowl.csv"
    assert tlab.cli.main(["profile-export", "--rmax", "5", "--step", "0.01",
                          "--out", str(out)]) == 0
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == "bb074fa903c2179efb2fd913518d6f84b5d861969333af1651e8725dba7bafef")
