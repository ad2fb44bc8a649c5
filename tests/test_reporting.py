import hashlib
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import tlab
from tlab import reporting
from tlab.checks import CheckReport


def _sample_grid():
    rect = tlab.Rectangle(-1.25, 2.5, 0.0, 1.0)
    vals = np.array([[0.0, 1.0 / 3.0, -2.5e-17],
                     [math.pi, -1e300, 4.9e-324],
                     [7.0, -0.0, 123456789.123456789]])
    return tlab.GridFunction(rect, vals)


class TestGridFile:
    def test_roundtrip_exact_values(self, tmp_path):
        u = _sample_grid()
        path = tmp_path / "g.grid"
        reporting.write_grid(path, u)
        back = reporting.read_grid(path)
        np.testing.assert_array_equal(back.values, u.values)
        assert back.rect == u.rect

    def test_second_write_is_byte_identical(self, tmp_path):
        u = _sample_grid()
        p1 = tmp_path / "a.grid"
        p2 = tmp_path / "b.grid"
        reporting.write_grid(p1, u)
        reporting.write_grid(p2, reporting.read_grid(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_contents(self):
        u = _sample_grid()
        head = reporting.format_grid(u).splitlines()[0].split()
        assert head[:2] == ["TLAB-GRID", "v1"]
        assert head[2:4] == ["3", "3"]

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            reporting.parse_grid("NOPE v1 3 3 0 1 0 1\n0 0 0\n0 0 0\n0 0 0\n")

    def test_count_mismatch_rejected(self):
        u = _sample_grid()
        text = reporting.format_grid(u)
        truncated = "\n".join(text.splitlines()[:-1]) + "\n"
        with pytest.raises(ValueError, match="rows"):
            reporting.parse_grid(truncated)

    def test_short_row_named(self):
        text = "TLAB-GRID v1 3 3 0 1 0 1\n0 0 0\n0 0\n0 0 0\n"
        with pytest.raises(ValueError, match=r"^row 1 has 2 values, expected 3$"):
            reporting.parse_grid(text)

    def test_bad_token_row_named(self):
        text = "TLAB-GRID v1 3 3 0 1 0 1\n0 0 0\n0 0 0\n0 1e 0\n"
        with pytest.raises(ValueError,
                           match=r"^row 2: could not convert string to float: '1e'$"):
            reporting.parse_grid(text)

    def test_nonfinite_rejected(self):
        text = "TLAB-GRID v1 3 3 0 1 0 1\n0 0 0\n0 inf 0\n0 0 0\n"
        with pytest.raises(ValueError):
            reporting.parse_grid(text)

    @given(st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                                       width=64),
                             min_size=4, max_size=4),
                    min_size=3, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_random_values(self, rows):
        vals = np.array(rows)
        u = tlab.GridFunction(tlab.Rectangle(0.0, 1.0, 0.0, 2.0), vals)
        back = reporting.parse_grid(reporting.format_grid(u))
        np.testing.assert_array_equal(back.values, u.values)
        assert reporting.format_grid(back) == reporting.format_grid(u)


def _format_per_value(u):
    """The grid text as one format(v, ".17g") call per value builds it."""
    def fmt(x):
        return format(float(x), ".17g")
    r = u.rect
    lines = [" ".join([reporting.GRID_MAGIC, reporting.GRID_VERSION, str(u.nx), str(u.ny),
                       fmt(r.x1_min), fmt(r.x1_max), fmt(r.x2_min), fmt(r.x2_max)])]
    lines += [" ".join(fmt(v) for v in u.values[j, :]) for j in range(u.ny)]
    return "\n".join(lines) + "\n"


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308, 1.0 / 3.0, -1e-300, 1e16, 123.0]


class TestGridFormat:
    @given(arrays(np.float64, st.tuples(st.integers(3, 6), st.integers(3, 9)),
                  elements=st.floats(allow_nan=False, allow_infinity=False, width=64)),
           st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                    min_size=2, max_size=2, unique=True).map(sorted),
           st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                    min_size=2, max_size=2, unique=True).map(sorted))
    @example(np.array(_EDGE_FLOATS).reshape(3, 4), [-0.0, 5e-324],
             [-1.7976931348623157e308, 1.7976931348623157e308])
    @settings(max_examples=200, deadline=None)
    def test_rows_match_per_value_format(self, vals, side1, side2):
        rect = tlab.Rectangle(*side1, *side2)
        u = tlab.GridFunction(rect, vals)
        assert reporting.format_grid(u) == _format_per_value(u)

    def test_nonfinite_rows_match_per_value_format(self):
        # a grid holds finite values only; the row format itself must still
        # spell nan and inf as format() does
        vals = np.array([[np.nan, np.inf, -np.inf], [-np.nan, 0.0, -0.0], [1.0, -5e-324, 1e308]])
        u = SimpleNamespace(rect=tlab.Rectangle(-1.0, 1.0, 0.0, 3.0), nx=3, ny=3, values=vals)
        assert reporting.format_grid(u) == _format_per_value(u)

    def test_grim_grid_text_pinned(self):
        p = tlab.GrimParams(2.0)
        R = p.half_width
        u = tlab.grim_grid(p, tlab.Rectangle(-0.75 * R, 0.75 * R, -5.0, 5.0), 101, 201)
        text = reporting.format_grid(u)
        assert text == _format_per_value(u)
        assert (hashlib.sha256(text.encode()).hexdigest()
                == "e4ab142824d1cc1c86dcc917bc966793c7228dc5004d972c8c74bab837b1acfd")


def _reports():
    return [
        CheckReport(name="convexity", statement_ref="kappa2 >= 0",
                    worst_violation=-1.5e-7, tolerance=1e-6, passed=True,
                    worst_location=(3, 4), notes="ok"),
        CheckReport(name="symmetry", statement_ref="u even in x1",
                    worst_violation=0.25, tolerance=1e-9, passed=False,
                    worst_location=None, notes="sheared"),
    ]


class TestReportFile:
    def test_summary_matches_tallies(self):
        rep = reporting.report_dict("run-1", {"lambda": 2.0}, _reports())
        assert rep["summary"] == {"passed": 1, "failed": 1}
        assert len(rep["checks"]) == 2

    def test_check_entry_schema(self):
        entry = reporting.check_to_dict(_reports()[0])
        assert list(entry.keys()) == ["name", "statement_ref", "worst_violation",
                                      "tolerance", "pass", "worst_location", "notes"]
        assert entry["worst_location"] == [3, 4]

    def test_roundtrip_byte_identical(self, tmp_path):
        rep = reporting.report_dict("run-1", {"lambda": 2.0, "seed": 0}, _reports())
        p1 = tmp_path / "r1.json"
        p2 = tmp_path / "r2.json"
        reporting.write_report(p1, rep)
        reporting.write_report(p2, reporting.read_report(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_checks_reconstruct_losslessly(self, tmp_path):
        rep = reporting.report_dict("run-1", {}, _reports())
        path = tmp_path / "r.json"
        reporting.write_report(path, rep)
        loaded = reporting.read_report(path)
        back = [reporting.check_from_dict(d) for d in loaded["checks"]]
        assert back == _reports()

    def test_json_is_schema_valid(self):
        rep = reporting.report_dict("run-x", {"paths": 100}, _reports())
        text = reporting.format_report(rep)
        doc = json.loads(text)
        assert set(doc.keys()) == {"run_id", "inputs", "checks", "summary"}
        for entry in doc["checks"]:
            assert set(entry.keys()) == {"name", "statement_ref", "worst_violation",
                                         "tolerance", "pass", "worst_location", "notes"}
