"""Text grid files and JSON check reports.

The grid format is a diff-able plain-text table with a one-line header;
values carry 17 significant digits so write-read-write is byte-identical.
Reports are JSON documents whose summary tallies always match the check
list.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .checks import CheckReport
from .grids import GridFunction, Rectangle

GRID_MAGIC = "TLAB-GRID"
GRID_VERSION = "v1"


def format_grid(u: GridFunction) -> str:
    # "%.17g" % x is the string format(x, ".17g"); one %-format per row runs
    # in C, and formatting row by row keeps one row of Python floats alive
    r = u.rect
    lines = ["%s %s %d %d %.17g %.17g %.17g %.17g" % (GRID_MAGIC, GRID_VERSION, u.nx, u.ny,
                                                       r.x1_min, r.x1_max, r.x2_min, r.x2_max)]
    row = " ".join(["%.17g"] * u.nx)
    lines += [row % tuple(v.tolist()) for v in u.values]
    return "\n".join(lines) + "\n"


def parse_grid(text: str) -> GridFunction:
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty grid file")
    head = lines[0].split()
    if len(head) != 8 or head[0] != GRID_MAGIC or head[1] != GRID_VERSION:
        raise ValueError(f"bad grid header: expected '{GRID_MAGIC} {GRID_VERSION} "
                         "nx ny x1_min x1_max x2_min x2_max'")
    nx, ny = int(head[2]), int(head[3])
    rect = Rectangle(float(head[4]), float(head[5]), float(head[6]), float(head[7]))
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != ny:
        raise ValueError(f"expected {ny} data rows, found {len(body)}")
    vals = np.empty((ny, nx))
    for j, ln in enumerate(body):
        row = ln.split()
        if len(row) != nx:
            raise ValueError(f"row {j} has {len(row)} values, expected {nx}")
        try:
            vals[j, :] = [float(tok) for tok in row]
        except ValueError as err:
            raise ValueError(f"row {j}: {err}") from None
    if not np.all(np.isfinite(vals)):
        raise ValueError("grid file contains nonfinite values")
    return GridFunction(rect, vals)


def write_grid(path, u: GridFunction) -> None:
    Path(path).write_text(format_grid(u))


def read_grid(path) -> GridFunction:
    return parse_grid(Path(path).read_text())


def check_to_dict(cr: CheckReport) -> dict:
    return {
        "name": cr.name,
        "statement_ref": cr.statement_ref,
        "worst_violation": float(cr.worst_violation),
        "tolerance": float(cr.tolerance),
        "pass": bool(cr.passed),
        "worst_location": (None if cr.worst_location is None
                           else [int(cr.worst_location[0]), int(cr.worst_location[1])]),
        "notes": cr.notes,
    }


def check_from_dict(d: dict) -> CheckReport:
    loc = d.get("worst_location")
    return CheckReport(name=d["name"], statement_ref=d["statement_ref"],
                       worst_violation=float(d["worst_violation"]),
                       tolerance=float(d["tolerance"]), passed=bool(d["pass"]),
                       worst_location=None if loc is None else (int(loc[0]), int(loc[1])),
                       notes=d.get("notes", ""))


def report_dict(run_id: str, inputs: dict, checks: list[CheckReport]) -> dict:
    entries = [check_to_dict(c) for c in checks]
    passed = sum(1 for c in checks if c.passed)
    return {
        "run_id": run_id,
        "inputs": inputs,
        "checks": entries,
        "summary": {"passed": passed, "failed": len(checks) - passed},
    }


def format_report(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def write_report(path, report: dict) -> None:
    Path(path).write_text(format_report(report))


def read_report(path) -> dict:
    return json.loads(Path(path).read_text())
