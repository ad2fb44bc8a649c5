"""Text grid files and JSON check reports.

The grid format is a diff-able plain-text table with a one-line header;
values carry 17 significant digits so write-read-write is byte-identical.
Reports are JSON documents whose summary tallies always match the check
list. Every file tlab writes goes through ``write_text``.
"""

from __future__ import annotations

import json
import os
import stat
import tempfile
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
    # each value takes at least one character and one separator, so a file
    # of len(text) characters holds at most len(text) // 2 of them
    if min(nx, ny) < 1 or nx * ny > len(text) // 2:
        raise ValueError(f"grid header nx={nx} ny={ny} does not fit a file of "
                         f"{len(text)} characters")
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


def write_text(path, text: str) -> None:
    """Write text to path; an existing regular file is replaced whole, never truncated.

    The text goes to a temporary sibling of the resolved path (a symlink stays
    a link and its target is replaced) that takes the old file's permission
    bits; the old file is unlinked and the temporary one renamed onto the
    name, so the name holds the old bytes or all of the new ones, and other
    hard links to the old file keep the old bytes. ext4 forces writeback of
    the new data when a file with data is truncated or renamed over, but not
    after an unlink. A missing name, or a path that is not a regular file
    (/dev/null, a FIFO), is written through. Any error names path. No
    temporary file is left, except after the old file is unlinked: if the
    rename then fails, or an interrupt lands, the temporary file is the only
    complete copy and is kept, holding the whole text.
    """
    target = os.path.realpath(path)
    if not os.path.isfile(target):
        Path(path).write_text(text)
        return
    tmp = None
    try:
        mode = stat.S_IMODE(os.stat(target).st_mode)
        fd, tmp = tempfile.mkstemp(prefix=os.path.basename(target) + ".", suffix=".tmp",
                                   dir=os.path.dirname(target))
        with os.fdopen(fd, "w") as f:
            os.fchmod(fd, mode)
            f.write(text)
        os.unlink(target)
        os.rename(tmp, target)
    except BaseException as err:
        # the temporary file is removed only while the old file still stands;
        # once that is unlinked, the temporary file is the only complete copy
        if tmp is not None and os.path.lexists(target) and os.path.lexists(tmp):
            os.unlink(tmp)
        if isinstance(err, OSError):
            raise OSError(err.errno, err.strerror, os.fspath(path)) from None
        raise


def write_grid(path, u: GridFunction) -> None:
    write_text(path, format_grid(u))


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
    write_text(path, format_report(report))


def read_report(path) -> dict:
    return json.loads(Path(path).read_text())
