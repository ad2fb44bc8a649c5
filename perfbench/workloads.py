"""The benchmark's three workloads.

Each workload builds its inputs from the seed in ``setup`` and hands back,
per pass, a fixed list of operations. An operation returns the problems it
found (none when it succeeded), or ``(problems, seconds)`` when its figure
is not its own wall time. A problem is wrong when an output was checked and
found incorrect; an honest non-convergence fails the operation without
being wrong.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import tlab
from tlab import checks as ck
from tlab import reporting as rep

# max |u - grim_grid| allowed for the 303x303 solve; the seed commit's error
# is 2.45e-5 and the O(h^2) truncation scale at h = 0.0156 is 2.4e-4
LARGE_SOLVE_ERROR_BOUND = 1e-4


class Problem(str):
    """Why an operation failed; ``wrong`` marks an incorrect output."""

    wrong = True


class Unconverged(Problem):
    wrong = False


def _draws(seed):
    rng = np.random.default_rng(seed)
    harnack_seed = int(rng.integers(0, 2 ** 31 - 1))
    lams = [float(x) for x in rng.uniform(1.25, 3.0, size=3)]
    return harnack_seed, lams


def _suite_problems(label, reports):
    return [Problem(f"{label}: check {r.name} failed (worst {r.worst_violation:.3e} "
                    f"> tol {r.tolerance:.3e})") for r in reports if not r.passed]


def _solve_problems(label, out):
    if out.converged:
        return []
    return [Unconverged(f"{label}: not converged after {out.iterations} iterations, "
                        f"residual {out.final_residual:.3e}: {out.notes}")]


class StripNewton:
    """The conftest strip, solved and certified, plus one large grim solve."""

    metric_names = {"certified_solve": "certified_solve_s", "large_solve": "large_solve_s"}
    min_passes = 1
    rusage = resource.RUSAGE_SELF

    def __init__(self, seed):
        self.harnack_seed, _ = _draws(seed)

    def setup(self):
        g2 = tlab.GrimParams(2.0)
        R = g2.half_width
        self.grim = g2
        self.strip_rect, self.strip_data = tlab.strip_boundary_data(g2, 0.25 * R, 30.0, 3.0)
        self.grim_rect = tlab.Rectangle(-0.75 * R, 0.75 * R, -3.0, 3.0)
        self.grim_data = lambda a, b: tlab.grim_cylinder_value(g2, a, b)
        self.large_init = tlab.fill_from_boundary(self.grim_rect, 303, 303, self.grim_data)
        self.oracle = tlab.grim_grid(g2, self.grim_rect, 303, 303)
        # warm-up: a small solve, and the suite on a small exact sample (the
        # 31x31 solve itself misses the convexity tolerance 0.01 h^2)
        small = tlab.fill_from_boundary(self.grim_rect, 31, 31, self.grim_data)
        tlab.newton_solve(self.grim_data, small, tlab.SolveConfig())
        names = [n for n in ck.default_suite(g2, True) if n != "strip_asymptotics_bottom"]
        ck.run_suite(tlab.grim_grid(g2, self.grim_rect, 31, 31), names,
                     ck.SuiteConfig(grim=g2, window=3.0))

    def ops(self, index):
        return [("certified_solve", self.certified_solve), ("large_solve", self.large_solve)]

    def certified_solve(self, tracer):
        init = tlab.fill_from_boundary(self.strip_rect, 121, 601, self.strip_data)
        out = tlab.newton_solve(self.strip_data, init,
                                tlab.SolveConfig(tol=1e-10, max_newton_iters=60))
        reports = ck.run_suite(out.solution, ck.default_suite(self.grim, True),
                               ck.SuiteConfig(grim=self.grim, seed=self.harnack_seed))
        return _solve_problems("strip 121x601", out) + _suite_problems("strip 121x601", reports)

    def large_solve(self, tracer):
        out = tlab.newton_solve(self.grim_data, self.large_init, tlab.SolveConfig())
        err = float(np.max(np.abs(out.solution.values - self.oracle.values)))
        problems = _solve_problems("grim 303x303", out)
        if not err <= LARGE_SOLVE_ERROR_BOUND:
            problems.append(Problem(f"grim 303x303: max error {err:.3e} against grim_grid "
                                    f"exceeds {LARGE_SOLVE_ERROR_BOUND:g}"))
        return problems


class CertifySweep:
    """Closed-form grids sampled, written, read back, certified and reported."""

    metric_names = {"grid": "certify_s"}
    min_passes = 1
    rusage = resource.RUSAGE_SELF

    def __init__(self, seed, work):
        self.harnack_seed, self.lams = _draws(seed)
        self.work = work

    def setup(self):
        self.work.mkdir(parents=True, exist_ok=True)
        self.profile = tlab.bowl_profile_solve(5.8, 1e-4)
        self.grids = []
        for lam in self.lams:
            R = lam * np.pi / 2.0
            rect = tlab.Rectangle(-0.75 * R, 0.75 * R, -5.0, 5.0)
            for tilt in (1, -1):
                # a single-tilt sample fails the far window by construction
                skip = "strip_asymptotics_bottom" if tilt > 0 else "strip_asymptotics_top"
                for nx, ny in ((101, 201), (201, 401)):
                    self.grids.append((f"grim-{lam:.4f}{'+-'[tilt < 0]}-{nx}x{ny}",
                                       tlab.GrimParams(lam, tilt), rect, nx, ny, skip))
        bowl_rect = tlab.Rectangle(-4.0, 4.0, -4.0, 4.0)
        for n in (81, 161):
            self.grids.append((f"bowl-{n}x{n}", None, bowl_rect, n, n, None))
        # warm-up: the full chain on one small grid
        self.certify(("warmup", tlab.GrimParams(2.0), tlab.Rectangle(-2.0, 2.0, -5.0, 5.0),
                      21, 41, "strip_asymptotics_bottom"))

    def ops(self, index):
        return [("grid", lambda tracer, spec=spec: self.certify(spec)) for spec in self.grids]

    def certify(self, spec):
        label, grim, rect, nx, ny, skip = spec
        if grim is None:
            u = tlab.bowl_grid(self.profile, rect, nx, ny)
            cfg = ck.SuiteConfig(seed=self.harnack_seed)
        else:
            u = tlab.grim_grid(grim, rect, nx, ny)
            cfg = ck.SuiteConfig(grim=tlab.GrimParams(grim.lam), window=3.0,
                                 seed=self.harnack_seed)
        grid_path = self.work / f"{label}.grid"
        report_path = self.work / f"{label}.json"
        rep.write_grid(grid_path, u)
        back = rep.read_grid(grid_path)
        problems = []
        if back.rect != u.rect or not np.array_equal(back.values, u.values):
            problems.append(Problem(f"{label}: grid does not round-trip"))
        names = [n for n in ck.default_suite(cfg.grim, True) if n != skip]
        reports = ck.run_suite(back, names, cfg)
        report = rep.report_dict(label, {"grid": label, "seed": self.harnack_seed}, reports)
        rep.write_report(report_path, report)
        text = report_path.read_text()
        again = rep.read_report(report_path)
        if (rep.format_report(again) != text
                or [rep.check_from_dict(d) for d in again["checks"]] != reports):
            problems.append(Problem(f"{label}: report does not round-trip"))
        return problems + _suite_problems(label, reports)


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class CliPipeline:
    """The README command sequence, one subprocess at a time.

    With ``in_process`` (the traced run) each command is instead
    ``tlab.cli.main(argv)`` called in this process, in the pass directory,
    so that the tracer sees it; exit codes and outputs are checked the same
    way.
    """

    metric_names = {"import": "import_s", "generate": "cli_generate_s",
                    "check_grim": "cli_check_s", "solve_relax": "cli_relax_s",
                    "solve_newton": "cli_newton_s", "check_strip": "cli_check_s",
                    "profile_export": "cli_profile_s"}
    # the byte-identity check compares each output with the first pass's
    min_passes = 2
    import_samples = 3
    rusage = resource.RUSAGE_CHILDREN

    # (step, argv, output files); every command is expected to exit 0
    STEPS = (
        ("generate", ["generate", "grim", "--lambda", "2", "--tilt", "+", "--nx", "101",
                      "--ny", "201", "--out", "grim.grid"], ["grim.grid"]),
        ("check_grim", ["check", "grim.grid", "--lambda", "2", "--skip",
                        "strip_asymptotics_bottom", "--window", "3", "--seed", "{seed}",
                        "--out", "report.json"], ["report.json"]),
        ("solve_relax", ["solve", "relax", "--boundary", "strip", "--lambda", "2", "--Y", "6",
                         "--nx", "61", "--ny", "121", "--tol", "1e-2", "--out", "warm.grid"],
         ["warm.grid", "warm.grid.log"]),
        ("solve_newton", ["solve", "newton", "--boundary", "strip", "--lambda", "2", "--Y", "6",
                          "--nx", "61", "--ny", "121", "--init", "file", "--init-file",
                          "warm.grid", "--out", "strip6.grid"],
         ["strip6.grid", "strip6.grid.log"]),
        # at Y = 6 the tilt windows are not reached (both read 0.216 against
        # 0.05); strip_newton certifies them at Y = 30
        ("check_strip", ["check", "strip6.grid", "--lambda", "2", "--skip",
                         "strip_asymptotics_top,strip_asymptotics_bottom", "--seed", "{seed}",
                         "--out", "strip-report.json"], ["strip-report.json"]),
        ("profile_export", ["profile-export", "--rmax", "80", "--step", "0.001",
                            "--out", "bowl.csv"], ["bowl.csv"]),
    )

    def __init__(self, seed, work, env, in_process):
        self.harnack_seed, _ = _draws(seed)
        self.work = work
        self.env = env
        self.in_process = in_process
        self.first_digests = {}

    def _run(self, argv, cwd):
        return subprocess.run([sys.executable, *argv], cwd=cwd, env=self.env,
                              capture_output=True, text=True, timeout=60)

    def setup(self):
        self.work.mkdir(parents=True, exist_ok=True)
        done = self._run(["-c", "import tlab"], self.work)
        if done.returncode != 0:
            raise RuntimeError(f"import tlab failed: {done.stderr.strip()}")

    def ops(self, index):
        self.pass_dir = self.work / f"pass{index}"
        shutil.rmtree(self.pass_dir, ignore_errors=True)
        self.pass_dir.mkdir(parents=True)
        ops = [("import", self.import_time)]
        for step, argv, outputs in self.STEPS:
            argv = [a.replace("{seed}", str(self.harnack_seed)) for a in argv]
            ops.append((step, lambda tracer, s=step, a=argv, o=outputs:
                        self.command(tracer, s, a, o)))
        return ops

    def import_time(self, tracer):
        """Median fresh-interpreter ``import tlab`` minus median bare start."""
        bare, full = [], []
        for _ in range(self.import_samples):
            for argv, sink in ((["-c", "pass"], bare), (["-c", "import tlab"], full)):
                t0 = time.perf_counter()
                done = self._run(argv, self.pass_dir)
                sink.append(time.perf_counter() - t0)
                if done.returncode != 0:
                    return [Problem(f"python {' '.join(argv)} exited {done.returncode}")]
        return [], statistics.median(full) - statistics.median(bare)

    def _main(self, argv, tracer, step):
        import tlab.cli

        here, out, err = os.getcwd(), io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.tags = {"step": step}
        os.chdir(self.pass_dir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return tlab.cli.main(argv), err.getvalue()
        finally:
            os.chdir(here)
            if tracer is not None:
                tracer.tags = {}

    def command(self, tracer, step, argv, outputs):
        if self.in_process:
            code, stderr = self._main(argv, tracer, step)
        else:
            done = self._run(["-m", "tlab", *argv], self.pass_dir)
            code, stderr = done.returncode, done.stderr
        if code != 0:
            return [Problem(f"tlab {step} exited {code}: {stderr.strip()[-300:]}")]
        problems = []
        for name in outputs:
            path = self.pass_dir / name
            if not path.exists():
                problems.append(Problem(f"tlab {step} wrote no {name}"))
                continue
            digest = _digest(path)
            first = self.first_digests.setdefault(name, digest)
            if digest != first:
                problems.append(Problem(f"tlab {step}: {name} differs from the first pass"))
        return problems
