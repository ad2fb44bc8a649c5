import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

import tlab
import tlab.cli
from tlab import reporting


def run_cli(*args, cwd=None):
    """python -m tlab in a subprocess: what the shell sees."""
    return subprocess.run([sys.executable, "-m", "tlab", *map(str, args)],
                          capture_output=True, text=True, cwd=cwd)


def run_main(capsys, *args):
    """tlab.cli.main in this process, with what it printed, shaped like run_cli's."""
    code = tlab.cli.main([str(a) for a in args])
    out, err = capsys.readouterr()
    return subprocess.CompletedProcess(args, code, out, err)


class TestGenerate:
    def test_grim_node_count(self, tmp_path):
        out = tmp_path / "grim.grid"
        r = run_cli("generate", "grim", "--lambda", 2, "--tilt", "+",
                    "--nx", 101, "--ny", 201, "--out", out)
        assert r.returncode == 0, r.stderr
        u = reporting.read_grid(out)
        assert u.values.size == 20301
        assert "max_interior_residual" in r.stdout

    def test_lambda_below_one_is_an_error(self, capsys, tmp_path):
        r = run_main(capsys, "generate", "grim", "--lambda", 0.5, "--out", tmp_path / "x.grid")
        assert r.returncode == 1
        assert "lambda" in r.stderr

    def test_lambda_one_is_the_grim_reaper(self, capsys, tmp_path):
        # byte for byte the sample of log sec(x1), constant in x2, at the
        # default 101x101 on [-3pi/8, 3pi/8] x [-1, 1]
        out = tmp_path / "x.grid"
        r = run_main(capsys, "generate", "grim", "--lambda", 1, "--tilt", "+",
                     "--x2-min", -1, "--x2-max", 1, "--out", out)
        assert r.returncode == 0, r.stderr
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "0f67a44d7c99a99a13984813d116901d4d50db6e20d2ff6d2e5f894522732fa4")

    def test_bowl_sampling_error_shrinks_with_step(self, capsys, tmp_path):
        # each ODE step against the grid at step 1e-4: the cubic Hermite
        # samples follow RK4's own error, so each refinement gains >= 100x
        grids = {}
        for step in (0.4, 0.1, 0.02, 1e-4):
            out = tmp_path / f"bowl{step}.grid"
            r = run_main(capsys, "generate", "bowl", "--step", step, "--nx", 41, "--ny", 41,
                         "--x1-min", -2, "--x1-max", 2, "--x2-min", -2, "--x2-max", 2,
                         "--out", out)
            assert r.returncode == 0, r.stderr
            grids[step] = reporting.read_grid(out).values
        err = {step: np.max(np.abs(grids[step] - grids[1e-4])) for step in (0.4, 0.1, 0.02)}
        assert err[0.4] > 100.0 * err[0.1]
        assert err[0.1] > 100.0 * err[0.02]

    def test_missing_out_flag_is_usage_error(self):
        r = run_cli("generate", "grim")
        assert r.returncode == 1

    @pytest.mark.parametrize("nx, ny", [(3, 3), (5, 4)])
    def test_grid_too_small_writes_nothing(self, capsys, tmp_path, nx, ny):
        out = tmp_path / "small.grid"
        r = run_main(capsys, "generate", "grim", "--nx", nx, "--ny", ny, "--out", out)
        assert r.returncode == 1
        assert "nx, ny >= 5" in r.stderr
        assert not out.exists()

    def test_deterministic_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.grid", tmp_path / "b.grid"
        for out in (a, b):
            r = run_main(capsys, "generate", "grim", "--lambda", 1.5, "--nx", 21, "--ny", 21,
                         "--out", out)
            assert r.returncode == 0
        assert a.read_bytes() == b.read_bytes()


class TestSolve:
    def test_newton_grim_boundary(self, capsys, tmp_path):
        out = tmp_path / "sol.grid"
        r = run_main(capsys, "solve", "newton", "--boundary", "grim", "--lambda", 2,
                     "--nx", 31, "--ny", 37, "--tol", 1e-9, "--out", out)
        assert r.returncode == 0, r.stderr
        u = reporting.read_grid(out)
        assert np.nanmax(np.abs(tlab.translator_residual(u))) <= 1e-9
        assert (tmp_path / "sol.grid.log").exists()

    def test_relax_then_newton_pipeline(self, capsys, tmp_path):
        warm = tmp_path / "warm.grid"
        r1 = run_main(capsys, "solve", "relax", "--boundary", "strip", "--lambda", 2,
                      "--Y", 4, "--nx", 25, "--ny", 41, "--tol", 1e-2,
                      "--max-steps", 30000, "--out", warm)
        assert r1.returncode == 0, r1.stderr
        final = tmp_path / "final.grid"
        r2 = run_main(capsys, "solve", "newton", "--boundary", "strip", "--lambda", 2,
                      "--Y", 4, "--nx", 25, "--ny", 41,
                      "--init", "file", "--init-file", warm,
                      "--tol", 1e-10, "--out", final)
        assert r2.returncode == 0, r2.stderr

    def test_relax_unstable_dt_logs_the_instability(self, tmp_path, monkeypatch, capsys):
        # dt far above min(h)^2/4 overflows the iterate: exit 2, the init is
        # written back, the log says why and no RuntimeWarning reaches stderr
        monkeypatch.setattr(tlab.solver, "_RELAX_DT", 25.0)
        out = tmp_path / "x.grid"
        code = tlab.cli.main(["solve", "relax", "--boundary", "strip", "--lambda", "2",
                              "--Y", "4", "--nx", "25", "--ny", "41", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == ""
        assert np.all(np.isfinite(reporting.read_grid(out).values))
        log = (tmp_path / "x.grid.log").read_text()
        assert "not converged: instability" in log.splitlines()[-1]

    def test_boundary_from_grid_file(self, capsys, tmp_path):
        bfile = tmp_path / "bound.grid"
        assert run_main(capsys, "generate", "grim", "--lambda", 2, "--nx", 31, "--ny", 31,
                        "--x2-min", -1, "--x2-max", 1, "--out", bfile).returncode == 0
        out = tmp_path / "sol.grid"
        r = run_main(capsys, "solve", "newton", "--boundary", "file", "--boundary-file", bfile,
                     "--tol", 1e-9, "--out", out)
        assert r.returncode == 0, r.stderr
        bgrid = reporting.read_grid(bfile)
        sol = reporting.read_grid(out)
        # Dirichlet data is taken from the file's ring
        np.testing.assert_array_equal(sol.values[0, :], bgrid.values[0, :])

    def test_missing_boundary_file(self, capsys, tmp_path):
        r = run_main(capsys, "solve", "newton", "--boundary", "file",
                     "--boundary-file", tmp_path / "missing.grid",
                     "--out", tmp_path / "out.grid")
        assert r.returncode == 1

    def test_bowl_rmax_short_of_the_corner_is_an_error(self, capsys, tmp_path):
        r = run_main(capsys, "solve", "newton", "--boundary", "bowl", "--rmax", 1,
                     "--nx", 11, "--ny", 11, "--out", tmp_path / "x.grid")
        assert r.returncode == 1
        assert "corner radius" in r.stderr

    def test_nonconvergence_exit_code(self, tmp_path):
        # one Newton iteration cannot reach 1e-12 from a cold start
        r = run_cli("solve", "newton", "--boundary", "grim", "--lambda", 2,
                    "--nx", 31, "--ny", 31, "--tol", 1e-12, "--max-iters", 1,
                    "--out", tmp_path / "x.grid")
        assert r.returncode == 2
        assert "not-converged" in r.stdout

    def test_rounding_floor_exit_code(self, tmp_path, capsys):
        # the lambda = 5 strip ends within its rounding floor, above 1e-10:
        # exit 4, and the grid and log are written
        out = tmp_path / "x.grid"
        code = tlab.cli.main(["solve", "newton", "--boundary", "strip", "--lambda", "5",
                              "--Y", "6", "--nx", "61", "--ny", "121", "--out", str(out)])
        assert code == 4
        assert capsys.readouterr().out.startswith("at-rounding-floor final_residual ")
        assert reporting.read_grid(out).values.shape == (121, 61)
        last = (tmp_path / "x.grid.log").read_text().splitlines()[-1]
        assert last.startswith("# at rounding floor; final_residual ")
        assert last.endswith("; iterations 7")

    @pytest.mark.parametrize("mode, flag, field", [
        ("newton", "--max-iters", "max_newton_iters"),
        ("relax", "--max-steps", "max_relax_steps"),
    ])
    def test_negative_budget_writes_nothing(self, capsys, tmp_path, mode, flag, field):
        out = tmp_path / "g.grid"
        r = run_main(capsys, "solve", mode, "--boundary", "grim", "--nx", 21, "--ny", 21,
                     flag, -3, "--out", out)
        assert r.returncode == 1
        assert f"{field} must be >= 0" in r.stderr
        assert not out.exists()
        assert not (tmp_path / "g.grid.log").exists()

    def test_singular_jacobian_writes_grid_and_log(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(tlab.solver, "_factorize",
                            lambda J: lambda rhs: np.full(np.shape(rhs), np.nan))
        out = tmp_path / "x.grid"
        code = tlab.cli.main(["solve", "newton", "--boundary", "grim", "--lambda", "2",
                              "--nx", "11", "--ny", "11", "--out", str(out)])
        assert code == 2
        assert "not-converged" in capsys.readouterr().out
        assert reporting.read_grid(out).values.shape == (11, 11)
        last = (tmp_path / "x.grid.log").read_text().splitlines()[-1]
        assert last.startswith("# not converged: singular Jacobian at iteration 0; ")


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_generate_tilted_pinned(tmp_path):
    # the default radius 1, t = 1/2 cylinder on [-0.8, 0.8] x [-2, 2]
    out = tmp_path / "tilted.grid"
    assert tlab.cli.main(["generate", "tilted", "--nx", "21", "--ny", "21",
                          "--out", str(out)]) == 0
    assert _sha256(out) == "3e836e0b58f4badf03c3c8b5290f37cdd08940d2b09fc0516248cb66f6fd2074"


def test_solve_bowl_pinned(tmp_path):
    # the default bowl solve on [-4, 4]^2: its grid and its log
    out = tmp_path / "bowl.grid"
    assert tlab.cli.main(["solve", "newton", "--boundary", "bowl", "--nx", "21",
                          "--ny", "21", "--out", str(out)]) == 0
    assert _sha256(out) == "1c43db8ca0eeb33411accfd6fc29b620153688ac089ed491619f3ba61138161d"
    assert (_sha256(tmp_path / "bowl.grid.log")
            == "af9fdc1a684ffe9634ce3f845f675de5a17a770a9ebb2c0885f2255cedc70fd3")


@pytest.mark.parametrize("argv", [
    ["generate", "tilted", "--offset", "1"],
    ["solve", "newton", "--boundary", "strip", "--eps-frac", "0.3"],
    ["check", "g.grid", "--run-id", "x"],
    ["solve", "newton", "--boundary", "strip", "--smoothing", "2"],
    ["solve", "newton", "--boundary", "strip", "--log", "x.log"],
    # prefixes of live flags: --lambda, --step, --window, --init-file
    ["solve", "relax", "--boundary", "strip", "--l", "3"],
    ["solve", "relax", "--boundary", "strip", "--s", "0.5"],
    ["check", "g.grid", "--w", "2"],
    ["solve", "newton", "--boundary", "strip", "--init", "file", "--init-f", "g.grid"],
], ids=["generate-offset", "solve-eps-frac", "check-run-id", "solve-smoothing", "solve-log",
        "solve-l", "solve-s", "check-w", "solve-init-f"])
def test_deleted_flags_are_usage_errors(tmp_path, capsys, argv):
    # the grid check would read is written first, so only the flag can fail
    grid = tmp_path / "g.grid"
    tlab.reporting.write_grid(grid, tlab.sample_to_grid(
        lambda a, b: a * a + b * b, tlab.Rectangle(-1.0, 1.0, -1.0, 1.0), 11, 11))
    argv = [str(grid) if a == "g.grid" else a for a in argv]
    out = tmp_path / "out"
    assert tlab.cli.main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and argv[-2] in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.grid"]


@pytest.mark.parametrize("command", ["generate", "solve", "check", "profile-export"])
def test_help_exits_zero(capsys, command):
    with pytest.raises(SystemExit) as exc:
        tlab.cli.main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: tlab {command}")


@pytest.fixture(scope="module")
def readme_bowl(tmp_path_factory):
    """The README's bowl grid, 101x101 on [-4, 4]^2."""
    grid = tmp_path_factory.mktemp("bowl") / "bowl.grid"
    assert tlab.cli.main(["generate", "bowl", "--nx", "101", "--ny", "101",
                          "--out", str(grid)]) == 0
    return grid


class TestCheck:
    def test_exact_grim_full_suite_minus_bottom(self, capsys, tmp_path):
        grid = tmp_path / "grim.grid"
        assert run_main(capsys, "generate", "grim", "--lambda", 2, "--nx", 81, "--ny", 81,
                        "--out", grid).returncode == 0
        report = tmp_path / "report.json"
        r = run_main(capsys, "check", grid, "--lambda", 2,
                     "--skip", "strip_asymptotics_bottom",
                     "--window", 3, "--out", report)
        assert r.returncode == 0, r.stdout + r.stderr
        doc = json.loads(report.read_text())
        assert doc["summary"]["failed"] == 0
        assert doc["inputs"]["lambda"] == 2.0

    def test_saddle_fails_with_convexity_first(self, tmp_path):
        rect = tlab.Rectangle(-1.0, 1.0, -1.0, 1.0)
        saddle = tlab.sample_to_grid(lambda a, b: a * a - b * b, rect, 41, 41)
        grid = tmp_path / "saddle.grid"
        reporting.write_grid(grid, saddle)
        report = tmp_path / "report.json"
        r = run_cli("check", grid, "--out", report)
        assert r.returncode == 3
        doc = json.loads(report.read_text())
        # the translator check runs first, and the saddle fails it too
        assert [c["name"] for c in doc["checks"][:2]] == ["translator", "convexity"]
        assert not doc["checks"][0]["pass"] and not doc["checks"][1]["pass"]

    @staticmethod
    def _perturbed_bowl(bowl_profile_fine, path, n):
        # bowl + 1e-3 cos(3 x1) cos(3 x2) is no translator: its residual, 2e-2
        # at 21x21 and at 41x41, does not fall with h
        bowl = tlab.bowl_radial_function(bowl_profile_fine)
        reporting.write_grid(path, tlab.sample_to_grid(
            lambda a, b: bowl(a, b) + 1e-3 * np.cos(3.0 * a) * np.cos(3.0 * b),
            tlab.Rectangle(-1.0, 1.0, -1.0, 1.0), n, n))
        return path

    def test_perturbed_bowl_fails_the_translator_check(self, capsys, tmp_path,
                                                       bowl_profile_fine):
        # at 21x21 the residual is within the tolerance: only the injection
        # ratio sees it
        grid = self._perturbed_bowl(bowl_profile_fine, tmp_path / "bumped.grid", 21)
        report = tmp_path / "report.json"
        r = run_main(capsys, "check", grid, "--out", report)
        assert r.returncode == 3
        failed = [c for c in json.loads(report.read_text())["checks"] if not c["pass"]]
        assert [c["name"] for c in failed] == ["translator"]
        assert failed[0]["worst_violation"] <= failed[0]["tolerance"]
        assert "does not fall under injection" in failed[0]["notes"]

    @pytest.mark.parametrize("flags", [["--skip", "soliton_identities"], ["--suite", "convexity"]],
                             ids=["skip-identities", "suite-convexity"])
    def test_no_request_drops_the_translator_check(self, capsys, tmp_path, bowl_profile_fine,
                                                   flags):
        grid = self._perturbed_bowl(bowl_profile_fine, tmp_path / "bumped.grid", 41)
        report = tmp_path / "report.json"
        r = run_main(capsys, "check", grid, *flags, "--out", report)
        assert r.returncode == 3
        assert r.stdout.startswith("FAIL translator ")
        doc = json.loads(report.read_text())
        assert [c["name"] for c in doc["checks"] if not c["pass"]] == ["translator"]
        assert doc["inputs"]["suite"].startswith("translator,")

    def test_skipping_the_translator_check_is_a_usage_error(self, capsys, tmp_path):
        grid = tmp_path / "g.grid"
        assert run_main(capsys, "generate", "grim", "--nx", 41, "--ny", 21,
                        "--out", grid).returncode == 0
        report = tmp_path / "r.json"
        r = run_main(capsys, "check", grid, "--skip", "convexity,translator", "--out", report)
        assert r.returncode == 1
        assert "usage error" in r.stderr and "translator" in r.stderr
        assert not report.exists()

    def test_default_grim_on_21_columns_fails_the_translator_check(self, capsys, tmp_path):
        # a true translator, but at h = 0.5 across the strip its residual
        # falls only 1.36x under injection, below the bound 1.5: the check
        # refuses what it cannot certify at this resolution
        grid = tmp_path / "g.grid"
        assert run_main(capsys, "generate", "grim", "--nx", 21, "--ny", 21,
                        "--out", grid).returncode == 0
        report = tmp_path / "report.json"
        assert run_main(capsys, "check", grid, "--out", report).returncode == 3
        failed = [c for c in json.loads(report.read_text())["checks"] if not c["pass"]]
        assert [c["name"] for c in failed] == ["translator"]
        assert "does not fall under injection" in failed[0]["notes"]
        assert "injection ratio 1.36" in failed[0]["notes"]

    def test_unknown_suite_name(self, capsys, tmp_path):
        grid = tmp_path / "g.grid"
        assert run_main(capsys, "generate", "grim", "--nx", 21, "--ny", 21,
                        "--out", grid).returncode == 0
        r = run_main(capsys, "check", grid, "--suite", "bogus", "--out", tmp_path / "r.json")
        assert r.returncode == 1
        assert "valid names" in r.stderr

    def test_empty_suite_is_a_usage_error(self, capsys, tmp_path):
        grid = tmp_path / "g.grid"
        assert run_main(capsys, "generate", "grim", "--nx", 21, "--ny", 21,
                        "--out", grid).returncode == 0
        report = tmp_path / "r.json"
        for flags in (["--suite", ""], ["--suite", "convexity", "--skip", "convexity"]):
            r = run_main(capsys, "check", grid, *flags, "--out", report)
            assert r.returncode == 1, flags
            assert "suite is empty" in r.stderr
            assert not report.exists()

    def test_seed_changes_only_its_echo(self, capsys, tmp_path):
        # 41 columns, not 21: on 21 the translator check refuses the sample,
        # whose residual falls only 1.36x under injection (2.26x on 41)
        grid = tmp_path / "g.grid"
        assert run_main(capsys, "generate", "grim", "--nx", 41, "--ny", 21,
                        "--out", grid).returncode == 0
        docs = []
        for seed in (0, 12345):
            report = tmp_path / f"r{seed}.json"
            assert run_main(capsys, "check", grid, "--seed", seed, "--out", report).returncode == 0
            docs.append(json.loads(report.read_text()))
        assert [d["inputs"].pop("seed") for d in docs] == [0, 12345]
        assert docs[0] == docs[1]

    def test_suite_echo_is_the_checks_that_ran(self, capsys, tmp_path):
        # the translator check fails this 21-column grim (see
        # test_default_grim_on_21_columns_fails_the_translator_check), so
        # both runs exit 3
        grid = tmp_path / "g.grid"
        assert run_main(capsys, "generate", "grim", "--nx", 21, "--ny", 21,
                        "--out", grid).returncode == 0
        given, canonical = tmp_path / "given.json", tmp_path / "canonical.json"
        assert run_main(capsys, "check", grid, "--suite", " A_bound,convexity,A_bound,",
                        "--out", given).returncode == 3
        assert run_main(capsys, "check", grid, "--suite", "convexity,A_bound",
                        "--out", canonical).returncode == 3
        doc = json.loads(given.read_text())
        assert doc["inputs"]["suite"] == "translator,convexity,A_bound"
        assert [c["name"] for c in doc["checks"]] == ["translator", "convexity", "A_bound"]
        assert given.read_bytes() == canonical.read_bytes()

    def test_readme_bowl_tolerances_follow_the_grid(self, capsys, tmp_path, readme_bowl):
        report = tmp_path / "bowl-report.json"
        assert run_main(capsys, "check", readme_bowl, "--out", report).returncode == 0
        u = reporting.read_grid(readme_bowl)
        h = max(u.h1, u.h2)
        documented = {"translator": 10.0 * (100.0 * h * h),
                      "convexity": max(1e-10, 0.01 * h * h), "harnack": 1e-8,
                      "gradient_bounds": 10.0 * h * h, "soliton_identities": 100.0 * h * h,
                      "symmetry": 1e-6 * max(1.0, float(np.max(np.abs(u.values)))),
                      "A_bound": 0.0}
        doc = json.loads(report.read_text())
        assert {c["name"]: c["tolerance"] for c in doc["checks"]} == documented

    @pytest.mark.parametrize("flag", ["--tol-identities", "--margin"])
    def test_no_flag_sets_a_tolerance_or_region(self, capsys, tmp_path, flag):
        grid = tmp_path / "g.grid"
        assert run_main(capsys, "generate", "grim", "--nx", 21, "--ny", 21,
                        "--out", grid).returncode == 0
        report = tmp_path / "r.json"
        r = run_cli("check", grid, "--lambda", 2, flag, 1, "--out", report)
        assert r.returncode == 1
        assert "usage error" in r.stderr and flag in r.stderr
        assert not report.exists()

    # the README bowl grid is wider than the lambda = 2 strip; the README
    # lambda = 2 grim grid ends at x1 = R/2 of the lambda = 3 strip
    @pytest.mark.parametrize("family, lam", [("bowl", 2), ("grim", 3)])
    def test_grid_off_the_strip_refused_in_its_own_terms(self, capsys, tmp_path, readme_bowl,
                                                         family, lam):
        grid = readme_bowl
        if family == "grim":
            grid = tmp_path / "grim.grid"
            assert run_main(capsys, "generate", "grim", "--lambda", 2, "--nx", 101, "--ny", 201,
                            "--out", grid).returncode == 0
        report = tmp_path / "r.json"
        r = run_main(capsys, "check", grid, "--lambda", lam, "--out", report)
        assert r.returncode == 1
        assert "lambda" in r.stderr and "x1 extent" in r.stderr
        assert not report.exists()

    def test_report_roundtrip_and_determinism(self, capsys, tmp_path):
        grid = tmp_path / "g.grid"
        assert run_main(capsys, "generate", "grim", "--nx", 41, "--ny", 41,
                        "--out", grid).returncode == 0
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for rp in (r1, r2):
            assert run_main(capsys, "check", grid, "--suite", "convexity,gradient_bounds",
                            "--out", rp).returncode == 0
        assert r1.read_bytes() == r2.read_bytes()
        reporting.write_report(tmp_path / "r3.json", reporting.read_report(r1))
        assert (tmp_path / "r3.json").read_bytes() == r1.read_bytes()


class TestProfileExport:
    def test_csv_contents_and_gap_flatness(self, capsys, tmp_path):
        out = tmp_path / "profile.csv"
        r = run_main(capsys, "profile-export", "--rmax", 80, "--step", 0.001, "--out", out)
        assert r.returncode == 0, r.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "r,f,fp,asymptote_gap"
        assert lines[1] == "0,0,0,"
        rows = {float(ln.split(",")[0]): ln.split(",") for ln in lines[1:]}
        gap40 = float(rows[40.0][3])
        gap80 = float(rows[80.0][3])
        assert abs(gap40 - gap80) < 0.01
        # gap column is empty strictly below r = 1
        assert rows[0.5][3] == ""

    def test_reemit_is_bitwise_identical(self, capsys, tmp_path):
        out = tmp_path / "p.csv"
        assert run_main(capsys, "profile-export", "--rmax", 5, "--step", 0.01,
                        "--out", out).returncode == 0
        lines = out.read_text().splitlines()
        body = []
        for ln in lines[1:]:
            r, f, fp, gap = ln.split(",")
            vals = [float(r), float(f), float(fp)]
            gap_txt = "" if gap == "" else format(float(gap), ".17g")
            body.append(",".join([format(v, ".17g") for v in vals]) + "," + gap_txt)
        assert body == lines[1:]

    def test_bad_step(self, capsys, tmp_path):
        r = run_main(capsys, "profile-export", "--step", -1, "--out", tmp_path / "p.csv")
        assert r.returncode == 1


@pytest.mark.parametrize("command", [
    ["profile-export"],
    ["generate", "bowl", "--nx", "11", "--ny", "11"],
    ["solve", "newton", "--boundary", "bowl", "--nx", "11", "--ny", "11"],
], ids=["profile-export", "generate", "solve"])
@pytest.mark.parametrize("rmax, step, stable", [("40", "0.1", "0.069625"),
                                                ("1000", "0.37", "0.002785")])
def test_bowl_step_rk4_cannot_integrate_is_refused(tmp_path, capsys, command, rmax,
                                                   step, stable):
    # far out RK4's step * r_max must stay below 2.785: (40, 0.1) gives a
    # finite but wrong profile, (1000, 0.37) one of inf and NaN
    out = tmp_path / "out"
    assert tlab.cli.main([*command, "--rmax", rmax, "--step", step, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"step {step} is too coarse for r_max {rmax}" in err
    assert f"stable only for steps up to {stable}" in err
    assert list(tmp_path.iterdir()) == []
