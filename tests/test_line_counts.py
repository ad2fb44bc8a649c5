import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "line_counts", Path(__file__).parent / "line_counts.py")
line_counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_counts)


@pytest.fixture
def package(tmp_path):
    # code 2, docstrings 1, comments 1, blank 1: 5 lines in all
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "m.py").write_text('"""doc"""\n# note\n\nx = 1\ny = 2\n')
    return pkg


@pytest.mark.parametrize("figures, why", [
    ("2 today (5 lines in all)", None),
    ("3 today (5 lines in all)", "says code 3 and total 5; measured code 2 and total 5"),
    ("2 today\n(6 lines in all)", "says code 2 and total 6; measured code 2 and total 5"),
    ("2 lines today", "no '<code> today (<total> lines in all)' figures found"),
], ids=["match", "code", "total", "absent"])
def test_readme_figures_are_the_measured_counts(package, tmp_path, capsys, figures, why):
    readme = tmp_path / "README.md"
    readme.write_text(f"The code column is 1,470 at the seed and {figures}.\n")
    rc = line_counts.main(["line_counts.py", str(package), "--readme", str(readme)])
    assert (rc, capsys.readouterr().err) == ((0, "") if why is None else (1, f"{readme}: {why}\n"))
