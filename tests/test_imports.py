import subprocess
import sys
from collections import Counter

import numpy as np

import tlab
import tlab.solver


def _fresh(code, *args):
    r = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    return r.stdout.splitlines()[-1]


def test_import_leaves_scipy_interpolate_unloaded():
    # bowl sampling uses tlab's own cubic Hermite interpolant; no tlab code
    # imports scipy.interpolate
    code = "import sys, tlab, tlab.cli; print('scipy.interpolate' in sys.modules)"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


def test_only_newton_loads_scipy_sparse(tmp_path):
    # generate, relax and profile-export never factor; the first Newton
    # solve imports scipy.sparse.linalg
    code = """
import os, sys, tlab, tlab.cli
os.chdir(sys.argv[1])
loaded = []
loaded.append('scipy.sparse' in sys.modules)
strip = ['--boundary', 'strip', '--lambda', '2', '--Y', '3', '--nx', '13', '--ny', '25']
for argv in (['generate', 'grim', '--nx', '21', '--ny', '21', '--out', 'g.grid'],
             ['solve', 'relax', *strip, '--tol', '1e-2', '--out', 'warm.grid'],
             ['profile-export', '--rmax', '5', '--step', '0.01', '--out', 'b.csv']):
    assert tlab.cli.main(argv) == 0, argv
    loaded.append('scipy.sparse' in sys.modules)
assert tlab.cli.main(['solve', 'newton', *strip, '--out', 's.grid']) == 0
loaded.append('scipy.sparse' in sys.modules)
print(loaded)
"""
    assert _fresh(code, tmp_path) == str([False] * 4 + [True])


def test_bowl_commands_load_no_scipy(tmp_path):
    # sampling, certifying and exporting the bowl need numpy alone; a bowl
    # Newton solve loads scipy.sparse for its LU and still no interpolation
    code = """
import os, sys, tlab, tlab.cli
os.chdir(sys.argv[1])
scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')
bowl = ['--nx', '21', '--ny', '21']
for argv in (['generate', 'bowl', *bowl, '--out', 'b.grid'],
             ['check', 'b.grid', '--out', 'b.json'],
             ['profile-export', '--rmax', '5', '--step', '0.01', '--out', 'b.csv']):
    assert tlab.cli.main(argv) == 0, argv
    assert scipy() == [], (argv, scipy())
assert tlab.cli.main(['solve', 'newton', '--boundary', 'bowl', *bowl, '--out', 's.grid']) == 0
print(['scipy.sparse' in scipy(), 'scipy.interpolate' in scipy()])
"""
    assert _fresh(code, tmp_path) == str([True, False])


def test_solver_spla_is_scipy_sparse_linalg():
    # tracers replace tlab.solver.spla, so the name resolves before any solve
    code = ("import tlab.solver; spla = tlab.solver.spla; import scipy.sparse.linalg; "
            "print(spla is scipy.sparse.linalg)")
    assert _fresh(code) == "True"


class _CountingLinalg:
    def __init__(self, module):
        self._module = module
        self.calls = Counter()

    def __getattr__(self, name):
        obj = getattr(self._module, name)
        if not callable(obj) or isinstance(obj, type):
            return obj

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return obj(*args, **kwargs)
        return counted


def test_stand_in_for_spla_sees_factor_and_gmres(monkeypatch):
    # the stand-in sees one splu per LU built and no gmres: the Krylov
    # cycles on a kept factor are tlab's own
    stand_in = _CountingLinalg(tlab.solver.spla)
    monkeypatch.setattr(tlab.solver, "spla", stand_in)
    g2 = tlab.GrimParams(2.0)
    rect, g = tlab.strip_boundary_data(g2, 0.25 * g2.half_width, 6.0, 3.0)
    init = tlab.fill_from_boundary(rect, 21, 41, g)
    out = tlab.newton_solve(g, init, tlab.SolveConfig())
    assert out.converged and out.factorizations < out.iterations
    assert stand_in.calls == Counter(splu=out.factorizations)
    assert np.all(np.isfinite(out.solution.values))
