import subprocess
import sys


def test_import_leaves_scipy_interpolate_unloaded():
    # only bowl sampling needs scipy.interpolate; it is imported on first use
    code = "import sys, tlab, tlab.cli; print('scipy.interpolate' in sys.modules)"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"
