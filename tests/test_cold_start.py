"""The scipy subpackages a cold CLI run imports.

Each scipy import sits at the one call site that needs it, so a run that
reaches none of them starts without scipy.  Every case runs in a fresh
interpreter: this one imported scipy while collecting the suite."""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Report the scipy modules loaded by ``import fracvar.cli`` and one ``main`` call.
PROBE = """
import json, sys
import fracvar.cli
code = fracvar.cli.main(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
sys.exit(code)
"""

#: argv, the scipy subpackages it must load, and those it must not.
CASES = [
    (["direct", "--example", "ex3", "--n", "8"], set(), {"fft", "integrate", "linalg"}),
    (["derivative", "--method", "diethelm", "--function", "t2", "--n", "10"], set(),
     {"fft", "integrate", "linalg"}),
    (["table-b"], set(), {"fft", "integrate", "linalg"}),
    (["indirect", "--example", "ex4-moment", "--n", "40", "--N", "2"], {"linalg"},
     {"fft", "integrate"}),
    (["direct", "--example", "ex1", "--n", "5"], set(), {"fft", "integrate", "linalg"}),
    (["derivative", "--method", "gl", "--function", "t2", "--n", "400"], {"fft"},
     {"integrate", "linalg"}),
    (["bounds", "--method", "hadamard", "--function", "exp2t"], {"integrate"}, set()),
]


@pytest.mark.parametrize("argv,loads,skips", CASES, ids=[" ".join(c[0]) for c in CASES])
def test_cold_run_imports_only_the_scipy_it_uses(tmp_path, argv, loads, skips):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv, "--out", str(tmp_path / "out.csv")],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    subpackages = {m.split(".")[1] for m in loaded if "." in m}
    assert loads <= subpackages
    assert not skips & subpackages
    if not loads:
        assert loaded == []
