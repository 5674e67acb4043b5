"""Run each script in ``demos/`` in a subprocess and compare its stdout
byte for byte with the recorded golden in ``tests/golden/demos/``.

The goldens pin the demo output across refactors.  Regenerate them only
for an intended change of output, with

    PYTHONPATH=src python tests/test_demos.py --regen
"""

import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.join(HERE, "..")
DEMOS = os.path.join(ROOT, "demos")
GOLDEN = os.path.join(HERE, "golden", "demos")

SCRIPTS = ["01_orthogonality.py", "02_reconstruction.py", "03_algebras.py",
           "04_comma.py"]


def run(script):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("FWFS_BUDGET", None)
    return subprocess.run([sys.executable, os.path.join(DEMOS, script)],
                          capture_output=True, text=True, env=env,
                          timeout=120)


def golden_path(script):
    return os.path.join(GOLDEN, script.replace(".py", ".txt"))


@pytest.mark.parametrize("script", SCRIPTS)
def test_demo_matches_golden(script):
    proc = run(script)
    assert proc.returncode == 0, proc.stderr
    with open(golden_path(script)) as fh:
        assert proc.stdout == fh.read()


if __name__ == "__main__" and sys.argv[1:] == ["--regen"]:
    os.makedirs(GOLDEN, exist_ok=True)
    for script in SCRIPTS:
        proc = run(script)
        if proc.returncode != 0:
            sys.exit(f"{script} exited {proc.returncode}:\n{proc.stderr}")
        with open(golden_path(script), "w") as fh:
            fh.write(proc.stdout)
