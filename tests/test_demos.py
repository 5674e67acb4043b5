"""Run each script in ``demos/`` in a subprocess and compare its stdout
byte for byte with the recorded golden in ``tests/golden/demos/``.

The goldens pin the demo output across refactors.  Regenerate them only
for an intended change of output, with

    PYTHONPATH=src python tests/test_demos.py --regen
"""

import os
import shlex
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.join(HERE, "..")
DEMOS = os.path.join(ROOT, "demos")
GOLDEN = os.path.join(HERE, "golden", "demos")

SCRIPTS = ["01_orthogonality.py", "02_reconstruction.py", "03_algebras.py",
           "04_comma.py"]


def source_env():
    """The environment with ``src`` first on the path and no budget
    override."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("FWFS_BUDGET", None)
    return env


def run(script):
    return subprocess.run([sys.executable, os.path.join(DEMOS, script)],
                          capture_output=True, text=True, env=source_env(),
                          timeout=120)


def golden_path(script):
    return os.path.join(GOLDEN, script.replace(".py", ".txt"))


@pytest.mark.parametrize("script", SCRIPTS)
def test_demo_matches_golden(script):
    proc = run(script)
    assert proc.returncode == 0, proc.stderr
    with open(golden_path(script)) as fh:
        assert proc.stdout == fh.read()


def readme_commands():
    """The ``fwfs`` lines of README's command-line block, with their
    continuations joined and comments dropped."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line, comments=True) for line in block.splitlines()
            if line.startswith("fwfs ")]


def test_readme_commands_run():
    commands = readme_commands()
    assert len(commands) == 14
    for argv in commands:
        proc = subprocess.run([sys.executable, "-m", "fwfs", *argv[1:]],
                              capture_output=True, text=True,
                              env=source_env(), cwd=ROOT, timeout=120)
        assert proc.returncode == 0, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr, argv


if __name__ == "__main__" and sys.argv[1:] == ["--regen"]:
    os.makedirs(GOLDEN, exist_ok=True)
    for script in SCRIPTS:
        proc = run(script)
        if proc.returncode != 0:
            sys.exit(f"{script} exited {proc.returncode}:\n{proc.stderr}")
        with open(golden_path(script), "w") as fh:
            fh.write(proc.stdout)
