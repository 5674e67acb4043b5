"""Replay the CLI on the ``demos/data`` files and compare stdout and
the exit code byte for byte with the recorded goldens in
``tests/golden/``.

The goldens pin the CLI bytes across refactors.  Regenerate them only
for an intended change of output, with

    PYTHONPATH=src python tests/test_golden_cli.py --regen
"""

import contextlib
import io
import json
import os
import sys

import pytest

from fwfs.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "..", "demos", "data")
GOLDEN = os.path.join(HERE, "golden")

FILE = "{file}"

COMMANDS = {
    "check-lifting-op": ["check", "lifting-op", FILE],
    "check-pre-awfs": ["check", "pre-awfs", FILE],
    "check-lifting-awfs-both": ["check", "lifting-awfs", FILE,
                                "--side", "both"],
    "check-lifting-awfs-left-only": ["check", "lifting-awfs", FILE,
                                     "--side", "left-only"],
    "check-lifting-awfs-right-only": ["check", "lifting-awfs", FILE,
                                      "--side", "right-only"],
    "check-awfs": ["check", "awfs", FILE],
    "roundtrip": ["roundtrip", FILE],
    "reconstruct": ["reconstruct", FILE],
    "sem": ["sem", FILE],
    "max-candidates-5-check-pre-awfs": ["--max-candidates", "5",
                                        "check", "pre-awfs", FILE],
}

DOUBLE_COMMANDS = {
    "check-double": ["check", "double", FILE],
    "max-candidates-5-check-double": ["--max-candidates", "5",
                                      "check", "double", FILE],
}

COMMA_COMMANDS = {
    "comma": ["comma", "--functor", FILE],
    "comma-dot": ["comma", "--dot", "--functor", FILE],
}

ROSTER_COMMANDS = {
    "check-cat-roster": ["check", "cat-roster", FILE],
    "max-candidates-5-check-cat-roster": ["--max-candidates", "5",
                                          "check", "cat-roster", FILE],
}

# each data file with the commands replayed on it: the lifting bundle and
# the awfs bundle (every other data file is a usage error, exit 64 and
# empty stdout, for all of COMMANDS), two internal presentations of
# double categories, and the catlib inputs: two functors to factor
# through their comma category, a roster and a reflection/fibration
# square
BUNDLES = {
    "epi_mono_finset2.json": COMMANDS,
    "image_awfs_finset2.json": COMMANDS,
    "sq_walking_arrow_double.json": DOUBLE_COMMANDS,
    "epi_finset2_double.json": DOUBLE_COMMANDS,
    "id_walking_arrow.json": COMMA_COMMANDS,
    "pick0.json": {"comma": COMMA_COMMANDS["comma"]},
    "comma_roster.json": ROSTER_COMMANDS,
    "cat_square.json": {"cat-fill": ["cat-fill", "--square", FILE]},
}


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit_code": code, "stdout": out.getvalue()}


def record(bundle):
    path = os.path.join(DATA, bundle)
    return {slug: run([path if a == FILE else a for a in argv])
            for slug, argv in BUNDLES[bundle].items()}


def golden_path(bundle):
    return os.path.join(GOLDEN, bundle)


@pytest.mark.parametrize("bundle", BUNDLES)
def test_cli_matches_golden(bundle, monkeypatch):
    monkeypatch.delenv("FWFS_BUDGET", raising=False)
    with open(golden_path(bundle)) as fh:
        expected = json.load(fh)
    got = record(bundle)
    assert set(got) == set(expected)
    for slug in BUNDLES[bundle]:
        assert got[slug] == expected[slug], slug


if __name__ == "__main__" and sys.argv[1:] == ["--regen"]:
    os.environ.pop("FWFS_BUDGET", None)
    os.makedirs(GOLDEN, exist_ok=True)
    for name in BUNDLES:
        with open(golden_path(name), "w") as fh:
            json.dump(record(name), fh, indent=1, sort_keys=True)
            fh.write("\n")
