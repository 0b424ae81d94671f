"""The mutant table (``tests/mutants.py``) stays applicable.

CI applies each row to a copy of ``src/`` and demands that its tests
fail; these checks keep every row pointing at code and tests that still
exist, so a refactor that moves a check breaks tier-1, not the mutant
step alone.
"""

import os
import subprocess
import sys

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("row", MUTANTS, ids=[row["name"] for row in MUTANTS])
def test_each_mutant_patches_exactly_one_site(row):
    with open(os.path.join(ROOT, "src", row["file"]), encoding="utf-8") as fh:
        assert fh.read().count(row["old"]) == 1
    assert row["new"] != row["old"]
    assert row["tests"]


def test_every_mutant_test_id_collects():
    ids = sorted({test for row in MUTANTS for test in row["tests"]})
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider", *ids],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    collected = [line for line in proc.stdout.splitlines() if "::" in line]
    for test in ids:
        assert any(line == test or line.startswith(test + "[")
                   for line in collected), test
