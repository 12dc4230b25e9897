"""Importing knotrank loads only the modules its commands need.

Every command-line call starts a fresh interpreter, so a module the
package imports without using is paid on every call.  ``dataclasses``
(with ``inspect``) and ``fractions`` (with ``decimal``) once took most of
the import time.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

UNNEEDED = ("dataclasses", "inspect", "fractions", "decimal")

# -I ignores PYTHONPATH and the user's site directory, so the child
# imports exactly the package under test, from SRC
PROBE = f"""
import json, sys
sys.path.insert(0, {str(SRC)!r})
import knotrank, knotrank.cli
report = {{"origin": knotrank.__file__, "loaded": sorted({{*{UNNEEDED!r}}} & sys.modules.keys())}}
from knotrank import LaurentPoly
report["pole_value"] = str(LaurentPoly(-1, (1, 1)).eval_at(2))
report["fractions_after_pole"] = "fractions" in sys.modules
from fractions import Fraction
report["at_half"] = LaurentPoly(-1, (1, 1)).eval_at(Fraction(1, 2)) == 3
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def report() -> dict:
    proc = subprocess.run(
        [sys.executable, "-I", "-c", PROBE], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_leaves_unneeded_modules_unloaded(report):
    assert Path(report["origin"]).resolve().is_relative_to(SRC)
    assert report["loaded"] == []


def test_fractions_load_on_demand(report):
    # (1 + t) / t at t = 2 needs an exact fraction, so eval_at imports it
    assert report["pole_value"] == "3/2"
    assert report["fractions_after_pole"]
    assert report["at_half"]
