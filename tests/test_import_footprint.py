"""Importing knotrank loads only the modules its commands need.

Every command-line call starts a fresh interpreter, so a module the
package imports without using is paid on every call.  ``dataclasses``
(with ``inspect``) and ``fractions`` (with ``decimal``) once took most of
the import time.  ``json`` loads only for ``--seifert`` input and for
the ``--json`` output of alexander, fibered, rank and selftest: the
witness and certificate envelopes hold only ints, and are written from
templates.  ``import knotrank`` executes no submodule, the number
theory and certificate modules load only for the commands that use
them, and ``typing`` loads for none.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

UNNEEDED = ("dataclasses", "inspect", "fractions", "decimal", "json")

# -I ignores PYTHONPATH and the user's site directory, so the child
# imports exactly the package under test, from SRC.  It imports json
# only to print its report, after every check of what is loaded.
PROBE = f"""
import io, sys
from contextlib import redirect_stdout
sys.path.insert(0, {str(SRC)!r})
import knotrank, knotrank.cli
report = {{"origin": knotrank.__file__, "loaded": sorted({{*{UNNEEDED!r}}} & sys.modules.keys())}}
with redirect_stdout(io.StringIO()) as out:
    report["text_code"] = knotrank.cli.main(["witness", "--prime", "13"])
report["text"] = out.getvalue()
report["json_after_text"] = "json" in sys.modules
with redirect_stdout(io.StringIO()) as out:
    report["certificate_code"] = knotrank.cli.main(["certificate", "--count", "3", "--json"])
report["certificate"] = out.getvalue()
report["json_after_certificate"] = "json" in sys.modules
two = knotrank.build_certificate(2, 10)
wide = knotrank.IndependenceCertificate(two.witnesses, (5, 13), ((1, 10), (-1, 256)))
report["wide"] = "".join(knotrank.cli._certificate_json(wide, False))
report["json_after_wide"] = "json" in sys.modules
with redirect_stdout(io.StringIO()) as out:
    report["json_code"] = knotrank.cli.main(["witness", "--prime", "13", "--json"])
report["json"] = out.getvalue()
report["json_after_witness_json"] = "json" in sys.modules
from knotrank import LaurentPoly
report["pole_value"] = str(LaurentPoly(-1, (1, 1)).eval_at(2))
report["fractions_after_pole"] = "fractions" in sys.modules
from fractions import Fraction
report["at_half"] = LaurentPoly(-1, (1, 1)).eval_at(Fraction(1, 2)) == 3
import json
print(json.dumps(report))
"""

# the parent's output of ``knotrank witness --prime 13 --json``, byte for byte
WITNESS_13_JSON = """{
  "command": "witness",
  "result": {
    "factorization": [
      [
        13,
        1
      ],
      [
        17,
        1
      ]
    ],
    "m": 8,
    "n": 11,
    "pretzel": [
      -21,
      23,
      243
    ],
    "prime": 13,
    "rank": 221,
    "rank_mod_p": 0
  },
  "schema_version": "1"
}
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


def test_text_command_leaves_json_unloaded(report):
    assert report["text_code"] == 0
    assert report["text"].startswith("prime: 13\n")
    assert not report["json_after_text"]


def test_certificate_json_leaves_json_unloaded(report):
    # its envelope is written straight from the certificate record
    assert report["certificate_code"] == 0
    assert json.loads(report["certificate"])["result"]["primes"] == [5, 13, 41]
    assert not report["json_after_certificate"]


def test_certificate_json_of_entries_outside_one_digit_leaves_json_unloaded(report):
    # 10, -1 and 256 are not written from the digit template, but still as str writes them
    result = json.loads(report["wide"])["result"]
    assert result["matrix"] == [[1, 10], [-1, 256]] and result["verified"] is False
    assert not report["json_after_wide"]


def test_json_output_is_unchanged(report):
    assert report["json_code"] == 0
    assert report["json"] == WITNESS_13_JSON


def test_witness_json_leaves_json_unloaded(report):
    # its envelope is written from a template
    assert report["json_code"] == 0
    assert not report["json_after_witness_json"]


# Under -S no site hook has loaded typing or any other module before
# the probe, so what is loaded is what knotrank and its commands loaded.
# Each entry holds the knotrank submodules loaded so far and whether
# typing is; the probe imports json only to print its report.
LAZY_PROBE = f"""
import io, sys
from contextlib import redirect_stdout
sys.path.insert(0, {str(SRC)!r})
typing_at_start = "typing" in sys.modules

def loaded():
    return sorted(m for m in sys.modules if m.startswith("knotrank.")), "typing" in sys.modules

import knotrank
report = {{"typing_at_start": typing_at_start, "import": loaded()}}
report["cli_attribute"] = repr(getattr(knotrank, "cli", None))
knotrank.alexander_closed_form, knotrank.alexander_from_seifert
report["alexander_names"] = loaded()
import knotrank.cli
for argv in (["alexander", "--seifert", sys.argv[1]], ["fibered", "--pretzel", "-3,5,7"],
             ["rank", "--index", "3"], ["witness", "--prime", "13"],
             ["certificate", "--count", "3", "--json"]):
    with redirect_stdout(io.StringIO()):
        report[argv[0] + "_code"] = knotrank.cli.main(argv)
    report[argv[0]] = loaded()
import json
print(json.dumps(report))
"""

ALEXANDER_MODULES = ["knotrank._frozen", "knotrank.laurent", "knotrank.pretzel", "knotrank.seifert"]


@pytest.fixture(scope="module")
def lazy_report(tmp_path_factory) -> dict:
    trefoil = tmp_path_factory.mktemp("seifert") / "trefoil.json"
    trefoil.write_text(json.dumps({"size": 2, "entries": [[1, 1], [0, 1]]}))
    proc = subprocess.run(
        [sys.executable, "-S", "-I", "-c", LAZY_PROBE, str(trefoil)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_executes_no_submodule(lazy_report):
    assert lazy_report["import"][0] == []
    assert lazy_report["cli_attribute"] == "None"


def test_alexander_names_leave_number_theory_unloaded(lazy_report):
    assert lazy_report["alexander_names"][0] == ALEXANDER_MODULES


def test_alexander_fibered_and_rank_leave_number_theory_unloaded(lazy_report):
    for command in ("alexander", "fibered", "rank"):
        assert lazy_report[command + "_code"] == 0, command
        assert lazy_report[command][0] == sorted([*ALEXANDER_MODULES, "knotrank.cli"]), command


def test_no_command_loads_typing(lazy_report):
    if lazy_report["typing_at_start"]:
        pytest.skip("this interpreter loads typing at start-up")
    for step in ("import", "alexander", "witness", "certificate"):
        assert not lazy_report[step][1], step
    for command in ("witness", "certificate"):
        assert lazy_report[command + "_code"] == 0, command
        assert {"knotrank.characters", "knotrank.numtheory"} <= set(lazy_report[command][0])
