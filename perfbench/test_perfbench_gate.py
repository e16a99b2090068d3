"""Self-test of the benchmark's correctness gate: genuine catrank outputs pass,
and a corrupted output is counted as a failed operation, also where no
recorded digest could catch it.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from checks import Tally, mark_vector, sha256
from run import ROOT

PINS = json.loads((Path(__file__).with_name("pins.json")).read_text())


def _catrank(*argv: str, stdin: bytes = b"") -> bytes:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "catrank", *argv], input=stdin, env=env,
                          stdout=subprocess.PIPE, check=True).stdout


@pytest.fixture(scope="module")
def euler_d8() -> bytes:
    return _catrank("euler", "-", stdin=_catrank("group", "orbitcat", "dihedral:4"))


def _euler_op(**kw) -> dict:
    return dict(name="euler Or(D8)", check="euler", nerve=False, **kw)


def _tally(op: dict, stdout: bytes, returncode: int = 0) -> Tally:
    t = Tally()
    t.record(op, returncode, stdout)
    return t


def _corrupt_mu_bar2(stdout: bytes) -> bytes:
    doc = json.loads(stdout)
    entries = doc["invariants"]["mu_bar2"]["entries"]
    entries[0][-1] = str(Fraction(entries[0][-1]) + 1)
    return json.dumps(doc).encode()


def test_genuine_euler_output_passes(euler_d8):
    digest = PINS["digests"]["euler Or(dihedral:4)"]
    assert sha256(euler_d8) == digest
    t = _tally(_euler_op(digest=digest), euler_d8)
    assert (t.attempted, t.failed) == (1, 0)


@pytest.mark.parametrize("digest", [None, "recorded"])
def test_corrupted_mu_bar2_is_a_counted_failure(euler_d8, digest):
    if digest:
        digest = PINS["digests"]["euler Or(dihedral:4)"]
    t = _tally(_euler_op(digest=digest), _corrupt_mu_bar2(euler_d8))
    assert (t.attempted, t.failed) == (1, 1)
    assert ("digest" if digest else "mu_bar2") in t.reasons[0]


def test_wrong_chi_and_bad_exit_are_counted(euler_d8):
    doc = json.loads(euler_d8)
    doc["invariants"]["chi2"] = "2"
    assert _tally(_euler_op(), json.dumps(doc).encode()).failed == 1
    assert _tally(_euler_op(), euler_d8, returncode=3).failed == 1
    assert _tally(_euler_op(), b"Traceback").failed == 1


@pytest.mark.parametrize("perturb", [False, True])
def test_burnside_verdict_must_match_construction(perturb):
    xi = mark_vector(PINS["s4_marks"], [1, 0, 2, 0, 1, 0, 0, 2, 0, 1, 1], perturb)
    out = _catrank("group", "burnside", "symmetric:4", "--xi", ",".join(map(str, xi)))
    op = dict(name="burnside", check="burnside", xi=xi, expect=not perturb)
    assert _tally(op, out).failed == 0
    doc = json.loads(out)
    doc["invariants"]["burnside"]["satisfied"] = perturb
    assert _tally(op, json.dumps(doc).encode()).failed == 1


def test_marks_checks_diagonal_and_trivial_row():
    marks = json.loads(_catrank("group", "marks", "symmetric:4"))
    op = dict(name="marks S4", check="marks")
    assert _tally(op, json.dumps(marks).encode()).failed == 0
    marks["invariants"]["marks"]["entries"][0][3] = "7"
    assert _tally(op, json.dumps(marks).encode()).failed == 1


def test_batch_failures_are_counted_per_call():
    op = dict(name="library batch", check="batch", calls=3, marks_digests={})
    good = [{"kind": "burnside", "group": "g", "round": 0, "satisfied": True, "expect": True},
            {"kind": "omega", "group": "g", "round": 0, "holds": True}]
    flipped = dict(good[0], satisfied=False)
    t = _tally(op, json.dumps({"results": good + [flipped]}).encode())
    assert (t.attempted, t.failed) == (3, 1)
    t = _tally(op, json.dumps({"results": good}).encode())
    assert (t.attempted, t.failed) == (3, 1)  # a call missing from the report
    assert _tally(op, b"", returncode=1).failed == 3
