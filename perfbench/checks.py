"""Correctness gate for every operation the benchmark runs.

An operation passes only if it exited 0, its stdout parses, its stdout digest
matches the one recorded in ``pins.json`` (where the output does not depend on
the seed), and the independent check for its kind holds.  The independent
checks use identities of the mathematics, not recorded bytes, so they also
cover the seeded outputs, whose digests cannot be recorded.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _class_size(label: str) -> int:
    return len(label.strip("()").split(","))


def check_euler(doc: dict, nerve: bool) -> str | None:
    """All benchmark inputs are free EI categories with a terminal (Or(G)) or
    initial (subsets-q) object, so omega_bar2 . mu_bar2 = I and
    chi = chi2 = chi_L = 1; posets also have chi_nerve = 1."""
    inv = doc["invariants"]
    for name in ("chi", "chi2", "chi_L") + (("chi_nerve",) if nerve else ()):
        if inv.get(name) != "1":
            return f"{name} = {inv.get(name)!r}, expected 1"
    om, mu = inv["omega_bar2"], inv["mu_bar2"]
    labels = om["row_labels"]
    if not (om["col_labels"] == labels == mu["row_labels"] == mu["col_labels"]):
        return "omega_bar2 and mu_bar2 are not indexed alike"
    n = len(labels)
    mu_rows = [[(j, Fraction(s)) for j, s in enumerate(row) if s != "0"]
               for row in mu["entries"]]
    for i, row in enumerate(om["entries"]):
        acc: dict[int, Fraction] = {}
        for k, s in enumerate(row):
            if s == "0":
                continue
            a = Fraction(s)
            for j, b in mu_rows[k]:
                acc[j] = acc.get(j, 0) + a * b
        for j in range(n):
            if acc.get(j, 0) != (1 if i == j else 0):
                return f"(omega_bar2 . mu_bar2)[{i}][{j}] = {acc.get(j, 0)}"
    return None


def check_marks(doc: dict) -> str | None:
    """The diagonal of the table of marks is |W_G H|; the row of the trivial
    subgroup counts cosets, |G/K| = |G| / |K|."""
    classes = doc["classes"]
    marks = doc["invariants"]["marks"]["entries"]
    weyl = doc["invariants"]["weyl_orders"]
    order = doc["group_order"]
    n = len(classes)
    if classes[0] != "(0)" or not (len(marks) == len(weyl) == n) \
            or any(len(row) != n for row in marks):
        return "marks are not indexed by the subgroup classes"
    for i, w in enumerate(weyl):
        if Fraction(marks[i][i]) != w:
            return f"marks[{i}][{i}] = {marks[i][i]}, weyl order {w}"
    for j, label in enumerate(classes):
        if Fraction(marks[0][j]) != Fraction(order, _class_size(label)):
            return f"marks[trivial][{j}] = {marks[0][j]}, expected |G|/|K|"
    return None


def check_nu(doc: dict) -> str | None:
    entries = doc["invariants"]["nu"]["entries"]
    if len(entries) != len(doc["classes"]):
        return "nu is not indexed by the subgroup classes"
    for i, row in enumerate(entries):
        for j, s in enumerate(row):
            if Fraction(s).denominator != 1:
                return f"nu[{i}][{j}] = {s} is not an integer"
    return None


def check_orbitcat(doc: dict, objects: int) -> str | None:
    if len(doc["objects"]) != objects:
        return f"Or(G) has {len(doc['objects'])} objects, expected {objects}"
    return None


def check_equivariant(doc: dict, cells: int) -> str | None:
    rel = doc["invariants"]["omega_relation"]
    if doc["cells"] != cells:
        return f"{doc['cells']} cells, expected {cells}"
    if rel["holds"] is not True or rel["lhs"] != rel["rhs"]:
        return "omega relation does not hold"
    return None


def check_burnside(doc: dict, xi: list[int], expect: bool) -> str | None:
    """xi is a nonnegative combination of table-of-marks columns (passes), or
    that vector plus one at the trivial subgroup (fails when |G| > 1)."""
    b = doc["invariants"]["burnside"]
    if b["xi"] != xi:
        return "burnside echoed a different xi"
    if b["satisfied"] is not expect:
        return f"burnside verdict {b['satisfied']}, built to be {expect}"
    return None


def mark_vector(marks: list[list[int]], coeffs: list[int], perturb: bool) -> list[int]:
    """Mark vector of the G-set sum_K coeffs[K] * G/K: column K of the table
    of marks holds |(G/K)^H| for each class (H)."""
    n = len(marks)
    xi = [sum(marks[h][k] * coeffs[k] for k in range(n)) for h in range(n)]
    if perturb:
        xi[0] += 1
    return xi


def verdict(op: dict, returncode: int, stdout: bytes) -> str | None:
    """Failure reason for one finished CLI operation, or None if it passed.

    ``op`` names its ``check`` and that check's arguments, and carries the
    recorded ``digest`` where the output bytes do not depend on the seed."""
    if returncode != 0:
        return f"exit code {returncode}"
    want = op.get("digest")
    if want is not None and sha256(stdout) != want:
        return "stdout digest differs from the recorded one"
    kind = op["check"]
    if kind == "pin":
        return None
    try:
        doc = json.loads(stdout)
        if kind == "euler":
            return check_euler(doc, op["nerve"])
        if kind == "marks":
            return check_marks(doc)
        if kind == "nu":
            return check_nu(doc)
        if kind == "orbitcat":
            return check_orbitcat(doc, op["objects"])
        if kind == "equivariant":
            return check_equivariant(doc, op["cells"])
        if kind == "burnside":
            return check_burnside(doc, op["xi"], op["expect"])
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as e:
        return f"output does not have the expected shape: {e!r}"
    raise ValueError(f"unknown check {kind!r}")


def check_batch_result(rec: dict, marks_digests: dict) -> str | None:
    """One library call of the library-batch workload."""
    kind = rec["kind"]
    if kind == "marks":
        if sha256(json.dumps(rec["doc"], sort_keys=True).encode()) != \
                marks_digests[rec["group"]]:
            return "marks digest differs from the recorded one"
        return check_marks(rec["doc"])
    if kind == "burnside":
        if rec["satisfied"] is not rec["expect"]:
            return f"burnside verdict {rec['satisfied']}, built to be {rec['expect']}"
        return None
    if kind == "omega":
        return None if rec["holds"] is True else "omega relation does not hold"
    return f"unknown result kind {kind!r}"


def batch_verdicts(op: dict, returncode: int, stdout: bytes) -> list[str | None]:
    """One verdict per library call the batch interpreter was asked to make;
    a crash or a short report fails every call it did not report."""
    n = op["calls"]
    if returncode != 0:
        return [f"exit code {returncode}"] * n
    try:
        results = json.loads(stdout)["results"]
    except (ValueError, KeyError, TypeError):
        return ["stdout is not a batch report"] * n
    out: list[str | None] = []
    for rec in results[:n]:
        try:
            err = check_batch_result(rec, op["marks_digests"])
        except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as e:
            err = f"result does not have the expected shape: {e!r}"
        out.append(err and f"{rec.get('group')} round {rec.get('round')}: {err}")
    out += ["call missing from the batch report"] * (n - len(out))
    return out


class Tally:
    """Counts attempted and failed operations; keeps the first reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, op: dict, returncode: int, stdout: bytes) -> bool:
        """Checks one finished operation; True if every call in it passed."""
        if op["check"] == "batch":
            errs = batch_verdicts(op, returncode, stdout)
        else:
            errs = [verdict(op, returncode, stdout)]
        self.attempted += len(errs)
        bad = [e for e in errs if e is not None]
        self.failed += len(bad)
        for e in bad[:max(0, 10 - len(self.reasons))]:
            self.reasons.append(f"{op['name']}: {e}")
        return not bad
