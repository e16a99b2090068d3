"""Command line behavior: exit codes, report shapes, round-trips, worked examples."""

import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import catrank
from catrank import cli, corpus, grouptheory, orbitcat
from catrank.cli import main
from catrank.exactq import rat_str
from catrank.fincat import canonical_json, classify, from_json, opposite, orbit_category
from catrank.grouptheory import build_group

from chain_oracle import walk_sums
from json_oracle import emitted, expand_rows
from test_canonical_json import Recorder
from test_fincat import retract_pair


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def feed_stdin(monkeypatch, text: str):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(text.encode())))


def test_examples_list(capsys):
    code, out, err = run(capsys, "examples", "list")
    assert code == 0 and err == ""
    names = json.loads(out)["examples"]
    for required in ("span", "parallel-pair", "subsets-q", "section8",
                     "leinster-A", "indiscrete-2"):
        assert required in names


def test_emit_shapes(capsys):
    for name, objs, mors in (("section8", 2, 6), ("parallel-pair", 2, 4)):
        code, out, _ = run(capsys, "examples", "emit", name)
        assert code == 0
        cat = from_json(json.loads(out))
        assert (cat.n_objects, cat.n_morphisms) == (objs, mors)
    code, out, _ = run(capsys, "examples", "emit", "subsets-q", "--q", "2")
    assert code == 0 and from_json(json.loads(out)).n_objects == 7


def test_emit_unknown_name(capsys):
    code, out, err = run(capsys, "examples", "emit", "nonsense")
    assert code == 2 and "unknown example" in err


@pytest.mark.parametrize("q", ["9", "-1"])
def test_emit_subsets_q_outside_its_range(capsys, q):
    """--q, the size of subsets-q, is limited to 0..8 apart from --cap."""
    code, out, err = run(capsys, "examples", "emit", "subsets-q", "--q", q)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "q must be between 0 and 8"}


def test_emit_load_reemit_byte_identical(capsys):
    code, out, _ = run(capsys, "examples", "list")
    for name in json.loads(out)["examples"]:
        code, text, _ = run(capsys, "examples", "emit", name)
        assert code == 0
        assert emitted(from_json(json.loads(text))) == text, name


def test_validate_good_file(tmp_path, capsys):
    code, text, _ = run(capsys, "examples", "emit", "span")
    path = tmp_path / "span.json"
    path.write_text(text)
    code, out, err = run(capsys, "validate", str(path))
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["valid"] and doc["objects"] == 3
    assert len(doc["input"]["sha256"]) == 64


def test_validate_corrupted_composition(tmp_path, capsys):
    code, text, _ = run(capsys, "examples", "emit", "span")
    doc = json.loads(text)
    doc["composition"][0][2] = (doc["composition"][0][2] + 1) % len(doc["morphisms"])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1
    assert json.loads(out)["valid"] is False
    violations = json.loads(err)["violations"]
    assert violations and all("kind" in v for v in violations)


def test_validate_not_json(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{oops")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1 and json.loads(err)["violations"][0]["kind"] == "not_json"


def test_validate_unreadable(capsys):
    code, out, err = run(capsys, "validate", "no/such/file.json")
    assert code == 1 and json.loads(err)["violations"][0]["kind"] == "unreadable"


def euler_on(capsys, monkeypatch, name, *flags):
    code, text, _ = run(capsys, "examples", "emit", name)
    assert code == 0
    feed_stdin(monkeypatch, text)
    code, out, err = run(capsys, *flags, "euler", "-")
    assert code == 0, err
    return json.loads(out)


def test_euler_retract_pair(capsys, monkeypatch):
    doc = euler_on(capsys, monkeypatch, "section8")
    inv = doc["invariants"]
    assert inv["chi_L"] == "2/3"
    assert inv["weighting"]["entries"] == ["1/3", "1/3"]
    assert inv["coweighting"]["entries"] == ["1/3", "1/3"]
    assert "chi_f" not in inv
    assert "chi_f omitted: not an EI category" in doc["warnings"]
    assert "chi_nerve omitted: nontrivial endomorphism" in doc["warnings"]


def test_euler_no_weighting_category(capsys, monkeypatch):
    doc = euler_on(capsys, monkeypatch, "leinster-A")
    inv = doc["invariants"]
    assert inv["chi_L"] == "undefined"
    assert "weighting" not in inv
    assert "coweighting" in inv
    assert any(w.startswith("weighting omitted") for w in doc["warnings"])


def test_euler_span(capsys, monkeypatch):
    doc = euler_on(capsys, monkeypatch, "span")
    inv = doc["invariants"]
    assert inv["chi"] == "1"
    assert inv["chi_f"]["entries"] == ["-1", "1", "1"]
    assert inv["chi_nerve"] == "1"
    assert inv["chi2"] == "1"
    assert doc["predicates"]["is_ei"]


def test_euler_delooping(capsys, monkeypatch):
    doc = euler_on(capsys, monkeypatch, "delooping-c2")
    assert doc["invariants"]["chi_f2"]["entries"] == ["1/2"]
    assert "chi_nerve omitted: nontrivial endomorphism" in doc["warnings"]


def test_euler_indiscrete_nerve_cycle(capsys, monkeypatch):
    doc = euler_on(capsys, monkeypatch, "indiscrete-2")
    assert "chi_nerve omitted: nonidentity morphisms form a cycle" in doc["warnings"]
    assert doc["invariants"]["chi2"] == "1"


def test_euler_on_a_nonfree_orbit_category(tmp_path, capsys):
    """Or(C2^3 x C4)^op, 118 classes and not free, read from a file: chi_f,
    chi_f2 and mu_bar2 are the walk oracle's."""
    spec = "product:cyclic:2+cyclic:2+cyclic:2+cyclic:4"
    cat = opposite(orbit_category(build_group(spec)))
    assert not classify(cat)["is_free"]
    path = tmp_path / "or-op.json"
    path.write_text(emitted(cat))
    code, out, err = run(capsys, "euler", str(path))
    assert code == 0 and err == ""
    inv = json.loads(out)["invariants"]
    chi_f, chi_f2, mu_rows, _ = walk_sums(cat)
    assert inv["chi_f"]["entries"] == [rat_str(v) for v in chi_f]
    assert inv["chi_f2"]["entries"] == [rat_str(v) for v in chi_f2]
    assert inv["mu_bar2"]["entries"] == [[rat_str(v) for v in row] for row in mu_rows]
    assert len(mu_rows) == 118


def test_max_chain_length_is_retired(capsys, monkeypatch):
    """chi_f, chi_f2 and mu_bar2 are sums over every chain, so no bound on
    chain length is accepted: the flag is a usage error in either spelling."""
    code, text, _ = run(capsys, "examples", "emit", "span")
    for flag in (["--max-chain-length", "0"], ["--max-chain-length=3"]):
        feed_stdin(monkeypatch, text)
        with pytest.raises(SystemExit) as exc:
            main(flag + ["euler", "-"])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert "catrank: error:" in err


# an object id that is a JSON array, with every reference to it spelled as str() spells it
LIST_OBJECT_DOC = {"objects": [["a"]], "morphisms": [{"id": 0, "dom": "['a']", "cod": "['a']"}],
                   "identities": {"['a']": 0}, "composition": [[0, 0, 0]]}


# the span with JSON true for morphism 1 in its record, its identity and its composites
BOOL_ID_DOC = {"morphisms": [{"id": 0, "dom": "a", "cod": "a"}, {"id": True, "dom": "x", "cod": "x"},
                             {"id": 2, "dom": "y", "cod": "y"}, {"id": 3, "dom": "a", "cod": "x"},
                             {"id": 4, "dom": "a", "cod": "y"}],
               "identities": {"a": 0, "x": True, "y": 2},
               "composition": [[0, 0, 0], [True, True, True], [True, 3, 3], [2, 2, 2],
                               [2, 4, 4], [3, 0, 3], [4, 0, 4]]}


# object ids that are JSON null, true and false, referenced as str() spells them
NULL_OBJECT_DOC = {"objects": [None], "morphisms": [{"id": 0, "dom": "None", "cod": "None"}],
                   "identities": {"None": 0}, "composition": [[0, 0, 0]]}
BOOL_OBJECT_DOC = {"objects": [True, False],
                   "morphisms": [{"id": 0, "dom": "True", "cod": "True"},
                                 {"id": 1, "dom": "False", "cod": "False"}],
                   "identities": {"True": 0, "False": 1}, "composition": [[0, 0, 0], [1, 1, 1]]}


# endpoints that are JSON null, true and an array, naming objects spelled as str() spells them
NULL_DOM_DOC = {"objects": ["None"], "morphisms": [{"id": 0, "dom": None, "cod": "None"}],
                "identities": {"None": 0}, "composition": [[0, 0, 0]]}
BOOL_COD_DOC = {"objects": ["True"], "morphisms": [{"id": 0, "dom": "True", "cod": True}],
                "identities": {"True": 0}, "composition": [[0, 0, 0]]}
LIST_DOM_DOC = {"objects": ["[1]"], "morphisms": [{"id": 0, "dom": [1], "cod": "[1]"}],
                "identities": {"[1]": 0}, "composition": [[0, 0, 0]]}


# keys of the span's document replaced, each making it malformed
MALFORMED_FIELDS = {"objects": {"objects": 3}, "morphisms": {"morphisms": 5},
                    "identities": {"identities": 5}, "composition": {"composition": 7},
                    "list-id": LIST_OBJECT_DOC, "bool-id": BOOL_ID_DOC,
                    "null-object-id": NULL_OBJECT_DOC, "bool-object-id": BOOL_OBJECT_DOC,
                    "null-dom": NULL_DOM_DOC, "bool-cod": BOOL_COD_DOC, "list-dom": LIST_DOM_DOC}


@pytest.mark.parametrize("patch", list(MALFORMED_FIELDS.values()), ids=list(MALFORMED_FIELDS))
def test_malformed_document_fields(tmp_path, capsys, patch):
    code, text, _ = run(capsys, "examples", "emit", "span")
    doc = json.loads(text)
    doc.update(patch)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for cmd in ("validate", "euler"):
        code, _, err = run(capsys, cmd, str(path))
        assert code == 1
        assert json.loads(err)["violations"][0]["kind"] == "malformed"


@pytest.mark.parametrize("doc", [NULL_OBJECT_DOC, BOOL_OBJECT_DOC], ids=["null", "bool"])
def test_null_and_bool_object_ids_refused(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for cmd in ("validate", "euler"):
        code, _, err = run(capsys, cmd, str(path))
        assert code == 1
        assert json.loads(err)["violations"] == [
            {"kind": "malformed", "detail": "object ids must be strings or numbers"}]


def _one_object(obj: str, end: str, key: str) -> str:
    """A one-object category document: obj and end are the JSON texts of the
    object id and of both endpoints, key its identities key."""
    return ('{"objects": [%s], "morphisms": [{"id": 0, "dom": %s, "cod": %s}], '
            '"identities": {"%s": 0}, "composition": [[0, 0, 0]]}' % (obj, end, end, key))


def _not_a_number(literal):
    return "not_json", f"{literal} is not a JSON number"


# each document was "valid": true before non-finite numbers were refused
NON_FINITE = {
    "NaN": (_one_object("NaN", "NaN", "nan"), *_not_a_number("NaN")),
    "Infinity": (_one_object("Infinity", "Infinity", "inf"), *_not_a_number("Infinity")),
    "-Infinity": (_one_object("-Infinity", "-Infinity", "-inf"), *_not_a_number("-Infinity")),
    "NaN-endpoint": (_one_object('"nan"', "NaN", "nan"), *_not_a_number("NaN")),
    "1e400": (_one_object("1e400", "1e400", "inf"),
              "malformed", "object ids must be strings or numbers"),
    "-1e400": (_one_object("-1e400", "-1e400", "-inf"),
               "malformed", "object ids must be strings or numbers"),
    "1e400-endpoint": (_one_object('"inf"', "1e400", "inf"),
                       "malformed", "morphism 0 references unknown object"),
}


@pytest.mark.parametrize("name", NON_FINITE)
def test_non_finite_numbers_are_refused(tmp_path, capsys, name):
    text, kind, detail = NON_FINITE[name]
    path = tmp_path / "doc.json"
    path.write_text(text)
    for cmd in ("validate", "euler"):
        code, out, err = run(capsys, cmd, str(path))
        assert code == 1
        assert json.loads(err) == {"violations": [{"kind": kind, "detail": detail}]}
        assert cmd == "euler" or json.loads(out)["valid"] is False


@pytest.mark.parametrize("obj", ['"x"', "7", "1.5", "-2e300"])
def test_finite_object_ids_are_read(tmp_path, capsys, obj):
    """The documents of NON_FINITE with a finite id are valid."""
    path = tmp_path / "doc.json"
    path.write_text(_one_object(obj, obj, str(json.loads(obj))))
    for cmd in ("validate", "euler"):
        assert run(capsys, cmd, str(path))[0] == 0


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_equivariant_census_refuses_non_finite_numbers(tmp_path, capsys, literal):
    """A non-finite constant is refused wherever it stands, here in a
    member the census does not read."""
    path = tmp_path / "census.json"
    path.write_text('{"group": "cyclic:2", "cells": [{"dim": 0, "stabilizer": [0]}], '
                    '"note": %s}' % literal)
    code, out, err = run(capsys, "group", "equivariant", str(path))
    assert (code, out) == (1, "")
    assert json.loads(err) == {"violations": [{"kind": "malformed",
                                               "detail": f"{literal} is not a JSON number"}]}


def test_group_marks_c5(capsys):
    code, out, err = run(capsys, "group", "marks", "cyclic:5")
    assert code == 0
    doc = json.loads(out)
    assert doc["invariants"]["marks"]["entries"] == [["5", "1"], ["0", "1"]]
    assert doc["invariants"]["marks"]["row_labels"] == ["(0)", "(0,1,2,3,4)"]


def test_group_nu_c3(capsys):
    code, out, _ = run(capsys, "group", "nu", "cyclic:3")
    doc = json.loads(out)
    assert doc["invariants"]["nu"]["entries"] == [["1", "-1"], ["0", "1"]]
    assert doc["invariants"]["moduli"] == [3, 1]


def test_group_burnside_verdicts(capsys):
    code, out, _ = run(capsys, "group", "burnside", "cyclic:3", "--xi", "1,0")
    assert code == 0
    assert json.loads(out)["invariants"]["burnside"]["satisfied"] is False
    code, out, _ = run(capsys, "group", "burnside", "cyclic:3", "--xi", "4,1")
    assert json.loads(out)["invariants"]["burnside"]["satisfied"] is True


def test_group_burnside_malformed_xi(capsys):
    code, _, err = run(capsys, "group", "burnside", "cyclic:3", "--xi", "1,zap")
    assert code == 2 and "malformed xi" in err
    code, _, err = run(capsys, "group", "burnside", "cyclic:3", "--xi", "1,2,3")
    assert code == 2 and "entries" in err


def test_group_bad_spec(capsys):
    code, _, err = run(capsys, "group", "marks", "simple:60")
    assert code == 2 and err


def test_group_orbitcat_pipes_into_euler(capsys, monkeypatch):
    code, text, _ = run(capsys, "group", "orbitcat", "sym:3")
    assert code == 0
    cat = from_json(json.loads(text))
    assert cat.n_objects == 4 and cat.n_morphisms == 18
    feed_stdin(monkeypatch, text)
    code, out, _ = run(capsys, "euler", "-")
    assert code == 0
    doc = json.loads(out)
    assert doc["predicates"]["is_ei"] and doc["predicates"]["is_free"]
    assert doc["invariants"]["chi2"] == "1"


def test_group_cap_enforced(capsys):
    code, _, err = run(capsys, "--cap", "10", "group", "orbitcat", "sym:4")
    assert code == 1 and "cap" in err
    code, _, err = run(capsys, "--cap", "4", "group", "nu", "sym:3")
    assert code == 1 and "cap" in err


GROUP_SUBCOMMANDS = (("marks", "sym:4"), ("nu", "sym:4"), ("orbitcat", "sym:4"),
                     ("burnside", "sym:4", "--xi", "1"), ("equivariant", "--random", "sym:4"))


@pytest.fixture
def no_lattice(monkeypatch):
    def fail(*args):
        raise AssertionError("subgroup lattice computed above the cap")

    # every lattice starts with the class of the trivial subgroup
    monkeypatch.setattr(grouptheory, "_conjugacy_class", fail)


@pytest.mark.parametrize("sub", GROUP_SUBCOMMANDS, ids=[s[0] for s in GROUP_SUBCOMMANDS])
def test_group_cap_checked_before_lattice(capsys, no_lattice, sub):
    code, out, err = run(capsys, "--cap", "20", "group", *sub)
    assert code == 1 and out == ""
    assert "cap" in json.loads(err)["error"]


def test_equivariant_file_cap_checked_before_lattice(tmp_path, capsys, no_lattice):
    path = tmp_path / "s4.json"
    path.write_text(json.dumps({"group": "sym:4", "cells": [{"dim": 0, "stabilizer": [0]}]}))
    code, out, err = run(capsys, "--cap", "20", "group", "equivariant", str(path))
    assert code == 1 and out == ""
    assert "cap" in json.loads(err)["error"]


CAP_INPUTS = GROUP_SUBCOMMANDS + (("equivariant", "-"), ("equivariant", "missing.json"))


@pytest.mark.parametrize("cap", ["0", "-5"])
@pytest.mark.parametrize("sub", CAP_INPUTS, ids=[s[0] + "-" + s[-1] for s in CAP_INPUTS])
def test_group_cap_below_one_is_a_usage_error(capsys, monkeypatch, cap, sub):
    def no_input():
        raise AssertionError("input read under a cap below 1")

    monkeypatch.setattr(sys, "stdin", None)
    monkeypatch.setattr("catrank.cli._read_source", lambda path: no_input())
    monkeypatch.setattr("catrank.grouptheory.build_group", lambda spec, cap: no_input())
    code, out, err = run(capsys, "--cap", cap, "group", *sub)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": f"--cap must be positive, got {cap}"}


def test_cap_of_one_is_accepted(capsys):
    code, out, _ = run(capsys, "--cap", "1", "group", "marks", "trivial")
    assert code == 0 and json.loads(out)["group_order"] == 1


def test_group_marks_default_cap(capsys):
    code, _, err = run(capsys, "group", "marks", "symmetric:5")
    assert code == 1 and "cap 64" in err
    code, out, _ = run(capsys, "--cap", "120", "group", "marks", "symmetric:5")
    assert code == 0 and len(json.loads(out)["classes"]) == 19


def test_orbit_category_work_above_default_cap(capsys):
    code, out, err = run(capsys, "--cap", "120", "group", "equivariant",
                         "--random", "symmetric:5", "--cells", "3")
    assert code == 0, err
    assert json.loads(out)["invariants"]["omega_relation"]["holds"] is True
    code, out, err = run(capsys, "--cap", "120", "group", "nu", "symmetric:5")
    assert code == 0, err
    assert len(json.loads(out)["invariants"]["moduli"]) == 19


def test_equivariant_negative_cells(capsys):
    code, out, err = run(capsys, "group", "equivariant", "--random", "cyclic:2",
                         "--cells", "-3")
    assert code == 2 and out == "" and "--cells" in json.loads(err)["error"]
    code, out, _ = run(capsys, "group", "equivariant", "--random", "cyclic:2", "--cells", "0")
    assert code == 0 and json.loads(out)["census"] == []


def test_group_burnside_is_the_library_check(capsys):
    g = grouptheory.build_group("symmetric:3")
    for xi in ([6, 3, 2, 1], [6, 3, 2, 2], [0, 0, 0, 0], [3, -3, 0, 0]):
        code, out, _ = run(capsys, "group", "burnside", "symmetric:3",
                           "--xi", ",".join(map(str, xi)))
        assert code == 0
        rep = json.loads(out)["invariants"]["burnside"]
        image, satisfied = grouptheory.burnside_congruences(g, xi)
        assert rep["nu_xi"] == [str(v) for v in image]
        assert rep["satisfied"] is satisfied is grouptheory.burnside_check(g, xi)


def test_equivariant_report(tmp_path, capsys):
    doc = {"group": "cyclic:2", "cells": [{"dim": 0, "stabilizer": [0]}]}
    path = tmp_path / "s0.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "group", "equivariant", str(path))
    assert code == 0, err
    rep = json.loads(out)
    inv = rep["invariants"]
    assert inv["chi_G"]["entries"] == ["1", "0"]
    assert inv["fixed_point_euler"]["entries"] == [2, 0]
    assert inv["omega_relation"]["holds"] is True
    assert inv["omega_relation"]["lhs"] == ["1", "0"]


def test_equivariant_malformed(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"group": "cyclic:2", "cells": [{"dim": 0}]}))
    code, _, err = run(capsys, "group", "equivariant", str(path))
    assert code == 1 and "malformed" in err


# the first seven crashed with a traceback; a bool dim counted as 1 and a
# fractional n built D2
MALFORMED_CELL_DOCS = {
    "group-kind-without-n": {"group": {"kind": "cyclic"}, "cells": []},
    "factors-not-a-list": {"group": {"kind": "product", "factors": 3}, "cells": []},
    "table-not-a-list": {"group": {"kind": "table", "table": 5}, "cells": []},
    "generator-entry-not-int": {"group": {"kind": "perm", "generators": [[0, "a"]]},
                                "cells": []},
    "cells-not-a-list": {"group": "cyclic:2", "cells": 4},
    "stabilizer-not-a-list": {"group": "cyclic:2", "cells": [{"dim": 0, "stabilizer": 5}]},
    "stabilizer-nested": {"group": "cyclic:2", "cells": [{"dim": 0, "stabilizer": [[0]]}]},
    "dim-bool": {"group": "cyclic:2", "cells": [{"dim": True, "stabilizer": [0]}]},
    "n-not-integer": {"group": {"kind": "dihedral", "n": 2.5}, "cells": []},
}


@pytest.mark.parametrize("doc", MALFORMED_CELL_DOCS.values(), ids=MALFORMED_CELL_DOCS.keys())
def test_equivariant_malformed_fields(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "group", "equivariant", str(path))
    assert code == 1 and out == ""
    assert json.loads(err)["violations"][0]["kind"] == "malformed"


@pytest.mark.parametrize("spec", ["perm:[0,1]", "perm:5", "perm:[[1,0.0]]", "perm:[[true,0]]"])
def test_group_malformed_perm_spec(capsys, spec):
    code, out, err = run(capsys, "group", "marks", spec)
    assert code == 2 and out == ""
    assert "error" in json.loads(err)


def test_nesting_deeper_than_the_stack(tmp_path, capsys):
    deep = "[" * 100000 + "]" * 100000
    path = tmp_path / "deep.json"
    path.write_text(deep)
    code, _, err = run(capsys, "validate", str(path))
    assert code == 1 and json.loads(err)["violations"][0]["kind"] == "not_json"
    path.write_text('{"group": "cyclic:2", "cells": ' + deep + "}")
    code, _, err = run(capsys, "group", "equivariant", str(path))
    assert code == 1 and json.loads(err)["violations"][0]["kind"] == "malformed"
    spec = "product:" * 5000 + "cyclic:2"
    for argv in (["group", "marks", spec], ["group", "equivariant", "--random", spec]):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "error" in json.loads(err)


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_reports_deterministic(capsys, monkeypatch):
    one = euler_on(capsys, monkeypatch, "leinster-A")
    two = euler_on(capsys, monkeypatch, "leinster-A")
    assert one == two


def test_pretty_flag(capsys):
    code, out, _ = run(capsys, "--pretty", "group", "marks", "cyclic:2")
    assert code == 0 and out.count("\n") > 3 and json.loads(out)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "catrank", "examples", "emit", "span"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert from_json(json.loads(proc.stdout)).n_objects == 3


def child_env(unbuffered: bool) -> dict:
    """This environment with PYTHONUNBUFFERED set to 1, or removed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.fixture(scope="module")
def subsets_q6(tmp_path_factory):
    path = tmp_path_factory.mktemp("pipe") / "q6.json"
    with open(path, "w") as fh:
        canonical_json(corpus.build("subsets-q", q=6), fh)
    return str(path)


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["euler", "Q6"], ["examples", "emit", "subsets-q", "--q", "6"],
                                  ["group", "orbitcat", "symmetric:4"]], ids=" ".join)
def test_closed_stdout_exits_141_quietly(subsets_q6, argv, unbuffered):
    """A reader that closes the pipe after 10 bytes (catrank ... | head -c 10)
    gets no traceback: stderr stays empty and the exit code is 141, as for a
    writer killed by SIGPIPE.  Each output is larger than a 64 KiB pipe
    buffer, so a write in ``_write`` meets the closed pipe, with the stream
    buffered or not."""
    argv = [subsets_q6 if a == "Q6" else a for a in argv]
    proc = subprocess.Popen([sys.executable, "-m", "catrank", *argv], env=child_env(unbuffered),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b"" and len(head) == 10


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_stdout_closed_before_the_first_write(unbuffered):
    """A short report into a pipe whose reader is already gone: buffered, it
    waits in the buffer until ``main`` flushes it, so the closed pipe is met
    there too, and the flush at exit, now into devnull, raises nothing."""
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run([sys.executable, "-m", "catrank", "examples", "list"],
                              env=child_env(unbuffered),
                              stdout=w, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_equivariant_random_census_is_seeded(capsys):
    code, one, _ = run(capsys, "--seed", "7", "group", "equivariant",
                       "--random", "sym:3", "--cells", "5")
    assert code == 0
    code, two, _ = run(capsys, "--seed", "7", "group", "equivariant",
                       "--random", "sym:3", "--cells", "5")
    assert one == two
    doc = json.loads(one)
    assert len(doc["census"]) == 5
    assert doc["invariants"]["omega_relation"]["holds"] is True
    code, other, _ = run(capsys, "--seed", "8", "group", "equivariant",
                         "--random", "sym:3", "--cells", "5")
    assert json.loads(other)["census"] != doc["census"]


def test_equivariant_random_builds_its_group_once(capsys, monkeypatch):
    """The census is drawn from the group --random names, and the complex
    is made from that same group: one build per call."""
    built = []

    def counted(spec, *rest):
        built.append(spec)
        return build_group(spec, *rest)

    monkeypatch.setattr(grouptheory, "build_group", counted)
    monkeypatch.setattr(orbitcat, "build_group", counted)
    code, out, _ = run(capsys, "--seed", "3", "group", "equivariant", "--random", "dihedral:4")
    assert code == 0 and json.loads(out)["invariants"]["omega_relation"]["holds"] is True
    assert built == ["dihedral:4"]


def test_equivariant_needs_input(capsys):
    code, _, err = run(capsys, "group", "equivariant")
    assert code == 2 and "path or --random" in err


def test_euler_on_subsets_q7_end_to_end():
    """examples emit subsets-q --q 7 | euler -, through two processes."""
    emit = subprocess.run(
        [sys.executable, "-m", "catrank", "examples", "emit", "subsets-q", "--q", "7"],
        capture_output=True, timeout=120, check=True,
    )
    proc = subprocess.run([sys.executable, "-m", "catrank", "euler", "-"],
                          input=emit.stdout, capture_output=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == b""
    doc = json.loads(proc.stdout)
    inv = doc["invariants"]
    assert doc["warnings"] == []
    assert [inv[name] for name in ("chi", "chi2", "chi_L", "chi_nerve")] == ["1"] * 4
    assert len(inv["mu_bar2"]["row_labels"]) == 255
    # mu_bar2 . omega_bar2 = I, multiplied over the nonzero entries only
    mu = [{j: Fraction(v) for j, v in enumerate(row) if v != "0"}
          for row in inv["mu_bar2"]["entries"]]
    omega = [{j: Fraction(v) for j, v in enumerate(row) if v != "0"}
             for row in inv["omega_bar2"]["entries"]]
    for i, row in enumerate(mu):
        acc = {}
        for j, a in row.items():
            for k, b in omega[j].items():
                acc[k] = acc.get(k, 0) + a * b
        assert {k: v for k, v in acc.items() if v} == {i: 1}


def test_euler_on_or_s5_end_to_end():
    """--cap 120 group orbitcat symmetric:5 | validate - and | euler -, through
    real processes."""
    emit = subprocess.run(
        [sys.executable, "-m", "catrank", "--cap", "120", "group", "orbitcat", "symmetric:5"],
        capture_output=True, timeout=120, check=True,
    )
    proc = subprocess.run([sys.executable, "-m", "catrank", "validate", "-"],
                          input=emit.stdout, capture_output=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == b""
    doc = json.loads(proc.stdout)
    assert (doc["valid"], doc["objects"], doc["morphisms"]) == (True, 19, 681)
    proc = subprocess.run([sys.executable, "-m", "catrank", "euler", "-"],
                          input=emit.stdout, capture_output=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == b""
    inv = json.loads(proc.stdout)["invariants"]
    assert [inv[name] for name in ("chi", "chi2", "chi_L")] == ["1"] * 3
    mu = [[Fraction(v) for v in row] for row in inv["mu_bar2"]["entries"]]
    omega = [[Fraction(v) for v in row] for row in inv["omega_bar2"]["entries"]]
    k = len(mu)
    assert k == 19
    for i in range(k):
        assert [sum(mu[i][j] * omega[j][c] for j in range(k)) for c in range(k)] == \
            [Fraction(i == c) for c in range(k)]


# ----------------------------------------------------------- the one writer

C2_S3 = "product:cyclic:2+symmetric:3"


def _report_argvs(tmp_path):
    """One argv per report subcommand and per path to stderr, with the
    documents they read written to tmp_path."""
    for name, cat in (("span", corpus.build("span")), ("q4", corpus.build("subsets-q", q=4)),
                      ("retract", retract_pair())):
        with open(tmp_path / f"{name}.json", "w") as fh:
            canonical_json(cat, fh)
    (tmp_path / "bad.json").write_text('{"objects": 3}')
    (tmp_path / "cells.json").write_text(json.dumps(
        {"group": "symmetric:3", "cells": [{"dim": 0, "stabilizer": [0]}, {"dim": 1, "stabilizer": [0]}]}))
    paths = [str(tmp_path / f"{name}.json") for name in ("span", "q4", "retract", "bad")]
    return ([[sub, p] for sub in ("validate", "euler") for p in paths]
            + [["validate", str(tmp_path / "missing.json")]]
            + [["group", sub, C2_S3] for sub in ("marks", "nu")]
            + [["group", "burnside", "symmetric:3", "--xi", xi] for xi in ("6,3,2,1", "1,1,1,1", "1,a")]
            + [["--seed", "5", "group", "equivariant", "--random", C2_S3, "--cells", "9"],
               ["group", "equivariant", str(tmp_path / "cells.json")],
               ["--cap", "5", "group", "marks", "symmetric:3"],
               ["examples", "list"]])


@pytest.mark.parametrize("indent", [None, 2], ids=["compact", "pretty"])
def test_reports_are_json_dumps_of_their_documents(tmp_path, capsys, monkeypatch, indent):
    """What a report subcommand prints on stdout and stderr is
    ``json.dumps(doc, indent=indent) + "\\n"`` of each document it emits,
    its integer row members expanded by ``json_oracle.expand_rows``."""
    emitted_docs = []
    real_emit = cli._emit

    def recording_emit(doc, stream=None, indent=None):
        emitted_docs.append((json.dumps(doc, indent=indent, default=expand_rows) + "\n",
                             stream is sys.stderr))
        real_emit(doc, stream, indent)

    monkeypatch.setattr(cli, "_emit", recording_emit)
    for argv in _report_argvs(tmp_path):
        emitted_docs.clear()
        main((["--pretty"] if indent else []) + argv)
        out, err = capsys.readouterr()
        assert emitted_docs, argv
        assert out == "".join(text for text, to_err in emitted_docs if not to_err), argv
        assert err == "".join(text for text, to_err in emitted_docs if to_err), argv


def test_report_writes_are_batched(tmp_path, monkeypatch):
    """The euler report of subsets-q 6 arrives in at most one write per
    ``_CHUNK`` encoder tokens, plus one: not one write per token."""
    path = tmp_path / "q6.json"
    with open(path, "w") as fh:
        canonical_json(corpus.build("subsets-q", q=6), fh)
    out = Recorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["euler", str(path)]) == 0
    text = "".join(out.writes)
    tokens = sum(1 for _ in json.JSONEncoder().iterencode(json.loads(text)))
    assert text == json.dumps(json.loads(text)) + "\n"
    assert tokens > 30000
    assert len(out.writes) <= -(-tokens // catrank._CHUNK) + 1


# ------------------------------------------------------------- the layers

EXECUTED = """\
import sys, types
from catrank.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
print(code, *sorted(name for name, m in sys.modules.items()
                    if name.startswith("catrank.") and type(m) is types.ModuleType),
      file=sys.stderr)
"""

# argv -> the modules besides cli it runs, where DOC stands for a category
# document, MISSING for a path that names no file and NOTJSON for a file that
# is not JSON
LAYERS = {
    ("validate", "DOC"): {"fincat"},
    ("euler", "DOC"): {"exactq", "fincat", "leinster", "moebius"},
    ("group", "marks", "symmetric:3"): {"grouptheory"},
    ("group", "nu", "symmetric:3"): {"grouptheory"},
    ("group", "burnside", "symmetric:3", "--xi", "6,3,2,1"): {"grouptheory"},
    ("group", "orbitcat", "symmetric:3"): {"fincat", "grouptheory"},
    ("group", "equivariant", "--random", "symmetric:3", "--cells", "3"):
        {"grouptheory", "orbitcat"},
    ("examples", "list"): {"corpus"},
    ("examples", "emit", "span"): {"corpus", "fincat"},
    ("examples", "emit", "delooping-s3"): {"corpus", "fincat", "grouptheory"},
    ("--cap", "0", "group", "nu", "symmetric:3"): set(),  # refused before any layer
    ("euler", "MISSING"): {"fincat"},  # the engine compiles before the read
    ("euler", "NOTJSON"): {"fincat"},
    ("group", "orbitcat", "perm:5"): {"grouptheory"},
    ("--cap", "4", "group", "orbitcat", "symmetric:3"): {"grouptheory"},
    ("group", "equivariant", "MISSING"): set(),
    ("group", "equivariant", "MISSING", "--random", "symmetric:3"): set(),  # refused unread
}

# the exit code of each LAYERS argv that fails; the others exit 0
CODES = {
    ("--cap", "0", "group", "nu", "symmetric:3"): 2,
    ("euler", "MISSING"): 1,
    ("euler", "NOTJSON"): 1,
    ("group", "orbitcat", "perm:5"): 2,
    ("--cap", "4", "group", "orbitcat", "symmetric:3"): 1,
    ("group", "equivariant", "MISSING"): 1,
    ("group", "equivariant", "MISSING", "--random", "symmetric:3"): 2,
}


@pytest.fixture(scope="module")
def or_s3(tmp_path_factory):
    path = tmp_path_factory.mktemp("layers") / "or-s3.json"
    with open(path, "w") as fh:
        canonical_json(orbit_category(build_group("symmetric:3")), fh)
    return str(path)


@pytest.fixture(scope="module")
def layer_paths(or_s3, tmp_path_factory):
    root = tmp_path_factory.mktemp("layer-errors")
    (root / "not.json").write_text("not json\n")
    return {"DOC": or_s3, "MISSING": str(root / "missing.json"),
            "NOTJSON": str(root / "not.json")}


@pytest.mark.parametrize("argv", LAYERS, ids=" ".join)
def test_each_subcommand_runs_only_its_layer(layer_paths, argv):
    """A module counts once its body has run: a deferred module that nothing
    read is still of the lazy loader's module type."""
    proc = subprocess.run([sys.executable, "-c", EXECUTED,
                           *(layer_paths.get(a, a) for a in argv)],
                          capture_output=True, text=True, timeout=60)
    code, *executed = proc.stderr.splitlines()[-1].split()
    assert int(code) == CODES.get(argv, 0)
    assert set(executed) == {f"catrank.{name}" for name in LAYERS[argv] | {"cli"}}


# module -> the catrank modules whose bodies run when it alone is imported:
# the engine (moebius) runs without the category layer, and every layer
# besides those listed is left to the first read of one of its names
IMPORT_CLOSURES = {
    "exactq": {"exactq"},
    "fincat": {"fincat"},
    "grouptheory": {"grouptheory"},
    "moebius": {"exactq", "moebius"},
    "leinster": {"exactq", "fincat", "leinster", "moebius"},
    "orbitcat": {"grouptheory", "orbitcat"},
    "corpus": {"corpus"},
    "cli": {"cli"},
}

IMPORTED = """\
import sys, types
import catrank.{module}
present = [name for name in sys.modules if name.startswith("catrank.")]
print(*sorted(name for name in present if type(sys.modules[name]) is types.ModuleType))
print(*sorted(present))
"""


@pytest.mark.parametrize("module", IMPORT_CLOSURES)
def test_each_module_runs_only_its_import_closure(module):
    """``python -S -c "import catrank.<module>"``, site-packages off: the
    modules that ran are the table's row, and only cli and corpus, which
    bind deferred modules, leave any other catrank module in sys.modules."""
    src = os.path.dirname(os.path.dirname(catrank.__file__))
    layers = {name[:-3] for name in os.listdir(os.path.join(src, "catrank"))
              if name.endswith(".py")} - {"__init__", "__main__"}
    assert set(IMPORT_CLOSURES) == layers
    proc = subprocess.run([sys.executable, "-S", "-c", IMPORTED.format(module=module)],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    executed, present = (set(line.split()) for line in proc.stdout.splitlines())
    assert executed == {f"catrank.{name}" for name in IMPORT_CLOSURES[module]}
    assert present == executed or module in ("cli", "corpus")


ONE_OBJECT = """\
import sys
{before}
import catrank
from catrank import cli
{after}
code = cli.main(["euler", sys.argv[1]])
imported = {{"fincat": fincat, "grouptheory": grouptheory}}
for name in ("exactq", "fincat", "grouptheory", "leinster", "moebius"):
    module = sys.modules["catrank." + name]
    assert getattr(cli, name) is module is getattr(catrank, name) is imported.get(name, module), name
assert cli.leinster.iso_order is cli.fincat.iso_order
assert cli.orbitcat.FiniteGroup is cli.grouptheory.FiniteGroup
sys.exit(code)
"""


@pytest.mark.parametrize("cli_first", [False, True], ids=["cli-after", "cli-before"])
@pytest.mark.parametrize("order", [("fincat", "grouptheory"), ("grouptheory", "fincat")],
                         ids="-".join)
def test_one_module_object_per_layer(or_s3, cli_first, order):
    """Layer modules imported before or after cli are cli's modules, and
    euler prints the same bytes as ``python -m catrank`` either way."""
    imports = "\n".join(f"import catrank.{name} as {name}" for name in order)
    script = ONE_OBJECT.format(before="" if cli_first else imports,
                               after=imports if cli_first else "")
    proc = subprocess.run([sys.executable, "-c", script, or_s3], capture_output=True, timeout=60)
    plain = subprocess.run([sys.executable, "-m", "catrank", "euler", or_s3],
                           capture_output=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == plain.stdout and plain.returncode == 0


ADDED_MODULES = """\
import sys
before = set(sys.modules)
from catrank.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
print(code, *sorted(set(sys.modules) - before), file=sys.stderr)
"""


@pytest.mark.parametrize("argv", [("group", "marks", "symmetric:3"),
                                  ("group", "nu", "symmetric:4"),
                                  ("group", "burnside", "symmetric:3", "--xi", "6,3,2,1")],
                         ids=lambda argv: argv[1])
def test_group_commands_import_no_fractions(argv):
    """marks, nu and burnside build no Fraction, so they import neither
    ``fractions`` nor the ``decimal`` it pulls in."""
    proc = subprocess.run([sys.executable, "-c", ADDED_MODULES, *argv],
                          capture_output=True, text=True, timeout=60)
    code, *added = proc.stderr.splitlines()[-1].split()
    assert int(code) == 0 and "catrank.grouptheory" in added
    assert not {"fractions", "decimal"} & set(added)


SHARED = """\
import sys
{imports}
from catrank import cli, corpus
for name in ("fincat", "grouptheory"):
    module = sys.modules["catrank." + name]
    assert getattr(corpus, name) is getattr(cli, name) is module, name
cat = corpus.build("delooping-s3")
assert isinstance(cat, cli.fincat.FiniteCategory) and cat.n_morphisms == 6
"""


@pytest.mark.parametrize("first", [("corpus", "cli"), ("cli", "corpus"),
                                   ("fincat", "corpus", "cli"), ("grouptheory", "cli", "corpus")],
                         ids="-".join)
def test_corpus_and_cli_share_the_layer_modules(first):
    """corpus and cli defer fincat and grouptheory to the same module
    objects, whichever of them, or of the layers, is imported first."""
    imports = "\n".join(f"import catrank.{name}" for name in first)
    proc = subprocess.run([sys.executable, "-c", SHARED.format(imports=imports)],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
