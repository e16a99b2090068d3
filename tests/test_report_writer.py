"""The report writer of catrank.cli against the dense route of
``json_oracle``: every matrix and vector member expanded to the dense
Fraction vectors and matrices of the test helper ``dense``, written as
lists of entry strings by ``json.JSONEncoder``.  The bytes must agree,
compact and indented."""

import io
import json
from fractions import Fraction

import pytest

import dense
from catrank import Rows, cli, corpus, leinster, moebius
from catrank.cli import main
from catrank.fincat import (FiniteCategory, canonical_json, from_json, iso_order, opposite,
                            orbit_category, poset_category)
from catrank.grouptheory import build_group, nu_matrix, table_of_marks

from json_oracle import mat, report_text, vec
from test_grouptheory import ORACLE_GROUPS

CAP = "120"
GROUPS = [spec for spec, _ in ORACLE_GROUPS] + ["symmetric:5"]
# object ids with a quote, a backslash, a newline and non-ASCII letters
ESCAPES = ['a"b', "c\\d", "é∂", "x\ny"]


def escapes_poset():
    return poset_category(ESCAPES, [('a"b', "c\\d"), ("c\\d", "é∂"), ('a"b', "é∂")])


def _categories():
    """(id, builder) for every category whose euler report is compared."""
    for name in corpus.names():
        if name != "subsets-q":
            yield name, lambda name=name: corpus.build(name)
    for q in range(9):
        yield f"subsets-q-{q}", lambda q=q: corpus.build("subsets-q", q=q)
    for spec in GROUPS:
        yield f"Or({spec})", lambda spec=spec: orbit_category(build_group(spec, int(CAP)))
        yield f"Or({spec})^op", lambda spec=spec: opposite(
            orbit_category(build_group(spec, int(CAP))))
    yield "escapes", escapes_poset
    yield "empty", lambda: FiniteCategory([], [], [], [], [])


CATEGORIES = dict(_categories())


def _report(monkeypatch, capsys, argv) -> tuple[str, dict]:
    """(stdout, the document emitted to it) of one CLI call."""
    docs = []
    real_emit = cli._emit

    def recording_emit(doc, stream=None, indent=None):
        docs.append(doc)
        real_emit(doc, stream, indent)

    monkeypatch.setattr(cli, "_emit", recording_emit)
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == "" and len(docs) == 1
    return out, docs[0]


def _pretty(doc) -> str:
    out = io.StringIO()
    cli._emit(doc, out, indent=2)
    return out.getvalue()


def _assert_dense_route(out, doc, expanded):
    """The report printed compact, and the same document indented, are the
    encoder's text of expanded, the document with dense matrices and
    vectors."""
    assert out == report_text(expanded)
    assert _pretty(doc) == report_text(expanded, indent=2)


@pytest.mark.parametrize("name", CATEGORIES)
def test_euler_report_is_the_dense_route(tmp_path, monkeypatch, capsys, name):
    path = tmp_path / "doc.json"
    with open(path, "w") as fh:
        canonical_json(CATEGORIES[name](), fh)
    out, doc = _report(monkeypatch, capsys, ["euler", str(path)])
    invariants = dict(doc["invariants"])
    cat = from_json(json.loads(path.read_text()))
    objects = [str(o) for o in cat.objects]
    for name, solve in (("weighting", leinster.weighting), ("coweighting", leinster.coweighting)):
        if name in invariants:
            rep = solve(cat)
            invariants[name] = dict(vec(dense.solution(rep, objects)), kernel_dim=rep.kernel_dim)
    if doc["predicates"]["is_ei"]:
        er = moebius.euler_characteristics(iso_order(cat))
        invariants.update(chi_f=vec(dense.chi_f(er)), chi_f2=vec(dense.chi_f2(er)),
                          omega_bar2=mat(dense.matrix(moebius.omega_bar2(iso_order(cat)))),
                          mu_bar2=mat(dense.mu_bar2(er)))
    else:
        assert "mu_bar2" not in invariants
    _assert_dense_route(out, doc, dict(doc, invariants=invariants))


@pytest.mark.parametrize("sub", ["marks", "nu"])
@pytest.mark.parametrize("spec", GROUPS)
def test_group_matrix_is_the_dense_route(monkeypatch, capsys, spec, sub):
    out, doc = _report(monkeypatch, capsys, ["--cap", CAP, "group", sub, spec])
    g = build_group(spec, int(CAP))
    matrix = table_of_marks(g).matrix if sub == "marks" else nu_matrix(g)
    invariants = dict(doc["invariants"], **{sub: mat(dense.matrix(matrix))})
    _assert_dense_route(out, doc, dict(doc, invariants=invariants))


def test_labels_are_escaped_as_json_dumps_does(tmp_path, capsys):
    """Labels are written as ``json.dumps`` writes strings by default, in
    ASCII: the quote and backslash escaped, the rest as \\u escapes."""
    path = tmp_path / "escapes.json"
    with open(path, "w") as fh:
        canonical_json(escapes_poset(), fh)
    assert main(["euler", str(path)]) == 0
    invariants = json.loads(capsys.readouterr().out)["invariants"]
    labels = json.dumps(ESCAPES)
    assert labels == '["a\\"b", "c\\\\d", "\\u00e9\\u2202", "x\\ny"]'
    for name in ("omega_bar2", "mu_bar2"):
        assert sorted(invariants[name]["row_labels"]) == sorted(ESCAPES)
    out = io.StringIO()
    cli._emit({"m": cli._matrix(Rows(ESCAPES, [{0: 1}, {1: 2}, {2: -3}, {3: 4}], [1, 2, 6, 8]))},
              out)
    assert out.getvalue() == ('{"m": {"row_labels": %s, "col_labels": %s, "entries": '
                              '[["1", "0", "0", "0"], ["0", "1", "0", "0"], '
                              '["0", "0", "-1/2", "0"], ["0", "0", "0", "1/2"]]}}\n'
                              % (labels, labels))


@pytest.mark.parametrize("name", ["subsets-q-6", "Or(product:cyclic:2+cyclic:2+cyclic:2+cyclic:2)"])
def test_euler_builds_no_fraction_matrix(tmp_path, monkeypatch, capsys, name):
    """The report's vectors and matrices go from integers to text: euler
    builds fewer Fractions than there are classes (k), the scalars chi_L and
    chi2 only, so neither omega_bar2, with its k diagonal entries, nor
    mu_bar2 is expanded into rationals, densely (k x k) or not."""
    cat = CATEGORIES[name]()
    k = iso_order(cat).size
    path = tmp_path / "doc.json"
    with open(path, "w") as fh:
        canonical_json(cat, fh)
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    assert main(["euler", str(path)]) == 0
    monkeypatch.undo()
    assert '"mu_bar2"' in capsys.readouterr().out
    assert 0 < len(built) < k, (len(built), k)
