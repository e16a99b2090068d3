"""The row loader and ``validate`` against the dict-keyed oracle, through
the command line.

``cli.main`` must give the same exit code, stdout and stderr whether a
document is read by ``fincat.from_json`` and checked by ``fincat.validate``,
or read into a (g, f) dict by ``assembly_oracle.from_json`` and checked by
``assembly_oracle.validate``.  The one difference allowed is the order of
``associativity`` triples when the records are not sorted by (g, f).
"""

import copy
import json
import random

import pytest

import assembly_oracle as oracle
import test_fuzz
from catrank import fincat
from catrank.cli import main
from test_cli import MALFORMED_FIELDS, NON_FINITE


def emit(capsys, *argv) -> dict:
    assert main(list(argv)) == 0
    return json.loads(capsys.readouterr()[0])


@pytest.fixture
def bases(capsys) -> dict[str, dict]:
    docs = {name: emit(capsys, "examples", "emit", name) for name in ("section8", "span")}
    docs["subsets-q 3"] = emit(capsys, "examples", "emit", "subsets-q", "--q", "3")
    docs["Or(S3)"] = emit(capsys, "group", "orbitcat", "symmetric:3")
    return docs


def both_routes(monkeypatch, capsys, tmp_path, doc, commands=("validate", "euler")):
    """[(exit code, stdout, stderr)] of each command on doc, by the row route
    and by the oracle route."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    results = []
    for route in ("rows", "oracle"):
        with monkeypatch.context() as m:
            if route == "oracle":
                m.setattr(fincat, "from_json", oracle.from_json)
                m.setattr(fincat, "validate", oracle.validate)
            for cmd in commands:
                code = main([cmd, str(path)])
                results.append((code, *capsys.readouterr()))
    half = len(results) // 2
    return results[:half], results[half:]


def endpoints(doc):
    ends = {r["id"]: (str(r["dom"]), str(r["cod"])) for r in doc["morphisms"]}
    return [ends[i] for i in range(len(ends))]


def broken(rng: random.Random, doc: dict) -> list[tuple[str, dict]]:
    """Shuffled records, extras (with a duplicate among them, or with a
    record missing), a repeated composable record, missing records, wrong
    composites, and a composite of two non-identities or of an identity
    after a non-identity moved within its hom set, every one with its
    records shuffled."""
    ends = endpoints(doc)
    m = len(ends)
    records = doc["composition"]
    out = []

    def variant(kind, recs):
        d = copy.deepcopy(doc)
        d["composition"] = recs
        rng.shuffle(recs)
        out.append((kind, d))

    variant("shuffled", copy.deepcopy(records))
    extras = [[g, f, rng.randrange(m)] for g in range(m) for f in range(m)
              if ends[f][1] != ends[g][0]]
    if extras:
        picks = rng.sample(extras, min(3, len(extras)))
        variant("extra", copy.deepcopy(records) + picks)
        variant("extra-duplicate", copy.deepcopy(records) + picks + [list(picks[-1])])
        variant("extra-missing", copy.deepcopy(records[1:]) + picks)
    variant("duplicate", copy.deepcopy(records) + [list(rng.choice(records))])
    variant("missing", rng.sample(copy.deepcopy(records), len(records) - rng.randint(1, 3)))
    wrong = copy.deepcopy(records)
    for rec in rng.sample(wrong, 2):
        rec[2] = rng.randrange(m)
    variant("wrong", wrong)
    ids = set(doc["identities"].values())
    for kind, left_is_identity in (("moved", False), ("identity-moved", True)):
        moved = copy.deepcopy(records)
        for rec in rng.sample(moved, len(moved)):
            others = [x for x in range(m) if ends[x] == ends[rec[2]] and x != rec[2]]
            if (rec[0] in ids) == left_is_identity and rec[1] not in ids and others:
                rec[2] = rng.choice(others)
                variant(kind, moved)
                break
    return out


def test_malformed_fields_match_oracle(monkeypatch, capsys, tmp_path, bases):
    for name, patch in MALFORMED_FIELDS.items():
        doc = dict(bases["span"], **patch)
        rows, ref = both_routes(monkeypatch, capsys, tmp_path, doc)
        assert rows == ref, name
        assert all(code == 1 for code, _, _ in rows)


def test_non_finite_ids_match_oracle():
    """Parsed by Python's json, which reads NaN, Infinity and 1e400 as
    floats, every document of ``NON_FINITE`` is refused by both readers
    with one message."""
    for name, (text, _, _) in NON_FINITE.items():
        doc = json.loads(text)
        messages = []
        for read in (fincat.from_json, oracle.from_json):
            with pytest.raises(ValueError) as err:
                read(doc)
            messages.append(str(err.value))
        assert messages[0] == messages[1], name


def test_fuzzed_documents_match_oracle(monkeypatch, capsys, tmp_path, bases):
    rng = random.Random(test_fuzz.SEED)
    for _ in range(test_fuzz.ROUNDS):
        doc = test_fuzz.mutate_doc(rng, bases["section8"])
        rows, ref = both_routes(monkeypatch, capsys, tmp_path, doc)
        assert rows == ref, doc


def violations(result) -> list[dict]:
    code, _, err = result
    return json.loads(err)["violations"] if code == 1 else []


def pair_order(found: list[dict]) -> list[dict]:
    """found with its associativity triples, which come last, stably sorted
    by (g, f): the oracle lists them in record order."""
    triples = [v for v in found if v["kind"] == "associativity"]
    return found[:len(found) - len(triples)] + sorted(triples, key=lambda v: v["triple"][1:])


def test_broken_tables_match_oracle(monkeypatch, capsys, tmp_path, bases):
    rng = random.Random(1717)
    kinds = set()
    for name, base in bases.items():
        for _ in range(3):
            for kind, doc in broken(rng, base):
                rows, ref = both_routes(monkeypatch, capsys, tmp_path, doc)
                found = violations(rows[0])
                kinds.update(v["kind"] for v in found)
                if any(v["kind"] == "associativity" for v in found):
                    assert [r[0] for r in rows] == [r[0] for r in ref] == [1, 1]
                    assert all(violations(r) == pair_order(violations(s))
                               for r, s in zip(rows, ref))
                else:
                    assert rows == ref, (name, kind)
    assert kinds == {"malformed", "extra_composite", "missing_composite",
                     "composite_endpoints", "identity_law", "associativity"}


def test_associativity_triples_in_pair_order(bases):
    """On a shuffled non-associative document the triples are listed by
    (g, f), then by h, whatever the order of the records."""
    doc = copy.deepcopy(bases["Or(S3)"])
    ends = endpoints(doc)
    ids = set(doc["identities"].values())
    rec = next(r for r in doc["composition"] if ids.isdisjoint(r[:2])
               and any(ends[x] == ends[r[2]] for x in range(len(ends)) if x != r[2]))
    rec[2] = next(x for x in range(len(ends)) if ends[x] == ends[rec[2]] and x != rec[2])
    random.Random(3).shuffle(doc["composition"])
    found = fincat.validate(fincat.from_json(doc))
    assert {v["kind"] for v in found} == {"associativity"}
    order = [(g, f, h) for h, g, f in (v["triple"] for v in found)]
    assert len(order) > 1 and order == sorted(order)
    ref = oracle.validate(oracle.from_json(doc))
    assert ref != found and pair_order(ref) == found
