"""The streamed category writer against json's indent encoder, byte for
byte, and the CLI's emitted documents against the benchmark's pinned
digests."""

import hashlib
import json
from pathlib import Path

import pytest

import catrank
from catrank import corpus
from catrank.cli import main
from catrank.fincat import FiniteCategory, canonical_json, from_json, opposite, orbit_category
from catrank.grouptheory import build_group

from assembly_oracle import table_of
from json_oracle import emitted, indent_json

PINS = Path(__file__).resolve().parent.parent / "perfbench" / "pins.json"
C2_4 = "product:cyclic:2+cyclic:2+cyclic:2+cyclic:2"
ORBIT_GROUPS = ["symmetric:3", "symmetric:4", "dihedral:4", "q8", C2_4]


class Recorder:
    """A text stream that keeps every write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("name", corpus.names())
def test_corpus_entries(name):
    cat = corpus.build(name)
    assert emitted(cat) == indent_json(cat)


def test_empty_category():
    cat = FiniteCategory([], [], [], [], [])
    assert emitted(cat) == indent_json(cat) == (
        '{\n  "objects": [],\n  "morphisms": [],\n  "identities": {},\n'
        '  "composition": []\n}\n')


@pytest.mark.parametrize("q", range(9))
def test_subsets_q(q):
    cat = corpus.build("subsets-q", q=q)
    assert emitted(cat) == indent_json(cat)


@pytest.mark.parametrize("spec", ORBIT_GROUPS)
def test_orbit_categories_and_opposites(spec):
    cat = orbit_category(build_group(spec))
    for c in (cat, opposite(cat)):
        assert emitted(c) == indent_json(c)


# the span with object ids that are an int, a float and a name that needs
# escapes: a quote, a backslash, a control character and non-ASCII text
ODD_IDS = [7, 2.5, 'a"b\\c\x01é\U0001d11e']


def test_number_and_escaped_object_ids():
    a, x, y = ODD_IDS
    doc = {"objects": ODD_IDS,
           "morphisms": [{"id": 0, "dom": a, "cod": a}, {"id": 1, "dom": x, "cod": x},
                         {"id": 2, "dom": y, "cod": y}, {"id": 3, "dom": a, "cod": x},
                         {"id": 4, "dom": a, "cod": y}],
           "identities": {str(a): 0, str(x): 1, str(y): 2},
           "composition": [[0, 0, 0], [1, 1, 1], [1, 3, 3], [2, 2, 2], [2, 4, 4],
                           [3, 0, 3], [4, 0, 4]]}
    cat = from_json(json.loads(json.dumps(doc)))
    text = emitted(cat)
    assert text == indent_json(cat)
    assert text.isascii() and json.loads(text) == doc
    assert emitted(from_json(json.loads(text))) == text


def test_python_object_ids():
    # ids that JSON documents cannot carry but the library accepts: nested
    # tuples, None, a bool, NaN, and two ids that str() spells alike
    objects = [("t", (1, ("a", None))), None, True, float("nan"), 3, "3"]
    n = len(objects)
    cat = FiniteCategory(objects, range(n), range(n), range(n), [(i, i, i) for i in range(n)])
    assert emitted(cat) == indent_json(cat)


@pytest.mark.parametrize("chunk", [1, 2, 3, 1000])
def test_chunk_size_changes_no_byte(monkeypatch, chunk):
    monkeypatch.setattr(catrank, "_CHUNK", chunk)
    cat = corpus.build("subsets-q", q=3)
    out = Recorder()
    canonical_json(cat, out)
    assert "".join(out.writes) == indent_json(cat)
    assert len(out.writes) > len(table_of(cat)) / chunk


def test_writes_are_bounded():
    cat = orbit_category(build_group(C2_4))
    out = Recorder()
    canonical_json(cat, out)
    text = "".join(out.writes)
    assert text == indent_json(cat)
    assert len(table_of(cat)) > 6 * 4096
    assert max(map(len, out.writes)) < len(text) / 6


def _pinned_runs():
    for name in json.loads(PINS.read_text())["digests"]:
        if name == "orbitcat C2^4":
            yield name, ["group", "orbitcat", C2_4]
        elif name.startswith("emit Or("):
            yield name, ["group", "orbitcat", name[len("emit Or("):-1]]
        elif name.startswith("emit subsets-q "):
            yield name, ["examples", "emit", "subsets-q", "--q", name.split()[-1]]


PINNED = list(_pinned_runs())


def test_pins_cover_orbit_and_poset_documents():
    assert {"emit Or(dihedral:4)", "emit Or(symmetric:4)", f"emit Or({C2_4})",
            "emit subsets-q 6", "orbitcat C2^4"} <= {name for name, _ in PINNED}


@pytest.mark.parametrize("name,argv", PINNED, ids=[name for name, _ in PINNED])
def test_cli_documents_match_pins(capsys, name, argv):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    digest = json.loads(PINS.read_text())["digests"][name]
    assert hashlib.sha256(out.encode()).hexdigest() == digest
