"""Seeded malformed-input fuzzing of the command line.

Mutated category documents, cell documents and group spec strings go through
``cli.main`` in process. Each call must end in exit 0, 1 or 2 with a JSON
diagnostic on stderr when it fails; no exception may escape.
"""

import copy
import json
import random

import pytest

from catrank.cli import main

SEED = 20091
ROUNDS = 60

ODD_VALUES = [None, True, False, 0, -1, 1, 2.5, 10 ** 6, "", "x", "cyclic:2", [], [0], [[0]],
              [0, "a"], {}, {"kind": "cyclic"}, {"id": 0, "dom": "x", "cod": "x"}]

CELL_DOC = {
    "group": {"kind": "product", "factors": [{"kind": "cyclic", "n": 2},
                                             {"kind": "dihedral", "n": 3}]},
    "cells": [{"dim": 0, "stabilizer": [0]}, {"dim": 1, "stabilizer": [0, 3]},
              {"dim": 2, "stabilizer": [0, 1]}],
}

SPECS = ["cyclic:6", "dihedral:4", "sym:3", "product:cyclic:2+dihedral:3",
         "perm:[[1,2,0],[1,0,2]]", "klein", "q8"]
SPEC_CHARS = "0123456789:+[],-. aeklmpsy"


def paths(node, prefix=()):
    """Every position in a JSON tree, the root included."""
    yield prefix
    if isinstance(node, dict):
        for k, v in node.items():
            yield from paths(v, prefix + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from paths(v, prefix + (i,))


def mutate_doc(rng: random.Random, doc):
    doc = copy.deepcopy(doc)
    where = rng.choice(list(paths(doc)))
    if not where:
        return rng.choice(ODD_VALUES)
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    key = where[-1]
    action = rng.randrange(4)
    if action == 0:
        del parent[key]
    elif action == 1 and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    elif action == 2:
        parent[key] = [parent[key]]
    else:
        parent[key] = copy.deepcopy(rng.choice(ODD_VALUES))
    return doc


def mutate_spec(rng: random.Random, spec: str) -> str:
    chars = list(spec)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(chars) + 1)
        action = rng.randrange(3)
        if action == 0 and i < len(chars):
            del chars[i]
        elif action == 1 and i < len(chars):
            chars[i] = rng.choice(SPEC_CHARS)
        else:
            chars.insert(i, rng.choice(SPEC_CHARS))
    return "".join(chars)


def run_cli(capsys, argv) -> tuple[int, dict | None]:
    """Exit code and the parsed stderr diagnostic of one call."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse
        code = exc.code
    _, err = capsys.readouterr()
    assert code in (0, 1, 2), (argv, err)
    return code, json.loads(err.splitlines()[-1]) if code else None


def violation_kind(diagnostic: dict | None) -> str | None:
    return diagnostic and diagnostic.get("violations", [{}])[0].get("kind")


@pytest.fixture
def category_doc(capsys):
    main(["examples", "emit", "section8"])
    return json.loads(capsys.readouterr()[0])


def test_fuzz_category_documents(tmp_path, capsys, category_doc):
    rng = random.Random(SEED)
    path = tmp_path / "cat.json"
    kinds = set()
    for _ in range(ROUNDS):
        path.write_text(json.dumps(mutate_doc(rng, category_doc)))
        for cmd in ("validate", "euler"):
            kinds.add(violation_kind(run_cli(capsys, [cmd, str(path)])[1]))
    # both the parser and the category laws reject some of them
    assert {"malformed", "missing_composite"} <= kinds


def test_fuzz_cell_documents(tmp_path, capsys):
    rng = random.Random(SEED)
    path = tmp_path / "cells.json"
    codes = set()
    for _ in range(ROUNDS):
        path.write_text(json.dumps(mutate_doc(rng, CELL_DOC)))
        codes.add(run_cli(capsys, ["group", "equivariant", str(path)])[0])
    assert codes == {0, 1}


def test_fuzz_group_specs(capsys):
    rng = random.Random(SEED)
    codes = set()
    for _ in range(ROUNDS):
        spec = mutate_spec(rng, rng.choice(SPECS))
        codes.add(run_cli(capsys, ["group", "marks", spec])[0])
    assert codes == {0, 2}
