"""The document reader against the plain ``json.loads(bytes)`` route.

``cli._read_json`` hashes the raw bytes, decodes them as ``json.loads``
decodes bytes, drops them, and parses the text with every distinct integer
literal made into one shared int.  ``validate`` and ``euler`` must give the
same exit code, stdout and stderr as with ``loader_oracle.load_category``,
on documents in every encoding json accepts and on every way of not being a
category document that the parse itself decides."""

import codecs
import json
import tracemalloc

import pytest

import loader_oracle
from catrank import cli, corpus
from catrank.cli import main
from catrank.fincat import from_json, orbit_category
from catrank.grouptheory import build_group
from json_oracle import emitted

C2_4 = "product:cyclic:2+cyclic:2+cyclic:2+cyclic:2"
SPAN = emitted(corpus.build("span"))


def _with(path, text: str) -> str:
    """SPAN with the value at path (keys and indices) replaced by the JSON
    text given."""
    doc = json.loads(SPAN)
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = "@"
    return json.dumps(doc).replace('"@"', text)


DEEP = "[" * 100000 + "]" * 100000

INPUTS = {
    "utf-8": SPAN.encode(),
    "invalid utf-8": SPAN.replace('"a"', '"\udcff"').encode("utf-8", "surrogateescape"),
    "truncated utf-8": SPAN.encode()[:-1] + b"\xc3",
    "utf-8 bom": codecs.BOM_UTF8 + SPAN.encode(),
    "utf-8 bom twice": codecs.BOM_UTF8 * 2 + SPAN.encode(),
    "utf-16": SPAN.encode("utf-16"),
    "utf-16-le": SPAN.encode("utf-16-le"),
    "utf-16-be": SPAN.encode("utf-16-be"),
    "utf-16-le odd length": SPAN.encode("utf-16-le") + b"\x00",
    "utf-32": SPAN.encode("utf-32"),
    "utf-32-le": SPAN.encode("utf-32-le"),
    "utf-32-be": SPAN.encode("utf-32-be"),
    "escaped lone surrogate": SPAN.replace('"a"', r'"\ud800"').encode(),
    "raw lone surrogate": SPAN.replace('"a"', '"a\ud800"').encode("utf-8", "surrogatepass"),
    "utf-16 lone surrogate": json.dumps(["\udc00"], ensure_ascii=False)
                             .encode("utf-16-le", "surrogatepass"),
    "5,000-digit id": _with(("morphisms", 0, "id"), "1" + "0" * 4999).encode(),
    "5,000-digit object": _with(("objects", 0), "1" + "0" * 4999).encode(),
    "empty": b"",
    "whitespace": b" \n",
    "trailing data": SPAN.encode() + b" x",
    "two documents": SPAN.encode() * 2,
    "NaN object": _with(("objects", 0), "NaN").encode(),
    "Infinity endpoint": _with(("morphisms", 0, "dom"), "Infinity").encode(),
    "-Infinity id": _with(("morphisms", 0, "id"), "-Infinity").encode(),
    "1e400 object": _with(("objects", 0), "1e400").encode(),
    "-1e400 endpoint": _with(("morphisms", 0, "cod"), "-1e400").encode(),
    "float id": _with(("morphisms", 0, "id"), "0.0").encode(),
    "true id": _with(("morphisms", 0, "id"), "true").encode(),
    "deep nesting": DEEP.encode(),
    "deep nesting in a member": ('{"objects": ' + DEEP + "}").encode(),
}


@pytest.mark.parametrize("name", INPUTS)
def test_same_report_as_json_loads_of_the_bytes(name, tmp_path, monkeypatch, capsys):
    path = tmp_path / "doc.json"
    path.write_bytes(INPUTS[name])
    results = []
    for route in ("reader", "oracle"):
        with monkeypatch.context() as m:
            if route == "oracle":
                m.setattr(cli, "_load_category", loader_oracle.load_category)
            for cmd in ("validate", "euler"):
                code = main([cmd, str(path)])
                results.append((code, *capsys.readouterr()))
    assert results[:2] == results[2:]


def _json_error(data: bytes) -> str | None:
    try:
        json.loads(data, parse_constant=loader_oracle._no_constant)
    except (ValueError, RecursionError) as e:
        return str(e)
    return None


@pytest.mark.parametrize("name", [name for name, data in INPUTS.items() if _json_error(data)])
def test_equivariant_reports_json_errors_as_malformed(name, tmp_path, capsys):
    path = tmp_path / "census.json"
    path.write_bytes(INPUTS[name])
    assert main(["group", "equivariant", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"violations": [{"kind": "malformed",
                                               "detail": _json_error(INPUTS[name])}]}


def test_inputs_reach_every_outcome(tmp_path, capsys):
    """The inputs above include valid documents, JSON errors (the decoding
    ones among them), malformed documents and invalid categories."""
    kinds = set()
    for name, data in INPUTS.items():
        path = tmp_path / "doc.json"
        path.write_bytes(data)
        code = main(["validate", str(path)])
        _, err = capsys.readouterr()
        kinds |= {v["kind"] for v in json.loads(err)["violations"]} if code else {"valid"}
        if name == "invalid utf-8":
            assert "utf-8" in json.loads(err)["violations"][0]["detail"]
    assert {"valid", "not_json", "malformed"} <= kinds


def _documents() -> dict[str, str]:
    """The corpus, subsets-q 0-6 and Or(G) for S3, S4, D8, Q8 and C2^4."""
    docs = {name: emitted(corpus.build(name)) for name in corpus.names()}
    docs.update({f"subsets-q {q}": emitted(corpus.build("subsets-q", q=q)) for q in range(7)})
    for spec in ("symmetric:3", "symmetric:4", "dihedral:4", "q8", C2_4):
        docs[f"Or({spec})"] = emitted(orbit_category(build_group(spec)))
    return docs


DOCUMENTS = _documents()


def _ints(doc) -> list[int]:
    found, stack = [], [doc]
    while stack:
        node = stack.pop()
        if type(node) is int:
            found.append(node)
        elif isinstance(node, dict):
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    return found


def _distinct_objects(values) -> bool:
    """Whether equal values are one object."""
    values = list(values)
    return len({id(v) for v in values}) == len(set(values))


@pytest.mark.parametrize("name", DOCUMENTS)
def test_equal_ints_are_one_object(name, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(DOCUMENTS[name])
    _, doc, error = cli._read_json(str(path))
    assert error is None
    ints = _ints(doc)
    assert ints and _distinct_objects(ints)
    # the test sees a difference: ids above 256 are separate objects per
    # occurrence when json.loads makes them
    if max(ints) > 256:
        assert not _distinct_objects(_ints(json.loads(DOCUMENTS[name])))


@pytest.mark.parametrize("name", DOCUMENTS)
def test_loaded_rows_are_the_plain_parse(name, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(DOCUMENTS[name])
    stub, cat, violations = cli._load_category(str(path))
    assert violations == []
    expected = from_json(json.loads(DOCUMENTS[name]))
    assert cat.rows == expected.rows and cat == expected
    assert _distinct_objects(c for row in cat.rows for c in row)


def test_bytes_are_dropped_before_the_parse(tmp_path):
    """Read inside the traced region, the reader's peak is the text and the
    parsed document, with no second copy of the document's size: the raw
    bytes are gone before the parse begins."""
    path = tmp_path / "doc.json"
    path.write_text(DOCUMENTS[f"Or({C2_4})"])
    size = path.stat().st_size
    assert size > 10 ** 6
    tracemalloc.start()
    try:
        _, doc, error = cli._read_json(str(path))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert error is None
    assert peak - held < 1.5 * size
