"""The input stanza's sha256: CPython's own SHA-256 where it exists, so no
run loads OpenSSL, and hashlib's where it does not, with the same digest."""

import hashlib
import importlib.util
import io
import json
import subprocess
import sys

import pytest

from catrank import corpus
from catrank.cli import main
from catrank.grouptheory import build_group
from catrank.orbitcat import orbit_category
from json_oracle import emitted

SPAN = emitted(corpus.build("span")).encode()
OR_C2_4 = emitted(orbit_category(
    build_group("product:cyclic:2+cyclic:2+cyclic:2+cyclic:2")).category).encode()


def stanza(capsys, argv) -> dict:
    main(argv)
    return json.loads(capsys.readouterr()[0])["input"]


@pytest.mark.parametrize("data", [b"", SPAN, OR_C2_4], ids=["empty", "span", "Or(C2^4)"])
def test_digest_of_a_file(data, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    assert stanza(capsys, ["validate", str(path)]) == {
        "source": str(path), "sha256": hashlib.sha256(data).hexdigest()}


def test_digest_of_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(SPAN)))
    assert stanza(capsys, ["euler", "-"]) == {
        "source": "<stdin>", "sha256": hashlib.sha256(SPAN).hexdigest()}


def test_digest_of_an_equivariant_census(tmp_path, capsys):
    data = b'{"group": "cyclic:2", "cells": [{"dim": 0, "stabilizer": [0]}]}'
    path = tmp_path / "census.json"
    path.write_bytes(data)
    assert stanza(capsys, ["group", "equivariant", str(path)])["sha256"] == \
        hashlib.sha256(data).hexdigest()


def _run(prelude: str, *argv, stdin: bytes = b"") -> tuple[int, bytes, bytes]:
    script = (prelude + "\nfrom catrank.cli import main\ncode = main(sys.argv[1:])\n"
              "sys.stdout.flush()\nsys.stderr.write(repr(sorted(sys.modules)))\n"
              "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", "import sys\n" + script, *argv],
                          input=stdin, capture_output=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("argv,stdin", [(["euler", "-"], OR_C2_4), (["validate", "-"], b""),
                                        (["group", "nu", "cyclic:4"], b"")],
                         ids=["euler Or(C2^4)", "validate empty", "group nu"])
def test_fallback_route_is_byte_identical(argv, stdin):
    """With _sha256 made unimportable the digest comes from hashlib, and
    the output is the same bytes."""
    lean = _run("", *argv, stdin=stdin)
    fallback = _run('sys.modules["_sha256"] = None', *argv, stdin=stdin)
    assert fallback[:2] == lean[:2]
    assert "_hashlib" in fallback[2].decode()
    if importlib.util.find_spec("_sha256") is not None:
        assert "_hashlib" not in lean[2].decode()


@pytest.mark.skipif(importlib.util.find_spec("_sha256") is None,
                    reason="this interpreter has no _sha256 module")
def test_import_loads_no_openssl():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, catrank.cli; print('_hashlib' in sys.modules)"],
        capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout == "False\n"
