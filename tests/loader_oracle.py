"""The category loader by the plain route, the reference for
catrank.cli._load_category: ``json.loads`` on the raw bytes, which decodes
them itself, holds them through the parse and makes one int per integer
literal, and hashlib's sha256 for the input stanza."""

import hashlib
import json

from catrank.cli import _read_source
from catrank.fincat import from_json, validate


def load_category(path: str):
    """(report stub, category or None, violations), as cli._load_category."""
    try:
        data, name = _read_source(path)
    except OSError as e:
        return None, None, [{"kind": "unreadable", "detail": str(e)}]
    stub = {"input": {"source": name, "sha256": hashlib.sha256(data).hexdigest()}}
    try:
        doc = json.loads(data)
    except (ValueError, RecursionError) as e:
        return stub, None, [{"kind": "not_json", "detail": str(e)}]
    try:
        cat = from_json(doc)
    except ValueError as e:
        return stub, None, [{"kind": "malformed", "detail": str(e)}]
    violations = validate(cat)
    return stub, (None if violations else cat), violations
