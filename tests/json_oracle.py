"""Documents by the slow route.

Category documents, the reference for catrank.fincat.canonical_json: the
document as a dict, written by json's two-space indent encoder.
``emitted`` reads the streamed writer back through a StringIO.

Reports, the reference for the report writer of catrank.cli: every matrix
and vector member as the dense lists of the ``str`` of its entries, the
``Fraction`` entries of a ``dense.QMatrix`` or ``dense.QVector`` (``mat``,
``vec``), written by ``json.JSONEncoder.iterencode`` (``report_text``).
``expand_rows`` turns a ``catrank.Rows`` member of a report document into
those lists, through ``Fraction``.  No catrank formatter is used.
"""

import io
import json
from fractions import Fraction

from catrank.fincat import canonical_json

from assembly_oracle import table_of


def to_json(cat) -> dict:
    return {
        "objects": list(cat.objects),
        "morphisms": [
            {"id": m, "dom": cat.objects[cat.dom[m]], "cod": cat.objects[cat.cod[m]]}
            for m in range(cat.n_morphisms)
        ],
        "identities": {str(cat.objects[x]): cat.identity[x] for x in range(cat.n_objects)},
        "composition": [[g, f, c] for (g, f), c in sorted(table_of(cat).items())],
    }


def indent_json(cat) -> str:
    return json.dumps(to_json(cat), indent=2) + "\n"


def emitted(cat) -> str:
    out = io.StringIO()
    canonical_json(cat, out)
    return out.getvalue()


def _label(l) -> str:
    if isinstance(l, tuple):  # subgroup class labels are tuples of elements
        return "(" + ",".join(str(e) for e in l) + ")"
    return str(l)


def vec(v) -> dict:
    return {"labels": [_label(l) for l in v.labels],
            "entries": [str(x) for x in v]}


def mat(m) -> dict:
    return {"row_labels": [_label(l) for l in m.row_labels],
            "col_labels": [_label(l) for l in m.col_labels],
            "entries": [[str(x) for x in m.row(i)] for i in range(m.rows)]}


def expand_rows(rows) -> list:
    """The entry strings of a ``catrank.Rows``, row by row, through dense
    Fraction rows: the ``default`` of ``json.dumps`` for report documents."""
    out = []
    for row, q in zip(rows.rows, rows.dens):
        dense = [Fraction(0)] * len(rows.rows)
        for j, p in (row.items() if isinstance(row, dict) else enumerate(row)):
            dense[j] = Fraction(p, q)
        out.append([str(x) for x in dense])
    return out


def report_text(doc, indent=None) -> str:
    """What json.dump wrote for a report document, and the newline."""
    return "".join(json.JSONEncoder(indent=indent, default=expand_rows).iterencode(doc)) + "\n"
