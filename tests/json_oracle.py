"""Category documents by the slow route, the reference for
catrank.fincat.canonical_json: the document as a dict, written by json's
two-space indent encoder.  ``emitted`` reads the streamed writer back
through a StringIO."""

import io
import json

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
