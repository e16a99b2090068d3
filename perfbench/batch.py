"""The library-batch workload: one interpreter that uses catrank as a user
script would, calling the public API for several rounds over a few groups.

Rounds after the first are where the library's ``lru_cache``s get hits; every
CLI call starts cold.  The seed drives the Burnside vectors and the cell
censuses.  Prints one JSON report of every call's result, which the
benchmark checks:

    python3 perfbench/batch.py --seed N [--spans SPANS.json]
"""

from __future__ import annotations

import argparse
import json
import random

from checks import mark_vector

GROUPS = ("symmetric:4", "dihedral:8", "product:cyclic:2+cyclic:2+cyclic:2+cyclic:2",
          "product:cyclic:2+symmetric:3")
ROUNDS = 3
CELLS = 40
CALLS_PER_GROUP = 4  # marks, two Burnside checks, omega relation
CALLS = ROUNDS * len(GROUPS) * CALLS_PER_GROUP


def _label(cls) -> str:
    return "(" + ",".join(str(e) for e in cls.label) + ")"


def run(seed: int) -> list[dict]:
    from catrank.grouptheory import build_group, burnside_check, subgroup_classes, table_of_marks
    from catrank.orbitcat import gcw_from_json, verify_omega_relation

    results = []
    for rnd in range(ROUNDS):
        for spec in GROUPS:
            rng = random.Random(f"{seed}/{rnd}/{spec}")
            where = {"group": spec, "round": rnd}
            g = build_group(spec)
            classes = subgroup_classes(g)
            tom = table_of_marks(g).matrix
            n = len(classes)
            marks = [[int(tom.get(i, j)) for j in range(n)] for i in range(n)]
            results.append(dict(where, kind="marks", doc={
                "group_order": g.order,
                "classes": [_label(c) for c in classes],
                "invariants": {"marks": {"entries": [[str(v) for v in row] for row in marks]},
                               "weyl_orders": [c.weyl_order for c in classes]},
            }))
            coeffs = [rng.randrange(3) for _ in classes]
            for perturb in (False, True):
                xi = mark_vector(marks, coeffs, perturb)
                results.append(dict(where, kind="burnside", satisfied=burnside_check(g, xi),
                                    expect=not perturb))
            census = {"group": spec, "cells": [
                {"dim": rng.randrange(4), "stabilizer": sorted(rng.choice(classes).representative)}
                for _ in range(CELLS)]}
            holds, _, _ = verify_omega_relation(gcw_from_json(census))
            results.append(dict(where, kind="omega", holds=holds))
    return results


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spans", default=None, help="trace the calls and write spans here")
    args = p.parse_args()
    rec = None
    if args.spans:
        from tracer import Recorder

        rec = Recorder()
        rec.install()
    try:
        results = run(args.seed)
    finally:
        if rec:
            rec.dump(args.spans)
    print(json.dumps({"seed": args.seed, "results": results}))


if __name__ == "__main__":
    main()
