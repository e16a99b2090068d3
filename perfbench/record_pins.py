"""Records ``pins.json``: the digests of the benchmark's generated inputs and
of every output that does not depend on the seed, the S4 table of marks the
Burnside vectors are built from, and the library-batch marks digests.

    python3 perfbench/record_pins.py

Run it only at a commit whose outputs are known to be right: the benchmark
then fails any later commit whose bytes differ.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from checks import sha256
from run import HERE, PINS_FILE, ROOT, WORKLOADS, build_workload

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")


def _run(cmd: list[str], stdin: Path | None = None) -> bytes:
    with open(stdin or os.devnull, "rb") as fi:
        return subprocess.run(cmd, stdin=fi, stdout=subprocess.PIPE, env=ENV, cwd=ROOT,
                              check=True).stdout


def main() -> None:
    marks = json.loads(_run([sys.executable, "-m", "catrank", "group", "marks", "symmetric:4"]))
    pins = {"s4_marks": [[int(v) for v in row] for row in marks["invariants"]["marks"]["entries"]],
            "digests": {}, "batch_marks": {}}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        for name in sorted(WORKLOADS):
            prep, ops, probe = build_workload(name, 0, pins)
            for op in [probe] + prep + ops:
                if op.get("script"):
                    out = _run([sys.executable, *op["script"]])
                else:
                    out = _run([sys.executable, "-m", "catrank", *op["argv"]],
                               Path(tmp) / op["stdin"] if op["stdin"] else None)
                if op["save"]:
                    (Path(tmp) / op["save"]).write_bytes(out)
                if op["pinned"]:
                    pins["digests"][op["name"]] = sha256(out)
    report = json.loads(_run([sys.executable, str(HERE / "batch.py"), "--seed", "0"]))
    for rec in report["results"]:
        if rec["kind"] == "marks":
            pins["batch_marks"][rec["group"]] = sha256(
                json.dumps(rec["doc"], sort_keys=True).encode())
    PINS_FILE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
