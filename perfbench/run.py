"""catrank benchmark: four workloads through the real CLI and the library API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the code under test is the checkout's
``src/catrank``, run in fresh interpreters (``python -m catrank``), one child
process at a time.  Every operation's output is checked (see ``checks.py``);
a failed check counts in ``failed`` and the run reports ``correct: false``.

--trace 0 measures the end-to-end metrics: the workload's operation list is
repeated while another repetition fits in ``--seconds`` (at least once), and
each metric is the median over repetitions:

    wall_s       wall time of one repetition, summed over its child processes
    cpu_s        user + system CPU time of those children (from ``os.wait4``)
    peak_rss_mb  largest ``ru_maxrss`` of a single child in the repetition, MiB
    setup_s      median cold start of a fresh interpreter up to a ready catrank

--trace 1 runs the list once untraced and once traced (``tracer.py``) and
reports per-module calls, inclusive and self time, counts and cache hit ratios,
plus the tracing overhead.  The last stdout line is the JSON result.

The seed drives the census and Burnside vector of group-cli and the vectors and
censuses of library-batch.  The euler-* workloads are deterministic by
construction: their inputs are fixed documents, pinned by sha256.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import checks
import tracer
from batch import CALLS as BATCH_CALLS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS_FILE = HERE / "pins.json"
RUN_LIMIT_S = 170  # a run must end within 180 s; stop starting work after this
SETUP_PROBES = 7

C2_4 = "product:cyclic:2+cyclic:2+cyclic:2+cyclic:2"

WORKLOADS = {
    "euler-orbit": "catrank euler on Or(S4), Or(D8), Or(C2^4): Weyl-group automorphisms make "
                   "the chain pass orbit-bound; inputs emitted untimed and pinned",
    "euler-poset": "catrank euler on subsets-q 4, 5, 6: trivial automorphisms, so chain count "
                   "and the exact weighting solve dominate; inputs emitted untimed and pinned",
    "group-cli": "cold subgroup lattices via the CLI: marks S5 (--cap 120), nu S4 and C2^4, "
                 "orbitcat C2^4, seeded equivariant census and Burnside vector",
    "library-batch": "one interpreter calling the group API for 3 rounds over 4 groups, so the "
                     "library's lru_caches get hits that cold CLI calls never see",
}


def _op(name, argv, check, stdin=None, save=None, pinned=True, **kw) -> dict:
    """One operation: a catrank CLI call (``argv``) or a Python command line
    (``script``).  ``stdin``/``save`` name files in the work directory; a
    pinned op's stdout must match the digest recorded for its name."""
    return dict(name=name, argv=argv, check=check, stdin=stdin, save=save, pinned=pinned, **kw)


def build_workload(name: str, seed: int, pins: dict) -> tuple[list, list, dict]:
    """Returns (untimed preparation ops, timed ops, setup probe op)."""
    probe = _op("examples list", ["examples", "list"], "pin")
    prep: list[dict] = []
    ops: list[dict] = []
    if name == "euler-orbit":
        for spec in ("symmetric:4", "dihedral:4", C2_4):
            doc = f"Or({spec}).json"
            prep.append(_op(f"emit Or({spec})", ["group", "orbitcat", spec], "pin", save=doc))
            ops.append(_op(f"euler Or({spec})", ["euler", "-"], "euler", stdin=doc, nerve=False))
    elif name == "euler-poset":
        for q in (4, 5, 6):
            doc = f"subsets-q-{q}.json"
            prep.append(_op(f"emit subsets-q {q}", ["examples", "emit", "subsets-q", "--q", str(q)],
                            "pin", save=doc))
            ops.append(_op(f"euler subsets-q {q}", ["euler", "-"], "euler", stdin=doc, nerve=True))
    elif name == "group-cli":
        rng = random.Random(seed)
        marks = pins["s4_marks"]
        perturb = rng.random() < 0.5
        xi = checks.mark_vector(marks, [rng.randrange(3) for _ in marks], perturb)
        ops = [
            _op("marks symmetric:5", ["--cap", "120", "group", "marks", "symmetric:5"], "marks"),
            _op("nu symmetric:4", ["group", "nu", "symmetric:4"], "nu"),
            _op("nu C2^4", ["group", "nu", C2_4], "nu"),
            _op("orbitcat C2^4", ["group", "orbitcat", C2_4], "orbitcat", objects=67),
            _op("equivariant dihedral:8", ["--seed", str(seed), "group", "equivariant",
                                           "--random", "dihedral:8", "--cells", "200"],
                "equivariant", pinned=False, cells=200),
            _op("burnside symmetric:4", ["group", "burnside", "symmetric:4",
                                         "--xi", ",".join(map(str, xi))],
                "burnside", pinned=False, xi=xi, expect=not perturb),
        ]
    elif name == "library-batch":
        probe = _op("import catrank", None, "pin",
                    script=["-c", "import catrank.grouptheory, catrank.orbitcat"])
        ops = [_op("library batch", None, "batch", pinned=False,
                   script=[str(HERE / "batch.py"), "--seed", str(seed)],
                   calls=BATCH_CALLS, marks_digests=pins["batch_marks"])]
    else:
        raise ValueError(name)
    for op in [probe] + prep + ops:
        if op["pinned"]:
            op["digest"] = pins["digests"].get(op["name"], "not recorded")
    return prep, ops, probe


class Runner:
    """Runs ops as child processes in ``work`` and checks each one."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.tally = checks.Tally()
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self._n = 0

    def command(self, op: dict, spans: str | None) -> list[str]:
        if op.get("script"):
            cmd = [sys.executable, *op["script"]]
            return cmd + ["--spans", spans] if spans else cmd
        if spans:
            return [sys.executable, str(HERE / "tracer.py"), spans, "--", *op["argv"]]
        return [sys.executable, "-m", "catrank", *op["argv"]]

    def _spawn(self, cmd: list[str], stdin, out: Path) -> tuple[int, float, float, float]:
        """Runs one child to its end; returns (exit code, wall s, CPU s, peak RSS MiB)."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("run time limit reached")
        with open(stdin, "rb") as fi, open(out, "wb") as fo, \
                open(self.work / "stderr", "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=fi, stdout=fo, stderr=fe, env=self.env, cwd=ROOT)
            lock, done = threading.Lock(), [False]

            def kill():
                with lock:
                    if not done[0]:
                        os.kill(proc.pid, signal.SIGKILL)

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
                with lock:
                    done[0] = True
            finally:
                timer.cancel()
                timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024

    def run(self, op: dict, spans: str | None = None) -> tuple[float, float, float]:
        """Runs and checks one op; returns (wall s, CPU s, peak RSS MiB)."""
        self._n += 1
        out = self.work / (op["save"] or f"out-{self._n}")
        stdin = self.work / op["stdin"] if op["stdin"] else os.devnull
        rc, wall, cpu, rss = self._spawn(self.command(op, spans), stdin, out)
        if not self.tally.record(op, rc, out.read_bytes()):
            tail = (self.work / "stderr").read_text(errors="replace").strip().splitlines()[-1:]
            print(f"FAILED {op['name']} (exit {rc}) {tail}", file=sys.stderr)
        if not op["save"]:
            out.unlink()
        return wall, cpu, rss

    def repetition(self, ops: list, span_dir: Path | None = None) -> dict:
        """Runs the op list once; with ``span_dir``, traced."""
        walls, cpus, rss, spans = [], [], [], []
        for i, op in enumerate(ops):
            path = str(span_dir / f"spans-{self._n}-{i}.json") if span_dir else None
            w, c, r = self.run(op, path)
            walls.append(w)
            cpus.append(c)
            rss.append(r)
            if path:
                spans.append(path)
        return {"wall_s": sum(walls), "cpu_s": sum(cpus), "peak_rss_mb": max(rss),
                "spans": spans}


def layer_metrics(span_files: list[str]) -> dict[str, tuple[float, str]]:
    """Per-function calls, inclusive time (outermost calls only) and self time
    (span minus its direct child spans), per-module self time, the chain count
    and the cache hit ratios, summed over every traced interpreter."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_t: dict[str, float] = {}
    items = 0
    cache = {key: [0, 0] for key in tracer.CACHES}
    for path in span_files:
        with open(path) as fh:
            rec = json.load(fh)
        names, spans = rec["names"], rec["spans"]
        items += rec["items"]
        for key, (hits, misses) in rec["caches"].items():
            cache[key][0] += hits
            cache[key][1] += misses
        child = [0.0] * len(spans)
        for fid, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for idx, (fid, t0, t1, parent) in enumerate(spans):
            name = names[fid]
            calls[name] = calls.get(name, 0) + 1
            self_t[name] = self_t.get(name, 0.0) + (t1 - t0) - child[idx]
            while parent >= 0 and spans[parent][0] != fid:
                parent = spans[parent][3]
            if parent < 0:
                total[name] = total.get(name, 0.0) + (t1 - t0)
    out: dict[str, tuple[float, str]] = {}
    for mod, fns in tracer.LAYERS.items():
        for fn in fns:
            name = f"{mod}.{fn}"
            out[f"{name}.calls"] = (calls.get(name, 0), "count")
            out[f"{name}.total_s"] = (total.get(name, 0.0), "s")
            out[f"{name}.self_s"] = (self_t.get(name, 0.0), "s")
        out[f"{mod}.self_s"] = (sum(self_t.get(f"{mod}.{fn}", 0.0) for fn in fns), "s")
    out[".".join(tracer.COUNTED) + ".items"] = (items, "count")
    for key, (hits, misses) in cache.items():
        out[f"{key}.cache_hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0,
                                         "ratio")
    return out


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "catrank" / "cli.py").is_file() or not PINS_FILE.is_file():
        print(f"no catrank source under {ROOT / 'src'}: run from a checkout", file=sys.stderr)
        return 2
    start = time.monotonic()
    pins = json.loads(PINS_FILE.read_text())
    prep, ops, probe = build_workload(args.workload, args.seed, pins)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        runner = Runner(Path(tmp), start + RUN_LIMIT_S)
        try:
            for op in prep:
                runner.run(op)
            if args.trace:
                metrics, summary = traced(runner, ops, Path(tmp))
            else:
                metrics, summary = untraced(runner, ops, probe, args.seconds)
        except TimeoutError as e:
            print(f"stopped early: {e}", file=sys.stderr)
            return 1
    tally = runner.tally
    print(f"workload {args.workload} seed {args.seed} "
          f"({'deterministic inputs' if args.workload.startswith('euler') else 'seeded inputs'})")
    print(summary)
    print(f"fail_ratio {tally.failed}/{tally.attempted}" + "".join(
        f"\n  {r}" for r in tally.reasons))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def untraced(runner: Runner, ops: list, probe: dict, seconds: float):
    runner.run(probe)  # warm the bytecode cache before timing cold starts
    setup = [runner.run(probe)[0] for _ in range(SETUP_PROBES)]
    reps = []
    t0 = time.monotonic()
    while True:
        reps.append(runner.repetition(ops))
        per_rep = (time.monotonic() - t0) / len(reps)
        if time.monotonic() - t0 + per_rep > seconds or \
                time.monotonic() + 1.5 * per_rep > runner.deadline:
            break
    lines = [f"{len(reps)} repetitions of {len(ops)} ops; median [q1, q3]:"]
    metrics = {}
    for key, unit, xs in (("wall_s", "s", [r["wall_s"] for r in reps]),
                          ("cpu_s", "s", [r["cpu_s"] for r in reps]),
                          ("peak_rss_mb", "MiB", [r["peak_rss_mb"] for r in reps]),
                          ("setup_s", "s", setup)):
        q1, med, q3 = _quartiles(xs)
        metrics[key] = (med, unit)
        lines.append(f"  {key} {med:.4f} [{q1:.4f}, {q3:.4f}] {unit}")
    return metrics, "\n".join(lines)


def traced(runner: Runner, ops: list, tmp: Path):
    plain = runner.repetition(ops)
    rep = runner.repetition(ops, span_dir=tmp)
    metrics = layer_metrics(rep["spans"])
    metrics["trace.wall_s"] = (rep["wall_s"], "s")
    metrics["trace.untraced_wall_s"] = (plain["wall_s"], "s")
    metrics["trace.overhead_s"] = (rep["wall_s"] - plain["wall_s"], "s")
    lines = [f"traced wall {rep['wall_s']:.4f} s, untraced {plain['wall_s']:.4f} s"]
    lines += [f"  {k} {v:.6g} {u}" for k, (v, u) in metrics.items() if v]
    return metrics, "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
