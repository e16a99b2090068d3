"""Outside-in tracing of catrank: spans around the calls into each module.

The program has no tracing of its own, so this module replaces the functions
listed in ``LAYERS`` by timing wrappers, from outside.  ``cli`` binds names
with ``from .x import y``, so a wrapper is installed in the defining module
and in every ``catrank`` module that holds the same function object;
otherwise the CLI's calls, or internal ones such as ``chi_L`` calling
``weighting``, would be missed.  Spans are kept in memory and written out
once, when the traced interpreter ends.

Run as a script, it traces one CLI call in a fresh interpreter:

    python3 perfbench/tracer.py SPANS.json -- <catrank arguments>
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time

# module -> traced functions of that module
LAYERS = {
    "cli": ["main"],
    "fincat": ["from_json", "validate", "classify", "opposite", "canonical_json", "_build"],
    "moebius": ["iso_order", "euler_characteristics", "mu_bar2_chains", "omega_bar2",
                "nerve_euler_characteristic"],
    "leinster": ["zeta_matrix", "weighting", "coweighting", "chi_L"],
    "exactq": ["solve_linear", "kernel_basis", "mat_invert"],
    "grouptheory": ["build_group", "closure", "subgroups", "subgroup_classes", "table_of_marks",
                    "fixed_point_count", "nu_matrix", "burnside_check"],
    "orbitcat": ["orbit_category", "gcw_from_json", "verify_omega_relation",
                 "fixed_point_euler"],
    "corpus": ["build"],
}

# generator whose yielded items are counted: (module, function)
COUNTED = ("moebius", "enumerate_chains")

# metric prefix -> (module, lru_cache object whose hits serve that function)
CACHES = {
    "grouptheory.subgroups": ("grouptheory", "_subgroups_cached"),
    "grouptheory.subgroup_classes": ("grouptheory", "_subgroup_classes_cached"),
    "grouptheory.nu_matrix": ("grouptheory", "nu_matrix"),
    "orbitcat.orbit_category": ("orbitcat", "orbit_category"),
}


def _catrank_modules() -> dict:
    import catrank

    mods = {}
    for info in pkgutil.iter_modules(catrank.__path__):
        if info.name != "__main__":  # importing it would run the CLI
            mods[info.name] = importlib.import_module(f"catrank.{info.name}")
    return mods


class Recorder:
    """Span store for one traced interpreter.

    A span is ``[function index, start, end, parent span index]``; the parent
    is the innermost traced call still open when the span started."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self._open: list[int] = []
        self.items = 0
        self._caches: dict[str, tuple] = {}

    def _timed(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [fid, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def _counted(self, fn):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                rec.items += 1
                yield item

        return wrapper

    def install(self) -> None:
        """Wraps every listed function that exists; a function a later version
        of the program no longer has is skipped and reads as never called."""
        mods = _catrank_modules()
        for key, (mod, attr) in CACHES.items():
            cached = getattr(mods.get(mod), attr, None)
            if hasattr(cached, "cache_info"):
                self._caches[key] = (cached, cached.cache_info())
        targets = [(f"{mod}.{fn}", mod, fn, False) for mod, fns in LAYERS.items() for fn in fns]
        targets.append((".".join(COUNTED), *COUNTED, True))
        for name, mod, fn, counted in targets:
            orig = getattr(mods.get(mod), fn, None)
            if not callable(orig):
                continue
            wrapped = self._counted(orig) if counted else self._timed(name, orig)
            for m in mods.values():
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapped)

    def dump(self, path: str) -> None:
        caches = {}
        for key, (cached, before) in self._caches.items():
            after = cached.cache_info()
            caches[key] = [after.hits - before.hits, after.misses - before.misses]
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans, "items": self.items,
                       "caches": caches}, fh)


def _main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <catrank arguments>", file=sys.stderr)
        return 2
    rec = Recorder()
    rec.install()
    import catrank.cli

    rc = 0
    try:
        rc = catrank.cli.main(argv[2:])
    except SystemExit as e:  # argparse exits on a usage error
        rc = e.code if isinstance(e.code, int) else 2
    finally:
        sys.stdout.flush()
        rec.dump(argv[0])
    return rc


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
