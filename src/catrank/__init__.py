"""Exact invariants of finite categories and finite groups.

Subpackages compute Euler characteristics (nerve, functorial, L2, weighting-based),
Moebius inversion matrices over the iso-class poset, orbit categories, tables of
marks and Burnside congruences. All arithmetic is exact rational.

The package body holds what every command needs whatever layer it runs: the
group order cap, the one matrix type, the class table of an EI category
(``IsoPoset``, built by ``fincat.iso_order`` and read by ``moebius``), the
one writer with its one entry formatter (``ratio``), the one memo decorator
(``_once``), and ``_lazy``, which binds a module whose body runs only when
it is first read, so each command compiles only the layers it calls.
"""

import importlib.util
import math
import sys
from collections import namedtuple
from functools import wraps
from itertools import islice
from typing import IO, Iterable

__version__ = "0.1.0"

DEFAULT_CAP = 64  # largest group order accepted unless a caller sets its own cap

_CHUNK = 256  # strings per write of _write


class Rows:
    """A square matrix of rationals held as integers, the form each one is
    computed in: row i is its numerators, a sparse dict {j: p} or a dense
    tuple, over the one denominator dens[i] > 0.  Rows and columns are
    indexed alike, by labels."""

    __slots__ = ("labels", "rows", "dens")

    def __init__(self, labels, rows, dens):
        self.labels = labels
        self.rows = rows
        self.dens = dens

    def get(self, i: int, j: int) -> int:
        """The numerator of entry (i, j), over dens[i]."""
        row = self.rows[i]
        return row.get(j, 0) if type(row) is dict else row[j]

    def __repr__(self) -> str:
        return f"Rows({len(self.rows)}x{len(self.rows)})"


class IsoPoset(namedtuple("IsoPoset", "labels members reps homs acts")):
    """The class table of an EI category, which every class-level invariant
    reads: the iso classes in canonical order, ascending by (longest chain
    strictly below, representative = least-index object), homs[i][j] =
    |hom(rep i, rep j)|, nonzero exactly when class i lies at or below
    class j, and acts[i][t][b]: for t above i and b in A_i = aut(rep i)
    (of order homs[i][i], identity first), the nonempty C(x, b) = {a in
    A_t : a o x = x o b} as positions in A_t, over the first elements x
    (in id order) of the A_t-orbits on hom(rep i, rep t)."""

    __slots__ = ()

    @property
    def size(self) -> int:
        return len(self.labels)

    def __repr__(self) -> str:
        return f"IsoPoset({self.size} classes)"


def ratio(p: int, q: int = 1) -> str:
    """Canonical serialization of p/q, q > 0: "p/q" in lowest terms, "p" if
    q divides p."""
    d = math.gcd(p, q)
    return str(p // d) if d == q else f"{p // d}/{q // d}"


# Decorator: build(x) is computed once per category or group x and kept in
# x's memo under build's name; callers call the decorated build by name.
def _once(build):
    key = build.__name__

    @wraps(build)
    def once(x):
        memo = x._memo
        if key not in memo:
            memo[key] = build(x)
        return memo[key]

    return once


def _lazy(name: str):
    """The module called name, bound now and run at the first read of one
    of its attributes (the ``importlib.util.LazyLoader`` recipe); the module
    in ``sys.modules`` when there is one, so a name never has two modules."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    package, _, child = name.rpartition(".")
    if package:  # as an import binds a submodule
        setattr(sys.modules[package], child, module)
    return module


def _write(out: IO[str], *parts: Iterable[str]) -> None:
    """Write the strings of each part in turn to the text stream out,
    ``_CHUNK`` per write: the package's only write to a stream."""
    pieces = (text for part in parts for text in part)
    for batch in iter(lambda: list(islice(pieces, _CHUNK)), []):
        out.write("".join(batch))
