"""Command line front end: validate categories, compute invariants, emit examples.

Every command prints a single JSON document on stdout (indented with --pretty);
validation problems go to stderr as JSON.  Exit codes: 0 success, 1 invalid
input, 2 usage error, 3 internal assertion failure, 141 stdout closed by the
reader.

Each subcommand runs only the modules it reads: they are bound below as
deferred modules (``catrank._lazy``), and a module's body runs at the first
read of one of its names, so a command that stops on a usage or input
error runs less.  Without a bytecode cache (``PYTHONDONTWRITEBYTECODE=1``,
a read-only install) an import compiles the module's source, so a module a
command never reads is never compiled.  One order is kept: a layer compiled
while a document is held adds its compile to the document's peak, so
``_load_category`` reads ``fincat.from_json`` before the document, and the
layers ``euler`` reads after it compile once the document is freed.
``tests/test_cli.py::LAYERS`` lists the modules each command runs.

Every document leaves through ``_emit``, written as ``json.dump`` would
write it.  Exact values reach it in the form the library computes them:
a matrix as a ``catrank.Rows`` (per row the numerators, sparse or dense,
and one denominator), written one row per string, "0" tokens with the
nonzero entries patched in; a vector as numerators over denominators.
Every entry is written by ``catrank.ratio``, in lowest terms, and no
``Fraction`` vector or matrix is built for a report.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

try:  # CPython's own SHA-256: hashlib would load OpenSSL into every run
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

from json.encoder import encode_basestring_ascii

from . import DEFAULT_CAP, Rows, _lazy, _write, ratio

corpus = _lazy("catrank.corpus")
exactq = _lazy("catrank.exactq")
fincat = _lazy("catrank.fincat")
grouptheory = _lazy("catrank.grouptheory")
leinster = _lazy("catrank.leinster")
moebius = _lazy("catrank.moebius")
orbitcat = _lazy("catrank.orbitcat")
random = _lazy("random")  # only equivariant --random draws


def _fmt_label(l) -> str:
    if isinstance(l, tuple):  # subgroup class labels are tuples of elements
        return "(" + ",".join(str(e) for e in l) + ")"
    return str(l)


def _vec(names: list[str], nums, dens) -> dict:
    return {"labels": names, "entries": list(map(ratio, nums, dens))}


def _matrix(m: Rows) -> dict:
    names = [_fmt_label(l) for l in m.labels]
    return {"row_labels": names, "col_labels": names, "entries": m}


def _encode(value, indent, depth=0):
    """The text of ``json.dumps(value, indent=indent)``, met depth levels
    down, in pieces: a dict member by member, the entries of a ``Rows`` one
    row per piece, any other value whole.  A row starts as "0" tokens, and
    its nonzero entries are patched in as "p" or "p/q" in lowest terms."""
    pad = "\n" + " " * (indent * depth) if indent else ""
    inner = "\n" + " " * (indent * (depth + 1)) if indent else ""
    sep = "," + inner if indent else ", "
    if type(value) is Rows:
        if not value.rows:
            yield "[]"
            return
        row_pad = "\n" + " " * (indent * (depth + 2)) if indent else ""
        row_sep = "," + row_pad if indent else ", "
        zeros = ['"0"'] * len(value.rows)
        lead = "[" + inner
        for row, q in zip(value.rows, value.dens):
            cells = zeros.copy()
            for j, p in (row.items() if type(row) is dict else enumerate(row)):
                if p:
                    cells[j] = '"' + ratio(p, q) + '"'
            yield lead + "[" + row_pad + row_sep.join(cells) + inner + "]"
            lead = sep
        yield pad + "]"
    elif type(value) is dict and value:
        lead = "{" + inner
        for key, member in value.items():
            yield lead + encode_basestring_ascii(key) + ": "
            yield from _encode(member, indent, depth + 1)
            lead = sep
        yield pad + "}"
    else:
        text = json.dumps(value, indent=indent)
        yield text.replace("\n", pad) if indent and depth else text


def _emit(doc, stream=None, indent=None) -> None:
    """Writes doc as one line of JSON (or indented) and a newline to stream,
    stdout by default, as ``json.dump`` would, a ``Rows`` member as the
    list of lists of its entry strings.  sys.stdout is looked up at
    call time, so a replaced stdout is honoured.  The pieces of
    ``_encode`` go through ``_write`` in batches, so no copy of the whole
    text is held."""
    _write(sys.stdout if stream is None else stream, _encode(doc, indent), ["\n"])


def _read_source(path: str) -> tuple[bytes, str]:
    if path == "-":
        data = sys.stdin.buffer.read()
        return data, "<stdin>"
    with open(path, "rb") as fh:
        return fh.read(), path


def _input_stanza(data: bytes, name: str) -> dict:
    """The "input" member of a report: the source's name and the SHA-256 of
    its raw bytes, as ``hashlib.sha256(data).hexdigest()`` gives it."""
    return {"source": name, "sha256": sha256(data).hexdigest()}


class _Ints(dict):
    """parse_int for one parse: each distinct integer literal is converted
    once, so its occurrences in the document share one int object."""

    def __missing__(self, literal: str) -> int:
        self[literal] = n = int(literal)
        return n


def _no_constant(name: str):  # parse_constant: NaN, Infinity, -Infinity
    raise ValueError(f"{name} is not a JSON number")


def _read_json(path: str) -> tuple[dict, object, str | None]:
    """(input stanza, document, None) of the JSON file at path, or - for
    stdin; (input stanza, None, reason) when it is not JSON.  Raises OSError
    when the source cannot be read.

    The stanza hashes the raw bytes.  They are then decoded as
    ``json.loads(bytes)`` decodes them (``json.detect_encoding``,
    "surrogatepass") and dropped, so the parse holds the text alone.  The
    text is parsed as ``json.loads`` parses it, except that the ints are
    shared (``_Ints``), NaN and the infinities are refused, and a BOM left
    after decoding is parsed as text, as ``json.loads(bytes)`` does."""
    data, name = _read_source(path)
    stanza = _input_stanza(data, name)
    try:
        text = data.decode(json.detect_encoding(data), "surrogatepass")
        del data
        decoder = json.JSONDecoder(parse_int=_Ints().__getitem__, parse_constant=_no_constant)
        return stanza, decoder.decode(text), None
    except (ValueError, RecursionError) as e:  # RecursionError: nesting deeper than the stack
        return stanza, None, str(e)


def _load_category(path: str):
    """(report stub, category or None, violations) of the category document
    at path, or - for stdin.  The stub is None when the source cannot be
    read; otherwise it holds the input stanza, and the document is read by
    ``_read_json``: not_json when it does not parse, malformed when
    ``from_json`` refuses it, and the ``validate`` violations else."""
    from_json = fincat.from_json  # the engine compiles before the document exists
    try:
        stanza, doc, error = _read_json(path)
    except OSError as e:
        return None, None, [{"kind": "unreadable", "detail": str(e)}]
    stub = {"input": stanza}
    if error is not None:
        return stub, None, [{"kind": "not_json", "detail": error}]
    try:
        cat = from_json(doc)
    except ValueError as e:
        return stub, None, [{"kind": "malformed", "detail": str(e)}]
    violations = fincat.validate(cat)
    return stub, (None if violations else cat), violations


def cmd_validate(args) -> int:
    stub, cat, violations = _load_category(args.path)
    if stub is None:
        _emit({"violations": violations}, sys.stderr)
        return 1
    ok = not violations
    doc = dict(stub)
    doc["valid"] = ok
    if ok:
        doc["objects"] = cat.n_objects
        doc["morphisms"] = cat.n_morphisms
    _emit(doc, indent=args.indent)
    if not ok:
        _emit({"violations": violations}, sys.stderr)
        return 1
    return 0


def cmd_euler(args) -> int:
    stub, cat, violations = _load_category(args.path)
    if cat is None:
        _emit({"violations": violations}, sys.stderr)
        return 1
    rep = fincat.classify(cat)
    invariants: dict = {}
    warnings: list[str] = []

    objects = [str(o) for o in cat.objects]
    w = leinster.weighting(cat)
    if w.consistent:
        invariants["weighting"] = dict(_vec(objects, w.solution, w.dens),
                                       kernel_dim=w.kernel_dim)
    else:
        warnings.append("weighting omitted: the system zeta . k = 1 is inconsistent")
    cw = leinster.coweighting(cat)
    if cw.consistent:
        invariants["coweighting"] = dict(_vec(objects, cw.solution, cw.dens),
                                         kernel_dim=cw.kernel_dim)
    else:
        warnings.append("coweighting omitted: the system zeta . k = 1 on the opposite is inconsistent")
    chi = leinster.chi_L(cat)
    invariants["chi_L"] = exactq.rat_str(chi) if chi != "undefined" else "undefined"

    if rep.is_ei:
        # omega_bar2 and mu_bar2 as integer rows over |aut rep i|, the
        # diagonal of the class table: no fraction is formed
        table = fincat.iso_order(cat)
        er = moebius.euler_characteristics(table)
        names = [_fmt_label(l) for l in er.labels]
        invariants["chi_f"] = {"labels": names, "entries": [str(n) for n in er.orbits]}
        invariants["chi"] = str(er.chi)
        invariants["chi_f2"] = _vec(names, er.fixed, er.sizes)
        invariants["chi2"] = exactq.rat_str(er.chi2)
        invariants["omega_bar2"] = _matrix(moebius.omega_bar2(table))
        invariants["mu_bar2"] = _matrix(er.mu_bar2)
    else:
        for name in ("chi_f", "chi", "chi_f2", "chi2", "omega_bar2", "mu_bar2"):
            warnings.append(f"{name} omitted: not an EI category")

    # With identities as the only endomorphisms, a cycle of nonidentity
    # morphisms is a pair of inverse isomorphisms between distinct objects.
    # Without one, the classes are single objects and the class chains that
    # chi sums are the nondegenerate simplices of the nerve.
    if not rep.has_trivial_endomorphisms:
        warnings.append("chi_nerve omitted: nontrivial endomorphism")
    elif rep.is_skeletal:
        invariants["chi_nerve"] = invariants["chi"]
    else:
        warnings.append("chi_nerve omitted: nonidentity morphisms form a cycle")

    doc = dict(stub)
    doc["predicates"] = rep.flags()
    doc["invariants"] = invariants
    doc["warnings"] = warnings
    _emit(doc, indent=args.indent)
    return 0


def _error(message: str, code: int) -> int:
    _emit({"error": message}, sys.stderr)
    return code


def _violation(kind: str, detail: str) -> int:
    _emit({"violations": [{"kind": kind, "detail": detail}]}, sys.stderr)
    return 1


def _group_arg(spec: str, cap: int):
    """(build_group(spec, cap), 0), or (None, exit code) once the reason is
    reported: 1 above the cap, 2 for a malformed spec."""
    try:
        return grouptheory.build_group(spec, cap), 0
    except grouptheory.CapExceeded as e:
        return None, _error(str(e), 1)
    except (ValueError, RecursionError) as e:
        return None, _error(str(e), 2)


def cmd_group(args) -> int:
    g, code = _group_arg(args.group, args.cap)
    if g is None:
        return code
    if args.group_cmd == "orbitcat":
        # raw category document so the output pipes into euler/validate
        fincat.canonical_json(fincat.orbit_category(g), sys.stdout)
        return 0
    classes = grouptheory.subgroup_classes(g)
    doc = {"input": _input_stanza(args.group.encode(), args.group), "group_order": g.order}
    doc["classes"] = names = [_fmt_label(c.label) for c in classes]
    moduli = [c.weyl_order for c in classes]

    if args.group_cmd == "marks":
        doc["invariants"] = {"marks": _matrix(grouptheory.table_of_marks(g).matrix),
                             "weyl_orders": moduli}
    elif args.group_cmd == "nu":
        doc["invariants"] = {"nu": _matrix(grouptheory.nu_matrix(g)), "moduli": moduli}
    elif args.group_cmd == "burnside":
        try:
            xi = [int(s) for s in args.xi.split(",")]
        except ValueError:
            return _error(f"malformed xi: {args.xi!r}", 2)
        try:
            image, satisfied = grouptheory.burnside_congruences(g, xi)
        except ValueError as e:
            return _error(str(e), 2)
        doc["invariants"] = {"burnside": {
            "xi": xi,
            "nu_xi": [str(v) for v in image],
            "moduli": moduli,
            "satisfied": satisfied,
        }}
    _emit(doc, indent=args.indent)
    return 0


def cmd_equivariant(args) -> int:
    if args.path is not None and args.random is not None:
        return _error("equivariant takes a path or --random <group>, not both", 2)
    if args.cells < 0:
        return _error(f"--cells must be nonnegative, got {args.cells}", 2)
    if args.random is not None:
        g, code = _group_arg(args.random, args.cap)
        if g is None:
            return code
        rng = random.Random(args.seed)
        classes = grouptheory.subgroup_classes(g)
        census = [{"dim": rng.randrange(0, 4),
                   "stabilizer": sorted(rng.choice(classes).representative)}
                  for _ in range(args.cells)]
        doc_in = {"group": args.random, "cells": census}
        stanza = _input_stanza(json.dumps(doc_in, sort_keys=True).encode(),
                               f"<random seed={args.seed}>")
        x = orbitcat.GCWComplex(g, [(c["dim"], c["stabilizer"]) for c in census])
    else:
        if args.path is None:
            return _error("equivariant needs a path or --random <group>", 2)
        try:
            stanza, doc_in, error = _read_json(args.path)
        except OSError as e:
            return _violation("unreadable", str(e))
        if error is not None:
            return _violation("malformed", error)
        try:
            x = orbitcat.gcw_from_json(doc_in, args.cap)
        except grouptheory.CapExceeded as e:
            return _error(str(e), 1)
        except (ValueError, RecursionError) as e:
            return _violation("malformed", str(e))
    ok, lhs, rhs = orbitcat.verify_omega_relation(x)
    labels = [_fmt_label(c.label) for c in x.classes]
    doc = {"input": stanza, "group_order": x.group.order,
           "classes": labels, "cells": len(x.cells)}
    if args.random is not None:
        doc["census"] = census
    doc["invariants"] = {
        "chi_G": {"labels": labels, "entries": [str(c) for c in orbitcat.chi_G(x)]},
        # the fixed-point Euler characteristics are the right side's numerators
        "fixed_point_euler": {"labels": labels, "entries": rhs[0]},
        "omega_relation": {
            "lhs": list(map(ratio, *lhs)),
            "rhs": list(map(ratio, *rhs)),
            "holds": ok,
        },
    }
    _emit(doc, indent=args.indent)
    return 0


def cmd_examples(args) -> int:
    if args.examples_cmd == "list":
        _emit({"examples": corpus.names()}, indent=args.indent)
        return 0
    try:
        cat = corpus.build(args.name, q=args.q)
    except ValueError as e:
        return _error(str(e), 2)
    fincat.canonical_json(cat, sys.stdout)
    return 0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="catrank",
                                description="Exact Euler characteristics and "
                                            "Moebius inversion for finite categories.")
    p.add_argument("--pretty", action="store_const", const=2, dest="indent",
                   help="indent the JSON output")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                   help="largest group order accepted by every group subcommand, "
                        "symmetric:n included; catrank's only limit "
                        f"(default {DEFAULT_CAP})")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for randomized subcommands")
    sub = p.add_subparsers(dest="cmd", required=True)

    v = sub.add_parser("validate", help="check a category document")
    v.add_argument("path", help="category JSON file, or - for stdin")
    v.set_defaults(fn=cmd_validate)

    e = sub.add_parser("euler", help="compute every applicable invariant")
    e.add_argument("path", help="category JSON file, or - for stdin")
    e.set_defaults(fn=cmd_euler)

    gp = sub.add_parser("group", help="finite group computations")
    gsub = gp.add_subparsers(dest="group_cmd", required=True)
    for name, brief in (("marks", "table of marks"),
                        ("nu", "integral congruence matrix"),
                        ("burnside", "check Burnside congruences for a tuple"),
                        ("orbitcat", "emit the orbit category as category JSON")):
        gs = gsub.add_parser(name, help=brief)
        gs.add_argument("group", help="group spec, e.g. cyclic:5, sym:3, dihedral:4")
        if name == "burnside":
            gs.add_argument("--xi", required=True,
                            help="comma-separated integers, one per subgroup class")
        gs.set_defaults(fn=cmd_group)
    geq = gsub.add_parser("equivariant", help="invariants of an equivariant cell census")
    geq.add_argument("path", nargs="?", default=None,
                     help="cell complex JSON file, or - for stdin")
    geq.add_argument("--random", metavar="GROUP", default=None,
                     help="generate a random census for this group instead "
                          "(deterministic for a given --seed)")
    geq.add_argument("--cells", type=int, default=6,
                     help="cell count for --random, nonnegative (default 6)")
    geq.set_defaults(fn=cmd_equivariant, group_cmd="equivariant")

    ex = sub.add_parser("examples", help="list or emit bundled example categories")
    esub = ex.add_subparsers(dest="examples_cmd", required=True)
    esub.add_parser("list", help="names of all bundled examples").set_defaults(fn=cmd_examples)
    em = esub.add_parser("emit", help="print one example as category JSON")
    em.add_argument("name")
    em.add_argument("--q", type=int, default=1, help="size parameter for subsets-q")
    em.set_defaults(fn=cmd_examples)

    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.cmd == "group" and args.cap < 1:
        return _error(f"--cap must be positive, got {args.cap}", 2)
    # the parser's actions point back at their containers: free that cycle
    # first, or the command's compiles and input land on top of it and raise
    # the peak; it is young, so generation 1 holds it at a tenth of a full
    # collection
    gc.collect(1)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout is met here, not at exit
        return code
    except AssertionError as e:
        _emit({"error": "internal assertion failed", "detail": str(e)}, sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader closed stdout (catrank ... | head): point fd 1 at devnull
        # so the flush at exit cannot raise again, and exit as a writer
        # killed by SIGPIPE would (128 + 13)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
