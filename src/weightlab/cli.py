"""Command-line interface.

Subcommands:
  maximal   compute a maximal-function field on a stored grid function
  constant  evaluate a weight-class constant over a cube family
  cz        stopping-cube decomposition of a grid function
  verify    run reproduction suites (prop41 | prop42 | prop43 | theorems | all)
  probe-rh  exponent-lowering / reverse-Holder identity probe

Grid functions are stored as JSON {"box": [lo, hi] or [[lo..], [hi..]],
"values": [...]}; weights, matrices, and families use their own JSON forms
from funcspace.  Reports are deterministic JSON (see report.py); exit code 0
means every requested check passed, 1 a failed suite, 2 bad arguments.
"""

from __future__ import annotations

import argparse
import functools
import math
import operator
import struct
import sys

import numpy as np

from .funcspace import (
    CubeFamily,
    DomainError,
    GridFunction,
    SquareMatrix,
    EXP_ABS,
    LEBESGUE,
    _as_dict,
    load_family,
    load_grid,
    load_matrix,
    load_weight,
)
from .maximal import (
    check_alpha,
    dyadic_maximal,
    fractional_maximal,
    hl_maximal,
    matrix_compose,
    orlicz_maximal,
)
from .weightclass import ClassSpec, class_constant, rh_inclusion_check
from .czlab import check_a, cz_decompose, ekj_expansion_check, root_level
from .young import YoungFn
from .report import SCHEMA, canonical_json, write_report
from .suites import run_suites

_CLASS_TOKENS = {
    "ap": "Ap", "aap": "AAp", "aa1": "AA1", "bump": "bump",
    "frac": "frac", "frac_bump": "frac_bump", "rh": "RH", "ap_mu": "Ap_mu",
}
_MEASURE_TOKENS = {"lebesgue": LEBESGUE, "exp": EXP_ABS}


def _load_matrix_arg(arg: str, dim: int = 1) -> SquareMatrix:
    """A number is that multiple of the identity; any other token is the
    path of a matrix JSON."""
    try:
        lam = float(arg)
    except ValueError:
        return load_matrix(arg)
    return SquareMatrix.scalar(lam, dim)


def _family_arg(path, w) -> CubeFamily:
    """The family JSON at path, else the central half of w's support."""
    if path:
        return load_family(path)
    lo, hi = w.support
    span = hi - lo
    return CubeFamily((lo + 0.25 * span, hi - 0.25 * span),
                      levels=(0, 5), shifts=2)


class _Tails(dict):
    """The tails "value,in_domain" of the field CSV's rows for one in_domain
    flag, keyed on the bit pattern of the value, so -0.0 and +0.0 keep their
    own reprs.  Each is formatted at its first use."""

    def __init__(self, flag: int):
        super().__init__()
        self.flag = flag

    def __missing__(self, bits: int) -> str:
        value, = struct.unpack("<d", struct.pack("<q", bits))
        tail = self[bits] = f"{value!r},{self.flag}\n"
        return tail


def _dump_field_csv(path: str, g: GridFunction) -> None:
    # one row per cell, floats as their shortest round-trip repr.  Each
    # coordinate is formatted once.  A 2D grid goes out one write per grid
    # row, so no string of the whole file is ever held, and each of its
    # distinct values is formatted once per flag (``_Tails``): a composed
    # field repeats its plateaus' values over many cells, and often whole
    # rows, whose cells a row equal to the previous one in value bits and
    # mask takes over as they are.
    xs = [repr(x) for x in g.cell_centers(0).tolist()]
    with open(path, "w") as fh:
        if g.dim == 1:
            fh.write("x,value,in_domain\n")
            fh.writelines(f"{x},{v!r},{int(m)}\n" for x, v, m in
                          zip(xs, g.values.tolist(), g.mask.tolist()))
            return
        fh.write("x,y,value,in_domain\n")
        ys = [f",{y!r}," for y in g.cell_centers(1).tolist()]
        tails = (_Tails(0), _Tails(1))
        bits = np.ascontiguousarray(g.values).view(np.int64)
        again = np.zeros(len(bits), dtype=bool)
        again[1:] = ((bits[1:] == bits[:-1]).all(axis=1)
                     & (g.mask[1:] == g.mask[:-1]).all(axis=1))
        for x, brow, mrow, same in zip(xs, bits, g.mask, again.tolist()):
            if not same:
                brow = brow.tolist()
                if mrow.all():
                    row = map(tails[1].__getitem__, brow)
                else:
                    row = [tails[m][k] for k, m in zip(brow, mrow.tolist())]
                # each cell's line is x + ys[j] + its tail
                cells = list(map(operator.add, ys, row))
            fh.write(x + x.join(cells))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_maximal(args) -> int:
    f = load_grid(args.input)
    if args.operator == "hl":
        field = hl_maximal(f, lengths=args.lengths)
    elif args.operator == "fractional":
        field = fractional_maximal(f, args.alpha, lengths=args.lengths)
    elif args.operator == "dyadic":
        field = dyadic_maximal(f)
    elif args.operator == "orlicz":
        if not args.phi:
            raise ValueError("--phi is required for the orlicz operator")
        phi = YoungFn.from_json_dict(_as_dict(args.phi))
        field = orlicz_maximal(f, phi, alpha=args.alpha, lengths=args.lengths)
    else:
        raise ValueError(f"unknown operator {args.operator!r}")
    if args.matrix:
        A = _load_matrix_arg(args.matrix, field.dim)
        field = matrix_compose(field, A)
    if args.out:
        _dump_field_csv(args.out, field)
    idx = np.unravel_index(int(np.argmax(field.values)), field.shape)
    center = [float(field.lo[d] + (idx[d] + 0.5) * field.h[d])
              for d in range(field.dim)]
    doc = {
        "schema": SCHEMA,
        "command": "maximal",
        "operator": args.operator,
        "alpha": args.alpha,
        "cells": list(field.shape),
        "max_value": float(field.values.max()),
        "argmax_center": center,
        "csv": args.out or None,
    }
    sys.stdout.write(canonical_json(doc))
    return 0


def _cmd_constant(args) -> int:
    w = load_weight(args.weight)
    kind = _CLASS_TOKENS[args.klass]
    phi = None
    if args.phi:
        phi = YoungFn.from_json_dict(_as_dict(args.phi))
    A = _load_matrix_arg(args.matrix) if args.matrix else None
    spec = ClassSpec(kind, p=args.p, q=args.q, s=args.s, A=A, phi=phi,
                     measure=_MEASURE_TOKENS[args.measure])
    family = _family_arg(args.family, w)
    rep = class_constant(w, spec, family, n_cells=args.n_cells)
    doc = {"schema": SCHEMA, "command": "constant", **rep.to_json_dict()}
    if args.out:
        write_report(args.out, doc)
    sys.stdout.write(canonical_json(doc))
    if math.isnan(rep.value):
        sys.stderr.write(f"FAIL constant: {rep.witness}\n")
        return 1
    return 0


def _auto_k_range(f: GridFunction, a: float, alpha: float):
    k_low = root_level(f, a, alpha)
    top = float(f.values.max()) * (f.hi[0] - f.lo[0]) ** alpha
    if not math.isfinite(top):
        raise ValueError("grid values overflow the automatic k range")
    k_hi = k_low
    while a ** k_hi / 4 ** f.dim <= top and k_hi - k_low < 60:
        k_hi += 1
    return range(k_low, k_hi + 1)


def _cmd_cz(args) -> int:
    f = load_grid(args.input)
    check_alpha(args.alpha, f.dim)
    check_a(args.a, f.dim)
    if (args.kmin is None) != (args.kmax is None):
        raise ValueError("pass both --kmin and --kmax, or neither")
    if args.kmin is None:
        ks = _auto_k_range(f, args.a, args.alpha)
    elif args.kmin <= args.kmax:
        ks = range(args.kmin, args.kmax + 1)
    else:
        raise ValueError(f"--kmin {args.kmin} exceeds --kmax {args.kmax}")
    dec = cz_decompose(f, args.a, ks, alpha=args.alpha)
    ek = ekj_expansion_check(dec)
    doc = {
        "schema": SCHEMA,
        "command": "cz",
        "a": args.a,
        "alpha": args.alpha,
        "k_range": [min(ks), max(ks)],
        "levels": [
            {"k": k,
             "cubes": [{"corner": list(c.cube.corner), "side": c.cube.side,
                        "average": c.average, "value": c.value}
                       for c in dec.cubes[k]]}
            for k in dec.ks
        ],
        "expansion": {"beta": ek["beta"], "disjoint": ek["disjoint"],
                      "cubes_checked": ek["cubes_checked"]},
    }
    if args.out:
        write_report(args.out, doc)
    sys.stdout.write(canonical_json(doc))
    return 0


def _cmd_verify(args) -> int:
    names = ["prop41", "prop42", "prop43", "theorems"] \
        if args.suite == "all" else [args.suite]
    results = run_suites(names, p=args.p)
    doc = {"schema": SCHEMA, "command": "verify",
           "suites": [r.to_json_dict() for r in results],
           "passed": all(r.passed for r in results)}
    if args.out:
        write_report(args.out, doc)
    for r in results:
        sys.stdout.write(r.render() + "\n")
    failed = [(r.suite, name) for r in results for name in r.failing()]
    if failed:
        for suite, name in failed:
            sys.stderr.write(f"FAIL {suite}: check {name!r} did not pass\n")
        return 1
    return 0


def _cmd_probe_rh(args) -> int:
    w = load_weight(args.weight)
    A = _load_matrix_arg(args.matrix) if args.matrix else SquareMatrix.scalar(1.0)
    family = _family_arg(args.family, w)
    res = rh_inclusion_check(w, A, args.p, args.eps, family)
    doc = {"schema": SCHEMA, "command": "probe-rh", **res}
    if args.out:
        write_report(args.out, doc)
    sys.stdout.write(canonical_json(doc))
    if not res.get("applicable", False):
        return 1
    return 0


# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` keeps
    no state from one call to the next."""
    ap = argparse.ArgumentParser(
        prog="weightlab",
        description="maximal operators composed with matrices and their "
                    "weight classes: fields, constants, verifications")
    sub = ap.add_subparsers(dest="command", required=True)

    m = sub.add_parser("maximal", help="compute a maximal-function field")
    m.add_argument("--input", required=True, help="grid function JSON")
    m.add_argument("--operator", default="hl",
                   choices=["hl", "fractional", "dyadic", "orlicz"])
    m.add_argument("--alpha", type=float, default=0.0)
    m.add_argument("--phi", help="Young function JSON (orlicz operator)")
    m.add_argument("--matrix", help="compose the field with A^-1 "
                                    "(scalar or matrix JSON)")
    m.add_argument("--lengths", default="all", choices=["all", "dyadic"])
    m.add_argument("--out", help="CSV dump of the field")
    m.set_defaults(func=_cmd_maximal)

    c = sub.add_parser("constant", help="weight-class constant on a family")
    c.add_argument("--class", dest="klass", required=True,
                   choices=sorted(_CLASS_TOKENS))
    c.add_argument("--p", type=float, default=2.0)
    c.add_argument("--q", type=float, default=None)
    c.add_argument("--s", type=float, default=None)
    c.add_argument("--matrix", help="scalar or matrix JSON")
    c.add_argument("--weight", required=True, help="weight JSON")
    c.add_argument("--family", help="cube family JSON (default: central "
                                    "half of the weight support)")
    c.add_argument("--phi", help="Young function JSON (bump classes)")
    c.add_argument("--measure", default="lebesgue",
                   choices=list(_MEASURE_TOKENS))
    c.add_argument("--n-cells", type=int, default=1024)
    c.add_argument("--out", help="JSON report path")
    c.set_defaults(func=_cmd_constant)

    z = sub.add_parser("cz", help="stopping-cube decomposition")
    z.add_argument("--input", required=True, help="grid function JSON")
    z.add_argument("--a", type=float, default=8.0)
    z.add_argument("--alpha", type=float, default=0.0)
    z.add_argument("--kmin", type=int, default=None)
    z.add_argument("--kmax", type=int, default=None)
    z.add_argument("--out", help="JSON report path")
    z.set_defaults(func=_cmd_cz)

    v = sub.add_parser("verify", help="run reproduction suites")
    v.add_argument("suite",
                   choices=["prop41", "prop42", "prop43", "theorems", "all"])
    v.add_argument("--p", type=float, default=2.0,
                   help="exponent for the exponential-measure suite")
    v.add_argument("--out", help="JSON report path")
    v.set_defaults(func=_cmd_verify)

    r = sub.add_parser("probe-rh", help="exponent-lowering identity probe")
    r.add_argument("--weight", required=True)
    r.add_argument("--matrix")
    r.add_argument("--p", type=float, default=2.0)
    r.add_argument("--eps", type=float, default=0.25)
    r.add_argument("--family")
    r.add_argument("--out")
    r.set_defaults(func=_cmd_probe_rh)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except KeyError as err:
        sys.stderr.write(f"error: missing key {err.args[0]!r}\n")
        return 2
    except (DomainError, ValueError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
