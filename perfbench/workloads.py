"""Workload inputs, operations and output checks.

Every op is one user-level call on inputs generated for that op alone from
(seed, op index).  ``prepare`` builds the op's objects and files outside the
timing and returns a zero-argument callable; the harness times only that
call, then hands its result to ``check``, which raises ``CheckFailed`` when
the output is wrong.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np

import oracle

# workload -> {size key: (full size, tiny size)}; tiny sizes serve the
# smoke test only
SIZES = {
    "chain": {"n1": (2 ** 14, 2 ** 8), "n2": (128, 16)},
    "fields": {"n1": (2 ** 12, 2 ** 6), "n2": (256, 16)},
    "verify-all": {"suite": ("all", "prop41")},
}

CHAIN_TOL = 1e-6
ORACLE_RTOL = 1e-12
ORACLE_CELLS = 3           # cells of each CSV compared against the oracle
FIELD_MATRIX = {"dim": 2, "entries": [0.0, -2.0, 0.5, 0.0]}
FIELD_ALPHA = 0.5


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def corpus_1d(rng, n):
    """The acceptance-5 1D chain corpus: squared uniforms plus a plateau."""
    vals = rng.random(n) ** 2 * 3.0
    vals[n // 6: n // 6 + max(4, n // 24)] = 40.0
    return vals


def corpus_2d(rng, n):
    """The acceptance-5 2D chain corpus: uniforms plus a raised block."""
    vals = rng.random((n, n)) * 2.0
    vals[n // 12: n // 6, n // 2: n // 2 + max(2, n // 12)] = 30.0
    return vals


def op_rng(seed, op):
    return np.random.default_rng([seed, op])


def make(name, wl, tiny=False):
    """The workload object for `name`; `wl` is the imported weightlab."""
    sizes = {k: v[1 if tiny else 0] for k, v in SIZES[name].items()}
    return {"chain": Chain, "fields": Fields,
            "verify-all": VerifyAll}[name](wl, **sizes)


class Workload:
    """inputs(seed, op, tmpdir) -> inputs; prepare(inputs, tmpdir) -> op;
    check(inputs, result) raises CheckFailed; summary() -> printed lines."""

    def summary(self):
        return []


def _remove(*paths):
    """Delete a previous op's outputs, so a check never reads them."""
    for path in paths:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)


def _run_cli(cli, argv):
    """In-process `weightlab <argv>`; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


class Chain(Workload):
    """1D chain at n1 cells (sqrt-growth weight, lambda = -2, p = 2) and 2D
    chain at n2^2 cells (acceptance-5 weight pair, A = -I/2, p = 2), both with
    phi = t^3."""

    def __init__(self, wl, n1, n2):
        self.wl = wl
        self.n1, self.n2 = n1, n2
        self.phi = wl.YoungFn.power(3.0)
        self.w1 = wl.power_weight(0.5, -40.0, 40.0)
        self.w2 = (wl.power_weight(0.5, -40.0, 40.0),
                   wl.constant_weight(1.0, -40.0, 40.0))
        self.A2 = wl.SquareMatrix.scalar(-0.5, 2)

    def inputs(self, seed, op, tmpdir):
        rng = op_rng(seed, op)
        return corpus_1d(rng, self.n1), corpus_2d(rng, self.n2)

    def prepare(self, inputs, tmpdir):
        GridFunction = self.wl.GridFunction
        f1 = GridFunction((-1.0, 1.0), inputs[0])
        f2 = GridFunction(((-1.0, -1.0), (1.0, 1.0)), inputs[1])
        chain = self.wl.theorem_chain_check

        def op():
            return (chain(f1, self.w1, -2.0, 2.0, self.phi),
                    chain(f2, self.w2, self.A2, 2.0, self.phi))
        return op

    def check(self, inputs, result):
        for dim, rep in zip((1, 2), result):
            if not rep.applicable:
                raise CheckFailed(f"{dim}D chain not applicable: {rep.reason}")
            if not rep.min_rel_slack >= -CHAIN_TOL:
                raise CheckFailed(f"{dim}D chain slack {rep.min_rel_slack}")


class Fields(Workload):
    """`weightlab maximal` twice per op: hl on a 1D grid of n1 cells, then
    fractional (alpha = 1/2) on an n2^2 grid composed with a 2x2 matrix; both
    with the default --lengths all and a CSV dump."""

    def __init__(self, wl, n1, n2):
        self.wl = wl
        self.n1, self.n2 = n1, n2

    def inputs(self, seed, op, tmpdir):
        rng = op_rng(seed, op)
        v1, v2 = corpus_1d(rng, self.n1), corpus_2d(rng, self.n2)
        paths = {k: os.path.join(tmpdir, k) for k in
                 ("f1.json", "f2.json", "m.json", "f1.csv", "f2.csv")}
        docs = {"f1.json": {"box": [-1.0, 1.0], "values": v1.tolist()},
                "f2.json": {"box": [[-1.0, -1.0], [1.0, 1.0]],
                            "values": v2.tolist()},
                "m.json": FIELD_MATRIX}
        for key, doc in docs.items():
            with open(paths[key], "w") as fh:
                json.dump(doc, fh)
        _remove(paths["f1.csv"], paths["f2.csv"])
        return v1, v2, paths, rng

    def prepare(self, inputs, tmpdir):
        _, _, p, _ = inputs
        cli = self.wl.cli
        hl = ["maximal", "--input", p["f1.json"], "--operator", "hl",
              "--out", p["f1.csv"]]
        frac = ["maximal", "--input", p["f2.json"], "--operator",
                "fractional", "--alpha", str(FIELD_ALPHA),
                "--matrix", p["m.json"], "--out", p["f2.csv"]]

        def op():
            return _run_cli(cli, hl), _run_cli(cli, frac)
        return op

    def check(self, inputs, result):
        v1, v2, paths, rng = inputs
        for rc, _ in result:
            if rc != 0:
                raise CheckFailed(f"weightlab maximal exited {rc}")
        docs = [json.loads(text) for _, text in result]
        _check_hl_1d(v1, paths["f1.csv"], docs[0], rng)
        _check_frac_2d(v2, paths["f2.csv"], docs[1], rng)


def _csv_rows(path, n_rows):
    with open(path) as fh:
        lines = fh.read().splitlines()
    if len(lines) != n_rows + 1:
        raise CheckFailed(f"{path}: {len(lines) - 1} rows, expected {n_rows}")
    return lines


def _close(got, want):
    return abs(got - want) <= ORACLE_RTOL * abs(want)


def _check_hl_1d(vals, path, doc, rng):
    n = vals.size
    h = 2.0 / n
    if doc["cells"] != [n]:
        raise CheckFailed(f"hl field has cells {doc['cells']}")
    lines = _csv_rows(path, n)
    prefix = oracle.prefix_1d(vals)
    for i in rng.choice(n, ORACLE_CELLS, replace=False):
        x, value, flag = (float(t) for t in lines[1 + i].split(","))
        want = oracle.field_1d(prefix, int(i))
        if not (abs(x - (-1.0 + (i + 0.5) * h)) <= 1e-12 and flag == 1
                and _close(value, want)):
            raise CheckFailed(f"hl cell {i}: csv ({x}, {value}, {flag}), "
                              f"oracle value {want!r}")


def _check_frac_2d(vals, path, doc, rng):
    """The composed field at output cell c reads the input cell holding
    A^-1 (center of c); a preimage within 1e-9 of a cell edge may read
    either neighbour."""
    n = vals.shape[0]
    h = 2.0 / n
    A = np.asarray(FIELD_MATRIX["entries"]).reshape(2, 2)
    corners = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
    image = corners @ A.T
    lo, hi = image.min(axis=0), image.max(axis=0)
    shape = [int(round(v)) for v in (hi - lo) / h]
    if doc["cells"] != shape:
        raise CheckFailed(f"composed field has cells {doc['cells']}, "
                          f"expected {shape}")
    lines = _csv_rows(path, shape[0] * shape[1])
    prefix = oracle.prefix_2d(vals)
    inv = np.linalg.inv(A)
    for r in rng.choice(shape[0] * shape[1], ORACLE_CELLS, replace=False):
        i, j = divmod(int(r), shape[1])
        center = lo + (np.array([i, j]) + 0.5) * h
        x, y, value, flag = (float(t) for t in lines[1 + r].split(","))
        if abs(x - center[0]) > 1e-12 or abs(y - center[1]) > 1e-12:
            raise CheckFailed(f"composed cell {(i, j)} at ({x}, {y})")
        t = (inv @ center + 1.0) / h
        cands = [sorted({math.floor(v - 1e-9), math.floor(v + 1e-9)})
                 for v in t]
        cells = [(a, b) for a in cands[0] for b in cands[1]
                 if 0 <= a < n and 0 <= b < n]
        ok = flag == 1 and any(
            _close(value, oracle.field_2d(prefix, a, b, h, FIELD_ALPHA))
            for a, b in cells)
        if not ok:
            raise CheckFailed(f"composed cell {(i, j)}: csv ({value}, {flag}) "
                              f"disagrees with the oracle at {cells}")


class VerifyAll(Workload):
    """`weightlab verify all --out <tmp>` on the shipped fixed corpus; the
    seed is unused because the command takes no inputs."""

    def __init__(self, wl, suite):
        self.wl = wl
        self.suite = suite
        self.digests = []

    def inputs(self, seed, op, tmpdir):
        path = os.path.join(tmpdir, "report.json")
        _remove(path)
        return path

    def prepare(self, path, tmpdir):
        argv = ["verify", self.suite, "--out", path]
        cli = self.wl.cli

        def op():
            return _run_cli(cli, argv)
        return op

    def check(self, path, result):
        rc, _ = result
        if rc != 0:
            raise CheckFailed(f"weightlab verify exited {rc}")
        with open(path, "rb") as fh:
            data = fh.read()
        if json.loads(data).get("passed") is not True:
            raise CheckFailed("report does not say passed")
        digest = hashlib.sha256(data).hexdigest()
        if self.digests and digest != self.digests[0]:
            raise CheckFailed(f"report bytes differ between ops: {digest}")
        self.digests.append(digest)

    def summary(self):
        return [f"report sha256 {self.digests[0]}"] if self.digests else []
