"""Verification suites and the command-line interface."""

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from weightlab.cli import main
from weightlab.funcspace import (EXP_ABS, GridFunction, constant_weight,
                                 power_weight)
from weightlab.maximal import orlicz_maximal
from weightlab.report import SCHEMA, canonical_json, format_float
from weightlab.suites import (
    ap_mu_closed_form,
    exp_growth_weight,
    j_h,
    run_suites,
    suite_prop41,
    suite_prop42,
    suite_prop43,
    suite_theorems,
)
from weightlab.weightclass import ap_product
from weightlab.young import YoungFn


# ---------------------------------------------------------------------------
# closed forms feeding the suites, checked against quadrature
# ---------------------------------------------------------------------------

def test_j_h_closed_form_matches_quadrature():
    from scipy.integrate import quad
    p, h = 2.0, 3.0
    w = exp_growth_weight(p)
    # measure density e^|x|; composed weight w(x/2) against the plain dual
    mu = quad(lambda x: math.exp(x), 0.0, h)[0]
    num = quad(lambda x: math.exp((p - 1.0) * 0.5 * x) * math.exp(x),
               0.0, h)[0] / mu
    dual = quad(lambda x: math.exp(-x) * math.exp(x), 0.0, h)[0] / mu
    assert num * dual ** (p - 1.0) == pytest.approx(j_h(p, h), rel=1e-10)
    assert w.value(1.0) == pytest.approx(math.exp(p - 1.0))


def test_ap_mu_closed_form_matches_quadrature():
    from scipy.integrate import quad
    p, h = 1.5, 2.0
    w = exp_growth_weight(p)
    mu = quad(lambda x: math.exp(x), 0.0, h)[0]
    num = quad(lambda x: math.exp((p - 1.0) * x) * math.exp(x), 0.0, h)[0] / mu
    dual = quad(lambda x: math.exp(-x) * math.exp(x), 0.0, h)[0] / mu
    ref = num * dual ** (p - 1.0)
    assert ap_mu_closed_form(p, h) == pytest.approx(ref, rel=1e-10)
    direct = ap_product(w, (0.0, h), p, measure=EXP_ABS)
    assert direct == pytest.approx(ref, rel=1e-10)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def test_suite_growth_probe():
    r = suite_prop41()
    assert [c.name for c in r.checks] == [
        "interval-nesting", "composed-mass", "dual-mass-lower-bound",
        "product-growth", "plain-class-finite"]
    assert r.passed, r.failing()
    assert all(c.basis in {"closed-form", "derived", "trivial"}
               for c in r.checks)


def test_suite_exponential_measure_probe():
    for p in (1.5, 2.0, 3.0):
        r = suite_prop42(p)
        assert r.passed, (p, r.failing())
    assert [c.name for c in suite_prop42().checks] == [
        "interval-masses", "composed-product-closed-form", "limits",
        "translation-monotonicity", "plain-product-diverges"]


def test_suite_exponential_rejects_p_one():
    with pytest.raises(ValueError):
        suite_prop42(1.0)


@pytest.mark.parametrize("p", ["inf", "nan"])
def test_cli_verify_prop42_nonfinite_p_exits_two(capsys, p):
    assert main(["verify", "prop42", "--p", p]) == 2
    assert capsys.readouterr().err == "error: need a finite p > 1\n"


def test_suite_reflection_probe():
    r = suite_prop43()
    assert [c.name for c in r.checks] == [
        "reflected-mass", "dual-mass-lower-bound", "product-growth",
        "plain-class-finite"]
    assert r.passed, r.failing()


def test_suite_theorem_probes_reduced_config():
    # the suite has one configuration; its checks come in this order
    r = suite_theorems()
    assert [c.name for c in r.checks] == [
        "chain-slacks", "chain-slacks-fractional",
        "self-improvement-identity", "finite-order-reduction",
        "reflection-separation", "norm-ratio-bounded",
        "weak-type-divergence", "self-improvement-exp-measure"]
    assert r.passed, r.failing()


def test_norm_ratio_probe_computes_each_field_once(monkeypatch):
    import weightlab.suites as suites
    real = suites.hl_maximals
    calls = []

    def counting(fs):
        calls.append(list(fs))
        return real(calls[-1])

    monkeypatch.setattr(suites, "hl_maximals", counting)
    r = suite_theorems()
    assert r.passed, r.failing()
    # 50 probe functions, swept once as one stack for 3 weights x 2
    # scalings
    assert len(calls) == 1
    assert len({id(f) for f in calls[0]}) == len(calls[0]) == 50


def test_run_suites_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suites(["prop44"])


# sha256 of the ``weightlab verify all --out`` report, the frozen-output gate
# of every change to the sweeps, sums and suites behind it
VERIFY_ALL_SHA256 = \
    "3eed75b345eb3f74d05e8640d5bd49904e8a62ebdc9e34226e99ca442ed691c5"


def test_verify_all_report_frozen(tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert main(["verify", "all", "--out", str(out)]) == 0
    capsys.readouterr()
    report = out.read_bytes()
    assert json.loads(report)["passed"] is True
    assert hashlib.sha256(report).hexdigest() == VERIFY_ALL_SHA256


def write_maximal_inputs(folder):
    """The inputs of the frozen ``weightlab maximal`` CSVs, written into
    folder: the ``fields`` benchmark's corpus at a small shape (squared
    uniforms times 3 with a plateau of 40 on 512 cells; uniforms times 2
    with a raised block of 30 on 64^2) and the benchmark's 2x2 matrix.
    Self-contained, so the CI step that runs the installed console script
    builds the same files from this source."""
    import json
    import os
    import numpy as np
    rng = np.random.default_rng(7)
    v1 = rng.random(512) ** 2 * 3.0
    v1[85:106] = 40.0
    v2 = rng.random((64, 64)) * 2.0
    v2[5:10, 32:37] = 30.0
    docs = {"f1.json": {"box": [-1.0, 1.0], "values": v1.tolist()},
            "f2.json": {"box": [[-1.0, -1.0], [1.0, 1.0]],
                        "values": v2.tolist()},
            "m.json": {"dim": 2, "entries": [0.0, -2.0, 0.5, 0.0]}}
    for name, doc in docs.items():
        with open(os.path.join(folder, name), "w") as fh:
            json.dump(doc, fh)


# ``weightlab maximal`` arguments (after --input) and the sha256 of the CSV
# each writes, on the inputs of ``write_maximal_inputs``: the frozen bytes
# of both sweep paths with every length, the 1D quadrant maximum and the
# 2D nested recursion under a matrix
MAXIMAL_CSV_SHA256 = {
    ("f1.json", "--operator", "hl"):
        "6ef5696aa8b31f21300ccaab2d198a52bbf4139c5c753f46b7b2afa7fa73a4fa",
    ("f2.json", "--operator", "fractional", "--alpha", "0.5",
     "--matrix", "m.json"):
        "88c175cd86e25dd9c485efb475f842f6254ebea2182231d0757aae032787b3f9",
}


def test_maximal_csv_frozen(tmp_path, capsys):
    write_maximal_inputs(tmp_path)
    for (name, *args), digest in MAXIMAL_CSV_SHA256.items():
        out = tmp_path / "field.csv"
        argv = ["maximal", "--input", str(tmp_path / name)] + [
            str(tmp_path / a) if a.endswith(".json") else a for a in args]
        assert main(argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, name
    capsys.readouterr()


def write_bump_inputs(folder):
    """The inputs of the frozen ``weightlab constant --class bump`` report,
    written into folder: the weight |x|^(1/2) on [-8, 8] and the Young
    function t^1.5 log(e + t), which bisects.  Self-contained, so the CI
    step that runs the installed console script builds the same files."""
    import json
    import os
    docs = {"w.json": {"segments": [{"lo": -8.0, "hi": 8.0, "form": "power",
                                     "c": 1.0, "a": 0.0, "gamma": 0.5}]},
            "phi.json": {"kind": "power_log", "r": 1.5, "beta": 1.0}}
    for name, doc in docs.items():
        with open(os.path.join(folder, name), "w") as fh:
            json.dump(doc, fh)


# ``weightlab constant`` arguments, with the files of ``write_bump_inputs``,
# and the sha256 of its stdout: the frozen bytes of a bump constant whose
# norms bisect, over the default family
BUMP_CONSTANT_ARGS = ("--class", "bump", "--p", "2.0", "--matrix", "2.0",
                      "--weight", "w.json", "--phi", "phi.json")
BUMP_CONSTANT_SHA256 = \
    "72db3f5dbc082344401bdfb14213ae8dfab3f72170f7bb5a920de943686414a6"


def test_bump_constant_with_bisecting_phi_frozen(tmp_path, capsys):
    write_bump_inputs(tmp_path)
    argv = [str(tmp_path / a) if a.endswith(".json") else a
            for a in BUMP_CONSTANT_ARGS]
    assert main(["constant", *argv]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == BUMP_CONSTANT_SHA256


def test_verify_all_twice_sweeps_once_per_weight_and_repeats_its_bytes(
        monkeypatch, tmp_path, capsys):
    """Each ``verify all`` sweeps M_phibar g 9 times for its 36 chain cases
    (once per weight and exponent of its two batches) and groups the used
    cubes by shape twice per batch; a second run in the same interpreter
    writes the same bytes, so no batch leaves anything to the next."""
    from weightlab import czlab
    calls = []

    def counted(name):
        real = getattr(czlab, name)

        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    for name in ("orlicz_maximal", "_span_plan"):
        monkeypatch.setattr(czlab, name, counted(name))
    reports = []
    for run in range(2):
        out = tmp_path / f"verify{run}.json"
        assert main(["verify", "all", "--out", str(out)]) == 0
        assert calls.count("orlicz_maximal") == 9
        assert calls.count("_span_plan") == 4
        calls.clear()
        reports.append(out.read_bytes())
    capsys.readouterr()
    assert reports[0] == reports[1]
    assert hashlib.sha256(reports[1]).hexdigest() == VERIFY_ALL_SHA256


# ---------------------------------------------------------------------------
# deterministic report serialization
# ---------------------------------------------------------------------------

def test_format_float_and_nonfinite():
    assert format_float(0.1) == format(0.1, ".17g")
    assert format_float(math.inf) == '"inf"'
    assert format_float(-math.inf) == '"-inf"'
    assert format_float(math.nan) == '"nan"'


def test_canonical_json_layout_and_types():
    doc = {"b": [1, 2.5, None, True], "a": {"nested": "tex\"t"}, "empty": {}}
    text = canonical_json(doc)
    assert text.endswith("\n")
    assert json.loads(text) == {"b": [1, 2.5, None, True],
                                "a": {"nested": 'tex"t'}, "empty": {}}
    # insertion order preserved, not sorted
    assert text.index('"b"') < text.index('"a"')
    with pytest.raises(TypeError):
        canonical_json({"x": {1, 2}})


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

@pytest.fixture
def grid_file(tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({
        "box": [0.0, 2.0],
        "values": (rng.integers(0, 16, size=32) / 4.0).tolist(),
    }))
    return str(path)


@pytest.fixture
def weight_file(tmp_path):
    path = tmp_path / "weight.json"
    path.write_text(json.dumps(power_weight(0.5, -8.0, 8.0).to_json_dict()))
    return str(path)


def test_cli_maximal_field_and_csv(grid_file, tmp_path, capsys):
    csv = tmp_path / "field.csv"
    rc = main(["maximal", "--input", grid_file, "--operator", "hl",
               "--out", str(csv)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == SCHEMA and doc["command"] == "maximal"
    assert doc["max_value"] > 0.0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "x,value,in_domain"
    assert len(lines) == 33


def _row_loop_csv(path, g):
    """The field CSV written one cell at a time, the reference for
    ``cli._dump_field_csv``."""
    with open(path, "w") as fh:
        if g.dim == 1:
            fh.write("x,value,in_domain\n")
            xs = g.cell_centers(0)
            for x, v, m in zip(xs, g.values, g.mask):
                fh.write(f"{float(x)!r},{float(v)!r},{int(m)}\n")
        else:
            fh.write("x,y,value,in_domain\n")
            xs, ys = g.cell_centers(0), g.cell_centers(1)
            for i, x in enumerate(xs):
                for j, y in enumerate(ys):
                    fh.write(f"{float(x)!r},{float(y)!r},"
                             f"{float(g.values[i, j])!r},{int(g.mask[i, j])}\n")


@pytest.mark.parametrize("box, shape, matrix, out_box, n_out", [
    ((-1.0, 2.0), (24,), -0.5, (-2.0, 0.5), 20),
    (((-1.0, 0.5), (2.0, 2.5)), (6, 4), 2.0, ((-2.0, 1.0), (6.0, 7.0)),
     (16, 12)),
], ids=["1d", "2d"])
def test_field_csv_bytes_match_row_loop(tmp_path, box, shape, matrix, out_box,
                                        n_out):
    from weightlab.cli import _dump_field_csv
    from weightlab.funcspace import GridFunction
    from weightlab.maximal import hl_maximal, matrix_compose
    rng = np.random.default_rng(len(shape))
    vals = rng.random(shape) * 10.0 ** rng.integers(-300, 300, shape)
    vals.flat[:3] = (5e-324, 1e300, 0.0)
    mask = rng.random(shape) < 0.7
    g = GridFunction(box, np.where(mask, vals, 0.0), mask=mask)
    # a composed field masks the cells whose preimage leaves the grid
    composed = matrix_compose(g, matrix, out_box=out_box, n_out=n_out)
    assert not composed.mask.all()
    # -0.0 and +0.0 cells, equal as floats, with their own reprs, among
    # repeats of one value
    zeros = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
    zeros.flat[::5] = 0.25
    signed = GridFunction(box, zeros, mask=mask)
    assert np.signbit(zeros).any() and not np.signbit(zeros).all()
    # a plateau field: hot blocks make many cells share a value
    dim = len(shape)
    side = 256 if dim == 1 else 64
    hot = np.zeros((side,) * dim)
    hot[(slice(side // 16, 7 * side // 8),) * dim] = 3.0
    square = (-1.0, 2.0) if dim == 1 else ((-1.0, -1.0), (2.0, 2.0))
    plateau = matrix_compose(hl_maximal(GridFunction(square, hot)), matrix)
    assert np.unique(plateau.values).size * 4 < plateau.values.size
    for field in (g, composed, signed, plateau):
        _dump_field_csv(tmp_path / "new.csv", field)
        _row_loop_csv(tmp_path / "old.csv", field)
        assert (tmp_path / "new.csv").read_bytes() == \
            (tmp_path / "old.csv").read_bytes()


def test_field_csv_repeated_rows_match_row_loop(tmp_path):
    # a 2D field CSV takes over the formatted cells of a grid row whose
    # value bits and mask equal the previous row's: a row equal to the one
    # before in bits but not in mask, a row of +0.0 before two rows of
    # -0.0 (equal as floats, not in bits), and a plateau field composed
    # with diag(2, 1/2), most of whose rows repeat the one before
    from weightlab.cli import _dump_field_csv
    from weightlab.funcspace import GridFunction
    from weightlab.maximal import hl_maximal, matrix_compose
    rng = np.random.default_rng(83)
    vals = np.tile(rng.random(6), (8, 1))
    mask = np.ones(vals.shape, dtype=bool)
    mask[3, 2] = False
    vals[5] = 0.0
    vals[6:] = -0.0
    hot = np.zeros((32, 32))
    hot[4:28, 6:20] = 3.0
    hot[10:12, 8:30] = 5.0
    square = ((-1.0, -1.0), (2.0, 2.0))
    composed = matrix_compose(hl_maximal(GridFunction(square, hot)),
                              [[2.0, 0.0], [0.0, 0.5]])
    fields = (GridFunction(((-1.0, 0.5), (3.0, 3.5)), vals, mask=mask),
              composed)
    for field in fields:
        bits = np.ascontiguousarray(field.values).view(np.int64)
        again = (bits[1:] == bits[:-1]).all(axis=1) & \
            (field.mask[1:] == field.mask[:-1]).all(axis=1)
        assert again.any() and not again.all()
        _dump_field_csv(tmp_path / "new.csv", field)
        _row_loop_csv(tmp_path / "old.csv", field)
        assert (tmp_path / "new.csv").read_bytes() == \
            (tmp_path / "old.csv").read_bytes()
    assert (np.signbit(fields[0].values[6:]).all()
            and not np.signbit(fields[0].values[5]).any())
    assert 2 * again.sum() > again.size


def test_cli_maximal_composed_with_scalar(grid_file, capsys):
    rc = main(["maximal", "--input", grid_file, "--operator", "fractional",
               "--alpha", "0.5", "--matrix", "2.0"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    # composition with A moves the field onto A(box) = [0, 4), and the
    # default image grid keeps the input cell width
    assert doc["argmax_center"][0] <= 4.0
    assert doc["cells"] == [64]


@pytest.fixture
def grid2d_file(tmp_path):
    rng = np.random.default_rng(6)
    path = tmp_path / "grid2d.json"
    path.write_text(json.dumps({
        "box": [[-1.0, -1.0], [1.0, 1.0]],
        "values": (rng.integers(0, 16, size=(8, 8)) / 4.0).tolist(),
    }))
    return str(path)


def test_cli_maximal_2d_composed_with_scalar(grid2d_file, capsys):
    rc = main(["maximal", "--input", grid2d_file, "--matrix", "2.0"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["cells"] == [16, 16]


def test_cli_maximal_2d_composed_with_nested_matrix(grid2d_file, tmp_path,
                                                    capsys):
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({"entries": [[0, -2], [0.5, 0]]}))
    rc = main(["maximal", "--input", grid2d_file, "--matrix", str(matrix)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["cells"] == [16, 4]


def test_cli_maximal_2d_composed_with_rotation(grid2d_file, tmp_path, capsys):
    # the image box of a 0.7-rad rotation is no whole number of cells: it
    # widens to the next whole input cell, 2.82 / 0.25 -> 12
    c, s = math.cos(0.7), math.sin(0.7)
    matrix = tmp_path / "rotation.json"
    matrix.write_text(json.dumps({"entries": [[c, -s], [s, c]]}))
    rc = main(["maximal", "--input", grid2d_file, "--matrix", str(matrix)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["cells"] == [12, 12]


def test_cli_maximal_2d_composed_with_general_matrix(tmp_path, capsys):
    # neither monomial nor a rotation: the image box is 2.4 x 3.0, and its
    # x axis widens from 76.8 to 77 cells of the input's size
    from weightlab.maximal import hl_maximal
    rng = np.random.default_rng(12)
    vals = rng.random((64, 64))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"box": [[-1.0, -1.0], [1.0, 1.0]],
                                "values": vals.tolist()}))
    entries = [[0.9, -0.3], [0.4, 1.1]]
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({"entries": entries}))
    csv = tmp_path / "field.csv"
    rc = main(["maximal", "--input", str(grid), "--matrix", str(matrix),
               "--out", str(csv)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["cells"] == [77, 96]
    field = hl_maximal(GridFunction(((-1.0, -1.0), (1.0, 1.0)), vals))
    inv = np.linalg.inv(entries)
    rows = csv.read_text().splitlines()[1:]
    assert len(rows) == 77 * 96
    read = 0
    for r in rng.choice(len(rows), 40, replace=False):
        x, y, value, flag = (float(t) for t in rows[r].split(","))
        i, j = divmod(int(r), 96)
        assert x == pytest.approx(-1.2 + (i + 0.5) / 32, abs=1e-12)
        assert y == pytest.approx(-1.5 + (j + 0.5) / 32, abs=1e-12)
        # a preimage within 1e-9 of a cell edge may read either neighbour
        t = (inv @ (x, y) + 1.0) * 32
        ax, ay = ({math.floor(v - 1e-9), math.floor(v + 1e-9)} for v in t)
        cands = [(a, b) for a in ax for b in ay
                 if 0 <= a < 64 and 0 <= b < 64]
        if flag == 0:
            assert value == 0.0
        else:
            assert any(value == field.values[c] for c in cands)
            read += 1
    assert read >= 3


def test_cli_maximal_orlicz_requires_phi(grid_file):
    assert main(["maximal", "--input", grid_file,
                 "--operator", "orlicz"]) == 2


@pytest.mark.parametrize("phi_doc", [{"kind": "identity"},
                                     {"kind": "power", "r": 2.0}],
                         ids=["identity", "power"])
def test_cli_maximal_orlicz_negative_alpha_exits_two(grid_file, tmp_path,
                                                     capsys, phi_doc):
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps(phi_doc))
    assert main(["maximal", "--input", grid_file, "--operator", "orlicz",
                 "--phi", str(phi), "--alpha", "-1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: alpha must lie in [0, dim)\n"


@pytest.mark.parametrize("name, options", [
    ("f1.json", ["--lengths", "all"]),
    ("f1.json", ["--lengths", "dyadic"]),
    ("f2.json", ["--lengths", "all"]),
    ("f2.json", ["--lengths", "dyadic"]),
    ("f2.json", ["--matrix", "m.json"]),
], ids=["1d-all", "1d-dyadic", "2d-all", "2d-dyadic", "2d-matrix"])
def test_cli_orlicz_identity_writes_the_hl_csv(tmp_path, capsys, name,
                                               options):
    """phi(t) = t is the plain average: the orlicz field's CSV has the bytes
    of the hl field's."""
    write_maximal_inputs(tmp_path)
    (tmp_path / "phi.json").write_text(json.dumps({"kind": "identity"}))
    options = [str(tmp_path / a) if a.endswith(".json") else a
               for a in options]
    csv = {}
    for op in (["hl"], ["orlicz", "--phi", str(tmp_path / "phi.json")]):
        out = tmp_path / f"{op[0]}.csv"
        assert main(["maximal", "--input", str(tmp_path / name),
                     "--operator", *op, *options, "--out", str(out)]) == 0
        csv[op[0]] = out.read_bytes()
    capsys.readouterr()
    assert csv["orlicz"] == csv["hl"]


def test_cli_maximal_orlicz_sup_phi(grid_file, tmp_path, capsys):
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"kind": "sup"}))
    csv = tmp_path / "field.csv"
    assert main(["maximal", "--input", grid_file, "--operator", "orlicz",
                 "--phi", str(phi), "--out", str(csv)]) == 0
    with open(grid_file) as fh:
        doc = json.load(fh)
    ref = orlicz_maximal(GridFunction(doc["box"], doc["values"]),
                         YoungFn("sup"))
    rows = csv.read_text().strip().splitlines()[1:]
    assert [float(r.split(",")[1]) for r in rows] == ref.values.tolist()


def test_cli_constant(weight_file, capsys):
    rc = main(["constant", "--class", "aap", "--weight", weight_file,
               "--matrix", "2.0", "--p", "2.0"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "constant"
    assert doc["value"] > 1.0 and doc["kind"] == "AAp"


def test_cli_constant_nan_product_exits_one(tmp_path, capsys):
    # 0 * inf on [2.5, 3.5]: see test_nan_product_makes_the_constant_nan
    files = {"w.json": power_weight(1.0, 2.0, 4.0, a=3.0).to_json_dict(),
             "phi.json": {"kind": "power", "r": 2.0},
             "fam.json": {"box": [2.5, 3.5], "levels": [0, 0]}}
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc))
    rc = main(["constant", "--class", "bump", "--p", "2.0", "--matrix", "2.0",
               "--weight", str(tmp_path / "w.json"),
               "--phi", str(tmp_path / "phi.json"),
               "--family", str(tmp_path / "fam.json")])
    out = capsys.readouterr()
    assert rc == 1
    doc = json.loads(out.out)
    assert doc["value"] == "nan" and doc["argmax"]["corner"] == [2.5]
    assert out.err == "FAIL constant: undefined (NaN) per-cube product\n"


def test_cli_cz_decomposition(grid_file, tmp_path, capsys):
    out = tmp_path / "cz.json"
    rc = main(["cz", "--input", grid_file, "--a", "8.0", "--out", str(out)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "cz"
    assert doc["expansion"]["disjoint"] is True
    assert any(lvl["cubes"] for lvl in doc["levels"])
    assert json.loads(out.read_text())["schema"] == SCHEMA


def test_cli_verify_suite(capsys, tmp_path):
    out = tmp_path / "verify.json"
    rc = main(["verify", "prop41", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "suite prop41: PASS" in text
    assert "[PASS] composed-mass" in text
    doc = json.loads(out.read_text())
    assert doc["passed"] is True and doc["suites"][0]["suite"] == "prop41"


def test_cli_verify_reports_failures(monkeypatch, capsys):
    from weightlab.suites import Check, SuiteResult

    def fake(names, p=2.0):
        return [SuiteResult("prop41", [
            Check("composed-mass", "stub", 0.0, "= 1", False, "derived")])]

    monkeypatch.setattr("weightlab.cli.run_suites", fake)
    rc = main(["verify", "prop41"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.out and "composed-mass" in captured.err


def test_cli_one_parser_per_process_acts_as_fresh_ones(grid_file, tmp_path,
                                                       capsys):
    # main builds its parser once per process; a field, an argument error
    # and a suite run in one process each give the stdout and exit code of
    # a new interpreter running that command alone
    from weightlab import cli
    runs = [["maximal", "--input", grid_file, "--operator", "fractional",
             "--alpha", "0.5"],
            ["maximal", "--input", grid_file, "--operator", "sup"],
            ["verify", "prop41"]]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    capsys.readouterr()
    codes = []
    for argv in runs:
        try:
            rc = main(argv)
        except SystemExit as stop:
            rc = stop.code
        out = capsys.readouterr().out
        proc = subprocess.run([sys.executable, "-m", "weightlab.cli", *argv],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=120)
        assert (rc, out) == (proc.returncode, proc.stdout), argv
        codes.append(rc)
    assert codes == [0, 2, 0] and "suite prop41: PASS" in out
    assert cli._build_parser() is cli._build_parser()


def test_cli_probe_rh_pass_and_not_applicable(weight_file, tmp_path, capsys):
    rc = main(["probe-rh", "--weight", weight_file, "--matrix", "2.0",
               "--p", "2.0", "--eps", "0.25"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["applicable"] is True and doc["max_percube_defect"] <= 1e-9

    bad = tmp_path / "linear.json"
    bad.write_text(json.dumps(power_weight(1.0, -8.0, 8.0).to_json_dict()))
    rc = main(["probe-rh", "--weight", str(bad), "--p", "2.0"])
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["applicable"] is False


def test_cli_bad_input_exits_two(tmp_path, capsys):
    assert main(["cz", "--input", str(tmp_path / "missing.json")]) == 2
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["maximal", "--input", str(bad)]) == 2


@pytest.mark.parametrize("option", ["--input", "--phi", "--matrix"])
def test_cli_json_input_not_an_object_exits_two(grid_file, tmp_path, capsys,
                                                option):
    bad = tmp_path / "list.json"
    bad.write_text("[1, 2]")
    args = {"--input": ["--input", str(bad)],
            "--phi": ["--input", grid_file, "--operator", "orlicz",
                      "--phi", str(bad)],
            "--matrix": ["--input", grid_file, "--matrix", str(bad)]}[option]
    assert main(["maximal", *args]) == 2
    assert capsys.readouterr().err == \
        f"error: {bad}: expected a JSON object, got list\n"


@pytest.mark.parametrize("option, doc, key", [
    ("--input", {"box": [0.0, 1.0]}, "values"),
    ("--phi", {"kind": "power"}, "r"),
], ids=["grid-values", "phi-r"])
def test_cli_json_missing_key_exits_two(grid_file, tmp_path, capsys, option,
                                        doc, key):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    args = ["--input", str(path)] if option == "--input" else \
        ["--input", grid_file, "--operator", "orlicz", "--phi", str(path)]
    assert main(["maximal", *args]) == 2
    assert capsys.readouterr().err == f"error: missing key {key!r}\n"


NON_SQUARE = {"box": [[0.0, 0.0], [1.0, 2.0]], "values": [[1.0] * 8] * 4}
# one hot cell among 48: the dyadic splits stop at side 3, so no stopping
# cube could ever contain it
HOT_48 = {"box": [0.0, 1.0], "values": [1.0, 100.0] + [1.0] * 46}
# at alpha = -0.5 the cell [0, 1) has value 1 in (a/4, a/2] for a = 3.2,
# but a negative order breaks the max-pyramid prune
ONE_HOT_8 = {"box": [0.0, 8.0], "values": [1.0] + [0.0] * 7}


@pytest.mark.parametrize("command, grid, options, message", [
    ("maximal", {"box": [0.0, 1.0], "values": [1.0, math.nan, 2.0, 0.5]},
     [], "finite"),
    ("maximal", {"box": [0.0, 1.0], "values": []}, [], "at least one cell"),
    ("maximal", {"box": [1.0, 0.0], "values": [1.0, 2.0]}, [], "hi > lo"),
    ("cz", {"box": [0.0, 1.0], "values": [1e308] * 8}, [], "overflow"),
    ("maximal", NON_SQUARE, ["--lengths", "all"], "need a square grid"),
    ("maximal", NON_SQUARE, ["--lengths", "dyadic"], "need a square grid"),
    ("cz", HOT_48, ["--a", "4", "--kmin", "4", "--kmax", "4"],
     "power-of-two cell count"),
    ("cz", {"box": [0.0, 1.0], "values": [1.0, 2.0, 3.0, 4.0]},
     ["--kmin", "1", "--kmax", "400"], "k=342 overflows the float range"),
    ("cz", ONE_HOT_8, ["--alpha", "-0.5", "--a", "3.2", "--kmin", "1",
                       "--kmax", "1"], "alpha must lie in [0, dim)"),
    ("cz", ONE_HOT_8, ["--alpha", "nan", "--a", "3.2", "--kmin", "1",
                       "--kmax", "1"], "alpha must lie in [0, dim)"),
    ("cz", ONE_HOT_8, ["--alpha", "nan", "--a", "3.2"],
     "alpha must lie in [0, dim)"),
    ("cz", ONE_HOT_8, ["--a", "inf"], "need a finite a > 2^n = 2"),
    ("cz", ONE_HOT_8, ["--a", "nan"], "need a finite a > 2^n = 2"),
    ("cz", ONE_HOT_8, ["--a", "nan", "--kmin", "1", "--kmax", "1"],
     "need a finite a > 2^n = 2"),
    ("cz", ONE_HOT_8, ["--a", "2"], "need a finite a > 2^n = 2"),
    ("cz", ONE_HOT_8, ["--kmin", "5", "--kmax", "2"],
     "--kmin 5 exceeds --kmax 2"),
    ("cz", ONE_HOT_8, ["--kmin", "3"], "pass both --kmin and --kmax"),
    ("cz", ONE_HOT_8, ["--kmax", "3"], "pass both --kmin and --kmax"),
], ids=["nan", "empty", "reversed-box", "overflow", "non-square-all",
        "non-square-dyadic", "cz-48-cells", "cz-threshold-overflow",
        "cz-negative-alpha", "cz-nan-alpha", "cz-nan-alpha-auto-k",
        "cz-inf-a", "cz-nan-a-auto-k", "cz-nan-a", "cz-a-two",
        "cz-kmin-above-kmax", "cz-kmin-alone", "cz-kmax-alone"])
def test_cli_bad_grid_exits_two_with_one_line(tmp_path, capsys, command, grid,
                                              options, message):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    assert main([command, "--input", str(path), *options]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("value, options", [
    (1e308, []),
    (1e200, ["--operator", "orlicz", "--phi", "phi.json"]),
], ids=["hl", "orlicz-cube"])
def test_cli_maximal_prefix_overflow_exits_two(tmp_path, value, options):
    # a new interpreter shows numpy's warnings on stderr as a user sees them
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"box": [0.0, 1.0], "values": [value] * 8}))
    (tmp_path / "phi.json").write_text(json.dumps({"kind": "power", "r": 3.0}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run([sys.executable, "-m", "weightlab.cli", "maximal",
                           "--input", str(path), *options], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "overflow" in proc.stderr


@pytest.mark.parametrize("n_cells", ["0", "-3"])
def test_cli_constant_without_cells_exits_two(weight_file, capsys, n_cells):
    assert main(["constant", "--class", "aa1", "--matrix", "2",
                 "--weight", weight_file, "--n-cells", n_cells]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "at least one cell" in err


@pytest.mark.parametrize("command, token, message", [
    ("maximal", "0", "matrix is singular"),
    ("maximal", "nan", "matrix entries must be finite"),
    ("maximal", "inf", "matrix entries must be finite"),
    ("constant", "0", "matrix is singular"),
    ("constant", "nan", "matrix entries must be finite"),
])
def test_cli_bad_matrix_token_exits_two_with_one_line(grid_file, weight_file,
                                                      tmp_path, command,
                                                      token, message):
    # a number is never read as a path, and a new interpreter shows any
    # numpy warning on stderr as a user sees it
    args = (["--input", grid_file] if command == "maximal" else
            ["--class", "aap", "--weight", weight_file])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run([sys.executable, "-m", "weightlab.cli", command,
                           *args, "--matrix", token], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {message}\n"


@pytest.mark.parametrize("options, message", [
    (["--class", "rh", "--s", "inf"], "RH needs a finite s > 1, got s = inf"),
    (["--class", "rh", "--s", "nan"], "RH needs a finite s > 1, got s = nan"),
    (["--class", "ap", "--p", "inf"], "Ap needs a finite p > 1, got p = inf"),
    (["--class", "frac", "--q", "nan", "--matrix", "2"],
     "fractional kinds need a finite q >= p, got q = nan"),
], ids=["rh-inf-s", "rh-nan-s", "ap-inf-p", "frac-nan-q"])
def test_cli_constant_nonfinite_parameter_exits_two(weight_file, capsys,
                                                    options, message):
    assert main(["constant", "--weight", weight_file, *options]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("phi, message", [
    ({"kind": "power", "r": 2.0, "c": 0.0},
     "power kind needs r > 1, c > 0, got r = 2.0, c = 0.0"),
    ({"kind": "power", "r": 2.0, "c": -1.0},
     "power kind needs r > 1, c > 0, got r = 2.0, c = -1.0"),
    ({"kind": "power", "r": "2"}, "power needs a finite number r, got '2'"),
    ({"kind": "power", "r": math.nan}, "power needs a finite number r, got nan"),
    ({"kind": "power_log", "r": math.nan, "beta": 1.0},
     "power_log needs a finite number r, got nan"),
    ({"kind": "power_log", "r": 1.5, "beta": math.nan},
     "power_log needs a finite number beta, got nan"),
    ({"kind": "bump", "p": 2.0, "eps": math.inf},
     "bump needs a finite number eps, got inf"),
], ids=["power-zero-c", "power-negative-c", "power-string-r", "power-nan-r",
        "power_log-nan-r", "power_log-nan-beta", "bump-inf-eps"])
def test_cli_constant_malformed_phi_exits_two(weight_file, tmp_path, capsys,
                                              phi, message):
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(phi))
    assert main(["constant", "--class", "bump", "--matrix", "2",
                 "--weight", weight_file, "--phi", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("piece", [
    {"form": "power", "c": 1.0, "a": -1.0, "gamma": 0.0},
    {"form": "exp", "c": 1.0, "s": 1.0},
], ids=["constant", "exp"])
def test_cli_constant_overflowing_exp_mass_exits_two(tmp_path, capsys, piece):
    files = {"w.json": {"segments": [{"lo": 0.0, "hi": 1000.0, **piece}]},
             "fam.json": {"box": [600.0, 1000.0], "levels": [0, 0]}}
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc))
    rc = main(["constant", "--class", "ap", "--measure", "exp",
               "--weight", str(tmp_path / "w.json"),
               "--family", str(tmp_path / "fam.json")])
    assert rc == 2
    assert capsys.readouterr().err == \
        "error: the e^|x| mass over [600.0, 1000.0] overflows the float range\n"


def test_cli_constant_overflowing_lebesgue_mass_exits_two(tmp_path, capsys):
    # e^x on [0, 1000]: its masses over the family [600, 1000] are finite
    # but leave the float range, an error and not an infinite constant
    files = {"w.json": {"segments": [{"lo": 0.0, "hi": 1000.0, "form": "exp",
                                      "c": 1.0, "s": 1.0}]},
             "fam.json": {"box": [600.0, 1000.0], "levels": [0, 2]}}
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc))
    rc = main(["constant", "--class", "ap",
               "--weight", str(tmp_path / "w.json"),
               "--family", str(tmp_path / "fam.json")])
    assert rc == 2
    assert capsys.readouterr().err == \
        "error: the mass over [600.0, 1000.0] overflows the float range\n"


def test_cli_constant_overflowing_power_exits_two(tmp_path, capsys):
    # w = 1e-306 x on [0, 1] at p = 3: the square of the dual average
    # leaves the float range on the cube [0, 2^-6], a product of finite
    # terms about 2 there; one line, no traceback
    files = {"w.json": {"segments": [{"lo": 0.0, "hi": 1.0, "form": "power",
                                      "c": 1e-306, "gamma": 1.0}]},
             "fam.json": {"box": [0.0, 1.0], "levels": [0, 12]}}
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc))
    rc = main(["constant", "--class", "ap", "--p", "3",
               "--weight", str(tmp_path / "w.json"),
               "--family", str(tmp_path / "fam.json")])
    assert rc == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("error: the Ap product over Cube(corner=(0.0,), "
                       "side=0.015625) overflows the float range\n")


@pytest.mark.parametrize("family, message", [
    ({"box": [-2.0, float("nan")], "levels": [0, 2]},
     "family box must be finite"),
    ({"box": [-1e308, 1e308], "levels": [0, 2]},
     "family box side overflows the float range"),
    ({"box": [-2.0, 2.0], "levels": [0, 1.5]},
     "family levels must be whole numbers, got 1.5"),
    ({"box": [-2.0, 2.0], "levels": [0, 2], "shifts": 1.5},
     "family shifts must be whole numbers, got 1.5"),
    ({"box": [1e16, 1e16 + 4.0], "levels": [0, 4]},
     "family level 4 is too fine for the box: its side is below the float "
     "spacing at 1e+16"),
], ids=["nan-box", "overflowing-box", "fractional-levels", "fractional-shifts",
        "too-fine"])
def test_cli_constant_bad_family_exits_two(weight_file, tmp_path, capsys,
                                           family, message):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(family))
    assert main(["constant", "--class", "ap", "--weight", weight_file,
                 "--family", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("klass, options", [
    ("bump", ["--phi", "phi.json"]),
    ("frac_bump", ["--q", "3", "--phi", "phi.json"]),
    ("aa1", []),
])
def test_cli_constant_kind_without_a_measure_exits_two(weight_file, tmp_path,
                                                       capsys, klass, options):
    (tmp_path / "phi.json").write_text(json.dumps({"kind": "power", "r": 3.0}))
    options = [str(tmp_path / o) if o.endswith(".json") else o
               for o in options]
    assert main(["constant", "--class", klass, "--matrix", "-1", "--weight",
                 weight_file, "--measure", "exp", *options]) == 2
    kind = {"aa1": "AA1"}.get(klass, klass)
    assert capsys.readouterr().err == \
        f"error: {kind} supports the Lebesgue measure only\n"


# stdout of ``weightlab constant --class bump`` with the weight e^{-2x} on
# [0, 1000], A = -1 and phi = t^2 over the cubes [-1000, 0] and [0, 1000]:
# the sup of w^{-1/2} = e^x on [0, 1000] leaves the float range
OVERFLOWING_SUP_SHA256 = \
    "7ded8d1d4a214a91c80232c4d7102ba10b6ba5b9648b207dee272777c85c3d33"


def test_cli_bump_with_an_overflowing_sup_warns_nothing(tmp_path, capsys):
    docs = {"w.json": {"segments": [{"lo": 0.0, "hi": 1000.0, "form": "exp",
                                     "c": 1.0, "s": -2.0}]},
            "fam.json": {"box": [-1000.0, 1000.0], "levels": [1, 1]},
            "phi.json": {"kind": "power", "r": 2.0}}
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["constant", "--class", "bump", "--matrix", "-1",
                     "--phi", str(tmp_path / "phi.json"),
                     "--weight", str(tmp_path / "w.json"),
                     "--family", str(tmp_path / "fam.json")]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == OVERFLOWING_SUP_SHA256


@pytest.mark.parametrize("option, doc, where", [
    ("--input", {"box": [1.0], "values": [1, 2]}, "a box is a pair"),
    ("--input", {"box": 5, "values": [1, 2]}, "doc.json"),
    ("--input", {"box": None, "values": [1, 2]}, "doc.json"),
    ("--input", {"box": [0, 1], "values": {}}, "doc.json"),
    ("--input", {"box": [[0, 0], [1]], "values": [[1, 2], [3, 4]]},
     "doc.json"),
    ("--weight", {"segments": 5}, "doc.json"),
    ("--weight", {"segments": [5]}, "doc.json"),
    ("--weight", {"segments": None}, "doc.json"),
    ("--weight", {"segments": [{"lo": "a", "hi": 1.0, "form": "power"}]},
     "doc.json"),
    ("--weight", {"segments": [{"lo": 0.0, "hi": 1.0, "form": "power",
                                "gamma": None}]}, "doc.json"),
    ("--family", {"box": [0, 1], "levels": 3}, "doc.json"),
    ("--family", {"box": 5, "levels": [0, 1]}, "doc.json"),
], ids=["grid-short-box", "grid-number-box", "grid-null-box",
        "grid-object-values", "grid-ragged-box", "weight-number-segments",
        "weight-number-segment", "weight-null-segments", "weight-string-lo",
        "weight-null-gamma", "family-number-levels", "family-number-box"])
def test_cli_malformed_json_exits_two_with_one_line(weight_file, tmp_path,
                                                     capsys, option, doc,
                                                     where):
    # a value of the wrong type or shape is bad input, not a traceback
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = {"--input": ["maximal", "--input", str(path)],
            "--weight": ["constant", "--class", "ap", "--weight", str(path)],
            "--family": ["constant", "--class", "ap", "--weight", weight_file,
                         "--family", str(path)]}[option]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert where in err and "Traceback" not in err


def test_cli_constant_rejects_unknown_measure_token(weight_file):
    with pytest.raises(SystemExit):
        main(["constant", "--class", "ap", "--weight", weight_file,
              "--measure", "gaussian"])


# the default paths, run with scipy unimportable: only a power piece with
# gamma != 0 against e^|x| needs scipy, and no default path integrates one
_NO_SCIPY = """
import contextlib, io, json, sys
import weightlab.cli
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
sys.modules["scipy"] = None
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(weightlab.cli.main(argv))
print(json.dumps(codes))
"""


def test_cli_default_paths_run_without_scipy(grid_file, grid2d_file,
                                             weight_file, tmp_path):
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({"entries": [[0.9, -0.3], [0.4, 1.1]]}))
    runs = [["verify", "all", "--out", str(tmp_path / "verify.json")],
            ["maximal", "--input", grid_file],
            ["maximal", "--input", grid2d_file, "--matrix", str(matrix)],
            ["cz", "--input", grid_file],
            ["constant", "--class", "ap", "--weight", weight_file]]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY, json.dumps(runs)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0] * len(runs)
