"""weightlab benchmark harness.

One workload, as BENCHMARK.json runs it:

    python3 perfbench/run.py --workload chain --seed 1 --seconds 30 --trace 0

prints one line per metric and, as its last line, a JSON object with the
keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics with no wrappers installed; --trace 1 runs about half
the ops, each once untraced and once with spans, and reports the per-layer
metrics (per traced op) plus the tracing overhead (median over ops of traced
minus untraced time).

Every workload, untraced then traced, each in its own fresh process:

    python3 perfbench/run.py [--seed 0] [--seconds 30]

The op count of a run is fixed from --seconds by the workload's nominal op
time on a shared 2-core x86-64 VM, so wall_s compares the same work on two
commits.  See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import os

# pinned before numpy loads; BENCHMARK.json passes the same values
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ["WEIGHTLAB_THREADS"] = str(min(
    int(os.environ.get("WEIGHTLAB_THREADS") or 2), os.cpu_count() or 1))

import argparse
import gc
import importlib
import importlib.util
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("chain", "fields", "verify-all")
NOMINAL_OP_S = {"chain": 1.25, "fields": 2.0, "verify-all": 6.0}
MIN_OPS = 7                 # verify-all would get 5 ops at 30 s; its median
                            # is the noisiest, so it gets 7
SETUP_SAMPLES = 5
# start no op after this many seconds, so a run ends within 180 s;
# ops skipped this way count as failed
START_CUTOFF_S = 140.0
CHILD_TIMEOUT_S = 170.0

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("op_p50_s", "s"),
              ("peak_rss_mb", "MiB"), ("pass_frac", "ratio")]


def _measure_hash(self):
    return hash(self.kind)


def import_weightlab():
    """Import weightlab from the checkout's src/ and nowhere else.

    The package's ``Measure`` defines ``__eq__`` without ``__hash__``, which
    Python 3.11 rejects as the dataclass default in ``weightclass``.  Before
    that module runs, ``Measure`` gets a hash of its kind, consistent with
    its ``__eq__``, and only if it has none.  No ``Measure`` is hashed inside
    the package, so no computed value changes.
    """
    pkg_dir = SRC / "weightlab"
    init = pkg_dir / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: weightlab sources not found at {pkg_dir}")
    spec = importlib.util.spec_from_file_location(
        "weightlab", init, submodule_search_locations=[str(pkg_dir)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules["weightlab"] = pkg
    funcspace = importlib.import_module("weightlab.funcspace")
    if funcspace.Measure.__hash__ is None:
        funcspace.Measure.__hash__ = _measure_hash
    spec.loader.exec_module(pkg)
    importlib.import_module("weightlab.cli")
    return pkg


def child_argv(args, workload, *extra):
    argv = [sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(args.seed), *extra]
    return argv + (["--tiny"] if args.tiny else [])


def time_setup(args, samples):
    """Median time from spawning a fresh interpreter until it has imported
    weightlab and generated one op's inputs."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        with subprocess.Popen(child_argv(args, args.workload, "--setup-only"),
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.communicate(timeout=CHILD_TIMEOUT_S)
        if line.strip() != "ready" or proc.returncode != 0:
            raise SystemExit("error: set-up child failed")
        times.append(t1 - t0)
    return statistics.median(times)


def run_ops(w, seed, ops, tmpdir, t_start, tracer=None):
    """Times the ops with these indices; returns (durations of the ops that
    ran, ops failed)."""
    durations, failed = [], 0
    for k, i in enumerate(ops):
        if time.perf_counter() - t_start > START_CUTOFF_S:
            print(f"stopped before op {i}: start cut-off reached",
                  file=sys.stderr)
            return durations, failed + len(ops) - k
        try:
            inputs = w.inputs(seed, i, tmpdir)
            op = w.prepare(inputs, tmpdir)
            gc.collect()
            if tracer is not None:
                tracer.op = i
            t0 = time.perf_counter()
            result = op()
            durations.append(time.perf_counter() - t0)
            w.check(inputs, result)
        except workloads.CheckFailed as err:
            failed += 1
            print(f"op {i} failed its check: {err}", file=sys.stderr)
        except Exception:               # counted, reported, and the run goes on
            failed += 1
            print(f"op {i} raised:", file=sys.stderr)
            traceback.print_exc()
    return durations, failed


def run_workload(args):
    t_start = time.perf_counter()
    wl = import_weightlab()
    w = workloads.make(args.workload, wl, tiny=args.tiny)
    tmpdir = tempfile.mkdtemp(prefix=".tmp-", dir=HERE)
    try:
        if args.setup_only:
            w.inputs(args.seed, 0, tmpdir)
            print("ready", flush=True)
            return 0
        n_ops = max(MIN_OPS, round(args.seconds / NOMINAL_OP_S[args.workload]))
        if args.trace:
            m = max(2, n_ops // 4 * 2)
            tracer = spans.Tracer()
            # an untimed first op takes the slow start of a fresh process;
            # then each op runs untraced and traced on the same inputs, in
            # alternating order, so drift and repetition cancel
            _, failed = run_ops(w, args.seed, [m], tmpdir, t_start)
            diffs = []
            for i in range(m):
                times = {}
                for traced in ((False, True), (True, False))[i % 2]:
                    if traced:
                        tracer.install()
                    d, f = run_ops(w, args.seed, [i], tmpdir, t_start,
                                   tracer if traced else None)
                    tracer.uninstall()
                    failed += f
                    if d:
                        times[traced] = d[0]
                if len(times) == 2:
                    diffs.append(times[True] - times[False])
            attempted = 2 * m + 1
            overhead = statistics.median(diffs) if diffs else 0.0
            values = tracer.metrics(m, overhead)
            units = dict(spans.METRICS)
            notes = [f"traced ops {m}, untraced ops {m}, untimed first op 1"]
            beside = {}
        else:
            setup_s = time_setup(args, 1 if args.tiny else SETUP_SAMPLES)
            durations, failed = run_ops(w, args.seed, range(n_ops), tmpdir,
                                        t_start)
            attempted = n_ops
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            values = {
                "setup_s": setup_s,
                "wall_s": sum(durations),
                "op_p50_s": statistics.median(durations) if durations else 0.0,
                "peak_rss_mb": rss,
                "pass_frac": (attempted - failed) / attempted,
            }
            units = dict(END_TO_END)
            notes = [f"fail_frac {failed / attempted:g} ({failed}/{attempted})"]
            beside = {"op_p50_s": f"  ({len(durations)} ops)"}
        for line in notes + w.summary():
            print(f"# {args.workload}: {line}")
        for name, value in values.items():
            print(f"{args.workload:10s} {name:30s} {value:16.6f} {units[name]}"
                  + beside.get(name, ""))
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in values.items()},
        }))
        return 0
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def run_all(args):
    """Each workload untraced then traced, each run in a fresh process."""
    ok = True
    for name in WORKLOADS:
        for trace in ("0", "1"):
            argv = child_argv(args, name, "--seconds", str(args.seconds),
                              "--trace", trace)
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"{name}: exit {proc.returncode}", file=sys.stderr)
                ok = False
                continue
            ok = ok and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload (default: all, in subprocesses)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="nominal measured time; fixes the op count")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
