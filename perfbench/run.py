"""grazebeam benchmark: closed-loop CLI workloads, with a separate traced run.

    python3 perfbench/run.py --workload oracle|sweep|suites|all \
        --seed N --seconds S --trace 0|1

One client drives ``grazebeam.cli.main`` in this process: an op is one
command line, and the next op starts when the previous one returns.  The
program is imported from ``src/`` of the checkout holding this file.  A run
times whole rounds (one pass over the workload's op list) until ``--seconds``
have elapsed, and checks every op's output (see workloads.py).

With ``--trace 0`` the last line of stdout carries the end-to-end metrics;
``setup_s`` is the median over fresh interpreters of importing grazebeam and
making the workload's warm-up call.  With ``--trace 1`` each round runs
once untraced and once traced (see layers.py), and the last line carries
the per-layer metrics, per round.  ``--workload all`` runs each workload in its
own process and prints every metric with its unit.  Lines before the last
start with ``#``; one holds the run's metadata.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import layers  # noqa: E402
import workloads  # noqa: E402

#: set-up runs: at least the first, at most the second, and more than the
#: first only while their total stays under SETUP_BUDGET_S
SETUP_REPEATS = (3, 9)
SETUP_BUDGET_S = 4.0
TAIL_PERCENTILES = (90.0, 95.0, 99.0, 99.9)
E2E_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
             "peak_rss_mb": "MB", "setup_s": "s"}

_SETUP_CHILD = """\
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from grazebeam import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[2]))
sys.exit(0 if code == 0 else 1)
"""


class BenchError(Exception):
    """The benchmark cannot measure: no result is printed."""


def measure_setup(workload: str):
    """Wall times of fresh interpreters importing grazebeam and warming up."""
    argv = json.dumps(list(workloads.WARMUP[workload].argv))
    times = []
    while len(times) < SETUP_REPEATS[0] or (
            len(times) < SETUP_REPEATS[1] and sum(times) < SETUP_BUDGET_S):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD, SRC, argv],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=170)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            raise BenchError("set-up run failed: %s" % tail)
    return times


def run_op(cli, op):
    """(seconds, exit code or None on an exception, output or error)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(list(op.argv))
        except Exception as exc:  # a traceback is a failed op
            return (time.perf_counter() - t0, None,
                    "%s: %s" % (type(exc).__name__, exc))
        elapsed = time.perf_counter() - t0
    return elapsed, code, out.getvalue()


class Tally:
    """Latencies and failures of the checked ops."""

    def __init__(self, reference):
        self.reference = reference
        self.latencies = []
        self.failures = []

    def run_round(self, cli, ops):
        total = 0.0
        for op in ops:
            elapsed, code, out = run_op(cli, op)
            self.latencies.append(elapsed)
            total += elapsed
            reason = workloads.check(op, code, out, self.reference)
            if reason:
                self.failures.append("%s: %s" % (op.key[:80], reason))
        return total


def tail(latencies):
    """(percentile, value): the highest of TAIL_PERCENTILES with at least
    ten samples beyond it.  Below 100 samples none has, and the lowest is
    used, interpolated between the slowest samples."""
    n = len(latencies)
    usable = [p for p in TAIL_PERCENTILES if n*(1.0 - p/100.0) >= 10.0]
    p = usable[-1] if usable else TAIL_PERCENTILES[0]
    if n == 1:
        return p, latencies[0]
    cuts = statistics.quantiles(latencies, n=1000, method="inclusive")
    return p, cuts[int(round(p*10)) - 1]


def _src_digest():
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "grazebeam", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0"
                          + fh.read())
    return digest.hexdigest()[:16]


def _git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _blas_threads():
    """Thread settings of the BLAS libraries numpy and scipy load."""
    import ctypes
    import numpy
    import scipy
    env = {k: os.environ.get(k) for k in ("OMP_NUM_THREADS",
                                          "OPENBLAS_NUM_THREADS",
                                          "MKL_NUM_THREADS")}
    libs = {}
    for pkg in (numpy, scipy):
        pattern = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)),
                               pkg.__name__ + ".libs", "*openblas*")
        for path in glob.glob(pattern):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    libs[os.path.basename(path)] = fn()
                    break
    return {"env": env, "openblas_threads": libs}


def metadata(args, rounds, extra):
    import numpy
    import scipy
    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "rounds": rounds,
            "git_sha": _git_sha(), "src_sha256": _src_digest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas": _blas_threads()}
    meta.update(extra)
    return meta


def _traced_round(tracer, tally, cli, ops):
    tracer.install()
    try:
        return tally.run_round(cli, ops)
    finally:
        tracer.uninstall()


def run_workload(args):
    setup = [] if args.trace else measure_setup(args.workload)
    sys.path.insert(0, SRC)
    try:
        from grazebeam import cli
    except ImportError as exc:
        raise BenchError("cannot import grazebeam from %s: %s" % (SRC, exc))
    tally = Tally(workloads.load_reference())
    warm = run_op(cli, workloads.WARMUP[args.workload])
    if warm[1] != 0:
        print("# warm-up failed: %s" % str(warm[2]).strip()[:200],
              file=sys.stderr)

    tracer = layers.Tracer() if args.trace else None
    traced_s = untraced_s = 0.0
    n_rounds = 0
    start = time.perf_counter()
    for ops in workloads.rounds(args.workload, args.seed):
        if tracer is None:
            untraced_s += tally.run_round(cli, ops)
        elif n_rounds % 2 == 0:
            # alternate which pass goes first, so neither always pays for
            # the memory the other leaves mapped
            untraced_s += tally.run_round(cli, ops)
            traced_s += _traced_round(tracer, tally, cli, ops)
        else:
            traced_s += _traced_round(tracer, tally, cli, ops)
            untraced_s += tally.run_round(cli, ops)
        n_rounds += 1
        if time.perf_counter() - start >= args.seconds:
            break

    lat = tally.latencies
    extra = {"ops": len(lat), "failures": tally.failures[:5]}
    if tracer is not None:
        values = tracer.metrics(n_rounds, traced_s, untraced_s)
        units = dict(layers.PER_LAYER)
        extra["traced_op_s"] = traced_s
        extra["layer_share"] = _layer_shares(tracer, traced_s)
    else:
        pct, tail_s = tail(lat)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {"ops_per_s": len(lat)/untraced_s,
                  "op_p50_ms": 1e3*statistics.median(lat),
                  "op_tail_ms": 1e3*tail_s,
                  "peak_rss_mb": rss_kb/1024.0,
                  "setup_s": statistics.median(setup)}
        units = E2E_UNITS
        extra.update({"op_tail_percentile": pct, "op_samples": len(lat),
                      "setup_repeats": len(setup), "setup_samples_s": setup})
    failed = len(tally.failures)
    extra["failed_frac"] = failed/len(lat)
    return {"correct": failed == 0, "attempted": len(lat), "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in values.items()}}, \
        metadata(args, n_rounds, extra)


def _layer_shares(tracer, traced_s):
    """Self time of each traced span as a share of traced op time."""
    return {name: round(st["self_s"]/traced_s, 4)
            for name, st in sorted(tracer.stats.items(),
                                   key=lambda kv: -kv[1]["self_s"])}


def run_all(args):
    """Each workload in its own process; one table of every metric."""
    results, correct, attempted, failed = {}, True, 0, 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise BenchError("workload %s failed" % name)
        res = json.loads(lines[-1])
        for line in lines[:-1]:
            print(line)
        correct = correct and res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        for metric, mv in res["metrics"].items():
            results["%s.%s" % (name, metric)] = mv
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": results}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args)
        else:
            result, meta = run_workload(args)
            print("# meta " + json.dumps(meta, sort_keys=True))
            for name, mv in result["metrics"].items():
                print("# %-8s %-40s %16s %s" % (args.workload, name,
                                                "%.6g" % mv["value"],
                                                mv["unit"]))
            print("# %-8s %-40s %16s" % (args.workload, "failed_frac",
                                         "%.6g" % meta["failed_frac"]))
            for line in meta["failures"]:
                print("# failed: " + line, file=sys.stderr)
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
