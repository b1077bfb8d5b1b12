"""The ops of each benchmark workload, and the checks on their outputs.

An op is one ``grazebeam`` command line.  A round is one pass over a
workload's op list.  Round 0 is the documented grid, whose outputs are
checked against ``reference.json``; later rounds draw their x values from a
generator seeded with ``--seed``, so a run covers fresh inputs and a cache
of earlier results cannot stand in for the computation.  Every ``graze w``
row, in every round, must be converged, finite and within the
``ENVELOPE * k**(-1/6)`` relative band around the closed form, which the
finite-k routes approach like k^{-1/6}.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass

WORKLOADS = ("oracle", "sweep", "suites")

#: relative distance to the closed form allowed at wavenumber k, as a
#: multiple of k^{-1/6}; measured maxima over the benchmark's x ranges are
#: 1.15 (spectral), 1.27 (u-integral) and 1.41 (z-integral)
ENVELOPE = 2.0

#: relative tolerance against the stored reference, per route
TOLERANCE = {"spectral": 1e-10, "u-integral": 1e-8, "z-integral": 1e-8,
             "table": 1e-12}

ORACLE_K = (100.0, 300.0, 1000.0)
ORACLE_X = (0.95, 1.05)          # seeded range; round 0 uses x = 1
SWEEP_U_K = tuple(10.0**(3 + 0.25*i) for i in range(13))
SWEEP_U_X = (0.05, 4.0, 80)      # (lo, hi, rows)
SWEEP_Z_K = (1e3, 1e4, 1e5)
SWEEP_Z_X = (0.25, 4.0, 16)
SUITE_NAMES = ("airy", "beam", "appendix1", "appendix2", "appendix3",
               "closedform")
TABLE_OPS = (
    ("ray", "trace", "--y=-2:2:0.5"),
    ("beam", "field", "--x", "0,0.25", "--y", "0,1", "--t", "0", "--k",
     "100"),
    ("graze", "reflected", "--x", "0.0001,0.01,0.1,1,2"),
)

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


@dataclass(frozen=True)
class Op:
    """One CLI invocation; ``argv`` excludes the program name."""

    argv: tuple

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _fmt(v: float) -> str:
    return "%.17g" % v


def _graze(xs, ks, method, threads):
    return Op(("graze", "w", "--x", ",".join(_fmt(x) for x in xs),
               "--k", ",".join(_fmt(k) for k in ks), "--method", method,
               "--threads", str(threads)))


def _grid(lo, hi, n):
    return [lo + (hi - lo)*i/(n - 1) for i in range(n)]


def _strata(rng, lo, hi, n):
    """One uniform draw in each of n equal cells of [lo, hi)."""
    return [lo + (hi - lo)*(i + rng.random())/n for i in range(n)]


def round_ops(workload: str, rnd: int, rng: random.Random):
    """Ops of round ``rnd``; rounds after 0 draw their x values from rng."""
    if workload == "oracle":
        xs = ([1.0]*len(ORACLE_K) if rnd == 0
              else [rng.uniform(*ORACLE_X) for _ in ORACLE_K])
        return [_graze([x], [k], "spectral", 1) for x, k in zip(xs, ORACLE_K)]
    if workload == "sweep":
        pick = _grid if rnd == 0 else (lambda *a: _strata(rng, *a))
        return ([_graze([x], SWEEP_U_K, "u-integral", 2)
                 for x in pick(*SWEEP_U_X)]
                + [_graze([x], SWEEP_Z_K, "z-integral", 2)
                   for x in pick(*SWEEP_Z_X)])
    if workload == "suites":
        # fixed grids: the verify suites take no inputs
        return ([Op(("verify", s)) for s in SUITE_NAMES]
                + [Op(argv) for argv in TABLE_OPS])
    raise ValueError("unknown workload %r" % workload)


def rounds(workload: str, seed: int):
    """Endless sequence of op lists: the reference grid, then seeded rounds."""
    rng = random.Random(seed)
    rnd = 0
    while True:
        yield round_ops(workload, rnd, rng)
        rnd += 1


#: one call per workload before timing starts; its inputs are in no round
WARMUP = {
    "oracle": _graze([1.1], [100.0], "spectral", 1),
    "sweep": _graze([4.5], SWEEP_U_K, "u-integral", 2),
    "suites": Op(("verify", "airy")),
}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def w_closed(x: float) -> complex:
    """(1/2)(1 - x + 2 i sqrt(x))^{-1/2}, computed here, not by grazebeam."""
    return 0.5/cmath.sqrt(complex(1.0 - x, 2.0*math.sqrt(x)))


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["ops"]


def _csv_rows(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], [r for r in rows[1:] if r]


def _parse_list(text):
    return [float(v) for v in text.split(",")]


def summarize(op: Op, code: int, out: str) -> dict:
    """The parts of an op's output that the checks compare."""
    if op.argv[0] == "verify":
        report = json.loads(out)
        return {"exit": code,
                "verdicts": [[c["name"], c["passed"]]
                             for c in report["checks"]]}
    _, rows = _csv_rows(out)
    if op.argv[:2] == ("graze", "w"):
        return {"exit": code, "w": [[float(r[3]), float(r[4])] for r in rows]}
    return {"exit": code, "rows": [[float(v) for v in r] for r in rows]}


def check(op: Op, code, out: str, reference: dict):
    """None if the op's output is correct, else a one-line reason.

    ``code`` is None when the call raised; ``out`` then holds the error.
    """
    if code is None:
        return "traceback: %s" % out
    ref = reference.get(op.key)
    want = ref["exit"] if ref else 0
    if code != want:
        return "exit %d, recorded %d" % (code, want)
    try:
        if op.argv[:2] == ("graze", "w"):
            return _check_graze(op, out, ref)
        got = summarize(op, code, out)
    except (ValueError, KeyError, IndexError) as exc:
        return "unparseable output: %s" % exc
    if ref is None:
        return "no reference for %r" % op.key
    if "verdicts" in ref:
        if got["verdicts"] != ref["verdicts"]:
            return "verdicts differ from the reference"
        return None
    tol = TOLERANCE["table"]
    if len(got["rows"]) != len(ref["rows"]) or any(
            len(a) != len(b) or any(abs(u - v) > tol*max(1.0, abs(v))
                                    for u, v in zip(a, b))
            for a, b in zip(got["rows"], ref["rows"])):
        return "table differs from the reference beyond %g" % tol
    return None


def _check_graze(op: Op, out: str, ref):
    argv = op.argv
    xs = _parse_list(argv[argv.index("--x") + 1])
    ks = _parse_list(argv[argv.index("--k") + 1])
    method = argv[argv.index("--method") + 1]
    _, rows = _csv_rows(out)
    cells = [(x, k) for x in xs for k in ks]
    if len(rows) != len(cells):
        return "%d rows for %d cells" % (len(rows), len(cells))
    if ref is not None and len(ref["w"]) != len(rows):
        return "reference has %d rows" % len(ref["w"])
    for i, ((x, k), row) in enumerate(zip(cells, rows)):
        if float(row[0]) != x or float(row[1]) != k:
            return "row %d is for (%s, %s), not (%r, %r)" % (i, row[0],
                                                              row[1], x, k)
        if row[-1] != "ok":
            return "%s row at x=%r k=%r" % (row[-1], x, k)
        w = complex(float(row[3]), float(row[4]))
        if not (math.isfinite(w.real) and math.isfinite(w.imag)):
            return "non-finite w at x=%r k=%r" % (x, k)
        closed = w_closed(x)
        rel = abs(w - closed)/abs(closed)
        if rel > ENVELOPE*k**(-1.0/6.0):
            return ("w at x=%r k=%r is %.3g from the closed form, outside "
                    "%g k^-1/6" % (x, k, rel, ENVELOPE))
        if ref is not None:
            w_ref = complex(*ref["w"][i])
            if abs(w - w_ref) > TOLERANCE[method]*abs(w_ref):
                return ("w at x=%r k=%r differs from the reference by %.3g "
                        "relative" % (x, k, abs(w - w_ref)/abs(w_ref)))
    return None
