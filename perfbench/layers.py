"""Per-layer tracing of grazebeam, installed from outside the package.

Each traced function is replaced on every module attribute that refers to
it, so a call is seen whether it is looked up through the defining module
(``airy.airy_ratio``) or through a name bound by ``from .quadrature import
integrate_1d`` in another module.  Nothing under ``src/`` changes.

A span is recorded around each traced call.  Its self time is its duration
minus the part covered by traced calls it makes; the integrand passed to
``integrate_1d`` is a span of its own, so quadrature self time excludes the
integrand.  ``cli.main`` is the root of each op: calls made on worker threads
of the ``--threads`` fan-out have it as their parent, and its self time is
its duration minus the union of the intervals its children cover.

Counters are derived from the arguments (array sizes), never from values
the program reports about itself.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
import time
from collections import defaultdict

import numpy as np

from workloads import SUITE_NAMES

#: functions wrapped, by module; verification.run_suite is recorded per suite
TRACED = {
    "airy": ("airy_ai", "wronskian", "airy_ratio"),
    "raybeam": ("beam_matrix", "beam_field", "variational_matrices",
                "transport_residual"),
    "spectral": ("airy_quotient", "exact_solution"),
    "stationary": ("root_r", "reduced_integrand"),
    "grazing": ("u_integral", "z_integral"),
    "quadrature": ("integrate_1d",),
    "verification": ("run_suite",),
    "cli": ("main",),
}

_STAT_UNITS = {"calls": "count", "s": "s", "self_s": "s", "points": "count",
               "points_per_s": "1/s", "panels": "count", "evals": "count",
               "nonconverged": "count"}


def _layer(prefix, *stats):
    return [("%s.%s" % (prefix, s), _STAT_UNITS.get(s, "frac"))
            for s in stats]


#: (name, unit) of every per-layer metric, in output order
PER_LAYER = (
    _layer("spectral.airy_quotient", "calls", "points", "s", "points_per_s",
           "asymptotic_frac")
    + _layer("spectral.exact_solution", "calls", "s", "self_s")
    + [("spectral.grid_bytes", "B")]
    + _layer("airy.airy_ratio", "calls", "points", "s", "points_per_s",
             "direct_frac")
    + _layer("quadrature.integrate_1d", "calls", "s", "self_s", "panels",
             "evals", "useful_frac", "nonconverged")
    + _layer("stationary.reduced_integrand", "calls", "points", "s",
             "self_s")
    + _layer("stationary.root_r", "calls", "s")
    + _layer("grazing.u_integral", "calls", "s")
    + _layer("grazing.z_integral", "calls", "s")
    + [m for fn in ("beam_matrix", "beam_field", "variational_matrices",
                    "transport_residual")
       for m in _layer("raybeam." + fn, "calls", "s")]
    + _layer("airy.airy_ai", "calls", "s")
    + _layer("airy.wronskian", "calls", "s")
    + [("verification.%s.self_s" % s, "s") for s in SUITE_NAMES]
    + [("cli.self_s", "s"), ("trace_overhead_frac", "frac")]
)


def _union_length(intervals, lo, hi):
    """Length of the union of (start, end) intervals clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class Tracer:
    """Spans and counters for the traced functions of an imported grazebeam.

    ``install()`` patches the package, ``uninstall()`` restores it; stats
    accumulate across installs.  ``stats[name]`` maps stat names (``calls``,
    ``s``, ``self_s`` and per-function counters) to totals.
    """

    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(float))
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = None          # frame of the cli.main call in progress
        self._patches = []         # (module, attribute, original)

    # -- spans ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, args, kwargs, counters=None, root=False):
        """Run fn as a span; counters(result or exception) adds counts."""
        stack = self._stack()
        frame = [time.perf_counter(), 0.0, [] if root else None]
        stack.append(frame)
        if root:
            self._root = frame
        result = error = None
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            error = exc
        t1 = time.perf_counter()
        stack.pop()
        if root:
            self._root = None
            child = _union_length(frame[2], frame[0], t1)
        else:
            child = frame[1]
        extra = counters(result, error) if counters else ()
        with self._lock:
            st = self.stats[name]
            st["calls"] += 1
            st["s"] += t1 - frame[0]
            st["self_s"] += t1 - frame[0] - child
            for key, value in extra:
                if key.startswith("max_"):
                    st[key] = max(st[key], value)
                else:
                    st[key] += value
        # the parent's coverage includes the counting done above
        end = time.perf_counter()
        parent = stack[-1] if stack else self._root
        if parent is not None:
            if parent[2] is None:
                parent[1] += end - frame[0]
            else:
                with self._lock:
                    parent[2].append((frame[0], end))
        if error is not None:
            raise error
        return result

    # -- wrappers ------------------------------------------------------

    def _wrapper(self, module, fname, orig):
        name = "%s.%s" % (module, fname)
        call = self._call
        if name == "cli.main":
            def wrapped(*a, **kw):
                return call("cli", orig, a, kw, root=True)
        elif name == "verification.run_suite":
            def wrapped(suite, *a, **kw):
                return call("verification.%s" % suite, orig, (suite,) + a,
                            kw)
        elif name == "spectral.airy_quotient":
            crossover = self._airy.RATIO_CROSSOVER

            def wrapped(x, mu, nu, k, *a, **kw):
                def counters(result, error):
                    m = np.asarray(mu, dtype=float)
                    n = np.asarray(nu, dtype=float)
                    points = np.broadcast(m, n).size
                    if error is not None:
                        return (("points", points),)
                    m2 = (m/n)**2
                    beta = (np.abs(n)*k)**(2.0/3.0)
                    asym = (np.count_nonzero(beta*np.abs(1.0 + x - m2)
                                             >= crossover)
                            + np.count_nonzero(beta*np.abs(1.0 - m2)
                                               >= crossover))
                    return (("points", points), ("asym_args", asym),
                            ("max_grid_bytes", 16*points))
                return call(name, orig, (x, mu, nu, k) + a, kw, counters)
        elif name == "airy.airy_ratio":
            default = self._airy.RATIO_CROSSOVER

            def wrapped(z, *a, **kw):
                crossover = a[0] if a else kw.get("crossover", default)

                def counters(result, error):
                    zz = np.abs(np.asarray(z, dtype=complex))
                    return (("points", zz.size),
                            ("direct", np.count_nonzero(zz < crossover)))
                return call(name, orig, (z,) + a, kw, counters)
        elif name == "stationary.reduced_integrand":
            def wrapped(x, y, t, k, z, *a, **kw):
                return call(name, orig, (x, y, t, k, z) + a, kw,
                            lambda r, e: (("points", np.size(z)),))
        elif name == "quadrature.integrate_1d":
            spec_type = self._quadrature.IntegrandSpec

            def wrapped(spec, *a, **kw):
                if isinstance(spec, spec_type):
                    evaluator = spec.evaluator

                    def traced(u, *rest):
                        return call("quadrature.integrand", evaluator,
                                    (u,) + rest, {},
                                    lambda r, e: (("evals", np.size(u)),))
                    spec = dataclasses.replace(spec, evaluator=traced)

                def counters(result, error):
                    res = getattr(error, "result", None) if error else result
                    panels = res.panel_count if res is not None else 0
                    failed = error is not None or not res.converged
                    return (("panels", panels), ("nonconverged", int(failed)))
                return call(name, orig, (spec,) + a, kw, counters)
        else:
            def wrapped(*a, **kw):
                return call(name, orig, a, kw)
        wrapped.__wrapped__ = orig
        return wrapped

    def install(self):
        """Wrap every traced function on every grazebeam module binding it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if name == "grazebeam" or name.startswith("grazebeam.")}
        self._airy = modules["grazebeam.airy"]
        self._quadrature = modules["grazebeam.quadrature"]
        wrappers = {}
        for short, fnames in TRACED.items():
            for fname in fnames:
                orig = getattr(modules["grazebeam." + short], fname)
                wrappers[id(orig)] = (orig, self._wrapper(short, fname, orig))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, value))
        leaks = [(mod.__name__, attr) for mod in modules.values()
                 for attr, value in vars(mod).items()
                 if not attr.startswith("__")
                 and isinstance(value, (dict, list, tuple))
                 for item in (value.values() if isinstance(value, dict)
                              else value)
                 if id(item) in wrappers and wrappers[id(item)][0] is item]
        if leaks:
            self.uninstall()
            raise RuntimeError("traced functions reachable through "
                               "containers the tracer cannot patch: %s"
                               % leaks)

    def uninstall(self):
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches = []

    # -- metrics -------------------------------------------------------

    def metrics(self, rounds: int, traced_s: float, untraced_s: float):
        """Per-layer metrics per round of the workload, keyed as PER_LAYER."""
        st = self.stats

        def get(name, stat):
            return st[name][stat] if name in st else 0.0

        def ratio(a, b):
            return a/b if b else 0.0

        out = {}
        for metric, _unit in PER_LAYER:
            head, _, stat = metric.rpartition(".")
            if metric == "spectral.grid_bytes":
                value = get("spectral.airy_quotient", "max_grid_bytes")
            elif metric == "trace_overhead_frac":
                value = ratio(traced_s, untraced_s) - 1.0
            elif stat == "points_per_s":
                value = ratio(get(head, "points"), get(head, "s"))
            elif stat == "asymptotic_frac":
                value = ratio(get(head, "asym_args"), 2*get(head, "points"))
            elif stat == "direct_frac":
                value = ratio(get(head, "direct"), get(head, "points"))
            elif stat == "evals":
                value = get("quadrature.integrand", "evals")/rounds
            elif stat == "useful_frac":
                value = ratio(15*get(head, "panels"),
                              get("quadrature.integrand", "evals"))
            else:
                value = get(head, stat)/rounds
            out[metric] = float(value)
        return out
