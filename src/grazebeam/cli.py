"""Command-line front end: tables, amplitude sweeps and verification suites.

All numerical work lives in the library modules; the commands here parse
values, walk (x, k) grids in order, and serialize CSV/JSON.  Numbers are
written with 17 significant digits so double precision round-trips, and
output is byte-stable for identical configurations.

Exit codes: 0 success, 1 usage error or an argument outside the domain of
the library (one line on stderr), 2 numerical non-convergence or a failed
verification suite, 3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import grazing, raybeam, verification

__all__ = ["main"]

_SPECTRAL_K_CAP = 1e4
_METHODS = ("closed", "u-integral", "z-integral", "spectral")

#: most values one list, or cells one grid command, may hold
MAX_VALUES = 10**6

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def finite(text: str) -> float:
    """float(text), refusing nan and infinities (its name shows in errors)."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("non-finite value %r" % text.strip())
    return value


def _parse_values(text: str):
    """Parse '0.5,1,2' or 'start:stop:step' (inclusive stop, within 1e-9).

    Every value must be finite, and there must be at least one and at most
    MAX_VALUES.
    """
    text = text.strip()
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ValueError("range needs start:stop:step")
            start, stop, step = (finite(p) for p in parts)
            if step == 0 or (stop - start)*step < 0:
                raise ValueError("inconsistent range direction")
            # min() keeps a span that overflowed to inf countable
            n = int(math.floor(min((stop - start)/step + 1e-9,
                                   MAX_VALUES))) + 1
            _check_count(n, "range %r" % text)
            return [start + i*step for i in range(n)]
        values = [finite(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise UsageError("cannot parse values %r: %s" % (text, exc))
    if not values:
        raise UsageError("need at least one value, got %r" % text)
    _check_count(len(values), "list %r" % text)
    return values


def _check_count(n: int, what: str):
    if n > MAX_VALUES:
        raise UsageError("%s holds more than %d values" % (what, MAX_VALUES))


def _fmt(v) -> str:
    if v is None:
        return ""
    return "%.17g" % v


def _emit(lines, out_path):
    payload = "\n".join(lines) + "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            print("cannot write %s: %s" % (out_path, exc), file=sys.stderr)
            return EXIT_IO
    else:
        sys.stdout.write(payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_ray_trace(args) -> int:
    ys = _parse_values(args.y)
    lines = ["y,x,t,xi,eta,tau,hamiltonian"]
    for y in ys:
        p = raybeam.central_ray(y)
        lines.append(",".join(_fmt(v) for v in
                              (p.y, p.x, p.t, p.xi, p.eta, p.tau,
                               raybeam.hamiltonian(p))))
    return _emit(lines, args.out)


def _cmd_beam_field(args) -> int:
    xs, ys, ts = (_parse_values(a) for a in (args.x, args.y, args.t))
    _check_count(len(xs)*len(ys)*len(ts), "the x-y-t grid")
    k = float(args.k)
    lines = ["x,y,t,k,re_v,im_v,abs_v"]
    for x in xs:
        for y in ys:
            for t in ts:
                v = raybeam.beam_field(x, y, t, k)
                lines.append(",".join(_fmt(q) for q in
                                      (x, y, t, k, v.real, v.imag, abs(v))))
    return _emit(lines, args.out)


def _cmd_beam_on_ray(args) -> int:
    xs = _parse_values(args.x)
    lines = ["x,re_v,im_v,abs_v"]
    for x in xs:
        v = raybeam.beam_on_ray(x)
        lines.append(",".join(_fmt(q) for q in (x, v.real, v.imag, abs(v))))
    return _emit(lines, args.out)


def _cmd_graze_w(args) -> int:
    xs = _parse_values(args.x)
    ks = _parse_values(args.k) if args.method != "closed" else [None]
    if not 0 < args.tol < 1:
        raise UsageError("tol must lie in (0, 1)")
    if any(k is not None and k <= 0 for k in ks):
        raise UsageError("k values must be positive")
    if args.method == "spectral" and any(k > _SPECTRAL_K_CAP for k in ks):
        raise UsageError(
            "spectral method refused for k > %g: the three-fold "
            "quadrature budget grows too fast; use u-integral or "
            "z-integral instead" % _SPECTRAL_K_CAP)
    if args.threads < 1:
        raise UsageError("thread budget must be at least 1")
    _check_count(len(xs)*len(ks), "the x-k grid")
    # looked up per call: perfbench/layers.py rebinds the routes on grazing
    route = {"closed": None,
             "u-integral": grazing.u_integral,
             "z-integral": grazing.z_integral,
             "spectral": grazing.spectral_on_ray}[args.method]
    tol = max(args.tol, 0.02) if args.method == "spectral" else args.tol
    lines = ["x,k,method,re_w,im_w,abs_w,re_closed,im_closed,rel_err,"
             "quad_err,status"]
    any_bad = False
    for x in xs:
        closed = grazing.w_on_ray_closed(x)
        for k in ks:
            if route is None:
                w, qerr, status = closed, 0.0, "ok"
            else:
                res = route(x, k, tol)
                w, qerr = res.value, res.error_estimate
                status = "ok" if res.converged else "non-converged"
            any_bad = any_bad or status != "ok"
            lines.append(",".join(
                [_fmt(x), _fmt(k), args.method, _fmt(w.real), _fmt(w.imag),
                 _fmt(abs(w)), _fmt(closed.real), _fmt(closed.imag),
                 _fmt(abs(w - closed)/abs(closed)), _fmt(qerr), status]))
    code = _emit(lines, args.out)
    if code:
        return code
    return EXIT_NUMERICAL if any_bad else EXIT_OK


def _cmd_graze_reflected(args) -> int:
    xs = _parse_values(args.x)
    lines = ["x,abs_v,abs_w,abs_v_minus_w,ratio"]
    for x in xs:
        v = raybeam.beam_on_ray(x)
        w = grazing.w_on_ray_closed(x)
        d = v - w
        lines.append(",".join(_fmt(q) for q in
                              (x, abs(v), abs(w), abs(d), abs(d)/abs(v))))
    return _emit(lines, args.out)


def _cmd_verify(args) -> int:
    report = verification.run_suite(args.suite)
    payload = json.dumps(report.to_dict(), indent=2)
    code = _emit([payload], args.out)
    if code:
        return code
    return EXIT_OK if report.overall else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process on first use.

    Reuse carries nothing from one call to the next: ``parse_args`` makes
    a fresh Namespace each time, no argument has a mutable default, and
    :meth:`_Parser.error` raises instead of recording state.
    """
    p = _Parser(prog="grazebeam",
                description="Grazing-beam numerical laboratory")
    sub = p.add_subparsers(dest="group", required=True)

    ray = sub.add_parser("ray", help="ray geometry").add_subparsers(
        dest="action", required=True)
    trace = ray.add_parser("trace", help="tabulate the central ray")
    trace.add_argument("--y", required=True,
                       help="y values: comma list or start:stop:step")
    trace.add_argument("--out")
    trace.set_defaults(func=_cmd_ray_trace)

    beam = sub.add_parser("beam", help="beam evaluation").add_subparsers(
        dest="action", required=True)
    field = beam.add_parser("field", help="beam field on a grid")
    field.add_argument("--x", required=True)
    field.add_argument("--y", required=True)
    field.add_argument("--t", required=True)
    field.add_argument("--k", required=True, type=finite)
    field.add_argument("--out")
    field.set_defaults(func=_cmd_beam_field)
    onray = beam.add_parser("on-ray", help="beam value along the ray")
    onray.add_argument("--x", required=True)
    onray.add_argument("--out")
    onray.set_defaults(func=_cmd_beam_on_ray)

    graze = sub.add_parser("graze", help="grazing amplitude").add_subparsers(
        dest="action", required=True)
    w = graze.add_parser("w", help="reflected amplitude by method")
    w.add_argument("--x", required=True)
    w.add_argument("--k", default="1000")
    w.add_argument("--method", default="closed", choices=_METHODS)
    w.add_argument("--tol", type=finite, default=1e-8)
    w.add_argument("--out")
    w.add_argument("--threads", type=int, default=1,
                   help="no effect, must be at least 1: cells run in order "
                        "on one thread; kept while the perfbench sweep ops "
                        "pass --threads 2")
    w.set_defaults(func=_cmd_graze_w)
    refl = graze.add_parser("reflected", help="emerging-amplitude curve")
    refl.add_argument("--x", required=True)
    refl.add_argument("--out")
    refl.set_defaults(func=_cmd_graze_reflected)

    ver = sub.add_parser("verify", help="verification suites")
    ver.add_argument("suite", choices=sorted(verification.SUITES))
    ver.add_argument("--out")
    ver.set_defaults(func=_cmd_verify)
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:  # DomainError and the other argument checks
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except OverflowError as exc:  # finite input too large for a float result
        print("error: input too large: %s" % exc.args[-1], file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
