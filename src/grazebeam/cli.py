"""Command-line front end: tables, amplitude sweeps and verification suites.

All numerical work, and every rule on the numbers a route accepts, lives
in the library; the commands here parse values, walk (x, k) grids in
order, and serialize CSV/JSON, each table through ``_table``.  Numbers are
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

_METHODS = ("closed", "u-integral", "z-integral", "spectral")

#: most values one list, or cells one grid command, may hold
MAX_VALUES = 10**6

#: most k of one u-integral quadrature (each adds ~8 MB on a spent budget)
U_BLOCK = 16

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
            # a quotient: the product of two tiny reals underflows to -0.0
            if step == 0 or (stop - start)/step < 0:
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
    """One CSV field: None empty, text as is, a number to 17 digits."""
    if v is None:
        return ""
    return v if isinstance(v, str) else "%.17g" % v


def _parts(v) -> tuple:
    return v.real, v.imag, abs(v)


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


def _table(args, header: str, rows) -> int:
    """Write the CSV table of ``rows`` under ``header`` to --out or stdout."""
    return _emit([header] + [",".join(map(_fmt, row)) for row in rows],
                 args.out)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_ray_trace(args) -> int:
    rows = ((p.y, p.x, p.t, p.xi, p.eta, p.tau, raybeam.hamiltonian(p))
            for p in map(raybeam.central_ray, _parse_values(args.y)))
    return _table(args, "y,x,t,xi,eta,tau,hamiltonian", rows)


def _cmd_beam_field(args) -> int:
    xs, ys, ts = (_parse_values(a) for a in (args.x, args.y, args.t))
    _check_count(len(xs)*len(ys)*len(ts), "the x-y-t grid")
    k = float(args.k)
    rows = ((x, y, t, k, *_parts(raybeam.beam_field(x, y, t, k)))
            for x in xs for y in ys for t in ts)
    return _table(args, "x,y,t,k,re_v,im_v,abs_v", rows)


def _cmd_beam_on_ray(args) -> int:
    rows = ((x, *_parts(raybeam.beam_on_ray(x)))
            for x in _parse_values(args.x))
    return _table(args, "x,re_v,im_v,abs_v", rows)


def _cmd_graze_w(args) -> int:
    xs = _parse_values(args.x)
    ks = _parse_values(args.k) if args.method != "closed" else [None]
    if not 0 < args.tol < 1:
        raise UsageError("tol must lie in (0, 1)")
    if args.threads < 1:
        raise UsageError("thread budget must be at least 1")
    _check_count(len(xs)*len(ks), "the x-k grid")
    # looked up per call: perfbench/layers.py rebinds the routes on grazing
    route = {"closed": None,
             "u-integral": grazing.u_integral,
             "z-integral": grazing.z_integral,
             "spectral": grazing.spectral_on_ray}[args.method]
    rows = []
    for x in xs:
        closed = grazing.w_on_ray_closed(x)
        if route is None:
            cells = [(closed, 0.0, True)]
        elif args.method == "u-integral":  # one quadrature per U_BLOCK k
            cells = []
            for i in range(0, len(ks), U_BLOCK):
                res = route(x, ks[i:i + U_BLOCK], args.tol)
                cells += [(w, qerr, res.converged)
                          for w, qerr in zip(res.value, res.error_estimate)]
        else:
            cells = [(res.value, res.error_estimate, res.converged)
                     for res in (route(x, k, args.tol) for k in ks)]
        rows += [(x, k, args.method, *_parts(w), closed.real, closed.imag,
                  abs(w - closed)/abs(closed), qerr,
                  "ok" if ok else "non-converged")
                 for k, (w, qerr, ok) in zip(ks, cells)]
    code = _table(args, "x,k,method,re_w,im_w,abs_w,re_closed,im_closed,"
                        "rel_err,quad_err,status", rows)
    return code or (EXIT_OK if all(r[-1] == "ok" for r in rows)
                    else EXIT_NUMERICAL)


def _cmd_graze_reflected(args) -> int:
    def row(x):
        v, w = raybeam.beam_on_ray(x), grazing.w_on_ray_closed(x)
        return x, abs(v), abs(w), abs(v - w), abs(v - w)/abs(v)
    return _table(args, "x,abs_v,abs_w,abs_v_minus_w,ratio",
                  map(row, _parse_values(args.x)))


def _cmd_verify(args) -> int:
    report = verification.run_suite(args.suite)
    code = _emit([json.dumps(report.to_dict(), indent=2)], args.out)
    return code or (EXIT_OK if report.overall else EXIT_NUMERICAL)


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def _command(group, name: str, help: str, func, *options):
    """Declare subcommand ``name``: its options, then --out, then its handler.

    An option is a flag, required and kept as text, or a pair of a flag and
    the keywords of ``add_argument``.
    """
    p = group.add_parser(name, help=help)
    for opt in options:
        flag, kw = (opt, {"required": True}) if isinstance(opt, str) else opt
        p.add_argument(flag, **kw)
    p.add_argument("--out")
    p.set_defaults(func=func)
    return p


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
    ray, beam, graze = (
        sub.add_parser(name, help=text).add_subparsers(dest="action",
                                                       required=True)
        for name, text in (("ray", "ray geometry"),
                           ("beam", "beam evaluation"),
                           ("graze", "grazing amplitude")))
    _command(ray, "trace", "tabulate the central ray", _cmd_ray_trace,
             ("--y", dict(required=True,
                          help="y values: comma list or start:stop:step")))
    _command(beam, "field", "beam field on a grid", _cmd_beam_field,
             "--x", "--y", "--t", ("--k", dict(required=True, type=finite)))
    _command(beam, "on-ray", "beam value along the ray", _cmd_beam_on_ray,
             "--x")
    w = _command(graze, "w", "reflected amplitude by method", _cmd_graze_w,
                 "--x", ("--k", dict(default="1000")),
                 ("--method", dict(default="closed", choices=_METHODS)),
                 ("--tol", dict(type=finite, default=1e-8)))
    w.add_argument("--threads", type=int, default=1,
                   help="no effect, must be at least 1: cells run in order "
                        "on one thread; kept while the perfbench sweep ops "
                        "pass --threads 2")
    _command(graze, "reflected", "emerging-amplitude curve",
             _cmd_graze_reflected, "--x")
    _command(sub, "verify", "verification suites", _cmd_verify,
             ("suite", dict(choices=sorted(verification.SUITES))))
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
