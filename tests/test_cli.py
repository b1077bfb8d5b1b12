"""Command-line interface: parsing, CSV contracts, exit codes."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import grazebeam
from grazebeam import (airy, cli, grazing, quadrature, raybeam, spectral,
                       stationary)
from grazebeam.cli import EXIT_USAGE, main
from grazebeam.errors import DomainError


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestRayTrace:
    def test_range_produces_rows_and_null_hamiltonian(self, capsys):
        code, out = run_cli(capsys, "ray", "trace", "--y=-2:2:0.5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "y,x,t,xi,eta,tau,hamiltonian"
        assert len(lines) == 1 + 9
        for row in lines[1:]:
            assert abs(float(row.split(",")[-1])) <= 1e-12
        last = lines[-1].split(",")
        assert float(last[0]) == 2.0 and float(last[1]) == 1.0

    def test_malformed_range_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "ray", "trace", "--y", "nope:1")
        assert code == 1


class TestBeamCommands:
    def test_on_ray_rows(self, capsys):
        code, out = run_cli(capsys, "beam", "on-ray", "--x", "0,1")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "x,re_v,im_v,abs_v"
        assert float(rows[1].split(",")[3]) == pytest.approx(1.0)
        assert float(rows[2].split(",")[3]) == pytest.approx(29.0**-0.25)

    def test_field_grid(self, capsys):
        code, out = run_cli(capsys, "beam", "field", "--x", "0",
                            "--y", "0", "--t", "0", "--k", "10")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "x,y,t,k,re_v,im_v,abs_v"
        assert float(rows[1].split(",")[4]) == pytest.approx(1.0)

    @pytest.mark.parametrize("x, t", [("1e300", "0"), ("0", "1e300")])
    def test_field_far_off_ray_is_zero(self, capsys, x, t):
        # Im M is positive definite, so the Gaussian there is below double
        # range; the quadratic form of the phase overflows to NaN unguarded
        code = main(["beam", "field", "--x", x, "--y", "0", "--t", t,
                     "--k", "1"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        row = captured.out.strip().splitlines()[1].split(",")
        assert [float(v) for v in row[4:]] == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("y", ["1e80", "1e100"])
    def test_field_far_along_ray_is_zero(self, capsys, y):
        # the least eigenvalue of Im M (about 16/y^6) bounds k Im psi far
        # too weakly there, and the quadratic form of the phase overflows;
        # the guard tests k Im psi itself
        code = main(["beam", "field", "--x", "0", "--y", y, "--t", "0",
                     "--k", "1"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        row = captured.out.strip().splitlines()[1].split(",")
        assert [float(v) for v in row[4:]] == [0.0, 0.0, 0.0]

    def test_field_below_range_prints_unsigned_zero(self, capsys):
        # k Im psi = 1023 > 746 here: the exponential, had it been
        # evaluated, would underflow to -0
        code, out = run_cli(capsys, "beam", "field", "--x", "0", "--y", "3",
                            "--t", "100", "--k", "1")
        assert code == 0
        assert out.strip().splitlines()[1] == "0,3,100,1,0,0,0"


class TestGrazeW:
    def test_closed_method_row(self, capsys):
        code, out = run_cli(capsys, "graze", "w", "--x", "1",
                            "--method", "closed")
        assert code == 0
        rows = out.strip().splitlines()
        hdr = ("x,k,method,re_w,im_w,abs_w,re_closed,im_closed,rel_err,"
               "quad_err,status")
        assert rows[0] == hdr
        cells = rows[1].split(",")
        assert cells[1] == ""                  # closed rows leave k empty
        assert float(cells[5]) == pytest.approx(0.5/math.sqrt(2.0), abs=1e-12)
        assert float(cells[8]) == 0.0
        assert cells[-1] == "ok"

    def test_u_integral_ladder_decreasing(self, capsys):
        code, out = run_cli(capsys, "graze", "w", "--x", "0.5",
                            "--k", "1000,10000,100000",
                            "--method", "u-integral")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        rel = [float(r.split(",")[8]) for r in rows]
        assert rel[0] > rel[1] > rel[2]

    def test_spectral_k_cap_refused(self, capsys):
        # the cap is the oracle's own, so the refusal is a domain error
        code = main(["graze", "w", "--x", "0.5", "--k", "100000",
                     "--method", "spectral"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == ("error: the oracle refuses k > 10000: its "
                                "three-fold quadrature budget grows too "
                                "fast; use u-integral or z-integral "
                                "instead\n")

    def test_spectral_small_k_refused_with_its_bound(self, capsys):
        code = main(["graze", "w", "--x", "1", "--k", "36.8",
                     "--method", "spectral"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and "k > 2 ln(1/tail) = 36.84" in lines[0]
        code, out = run_cli(capsys, "graze", "w", "--x", "1", "--k", "37",
                            "--method", "spectral")
        assert code == 0 and out.strip().endswith(",ok")

    def test_clipped_spectral_row_is_non_converged(self, capsys,
                                                    monkeypatch):
        args = ["graze", "w", "--x", "1", "--k", "100",
                "--method", "spectral"]
        code, out = run_cli(capsys, *args)
        assert code == 0 and out.strip().endswith(",ok")
        monkeypatch.setattr(spectral, "_AXIS_PANEL_CAP", 8)
        code, out = run_cli(capsys, *args)
        assert code == 2 and out.strip().endswith(",non-converged")

    def test_non_converged_u_row_reports_w(self, capsys):
        args = ["graze", "w", "--x", "1", "--k", "1000",
                "--method", "u-integral"]
        code, out = run_cli(capsys, *args)
        assert code == 0
        ok = out.strip().splitlines()[1].split(",")
        code, out = run_cli(capsys, *(args + ["--tol", "1e-17"]))
        assert code == 2
        flagged = out.strip().splitlines()[1].split(",")
        assert flagged[-1] == "non-converged"
        w_ok = complex(float(ok[3]), float(ok[4]))
        w_flagged = complex(float(flagged[3]), float(flagged[4]))
        assert abs(w_flagged - w_ok) <= 1e-9*abs(w_ok)

    def test_refused_k_refuses_the_u_row(self, capsys):
        code = main(["graze", "w", "--x", "1", "--k", "1000,5,10000",
                     "--method", "u-integral"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: u-integral route expects k >= 10\n"

    def test_long_u_row_is_split_into_blocks(self, capsys, monkeypatch):
        # memory grows with the k of one quadrature, so a row takes at most
        # U_BLOCK of them at a time
        sizes, route = [], grazing.u_integral

        def recording(x, k, tol):
            sizes.append(len(k))
            return route(x, k, tol)
        monkeypatch.setattr(grazing, "u_integral", recording)
        n = cli.U_BLOCK + 1
        code, out = run_cli(capsys, "graze", "w", "--x", "1,2", "--k",
                            "1000:%d:100" % (1000 + 100*(n - 1)),
                            "--method", "u-integral")
        assert code == 0 and len(out.strip().splitlines()) == 1 + 2*n
        assert sizes == [cli.U_BLOCK, 1]*2

    def test_u_row_shares_one_status(self, capsys):
        # one quadrature per x row: the flag of each cell is the row's
        code, out = run_cli(capsys, "graze", "w", "--x", "1", "--k",
                            "1000,1000000", "--method", "u-integral",
                            "--tol", "1e-17")
        rows = out.strip().splitlines()[1:]
        assert code == 2 and len(rows) == 2
        assert all(r.split(",")[-1] == "non-converged" for r in rows)

    @pytest.mark.parametrize("x, k, code, status", [
        # X = k^{2/3} x: 0.1 and 6 inside the Airy layer, 15 and 11.1 past
        # X0 = 10; at x = 0.001 the parent printed |w| = 1.36 with rel_err
        # 1.73 marked ok
        ("0.001", "1000", 2, "non-converged"),
        ("0.06", "1000", 2, "non-converged"),
        ("0.15", "1000", 0, "ok"),
        ("0.024", "10000", 0, "ok")])
    def test_z_row_inside_airy_layer_is_non_converged(self, capsys, x, k,
                                                      code, status):
        got, out = run_cli(capsys, "graze", "w", "--x", x, "--k", k,
                           "--method", "z-integral")
        rows = out.strip().splitlines()
        assert got == code and len(rows) == 2
        assert rows[1].split(",")[-1] == status

    def test_byte_stable_output(self, capsys):
        args = ("graze", "w", "--x", "0.5,1", "--k", "1000",
                "--method", "u-integral")
        _, out1 = run_cli(capsys, *args)
        _, out2 = run_cli(capsys, *args)
        assert out1 == out2

    def test_threads_do_not_change_output(self, capsys, monkeypatch):
        # --threads is checked but has no effect: no thread is started
        def refuse(thread):
            raise AssertionError("graze w started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        for method in ("u-integral", "z-integral"):
            args = ["graze", "w", "--x", "0.5,1", "--k", "1000,10000",
                    "--method", method]
            code, one = run_cli(capsys, *(args + ["--threads", "1"]))
            assert code == 0 and len(one.strip().splitlines()) == 1 + 4
            _, four = run_cli(capsys, *(args + ["--threads", "4"]))
            assert one == four

    def test_nonpositive_tol_usage_error(self, capsys):
        code, _ = run_cli(capsys, "graze", "w", "--x", "1", "--k", "1000",
                          "--method", "u-integral", "--tol", "-1")
        assert code == 1

    @pytest.mark.parametrize("tol", ["1", "1e300"])
    @pytest.mark.parametrize("method", cli._METHODS)
    def test_tol_at_least_one_usage_error(self, capsys, method, tol):
        # no accuracy target: at 1e300 the tail bound tol/10 cut the
        # u-window to 0.5 and |w| to 0.059 (0.413), marked ok
        code = main(["graze", "w", "--x", "1", "--k", "1000",
                     "--method", method, "--tol", tol])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("usage error: ")


class TestGrazeReflected:
    def test_curve_contract(self, capsys):
        code, out = run_cli(capsys, "graze", "reflected",
                            "--x", "0.0001,1,2")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "x,abs_v,abs_w,abs_v_minus_w,ratio"
        first = rows[1].split(",")
        assert float(first[4]) == pytest.approx(0.5, abs=0.05)
        for row in rows[1:]:
            c = row.split(",")
            assert float(c[2]) == pytest.approx(
                0.5/math.sqrt(1.0 + float(c[0])), abs=1e-12)

    def test_empty_x_usage_error(self, capsys):
        code, _ = run_cli(capsys, "graze", "reflected", "--x", "")
        assert code == 1


class TestInvalidInput:
    """Bad values give exit 1 and one line on stderr, never a row or traceback."""

    @pytest.mark.parametrize("argv", [
        ("graze", "w", "--x", "nan", "--method", "closed"),
        ("graze", "w", "--x", "0.5,inf", "--method", "closed"),
        ("graze", "w", "--x", "0:inf:1", "--method", "closed"),
        ("graze", "w", "--x", "1", "--k", "nan", "--method", "u-integral"),
        ("graze", "w", "--x", "1", "--tol", "nan", "--method", "u-integral"),
        ("beam", "field", "--x", "0", "--y", "0", "--t", "0", "--k", "nan"),
        ("ray", "trace", "--y=-inf"),
    ])
    def test_non_finite_values_rejected(self, capsys, argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "non-finite" in captured.err or "finite value" in captured.err

    @pytest.mark.parametrize("argv", [
        ("graze", "w", "--x", "-1", "--k", "1000", "--method", "u-integral"),
        ("graze", "w", "--x", "1", "--k", "5", "--method", "u-integral"),
        ("graze", "w", "--x", "-1", "--k", "1000", "--method", "u-integral",
         "--threads", "2"),
        ("graze", "reflected", "--x", "-0.5"),
        ("beam", "field", "--x", "0", "--y", "0", "--t", "0", "--k", "-1"),
        # finite inputs whose results overflow a float
        ("ray", "trace", "--y", "1e200"),
        ("beam", "on-ray", "--x", "1e300"),
        ("beam", "field", "--x", "0", "--y", "1e200", "--t", "0", "--k", "1"),
        ("graze", "reflected", "--x", "1e300"),
        ("graze", "w", "--x", "1e300", "--k", "1000", "--method",
         "z-integral"),
        ("graze", "w", "--x", "1e300", "--k", "1000", "--method", "spectral"),
        ("graze", "w", "--x", "1", "--k", "1e300", "--method", "z-integral"),
        # no truncation radius meets the z-route's tail bound
        ("graze", "w", "--x", "1", "--k", "1e-300", "--method", "z-integral"),
        # x is lost in 1 + x, so the z-route cannot resolve it
        ("graze", "w", "--x", "1e-300", "--k", "1000", "--method",
         "z-integral"),
        # psi overflows along the weakest direction of Im M, where
        # k Im psi is small: the phase k psi has no double value
        ("beam", "field", "--x", "2e130", "--y", "1e50", "--t", "1e180",
         "--k", "1e-60"),
        # k > 0 and the oracle's k cap are the routes' own checks
        ("graze", "w", "--x", "1", "--k", "0", "--method", "u-integral"),
        ("graze", "w", "--x", "1", "--k", "0", "--method", "z-integral"),
        ("graze", "w", "--x", "1", "--k", "-3", "--method", "spectral"),
        ("graze", "w", "--x", "1", "--k", "100,1e5", "--method", "spectral"),
    ])
    def test_library_domain_errors_exit_1(self, capsys, argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_z_route_names_unresolvable_x(self, capsys):
        # 1 + x rounds to 1: name x, not a quantity the user never gave
        code = main(["graze", "w", "--x", "1e-300", "--k", "1000",
                     "--method", "z-integral"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == ("error: x = 1e-300 is below the z-route's "
                                "resolution: 1 + x does not exceed 1 in "
                                "double precision\n")

    @pytest.mark.parametrize("argv", [
        ("ray", "trace", "--y", ","),
        ("beam", "on-ray", "--x", ","),
        ("beam", "field", "--x", ",", "--y", "0", "--t", "0", "--k", "10"),
        ("graze", "reflected", "--x", ","),
        ("graze", "w", "--x", ",", "--method", "closed"),
        ("graze", "w", "--x", "1", "--k", " , ", "--method", "u-integral"),
    ])
    def test_empty_value_list_rejected(self, capsys, argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("usage error: ")

    @pytest.mark.parametrize("argv", [
        ("ray", "trace", "--y", "0:10:1"),
        ("ray", "trace", "--y", ",".join(str(i) for i in range(11))),
        ("beam", "on-ray", "--x", "0:1:0.1"),
        ("beam", "field", "--x", "0,1,2", "--y", "0,1", "--t", "0,1",
         "--k", "10"),
        ("graze", "w", "--x", "1,2,3,4", "--k", "1e3,1e4,1e5",
         "--method", "u-integral"),
    ])
    def test_value_count_bounded(self, capsys, monkeypatch, argv):
        # 11 values or 12 grid cells against a limit of 10; raising=False
        # keeps the patch harmless where the limit does not exist
        monkeypatch.setattr(cli, "MAX_VALUES", 10, raising=False)
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("usage error: ")
        assert "more than 10 values" in lines[0]

    def test_value_count_at_limit_accepted(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_VALUES", 10, raising=False)
        code, out = run_cli(capsys, "ray", "trace", "--y", "1:10:1")
        assert code == 0 and len(out.strip().splitlines()) == 11

    def test_range_overflowing_to_inf_rejected(self, capsys):
        # (stop - start)/step overflows to inf for these finite bounds
        code = main(["ray", "trace", "--y=-1e308:1e308:1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("usage error: ")

    @pytest.mark.parametrize("text", [
        "2.418046051320605e-143:0.0:8.729999373493236e-188",
        "8.391976502947857e-240:0.0:8.391976502947857e-240"])
    def test_backward_range_of_tiny_values_rejected(self, capsys, text):
        # (stop - start)*step underflows to -0.0 here, which once passed
        # as a consistent direction and printed a header with no rows
        code = main(["graze", "w", "--x=" + text, "--method", "closed"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == ("usage error: cannot parse values %r: "
                                "inconsistent range direction\n" % text)

    @pytest.mark.parametrize("flag", ["0", "-1"], ids=["0-None", "-1-None"])
    def test_thread_budget_below_one_rejected(self, capsys, flag):
        argv = ["graze", "w", "--x", "1", "--method", "closed",
                "--threads", flag]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0] == "usage error: thread budget must be at least 1"


# one value as a user may type it: mostly a moderate double, else any
# finite double (signed zeros, subnormals, the extremes of the exponent
# range) or a non-finite word
_MODERATE = st.floats(-8.0, 8.0)
_VALUE = st.one_of(_MODERATE.map(repr), _MODERATE.map(repr),
                   st.floats(allow_nan=False, allow_infinity=False).map(repr),
                   st.sampled_from(["nan", "-nan", "inf", "-inf",
                                    "Infinity"]))
# mostly a comma list or a consistent a:b:c range, else an empty list or
# any a:b:c
_LIST = st.lists(_VALUE, min_size=1, max_size=3).map(",".join)
_RANGE = st.builds(lambda a, n, h: "%r:%r:%r" % (a, a + n*h, h), _MODERATE,
                   st.integers(0, 5), _MODERATE.filter(bool))
_ANY_RANGE = st.tuples(_VALUE, _VALUE, _VALUE).map(":".join)
_VALUES = st.one_of(_LIST, _LIST, _RANGE, _RANGE,
                    st.one_of(st.sampled_from(["", ",", " , "]), _ANY_RANGE))
_COMMANDS = {
    "ray trace": lambda v, k: ["ray", "trace", "--y=" + v[0]],
    "beam on-ray": lambda v, k: ["beam", "on-ray", "--x=" + v[0]],
    "beam field": lambda v, k: ["beam", "field", "--x=" + v[0],
                                "--y=" + v[1], "--t=" + v[2], "--k=" + k],
    "graze reflected": lambda v, k: ["graze", "reflected", "--x=" + v[0]],
    "graze w closed": lambda v, k: ["graze", "w", "--x=" + v[0],
                                    "--method", "closed"],
}


class TestArbitraryInput:
    """Any typed value gives finite rows, or exit 1 and one stderr line."""

    @pytest.mark.parametrize("command", _COMMANDS.values(),
                             ids=list(_COMMANDS))
    @settings(max_examples=60, deadline=None, database=None)
    @given(values=st.tuples(_VALUES, _VALUES, _VALUES),
           k=st.one_of(st.floats(0.01, 1e3).map(repr), _VALUE))
    def test_exit_0_with_finite_rows_or_exit_1_with_one_line(self, command,
                                                             values, k):
        out, err = io.StringIO(), io.StringIO()
        # a small value budget keeps each example fast; the limit itself is
        # tested in TestInvalidInput
        with mock.patch.object(cli, "MAX_VALUES", 64), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = main(command(values, k))
        assert code in (0, 1)
        if code == 1:
            assert out.getvalue() == ""
            assert len(err.getvalue().splitlines()) == 1
            return
        header, *rows = out.getvalue().splitlines()
        names = header.split(",")
        assert rows
        for row in rows:
            fields = row.split(",")
            assert len(fields) == len(names)
            for name, field in zip(names, fields):
                if name in ("method", "status") or (name == "k"
                                                    and field == ""):
                    continue
                assert math.isfinite(float(field)), (name, row)


class TestVerify:
    def test_appendix2_check_names(self, capsys):
        code, out = run_cli(capsys, "verify", "appendix2")
        assert code == 0
        rep = json.loads(out)
        names = " ".join(c["name"] for c in rep["checks"])
        for token in ("r_z[", "r_zz[", "r_zzz[", "r_zzzz[", "phi_zzz[",
                      "phi_zzzz[", "quartic_coeff["):
            assert token in names
        assert rep["overall"] is True

    def test_closedform_passes(self, capsys):
        code, out = run_cli(capsys, "verify", "closedform")
        assert code == 0
        assert json.loads(out)["overall"] is True

    def test_appendix1_reports_known_transport_failure(self, capsys):
        code, out = run_cli(capsys, "verify", "appendix1")
        rep = json.loads(out)
        assert code == 2
        assert rep["overall"] is False
        failing = [c["name"] for c in rep["checks"] if not c["passed"]]
        assert failing == ["transport_residual"]

    def test_unknown_suite_usage_error(self, capsys):
        code, _ = run_cli(capsys, "verify", "nonsense")
        assert code == 1


class TestParserReuse:
    """``main`` builds its parser once per process; a call leaves no state."""

    CLOSED = ("graze", "w", "--x", "1")

    def fresh_output(self, capsys):
        cli._build_parser.cache_clear()
        return run_cli(capsys, *self.CLOSED)

    def test_parser_built_once(self, capsys):
        parser = cli._build_parser()
        for argv in (self.CLOSED, ("ray", "trace", "--y", "0"),
                     ("verify", "closedform"), ("graze", "w", "--x", "x")):
            main(list(argv))
            assert cli._build_parser() is parser

    @pytest.mark.parametrize("argv, stderr", [
        (("graze", "w", "--x", "1", "--method", "nope"), "usage error: "),
        (("graze", "w", "--x", "0", "--method", "u-integral"), "error: "),
        (("graze", "w", "--help"), None)],
        ids=["usage-error", "domain-error", "help"])
    def test_failed_call_leaves_next_call_unchanged(self, capsys, argv,
                                                    stderr):
        expected = self.fresh_output(capsys)
        if stderr is None:
            with pytest.raises(SystemExit):
                main(list(argv))
        else:
            assert main(list(argv)) == EXIT_USAGE
            assert capsys.readouterr().err.startswith(stderr)
        capsys.readouterr()
        assert run_cli(capsys, *self.CLOSED) == expected

    def test_defaults_do_not_stick(self, capsys):
        expected = self.fresh_output(capsys)
        code, out = run_cli(capsys, "graze", "w", "--x", "1", "--k", "1000",
                            "--method", "u-integral", "--tol", "1e-6")
        assert code == 0 and ",u-integral," in out
        code, out = run_cli(capsys, *self.CLOSED)
        assert (code, out) == expected
        assert [row.split(",")[2] for row in out.splitlines()[1:]] == \
            ["closed"]


_SPEC = quadrature.IntegrandSpec(np.exp, quadrature.DampingProfile(1.0))

#: one call per library refusal of an argument outside the domain
_REFUSALS = {
    "airy_asymptotic-order": lambda: airy.airy_asymptotic(5.0, -1),
    "damping-coefficient": lambda: quadrature.DampingProfile(0.0),
    "damping-power": lambda: quadrature.DampingProfile(1.0, power=5),
    "truncation-coefficient": lambda: quadrature.truncation_radius(0.0, 2,
                                                                   1e-8),
    "truncation-tail": lambda: quadrature.truncation_radius(1.0, 2, 0.0),
    "truncation-power": lambda: quadrature.truncation_radius(1.0, 1, 1e-8),
    "integrate_1d-tol": lambda: quadrature.integrate_1d(_SPEC, 1.0),
    "integrate_nd-profiles": lambda: quadrature.integrate_nd(_SPEC, 1e-8),
    "beam_field-k": lambda: raybeam.beam_field(0.0, 0.0, 0.0, 0.0),
    "beam_on_ray-x": lambda: raybeam.beam_on_ray(-1.0),
    "amplitude_Z-k": lambda: spectral.amplitude_Z(0.0, 1.0, -0.5, -1.0,
                                                  0.0),
    "exact_solution-k": lambda: spectral.exact_solution(1.0, 0.0, 0.0, 0.0),
    "nu_descent-k": lambda: stationary.nu_descent(1.0, 0.0, 0.5, 0.0, 0.0,
                                                  np.exp),
}


#: one call per closed form or ray function, taking one argument
_ONE_ARGUMENT = {
    "w_on_ray_closed": grazing.w_on_ray_closed,
    "reflected_amplitude": grazing.reflected_amplitude,
    "limit_integral": grazing.limit_integral,
    "closed_form_identity_check": grazing.closed_form_identity_check,
    "beam_on_ray": raybeam.beam_on_ray,
    "central_ray": raybeam.central_ray,
    "beam_field-x": lambda v: raybeam.beam_field(v, 0.0, 0.0, 10.0),
    "beam_field-y": lambda v: raybeam.beam_field(0.0, v, 0.0, 10.0),
    "beam_field-t": lambda v: raybeam.beam_field(0.0, 0.0, v, 10.0),
    "beam_field-k": lambda v: raybeam.beam_field(0.0, 0.0, 0.0, v),
}


class TestLibraryRefusals:
    @pytest.mark.parametrize("call", _REFUSALS.values(), ids=list(_REFUSALS))
    def test_refusal_is_domain_error(self, call):
        with pytest.raises(DomainError):
            call()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("call", _ONE_ARGUMENT.values(),
                             ids=list(_ONE_ARGUMENT))
    def test_non_finite_argument_is_domain_error(self, call, bad):
        # each of these once returned NaN, raised OverflowError or warned
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="finite"):
                call(bad)

    def test_cli_import_loads_no_ode_or_optimizer_module(self):
        # scipy.integrate pulls in scipy.optimize: about 25 MB and 0.2 s
        # more for every grazebeam process
        src = os.path.dirname(os.path.dirname(grazebeam.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys, grazebeam.cli; print(sorted(m for m in "
                "('scipy.integrate', 'scipy.optimize') if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestOutput:
    @pytest.mark.parametrize("argv, code", [
        (("ray", "trace", "--y", "0:1:0.5"), 0),
        (("beam", "field", "--x", "0", "--y", "0,1", "--t", "0", "--k", "10"),
         0),
        (("beam", "on-ray", "--x", "0,1"), 0),
        # X = k^{2/3} x = 0.1 is inside the Airy layer: a non-converged row
        (("graze", "w", "--x", "0.001,1", "--k", "1000", "--method",
          "z-integral"), 2),
        (("graze", "reflected", "--x", "0.01,1"), 0),
        (("verify", "closedform"), 0)],
        ids=["ray-trace", "beam-field", "beam-on-ray", "graze-w",
             "graze-reflected", "verify"])
    def test_out_file_holds_the_stdout_bytes(self, tmp_path, capsys, argv,
                                             code):
        got, stdout = run_cli(capsys, *argv)
        assert got == code and stdout.count("\n") >= 2
        target = tmp_path/"out.txt"
        got, out = run_cli(capsys, *argv, "--out", str(target))
        assert got == code and out == ""
        assert target.read_bytes() == stdout.encode("utf-8")

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path/"trace.csv"
        code, _ = run_cli(capsys, "ray", "trace", "--y", "0:1:0.5",
                          "--out", str(target))
        assert code == 0
        assert target.read_text().startswith("y,x,t,xi,eta,tau")

    def test_unwritable_out_is_io_error(self, capsys):
        code, _ = run_cli(capsys, "ray", "trace", "--y", "0:1:0.5",
                          "--out", "/nonexistent-dir/trace.csv")
        assert code == 3
