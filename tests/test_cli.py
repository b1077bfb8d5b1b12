"""Command-line interface: parsing, CSV contracts, exit codes."""

import json
import math

import pytest

from grazebeam import cli
from grazebeam.cli import main


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
        code, _ = run_cli(capsys, "graze", "w", "--x", "0.5",
                          "--k", "100000", "--method", "spectral")
        assert code == 1

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

    def test_byte_stable_output(self, capsys):
        args = ("graze", "w", "--x", "0.5,1", "--k", "1000",
                "--method", "u-integral")
        _, out1 = run_cli(capsys, *args)
        _, out2 = run_cli(capsys, *args)
        assert out1 == out2

    def test_threads_do_not_change_output(self, capsys):
        args = ["graze", "w", "--x", "0.5,1", "--k", "1000,10000",
                "--method", "u-integral"]
        _, serial = run_cli(capsys, *args)
        _, pooled = run_cli(capsys, *(args + ["--threads", "4"]))
        assert serial == pooled

    def test_nonpositive_tol_usage_error(self, capsys):
        code, _ = run_cli(capsys, "graze", "w", "--x", "1", "--k", "1000",
                          "--method", "u-integral", "--tol", "-1")
        assert code == 1


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
        # x is lost in x + 1 - r^2 at the grazing root r = -1
        ("graze", "w", "--x", "1e-300", "--k", "1000", "--method",
         "z-integral"),
    ])
    def test_library_domain_errors_exit_1(self, capsys, argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

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


class TestOutput:
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
