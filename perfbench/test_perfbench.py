"""Tests of the benchmark itself: the correctness gate and the tracer.

    python3 -m pytest -q perfbench

These are not part of the package's test suite; they guard the benchmark
against a gate that lets a wrong value through and against a layer whose
counters silently read zero after a refactor rebinds a name.
"""

import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from grazebeam import cli, grazing, quadrature, spectral  # noqa: E402

REFERENCE = workloads.load_reference()


def _first(workload, method=None):
    ops = workloads.round_ops(workload, 0, random.Random(0))
    return next(op for op in ops if method is None or method in op.argv)


def _perturb_w(out, factor):
    """Scale re_w of the first data row."""
    lines = out.splitlines()
    cells = lines[1].split(",")
    cells[3] = "%.17g" % (float(cells[3])*factor)
    lines[1] = ",".join(cells)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the correctness gate
# ---------------------------------------------------------------------------

def test_reference_row_passes_and_perturbed_value_is_caught():
    op = _first("sweep", "u-integral")
    _, code, out = run.run_op(cli, op)
    assert workloads.check(op, code, out, REFERENCE) is None
    # one part in 1e7 is outside the u-integral tolerance of 1e-8
    assert "reference" in workloads.check(op, code, _perturb_w(out, 1 + 1e-7),
                                          REFERENCE)
    # a value far from the closed form fails even without a reference
    assert "closed form" in workloads.check(op, code, _perturb_w(out, 3.0),
                                            {})


def test_oracle_tolerance_is_1e_minus_10():
    op = _first("oracle")
    re_w, im_w = REFERENCE[op.key]["w"][0]
    closed = workloads.w_closed(1.0)
    row = ",".join(["1", "100", "spectral", "%.17g" % re_w, "%.17g" % im_w,
                    "0", "%.17g" % closed.real, "%.17g" % closed.imag, "0",
                    "0", "ok"])
    out = "x,k,method,re_w,im_w,abs_w,re_closed,im_closed,rel_err," \
          "quad_err,status\n" + row + "\n"
    assert workloads.check(op, 0, out, REFERENCE) is None
    assert workloads.check(op, 0, _perturb_w(out, 1 + 1e-9), REFERENCE)
    assert "non-converged" in workloads.check(
        op, 0, out.replace(",ok", ",non-converged"), REFERENCE)


def test_exit_codes_and_verdicts():
    a1 = workloads.Op(("verify", "appendix1"))
    _, code, out = run.run_op(cli, a1)
    assert code == 2                      # transport_residual is red
    assert workloads.check(a1, code, out, REFERENCE) is None
    assert "exit" in workloads.check(a1, 0, out, REFERENCE)
    report = json.loads(out)
    report["checks"][0]["passed"] = not report["checks"][0]["passed"]
    assert "verdicts" in workloads.check(a1, code, json.dumps(report),
                                         REFERENCE)
    assert "traceback" in workloads.check(a1, None, "ValueError: x",
                                          REFERENCE)


def test_nonconverged_row_fails_and_is_counted():
    op = workloads.Op(("graze", "w", "--x", "1", "--k", "1000", "--method",
                       "u-integral", "--tol", "1e-17"))
    tracer = layers.Tracer()
    tracer.install()
    try:
        _, code, out = run.run_op(cli, op)
    finally:
        tracer.uninstall()
    assert "exit 2" in workloads.check(op, code, out, {})
    assert tracer.stats["quadrature.integrate_1d"]["nonconverged"] == 1


# ---------------------------------------------------------------------------
# the tracer
# ---------------------------------------------------------------------------

def _traced(ops):
    tracer = layers.Tracer()
    tracer.install()
    try:
        for op in ops:
            _, code, out = run.run_op(cli, op)
            assert workloads.check(op, code, out, REFERENCE) is None, op.key
    finally:
        tracer.uninstall()
    return tracer.metrics(1, 1.0, 0.9)


@pytest.fixture(scope="module")
def traced():
    rounds = {w: workloads.round_ops(w, 0, random.Random(0))
              for w in workloads.WORKLOADS}
    return {
        "oracle": _traced(rounds["oracle"][:1]),
        "sweep": _traced([rounds["sweep"][0], rounds["sweep"][-1]]),
        "suites": _traced(rounds["suites"]),
    }


#: the workload on which each per-layer metric should move
MOVES = {
    "oracle": ["spectral.airy_quotient.", "spectral.exact_solution.",
               "spectral.grid_bytes", "stationary.root_r."],
    "sweep": ["airy.airy_ratio.", "quadrature.integrate_1d.",
              "stationary.reduced_integrand.", "grazing.", "cli.self_s"],
    "suites": ["raybeam.", "airy.airy_ai.", "airy.wronskian.",
               "verification.", "stationary.root_r.", "cli.self_s"],
}


def test_every_layer_counter_moves_on_its_workload(traced):
    covered = set()
    for workload, prefixes in MOVES.items():
        for name, value in traced[workload].items():
            if any(name.startswith(p) for p in prefixes):
                covered.add(name)
                if name != "quadrature.integrate_1d.nonconverged":
                    assert value > 0, (workload, name)
    names = {name for name, _ in layers.PER_LAYER}
    assert names - covered == {"trace_overhead_frac"}
    assert all(m["trace_overhead_frac"] != 0 for m in traced.values())


def test_oracle_layers_stay_off_other_workloads(traced):
    for workload in ("sweep", "suites"):
        assert traced[workload]["spectral.airy_quotient.calls"] == 0
    assert traced["oracle"]["airy.airy_ratio.calls"] == 0
    assert traced["oracle"]["quadrature.integrate_1d.calls"] == 0


def test_each_route_call_reaches_the_quadrature_wrapper(traced):
    # a route holding integrate_1d under a name the tracer cannot patch
    # would leave this short, not zero
    sweep = traced["sweep"]
    assert sweep["quadrature.integrate_1d.calls"] == \
        sweep["grazing.u_integral.calls"] + sweep["grazing.z_integral.calls"]


def test_wrappers_reach_rebound_names_and_are_removed():
    originals = (grazing.integrate_1d, spectral.integrate_1d,
                 quadrature.integrate_1d)
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert grazing.integrate_1d is quadrature.integrate_1d
        assert spectral.integrate_1d is quadrature.integrate_1d
        assert quadrature.integrate_1d.__wrapped__ is originals[2]
    finally:
        tracer.uninstall()
    assert (grazing.integrate_1d, spectral.integrate_1d,
            quadrature.integrate_1d) == originals


# ---------------------------------------------------------------------------
# the benchmark's contract
# ---------------------------------------------------------------------------

def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(layers.PER_LAYER)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.E2E_UNITS
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail(list(range(1000)))[0] == 99.0
    assert run.tail(list(range(300)))[0] == 95.0
    # too few samples: p90, interpolated between the two slowest
    assert run.tail([1.0, 3.0, 2.0]) == (90.0, pytest.approx(2.8))


def test_seeded_rounds_are_reproducible_and_fresh():
    a, b = workloads.rounds("sweep", 7), workloads.rounds("sweep", 7)
    assert [next(a) for _ in range(3)] == [next(b) for _ in range(3)]
    r0, r1 = workloads.round_ops("oracle", 0, random.Random(7)), \
        workloads.round_ops("oracle", 1, random.Random(7))
    assert all(op.key in REFERENCE for op in r0)
    assert not any(op.key in REFERENCE for op in r1)
