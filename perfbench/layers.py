"""Per-layer metrics computed from one traced run.

The layers are the modules of src/negmono plus `linalg`, which is
numpy.linalg as called from them. An op is a trial (ineq4-search*), a
state (verify-states), a matrix B of criterion 4 (selftest-chain; per-op
counts there cover criterion 4 only, so they read as "per B") or a
criterion (selftest-perm). A metric whose layer the workload does not reach
reads 0, which is the prediction for that workload.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from workloads import CRITERIA

US = 1e6

# Per-layer metric names and units, in the order of BENCHMARK.json.
PER_LAYER = {m["name"]: m["unit"] for m in json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]}

# Exact-count sentinels, by the workload on which they are asserted: counts
# that repeat exactly between runs of the same code at any seed.
SENTINELS = {
    "ineq4-search": ("cli.records_per_op", "search.evaluate_slack.calls_per_trial",
                     "matcore.hermitian_eigenvalues.calls_per_op",
                     "matcore.as_complex_matrix.calls_per_op",
                     "linalg.eigvalsh.calls_per_op", "linalg.n3_per_op"),
    "ineq4-search-jobs2": ("cli.records_per_op", "search.evaluate_slack.calls_per_trial"),
    "verify-states": ("cli.records_per_op", "matcore.as_complex_matrix.calls_per_op",
                      "linalg.eigvalsh.calls_per_op", "linalg.svd.calls_per_op"),
    "selftest-chain": ("linalg.eigvalsh.calls_per_op", "linalg.eigh.calls_per_op",
                       "linalg.svd.calls_per_op", "specialcase.commutator_gap.calls_per_B",
                       "specialcase.build_special_Z.calls_per_B",
                       "matcore.as_complex_matrix.calls_per_op"),
    "selftest-perm": ("permlemma.commutative_lhs.calls", "permlemma.ma_chains.calls",
                      "permlemma.calls_per_perm", "imfunc.integrand_evals_per_point"),
}


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(workload: str, tracer, records: int, traced_wall: float,
              untraced_rate: float, traced_rate: float) -> dict[str, float]:
    """Every per-layer metric of BENCHMARK.json, from one traced run."""
    st = tracer.stat
    counts = tracer.counts
    if workload == "selftest-chain":
        groups = {4}
        n_ops = st("specialcase.interlacing_trace", groups)[0]
    elif workload == "selftest-perm":
        groups = None
        n_ops = sum(st(f"acceptance.{c}")[0] for c in CRITERIA)
    else:
        groups = None
        n_ops = st(tracer.op_root)[0]
    trials = st("search.run_trial")[0]
    states = st("qstate.random_state")[0] if workload == "verify-states" else 0

    def per_call(name):
        calls, total, _, _ = st(name)
        return _div(total * US, calls)

    def per_op(name):
        return _div(st(name, groups)[0], n_ops)

    def quantile(values, q):
        if len(values) < 2:
            return values[0] * US if values else 0.0
        return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * US

    cli_self = st("cli.main")[2] * US
    run_trial = tracer.durations["search.run_trial"]
    lhs_calls = st("permlemma.commutative_lhs")[0]
    crit6_runs = st("acceptance.commutative_lemma_exhaustive")[0]
    windows = counts["permlemma.windows"]
    linalg_time = sum(st(f"linalg.{n}")[1] for n in ("eigvalsh", "eigh", "svd"))
    n3 = sum(st(f"linalg.{n}", groups)[3] for n in ("eigvalsh", "eigh", "svd"))
    b_count = n_ops if workload == "selftest-chain" else 0
    at8 = tracer.durations["specialcase.interlacing_trace@8"]

    m = {
        "cli.self_us_per_trial": _div(cli_self, trials),
        "cli.self_us_per_state": _div(cli_self, states),
        "cli.records_per_op": _div(records, n_ops),
        "search.run_trial.p50_us": quantile(run_trial, 50),
        "search.run_trial.p99_us": quantile(run_trial, 99),
        "search.evaluate_slack.calls_per_trial": _div(st("search.evaluate_slack")[0], trials),
        "search.evaluate_slack.us_per_call": per_call("search.evaluate_slack"),
        "search.local_descend.self_us_per_call": _div(st("search.local_descend")[2] * US,
                                                      st("search.local_descend")[0]),
        "search.accept_ratio": _div(counts["search.accepted"], counts["search.proposals"]),
        "search.serialize_instance.us_per_call": per_call("search.serialize_instance"),
        "matcore.hermitian_eigenvalues.us_per_call": per_call("matcore.hermitian_eigenvalues"),
        "matcore.make_report.us_per_call": per_call("matcore.make_report"),
        "linalg.n3_per_op": _div(n3, n_ops),
        "linalg.share": _div(linalg_time, traced_wall),
        "specialcase.interlacing_trace.us_per_call": per_call("specialcase.interlacing_trace"),
        "specialcase.interlacing_trace.d8_us_per_call": _div(sum(at8) * US, len(at8)),
        "specialcase.commutator_gap.calls_per_B": _div(st("specialcase.commutator_gap", {4})[0], b_count),
        "specialcase.build_special_Z.calls_per_B": _div(st("specialcase.build_special_Z", {4})[0], b_count),
        "specialcase.connecting_unitary.us_per_call": per_call("specialcase.connecting_unitary"),
        "permlemma.commutative_lhs.calls": _div(st("permlemma.commutative_lhs", {6})[0], crit6_runs),
        "permlemma.commutative_lhs.us_per_call": _div(st("permlemma.commutative_lhs")[1] * US, lhs_calls),
        # Each window also sees two benchmark wrapper frames; they are removed.
        "permlemma.calls_per_perm": _div(counts["permlemma.window_calls"] - 2 * windows, windows),
        "permlemma.ma_chains.calls": _div(st("permlemma.ma_chains", {6})[0], crit6_runs),
        "permlemma.drury_numeric_check.us_per_call": per_call("permlemma.drury_numeric_check"),
        "imfunc.h_grid.us_per_point": _div(st("imfunc.h_grid")[1] * US, counts["imfunc.h_grid.points"]),
        "imfunc.integrand_evals_per_point": _div(counts["imfunc.h_grid.evals"],
                                                 counts["imfunc.h_grid.points"]),
        "trace.untraced_ops_per_s": untraced_rate,
        "trace.traced_ops_per_s": traced_rate,
        "trace.overhead_share": _div(untraced_rate - traced_rate, untraced_rate),
        "trace.spans": float(tracer.span_count),
    }
    for name in ("monogamy.ineq4_report", "monogamy.build_Z1", "monogamy.build_Z2",
                 "monogamy.ineq2_report", "monogamy.ineq3_report",
                 "monogamy.monotonicity_report", "qstate.random_state", "qstate.density",
                 "qstate.partial_transpose_A", "qstate.partial_trace_B",
                 "qstate.partial_trace_C", "qstate.state_to_dict"):
        m[f"{name}.us_per_call"] = per_call(name)
    for name in ("matcore.hermitian_eigenvalues", "matcore.hermitian_eig",
                 "matcore.require_hermitian", "matcore.psd_sqrt", "matcore.as_complex_matrix",
                 "linalg.eigvalsh", "linalg.eigh", "linalg.svd"):
        m[f"{name}.calls_per_op"] = per_op(name)
    for name in CRITERIA:
        m[f"acceptance.{name}.s"] = st(f"acceptance.{name}")[1]
    missing = PER_LAYER.keys() ^ m.keys()
    if missing:
        raise KeyError(f"per-layer metrics out of step with BENCHMARK.json: {sorted(missing)}")
    return {name: float(m[name]) for name in PER_LAYER}
