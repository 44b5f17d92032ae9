"""Acceptance gate: each test_criterion case runs one end-to-end criterion,
prints a single PASS/FAIL line with its runtime, and asserts the outcome.
The tests after it check how the criterion runner numbers, names and
budgets a criterion; how criteria 1-4, 6, 7 and 9 batch their inputs:
the calls they make, the independence of criteria 1, 2, 4 and 6 of their
chunk or block size, that criteria 3 and 9 slice one generator call into
the streams of their former single draws, that criteria 1, 2, 6, 7 and 9
give the details of their per-item form and criterion 8 those of its
former scalar quadrature, bisection and g', and which matrix a failure of
criterion 4 or 7 reports, and the one quadrature and one bisection of
criterion 8; which state a failure of criterion 3 reports;
and which chains criterion 6 rejects. Criterion 4's parts draw the serial
stream, its worker processes give the in-process details and failures and
end with it, and it and criterion 10 start one worker per CPU."""

import dataclasses
import itertools
import json
import math
import multiprocessing
import os

import numpy as np
import pytest
from imfunc_oracles import reference_approximation_suite

from negmono import acceptance, imfunc, matcore, monogamy, permlemma, qstate
from negmono.errors import StepFailedError
from negmono.matcore import complex_gaussian, matrix_from_dict, negativity, schatten
from negmono.monogamy import build_Z1, build_Z2, monotonicity_report
from negmono.permlemma import check_commutative, drury_numeric_check
from negmono.qstate import (amat, coeff_matrices, density, partial_trace_B, partial_trace_C,
                            partial_transpose_A, random_state)
from negmono.search import run_search
from negmono.specialcase import BOUNDS, STEPS, check_ineqid1, interlacing_trace

CASES = [(i + 1, fn) for i, fn in enumerate(acceptance.CRITERIA)]

# Seed-0 details pinned to perfbench/reference.json: floats within
# 1e-12 + 1e-9 * |ref|, integers exactly.
PINNED = {
    "partial_trace_monotonicity": {"min_slack": 0.06252605384407017},
    "special_case_chain": {
        "min_slack": 0.01418362475343704,
        "max_unitary_residual": 1.6360469837353703e-14,
    },
    "commutative_lemma_exhaustive": {
        "min_slack": 0.0005899481148988195,
        "max_split_diff": 0.0,
        "swap_slack": 0.0,
    },
    "conjecture_scan": {
        "min_slack_2x2x2": 0.020110237692559263,
        "argmin_trial_2x2x2": 3575,
        "violations_2x2x2": 0,
        "min_slack_2x3x3": 0.18241445401299738,
        "argmin_trial_2x3x3": 1927,
        "violations_2x3x3": 0,
    },
    "approximation_suite": {
        "h0": 0.7581306629020619,
        "min_pair_sum": 0.005815738868830496,
        "min_beta_margin": 0.019870386153420405,
        "sup_err_s1": 0.7581306629012655,
        "sup_err_s100": 0.07581306629012659,
    },
}

# The criteria with a time budget, which each reports as its last detail.
# The others report none: perfbench compares the detail keys of criteria
# 1-9 with perfbench/reference.json.
BUDGETS = {
    "representation_equivalence": 10.0,
    "special_case_chain": 60.0,
    "commutative_lemma_exhaustive": 120.0,
    "conjecture_scan": 60.0,
}


@pytest.mark.parametrize("index,criterion", CASES, ids=[f.__name__ for _, f in CASES])
def test_criterion(index, criterion):
    result = criterion(seed=0)
    print(result.line())
    assert result.index == index
    assert result.name == criterion.__name__.replace("_", "-")
    assert result.passed, result.details
    budget = BUDGETS.get(criterion.__name__)
    if budget is None:
        assert "budget_s" not in result.details
    else:
        assert list(result.details)[-1] == "budget_s"
        assert result.details["budget_s"] == budget
    for key, ref in PINNED.get(criterion.__name__, {}).items():
        got = result.details[key]
        if isinstance(ref, int):
            assert got == ref, key
        else:
            assert abs(got - ref) <= 1e-12 + 1e-9 * abs(ref), key


@pytest.mark.parametrize("budget_s,passed,details", [
    (0.0, False, {"seed": 3, "budget_s": 0.0}),
    (None, True, {"seed": 3}),
])
def test_criterion_runner_owns_index_name_and_budget(monkeypatch, budget_s, passed, details):
    # a body returns (passed, details); the runner numbers the criterion by
    # its place in CRITERIA, names it after the function and enforces the
    # budget, reporting it as the last detail
    @acceptance._criterion(budget_s=budget_s)
    def an_extra_criterion(seed):
        return True, {"seed": seed}

    monkeypatch.setattr(acceptance, "CRITERIA", acceptance.CRITERIA + (an_extra_criterion,))
    result = an_extra_criterion(seed=3)
    assert an_extra_criterion.__name__ == "an_extra_criterion"
    assert (result.index, result.name) == (11, "an-extra-criterion")
    assert result.passed is passed and result.elapsed_s >= 0.0
    assert list(result.details.items()) == list(details.items())


def test_special_case_chain_counts(call_counts, in_process_pool):
    # per chunk of B: one eigh, five eigvalsh and one SVD over the stack,
    # and no per-B validation or report, whatever the parts
    counts, count = call_counts
    for name in ("eigh", "eigvalsh", "svd"):
        count(np.linalg, name)
    for name in ("require_hermitian", "make_report"):
        count(matcore, name)
    assert acceptance.special_case_chain(seed=0).passed
    chunks = 7 * math.ceil(1000 / acceptance.CHUNK)
    assert counts == {"eigh": chunks, "eigvalsh": 5 * chunks, "svd": chunks,
                      "require_hermitian": 0, "make_report": 0}
    assert chunks == 441


def test_special_case_chain_in_workers_does_not_depend_on_chunk(monkeypatch, cpus):
    # the results do not depend on the chunk size, to the last bit; both
    # runs certify their B in two worker processes
    cpus(2)
    default = acceptance.special_case_chain(seed=0)
    monkeypatch.setattr(acceptance, "CHUNK", 1)
    single = acceptance.special_case_chain(seed=0)
    assert multiprocessing.active_children() == []
    assert default.passed and single.passed
    assert default.details == single.details


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_special_case_chain_in_workers_is_the_in_process_run(seed, cpus):
    cpus(2)
    in_workers = acceptance.special_case_chain(seed)
    assert multiprocessing.active_children() == []
    cpus(1)
    in_process = acceptance.special_case_chain(seed)
    assert in_workers.passed and in_process.passed
    assert in_workers.details == in_process.details


@pytest.mark.parametrize("per_size", [1, 2, 3, 7, 63, 64])
def test_special_case_chain_parts_draw_the_serial_stream(per_size):
    for seed in (0, 1):
        parts = list(acceptance._chain_parts(seed, per_size))
        assert len(parts) == 7 * min(per_size, 63)
        rng = acceptance._rng(seed, 4)
        for d in range(2, 9):
            own = [p for p in parts if p[0] == d]
            bounds = [(start, stop) for _, _, start, stop in own]
            assert [start for start, _ in bounds] == [0] + [stop for _, stop in bounds[:-1]]
            assert bounds[-1][1] == 1000
            assert all(start % acceptance.CHUNK == 0 for start, _ in bounds)
            drawn = []
            for _, state, start, stop in own:
                bits = np.random.PCG64()
                bits.state = state
                drawn.extend(acceptance._part_stacks(np.random.Generator(bits), d, start, stop))
            drawn = np.concatenate(drawn)
            np.testing.assert_array_equal(drawn, matcore._complex_gaussians(rng, 1000, (d, d)))


def test_special_case_chain_starts_one_worker_per_cpu_up_to_the_parts(monkeypatch, cpus,
                                                                     in_process_pool):
    # the parts are stubbed out: only the pool sizes are of interest
    monkeypatch.setattr(acceptance, "_chain_part", lambda part: (None, 1.0, 0.0))
    cpus(64)
    assert acceptance.special_case_chain(seed=0).passed
    monkeypatch.setattr(acceptance, "CHUNK", 1000)  # one chunk, so one part, per size
    assert acceptance.special_case_chain(seed=0).passed
    assert in_process_pool == [64, 7]
    cpus(1)
    assert acceptance.special_case_chain(seed=0).passed
    # without an affinity mask, the CPU count
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert acceptance.special_case_chain(seed=0).passed
    assert in_process_pool == [64, 7, 3]


def test_conjecture_scan_checks_one_worker_against_the_worker_count(monkeypatch, cpus):
    # each search is replaced by a 3-trial one that records its jobs
    calls = []

    def search(cfg, jobs=1):
        calls.append((cfg.dims, cfg.trials, jobs))
        return run_search(dataclasses.replace(cfg, trials=3))

    monkeypatch.setattr(acceptance, "run_search", search)
    cpus(3)
    assert acceptance.conjecture_scan(seed=0).passed
    assert calls == [(dims, trials, jobs) for dims in ((2, 2, 2), (2, 3, 3))
                     for trials, jobs in ((10_000, 3), (300, 1), (300, 3))]

    # a scan whose result moved with the worker count fails the check
    def unsteady(cfg, jobs=1):
        return run_search(dataclasses.replace(cfg, trials=3, seed=cfg.seed + jobs))

    monkeypatch.setattr(acceptance, "run_search", unsteady)
    assert not acceptance.conjecture_scan(seed=0).passed


def _per_state_representation_equivalence(seed):
    # criterion 1 one state at a time through the public functions, as it
    # was written before it ran on stacks
    rng = acceptance._rng(seed, 1)
    worst_block = worst_trace = 0.0
    for dims in acceptance.STATE_DIMS:
        for _ in range(200):
            s = random_state(dims, rng)
            mats = coeff_matrices(s)
            pt = partial_transpose_A(density(s), dims)
            z1, z2 = build_Z1(mats), build_Z2(mats)
            worst_block = max(worst_block,
                              float(np.abs(partial_trace_C(pt, dims) - z1).max()),
                              float(np.abs(partial_trace_B(pt, dims) - z2.conj()).max()))
            worst_trace = max(worst_trace, abs(float(np.trace(z1).real) - 1.0),
                              abs(float(np.trace(z2).real) - 1.0))
    return {"max_block_diff": worst_block, "max_trace_diff": worst_trace, "budget_s": 10.0}


def _per_state_negativity_identity(seed):
    # criterion 2 one state at a time, as for criterion 1 above
    rng = acceptance._rng(seed, 2)
    worst_rel = worst_kron = 0.0
    for dims in acceptance.STATE_DIMS:
        for _ in range(200):
            s = random_state(dims, rng)
            mats = coeff_matrices(s)
            pt = partial_transpose_A(density(s), dims)
            a = negativity(pt)
            am = amat(mats)
            b = schatten(am, 1.0) ** 2 - 1.0
            worst_rel = max(worst_rel, abs(a - b) / max(abs(a), abs(b), 1e-30))
            kron = np.kron(am.conj().T @ am, am @ am.conj().T)
            worst_kron = max(worst_kron, float(np.abs(pt @ pt - kron).max()))
    return {"max_rel_diff": worst_rel, "max_kron_diff": worst_kron}


def _per_spectrum_commutative_lemma_exhaustive(seed):
    # criterion 6 one spectrum at a time, by elementwise sums and the
    # dict-based chain builder; it computes the chain-split sums, whose
    # largest difference from the direct sums the criterion reports as
    # exactly 0.0 from its chain check
    rng = acceptance._rng(seed, 6)
    worst_slack = math.inf
    worst_split = 0.0
    for d in range(1, 8):
        perms = np.array(list(itertools.permutations(range(d))))
        succ = np.tile(np.arange(d), (len(perms), 1))
        for row, nxt in zip(perms, succ):
            pi = tuple(int(i) + 1 for i in row)
            edges = [(a, b) for c in permlemma.ma_chains(pi) for a, b in zip(c[:-1], c[1:])]
            assert {a for a, _ in edges} == {i for i in range(1, d + 1) if pi[i - 1] > i}
            for a, b in edges:
                nxt[a - 1] = b - 1
        for _ in range(100):
            mu = np.sort(rng.random(d))[::-1]
            direct = np.sqrt(np.clip(mu - mu[perms], 0.0, None)).sum(axis=1)
            split = np.sqrt(mu[None, :] - mu[succ]).sum(axis=1)
            worst_split = max(worst_split, float(np.max(np.abs(direct - split))))
            slack = (d / 2.0) * float(np.sum(mu)) - direct**2
            worst_slack = min(worst_slack, float(np.min(slack)))
    swap = check_commutative(np.array([1.0, 0.0]), (2, 1))
    return {"min_slack": worst_slack, "max_split_diff": worst_split,
            "swap_slack": swap.slack, "budget_s": 120.0}


def _per_matrix_drury_reduction(seed):
    # criterion 7 one validated B at a time, as it was written before it
    # ran on stacks
    rng = acceptance._rng(seed, 7)
    worst = math.inf
    for d in range(2, 6):
        for b in matcore._complex_gaussians(rng, 200, (d, d)):
            rep = drury_numeric_check(b, tol=1e-9)
            assert rep.holds
            worst = min(worst, rep.slack)
    return {"min_slack": worst}


def _per_matrix_diagonal_quasinorm_monotonicity(seed):
    # criterion 9 one matrix at a time, through schatten
    rng = acceptance._rng(seed, 9)
    worst = math.inf
    for i in range(500):
        d = 1 + i % 6
        gmat = complex_gaussian(rng, (d, d))
        p = gmat @ gmat.conj().T
        diag_q = float(np.sum(np.sqrt(np.clip(np.diag(p).real, 0.0, None)))) ** 2
        worst = min(worst, diag_q - schatten(p, 0.5))
    return {"min_slack": worst}


STACKED = [(acceptance.representation_equivalence, _per_state_representation_equivalence),
           (acceptance.negativity_identity, _per_state_negativity_identity),
           (acceptance.commutative_lemma_exhaustive, _per_spectrum_commutative_lemma_exhaustive),
           (acceptance.drury_reduction, _per_matrix_drury_reduction),
           (acceptance.diagonal_quasinorm_monotonicity,
            _per_matrix_diagonal_quasinorm_monotonicity),
           (acceptance.approximation_suite, reference_approximation_suite)]


@pytest.mark.parametrize("criterion,reference", STACKED,
                         ids=[c.__name__ for c, _ in STACKED])
@pytest.mark.parametrize("seed", [0, 1, 3])
def test_stacked_criteria_give_the_per_state_details(criterion, reference, seed):
    # the same floats to the last bit, not merely within a tolerance
    result = criterion(seed=seed)
    assert result.passed
    assert result.details == reference(seed)


@pytest.mark.parametrize("criterion", [c for c, _ in STACKED[:2]], ids=lambda c: c.__name__)
def test_stacked_criteria_counts_and_chunk_independence(monkeypatch, call_counts, criterion):
    # per chunk of states: criterion 2 makes one eigvalsh (the partial
    # transpose) and one SVD (the overlap matrices), criterion 1 neither;
    # no per-state validation
    counts, count = call_counts
    for name in ("eigvalsh", "svd"):
        count(np.linalg, name)
    for name in ("require_hermitian", "as_complex_matrix"):
        count(matcore, name)
    default = criterion(seed=0)
    chunks = len(acceptance.STATE_DIMS) * math.ceil(200 / acceptance.CHUNK)
    per_chunk = 1 if criterion is acceptance.negativity_identity else 0
    assert counts == {"eigvalsh": per_chunk * chunks, "svd": per_chunk * chunks,
                      "require_hermitian": 0, "as_complex_matrix": 0}
    monkeypatch.setattr(acceptance, "CHUNK", 1)
    single = criterion(seed=0)
    assert default.passed and single.passed
    assert default.details == single.details


def test_commutative_lemma_exhaustive_counts_and_chunk_independence(monkeypatch, call_counts):
    # each size d <= 7 makes one chain-kernel call on all of S_d and one
    # subset-DP call on its 100 spectra; only the swap witness validates a
    # permutation and gathers an explicit one; the details do not depend
    # on stacking the spectra: the DP of one spectrum at a time gives them
    counts, count = call_counts
    for name in ("_chain_walk", "_validate_permutation", "_max_rearranged",
                 "_rearranged_sums"):
        count(permlemma, name)
    default = acceptance.commutative_lemma_exhaustive(seed=0)
    assert counts == {"_chain_walk": 7, "_validate_permutation": 1,
                      "_max_rearranged": 7, "_rearranged_sums": 1}
    kernel = permlemma._max_rearranged
    monkeypatch.setattr(acceptance, "_max_rearranged",
                        lambda mu: np.concatenate([kernel(v[None]) for v in mu]))
    single = acceptance.commutative_lemma_exhaustive(seed=0)
    assert default.passed and single.passed
    assert default.details == single.details


def test_commutative_lemma_exhaustive_builds_each_index_once(call_counts):
    # the subset tables of each size are built on first use and then
    # cached; a pair table per size's 100 spectra, and a pair index and
    # table for the swap witness
    levels = permlemma._subset_levels
    levels.cache_clear()
    counts, count = call_counts
    for name in ("_subset_levels", "_pair_index", "_pair_table"):
        count(permlemma, name)
    for _ in range(2):
        assert acceptance.commutative_lemma_exhaustive(seed=0).passed
    assert counts == {"_subset_levels": 14, "_pair_index": 2, "_pair_table": 16}
    assert levels.cache_info().misses == 7


def _edge_to_the_wrong_index(d, heads, nodes):
    # the last member of each chain moved up by one
    return heads, nodes + (np.diff(heads, append=-1) != 0)


def _first_chains(d, heads):
    # the members of each permutation's first chain
    return np.isin(heads, heads[np.flatnonzero(np.diff(heads // d, prepend=-1))])


def _a_chain_twice(d, heads, nodes):
    first = _first_chains(d, heads)
    return np.concatenate([heads, heads[first]]), np.concatenate([nodes, nodes[first]])


def _a_chain_dropped(d, heads, nodes):
    rest = ~_first_chains(d, heads)
    return heads[rest], nodes[rest]


@pytest.mark.parametrize("mutate", [_edge_to_the_wrong_index, _a_chain_twice, _a_chain_dropped])
def test_commutative_lemma_exhaustive_rejects_inexact_chains(monkeypatch, mutate):
    # the chain edges must be exactly the ascents (i, pi(i)), each once;
    # (2, 1) is the first permutation in S_1, S_2, ... with a chain
    walk = permlemma._chain_walk
    monkeypatch.setattr(acceptance, "_chain_walk",
                        lambda perms: mutate(perms.shape[1], *walk(perms)))
    result = acceptance.commutative_lemma_exhaustive(seed=0)
    assert not result.passed
    assert result.details["completeness_failed_for"] == [2, 1]


def test_drury_reduction_counts(call_counts):
    # a passing run makes one _drury_sides call, and so one subset-DP call,
    # per size d in 2..5, validates no B and builds no report
    counts, count = call_counts
    for name in ("_drury_sides", "_max_rearranged"):
        count(permlemma, name)
    for name in ("as_complex_matrix", "make_report"):
        count(matcore, name)
    assert acceptance.drury_reduction(seed=0).passed
    assert counts == {"_drury_sides": 4, "_max_rearranged": 4, "as_complex_matrix": 0,
                      "make_report": 0}


def test_approximation_suite_counts(call_counts):
    # one quadrature for h(0) and both sup errors, one bisection for both
    # branches of the pair check
    counts, count = call_counts
    for name in ("_simpson_panels", "_bisect_levels"):
        count(imfunc, name)
    assert acceptance.approximation_suite(seed=0).passed
    assert counts == {"_simpson_panels": 1, "_bisect_levels": 1}


def test_drury_reduction_reports_first_failing_b_in_draw_order(monkeypatch):
    # inject failures into rows 69 and 73 of the d = 2 stack: B 69 is
    # reported, by drury_numeric_check
    orig = acceptance._drury_sides
    calls = []

    def kernel(m):
        lhs, rhs = orig(m)
        calls.append(len(m))
        lhs = lhs.copy()
        lhs[[69, 73]] = rhs[[69, 73]] + 1.0
        return lhs, rhs

    monkeypatch.setattr(acceptance, "_drury_sides", kernel)
    result = acceptance.drury_reduction(seed=0)
    assert not result.passed and calls == [200]
    b = matcore._complex_gaussians(acceptance._rng(0, 7), 200, (2, 2))[69]
    assert result.details == {"failed": drury_numeric_check(b, tol=1e-9).to_dict()}


def test_diagonal_quasinorm_monotonicity_makes_one_svd_per_size(call_counts):
    counts, count = call_counts
    count(np.linalg, "svd")
    assert acceptance.diagonal_quasinorm_monotonicity(seed=0).passed
    assert counts == {"svd": 6}


class _CountingRng:
    """A generator that counts its standard_normal calls."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def standard_normal(self, *args, **kwargs):
        self.calls += 1
        return self.rng.standard_normal(*args, **kwargs)


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_criteria_3_and_9_slice_one_draw_into_the_per_draw_streams(monkeypatch, seed):
    # one standard_normal call per criterion; the stack each size gets is
    # the former one-at-a-time draws of that size, to the last bit
    rngs, stacks = [], []
    batch, pairs = acceptance.verify_batch, acceptance._complex_pairs

    def rng_of(*entropy):
        rngs.append(_CountingRng(matcore._rng(*entropy)))
        return rngs[-1]

    def batch_recording_input(c):
        stacks.append(c)
        return batch(c)

    def pairs_recording_output(x):
        stacks.append(pairs(x))
        return stacks[-1]

    monkeypatch.setattr(acceptance, "_rng", rng_of)
    monkeypatch.setattr(acceptance, "verify_batch", batch_recording_input)
    assert acceptance.partial_trace_monotonicity(seed=seed).passed
    rng = matcore._rng(seed, 3)
    dims = acceptance.STATE_DIMS
    states = [qstate._random_coeffs(dims[i % 3], rng, 1)[0] for i in range(500)]
    assert [s.tobytes() for s in stacks] == [np.stack(states[j::3]).tobytes() for j in range(3)]

    stacks.clear()
    monkeypatch.setattr(acceptance, "_complex_pairs", pairs_recording_output)
    assert acceptance.diagonal_quasinorm_monotonicity(seed=seed).passed
    rng = matcore._rng(seed, 9)
    draws = [complex_gaussian(rng, (1 + i % 6,) * 2) for i in range(500)]
    assert [s.tobytes() for s in stacks] == [np.stack(draws[d::6]).tobytes() for d in range(6)]
    assert [r.calls for r in rngs] == [1, 1]


def _failing_kernel(monkeypatch, column, first_row):
    """Make criterion 4 see report `column` fail for rows >= first_row of
    each chunk, so it stops in the first one."""
    orig = acceptance._chain_batch

    def kernel(m, tol):
        lhs, rhs, tols, mats = orig(m, tol)
        tols = tols.copy()
        tols[first_row:, column] = -np.inf
        return lhs, rhs, tols, mats

    monkeypatch.setattr(acceptance, "_chain_batch", kernel)


def test_special_case_chain_failed_step_carries_first_failing_b(monkeypatch):
    _failing_kernel(monkeypatch, STEPS.index("step_c_weyl"), 5)
    with pytest.raises(StepFailedError) as exc:
        acceptance.special_case_chain(seed=0)
    assert exc.value.step == "step_c_weyl"
    # the instance survives JSON and is the sixth B drawn (d = 2)
    b = matrix_from_dict(json.loads(json.dumps(exc.value.instance)))
    rng = acceptance._rng(0, 4)
    draws = [complex_gaussian(rng, (2, 2)) for _ in range(6)]
    np.testing.assert_array_equal(b, draws[5])
    # replayed on its own, the chain passes (the failure was injected)
    assert all(rep.holds for rep in interlacing_trace(b, tol=1e-9).reports)


def _failing_at(monkeypatch, column, draws):
    """Make criterion 4 see report `column` fail for the B drawn at the
    given (d, index) pairs, at every number of parts."""
    rng = acceptance._rng(0, 4)
    stacks = {d: matcore._complex_gaussians(rng, 1000, (d, d)) for d in range(2, 9)}
    targets = {d: stacks[d][[i for e, i in draws if e == d]] for d in stacks}
    orig = acceptance._chain_batch

    def kernel(m, tol):
        lhs, rhs, tols, mats = orig(m, tol)
        tols = tols.copy()
        hit = (m[:, None] == targets[m.shape[-1]][None]).all(axis=(2, 3)).any(axis=1)
        tols[hit, column] = -np.inf
        return lhs, rhs, tols, mats

    monkeypatch.setattr(acceptance, "_chain_batch", kernel)
    return stacks


# failures only in the second of two parts of d = 2 (B 512..999) and in a
# later size, so the first in draw order is B 600 of d = 2
LATE_FAILURES = [(2, 700), (3, 5), (2, 600), (5, 999)]


def test_special_case_chain_reports_a_late_step_failure_in_draw_order(monkeypatch, cpus):
    stacks = _failing_at(monkeypatch, STEPS.index("step_c_weyl"), LATE_FAILURES)
    failures = []
    for n in (2, 1):
        cpus(n)
        with pytest.raises(StepFailedError) as exc:
            acceptance.special_case_chain(seed=0)
        assert multiprocessing.active_children() == []
        failures.append(exc.value)
    for exc in failures:
        assert exc.step == "step_c_weyl"
        np.testing.assert_array_equal(matrix_from_dict(exc.instance), stacks[2][600])
    assert failures[0].args == failures[1].args
    assert failures[0].instance == failures[1].instance


def test_special_case_chain_reports_a_late_bound_failure_in_draw_order(monkeypatch, cpus):
    stacks = _failing_at(monkeypatch, len(STEPS) + 1, LATE_FAILURES)
    results = []
    for n in (2, 1):
        cpus(n)
        results.append(acceptance.special_case_chain(seed=0))
        assert multiprocessing.active_children() == []
    in_workers, in_process = results
    assert not in_workers.passed and not in_process.passed
    assert in_workers.details == in_process.details
    failed = in_workers.details["failed"]
    assert (failed["name"], failed["holds"], failed["d"]) == ("ineqid1", False, 2)
    assert failed["lhs"] == pytest.approx(check_ineqid1(stacks[2][600]).lhs, rel=1e-12)


@pytest.mark.parametrize("name", ["step_c_weyl", "ineqid1"])
def test_special_case_chain_reports_a_failure_from_its_own_kernel_call(monkeypatch, cpus,
                                                                       call_counts, name):
    # a failure in the first chunk ends the run at that chunk's kernel call:
    # the failing report is built from that call's rows
    cpus(1)
    _failing_kernel(monkeypatch, (STEPS + BOUNDS).index(name), 3)
    counts, count = call_counts
    count(acceptance, "_chain_batch")
    try:
        failed = acceptance.special_case_chain(seed=0).details["failed"]["name"]
    except StepFailedError as exc:
        failed = exc.step
    assert failed == name
    assert counts == {"_chain_batch": 1}


def test_special_case_chain_failed_bound_is_reported(monkeypatch):
    _failing_kernel(monkeypatch, len(STEPS) + 1, 3)
    result = acceptance.special_case_chain(seed=0)
    assert not result.passed
    assert result.details["failed"]["name"] == "ineqid1"
    assert result.details["failed"]["holds"] is False


def test_partial_trace_monotonicity_makes_one_verify_batch_per_dims(call_counts):
    counts, count = call_counts
    count(monogamy, "verify_batch")
    assert acceptance.partial_trace_monotonicity(seed=0).passed
    assert counts == {"verify_batch": len(acceptance.STATE_DIMS)} == {"verify_batch": 3}


def test_partial_trace_monotonicity_reports_first_failure_in_draw_order(monkeypatch):
    # inject a failing A|C link into the fifth state drawn (the second
    # 2x3x3 state) and a failing A|B link into the seventh (the third
    # 2x2x2 state); the earlier one in draw order is reported
    orig = acceptance.verify_batch

    def kernel(c):
        lhs, rhs2, rhs3, rhs4, n_ab, n_ac, n_abc = orig(c)
        n_ab, n_ac = n_ab.copy(), n_ac.copy()
        if c.shape[1:] == (2, 3, 3):
            n_ac[1] = n_abc[1] + 1.0
        if c.shape[1:] == (2, 2, 2):
            n_ab[2] = n_abc[2] + 1.0
        return lhs, rhs2, rhs3, rhs4, n_ab, n_ac, n_abc

    monkeypatch.setattr(acceptance, "verify_batch", kernel)
    result = acceptance.partial_trace_monotonicity(seed=0)
    assert not result.passed
    failed = result.details["failed"]
    assert failed["name"] == "monotonicity_AC" and failed["dims"] == [2, 3, 3]
    assert result.details["min_slack"] == pytest.approx(-1.0)
    # the report is rebuilt from the fifth state drawn
    rng = acceptance._rng(0, 3)
    states = [random_state(acceptance.STATE_DIMS[i % 3], rng) for i in range(5)]
    assert failed["lhs"] == monotonicity_report(states[4], tol=1e-10)[1].lhs
