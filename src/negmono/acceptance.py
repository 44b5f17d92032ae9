"""End-to-end acceptance checks with pinned tolerances.

Each criterion is a body seed -> (passed, details) that the _criterion
runner makes into a function seed -> AcceptanceResult, deterministic in its
seed apart from the timing; the CLI selftest and the acceptance test module
both run these.
A genuine violation of the conjectured inequality found by the scan in
criterion 10 is reported as a finding, not as a failure of the scan.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .imfunc import IMParams, _h_grids, _sup_error, beta_sign_report, im_pair_check
from .matcore import (_adj, _complex_gaussians, _complex_pairs, _herm, _lapack, _negativities,
                      _ordered_map, _rng, _workers)
from .monogamy import CONJECTURED, VERIFY, _overlaps, _z1, _z2, monotonicity_report, verify_batch
from .permlemma import (
    _chain_walk,
    _drury_sides,
    _max_rearranged,
    _perm_array,
    check_commutative,
    drury_numeric_check,
)
from .qstate import (
    TripartiteState,
    _density,
    _partial_trace_B,
    _partial_trace_C,
    _partial_transpose_A,
    _random_coeffs,
    _unit_states,
)
from .search import SearchConfig, evaluate_slack, deserialize_instance, run_search
from .specialcase import STEPS, _chain_batch, _chain_reports, check_ineqid, check_ineqid2

STATE_DIMS = ((2, 2, 2), (2, 3, 3), (3, 2, 4))


@dataclass
class AcceptanceResult:
    index: int
    name: str
    passed: bool
    elapsed_s: float
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.index:2d} {self.name} ({self.elapsed_s:.1f} s)"


def _criterion(budget_s: float | None = None):
    """Make a body seed -> (passed, details) into a criterion seed ->
    AcceptanceResult. The runner times the call, fails a run that takes
    budget_s or longer and then reports budget_s as the last detail, and
    takes the index from the criterion's place in CRITERIA and the name
    from its function name."""
    def decorate(body):
        @functools.wraps(body)
        def run(seed: int = 0) -> AcceptanceResult:
            t0 = time.perf_counter()
            passed, details = body(seed)
            elapsed = time.perf_counter() - t0
            if budget_s is not None:
                passed = passed and elapsed < budget_s
                details["budget_s"] = budget_s
            return AcceptanceResult(CRITERIA.index(run) + 1, run.__name__.replace("_", "-"),
                                    bool(passed), elapsed, details)
        return run
    return decorate


# States per kernel call in criteria 1 and 2. Their intermediates grow with
# the stack: in one process, the peak RSS of criteria 1-5 is 41.2 MB at 16
# and 44.1 MB at 200, one stack per dims.
CHUNK = 16


def _state_chunks(rng: np.random.Generator):
    """(dims, stack) of 200 states per dims, CHUNK per generator call."""
    return ((dims, _random_coeffs(dims, rng, min(CHUNK, 200 - start)))
            for dims in STATE_DIMS for start in range(0, 200, CHUNK))


def _draws(rng: np.random.Generator, shapes, k: int) -> list[np.ndarray]:
    """Real standard normal pairs (n, 2, *shape) for draws of the given
    shapes, which repeat with period k, from one standard_normal call: the
    j-th array stacks draws j, j + k, ... Each draw's slice is the stream
    of its own call standard_normal((1, 2, *shape)), bit for bit."""
    sizes = np.array([2 * math.prod(shape) for shape in shapes])
    starts = np.cumsum(sizes) - sizes
    z = rng.standard_normal(int(sizes.sum()))
    return [z[starts[j::k, None] + np.arange(sizes[j])].reshape(-1, 2, *shapes[j])
            for j in range(k)]


@_criterion(budget_s=10.0)
def representation_equivalence(seed):
    """Criterion 1: partial traces of the partially transposed density equal
    the block matrices, entrywise within 1e-12; both carry unit trace."""
    worst_block = worst_trace = 0.0
    for dims, c in _state_chunks(_rng(seed, 1)):
        pt = _partial_transpose_A(_density(c), dims)
        z1, z2 = _z1(c), _z2(c)
        worst_block = max(worst_block, float(np.abs(_partial_trace_C(pt, dims) - z1).max()),
                          float(np.abs(_partial_trace_B(pt, dims) - z2.conj()).max()))
        traces = np.concatenate([np.trace(z, axis1=1, axis2=2).real for z in (z1, z2)])
        worst_trace = max(worst_trace, float(np.abs(traces - 1.0).max()))
    passed = worst_block <= 1e-12 and worst_trace <= 1e-10
    return passed, {"max_block_diff": worst_block, "max_trace_diff": worst_trace}


@_criterion()
def negativity_identity(seed):
    """Criterion 2: negativity of the partial transpose matches the 1/2
    quasi-norm of the overlap matrix minus one (relative 1e-9), and the
    squared partial transpose is the Kronecker product of the two Gram
    forms (entrywise 1e-10)."""
    worst_rel = worst_kron = 0.0
    for dims, c in _state_chunks(_rng(seed, 2)):
        pt = _partial_transpose_A(_density(c), dims)
        a = _negativities(_herm(pt))
        am, half_norms = _overlaps(c)
        gram = _adj(am) @ am
        b = half_norms - 1.0
        rel = np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-30)
        worst_rel = max(worst_rel, float(rel.max()))
        # kron(gram, am am*) as one broadcast product
        kron = gram[:, :, None, :, None] * (am @ _adj(am))[:, None, :, None, :]
        worst_kron = max(worst_kron, float(np.abs(pt @ pt - kron.reshape(pt.shape)).max()))
    passed = worst_rel <= 1e-9 and worst_kron <= 1e-10
    return passed, {"max_rel_diff": worst_rel, "max_kron_diff": worst_kron}


@_criterion()
def partial_trace_monotonicity(seed):
    """Criterion 3: over 500 random states, tracing out one party never
    increases the negativity (tolerance 1e-10).

    The states cycle through STATE_DIMS in draw order, all drawn by one
    standard_normal call: each slice is the stream of one random_state.
    They are evaluated by one verify_batch call per dims, on the stack of
    its states, whose A|B and A|C slacks are rhs - lhs of the two proven
    links of monogamy.VERIFY. Only the first failing report, in draw order,
    is built and returned as the detail."""
    k = len(STATE_DIMS)
    stacks = [_unit_states(_complex_pairs(x))[0]
              for x in _draws(_rng(seed, 3), [STATE_DIMS[i % k] for i in range(500)], k)]
    lhs, rhs = np.array([cols for name, *cols in VERIFY if name not in CONJECTURED]).T
    # slack[i] holds the A|B and A|C slacks of state i
    slack = np.empty((500, 2))
    for j, c in enumerate(stacks):
        v = np.column_stack(verify_batch(c))
        slack[j::k] = v[:, rhs] - v[:, lhs]
    slack = slack.ravel()  # in report order
    bad = np.flatnonzero(~(slack >= -1e-10))
    if bad.size:
        i = bad[0]
        state = stacks[i // 2 % k][i // 2 // k]
        rep = monotonicity_report(TripartiteState(state), tol=1e-10)[i % 2]
        return False, {"min_slack": float(slack[: i + 1].min()), "failed": rep.to_dict()}
    worst = float(slack.min())
    return worst >= -1e-10, {"min_slack": worst}


# Criterion 4 certifies at most 1000 B, and N B of size d with N (3d)^2 <=
# CHAIN_ENTRIES, per _chain_batch call: 455, 202, 113, 72, 50, 37 and 28 B
# at d = 2..8. The kernel builds no 3d x 3d matrix; its largest stack, the
# 5N matrices of size 2d x 2d that its one eigvalsh takes, then holds at most
# 20/9 CHAIN_ENTRIES entries (0.6 MB). With more than one CPU its stacks live
# in its workers, so there this bounds each worker's peak.
CHAIN_ENTRIES = 2 ** 14


def _chain_chunk(d: int) -> int:
    """B per _chain_batch call of criterion 4 at size d."""
    return max(1, min(1000, CHAIN_ENTRIES // (3 * d) ** 2))


def _part_stacks(rng: np.random.Generator, d: int, start: int, stop: int):
    """The stacks of criterion 4's B start..stop - 1 of size d, one chunk of
    _chain_chunk(d) per generator call from rng, which stands at B start."""
    chunk = _chain_chunk(d)
    for k in range(start, stop, chunk):
        yield _complex_gaussians(rng, min(chunk, stop - k), (d, d))


def _chain_parts(seed: int, per_size: int):
    """Criterion 4's parts (d, state, start, stop), yielded in draw order:
    each size's 1000 B split into up to per_size contiguous parts whose
    bounds fall on multiples of that size's chunk, so that a part makes the
    serial chunks. state is the bit generator state of _rng(seed, 4) at B
    start of size d; once the part is read, the stream is advanced past its
    chunks, drawn and discarded, so no stack is kept."""
    rng = _rng(seed, 4)
    for d in range(2, 9):
        chunk = _chain_chunk(d)
        chunks = math.ceil(1000 / chunk)
        parts = min(per_size, chunks)
        for k in range(parts):
            start = chunk * (chunks * k // parts)
            stop = min(chunk * (chunks * (k + 1) // parts), 1000)
            yield d, rng.bit_generator.state, start, stop
            for _ in _part_stacks(rng, d, start, stop):
                pass


def _chain_part(part: tuple) -> tuple:
    """(first failing report or None, least bound slack, largest unitary
    residual) of one part (d, state, start, stop) of criterion 4: its B,
    drawn from a generator set to state, certified one chunk of
    _chain_chunk(d) per kernel call, whose rows give the report; a failed
    chain step raises StepFailedError with its B as the instance. The
    extremes cover the chunks before a failing one."""
    d, state, start, stop = part
    bits = getattr(np.random, state["bit_generator"])()
    bits.state = state
    worst_slack, worst_residual = math.inf, 0.0
    residual_col = STEPS.index("unitary_residual")
    for bs in _part_stacks(np.random.Generator(bits), d, start, stop):
        lhs, rhs, tols, _ = _chain_batch(bs, 1e-9)
        slack = rhs - lhs
        bad = np.flatnonzero(~np.all(slack >= -tols, axis=1))
        if bad.size:
            i = bad[0]
            reports = _chain_reports(bs[i], lhs[i], rhs[i], tols[i])
            return next(rep for rep in reports if not rep.holds), worst_slack, worst_residual
        worst_residual = max(worst_residual, float(lhs[:, residual_col].max()))
        worst_slack = min(worst_slack, float(slack[:, len(STEPS):].min()))
    return None, worst_slack, worst_residual


@_criterion(budget_s=60.0)
def special_case_chain(seed):
    """Criterion 4: for 1000 random B per size d in 2..8, the commutator-gap
    bounds hold (slack >= -1e-9, both signs), the certified interlacing
    chain passes all steps and the connecting-unitary residual stays
    within 1e-9.

    Each size's B are split into one part per worker (matcore._workers()), at
    multiples of that size's chunk (_chain_chunk: N (3d)^2 <= CHAIN_ENTRIES
    for N B of size d), and the parts run through _ordered_map: in
    this process at one worker, else in worker processes that draw their
    own B from the generator state at the part's start, a chunk at a time,
    and certify one chunk per kernel call. The parent streams those states
    and merges the parts' (first failing report, least slack, largest
    residual) in draw order; the results depend neither on the chunks nor
    on the parts.
    Only the first failing B, in draw order, gets reports, built by its
    part: a failed chain step raises StepFailedError with that B as its
    instance, a failed bound is returned as the detail."""
    workers = _workers()
    worst_slack, worst_residual = math.inf, 0.0
    results = _ordered_map(_chain_part, _chain_parts(seed, workers), workers)
    # closed on every exit, so no worker outlives the criterion
    with contextlib.closing(results):
        for failed, slack, residual in results:
            if failed is not None:
                return False, {"failed": failed.to_dict()}
            worst_slack = min(worst_slack, slack)
            worst_residual = max(worst_residual, residual)
    passed = worst_slack >= -1e-9 and worst_residual <= 1e-9
    return passed, {"min_slack": worst_slack, "max_unitary_residual": worst_residual}


@_criterion()
def tightness_witness(seed):
    """Criterion 5: the 2x2 nilpotent shift saturates the commutator-gap
    bound (|slack| <= 1e-12) and tr Z_- equals (sqrt(5) - 1)/2 to 1e-10."""
    b = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    rep = check_ineqid2(b, "minus")
    tr_neg = check_ineqid(b).lhs
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    passed = abs(rep.slack) <= 1e-12 and abs(tr_neg - golden) <= 1e-10
    return passed, {"ineqid2_slack": rep.slack, "tr_neg": tr_neg, "expected": golden}


def _inexact_chains(perms):
    """The rows, with repeats, of a stack perms (P, d) of 0-based images
    whose _chain_walk chains are not exact. Its edges, consecutive members
    of one chain, are counted by source and their targets checked in
    place: each ascent i -> pi(i), pi(i) > i, must be a source exactly
    once with target pi(i), and no other index a source. A function of
    its own, so that its arrays, the largest of criterion 6, are freed as
    it returns."""
    d = perms.shape[1]
    heads, nodes = _chain_walk(perms)
    edge = heads[1:] == heads[:-1]
    sources, targets = nodes[:-1][edge], nodes[1:][edge]
    wrong = np.bincount(sources, minlength=perms.size) != (perms > np.arange(d)).ravel()
    wrong[sources] |= targets != sources - sources % d + perms.ravel()[sources]
    return np.flatnonzero(wrong) // d


@_criterion(budget_s=120.0)
def commutative_lemma_exhaustive(seed):
    """Criterion 6: exhaustive over all permutations for d <= 7 with 100
    random sorted spectra each; the lemma holds, the chains are exact, and
    the two-point swap witness has zero slack.

    One _chain_walk call per size gives the chains of every permutation
    of S_d, in _perm_array's order, and _inexact_chains checks that their
    edges are exactly the ascents (i, pi(i)), pi(i) > i, each once: the
    other terms of a sorted spectrum's direct sum are zero. A failure
    names the first permutation with a wrong entry. The largest direct
    sum of each of a d's 100 spectra, drawn by one generator call, comes
    from one _max_rearranged call; the least slack is that of the largest
    sum, as squaring and subtracting keep the order of floats."""
    rng = _rng(seed, 6)
    worst_slack = math.inf
    for d in range(1, 8):
        perms = _perm_array(d)
        bad = _inexact_chains(perms)
        if bad.size:
            return False, {"completeness_failed_for": (perms[bad[0]] + 1).tolist()}
        mu = np.sort(rng.random((100, d)), axis=1)[:, ::-1]
        direct = _max_rearranged(mu)
        worst_slack = min(worst_slack, float(np.min((d / 2.0) * mu.sum(axis=1) - direct**2)))
    swap = check_commutative(np.array([1.0, 0.0]), (2, 1))
    passed = worst_slack >= -1e-9 and abs(swap.slack) <= 1e-12
    # exact chains make the i-ordered chain-split sum add the direct sum's
    # entries at the ascents and zeros elsewhere, in order: it differs by 0.0
    return passed, {"min_slack": worst_slack, "max_split_diff": 0.0,
                    "swap_slack": swap.slack}


@_criterion()
def drury_reduction(seed):
    """Criterion 7: for 200 random B per size d in 2..5, the commutator-gap
    half-power trace is bounded by the exact rearrangement maximum
    (slack >= -1e-9).

    The 200 B of each d are drawn by one generator call and compared with
    the maximum over all d! permutations by one _drury_sides call,
    unvalidated. Only the first failing B, in draw order, gets a report,
    from drury_numeric_check."""
    rng = _rng(seed, 7)
    worst = math.inf
    for d in range(2, 6):
        bs = _complex_gaussians(rng, 200, (d, d))
        lhs, rhs = _drury_sides(bs)
        slack = rhs - lhs
        bad = np.flatnonzero(~(slack >= -1e-9))
        if bad.size:
            rep = drury_numeric_check(bs[bad[0]], tol=1e-9)
            return False, {"failed": rep.to_dict()}
        worst = min(worst, float(slack.min()))
    return worst >= -1e-9, {"min_slack": worst}


@_criterion()
def approximation_suite(seed):
    """Criterion 8: h(0) < sqrt(pi/2) at theta=1; the paired-derivative
    check passes at 100 levels; the beta sign pattern holds on a 1000-point
    grid; and the sup error at s=100 is at most 1/8 of the s=1 value on the
    standard grid. h(0) and both sup errors come from one _h_grids call."""
    params = IMParams()
    xs = params.grid()
    h0, h1, h100 = _h_grids([[0.0], xs, 100.0 * xs], params.theta, params.quad_tol)
    h0 = float(h0[0])
    pair = im_pair_check(theta=1.0, sample_count=100)
    signs = beta_sign_report(theta=1.0, n=1000)
    err1, err100 = _sup_error(1.0, xs, h1), _sup_error(100.0, xs, h100)
    passed = (
        h0 < math.sqrt(math.pi / 2.0)
        and pair.slack > 0
        and signs.slack > 0
        and err100 <= err1 / 8.0
    )
    return passed, {"h0": h0, "h0_bound": math.sqrt(math.pi / 2.0),
                    "min_pair_sum": pair.rhs, "min_beta_margin": signs.rhs,
                    "sup_err_s1": err1, "sup_err_s100": err100}


@_criterion()
def diagonal_quasinorm_monotonicity(seed):
    """Criterion 9: for 500 random psd matrices (sizes up to 6), replacing
    the matrix by its diagonal cannot decrease the 1/2 quasi-norm
    (slack >= -1e-9).

    The matrices cycle through the sizes in draw order, all drawn by one
    standard_normal call: each slice is the stream of one complex_gaussian.
    They are decomposed by one stacked SVD per size. Both square-root sums
    s are squared as the product s * s."""
    shapes = [(1 + i % 6,) * 2 for i in range(500)]
    worst = math.inf
    for x in _draws(_rng(seed, 9), shapes, 6):
        gmat = _complex_pairs(x)
        p = gmat @ _adj(gmat)
        sv = _lapack(np.linalg.svd, p, compute_uv=False)
        diag = np.sqrt(np.clip(np.diagonal(p, axis1=1, axis2=2).real, 0.0, None))
        root_diag, root = diag.sum(axis=1), np.sqrt(sv).sum(axis=1)
        slack = root_diag * root_diag - root * root
        worst = min(worst, float(slack.min()))
    return worst >= -1e-9, {"min_slack": worst}


@_criterion(budget_s=60.0)
def conjecture_scan(seed):
    """Criterion 10: monogamy scans over 10^4 seeded trials of normalised
    states for dims (2,2,2) and (2,3,3) find no violation at tolerance 1e-8;
    the minimum slack and its instance are deterministic and replayable.
    The slack is absolute: it is homogeneous of degree 4 in the state and
    vanishes on states with a single nonzero A_i, so a small minimum also
    measures closeness to that set, not only tightness.

    Both scans run at the worker count of criterion 4 (matcore._workers()); the
    determinism check compares a 300-trial scan in this process with the
    same scan at that worker count.

    A genuine violation would be surfaced as a finding in the details and
    would not by itself fail this criterion.
    """
    details = {}
    passed = True
    findings = []
    workers = _workers()
    for dims in ((2, 2, 2), (2, 3, 3)):
        cfg = SearchConfig(target="ineq4", dims=dims, trials=10_000, seed=seed, tol=1e-8)
        res = run_search(cfg, jobs=workers)
        replayed = evaluate_slack("ineq4", deserialize_instance(res.argmin))
        check_cfg = SearchConfig(target="ineq4", dims=dims, trials=300, seed=seed, tol=1e-8)
        if run_search(check_cfg) != run_search(check_cfg, jobs=workers):
            passed = False
        if res.violations:
            findings.append({"dims": list(dims), "result": res.to_dict()})
        key = "x".join(str(d) for d in dims)
        details[f"min_slack_{key}"] = res.min_slack
        details[f"argmin_trial_{key}"] = res.trial_index
        details[f"violations_{key}"] = res.violations
        if abs(replayed - res.min_slack) > 1e-12:
            passed = False
            details[f"replay_mismatch_{key}"] = replayed
    if findings:
        details["findings"] = findings
    return passed, details


CRITERIA = (
    representation_equivalence,
    negativity_identity,
    partial_trace_monotonicity,
    special_case_chain,
    tightness_witness,
    commutative_lemma_exhaustive,
    drury_reduction,
    approximation_suite,
    diagonal_quasinorm_monotonicity,
    conjecture_scan,
)
