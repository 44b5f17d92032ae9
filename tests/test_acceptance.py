"""Acceptance gate: each test_criterion case runs one end-to-end criterion,
prints a single PASS/FAIL line with its runtime, and asserts the outcome.
The tests after it check how criterion 4 batches its matrices: the
decompositions it makes, its independence of the chunk size, and which
matrix a failure reports."""

import json
import math
import sys

import numpy as np
import pytest

from negmono import acceptance, matcore
from negmono.errors import StepFailedError
from negmono.matcore import complex_gaussian, matrix_from_dict
from negmono.specialcase import STEPS, interlacing_trace

CASES = [(i + 1, fn) for i, fn in enumerate(acceptance.CRITERIA)]

# Seed-0 details pinned to perfbench/reference.json: floats within
# 1e-12 + 1e-9 * |ref|, integers exactly.
PINNED = {
    "special_case_chain": {
        "min_slack": 0.01418362475343704,
        "max_unitary_residual": 1.6360469837353703e-14,
    },
    "commutative_lemma_exhaustive": {
        "min_slack": 0.0005899481148988195,
        "max_split_diff": 8.881784197001252e-16,
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
}


@pytest.mark.parametrize("index,criterion", CASES, ids=[f.__name__ for _, f in CASES])
def test_criterion(index, criterion):
    result = criterion(seed=0)
    print(result.line())
    assert result.index == index
    assert result.passed, result.details
    for key, ref in PINNED.get(criterion.__name__, {}).items():
        got = result.details[key]
        if isinstance(ref, int):
            assert got == ref, key
        else:
            assert abs(got - ref) <= 1e-12 + 1e-9 * abs(ref), key


def _count_calls(monkeypatch, counts, module, name):
    """Count calls of module.name at every negmono namespace that binds it."""
    orig = getattr(module, name)

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return orig(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname == "negmono" or modname.startswith("negmono."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, wrapper)
    if module is np.linalg:
        monkeypatch.setattr(np.linalg, name, wrapper)


def test_special_case_chain_counts_and_chunk_independence(monkeypatch):
    # per chunk of B: one eigh, five eigvalsh and one SVD over the stack,
    # and no per-B validation or report
    counts = dict.fromkeys(("eigh", "eigvalsh", "svd", "require_hermitian", "make_report"), 0)
    for name in ("eigh", "eigvalsh", "svd"):
        _count_calls(monkeypatch, counts, np.linalg, name)
    for name in ("require_hermitian", "make_report"):
        _count_calls(monkeypatch, counts, matcore, name)
    default = acceptance.special_case_chain(seed=0)
    chunks = 7 * math.ceil(1000 / acceptance.CHUNK)
    assert counts == {"eigh": chunks, "eigvalsh": 5 * chunks, "svd": chunks,
                      "require_hermitian": 0, "make_report": 0}
    # the results do not depend on the chunk size, to the last bit
    monkeypatch.setattr(acceptance, "CHUNK", 1)
    single = acceptance.special_case_chain(seed=0)
    assert default.passed and single.passed
    assert default.details == single.details


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


def test_special_case_chain_failed_bound_is_reported(monkeypatch):
    _failing_kernel(monkeypatch, len(STEPS) + 1, 3)
    result = acceptance.special_case_chain(seed=0)
    assert not result.passed
    assert result.details["failed"]["name"] == "ineqid1"
    assert result.details["failed"]["holds"] is False
