"""Acceptance gate: each test runs one end-to-end criterion, prints a
single PASS/FAIL line with its runtime, and asserts the outcome."""

import pytest

from negmono import acceptance

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
