"""Property tests of invariances from the paper, run by Hypothesis with
derandomize=True so that every run draws the same examples."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from negmono.matcore import complex_gaussian
from negmono.specialcase import check_ineqid2, interlacing_trace, pad_square

PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)

# Entries on a quarter-integer grid give exactly normal, nilpotent, zero and
# rank-deficient matrices; a seeded Gaussian part of drawn size breaks the
# structure by anything from roundoff level to O(1).
ENTRY = st.integers(-8, 8).map(lambda k: k / 4.0)
NOISE = st.sampled_from([0.0, 1e-12, 1e-6, 1e-2, 1.0])


@st.composite
def matrices(draw, rows, cols):
    r, c = draw(rows), draw(cols)
    re = draw(st.lists(ENTRY, min_size=r * c, max_size=r * c))
    im = draw(st.lists(ENTRY, min_size=r * c, max_size=r * c))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b = (np.array(re) + 1j * np.array(im)).reshape(r, c)
    return b + draw(NOISE) * complex_gaussian(rng, (r, c))


SQUARE = st.integers(1, 5).flatmap(lambda d: matrices(st.just(d), st.just(d)))


def _values(trace):
    return np.array([[r.lhs, r.rhs] for r in trace.reports])


def _tol(b):
    # eigenvalues move by eps ||B||^2; the square roots of the gap parts by
    # up to sqrt(64 eps) ||B|| where the clamp of numerical zeros acts
    return 1e-6 * (1.0 + float(np.linalg.norm(b)) ** 2)


@PROPERTY
@given(b=SQUARE, seed=st.integers(0, 2**32 - 1))
def test_special_case_invariant_under_unitary_conjugation(b, seed):
    d = b.shape[0]
    v = np.linalg.qr(complex_gaussian(np.random.default_rng(seed), (d, d)))[0]
    got = _values(interlacing_trace(v @ b @ v.conj().T))
    want = _values(interlacing_trace(b))
    assert np.abs(got - want).max() <= _tol(b)


@PROPERTY
@given(b=SQUARE)
def test_adjoint_swaps_ineqid2_signs(b):
    # Delta(B*) = -Delta(B), so the Jordan parts trade places
    for sign, other in (("minus", "plus"), ("plus", "minus")):
        swapped = check_ineqid2(b.conj().T, sign)
        rep = check_ineqid2(b, other)
        assert abs(swapped.lhs - rep.lhs) <= _tol(b)
        assert abs(swapped.rhs - rep.rhs) <= _tol(b)


@PROPERTY
@given(b=matrices(st.integers(1, 4), st.integers(1, 4)), extra=st.integers(1, 3))
def test_zero_padding_preserves_every_bound(b, extra):
    square = pad_square(b)
    n = square.shape[0] + extra
    padded = np.zeros((n, n), dtype=complex)
    padded[: square.shape[0], : square.shape[0]] = square
    small, big = interlacing_trace(square), interlacing_trace(padded)
    assert all(r.holds for r in small.reports + big.reports)
    # zero rows and columns add no negative spectrum and no gap, so the
    # bounded quantities are unchanged while sqrt(d/2) ||B|| only grows
    by_name = {r.name: r for r in small.reports}
    for rep in big.reports:
        if rep.name.startswith("ineqid"):
            assert abs(rep.lhs - by_name[rep.name].lhs) <= _tol(b)
            assert rep.rhs >= by_name[rep.name].rhs - _tol(b)
