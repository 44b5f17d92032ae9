"""Property tests of invariances from the paper, run by Hypothesis with
derandomize=True so that every run draws the same examples."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from negmono.matcore import complex_gaussian
from negmono.monogamy import verify_batch
from negmono.qstate import _partial_transpose_A, partial_transpose_A
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


# -- monogamy of the negativity ----------------------------------------------

DIMS = st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))


@st.composite
def coefficient_tensors(draw):
    """Unit-weight tensors of drawn dims: grid entries give product,
    GHZ-like and sparse states, the Gaussian part generic ones."""
    dims = draw(DIMS)
    size = int(np.prod(dims))
    re = draw(st.lists(ENTRY, min_size=size, max_size=size))
    im = draw(st.lists(ENTRY, min_size=size, max_size=size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = (np.array(re) + 1j * np.array(im)).reshape(dims)
    c = c + draw(NOISE) * complex_gaussian(rng, dims)
    weight = float(np.sum(np.abs(c) ** 2))
    assume(weight > 1e-6)
    return c / np.sqrt(weight)


def _unitary(rng, d):
    return np.linalg.qr(complex_gaussian(rng, (d, d)))[0]


@PROPERTY
@given(c=coefficient_tensors(), seed=st.integers(0, 2**32 - 1))
def test_negativities_invariant_under_local_unitaries(c, seed):
    rng = np.random.default_rng(seed)
    ua, ub, uc = (_unitary(rng, d) for d in c.shape)
    rotated = np.einsum("ai,bj,ck,ijk->abc", ua, ub, uc, c)
    *_, n_ab, n_ac, n_abc = verify_batch(np.stack([c, rotated]))
    for n in (n_ab, n_ac, n_abc):
        assert abs(n[1] - n[0]) <= 1e-10


@PROPERTY
@given(c=coefficient_tensors(), t=st.floats(0.05, 20.0))
def test_ineq4_sides_scale_as_fourth_power(c, t):
    lhs, _, _, rhs4, *_ = verify_batch(np.stack([c, t * c]))
    # both sides are O(1) at unit weight, so their roundoff is ~1e-15 * t^4
    assert abs(lhs[1] - t**4 * lhs[0]) <= 1e-10 * t**4
    assert abs(rhs4[1] - t**4 * rhs4[0]) <= 1e-10 * t**4


@PROPERTY
@given(dims=DIMS, n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_partial_transpose_of_a_stack_is_an_exact_involution(dims, n, seed):
    size = int(np.prod(dims))
    x = complex_gaussian(np.random.default_rng(seed), (n, size, size))
    pt = _partial_transpose_A(x, dims)
    np.testing.assert_array_equal(_partial_transpose_A(pt, dims), x)
    # each matrix of the stack is transposed as on its own
    for k in range(n):
        np.testing.assert_array_equal(pt[k], partial_transpose_A(x[k], dims))
