import functools
import itertools
import math
import operator
import re
import warnings

import numpy as np
import permlemma_oracles
import pytest

from negmono import matcore
from negmono.matcore import _complex_gaussians, complex_gaussian, hermitian_eigenvalues
from negmono.permlemma import (
    D_MAX,
    _chain_walk,
    _max_rearranged,
    _pair_index,
    _pair_table,
    _perm_array,
    _rearranged_sums,
    chain_bound,
    check_commutative,
    commutative_lhs,
    drury_numeric_check,
    holder_half,
    ma_chains,
    max_rearranged_sum,
)
from negmono.search import evaluate_slack
from negmono.specialcase import _tr_sqrt_clipped, commutator_gap


@pytest.mark.parametrize(
    "image,expected",
    [
        ((), []),
        ((1,), []),
        ((1, 2, 3), []),
        ((2, 1), [(1, 2)]),
        ((2, 3, 4, 1), [(1, 2, 3, 4)]),
        ((3, 4, 2, 1), [(1, 3), (2, 4)]),
        ((2, 1, 4, 3), [(1, 2), (3, 4)]),
        ((4, 3, 1, 2), [(1, 4), (2, 3)]),
    ],
)
def test_ma_chains_examples(image, expected):
    assert ma_chains(image) == expected


@pytest.mark.parametrize("d", range(1, D_MAX + 1))
def test_chain_walk_is_the_per_permutation_builder(d):
    # the kernel on all of S_d gives ma_chains's chains of each permutation
    heads, nodes = _chain_walk(_perm_array(d))
    expected_heads, expected_nodes = permlemma_oracles.chain_walk(
        list(itertools.permutations(range(1, d + 1))))
    assert np.array_equal(heads, expected_heads) and np.array_equal(nodes, expected_nodes)


@pytest.mark.parametrize("d", [15, 16, 40])
def test_ma_chains_beyond_d_max(d):
    # the kernel's in-row type widens past uint8 at d = 16
    rng = np.random.default_rng(d)
    perms = np.array([rng.permutation(d) for _ in range(50)])
    heads, nodes = _chain_walk(perms)
    expected_heads, expected_nodes = permlemma_oracles.chain_walk(
        [tuple(int(i) + 1 for i in p) for p in perms])
    assert np.array_equal(heads, expected_heads) and np.array_equal(nodes, expected_nodes)


def test_ma_chains_validation():
    with pytest.raises(ValueError, match=r"^not a bijection on 1\.\.2: \(1, 1\)$"):
        ma_chains((1, 1))
    with pytest.raises(ValueError, match=r"^not a bijection on 1\.\.2: \(0, 1\)$"):
        ma_chains((0, 1))
    with pytest.raises(ValueError, match=r"^not a bijection on 1\.\.2: \(2, 3\)$"):
        ma_chains((2, 3))


def test_ma_chains_partition_ascending_edges():
    # non-terminal chain members are exactly the indices moved upward,
    # distinct chains never share an element, and chains come in the order
    # of their first elements
    for d in range(1, 7):
        for perm in itertools.permutations(range(1, d + 1)):
            chains = ma_chains(perm)
            assert chains == sorted(chains)
            seen = set()
            nonterminal = set()
            for c in chains:
                assert list(c) == sorted(c)
                assert len(c) >= 2
                assert not (seen & set(c))
                seen |= set(c)
                nonterminal |= set(c[:-1])
                for a, b in zip(c[:-1], c[1:]):
                    assert perm[a - 1] == b
            ascending = {i for i in range(1, d + 1) if perm[i - 1] > i}
            assert nonterminal == ascending


def test_commutative_lhs_hand_value():
    mu = np.array([4.0, 1.0, 0.0])
    # image (2,3,1): terms sqrt(4-1) + sqrt(1-0) + sqrt(0) = sqrt(3) + 1
    assert commutative_lhs(mu, (2, 3, 1)) == pytest.approx(math.sqrt(3) + 1.0)
    # identity picks up nothing
    assert commutative_lhs(mu, (1, 2, 3)) == 0.0


def test_check_commutative_requires_sorted_input():
    with pytest.raises(ValueError, match="^spectrum must be sorted non-increasing$"):
        check_commutative(np.array([1.0, 2.0]), (2, 1))
    with pytest.raises(ValueError, match="^spectrum entries must be non-negative$"):
        check_commutative(np.array([1.0, -0.1]), (2, 1))


def test_check_commutative_swap_saturates():
    rep = check_commutative(np.array([1.0, 0.0]), (2, 1))
    assert rep.holds
    assert rep.lhs == pytest.approx(1.0, abs=1e-14)
    assert rep.rhs == pytest.approx(1.0, abs=1e-14)
    assert rep.slack == pytest.approx(0.0, abs=1e-12)


def test_check_commutative_exhaustive_small():
    rng = np.random.default_rng(1)
    for d in range(1, 6):
        for _ in range(20):
            mu = np.sort(rng.random(d))[::-1]
            for perm in itertools.permutations(range(1, d + 1)):
                assert check_commutative(mu, perm).holds


def test_check_commutative_square_past_the_float_range_is_a_silent_inf():
    # three swapped pairs at the top of the float range: the sum 3 sqrt(a)
    # rounds just above sqrt(max), so its square would be a silent inf that
    # reads the proven lemma as failed. Such a spectrum, d^2 max(mu) above
    # half the largest float, is rejected by name; at that bound the square
    # stays finite and the lemma holds
    a = 1.997436816513684e307
    limit = 0.5 * 1.7976931348623157e308 / 36
    message = re.escape(f"spectrum entries must be at most {limit!r} (half the largest float "
                        f"over d^2, d = 6), got {a!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        check_commutative([a] * 3 + [0.0] * 3, (4, 5, 6, 1, 2, 3))
    with pytest.raises(ValueError, match=f"^{message}$"):
        evaluate_slack("commutative", ([a] * 3 + [0.0] * 3, (4, 5, 6, 1, 2, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_commutative([limit] * 3 + [0.0] * 3, (4, 5, 6, 1, 2, 3))
    assert math.isfinite(rep.lhs) and rep.holds


def test_chain_bound_holds_per_chain():
    rng = np.random.default_rng(2)
    mu = np.sort(rng.random(6))[::-1]
    for chain in [(1, 2), (1, 3, 5), (2, 4, 5, 6), (1, 2, 3, 4, 5, 6)]:
        rep = chain_bound(mu, chain)
        assert rep.holds
        r = len(chain)
        expected = math.sqrt(r / 2.0 * float(np.sum(mu[np.array(chain) - 1])))
        assert rep.rhs == pytest.approx(expected, abs=1e-13)


def test_fractional_permutation_and_chain_entries_are_rejected():
    # int() truncated each entry: (1.9, 2.5, 3.2) passed as the identity
    mu = np.array([0.5, 0.3, 0.2])
    with pytest.raises(ValueError, match=r"^permutation entry must be an integer, got 1\.9$"):
        check_commutative(mu, (1.9, 2.5, 3.2))
    # numpy 2 writes the entry as np.float64(2.0), numpy 1 as 2.0
    with pytest.raises(ValueError, match=r"^permutation entry must be an integer, got \S*2\.0\)?$"):
        ma_chains(np.array([2.0, 1.0]))
    with pytest.raises(ValueError, match=r"^chain entry must be an integer, got 1\.5$"):
        chain_bound(mu, (1.5, 2))
    # operator.index reads True as 1: (True, 2, 3) passed as the identity
    with pytest.raises(ValueError, match=r"^permutation entry must be an integer, got True$"):
        check_commutative(mu, (True, 2, 3))


def test_integer_permutation_and_chain_entries_are_accepted():
    mu = np.array([0.5, 0.3, 0.2])
    for image in ((2, 3, 1), np.array([2, 3, 1]), np.array([2, 3, 1], dtype=np.int32)):
        assert check_commutative(mu, image) == check_commutative(mu, (2, 3, 1))
        assert ma_chains(image) == [(1, 2, 3)]
    assert chain_bound(mu, np.array([1, 3])) == chain_bound(mu, (1, 3))


def test_chain_bound_validation():
    mu = np.array([3.0, 2.0, 1.0])
    for chain in ((2, 1), (1, 1), (1, 4), (0, 2)):
        message = f"not a strictly ascending index chain: {chain}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            chain_bound(mu, chain)


def test_holder_half_bound_and_equality():
    rng = np.random.default_rng(3)
    x = rng.random(5)
    p = rng.random(5)
    p /= p.sum()
    rep = holder_half(x, p)
    assert rep.holds
    # equality when x is proportional to p squared
    eq = holder_half(3.0 * p * p, p)
    assert eq.slack == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError, match="^weights must be positive and sum to one$"):
        holder_half(x, np.full(5, 0.3))
    with pytest.raises(ValueError, match="^x entries must be non-negative$"):
        holder_half(-x, p)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_holder_half_rejects_non_finite_entries(bad):
    p = np.full(3, 1.0 / 3.0)
    with pytest.raises(ValueError, match="finite"):
        holder_half([1.0, bad, 0.5], p)
    with pytest.raises(ValueError, match="finite"):
        holder_half([1.0, 2.0, 0.5], [0.5, 0.5, bad])


@pytest.mark.parametrize("bad", [[], [[0.5, 0.5]]], ids=["empty", "2-d"])
def test_holder_half_rejects_malformed_vectors(bad):
    # an empty or 2-d x or p was reported as a shape mismatch, or not at all
    # when both were alike
    for x, p in ((bad, [0.5, 0.5]), ([1.0, 1.0], bad), (bad, bad)):
        with pytest.raises(ValueError, match=r"^expected a non-empty vector, got shape \("):
            holder_half(x, p)


def test_max_rearranged_sum_two_point():
    best, image = max_rearranged_sum(np.array([1.0, 0.0]))
    assert best == pytest.approx(1.0)
    assert image == (2, 1)


def test_max_rearranged_sum_brute_force_agrees():
    rng = np.random.default_rng(4)
    for d in (2, 3, 4):
        mu = np.sort(rng.random(d))[::-1]
        best, image = max_rearranged_sum(mu)
        ref = max(
            commutative_lhs(mu, perm)
            for perm in itertools.permutations(range(1, d + 1))
        )
        assert best == pytest.approx(ref, abs=1e-13)
        assert commutative_lhs(mu, image) == pytest.approx(best, abs=1e-13)


def test_max_rearranged_sum_size_limit():
    with pytest.raises(ValueError, match=f"^exhaustive enumeration limited to d <= {D_MAX}$"):
        max_rearranged_sum(np.ones(D_MAX + 1))


@pytest.mark.parametrize("mu", [[np.nan, 1.0], [np.inf, 0.0], [1.0, -np.inf], [], [[1.0, 0.0]],
                                [1.0, -0.5]],
                         ids=["nan", "inf", "-inf", "empty", "2-d", "negative"])
def test_max_rearranged_sum_rejects_malformed_spectra(mu):
    # a non-finite entry used to give (nan, (1, 2)) and an empty vector
    # (0.0, ()); a 2-d input failed inside numpy's broadcasting
    with pytest.raises(ValueError, match="non-empty vector|finite|non-negative"):
        max_rearranged_sum(mu)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_commutative_rejects_non_finite_spectra(bad):
    # a non-finite entry is bad input, not a failure of the proven lemma
    with pytest.raises(ValueError, match="finite"):
        check_commutative([bad, 0.0], (2, 1))
    with pytest.raises(ValueError, match="finite"):
        commutative_lhs([0.0, bad], (2, 1))


@pytest.mark.parametrize("d", range(1, D_MAX + 1))
def test_rearranged_sums_match_the_elementwise_sum(d):
    # the pair-table gather is the elementwise terms folded left from +0.0,
    # to the last bit: for one spectrum against all of S_d, and for a stack
    # with one permutation per row; unsorted spectra with ties and zeros
    # reach the clip at 0. Below 8 terms that is also numpy's sum
    def fold(v, perm):
        return functools.reduce(operator.add, np.sqrt(np.clip(v - v[perm], 0, None)).tolist(), 0.0)

    rng = np.random.default_rng(200 + d)
    mu = rng.random(d)
    mu[rng.random(d) < 0.3] = 0.0
    if d > 2:
        mu[1] = mu[2]
    perms = _perm_array(d)
    got = _rearranged_sums(_pair_table(mu), _pair_index(perms))
    assert got.tolist() == [fold(mu, perm) for perm in perms]
    if d < 8:
        assert got.tolist() == [np.sqrt(np.clip(mu - mu[perm], 0, None)).sum() for perm in perms]
    stack = rng.random((50, d))
    rows = perms[rng.integers(len(perms), size=50)]
    index = _pair_index(rows) + d * d * np.arange(50)[:, None]
    got = _rearranged_sums(_pair_table(stack).ravel(), index)
    assert got.tolist() == [fold(v, perm) for v, perm in zip(stack, rows)]


@pytest.mark.parametrize("d", range(1, D_MAX + 1))
def test_max_rearranged_is_the_enumerated_maximum(d):
    # the subset DP gives the largest of the d! gathered sums, each folded
    # left, to the last bit at every d, d = 8 included, where numpy's own
    # sum turns pairwise: for random spectra, spectra with ties and zeros,
    # all-equal spectra, and the clipped spectra of B B* that _drury_sides
    # builds, whose maximum is also drury_numeric_check's rhs (d = 8
    # gathers 40320 sums a spectrum, so it gets fewer)
    rng = np.random.default_rng(300 + d)
    count = 200 if d < D_MAX else 40
    ties = rng.random((7, d))
    ties[rng.random((7, d)) < 0.3] = 0.0
    if d > 2:
        ties[:, 1] = ties[:, 2]
    equal = np.array([[0.0] * d, [0.7] * d, [1.0] * d])
    bs = _complex_gaussians(rng, count // 4, (d, d))
    gram = np.linalg.eigvalsh(bs @ bs.conj().transpose(0, 2, 1))[:, ::-1]
    index = _pair_index(_perm_array(d))
    for mu in (rng.random((count, d)), ties, equal, np.clip(gram, 0.0, None)):
        ref = np.array([_rearranged_sums(_pair_table(v), index).max() for v in mu])
        assert _max_rearranged(mu).tobytes() == ref.tobytes()
    for b in bs:
        mu = np.clip(hermitian_eigenvalues(b @ b.conj().T)[::-1], 0.0, None)
        assert drury_numeric_check(b).rhs == _rearranged_sums(_pair_table(mu), index).max()


def test_drury_shift_equality():
    b = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    rep = drury_numeric_check(b)
    assert rep.holds
    assert rep.lhs == pytest.approx(1.0, abs=1e-13)
    assert rep.rhs == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_drury_random_matrices(d):
    rng = np.random.default_rng(d)
    for _ in range(15):
        rep = drury_numeric_check(complex_gaussian(rng, (d, d)))
        assert rep.holds, rep


@pytest.mark.parametrize("d", range(1, D_MAX + 1))
def test_drury_lhs_is_the_ineqid2_plus_side(d):
    # the left side is tr sqrt(Delta_plus) as the special-case bound
    # ineqid2_plus defines it: to the last bit the validated per-matrix form
    # (d = 8 enumerates 40320 permutations per B, so it gets fewer B)
    rng = np.random.default_rng(100 + d)
    for b in _complex_gaussians(rng, 300 if d < D_MAX else 40, (d, d)):
        ref = float(_tr_sqrt_clipped(hermitian_eigenvalues(commutator_gap(b))))
        assert drury_numeric_check(b).lhs == ref


def test_drury_validates_its_input_once(call_counts):
    # B is checked at the boundary and its own product B B* is not checked
    # again; the spectrum of B B* is the validated one to the last bit
    counts, count = call_counts
    for name in ("as_complex_matrix", "require_hermitian"):
        count(matcore, name)
    bs = _complex_gaussians(np.random.default_rng(7), 20, (4, 4))
    reps = [drury_numeric_check(b) for b in bs]
    assert counts == {"as_complex_matrix": len(bs), "require_hermitian": 0}
    for b, rep in zip(bs, reps):
        mu = hermitian_eigenvalues(b @ b.conj().T)[::-1]
        assert rep.rhs == max_rearranged_sum(np.clip(mu, 0.0, None))[0]


def test_drury_normal_matrix_trivial():
    # zero commutator gap: lhs = 0 while rhs >= 0
    rng = np.random.default_rng(5)
    u = np.linalg.qr(complex_gaussian(rng, (3, 3)))[0]
    b = u @ np.diag([1.0, 2.0, 3.0]) @ u.conj().T
    rep = drury_numeric_check(b)
    assert rep.lhs == pytest.approx(0.0, abs=1e-6)
    assert rep.holds


def test_drury_size_limit():
    with pytest.raises(ValueError, match=f"^exhaustive enumeration limited to d <= {D_MAX}$"):
        drury_numeric_check(np.eye(D_MAX + 1, dtype=complex))
