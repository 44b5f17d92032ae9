import json
import warnings

import numpy as np
import pytest

from negmono.matcore import complex_gaussian, negativity
from negmono.monogamy import _overlaps
from negmono.qstate import (
    TAU_NORM,
    TripartiteState,
    _random_coeffs,
    _unit_states,
    coeff_matrices,
    density,
    partial_trace_B,
    partial_trace_C,
    partial_transpose_A,
    random_state,
    state_from_dict,
    state_to_dict,
)

DIMS = [(2, 2, 2), (2, 3, 4), (3, 2, 2), (1, 3, 2)]


def test_state_requires_normalization():
    c = np.ones((2, 2, 2), dtype=complex)
    with pytest.raises(ValueError, match=r"^squared weight 8\.0 differs from 1 by more than 1e-10$"):
        TripartiteState(c)
    s = TripartiteState(c, normalize=True)
    assert np.sum(np.abs(s.coeffs) ** 2) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError, match="^cannot normalise the zero tensor$"):
        TripartiteState(np.zeros((2, 2, 2)), normalize=True)


@pytest.mark.parametrize("coeffs,message", [
    (np.full((1, 1, 1), np.nan), "^coefficients must be finite$"),
    (np.full((1, 1, 1), np.inf), "^coefficients must be finite$"),
    (np.full((1, 1, 1), -np.inf), "^coefficients must be finite$"),
    (np.zeros((0, 2, 2)), r"^expected a non-empty rank-3 tensor, got shape \(0, 2, 2\)$"),
    (np.ones((1, 1)), r"^expected a non-empty rank-3 tensor, got shape \(1, 1\)$"),
], ids=["nan", "inf", "-inf", "empty", "rank-2"])
@pytest.mark.parametrize("normalize", [False, True])
def test_state_rejects_malformed_coefficients(coeffs, message, normalize):
    with pytest.raises(ValueError, match=message):
        TripartiteState(coeffs, normalize=normalize)


@pytest.mark.parametrize("scale", [1e-300, 1e-165, 3e-160, 1e200, 1e300])
def test_normalize_survives_squares_that_under_or_overflow(scale):
    # the squared weight of these tensors underflowed (to zero, or to a
    # subnormal sum 1.1e-5 off) or overflowed to inf, which gave "cannot
    # normalise the zero tensor", a weight of 1.0000111 or an all-zero state
    c = np.full((2, 2, 2), scale, dtype=complex)
    c[1, 0, 1] = complex(0.0, -scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = TripartiteState(c, normalize=True)
    assert abs(np.sum(np.abs(s.coeffs) ** 2) - 1.0) <= TAU_NORM
    np.testing.assert_allclose(s.coeffs, c / scale / np.sqrt(8.0), rtol=1e-15)


def test_state_dims():
    s = random_state((2, 3, 4), np.random.default_rng(0))
    assert (s.dA, s.dB, s.dC) == (2, 3, 4)
    assert s.dims == (2, 3, 4)


def test_density_is_rank_one_projector():
    s = random_state((2, 2, 3), np.random.default_rng(1))
    rho = density(s)
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-14)
    np.testing.assert_allclose(rho @ rho, rho, atol=1e-13)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("dims", DIMS)
def test_partial_transpose_is_involution(dims):
    s = random_state(dims, np.random.default_rng(2))
    rho = density(s)
    pt = partial_transpose_A(rho, dims)
    np.testing.assert_allclose(pt, pt.conj().T, atol=1e-14)
    np.testing.assert_array_equal(partial_transpose_A(pt, dims), rho)
    assert np.trace(pt).real == pytest.approx(1.0, abs=1e-13)


def test_partial_transpose_transposes_A_factor():
    # on product operators the A factor transposes and the rest is untouched
    rng = np.random.default_rng(3)
    dims = (2, 3, 2)
    xa = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    xbc = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    op = np.kron(xa, xbc)
    np.testing.assert_allclose(
        partial_transpose_A(op, dims), np.kron(xa.T, xbc), atol=1e-13
    )


def test_partial_traces_on_product_operators():
    rng = np.random.default_rng(4)
    dims = (2, 3, 2)
    xa = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    xb = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    xc = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    op = np.kron(np.kron(xa, xb), xc)
    np.testing.assert_allclose(
        partial_trace_C(op, dims), np.trace(xc) * np.kron(xa, xb), atol=1e-12
    )
    np.testing.assert_allclose(
        partial_trace_B(op, dims), np.trace(xb) * np.kron(xa, xc), atol=1e-12
    )


def test_partial_traces_preserve_trace():
    dims = (2, 3, 4)
    s = random_state(dims, np.random.default_rng(5))
    rho = density(s)
    for red in (partial_trace_B(rho, dims), partial_trace_C(rho, dims)):
        assert np.trace(red).real == pytest.approx(1.0, abs=1e-13)
        np.testing.assert_allclose(red, red.conj().T, atol=1e-14)


def test_coeff_matrices_and_amat_shapes():
    dims = (3, 2, 4)
    s = random_state(dims, np.random.default_rng(6))
    mats = coeff_matrices(s)
    assert len(mats) == 3 and mats[0].shape == (2, 4)
    a = _overlaps(s.coeffs[None])[0][0]
    assert a.shape == (8, 3)
    # column i of the A|BC matrix is vec(A_i) in the same layout reshape uses
    np.testing.assert_array_equal(a[:, 1], mats[1].reshape(-1))


def test_gram_matrix_entries():
    dims = (2, 3, 3)
    s = random_state(dims, np.random.default_rng(7))
    mats = coeff_matrices(s)
    a = _overlaps(s.coeffs[None])[0][0]
    g = a.conj().T @ a
    assert g.shape == (2, 2)
    for i in range(2):
        for j in range(2):
            expected = np.trace(mats[i].conj().T @ mats[j])
            assert g[i, j] == pytest.approx(expected, abs=1e-13)
    assert np.trace(g).real == pytest.approx(1.0, abs=1e-12)


def _n_abc(s):
    # N(A|BC) = ||a||_1^2 - 1, the trace-norm form of the A|BC negativity
    return float(np.linalg.norm(s.coeffs.reshape(s.dA, -1).T, "nuc") ** 2 - 1.0)


@pytest.mark.parametrize("dims", DIMS)
def test_negativity_ABC_matches_partial_transpose(dims):
    s = random_state(dims, np.random.default_rng(8))
    direct = negativity(partial_transpose_A(density(s), dims))
    assert _n_abc(s) == pytest.approx(direct, rel=1e-9, abs=1e-11)


def test_negativity_ABC_product_state_is_zero():
    # A decoupled from BC: all coefficient matrices proportional
    rng = np.random.default_rng(9)
    b = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    coeffs = np.stack([0.5 * b, 1.0j * b])
    s = TripartiteState(coeffs, normalize=True)
    assert _n_abc(s) == pytest.approx(0.0, abs=1e-10)


def test_diagonalize_gram():
    s = random_state((3, 3, 3), np.random.default_rng(10))
    a0 = s.coeffs.reshape(3, -1).T
    g0 = a0.conj().T @ a0
    # a local unitary on A, the eigenvectors of the overlap matrix, makes it diagonal
    rotated = TripartiteState(np.einsum("im,ijk->mjk", np.linalg.eigh(g0)[1], s.coeffs),
                              normalize=True)
    a = rotated.coeffs.reshape(3, -1).T
    g = a.conj().T @ a
    off = g - np.diag(np.diag(g))
    assert np.abs(off).max() < 1e-12
    # the rotation is local on A, so the A|BC negativity is unchanged
    n_abc = [negativity(partial_transpose_A(density(x), x.dims)) for x in (s, rotated)]
    assert n_abc[1] == pytest.approx(n_abc[0], abs=1e-10)
    # and the gram spectrum is preserved
    np.testing.assert_allclose(
        np.sort(np.diag(g).real), np.linalg.eigvalsh(g0), atol=1e-12
    )


def test_state_json_roundtrip():
    s = random_state((2, 3, 2), np.random.default_rng(11))
    d = state_to_dict(s)
    assert (d["dA"], d["dB"], d["dC"]) == (2, 3, 2)
    np.testing.assert_array_equal(state_from_dict(d).coeffs, s.coeffs)


def test_state_json_roundtrip_keeps_signed_zeros_and_subnormals():
    # every float is written and read as its own bits, so -0.0 and the
    # subnormals keep their sign and their last bit in both parts
    c = np.array([[[complex(1.0, -0.0), complex(-0.0, 5e-324)],
                   [complex(5e-324, -0.0), complex(-1e-310, 2.2250738585072014e-308)]]])
    s = TripartiteState(c)
    back = state_from_dict(json.loads(json.dumps(state_to_dict(s))))
    assert back.coeffs.tobytes() == c.tobytes()


@pytest.mark.parametrize("obj", [[1, 2], {"dA": 1}, {"dA": 1, "dB": 1, "dC": 1, "coeffs": [[1.0]]}])
def test_state_from_dict_rejects_malformed_json(obj):
    with pytest.raises(ValueError, match="state JSON"):
        state_from_dict(obj)


@pytest.mark.parametrize("key", ["dA", "dB", "dC"])
def test_state_json_sizes_must_be_integers(key):
    obj = {"dA": 1, "dB": 1, "dC": 1, "coeffs": [[1, 0]]}
    assert state_from_dict(obj).dims == (1, 1, 1)
    for bad in (1.5, True):
        with pytest.raises(ValueError, match=r"^state JSON sizes dA, dB, dC must be integers$"):
            state_from_dict({**obj, key: bad})


@pytest.mark.parametrize("op", [partial_transpose_A, partial_trace_B, partial_trace_C])
@pytest.mark.parametrize("dims", [(2.9, 1, 1), (2, 1.7, 1), (2, 1, 1.0)])
def test_operator_dims_must_be_integers(op, dims):
    # a fractional or float size is refused, not truncated to a size that fits
    with pytest.raises(ValueError, match=r"^dims must be an integer, got [\d.]+$"):
        op(np.eye(2), dims)
    np.testing.assert_array_equal(op(np.eye(2), (np.int64(2), 1, 1)), np.eye(2))


@pytest.mark.parametrize("op", [partial_transpose_A, partial_trace_B, partial_trace_C])
@pytest.mark.parametrize("dims", [(2, 1), (2, 1, 1, 1)])
def test_operator_dims_must_be_three_sizes(op, dims):
    # too few or too many sizes are refused by name, not by a failed unpack
    with pytest.raises(ValueError, match=r"^dims must be three sizes \(dA, dB, dC\), got \("):
        op(np.eye(2), dims)


@pytest.mark.parametrize("op", [partial_transpose_A, partial_trace_B, partial_trace_C])
@pytest.mark.parametrize("dims", [(-2, -2, 1), (4, 1, 0)])
def test_operator_dims_must_be_positive(op, dims):
    # sizes whose product fits the operator failed inside numpy's reshape
    # ("can only specify one unknown dimension")
    with pytest.raises(ValueError, match=r"^dims must be at least 1, got (-2|0)$"):
        op(np.eye(4), dims)


def test_random_state_deterministic_per_seed():
    a = random_state((2, 2, 2), np.random.default_rng(42))
    b = random_state((2, 2, 2), np.random.default_rng(42))
    np.testing.assert_array_equal(a.coeffs, b.coeffs)


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 3), (3, 2, 4), (1, 1, 1)])
def test_random_coeffs_are_the_random_state_draw(dims):
    # the unchecked drawer of the search, random_state and the former
    # definition of random_state (a Gaussian tensor normalised by the
    # constructor) draw the same bits and leave their generators in step
    rngs = [np.random.default_rng(13) for _ in range(3)]
    for _ in range(200):
        c = _random_coeffs(dims, rngs[0], 1)[0]
        assert c.shape == dims and c.dtype == complex
        np.testing.assert_array_equal(c, random_state(dims, rngs[1]).coeffs)
        former = TripartiteState(complex_gaussian(rngs[2], dims), normalize=True)
        np.testing.assert_array_equal(c, former.coeffs)
    assert len({rng.random() for rng in rngs}) == 1


# 4x6x7 and 8x8x8 hold more entries than numpy's pairwise-sum block of 128,
# so a row weight summed in another order would show
@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 2, 4), (1, 1, 1), (4, 6, 7), (8, 8, 8)])
@pytest.mark.parametrize("k", [1, 5, 16])
def test_random_coeffs_stack_is_k_single_draws(dims, k):
    # each row of a stack is normalised by its own weight and equals the
    # matching one of k single draws normalised by the constructor (one
    # float sum over the whole tensor), bit for bit; the draw after the
    # stack matches too
    rngs = [np.random.default_rng(17), np.random.default_rng(17)]

    def single():
        return TripartiteState(complex_gaussian(rngs[1], dims), normalize=True).coeffs

    c = _random_coeffs(dims, rngs[0], k)
    assert c.shape == (k, *dims) and c.dtype == complex
    singles = np.stack([single() for _ in range(k)])
    np.testing.assert_array_equal(c.view(float), singles.view(float))
    np.testing.assert_array_equal(_random_coeffs(dims, rngs[0], 1)[0], single())


def test_unit_states_normalises_any_stack_in_place():
    # rows of any memory layout are divided by their own norms, a zero row
    # by 1, and the squared weights come back; a transposed stack was once
    # left as it was, as its flat reshape is a copy
    rng = np.random.default_rng(23)
    base = complex_gaussian(rng, (4, 3, 2, 5))
    base[2] = 0.0
    for c in (base.copy(), base.copy().transpose(0, 3, 2, 1), base.copy()[::2]):
        want = np.sum(np.abs(c) ** 2, axis=(1, 2, 3))
        out, weight = _unit_states(c)
        assert out is c
        np.testing.assert_allclose(weight, want, rtol=1e-15)
        norms = np.sum(np.abs(c) ** 2, axis=(1, 2, 3))
        np.testing.assert_allclose(norms, np.where(want > 0.0, 1.0, 0.0), atol=1e-15)
