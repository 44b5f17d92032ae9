import numpy as np
import pytest

from negmono.matcore import TAU_CHECK, complex_gaussian, negativity
from negmono.monogamy import (
    _z1,
    _z2,
    build_Z1,
    build_Z2,
    ineq2_report,
    ineq3_report,
    ineq4_report,
    ineq4_batch,
    monotonicity_report,
    verify_batch,
)
from negmono.qstate import (
    TripartiteState,
    _random_coeffs,
    _stacked,
    coeff_matrices,
    density,
    partial_trace_B,
    partial_trace_C,
    partial_transpose_A,
    random_state,
)

DIMS = [(2, 2, 2), (2, 3, 4), (3, 2, 2), (4, 2, 3)]


def random_mats(rng, n, db, dc):
    return [complex_gaussian(rng, (db, dc)) for _ in range(n)]


@pytest.mark.parametrize("dims", DIMS)
def test_block_matrices_against_loops(dims):
    s = random_state(dims, np.random.default_rng(0))
    mats = coeff_matrices(s)
    n, (db, dc) = len(mats), mats[0].shape
    z1 = np.zeros((n * db, n * db), dtype=complex)
    z2 = np.zeros((n * dc, n * dc), dtype=complex)
    for i in range(n):
        for j in range(n):
            z1[i * db:(i + 1) * db, j * db:(j + 1) * db] = mats[j] @ mats[i].conj().T
            z2[i * dc:(i + 1) * dc, j * dc:(j + 1) * dc] = mats[j].conj().T @ mats[i]
    np.testing.assert_allclose(build_Z1(mats), z1, atol=1e-13)
    np.testing.assert_allclose(build_Z2(mats), z2, atol=1e-13)


# The index contractions that defined Z1 and Z2 before they became one
# matmul per stack, kept as the reference of the kernels.
def _einsum_z1(c):
    n, dA, dB, _ = c.shape
    return np.einsum("njpq,nirq->nipjr", c, c.conj()).reshape(n, dA * dB, dA * dB)


def _einsum_z2(c):
    n, dA, _, dC = c.shape
    return np.einsum("njqp,niqr->nipjr", c.conj(), c).reshape(n, dA * dC, dA * dC)


@pytest.mark.parametrize("dims", DIMS + [(1, 3, 2), (4, 1, 1), (3, 3, 3)])
def test_z_kernels_match_einsum_and_do_not_depend_on_the_stack(dims):
    rng = np.random.default_rng(14)
    c = _random_coeffs(dims, rng, 128)
    for kernel, reference in ((_z1, _einsum_z1), (_z2, _einsum_z2)):
        z = kernel(c)
        np.testing.assert_allclose(z, reference(c), rtol=0, atol=1e-13)
        # each row equals an N = 1 call bit for bit, which the exact
        # lockstep-vs-scalar descent tests rely on
        for k in range(len(c)):
            np.testing.assert_array_equal(kernel(c[k:k + 1])[0], z[k])


@pytest.mark.parametrize("dims", DIMS)
def test_block_matrices_are_partial_traces(dims):
    s = random_state(dims, np.random.default_rng(1))
    mats = coeff_matrices(s)
    pt = partial_transpose_A(density(s), dims)
    np.testing.assert_allclose(partial_trace_C(pt, dims), build_Z1(mats), atol=1e-12)
    np.testing.assert_allclose(
        partial_trace_B(pt, dims), build_Z2(mats).conj(), atol=1e-12
    )


def test_block_matrices_hermitian_unit_trace():
    s = random_state((3, 3, 2), np.random.default_rng(2))
    mats = coeff_matrices(s)
    for z in (build_Z1(mats), build_Z2(mats)):
        np.testing.assert_allclose(z, z.conj().T, atol=1e-13)
        assert np.trace(z).real == pytest.approx(1.0, abs=1e-12)


def test_two_block_identity_display():
    # with A_1 = identity, A_2 = B the first block matrix is [[I, B], [B*, BB*]]
    rng = np.random.default_rng(3)
    b = complex_gaussian(rng, (3, 3))
    z = build_Z1([np.eye(3, dtype=complex), b])
    expected = np.block([[np.eye(3), b], [b.conj().T, b @ b.conj().T]])
    np.testing.assert_allclose(z, expected, atol=1e-14)


@pytest.mark.parametrize("dims", DIMS)
def test_inequality_chain_holds_on_random_states(dims):
    rng = np.random.default_rng(4)
    for _ in range(20):
        s = random_state(dims, rng)
        mats = coeff_matrices(s)
        r2 = ineq2_report(s)
        r3 = ineq3_report(mats)
        r4 = ineq4_report(mats)
        assert r2.holds and r3.holds and r4.holds
        # the overlap-matrix bound is the sharpest of the three
        assert r2.rhs <= r3.rhs + 1e-10
        # for unit-weight states the cross-term form equals the sum form
        assert r4.rhs == pytest.approx(r3.rhs, rel=1e-10, abs=1e-12)
        assert r4.lhs == pytest.approx(r2.lhs, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("dims", DIMS + [(1, 3, 2), (4, 1, 1)])
def test_verify_batch_matches_single_state_formulas(dims):
    # the stacked kernel does the arithmetic of the single-state route
    # (ineq4_batch's Z1/Z2 spectra, the trace norm of the A|BC coefficient
    # matrix by SVD, squares as products x * x), so every value agrees to the
    # last bit (libm pow(x, 2) in place of x * x changes about one square in a
    # thousand); the three negativities also stay within 1e-13 of the
    # density route
    rng = np.random.default_rng(11)
    states = [random_state(dims, rng) for _ in range(200)]
    got = np.column_stack(verify_batch(np.stack([s.coeffs for s in states])))
    for row, s in zip(got, states):
        mats = coeff_matrices(s)
        r4 = ineq4_report(mats)
        n1, n2, _, _ = ineq4_batch(s.coeffs[None])
        norms = [np.sqrt(np.sum(np.abs(m) ** 2)) for m in mats]
        root, w = np.linalg.norm(s.coeffs.reshape(dims[0], -1).T, "nuc"), float(np.sum(norms))
        q = root * root
        want = [
            r4.lhs,
            (q - 1.0) * (q - 1.0),
            (w * w - 1.0) * (w * w - 1.0),
            r4.rhs,
            float(n1[0]),
            float(n2[0]),
            q - 1.0,
        ]
        assert row.tolist() == want
        pt = partial_transpose_A(density(s), dims)
        density_route = [negativity(partial_trace_C(pt, dims)),
                         negativity(partial_trace_B(pt, dims)), negativity(pt)]
        np.testing.assert_allclose(row[4:], density_route, rtol=0.0, atol=1e-13)


def test_ineq2_requires_normalized_state():
    s = random_state((2, 2, 2), np.random.default_rng(5))
    s.coeffs *= 2.0  # break the invariant behind the constructor's back
    with pytest.raises(ValueError, match=r"^squared weight [\d.]+ differs from 1 by more than 1e-10$"):
        ineq2_report(s)


def test_unit_weight_is_checked_once_with_one_message():
    # the state constructor and the normalised reports share one check
    s = random_state((2, 3, 2), np.random.default_rng(5))
    c = 2.0 * s.coeffs
    s.coeffs = c
    messages = set()
    for call in (lambda: TripartiteState(c), lambda: ineq2_report(s),
                 lambda: ineq3_report(coeff_matrices(s))):
        with pytest.raises(ValueError) as info:
            call()
        messages.add(str(info.value))
    assert messages == {f"squared weight {float(np.sum(np.abs(c) ** 2))!r} differs from 1 "
                        "by more than 1e-10"}


def test_ineq4_scale_free():
    # scaling all matrices by t scales both sides by t^4
    rng = np.random.default_rng(6)
    mats = random_mats(rng, 3, 2, 2)
    base = ineq4_report(mats)
    for t in (0.5, 2.0, 7.0):
        scaled = ineq4_report([t * m for m in mats])
        assert scaled.lhs == pytest.approx(t**4 * base.lhs, rel=1e-9)
        assert scaled.rhs == pytest.approx(t**4 * base.rhs, rel=1e-12)
        assert scaled.slack == pytest.approx(t**4 * base.slack, rel=1e-8)


def _ineq4_batch_record(mats):
    # ineq4_report's former record, made from ineq4_batch alone
    m = _stacked(mats)
    with np.errstate(over="ignore"):
        _, _, lhs, rhs = (float(v[0]) for v in ineq4_batch(m[None]))
    rec = {"name": "ineq4", "lhs": lhs, "rhs": rhs, "slack": rhs - lhs,
           "holds": rhs - lhs >= -TAU_CHECK, "dims": list(m.shape)}
    return {**rec, "slack_rel": (rhs - lhs) / rhs} if rhs > 0 else rec


def test_ineq4_report_is_the_ineq4_batch_record():
    # the verify_reports row is the record ineq4_report built from
    # ineq4_batch, key order included: on unit states, scaled and
    # non-normalised matrices, one matrix, where rhs = 0, and matrices so
    # large that the ineq2/ineq3 right-hand sides of the row overflow
    rng = np.random.default_rng(12)
    cases = [coeff_matrices(random_state(dims, rng)) for dims in DIMS]
    cases += [random_mats(rng, 3, 2, 2), [7.0 * m for m in random_mats(rng, 2, 3, 1)],
              [complex_gaussian(rng, (3, 3))], [np.eye(2)], [1e80 * np.eye(2), 1e80 * np.ones((2, 2))]]
    for mats in cases:
        with np.errstate(over="ignore"):
            got = ineq4_report(mats).to_dict()
        assert repr(list(got.items())) == repr(list(_ineq4_batch_record(mats).items()))
    assert got["rhs"] == np.inf


def test_ineq4_single_matrix_degenerates():
    # one coefficient matrix: both block matrices are psd, rhs has no cross terms
    rng = np.random.default_rng(7)
    rep = ineq4_report([complex_gaussian(rng, (3, 3))])
    assert rep.lhs == pytest.approx(0.0, abs=1e-10)
    assert rep.rhs == 0.0


def test_diagonal_gram_aligns_bounds():
    # after diagonalizing the overlap matrix the two right-hand sides agree
    s = random_state((3, 2, 3), np.random.default_rng(8))
    a = s.coeffs.reshape(3, -1).T
    # a local unitary on A, the eigenvectors of G = a* a, makes G diagonal
    v = np.linalg.eigh(a.conj().T @ a)[1]
    rot = TripartiteState(np.einsum("im,ijk->mjk", v, s.coeffs), normalize=True)
    r2 = ineq2_report(rot)
    r3 = ineq3_report(coeff_matrices(rot))
    assert r2.rhs == pytest.approx(r3.rhs, abs=1e-10)


def test_monotonicity_reports():
    s = random_state((2, 3, 4), np.random.default_rng(9))
    rep_ab, rep_ac = monotonicity_report(s)
    assert rep_ab.name == "monotonicity_AB" and rep_ac.name == "monotonicity_AC"
    assert rep_ab.holds and rep_ac.holds
    assert rep_ab.rhs == pytest.approx(rep_ac.rhs, abs=1e-12)


def test_monotonicity_equality_for_trivial_C():
    # dC = 1 means BC is just B, so the A|B negativity equals the A|BC one
    # (dB = 1 likewise for A|C), and ineq2 is tight; dA > dB * dC makes the
    # overlap matrix rank-deficient
    rng = np.random.default_rng(10)
    for dims in [(2, 3, 1), (3, 2, 1), (3, 1, 2)]:
        s = random_state(dims, rng)
        rep_ab, rep_ac = monotonicity_report(s)
        assert (rep_ab if dims[2] == 1 else rep_ac).slack == pytest.approx(0.0, abs=1e-10)
        assert abs(ineq2_report(s).slack) <= 1e-12
