import math

import numpy as np
import pytest

from negmono.matcore import _EPS, TAU_CHECK, complex_gaussian
from negmono.specialcase import (
    BOUNDS,
    STEPS,
    SpecialCaseTrace,
    _chain_batch,
    _check,
    _trace_matrices,
    build_special_Z,
    check_ineqid,
    check_ineqid2,
    commutator_gap,
    connecting_unitary,
    interlacing_trace,
    pad_square,
)

# 2x2 nilpotent shift: everything about it is computable by hand
SHIFT = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def test_build_special_Z_layout():
    rng = np.random.default_rng(0)
    b = complex_gaussian(rng, (3, 3))
    z = build_special_Z(b)
    assert z.shape == (6, 6)
    np.testing.assert_array_equal(z[:3, :3], np.eye(3))
    np.testing.assert_array_equal(z[:3, 3:], b)
    np.testing.assert_array_equal(z[3:, :3], b.conj().T)
    np.testing.assert_allclose(z[3:, 3:], b @ b.conj().T, atol=1e-14)
    with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
        build_special_Z(np.zeros((2, 3)))


def test_commutator_gap_traceless():
    rng = np.random.default_rng(1)
    for d in (2, 4, 6):
        b = complex_gaussian(rng, (d, d))
        delta = commutator_gap(b)
        np.testing.assert_allclose(delta, delta.conj().T, atol=1e-13)
        assert abs(np.trace(delta)) <= 1e-12 * np.linalg.norm(b) ** 2


def test_commutator_gap_normal_matrix_is_zero():
    # normal matrices commute with their adjoint
    rng = np.random.default_rng(2)
    u = np.linalg.qr(complex_gaussian(rng, (4, 4)))[0]
    h = u @ np.diag([1.0, 2.0, -1.0, 0.5]) @ u.conj().T
    assert np.abs(commutator_gap(h)).max() < 1e-12


def test_shift_witness_hand_values():
    # Z eigenvalues solve (1-x)(-x) = 1 twice over: {1, 1, (1 +- sqrt 5)/2}
    z = build_special_Z(SHIFT)
    w = np.sort(np.linalg.eigvalsh(z))
    expected = np.sort([1.0, 1.0, (1 + math.sqrt(5)) / 2, (1 - math.sqrt(5)) / 2])
    np.testing.assert_allclose(w, expected, atol=1e-12)
    np.testing.assert_allclose(
        commutator_gap(SHIFT), np.diag([1.0, -1.0]), atol=1e-14
    )


def test_shift_saturates_ineqid2():
    rep = check_ineqid2(SHIFT, "minus")
    assert rep.holds
    assert rep.slack == pytest.approx(0.0, abs=1e-12)
    # lhs = tr sqrt(diag(0,1)) = 1, rhs = sqrt(2/2)*1 = 1
    assert rep.lhs == pytest.approx(1.0, abs=1e-13)
    assert rep.rhs == pytest.approx(1.0, abs=1e-13)


def test_ineqid_golden_ratio_value():
    rep = check_ineqid(SHIFT)
    assert rep.lhs == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-10)
    assert rep.rhs == pytest.approx(1.0, abs=1e-13)
    assert rep.holds


def test_identity_matrix_trivial():
    rep = check_ineqid(np.eye(3, dtype=complex))
    assert rep.lhs == pytest.approx(0.0, abs=1e-13)
    assert rep.rhs == pytest.approx(math.sqrt(1.5) * math.sqrt(3.0), abs=1e-13)


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_bounds_hold_on_random_matrices(d):
    rng = np.random.default_rng(d)
    for _ in range(25):
        b = complex_gaussian(rng, (d, d))
        for rep in (
            check_ineqid(b),
            _check("ineqid1", b, TAU_CHECK),
            check_ineqid2(b, "minus"),
            check_ineqid2(b, "plus"),
        ):
            assert rep.holds, rep
        # the intermediate bound really sits between the two ends
        assert check_ineqid(b).lhs <= _check("ineqid1", b, TAU_CHECK).rhs + 1e-9


def test_ineqid2_rejects_bad_sign():
    with pytest.raises(ValueError):
        check_ineqid2(SHIFT, "both")


def test_gram_identity_of_stacks():
    # B*B + (Delta_+) = BB* + (Delta_-), the identity behind the unitary
    rng = np.random.default_rng(3)
    b = complex_gaussian(rng, (4, 4))
    dplus, dminus = _jordan_parts(commutator_gap(b))
    lhs = b.conj().T @ b + dplus
    rhs = b @ b.conj().T + dminus
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 6])
def test_connecting_unitary_contract(d):
    rng = np.random.default_rng(d + 10)
    for _ in range(10):
        b = complex_gaussian(rng, (d, d))
        u = connecting_unitary(b)
        assert u.shape == (2 * d, 2 * d)
        np.testing.assert_allclose(
            u.conj().T @ u, np.eye(2 * d), atol=1e-10
        )
        dplus, dminus = _jordan_parts(commutator_gap(b))
        s1 = np.vstack([b, _sqrt_psd(dplus)])
        s2 = np.vstack([b.conj().T, _sqrt_psd(dminus)])
        # independently rebuilt stacks: the square root near a zero
        # eigenvalue moves by sqrt(eps), so only a loose bound applies
        assert np.abs(u @ s1 - s2).max() < 1e-7
        # the stacks the unitary was fitted to map within the tight budget;
        # their square roots are the (2, 3) blocks of E1 and E2
        trace = interlacing_trace(b)
        t1 = np.vstack([b, trace.E1[d : 2 * d, 2 * d :]])
        t2 = np.vstack([b.conj().T, trace.E2[d : 2 * d, 2 * d :]])
        assert np.abs(u @ t1 - t2).max() < 1e-9


def _sqrt_psd(p):
    # deliberately a different code path from the library square root
    w, v = np.linalg.eigh((p + p.conj().T) / 2.0)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def _jordan_parts(h):
    # (P, N), both psd, with H = P - N, from one eigh
    w, v = np.linalg.eigh(h)
    return tuple((v * np.clip(sign * w, 0.0, None)) @ v.conj().T for sign in (1.0, -1.0))


def test_connecting_unitary_normal_matrix():
    # for normal B both gap parts vanish and the stacks differ by B vs B*
    rng = np.random.default_rng(4)
    u0 = np.linalg.qr(complex_gaussian(rng, (3, 3)))[0]
    b = u0 @ np.diag([2.0, -1.0, 0.5]) @ u0.conj().T
    u = connecting_unitary(b)
    s1 = np.vstack([b, np.zeros((3, 3))])
    s2 = np.vstack([b.conj().T, np.zeros((3, 3))])
    assert np.abs(u @ s1 - s2).max() < 1e-10


def test_interlacing_trace_structure():
    rng = np.random.default_rng(5)
    b = complex_gaussian(rng, (3, 3))
    trace = interlacing_trace(b)
    assert isinstance(trace, SpecialCaseTrace)
    assert trace.E1.shape == (9, 9)
    names = [r.name for r in trace.reports]
    assert names[:7] == [
        "step_a_interlacing",
        "step_b_equal_spectra",
        "step_c_weyl",
        "step_d_lowest_eigs",
        "step_e_neg_count",
        "step_f_E3_psd",
        "unitary_residual",
    ]
    assert all(r.holds for r in trace.reports)


@pytest.mark.parametrize("d", [2, 4, 6])
def test_interlacing_trace_random(d):
    rng = np.random.default_rng(d + 20)
    for _ in range(15):
        trace = interlacing_trace(complex_gaussian(rng, (d, d)))
        assert all(r.holds for r in trace.reports)


def test_interlacing_trace_ineqid_reports_match_public_checks():
    # the trace reads the same spectra the public checks decompose afresh
    rng = np.random.default_rng(9)
    cases = [SHIFT, pad_square(complex_gaussian(rng, (2, 3)))]
    cases += [complex_gaussian(rng, (d, d)) for d in (2, 3, 5, 8)]
    for b in cases:
        by_name = {r.name: r for r in interlacing_trace(b).reports}
        for rep in (
            check_ineqid(b),
            _check("ineqid1", b, TAU_CHECK),
            check_ineqid2(b, "minus"),
            check_ineqid2(b, "plus"),
        ):
            got = by_name[rep.name]
            assert got.lhs == pytest.approx(rep.lhs, rel=1e-12, abs=1e-12)
            assert got.rhs == pytest.approx(rep.rhs, rel=1e-12, abs=1e-12)
            assert got.holds == rep.holds


def test_interlacing_trace_decomposition_count(monkeypatch):
    # one eigh of Delta, two QRs of the stacks, one d x d SVD for U and one
    # stacked eigvalsh of Z, the coupled blocks of E3 and E4 and the reduced
    # E1 and E2; assembling the matrices of the trace decomposes nothing
    counts = {"eigvalsh": 0, "eigh": 0, "qr": 0, "svd": 0}
    shapes = []

    def counting(name):
        orig = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            shapes.append((name, np.shape(args[0])))
            return orig(*args, **kwargs)

        return wrapper

    for name in counts:
        monkeypatch.setattr(np.linalg, name, counting(name))
    interlacing_trace(complex_gaussian(np.random.default_rng(8), (4, 4)))
    assert counts == {"eigvalsh": 1, "eigh": 1, "qr": 2, "svd": 1}
    assert sorted(shapes) == [("eigh", (1, 4, 4)), ("eigvalsh", (5, 8, 8)),
                              ("qr", (1, 8, 4)), ("qr", (1, 8, 4)), ("svd", (1, 4, 4))]


@pytest.mark.parametrize("d", [2, 4])
def test_chain_batch_rows_match_single_traces(d):
    # one stack mixing generic, nilpotent, zero, rank-deficient, nearly
    # normal and large matrices: the clamp and the tolerances must act per
    # matrix, so every row equals the N = 1 trace of its matrix. The gap of
    # the nearly normal matrix (~1e-9) is far above its own clamp (~1e-13)
    # and far below that of the large matrix (~1e-7).
    rng = np.random.default_rng(30 + d)
    shift = np.zeros((d, d), dtype=complex)
    shift[:2, :2] = SHIFT
    nearly_normal = np.diag(np.arange(1.0, d + 1.0)) + 1e-9 * complex_gaussian(rng, (d, d))
    cases = [
        complex_gaussian(rng, (d, d)),
        shift,
        np.zeros((d, d), dtype=complex),
        pad_square(complex_gaussian(rng, (d // 2, d))),
        nearly_normal,
        1000.0 * complex_gaussian(rng, (d, d)),
        complex_gaussian(rng, (d, d)),
    ]
    m = np.stack(cases)
    lhs, rhs, tols, factors = _chain_batch(m, 1e-9)
    mats = _trace_matrices(m, factors)
    assert lhs.shape == rhs.shape == tols.shape == (len(cases), len(STEPS + BOUNDS))
    for i, b in enumerate(cases):
        trace = interlacing_trace(b, tol=1e-9)
        assert [r.name for r in trace.reports] == list(STEPS + BOUNDS)
        for k, rep in enumerate(trace.reports):
            assert abs(lhs[i, k] - rep.lhs) <= 1e-12 * (1.0 + abs(rep.lhs)), rep.name
            assert abs(rhs[i, k] - rep.rhs) <= 1e-12 * (1.0 + abs(rep.rhs)), rep.name
            assert (rhs[i, k] - lhs[i, k] >= -tols[i, k]) == rep.holds, rep.name
        single = (trace.Z, trace.delta, trace.delta_plus, trace.delta_minus,
                  trace.U, trace.E1, trace.E2, trace.E3, trace.E4)
        for stacked, one in zip(mats, single):
            np.testing.assert_allclose(stacked[i], one, rtol=0, atol=1e-12)


def _full_spectrum_lhs(trace):
    """The lhs of each report of the chain for trace.B, from a full eigvalsh
    of each of Z and E1..E4 as assembled, the residual of trace.U on the
    stacks read from E1 and E2, and the formulas of the chain: the form the
    chain had before it reduced E1..E4 to 2d x 2d blocks."""
    b, d = trace.B, trace.B.shape[0]
    eig_z, eig_e1, eig_e2, eig_e3, eig_e4 = (
        np.linalg.eigvalsh(x) for x in (trace.Z, trace.E1, trace.E2, trace.E3, trace.E4))
    raw = np.linalg.eigh(trace.delta)[0]
    norm = np.linalg.norm(b[None], axis=(-2, -1))[0]
    mu = np.maximum(-np.where(np.abs(raw) <= 64.0 * _EPS * norm**2, 0.0, raw), 0.0)
    atol = TAU_CHECK * (1.0 + np.abs(eig_e1).max())
    s1 = np.vstack([b, trace.E1[d : 2 * d, 2 * d :]])
    s2 = np.vstack([b.conj().T, trace.E2[d : 2 * d, 2 * d :]])
    tr_neg = np.clip(-eig_z, 0.0, None).sum()
    return [
        (eig_e1[: 2 * d] - eig_z).max(),
        np.abs(eig_e1 - eig_e2).max(),
        (eig_e4 - eig_e2).max(),
        max(np.abs(eig_e4[:d] ** 2 - mu).max(), eig_e4[:d].max(initial=0.0)),
        (eig_z < -atol).sum(),
        -eig_e3[0],
        np.abs(trace.U @ s1 - s2).max(),
        tr_neg,
        tr_neg,
        np.sqrt(np.maximum(-raw, 0.0)).sum(),
        np.sqrt(np.maximum(raw, 0.0)).sum(),
    ]


def _jordan_shifts(d, t):
    # t J_d: floor(d/2) blocks t [[0, 1], [0, 0]] on the diagonal, and a 0
    # for odd d; the extremal family of the n = 2 ratio as t grows
    b = np.zeros((d, d), dtype=complex)
    for k in range(0, d - 1, 2):
        b[k, k + 1] = t
    return b


def _block_reduction_cases():
    rng = np.random.default_rng(40)
    cases = [pytest.param(complex_gaussian(rng, (d, d)), id=f"random-d{d}-{k}")
             for d in range(1, 9) for k in range(3)]
    u = np.linalg.qr(complex_gaussian(rng, (4, 4)))[0]
    normal = u @ np.diag([2.0, -1.0, 0.5j, 1.5]) @ u.conj().T
    return cases + [
        pytest.param(pad_square(complex_gaussian(rng, (2, 3))), id="zero-padded"),
        pytest.param(np.diag(complex_gaussian(rng, (4,))), id="diagonal"),
        pytest.param(np.zeros((3, 3), dtype=complex), id="zero"),
        pytest.param(SHIFT, id="shift"),
    ] + [
        pytest.param(_jordan_shifts(d, t), id=f"J{d}-t{t:g}")
        for d in (2, 3, 5, 6) for t in (1.0, 1e3, 1e5)
    ] + [
        pytest.param(complex_gaussian(rng, (1, 1)), id="d1"),
        pytest.param(pad_square(complex_gaussian(rng, (3, 2))), id="zero-padded-3x2"),
        pytest.param(normal + 1e-9 * complex_gaussian(rng, (4, 4)), id="nearly-normal"),
        pytest.param(1e6 * complex_gaussian(rng, (4, 4)), id="gaussian-1e6"),
        pytest.param(1e-6 * complex_gaussian(rng, (4, 4)), id="gaussian-1e-6"),
    ]


@pytest.mark.parametrize("b", _block_reduction_cases())
def test_chain_decomposes_only_the_coupled_blocks_of_E3_and_E4(b):
    # Up to permutations, E3 is 1_d (+) a 2d x 2d block, E4 is 0_d (+) one,
    # and E1, E2 are 1_d (+) [[1, R_k], [R_k*, BB*]] with R_k from the QR of
    # their stacks; the chain decomposes only those blocks. Steps (d) and
    # (e) and the four bounds read the same spectra as full decompositions
    # of the assembled E1..E4 and stay bit-identical to them. Steps (a),
    # (b), (c), (f) and the residual read spectra or factors of other
    # matrices with the same spectra, so they agree within eigenvalue
    # roundoff of a 3d x 3d matrix.
    d = b.shape[0]
    trace = interlacing_trace(b, tol=1e-9)
    assert all(rep.holds for rep in trace.reports)
    mid, rest = slice(d, 2 * d), np.r_[:d, 2 * d : 3 * d]
    assert np.array_equal(trace.E3[mid, mid], np.eye(d))
    assert not trace.E3[mid][:, rest].any() and not trace.E3[rest][:, mid].any()
    assert not trace.E4[:d].any() and not trace.E4[:, :d].any()
    norm = max(np.linalg.norm(e, 2) for e in (trace.E1, trace.E2, trace.E3, trace.E4))
    bound = 8.0 * 3 * d * _EPS * norm
    want = _full_spectrum_lhs(trace)
    roundoff = {"step_a_interlacing", "step_b_equal_spectra", "step_c_weyl",
                "step_f_E3_psd", "unitary_residual"}
    for k, rep in enumerate(trace.reports):
        if rep.name in roundoff:
            assert abs(rep.lhs - want[k]) <= bound, rep.name
        else:
            assert rep.lhs == want[k], rep.name
    u = trace.U
    assert np.abs(u.conj().T @ u - np.eye(2 * d)).max() <= 8.0 * 2 * d * _EPS


def test_interlacing_trace_zero_matrix():
    trace = interlacing_trace(np.zeros((3, 3), dtype=complex))
    assert np.abs(trace.E4).max() == 0.0
    assert all(r.holds for r in trace.reports)


def test_shift_E4_spectrum():
    trace = interlacing_trace(SHIFT)
    w = np.sort(np.linalg.eigvalsh(trace.E4))
    np.testing.assert_allclose(w, [-1.0, 0.0, 0.0, 0.0, 0.0, 1.0], atol=1e-12)
    # lowest eigenvalue of Z stays above the lowest of E4
    z_low = np.linalg.eigvalsh(trace.Z)[0]
    assert z_low >= -1.0 - 1e-12


def test_negative_eigenvalue_count_bound():
    rng = np.random.default_rng(6)
    for d in (2, 3, 5):
        b = complex_gaussian(rng, (d, d))
        z = build_special_Z(b)
        n_neg = int(np.sum(np.linalg.eigvalsh(z) < -1e-10))
        assert n_neg <= d


def test_pad_square():
    m = np.array([[1.0, 2.0, 3.0]], dtype=complex)
    p = pad_square(m)
    assert p.shape == (3, 3)
    np.testing.assert_array_equal(p[0], m[0])
    assert np.abs(p[1:]).max() == 0.0
    tall = pad_square(np.ones((4, 2), dtype=complex))
    assert tall.shape == (4, 4)
    sq = np.eye(2, dtype=complex)
    np.testing.assert_array_equal(pad_square(sq), sq)


def test_padding_preserves_bounds():
    # zero-padding a rectangle leaves the gap bounds meaningful
    rng = np.random.default_rng(7)
    b = pad_square(complex_gaussian(rng, (2, 4)))
    assert check_ineqid(b).holds
    assert _check("ineqid1", b, TAU_CHECK).holds
