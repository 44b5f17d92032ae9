"""Two coefficient matrices with the first equal to the identity: the block
matrix Z = [[1, B], [B*, BB*]], the commutator-gap bounds on tr Z_-, the
connecting unitary between the two stacked factorisations, and a certified
chain of interlacing/Weyl steps bounding the negative spectrum of Z.

Throughout, Delta = BB* - B*B and Delta_plus/Delta_minus are its Jordan
parts; mu denotes the eigenvalues of Delta_minus.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import StepFailedError
from .matcore import (
    _EPS,
    InequalityReport,
    TAU_CHECK,
    _adj,
    _herm,
    _lapack,
    _square,
    _tr_neg,
    as_complex_matrix,
    make_report,
    matrix_to_dict,
)


def pad_square(b) -> np.ndarray:
    """Zero-pad a rectangular matrix to the enclosing square size."""
    m = as_complex_matrix(b)
    n = max(m.shape)
    out = np.zeros((n, n), dtype=complex)
    out[: m.shape[0], : m.shape[1]] = m
    return out


# The private helpers below take a single matrix or a stack (..., d, d) and
# do not validate; the public functions check their input first.
def _gap(m: np.ndarray) -> np.ndarray:
    return _herm(m @ _adj(m) - _adj(m) @ m)


def commutator_gap(b) -> np.ndarray:
    """Delta = B B* - B* B (traceless Hermitian).

    Symmetrized explicitly: the products carry roundoff asymmetry on the
    scale of ||B||^2, which dwarfs Delta itself when B is close to normal.
    """
    return _gap(_square(b))


def _bordered(x: np.ndarray, bb: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """[[1, X], [X*, BB*]] for a stack x of shape (..., p, d) and bb of shape
    (..., d, d), filled by slices into out (fresh if None), as np.block
    costs more than the decompositions at these sizes. Z, E1, E2, E3, the
    coupled block of E3 and the reduced E1 and E2 of _chain_batch all have
    this form."""
    p, d = x.shape[-2:]
    if out is None:
        out = np.empty(x.shape[:-2] + (p + d,) * 2, dtype=complex)
    out[..., :p, :p] = np.eye(p)
    out[..., :p, p:], out[..., p:, :p], out[..., p:, p:] = x, _adj(x), bb
    return out


def _blocks(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """B*, the symmetrised BB* and Z = [[1, B], [B*, BB*]] of a stack m of
    shape (N, d, d)."""
    mh = _adj(m)
    bb = _herm(m @ mh)
    return mh, bb, _bordered(m, bb)


def build_special_Z(b) -> np.ndarray:
    """The 2d x 2d block matrix [[1, B], [B*, B B*]]."""
    return _blocks(_square(b)[None])[2][0]


def _tr_sqrt_clipped(eigs: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(eigs, 0.0)).sum(axis=-1)


def _norm_bound(m: np.ndarray) -> np.ndarray:
    """sqrt(d/2) ||B||_2, the right-hand side of ineqid and ineqid2."""
    return np.sqrt(m.shape[-1] / 2.0) * np.linalg.norm(m, axis=(-2, -1))


def _z_neg(m: np.ndarray) -> np.ndarray:
    return _tr_neg(_lapack(np.linalg.eigvalsh, _blocks(m)[2]))


def _gap_eigs(m: np.ndarray) -> np.ndarray:
    return _lapack(np.linalg.eigvalsh, _gap(m))


# (lhs, rhs) of each bound for a stack m of shape (N, d, d), unvalidated:
# ineqid needs only the spectrum of Z, ineqid2 only that of Delta, ineqid1
# both. The public checks and the search descent both evaluate these, with
# Delta's spectrum from eigvalsh, not _chain_batch's eigh: neither is closer
# to mpmath's (2.8e-14, 2.3e-14 over 1400 B) and eigh costs 1.8x eigvalsh.
_SIDES = {
    "ineqid": lambda m: (_z_neg(m), _norm_bound(m)),
    "ineqid1": lambda m: (_z_neg(m), _tr_sqrt_clipped(-_gap_eigs(m))),
    "ineqid2_minus": lambda m: (_tr_sqrt_clipped(-_gap_eigs(m)), _norm_bound(m)),
    "ineqid2_plus": lambda m: (_tr_sqrt_clipped(_gap_eigs(m)), _norm_bound(m)),
}


def _check(name: str, b, tol: float) -> InequalityReport:
    m = _square(b)
    lhs, rhs = _SIDES[name](m[None])
    return make_report(name, lhs[0], rhs[0], tol, d=m.shape[0])


def check_ineqid(b, tol: float = TAU_CHECK) -> InequalityReport:
    """tr Z_- <= sqrt(d/2) ||B||_2."""
    return _check("ineqid", b, tol)


def check_ineqid2(b, sign: str = "minus", tol: float = TAU_CHECK) -> InequalityReport:
    """tr sqrt(Delta_-+) <= sqrt(d/2) ||B||_2 for either Jordan part.

    sign="minus" bounds tr sqrt(Delta_minus); sign="plus" is the swapped
    version obtained from B <-> B*.
    """
    if sign not in ("minus", "plus"):
        raise ValueError(f"sign must be 'minus' or 'plus', got {sign!r}")
    return _check(f"ineqid2_{sign}", b, tol)


def _gap_split(m: np.ndarray) -> tuple[np.ndarray, ...]:
    """(Delta, its raw ascending eigenvalues, the eigenvalues of Delta_plus
    and of Delta_minus stacked in one array of shape (2, ..., d), the
    eigenvectors) from one eigh of Delta; mu = the second row, descending.

    Eigenvalues of Delta below 64 eps ||B||_F^2 in magnitude are numerical
    zeros (the products carry that much roundoff) and are dropped from all
    but the raw eigenvalues: sqrt(noise) ~ 1e-8 entries in the stacks and
    the E blocks would wreck otherwise exact cases such as normal or
    zero-padded B. The clamp is taken per matrix of a stack.
    """
    delta = _gap(m)
    raw, v = _lapack(np.linalg.eigh, delta)
    clamp = 64.0 * _EPS * np.linalg.norm(m, axis=(-2, -1)) ** 2
    w = np.where(np.abs(raw) <= np.expand_dims(clamp, -1), 0.0, raw)
    return delta, raw, np.array([np.maximum(w, 0.0), np.maximum(-w, 0.0)]), v


def _from_eigs(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The Hermitian stack v diag(x) v* for eigenvalue rows x (..., d)."""
    return _herm((v * x[..., None, :]) @ _adj(v))


def _fit_unitary(m, sqrt_plus, sqrt_minus) -> tuple[np.ndarray, ...]:
    """The connecting unitary of the stacks S1 = (B, sqrt_plus) and S2 =
    (B*, sqrt_minus), in factors: (Q1, R1, Q2, R2, W V*, residual).

    S_k = Q_k (R_k; 0) is a complete QR, and R2 R1* = W Sigma V* a d x d
    SVD. Then S2 S1* = Q2 diag(R2 R1*, 0) Q1*, so U = Q2 diag(W V*, 1) Q1*
    is a polar factor of it (_unitary assembles U), and the residual
    max |U S1 - S2| = max |Q2[:, :d] (W V* R1 - R2)| needs no 2d x 2d
    product. R1 and R2 come from two independent QRs, so the Gram identity
    R1* R1 = R2* R2 they stand for is checked (step (b)), not assumed.
    """
    d = m.shape[-1]
    q1, r1 = _lapack(np.linalg.qr, np.concatenate([m, sqrt_plus], axis=-2), mode="complete")
    q2, r2 = _lapack(np.linalg.qr, np.concatenate([_adj(m), sqrt_minus], axis=-2),
                     mode="complete")
    r1, r2 = r1[..., :d, :], r2[..., :d, :]
    w, _, vh = _lapack(np.linalg.svd, r2 @ _adj(r1))
    wv = w @ vh
    residual = np.abs(q2[..., :d] @ (wv @ r1 - r2)).max(axis=(-2, -1))
    return q1, r1, q2, r2, wv, residual


def _unitary(q1: np.ndarray, q2: np.ndarray, wv: np.ndarray) -> np.ndarray:
    """U = Q2 diag(W V*, 1) Q1* from the factors of _fit_unitary."""
    d = wv.shape[-1]
    left = q2.copy()
    left[..., :d] = q2[..., :d] @ wv
    return left @ _adj(q1)


def connecting_unitary(b) -> np.ndarray:
    """Unitary U with U . stack(B, sqrt(Delta_plus)) = stack(B*, sqrt(Delta_minus)).

    Both stacks share the Gram matrix B*B + Delta_plus = BB* + Delta_minus,
    so an exact U exists. It is the polar factor Q2 diag(W V*, 1) Q1* of
    S2 S1* (see _fit_unitary): it maps the column space of S1 onto that of
    S2 by the d x d unitary W V* and pairs the orthogonal complements by the
    trailing columns of the two complete QRs.
    """
    m = _square(b)
    _, _, parts, v = _gap_split(m)
    q1, _, q2, _, wv, _ = _fit_unitary(m, *_from_eigs(v, np.sqrt(parts)))
    return _unitary(q1, q2, wv)


@dataclass
class SpecialCaseTrace:
    """All matrices and step reports of one special-case verification run."""

    B: np.ndarray
    Z: np.ndarray
    delta: np.ndarray
    delta_plus: np.ndarray
    delta_minus: np.ndarray
    U: np.ndarray
    E1: np.ndarray
    E2: np.ndarray
    E3: np.ndarray
    E4: np.ndarray
    reports: list[InequalityReport] = field(default_factory=list)


# The reports of the chain, one column each in the _chain_batch arrays: the
# certified steps (a StepFailedError on violation) and then the four bounds.
STEPS = (
    "step_a_interlacing",
    "step_b_equal_spectra",
    "step_c_weyl",
    "step_d_lowest_eigs",
    "step_e_neg_count",
    "step_f_E3_psd",
    "unitary_residual",
)
BOUNDS = ("ineqid", "ineqid1", "ineqid2_minus", "ineqid2_plus")


def _chain_batch(m: np.ndarray, tol: float):
    """The proof chain of interlacing_trace for N matrices B at once, from a
    stack m of shape (N, d, d).

    Returns (lhs, rhs, tols, factors): lhs, rhs and tols have shape (N, 11),
    one column per report of STEPS + BOUNDS, and report k of matrix i holds
    when rhs[i, k] - lhs[i, k] >= -tols[i, k]; tol is that of the four
    bounds (the steps keep their TAU_CHECK budget). factors are the stacks
    (Delta, the eigenvalues of Delta_plus and Delta_minus, Delta's
    eigenvectors, sqrt(Delta_plus), sqrt(Delta_minus), Q1, Q2, W V*) from
    which _trace_matrices assembles the matrices of SpecialCaseTrace. The
    work is one eigh of Delta, two QRs of 2d x d stacks and one SVD of d x d
    matrices (_fit_unitary), and one eigvalsh of 5N matrices of size
    2d x 2d; no 3d x 3d matrix, Delta part or full unitary is built.

    This is the only definition of the chain; m is not validated, so
    callers check outside input first (interlacing_trace does, through
    _square).
    """
    n, d = m.shape[0], m.shape[-1]
    delta, gap_eigs, parts, v = _gap_split(m)
    mu = parts[1]
    sp, sm = _from_eigs(v, np.sqrt(parts))
    q1, r1, q2, r2, wv, residual = _fit_unitary(m, sp, sm)

    # E1 = [[1_2d, S1], [S1*, BB*]] and E2 = [[1_2d, S2], [S2*, BB*]]; with
    # S_k = Q_k (R_k; 0), conjugation by diag(Q_k, 1) makes E_k, up to a
    # permutation, 1_d (+) M_k with M_k = [[1_d, R_k], [R_k*, BB*]]. E3 is
    # E2 with sqrt(Delta_minus) replaced by 0, so up to a permutation it is
    # 1_d (+) [[1, B*], [B, BB*]], and E4 = E2 - E3 is 0_d (+) [[0,
    # sqrt(Delta_minus)], [sqrt(Delta_minus), 0]]. So each spectrum is that
    # of a 2d x 2d matrix and d known eigenvalues, and Z, the block of E3,
    # M1, M2 and the block of E4 go to LAPACK as one stack. The QRs and the
    # decompositions stay numerical: a closed form such as
    # +-eig(sqrt(Delta_minus)) for E4 would make steps (c), (d) or (f) hold
    # by construction.
    stack = np.zeros((5, n, 2 * d, 2 * d), dtype=complex)
    mh, bb, stack[0] = _blocks(m)
    for out, x in zip(stack[1:], (mh, r1, r2)):
        _bordered(x, bb, out)
    stack[4, :, :d, d:] = stack[4, :, d:, :d] = sm
    eig_z, eig_b3, eig_m1, eig_m2, eig_b4 = _lapack(
        np.linalg.eigvalsh, stack.reshape(5 * n, 2 * d, 2 * d)
    ).reshape(5, n, 2 * d)
    def padded(eigs, value):  # eigs with d more eigenvalues `value`, sorted
        return np.sort(np.concatenate([eigs, np.full((n, d), value)], axis=1), axis=1)

    eig_e1, eig_e2, eig_e4 = padded(eig_m1, 1.0), padded(eig_m2, 1.0), padded(eig_b4, 0.0)
    min_e3 = np.minimum(eig_b3[:, 0], 1.0)

    # The proven steps compare spectra equal up to eigenvalue roundoff, so
    # their budget is TAU_CHECK whatever tol is; tol governs only the bounds.
    atol = TAU_CHECK * (1.0 + np.abs(eig_e1).max(axis=1))
    n_neg = (eig_z < -atol[:, None]).sum(axis=1)
    # Square roots of the gap parts move by sqrt(||E||) under an eps-sized
    # perturbation E, so when the gap is singular (rank-deficient B, e.g.
    # zero padding) no unitary maps the computed stacks better than about
    # sqrt(eps * ||Delta||). Widen the residual budget accordingly; a wrong
    # unitary still overshoots this by many orders of magnitude.
    resid_tol = np.maximum(
        TAU_CHECK, 8.0 * np.sqrt(_EPS * np.maximum(1.0, np.abs(delta).max(axis=(1, 2))))
    )

    tr_neg = _tr_neg(eig_z)
    sqrt_minus = _tr_sqrt_clipped(-gap_eigs)
    bound = _norm_bound(m)
    zero = np.zeros(n)
    # Built with one row per report, then transposed to one row per matrix.
    lhs = np.array([
        # (a) lowest 2d eigenvalues of E1 sit below the eigenvalues of Z
        (eig_e1[:, : 2 * d] - eig_z).max(axis=1),
        # (b) E1 and E2 have equal spectra as sorted multisets
        np.abs(eig_e1 - eig_e2).max(axis=1),
        # (c) E2 dominates E4 eigenvalue by eigenvalue
        (eig_e4 - eig_e2).max(axis=1),
        # (d) d smallest eigenvalues of E4 are -sqrt(mu), mu descending.
        # Compare squares: near mu = 0 the square root amplifies eigenvalue
        # roundoff from eps to sqrt(eps), so the direct gap is ill-posed.
        np.maximum(
            np.abs(eig_e4[:, :d] ** 2 - mu).max(axis=1),
            eig_e4[:, :d].max(axis=1, initial=0.0),
        ),
        # (e) Z has at most d negative eigenvalues
        n_neg,
        # (f) E3 is psd
        -min_e3,
        residual,
        tr_neg,
        tr_neg,
        sqrt_minus,
        _tr_sqrt_clipped(gap_eigs),
    ], dtype=float).T
    rhs = np.array([zero, zero, zero, zero, zero + d, zero, zero,
                    bound, sqrt_minus, bound, bound]).T
    tols = np.array([atol, atol, atol, atol, zero, atol, resid_tol,
                     zero + tol, zero + tol, zero + tol, zero + tol]).T
    return lhs, rhs, tols, (delta, parts, v, sp, sm, q1, q2, wv)


def _trace_matrices(m: np.ndarray, factors: tuple) -> tuple[np.ndarray, ...]:
    """(Z, Delta, Delta_plus, Delta_minus, U, E1, E2, E3, E4) of a stack m,
    assembled from the factors of _chain_batch without a decomposition."""
    delta, parts, v, sp, sm, q1, q2, wv = factors
    mh, bb, z = _blocks(m)
    e1, e2, e3 = (_bordered(np.concatenate([x, y], axis=-2), bb)
                  for x, y in ((m, sp), (mh, sm), (mh, np.zeros_like(m))))
    return (z, delta, *_from_eigs(v, parts), _unitary(q1, q2, wv), e1, e2, e3, e2 - e3)


def _chain_reports(b: np.ndarray, lhs, rhs, tols) -> list[InequalityReport]:
    """The reports of one matrix b from its row of a _chain_batch result.
    A failed chain step raises StepFailedError carrying b as its instance."""
    d = b.shape[0]
    reports = [
        make_report(name, *row, d=d)
        for name, *row in zip(STEPS + BOUNDS, lhs, rhs, tols)
    ]
    for rep in reports[: len(STEPS)]:
        if not rep.holds:
            raise StepFailedError(
                rep.name, f"lhs={rep.lhs!r} rhs={rep.rhs!r}", matrix_to_dict(b)
            )
    return reports


def interlacing_trace(b, tol: float = TAU_CHECK) -> SpecialCaseTrace:
    """Verify the proof chain bounding the negative spectrum of Z.

    Steps, each recorded as a report and enforced (StepFailedError on
    violation, scaled by the spectral magnitude):

      (a) Cauchy interlacing: the 2d eigenvalues of Z dominate the lowest
          2d eigenvalues of the 3d x 3d extension E1.
      (b) E1 and E2 share their spectrum (conjugation by diag(U, 1)).
      (c) Weyl monotonicity: E2 = E3 + E4 with E3 psd, so the spectrum of
          E2 dominates that of E4.
      (d) The d smallest eigenvalues of E4 are -sqrt(mu_j).
      (e) Z has at most d negative eigenvalues.
      (f) E3 is psd.

    The connecting-unitary residual and the four ineqid bounds are
    appended as reports; a failing residual also raises StepFailedError.
    tol applies to the four bounds only: the steps and the residual keep
    their roundoff budget whatever tol is.
    """
    m = _square(b)
    lhs, rhs, tols, factors = _chain_batch(m[None], tol)
    reports = _chain_reports(m, lhs[0], rhs[0], tols[0])
    return SpecialCaseTrace(m, *(x[0] for x in _trace_matrices(m[None], factors)), reports)
