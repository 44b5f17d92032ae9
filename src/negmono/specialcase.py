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


def _blocks(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """B*, the symmetrised BB* and Z = [[1, B], [B*, BB*]] of a stack m of
    shape (N, d, d); Z is filled by slices, as np.block costs more than the
    decompositions at these sizes."""
    d = m.shape[-1]
    mh = _adj(m)
    bb = _herm(m @ mh)
    z = np.zeros((len(m), 2 * d, 2 * d), dtype=complex)
    z[:, :d, :d] = np.eye(d)
    z[:, :d, d:], z[:, d:, :d], z[:, d:, d:] = m, mh, bb
    return mh, bb, z


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
    """(Delta, its raw ascending eigenvalues, mu descending, Delta_plus,
    Delta_minus, sqrt(Delta_plus), sqrt(Delta_minus)) from one eigh of Delta.

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
    wp, wm = np.maximum(w, 0.0), np.maximum(-w, 0.0)
    x = np.array([wp, wm, np.sqrt(wp), np.sqrt(wm)])
    dplus, dminus, sp, sm = _herm((v * x[..., None, :]) @ _adj(v))
    return delta, raw, wm, dplus, dminus, sp, sm


def _fit_unitary(m, sqrt_plus, sqrt_minus) -> tuple[np.ndarray, np.ndarray]:
    """Connecting unitary of the stacks S1 = (B, sqrt_plus), S2 = (B*,
    sqrt_minus), and the residual max |U S1 - S2| it leaves on them."""
    s1 = np.concatenate([m, sqrt_plus], axis=-2)
    s2 = np.concatenate([_adj(m), sqrt_minus], axis=-2)
    w, _, vh = _lapack(np.linalg.svd, s2 @ _adj(s1))
    u = w @ vh
    return u, np.abs(u @ s1 - s2).max(axis=(-2, -1))


def connecting_unitary(b) -> np.ndarray:
    """Unitary U with U . stack(B, sqrt(Delta_plus)) = stack(B*, sqrt(Delta_minus)).

    Both stacks share the Gram matrix B*B + Delta_plus = BB* + Delta_minus,
    so an exact U exists; it is computed as the unitary polar factor of
    S2 S1* (full SVD, U = W Vh), which maps the column space of S1 onto that
    of S2 and pairs the orthogonal complements deterministically.
    """
    m = _square(b)
    *_, sp, sm = _gap_split(m)
    return _fit_unitary(m, sp, sm)[0]


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

    Returns (lhs, rhs, tols, mats): lhs, rhs and tols have shape (N, 11),
    one column per report of STEPS + BOUNDS, and report k of matrix i holds
    when rhs[i, k] - lhs[i, k] >= -tols[i, k]; tol is that of the four
    bounds (the steps keep their TAU_CHECK budget). mats holds the stacks
    (Z, Delta, Delta_plus, Delta_minus, U, E1, E2, E3, E4) as built. The
    work is one eigh of Delta, one SVD, and two stacked eigvalsh: one of
    the 2d x 2d matrices Z and the coupled blocks of E3 and E4, one of the
    3d x 3d E1 and E2.

    This is the only definition of the chain; m is not validated, so
    callers check outside input first (interlacing_trace does, through
    _square).
    """
    n, d = m.shape[0], m.shape[-1]
    delta, gap_eigs, mu, dplus, dminus, sp, sm = _gap_split(m)

    # E3 = [[1, 0, B*], [0, 1, 0], [B, 0, BB*]], E4 has sqrt(Delta_minus) in
    # the (2, 3) and (3, 2) blocks, E2 = E3 + E4; E1 is E2 with B <-> B* and
    # sqrt(Delta_plus) in place of sqrt(Delta_minus).
    mh, bb, z = _blocks(m)
    lo, hi = slice(d, 2 * d), slice(2 * d, 3 * d)
    e3 = np.zeros((n, 3 * d, 3 * d), dtype=complex)
    e3[:, : 2 * d, : 2 * d] = np.eye(2 * d)
    e3[:, :d, hi], e3[:, hi, :d], e3[:, hi, hi] = mh, m, bb
    e4 = np.zeros_like(e3)
    e4[:, lo, hi] = e4[:, hi, lo] = sm
    e2 = e3 + e4
    e1 = e3.copy()
    e1[:, :d, hi], e1[:, hi, :d], e1[:, lo, hi], e1[:, hi, lo] = m, mh, sp, sp
    u, residual = _fit_unitary(m, sp, sm)

    # Up to a permutation, E3 is 1_d (+) E3[r3, r3] over the blocks r3 = (1, 3)
    # and E4 is 0_d (+) E4[r4, r4] over r4 = (2, 3): the entries coupling
    # them were written as exact zeros above. So only those 2d x 2d blocks,
    # sliced from the matrices as built, are decomposed: E4's spectrum is
    # its block's and d zeros, E3's least eigenvalue the lesser of its
    # block's and 1. A closed form in place of a decomposition, such as
    # +-eig(sqrt(Delta_minus)) for E4, would make steps (c), (d) or (f)
    # hold by construction.
    r3 = np.r_[:d, hi]
    eig_z, eig_b3, eig_b4 = _lapack(
        np.linalg.eigvalsh, np.concatenate([z, e3[:, r3[:, None], r3], e4[:, d:, d:]])
    ).reshape(3, n, 2 * d)
    eig_e1, eig_e2 = _lapack(np.linalg.eigvalsh, np.concatenate([e1, e2])).reshape(2, n, 3 * d)
    eig_e4 = np.sort(np.concatenate([eig_b4, np.zeros((n, d))], axis=1), axis=1)
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
    return lhs, rhs, tols, (z, delta, dplus, dminus, u, e1, e2, e3, e4)


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
    lhs, rhs, tols, mats = _chain_batch(m[None], tol)
    reports = _chain_reports(m, lhs[0], rhs[0], tols[0])
    return SpecialCaseTrace(m, *(x[0] for x in mats), reports)
