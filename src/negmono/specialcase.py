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

from .errors import NoConvergenceError, NotSquareError, StepFailedError
from .matcore import (
    InequalityReport,
    TAU_CHECK,
    as_complex_matrix,
    hermitian_eig,
    hermitian_eigenvalues,
    make_report,
    matrix_to_dict,
)


def _square(b) -> np.ndarray:
    m = as_complex_matrix(b)
    if m.shape[0] != m.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape {m.shape}")
    return m


def pad_square(b) -> np.ndarray:
    """Zero-pad a rectangular matrix to the enclosing square size."""
    m = as_complex_matrix(b)
    n = max(m.shape)
    out = np.zeros((n, n), dtype=complex)
    out[: m.shape[0], : m.shape[1]] = m
    return out


def commutator_gap(b) -> np.ndarray:
    """Delta = B B* - B* B (traceless Hermitian).

    Symmetrized explicitly: the products carry roundoff asymmetry on the
    scale of ||B||^2, which dwarfs Delta itself when B is close to normal.
    """
    m = _square(b)
    delta = m @ m.conj().T - m.conj().T @ m
    return (delta + delta.conj().T) / 2.0


def build_special_Z(b) -> np.ndarray:
    """The 2d x 2d block matrix [[1, B], [B*, B B*]]."""
    m = _square(b)
    d = m.shape[0]
    return np.block([[np.eye(d), m], [m.conj().T, m @ m.conj().T]])


def _tr_neg_part(eig_z: np.ndarray) -> float:
    return float(np.sum(np.clip(-eig_z, 0.0, None)))


def _tr_sqrt_clipped(eigs: np.ndarray) -> float:
    return float(np.sum(np.sqrt(np.clip(eigs, 0.0, None))))


# The ineqid reports, from the spectrum of Z and the raw (unclamped)
# eigenvalues of Delta; the public checks and interlacing_trace share them.
def _ineqid_report(m, eig_z, tol):
    rhs = np.sqrt(m.shape[0] / 2.0) * float(np.linalg.norm(m))
    return make_report("ineqid", _tr_neg_part(eig_z), rhs, tol, d=m.shape[0])


def _ineqid1_report(m, eig_z, gap_eigs, tol):
    rhs = _tr_sqrt_clipped(-gap_eigs)
    return make_report("ineqid1", _tr_neg_part(eig_z), rhs, tol, d=m.shape[0])


def _ineqid2_report(m, gap_eigs, sign, tol):
    lhs = _tr_sqrt_clipped(-gap_eigs if sign == "minus" else gap_eigs)
    rhs = np.sqrt(m.shape[0] / 2.0) * float(np.linalg.norm(m))
    return make_report(f"ineqid2_{sign}", lhs, rhs, tol, d=m.shape[0])


def check_ineqid(b, tol: float = TAU_CHECK) -> InequalityReport:
    """tr Z_- <= sqrt(d/2) ||B||_2."""
    m = _square(b)
    return _ineqid_report(m, hermitian_eigenvalues(build_special_Z(m)), tol)


def check_ineqid1(b, tol: float = TAU_CHECK) -> InequalityReport:
    """tr Z_- <= tr sqrt(Delta_minus)."""
    m = _square(b)
    eig_z = hermitian_eigenvalues(build_special_Z(m))
    return _ineqid1_report(m, eig_z, hermitian_eigenvalues(commutator_gap(m)), tol)


def check_ineqid2(b, sign: str = "minus", tol: float = TAU_CHECK) -> InequalityReport:
    """tr sqrt(Delta_-+) <= sqrt(d/2) ||B||_2 for either Jordan part.

    sign="minus" bounds tr sqrt(Delta_minus); sign="plus" is the swapped
    version obtained from B <-> B*.
    """
    if sign not in ("minus", "plus"):
        raise ValueError(f"sign must be 'minus' or 'plus', got {sign!r}")
    m = _square(b)
    return _ineqid2_report(m, hermitian_eigenvalues(commutator_gap(m)), sign, tol)


def _gap_split(m: np.ndarray) -> tuple[np.ndarray, ...]:
    """(Delta, its raw ascending eigenvalues, mu descending, Delta_plus,
    Delta_minus, sqrt(Delta_plus), sqrt(Delta_minus)) from one eigh of Delta.

    Eigenvalues of Delta below 64 eps ||B||_F^2 in magnitude are numerical
    zeros (the products carry that much roundoff) and are dropped from all
    but the raw eigenvalues: sqrt(noise) ~ 1e-8 entries in the stacks and
    the E blocks would wreck otherwise exact cases such as normal or
    zero-padded B.
    """
    delta = commutator_gap(m)
    dec = hermitian_eig(delta)
    clamp = 64.0 * float(np.finfo(float).eps) * float(np.linalg.norm(m)) ** 2
    w = np.where(np.abs(dec.eigenvalues) <= clamp, 0.0, dec.eigenvalues)
    v = dec.eigenvectors
    wp, wm = np.clip(w, 0.0, None), np.clip(-w, 0.0, None)
    parts = [(v * x) @ v.conj().T for x in (wp, wm, np.sqrt(wp), np.sqrt(wm))]
    return (delta, dec.eigenvalues, wm, *parts)


def _fit_unitary(m, sqrt_plus, sqrt_minus) -> tuple[np.ndarray, float]:
    """Connecting unitary of the stacks S1 = (B, sqrt_plus), S2 = (B*,
    sqrt_minus), and the residual max |U S1 - S2| it leaves on them."""
    s1 = np.vstack([m, sqrt_plus])
    s2 = np.vstack([m.conj().T, sqrt_minus])
    try:
        w, _, vh = np.linalg.svd(s2 @ s1.conj().T)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergenceError(str(exc)) from exc
    u = w @ vh
    return u, float(np.abs(u @ s1 - s2).max())


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

    def to_dict(self) -> dict:
        return {
            "d": int(self.B.shape[0]),
            "B": matrix_to_dict(self.B),
            "Z": matrix_to_dict(self.Z),
            "delta": matrix_to_dict(self.delta),
            "delta_plus": matrix_to_dict(self.delta_plus),
            "delta_minus": matrix_to_dict(self.delta_minus),
            "U": matrix_to_dict(self.U),
            "E1": matrix_to_dict(self.E1),
            "E2": matrix_to_dict(self.E2),
            "E3": matrix_to_dict(self.E3),
            "E4": matrix_to_dict(self.E4),
            "reports": [r.to_dict() for r in self.reports],
        }


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
    """
    m = _square(b)
    d = m.shape[0]
    delta, gap_eigs, mu, dplus, dminus, sp, sm = _gap_split(m)

    # E3 = [[1, 0, B*], [0, 1, 0], [B, 0, BB*]], E4 has sqrt(Delta_minus) in
    # the (2, 3) and (3, 2) blocks, E2 = E3 + E4; E1 is E2 with B <-> B* and
    # sqrt(Delta_plus) in place of sqrt(Delta_minus). Filled by slices, as
    # np.block costs more than the decompositions at these sizes.
    z = build_special_Z(m)
    lo, hi = slice(d, 2 * d), slice(2 * d, 3 * d)
    e3 = np.zeros((3 * d, 3 * d), dtype=complex)
    e3[: 2 * d, : 2 * d] = np.eye(2 * d)
    e3[:d, hi], e3[hi, :d], e3[hi, hi] = m.conj().T, m, z[d:, d:]
    e4 = np.zeros_like(e3)
    e4[lo, hi] = e4[hi, lo] = sm
    e2 = e3 + e4
    e1 = e3.copy()
    e1[:d, hi], e1[hi, :d], e1[lo, hi], e1[hi, lo] = m, m.conj().T, sp, sp
    u, residual = _fit_unitary(m, sp, sm)

    eig_z, eig_e1, eig_e2, eig_e3, eig_e4 = map(hermitian_eigenvalues, (z, e1, e2, e3, e4))

    scale = 1.0 + float(np.abs(eig_e1).max())
    atol = tol * scale

    # (a) lowest 2d eigenvalues of E1 sit below the eigenvalues of Z
    gap_a = float(np.max(eig_e1[: 2 * d] - eig_z))
    # (b) equal spectra as sorted multisets
    gap_b = float(np.max(np.abs(eig_e1 - eig_e2)))
    # (c) E2 dominates E4 eigenvalue by eigenvalue
    gap_c = float(np.max(eig_e4 - eig_e2))
    # (d) d smallest eigenvalues of E4 are -sqrt(mu), mu descending.
    # Compare squares: near mu = 0 the square root amplifies eigenvalue
    # roundoff from eps to sqrt(eps), so the direct gap is ill-posed.
    gap_d = max(
        float(np.max(np.abs(eig_e4[:d] ** 2 - mu))),
        float(np.max(eig_e4[:d], initial=0.0)),
    )
    # (e) negative eigenvalue count of Z
    n_neg = int(np.sum(eig_z < -atol))
    # (f) E3 psd
    min_e3 = float(eig_e3[0])

    # Square roots of the gap parts move by sqrt(||E||) under an eps-sized
    # perturbation E, so when the gap is singular (rank-deficient B, e.g.
    # zero padding) no unitary maps the computed stacks better than about
    # sqrt(eps * ||Delta||). Widen the residual budget accordingly; a wrong
    # unitary still overshoots this by many orders of magnitude.
    eps = float(np.finfo(float).eps)
    resid_tol = max(tol, 8.0 * np.sqrt(eps * max(1.0, float(np.abs(delta).max()))))

    steps = [
        make_report("step_a_interlacing", gap_a, 0.0, atol, d=d),
        make_report("step_b_equal_spectra", gap_b, 0.0, atol, d=d),
        make_report("step_c_weyl", gap_c, 0.0, atol, d=d),
        make_report("step_d_lowest_eigs", gap_d, 0.0, atol, d=d),
        make_report("step_e_neg_count", float(n_neg), float(d), 0.0, d=d),
        make_report("step_f_E3_psd", -min_e3, 0.0, atol, d=d),
        make_report("unitary_residual", residual, 0.0, resid_tol, d=d),
    ]
    for rep in steps:
        if not rep.holds:
            raise StepFailedError(rep.name, f"lhs={rep.lhs!r} rhs={rep.rhs!r}")

    reports = steps + [
        _ineqid_report(m, eig_z, tol),
        _ineqid1_report(m, eig_z, gap_eigs, tol),
        _ineqid2_report(m, gap_eigs, "minus", tol),
        _ineqid2_report(m, gap_eigs, "plus", tol),
    ]
    return SpecialCaseTrace(m, z, delta, dplus, dminus, u, e1, e2, e3, e4, reports)
