"""Block-matrix forms of the two-party negativities and the squared-negativity
monogamy inequality in its normalised (ineq2, ineq3) and scale-free (ineq4)
variants, plus the partial-trace monotonicity and single-term bounds.

For coefficient matrices A_1..A_n, block (i, j) of Z1 holds A_j A_i* and
block (i, j) of Z2 holds A_j* A_i; for a normalised state these equal the
partial traces of the partially transposed density matrix (Z1 directly,
Z2 up to complex conjugation), which is what the tests pin down.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergenceError, NotNormalizedError
from .matcore import InequalityReport, TAU_CHECK, make_report, negativity, schatten
from .qstate import (
    TAU_NORM,
    TripartiteState,
    _stacked,
    coeff_matrices,
    density,
    gram_matrix,
    partial_trace_B,
    partial_trace_C,
    partial_transpose_A,
)


def _z1(c: np.ndarray) -> np.ndarray:
    n, dA, dB, _ = c.shape
    return np.einsum("njpq,nirq->nipjr", c, c.conj()).reshape(n, dA * dB, dA * dB)


def _z2(c: np.ndarray) -> np.ndarray:
    n, dA, _, dC = c.shape
    return np.einsum("njqp,niqr->nipjr", c.conj(), c).reshape(n, dA * dC, dA * dC)


def build_Z1(mats) -> np.ndarray:
    """Hermitian block matrix with A_j A_i* at block row i, block column j."""
    return _z1(_stacked(mats)[None])[0]


def build_Z2(mats) -> np.ndarray:
    """Hermitian block matrix with A_j* A_i at block row i, block column j."""
    return _z2(_stacked(mats)[None])[0]


def _norms(m: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(np.abs(m) ** 2, axis=(-2, -1)))


def _negativities(z: np.ndarray) -> np.ndarray:
    try:
        w = np.linalg.eigvalsh(z)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergenceError(str(exc)) from exc
    return 2.0 * np.sum(np.clip(-w, 0.0, None), axis=-1)


def ineq4_batch(c: np.ndarray):
    """The ineq4 quantities of N states at once, from their coefficient
    tensors c of shape (N, dA, dB, dC): the negativity pair
    n1 = ||Z1||_1 - tr Z1 and n2 = ||Z2||_1 - tr Z2, the left-hand side
    n1^2 + n2^2 and the right-hand side (sum_{i != j} ||A_i||_2 ||A_j||_2)^2,
    each an array of length N.

    This is the only definition of these quantities; c is not validated,
    so callers check outside input first (ineq4_report does, through
    _stacked)."""
    n1 = _negativities(_z1(c))
    n2 = _negativities(_z2(c))
    norms = _norms(c)
    cross = np.sum(norms, axis=1) ** 2 - np.sum(norms**2, axis=1)
    return n1, n2, n1**2 + n2**2, cross**2


def _digest(m: np.ndarray, rhs: float, lhs: float) -> dict:
    d = {"dims": [int(m.shape[0]), int(m.shape[1]), int(m.shape[2])]}
    if rhs > 0:
        d["slack_rel"] = float((rhs - lhs) / rhs)
    return d


def _require_unit_weight(m: np.ndarray) -> None:
    weight = float(np.sum(np.abs(m) ** 2))
    if abs(weight - 1.0) > TAU_NORM:
        raise NotNormalizedError(
            f"total squared weight {weight!r} differs from 1 by more than {TAU_NORM:g}"
        )


def ineq2_report(state: TripartiteState, tol: float = TAU_CHECK) -> InequalityReport:
    """Monogamy for a normalised state with the tight right-hand side:
    (||Z1||_1 - 1)^2 + (||Z2||_1 - 1)^2 <= (||G||_{1/2} - 1)^2 where G is
    the overlap matrix of the coefficient matrices."""
    mats = coeff_matrices(state)
    m = _stacked(mats)
    _require_unit_weight(m)
    _, _, lhs, _ = ineq4_batch(m[None])
    lhs = float(lhs[0])
    rhs = (schatten(gram_matrix(mats), 0.5) - 1.0) ** 2
    return make_report("ineq2", lhs, rhs, tol, **_digest(m, rhs, lhs))


def ineq3_report(mats, tol: float = TAU_CHECK) -> InequalityReport:
    """Monogamy for normalised coefficient matrices with the weaker
    right-hand side ((sum_i ||A_i||_2)^2 - 1)^2."""
    m = _stacked(mats)
    _require_unit_weight(m)
    _, _, lhs, _ = ineq4_batch(m[None])
    lhs = float(lhs[0])
    rhs = (float(np.sum(_norms(m))) ** 2 - 1.0) ** 2
    return make_report("ineq3", lhs, rhs, tol, **_digest(m, rhs, lhs))


def ineq4_report(mats, tol: float = TAU_CHECK) -> InequalityReport:
    """Scale-free monogamy for arbitrary coefficient matrices:
    (||Z1||_1 - tr Z1)^2 + (||Z2||_1 - tr Z2)^2
        <= (sum_{i != j} ||A_i||_2 ||A_j||_2)^2."""
    m = _stacked(mats)
    _, _, lhs, rhs = ineq4_batch(m[None])
    lhs, rhs = float(lhs[0]), float(rhs[0])
    return make_report("ineq4", lhs, rhs, tol, **_digest(m, rhs, lhs))


def monotonicity_report(
    state: TripartiteState, tol: float = TAU_CHECK
) -> tuple[InequalityReport, InequalityReport]:
    """Negativity cannot grow when one party is traced out: reports for
    N(A|B) <= N(A|BC) and N(A|C) <= N(A|BC), computed through the density
    matrix, its partial transpose and partial traces."""
    dims = state.dims
    pt = partial_transpose_A(density(state), dims)
    n_abc = negativity(pt)
    n_ab = negativity(partial_trace_C(pt, dims))
    n_ac = negativity(partial_trace_B(pt, dims))
    digest = {"dims": [int(d) for d in dims]}
    return (
        make_report("monotonicity_AB", n_ab, n_abc, tol, **digest),
        make_report("monotonicity_AC", n_ac, n_abc, tol, **digest),
    )


def single_term_bound(
    mats, tol: float = TAU_CHECK
) -> tuple[InequalityReport, InequalityReport]:
    """Two-step bound on the trace norm of Z1: the block triangle inequality
    ||Z1||_1 <= sum_{ij} ||A_j A_i*||_1 followed by Cauchy-Schwarz
    sum_{ij} ||A_j A_i*||_1 <= (sum_i ||A_i||_2)^2."""
    m = _stacked(mats)
    t1 = schatten(build_Z1(mats), 1.0)
    mid = float(
        sum(
            schatten(m[j] @ m[i].conj().T, 1.0)
            for i in range(m.shape[0])
            for j in range(m.shape[0])
        )
    )
    r = float(np.sum(_norms(m))) ** 2
    digest = {"dims": [int(s) for s in m.shape]}
    return (
        make_report("single_term_triangle", t1, mid, tol, **digest),
        make_report("single_term_cauchy_schwarz", mid, r, tol, **digest),
    )
