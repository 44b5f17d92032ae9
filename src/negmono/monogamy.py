"""Block-matrix forms of the two-party negativities and the squared-negativity
monogamy inequality in its normalised (ineq2, ineq3) and scale-free (ineq4)
variants, plus the partial-trace monotonicity bounds.

For coefficient matrices A_1..A_n, block (i, j) of Z1 holds A_j A_i* and
block (i, j) of Z2 holds A_j* A_i; for a normalised state these equal the
partial traces of the partially transposed density matrix (Z1 directly,
Z2 up to complex conjugation), which is what the tests pin down.
"""

from __future__ import annotations

import numpy as np

from .matcore import InequalityReport, TAU_CHECK, _adj, _lapack, _negativities, make_report
from .qstate import TripartiteState, _stacked, _unit_weight


def _block_gram(f: np.ndarray, dA: int) -> np.ndarray:
    # g = f f* holds block (j, i) at rows of block j; swapping the two block
    # indices moves it to block (i, j), as in Z1 and Z2
    n, m, _ = f.shape
    g = f @ _adj(f)
    d = m // dA
    return g.reshape(n, dA, d, dA, d).swapaxes(1, 3).reshape(n, m, m)


def _z1(c: np.ndarray) -> np.ndarray:
    # rows (j, p) of f hold A_j[p, :], so block (j, i) of f f* is A_j A_i*
    n, dA, dB, dC = c.shape
    return _block_gram(c.reshape(n, dA * dB, dC), dA)


def _z2(c: np.ndarray) -> np.ndarray:
    # rows (j, p) of f hold the conjugate of A_j[:, p], so block (j, i) of
    # f f* is A_j* A_i
    n, dA, dB, dC = c.shape
    return _block_gram(c.conj().swapaxes(2, 3).reshape(n, dA * dC, dB), dA)


def build_Z1(mats) -> np.ndarray:
    """Hermitian block matrix with A_j A_i* at block row i, block column j."""
    return _z1(_stacked(mats)[None])[0]


def build_Z2(mats) -> np.ndarray:
    """Hermitian block matrix with A_j* A_i at block row i, block column j."""
    return _z2(_stacked(mats)[None])[0]


def _norms(m: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(np.abs(m) ** 2, axis=(-2, -1)))


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


def _overlaps(c: np.ndarray):
    """The A|BC matrix a of each tensor of a stack c, whose column i is the
    coefficient matrix A_i flattened row-major, and q = ||g||_{1/2} =
    ||a||_1^2 of its overlap matrix g = a* a, from one stacked SVD of a, whose
    singular values are the Schmidt coefficients of the A|BC cut. Summing
    them before squaring keeps q exact to roundoff when g is rank-deficient
    (dA > dB dC), where the square roots of g's roundoff-level singular
    values would add about 1e-8. Each sum s is squared as the product
    s * s; one past the float range is a silent inf."""
    n, dA = c.shape[:2]
    a = c.reshape(n, dA, -1).swapaxes(1, 2).copy()
    s = np.sum(_lapack(np.linalg.svd, a, compute_uv=False), axis=-1)
    with np.errstate(over="ignore"):
        return a, s * s


# The reports of verify-conjecture for each state, in output order, as
# (name, lhs column, rhs column) of verify_batch; a report's slack is rhs - lhs.
VERIFY = (("ineq2", 0, 1), ("ineq3", 0, 2), ("ineq4", 0, 3),
          ("monotonicity_AB", 4, 6), ("monotonicity_AC", 5, 6))
# ineq2 is He and Vidal's conjectured monogamy of the squared negativity;
# ineq3 follows from it and ineq4 is equivalent to it, so all three are
# findings when violated, never proven failures. Only they carry slack_rel.
CONJECTURED = ("ineq2", "ineq3", "ineq4")


def verify_batch(c: np.ndarray):
    """The per-state quantities of verify-conjecture for N states at once,
    from their coefficient tensors c of shape (N, dA, dB, dC), each an
    array of length N: the left-hand side shared by ineq2-4, the ineq2,
    ineq3 and ineq4 right-hand sides, and the negativities
    N(A|B) = ||Z1||_1 - tr Z1, N(A|C) = ||Z2||_1 - tr Z2 and
    N(A|BC) = ||a||_1^2 - 1 of a pure state.

    This is the only definition of these quantities; c is not validated,
    and the ineq2/ineq3 right-hand sides and N(A|BC) assume unit weight,
    so callers check outside input first. A chunk takes one stacked
    eigvalsh each of Z1 and Z2 and one stacked SVD of the A|BC coefficient
    matrices, and builds no density matrix. Every square is the product
    x * x, and one past the float range is a silent inf."""
    n_ab, n_ac, lhs, rhs4 = ineq4_batch(c)
    n_abc = _overlaps(c)[1] - 1.0
    w = np.sum(_norms(c), axis=1)
    with np.errstate(over="ignore"):
        r3 = w * w - 1.0
        return lhs, n_abc * n_abc, r3 * r3, rhs4, n_ab, n_ac, n_abc


def verify_reports(dims, values, tol: float = TAU_CHECK, **meta) -> list[InequalityReport]:
    """The five reports of one state, laid out by VERIFY, from its seven
    entries of verify_batch. A CONJECTURED report with a positive rhs
    carries slack_rel. meta (such as seed and trial) ends each report's
    digest."""
    v = [float(x) for x in values]
    return [make_report(name, v[lhs], v[rhs], tol, dims=[int(d) for d in dims],
                        **({"slack_rel": (v[rhs] - v[lhs]) / v[rhs]}
                           if name in CONJECTURED and v[rhs] > 0 else {}), **meta)
            for name, lhs, rhs in VERIFY]


def _single_state_reports(m: np.ndarray, tol: float) -> list[InequalityReport]:
    return verify_reports(m.shape, [v[0] for v in verify_batch(m[None])], tol)


def ineq2_report(state: TripartiteState, tol: float = TAU_CHECK) -> InequalityReport:
    """Monogamy for a normalised state with the tight right-hand side:
    (||Z1||_1 - 1)^2 + (||Z2||_1 - 1)^2 <= (||G||_{1/2} - 1)^2 where G is
    the overlap matrix of the coefficient matrices."""
    return _single_state_reports(state.coeffs, tol)[0]


def ineq3_report(mats, tol: float = TAU_CHECK) -> InequalityReport:
    """Monogamy for normalised coefficient matrices with the weaker
    right-hand side ((sum_i ||A_i||_2)^2 - 1)^2."""
    return _single_state_reports(_unit_weight(_stacked(mats)), tol)[1]


def ineq4_report(mats, tol: float = TAU_CHECK) -> InequalityReport:
    """Scale-free monogamy for arbitrary coefficient matrices:
    (||Z1||_1 - tr Z1)^2 + (||Z2||_1 - tr Z2)^2
        <= (sum_{i != j} ||A_i||_2 ||A_j||_2)^2."""
    return _single_state_reports(_stacked(mats), tol)[2]


def monotonicity_report(
    state: TripartiteState, tol: float = TAU_CHECK
) -> tuple[InequalityReport, InequalityReport]:
    """Negativity cannot grow when one party is traced out: reports for
    N(A|B) <= N(A|BC) and N(A|C) <= N(A|BC), with N(A|B) and N(A|C) from
    the spectra of Z1 and Z2 and N(A|BC) from the Schmidt coefficients."""
    return tuple(_single_state_reports(state.coeffs, tol)[3:])
