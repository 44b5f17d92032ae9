"""Tripartite pure states as rank-3 coefficient tensors, their coefficient
matrices, partial transpose/trace operations and their JSON form.

The composite basis index is always ((i * dB) + j) * dC + k, i.e. the first
tensor axis is the slowest. Coefficient matrix i is the dB x dC slice c[i].
"""

from __future__ import annotations

import numpy as np

from .matcore import (_complex_gaussians, _finite, _three_sizes, as_complex_matrix, json_entries,
                      json_pairs)

# Accepted deviation of the total squared weight from one.
TAU_NORM = 1e-10


class TripartiteState:
    """Normalised coefficient tensor c[i, j, k] of a three-party pure state.

    Construction rejects tensors whose squared weight differs from one by
    more than TAU_NORM unless normalize=True is passed explicitly.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, normalize: bool = False):
        self.coeffs = _unit_weight(_finite("coefficients", coeffs, 3, complex), normalize)

    @property
    def dA(self) -> int:
        return self.coeffs.shape[0]

    @property
    def dB(self) -> int:
        return self.coeffs.shape[1]

    @property
    def dC(self) -> int:
        return self.coeffs.shape[2]

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.coeffs.shape

    def __repr__(self) -> str:
        return f"TripartiteState(dims={self.dims})"


def _unit_weight(c: np.ndarray, normalize: bool = False) -> np.ndarray:
    """c, of squared weight 1 within TAU_NORM; with normalize, c over its nonzero norm. A c
    whose squares under- or overflow (weight outside (2**-900, inf)) is first divided by its
    largest real or imaginary part; any other c is normalised as it is, to the last bit."""
    with np.errstate(over="ignore"):
        weight = float(np.sum(np.abs(c) ** 2))
    if normalize:
        if not 2.0**-900 < weight < np.inf:
            peak = float(np.abs([c.real, c.imag]).max())
            if peak == 0.0:
                raise ValueError("cannot normalise the zero tensor")
            return _unit_weight(c / peak, normalize)  # of weight in [1, 2 * c.size]
        return c / np.sqrt(weight)
    if abs(weight - 1.0) > TAU_NORM:
        raise ValueError(f"squared weight {weight!r} differs from 1 by more than {TAU_NORM:g}")
    return c


def _random_coeffs(dims, rng: np.random.Generator, k: int) -> np.ndarray:
    """k random_state coefficient tensors (k, dA, dB, dC) from one generator
    call, unchecked; row i is the i-th of k single draws, bit for bit."""
    return _unit_states(_complex_gaussians(rng, k, dims))[0]


def _unit_states(c: np.ndarray):
    """Divide each tensor of a stack (k, dA, dB, dC) by its norm, in place,
    a tensor of zero weight by 1. Returns (c, the squared weights)."""
    weight = (np.abs(c.reshape(len(c), -1)) ** 2).sum(axis=1)
    c /= np.sqrt(np.where(weight > 0.0, weight, 1.0))[:, None, None, None]
    return c, weight


def random_state(dims, rng: np.random.Generator) -> TripartiteState:
    """State with i.i.d. standard complex Gaussian coefficients, normalised."""
    return TripartiteState(_random_coeffs(dims, rng, 1)[0])


def coeff_matrices(state: TripartiteState) -> list[np.ndarray]:
    """The dA coefficient matrices A_i = c[i, :, :]."""
    return [np.array(state.coeffs[i]) for i in range(state.dA)]


def _stacked(mats) -> np.ndarray:
    mats = [as_complex_matrix(m) for m in mats]
    if not mats:
        raise ValueError("need at least one coefficient matrix")
    shape = mats[0].shape
    if any(m.shape != shape for m in mats):
        raise ValueError(
            f"coefficient matrices must share one shape, got {[m.shape for m in mats]}"
        )
    return np.stack(mats)


def _density(c: np.ndarray) -> np.ndarray:
    """Rank-one density matrices of a stack of coefficient tensors
    (..., dA, dB, dC), in the composite basis."""
    psi = c.reshape(*c.shape[:-3], -1)
    return psi[..., :, None] * psi[..., None, :].conj()


def density(state: TripartiteState) -> np.ndarray:
    """Rank-one density matrix in the composite basis."""
    return _density(state.coeffs)


def _check_op_dims(x: np.ndarray, dims) -> tuple[int, int, int]:
    dA, dB, dC = dims = _three_sizes(dims)
    n = dA * dB * dC
    if x.shape != (n, n):
        raise ValueError(f"operator shape {x.shape} does not match dims {dims} (need {n} x {n})")
    return dims


# The stacked forms below act on operators of shape (..., n, n) with
# n = dA * dB * dC and validate nothing; the public single-operator forms
# check their input once and delegate.

def _factors(x: np.ndarray, dims) -> np.ndarray:
    return x.reshape(*x.shape[:-2], *dims, *dims)


def _partial_transpose_A(x: np.ndarray, dims) -> np.ndarray:
    return np.moveaxis(_factors(x, dims), (-6, -3), (-3, -6)).reshape(x.shape)


def _partial_trace_B(x: np.ndarray, dims) -> np.ndarray:
    dA, _, dC = dims
    t = np.einsum("...ajbcjd->...abcd", _factors(x, dims))
    return t.reshape(*x.shape[:-2], dA * dC, dA * dC)


def _partial_trace_C(x: np.ndarray, dims) -> np.ndarray:
    dA, dB, _ = dims
    t = np.einsum("...abkcdk->...abcd", _factors(x, dims))
    return t.reshape(*x.shape[:-2], dA * dB, dA * dB)


def partial_transpose_A(x, dims) -> np.ndarray:
    """Transpose the first tensor factor: <ijk|R|i'j'k'> = <i'jk|X|ij'k'>.

    Pure index relabelling, so applying it twice returns the input exactly.
    """
    m = as_complex_matrix(x)
    return _partial_transpose_A(m, _check_op_dims(m, dims))


def partial_trace_B(x, dims) -> np.ndarray:
    """Trace out the middle factor, leaving a (dA*dC) x (dA*dC) operator."""
    m = as_complex_matrix(x)
    return _partial_trace_B(m, _check_op_dims(m, dims))


def partial_trace_C(x, dims) -> np.ndarray:
    """Trace out the last factor, leaving a (dA*dB) x (dA*dB) operator."""
    m = as_complex_matrix(x)
    return _partial_trace_C(m, _check_op_dims(m, dims))


def state_to_dict(state: TripartiteState) -> dict:
    """JSON form {"dA", "dB", "dC", "coeffs": [[re, im], ...]} in the fixed
    composite index order."""
    return {"dA": state.dA, "dB": state.dB, "dC": state.dC, "coeffs": json_pairs(state.coeffs)}


def state_from_dict(obj: dict) -> TripartiteState:
    return TripartiteState(json_entries(obj, "state", ("dA", "dB", "dC"), "coeffs"))
