"""Commutative reduction of the special-case bound: ascending chains of a
permutation, the chain-wise square-root sum bounds, the weighted l_{1/2}
inequality used to assemble them, and an exact check of the
trace-function rearrangement bound that justifies the reduction.

Permutations are 1-based image lists: pi maps i to image[i - 1].
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .matcore import (InequalityReport, TAU_CHECK, _adj, _finite, _herm, _index, _lapack, _square,
                      make_report)
from .specialcase import _SIDES

# Largest size for which all d! permutations are enumerated.
D_MAX = 8


def _validate_permutation(image) -> tuple[int, ...]:
    img = tuple(_index("permutation entry", i) for i in image)
    if sorted(img) != list(range(1, len(img) + 1)):
        raise ValueError(f"not a bijection on 1..{len(img)}: {img}")
    return img


def _validate_spectrum(mu, sorted_required: bool = True) -> np.ndarray:
    v = _finite("spectrum entries", mu, 1)
    if np.any(v < 0):
        raise ValueError("spectrum entries must be non-negative")
    if sorted_required and np.any(np.diff(v) > 0):
        raise ValueError("spectrum must be sorted non-increasing")
    return v


def ma_chains(image) -> list[tuple[int, ...]]:
    """Maximal ascending chains of a permutation.

    An ascending edge is i -> pi(i) with pi(i) > i; since pi is a bijection
    the ascending edges form disjoint paths, returned as maximal paths with
    the terminal element included, ordered by their first element. Every i
    with pi(i) > i appears as a non-terminal element of exactly one chain.
    """
    asc = {i: p for i, p in enumerate(_validate_permutation(image), 1) if p > i}
    chains = []
    for i in sorted(asc.keys() - asc.values()):  # the heads: no ascending predecessor
        chain = [i]
        while i in asc:
            i = asc[i]
            chain.append(i)
        chains.append(tuple(chain))
    return chains


def _chain_walk(perms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The maximal ascending chains of every row pi of a stack perms (P, d)
    of 0-based images, unvalidated, as (heads, nodes): nodes are the
    positions k * d + i in perms.ravel() of the chain members, ordered by
    row, then chain head, then index, and heads the position of each
    member's chain head. Consecutive entries with one head are an edge
    (i, pi(i)) of its chain.

    Each ascent target takes its source as predecessor and every other
    index itself, and each member finds its head by pointer jumping, all
    rows at once: a chain has at most d - 1 edges, so bit_length(d - 2)
    squarings of the predecessor map reach every head. A chain ascends, so
    its members in index order are in chain order, and one sort per row of
    the keys head * d + i orders them. In-row arrays take the least
    unsigned type that holds d * d (uint8 for d <= 15) and positions int32
    (perms.size < 2**31): the arrays of S_7's pass peak at about 0.55 MB,
    against 2.4 MB for a form on flat intp positions."""
    p, d = perms.shape
    small = np.min_scalar_type(d * d)
    idx = np.arange(d, dtype=small)
    offset = d * np.arange(p, dtype=np.int32)[:, None]
    up = perms > idx
    pred = np.empty((p, d), small)
    pred.ravel()[perms + offset] = np.where(up, idx, perms.astype(small))
    head = pred
    for _ in range(max(d - 2, 0).bit_length()):
        head = head.ravel()[head + offset]
    key = np.where(up | (pred != idx), head * d + idx, d * d)
    key.sort(axis=1)
    member = key < d * d
    heads = (key // d + offset)[member]
    return heads, (key % d + offset)[member]


def _spectrum_and_images(mu, image, sorted_required: bool = True):
    """The validated mu and, as a row, the 0-based images of pi. A
    rearranged sum s of d terms is at most d sqrt(max mu), so with
    d^2 max mu at most half the largest float, s * s stays finite."""
    img = _validate_permutation(image)
    v = _validate_spectrum(mu, sorted_required)
    if v.size != len(img):
        raise ValueError(f"len(mu)={v.size} but len(pi)={len(img)}")
    limit = 0.5 * float(np.finfo(float).max) / (v.size * v.size)
    if v.max() > limit:
        raise ValueError(f"spectrum entries must be at most {limit!r} (half the largest float "
                         f"over d^2, d = {v.size}), got {float(v.max())!r}")
    return v, np.array(img)[None, :] - 1


def commutative_lhs(mu, image) -> float:
    """sum_i sqrt((mu_i - mu_{pi(i)})_+)."""
    v, perm = _spectrum_and_images(mu, image, sorted_required=False)
    return float(_rearranged_sums(_pair_table(v), _pair_index(perm))[0])


def _pair_table(v: np.ndarray) -> np.ndarray:
    """The table T[..., i * d + j] = sqrt((v_i - v_j)_+) of spectra v of
    shape (..., d): the d^2 distinct terms of every rearranged sum of v."""
    diff = v[..., :, None] - v[..., None, :]
    return np.sqrt(np.clip(diff, 0.0, None)).reshape(*v.shape[:-1], -1)


def _pair_index(perms: np.ndarray) -> np.ndarray:
    """The _pair_table index i * d + pi(i) of each row pi of perms (..., d)."""
    d = perms.shape[-1]
    return perms + d * np.arange(d)


def _rearranged_sums(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """sum_i sqrt((v_i - v_{pi(i)})_+) for each row pi of an explicit list of
    permutations perms, read from the _pair_table of v by index =
    _pair_index(perms): every table of a stack (..., d^2) meets every row of
    index (P, d), giving (..., P). For a stack of N tables that meets one
    permutation each, pass table.ravel() and offset row k of index by
    k * d^2. Each sum folds left from +0.0, adding the terms in row order
    i = 0..d-1; below 8 terms that is numpy's own sum order, so it is the
    elementwise sqrt(clip(v - v[pi], 0)).sum() to the last bit. Their
    maximum over all of S_d is _max_rearranged's work."""
    sums = np.zeros(table.shape[:-1] + index.shape[:-1])
    for column in index.T:
        sums += np.take(table, column, axis=-1)
    return sums


def _commutative_sides(mu: np.ndarray, perms: np.ndarray):
    """(lhs, rhs) of check_commutative for spectra mu and 0-based images
    perms, both (N, d), unvalidated. The sum s is squared as the product
    s * s, finite for every mu that _spectrum_and_images accepts and every
    spectrum the search settles to sum 1."""
    n, d = mu.shape
    index = _pair_index(perms) + d * d * np.arange(n)[:, None]
    sums = _rearranged_sums(_pair_table(mu).ravel(), index)
    return sums * sums, (d / 2.0) * mu.sum(axis=1)


def check_commutative(mu, image, tol: float = TAU_CHECK) -> InequalityReport:
    """(sum_i sqrt((mu_i - mu_{pi(i)})_+))^2 <= (d/2) sum_i mu_i for sorted
    non-negative mu."""
    v, perm = _spectrum_and_images(mu, image)
    lhs, rhs = _commutative_sides(v[None], perm)
    return make_report("commutative", lhs[0], rhs[0], tol, d=int(v.size))


def chain_bound(mu, chain, tol: float = TAU_CHECK) -> InequalityReport:
    """Per-chain bound: the component sum of a length-r chain, the sum of
    sqrt(mu_a - mu_b) over its consecutive pairs (a, b), is at most
    sqrt((r/2) * sum of the chain's mu values)."""
    v = _validate_spectrum(mu)
    idx = tuple(_index("chain entry", i) for i in chain)
    if not idx or idx[0] < 1 or idx[-1] > v.size or any(a >= b for a, b in zip(idx, idx[1:])):
        raise ValueError(f"not a strictly ascending index chain: {chain}")
    # mu is sorted and the chain ascends, so every difference is >= 0
    lhs = sum((math.sqrt(v[a - 1] - v[b - 1]) for a, b in zip(idx, idx[1:])), 0.0)
    rhs = math.sqrt((len(idx) / 2.0) * float(np.sum(v[np.array(idx) - 1])))
    return make_report("chain_bound", lhs, rhs, tol, r=len(idx))


def holder_half(x, p, tol: float = TAU_CHECK) -> InequalityReport:
    """Weighted l_{1/2} bound: (sum sqrt(x_j))^2 <= sum x_j / p_j for
    positive weights p summing to one."""
    xv, pv = _finite("x entries", x, 1), _finite("p entries", p, 1)
    if xv.shape != pv.shape:
        raise ValueError(f"shapes {xv.shape} and {pv.shape} must match")
    if np.any(xv < 0):
        raise ValueError("x entries must be non-negative")
    if np.any(pv <= 0) or abs(float(np.sum(pv)) - 1.0) > 1e-12:
        raise ValueError("weights must be positive and sum to one")
    lhs = float(np.sum(np.sqrt(xv)) ** 2)
    rhs = float(np.sum(xv / pv))
    return make_report("holder_half", lhs, rhs, tol, n=int(xv.size))


@lru_cache(maxsize=None)
def _perm_array(d: int) -> np.ndarray:
    # Lexicographic 0-based images of all of S_d; cached (d <= D_MAX).
    return np.array(list(itertools.permutations(range(d))), dtype=np.intp)


@lru_cache(maxsize=None)
def _subset_levels(d: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Per size k = 1..d, the bitmasks S of the k-subsets of columns, the
    masks S - {j} of each S and member j, and the _pair_table index
    (k - 1) * d + j of row k - 1 against column j: the tables of
    _max_rearranged, built once per d."""
    masks = np.arange(2**d)
    bits = (masks[:, None] >> np.arange(d)) & 1
    levels = []
    for k in range(1, d + 1):
        level = masks[bits.sum(axis=1) == k]
        cols = np.nonzero(bits[level])[1].reshape(-1, k)
        levels.append((level, level[:, None] - (1 << cols), (k - 1) * d + cols))
    return tuple(levels)


def _max_rearranged(mu: np.ndarray) -> np.ndarray:
    """The maximum over all of S_d of the rearranged sums of each row of a
    stack of spectra mu (N, d), d <= D_MAX, unvalidated: to the last bit
    _rearranged_sums(_pair_table(mu), _pair_index(_perm_array(d))).max(-1).

    Each sum folds left from +0.0, so the sum of pi is built row by row,
    and best(S), the largest partial sum that gives rows 0..|S|-1 the
    columns S, is the maximum over j in S of fl(best(S - {j}) +
    sqrt((mu_{|S|-1} - mu_j)_+)), with best({}) = +0.0: fl(x + c) is
    non-decreasing in x, so a prefix that is not the best for its columns
    never ends a larger sum. That is d 2^(d-1) additions for d! sums."""
    n, d = mu.shape
    table = _pair_table(mu)
    best = np.zeros((n, 2**d))
    for masks, prev, index in _subset_levels(d):
        best[:, masks] = (best[:, prev] + table[:, index]).max(axis=-1)
    return best[:, -1]


def max_rearranged_sum(mu) -> tuple[float, tuple[int, ...]]:
    """max over permutations of sum_i sqrt((mu_i - mu_{pi(i)})_+) by brute
    force, returning the maximum and a 1-based argmax image. mu is a
    finite non-negative vector, in any order."""
    v = _validate_spectrum(mu, sorted_required=False)
    if v.size > D_MAX:
        raise ValueError(f"exhaustive enumeration limited to d <= {D_MAX}")
    vals = _rearranged_sums(_pair_table(v), _pair_index(_perm_array(v.size)))
    best = int(np.argmax(vals))
    return float(vals[best]), tuple(int(i) + 1 for i in _perm_array(v.size)[best])


def _drury_sides(m: np.ndarray):
    """(lhs, rhs) of drury_numeric_check for a stack m of shape (N, d, d),
    unvalidated: lhs is tr sqrt(Delta_plus), the ineqid2_plus side, and
    rhs the maximum over all d! permutations of the rearranged sums of mu,
    the clipped spectrum of B B*, sorted non-increasing."""
    lhs = _SIDES["ineqid2_plus"](m)[0]
    # B B* is Hermitian by construction
    mu = _lapack(np.linalg.eigvalsh, _herm(m @ _adj(m)))[:, ::-1]
    return lhs, _max_rearranged(np.clip(mu, 0.0, None))


def drury_numeric_check(b, tol: float = TAU_CHECK) -> InequalityReport:
    """Rearrangement bound for the commutator gap: with mu the spectrum of
    B B*, tr sqrt((B B* - B* B)_+) is at most the exact maximum of
    sum_i sqrt((mu_i - mu_{pi(i)})_+) over all permutations. B is checked
    here, once; _drury_sides evaluates it as a stack of one."""
    m = _square(b)
    if m.shape[0] > D_MAX:
        raise ValueError(f"exhaustive enumeration limited to d <= {D_MAX}")
    lhs, rhs = _drury_sides(m[None])
    return make_report("drury", lhs[0], rhs[0], tol, d=int(m.shape[0]))
