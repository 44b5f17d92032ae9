"""Dense complex matrix core: Hermitian spectra, Schatten (quasi-)norms,
Jordan decomposition, psd square roots, the shared inequality-report
record and the stacked primitives (adjoint, Hermitian part, negative-part
trace) that the batched kernels share.

All tolerances are relative to the largest entry magnitude of the input,
except the global slack tolerance TAU_CHECK which is absolute.
"""

from __future__ import annotations

import collections
import itertools
import json
import math
import operator
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NoConvergenceError

# Absolute slack tolerance used everywhere a report decides holds/violated.
TAU_CHECK = 1e-9
# Accepted relative asymmetry before an input is rejected as non-Hermitian.
HERM_TOL_FACTOR = 1e-10
# Relative clamp for negative eigenvalues inside psd_sqrt.
PSD_TOL_FACTOR = 1e-9
_EPS = float(np.finfo(float).eps)


def _rng(*entropy: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy))


def _index(name: str, value) -> int:
    # a bool is an int to operator.index, but never a size or an entry
    try:
        return operator.index(None if isinstance(value, bool) else value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _at_least(name: str, value, least: int) -> int:
    n = _index(name, value)
    if n < least:
        raise ValueError(f"{name} must be at least {least}, got {n}")
    return n


def _finite_number(name: str, value: float, positive: bool = False) -> None:
    if not (math.isfinite(value) and (value > 0 or not positive)):
        sign = " and positive" if positive else ""
        raise ValueError(f"{name} must be finite{sign}, got {value}")


def _three_sizes(dims) -> tuple[int, int, int]:
    if len(dims) != 3:
        raise ValueError(f"dims must be three sizes (dA, dB, dC), got {dims!r}")
    return tuple(_at_least("dims", n, 1) for n in dims)


def _finite(what: str, x, ndim: int, dtype=float) -> np.ndarray:
    """x as a non-empty array of rank ndim (1 to 3) and dtype whose entries, what, are finite."""
    a = np.asarray(x, dtype=dtype)
    if a.ndim != ndim or a.size < 1:
        noun = ("vector", "2-d matrix", "rank-3 tensor")[ndim - 1]
        raise ValueError(f"expected a non-empty {noun}, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must be finite")
    return a


def as_complex_matrix(x) -> np.ndarray:
    """Validate and return a finite, non-empty 2-d complex array."""
    return _finite("matrix entries", x, 2, complex)


def _pow(v, p: float) -> np.ndarray:
    """v ** p at every entry of the float array v, of any shape, by libm pow
    on Python floats. It serves the squares of monogamy._overlaps and
    verify_batch, of criterion 9 and of permlemma._commutative_sides, which
    keep libm so that each float is its Python-float form's to the last bit,
    as the verify-conjecture records pin: numpy's array power differs from
    libm in the last bit on about 5% of inputs, and its x * x on about one
    in 1000."""
    v = np.asarray(v, dtype=float)
    try:
        out = np.fromiter(map(pow, v.ravel().tolist(), itertools.repeat(p)), float, v.size)
    except OverflowError:  # a power past the float range: numpy's scalar libm pow gives inf
        with np.errstate(over="ignore"):
            out = np.fromiter(map(pow, v.ravel(), itertools.repeat(p)), float, v.size)
    return out.reshape(v.shape)


# The start method of every worker pool, named here so that the platform
# default (fork on Linux up to Python 3.13, forkserver from 3.14) cannot
# change what a worker inherits or what starting the pool costs. Fork on
# Linux only: Windows has no fork, and a fork is unsafe on macOS when numpy
# runs on Accelerate, so elsewhere the pool spawns, their default.
START_METHOD = "fork" if sys.platform.startswith("linux") else "spawn"
# Items in flight per worker in _ordered_map: enough to keep each worker
# busy while the parent consumes, few enough to bound the memory of an
# unbounded item stream.
WINDOW = 4


def _workers() -> int:
    """The CPUs in this process's affinity mask, or os.cpu_count() where
    there is no such mask: the most workers a pool starts."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _ordered_map(fn, items, jobs: int):
    """fn(item) for each of the iterable items, yielded in item order, in
    min(jobs, items, _workers()) worker processes, or in this process when
    that is at most 1. The items are read lazily: in this process one at a
    time, in workers at most WINDOW per worker ahead of the consumer, so an
    unbounded stream is never held at once. The count of items is capped by
    reading up to `workers` of them before the pool starts, as a forking pool
    starts all its workers at the first submit. The pool uses START_METHOD
    and is shut down, its pending items cancelled, before this generator
    returns or raises."""
    items = iter(items)
    workers = min(jobs, _workers())
    head = list(itertools.islice(items, workers)) if workers > 1 else []
    workers = min(workers, len(head))
    if workers <= 1:
        yield from map(fn, itertools.chain(head, items))
        return
    # imported here, so that loading negmono loads no process pool
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    context = multiprocessing.get_context(START_METHOD)
    pending = collections.deque()
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        try:
            for item in itertools.chain(head, items):
                pending.append(pool.submit(fn, item))
                if len(pending) == WINDOW * workers:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


def _complex_pairs(x: np.ndarray) -> np.ndarray:
    """The complex Gaussians (x[:, 0] + i x[:, 1]) / sqrt(2) of a stack of
    real standard normal pairs (k, 2, *shape)."""
    return (x[:, 0] + 1j * x[:, 1]) / np.sqrt(2.0)


def _complex_gaussians(rng: np.random.Generator, k: int, shape: tuple) -> np.ndarray:
    """k complex_gaussian(rng, shape) draws stacked (k, *shape) by one
    generator call: the stream of k single draws, bit for bit."""
    return _complex_pairs(rng.standard_normal((k, 2, *shape)))


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """I.i.d. standard complex Gaussian entries (unit complex variance)."""
    return _complex_gaussians(rng, 1, np.atleast_1d(shape))[0]


def _square(x) -> np.ndarray:
    """as_complex_matrix, rejecting a non-square matrix."""
    m = as_complex_matrix(x)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


# The stacked primitives below take a single matrix or a stack (..., m, n)
# and do not validate; the public functions check their input first.
def _adj(x: np.ndarray) -> np.ndarray:
    return x.conj().swapaxes(-1, -2)


def _herm(x: np.ndarray) -> np.ndarray:
    return (x + _adj(x)) / 2.0


def _tr_neg(w: np.ndarray) -> np.ndarray:
    """Trace of the negative part from the eigenvalues w (..., n)."""
    return np.clip(-w, 0.0, None).sum(axis=-1)


def require_hermitian(x) -> np.ndarray:
    """Return the symmetrised copy (H + H*)/2, rejecting real asymmetry.

    Asymmetry up to HERM_TOL_FACTOR times the largest entry magnitude is
    treated as roundoff and silently symmetrised away.
    """
    m = _square(x)
    scale = float(np.abs(m).max())
    asym = float(np.abs(m - _adj(m)).max())
    if asym > HERM_TOL_FACTOR * scale:
        raise ValueError(
            f"asymmetry {asym:.3e} exceeds {HERM_TOL_FACTOR:g} * max|entry| = "
            f"{HERM_TOL_FACTOR * scale:.3e}"
        )
    return _herm(m)


@dataclass(frozen=True)
class HermitianEigen:
    """Eigenvalues in ascending order with a matching unitary eigenbasis."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _lapack(fn, *args, **kwargs):
    """fn(*args, **kwargs) for a numpy.linalg decomposition fn, with a
    LAPACK failure raised as NoConvergenceError."""
    try:
        return fn(*args, **kwargs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergenceError(str(exc)) from exc


def hermitian_eig(h) -> HermitianEigen:
    """Full eigendecomposition of a Hermitian matrix, eigenvalues ascending."""
    return HermitianEigen(*_lapack(np.linalg.eigh, require_hermitian(h)))


def hermitian_eigenvalues(h) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix."""
    return _lapack(np.linalg.eigvalsh, require_hermitian(h))


def schatten(x, q: float) -> float:
    """Schatten q-(quasi-)norm (sum of sigma^q)^(1/q), computed from
    singular values; q in (0, 1) gives the quasi-norm used for q = 1/2."""
    _finite_number("Schatten exponent", q, positive=True)
    s = _lapack(np.linalg.svd, as_complex_matrix(x), compute_uv=False)
    return float(np.sum(s**q) ** (1.0 / q))


def jordan_parts(h) -> tuple[np.ndarray, np.ndarray]:
    """Positive and negative parts (P, N) with H = P - N, both psd."""
    e = hermitian_eig(h)
    v = e.eigenvectors
    pos = (v * np.clip(e.eigenvalues, 0.0, None)) @ _adj(v)
    neg = (v * np.clip(-e.eigenvalues, 0.0, None)) @ _adj(v)
    return pos, neg


def _negativities(h: np.ndarray) -> np.ndarray:
    """negativity of each matrix of a Hermitian stack (..., n, n), unvalidated."""
    return 2.0 * _tr_neg(_lapack(np.linalg.eigvalsh, h))


def negativity(h) -> float:
    """Trace norm minus trace; equals twice the trace of the negative part."""
    return float(_negativities(require_hermitian(h)))


def psd_sqrt(p) -> np.ndarray:
    """Hermitian square root of a psd matrix.

    Eigenvalues in [-PSD_TOL_FACTOR * max|entry|, 0) are clamped to zero;
    anything lower raises ValueError.
    """
    m = as_complex_matrix(p)
    e = hermitian_eig(m)
    tol = PSD_TOL_FACTOR * float(np.abs(m).max())
    if e.eigenvalues[0] < -tol:
        raise ValueError(f"smallest eigenvalue {e.eigenvalues[0]:.3e} below clamp -{tol:.3e}")
    v = e.eigenvectors
    return (v * np.sqrt(np.clip(e.eigenvalues, 0.0, None))) @ _adj(v)


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one numerical inequality check: lhs <= rhs up to tolerance."""

    name: str
    lhs: float
    rhs: float
    slack: float  # rhs - lhs
    holds: bool
    inputs_digest: dict = field(default_factory=dict)

    def with_meta(self, **meta) -> "InequalityReport":
        return replace(self, inputs_digest={**self.inputs_digest, **meta})

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "holds": self.holds,
            **self.inputs_digest,
        }


def make_report(name: str, lhs: float, rhs: float, tol: float = TAU_CHECK, **digest) -> InequalityReport:
    """Build a report; holds means slack >= -tol."""
    lhs = float(lhs)
    rhs = float(rhs)
    slack = rhs - lhs
    return InequalityReport(name, lhs, rhs, slack, bool(slack >= -tol), digest)


def json_pairs(z) -> list:
    """The [re, im] pairs of the entries of a complex array, row-major."""
    z = np.asarray(z).reshape(-1)
    return np.stack((z.real, z.imag), axis=-1).tolist()


def matrix_to_dict(x) -> dict:
    """Row-major JSON form {"rows", "cols", "data": [[re, im], ...]}."""
    m = as_complex_matrix(x)
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": json_pairs(m)}


def json_values(obj, what: str, keys: tuple[str, ...]) -> list:
    """The values at keys of a decoded JSON object, named when missing."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} JSON must be an object, got {type(obj).__name__}")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ValueError(f"{what} JSON lacks the key(s) {', '.join(missing)}")
    return [obj[k] for k in keys]


def json_floats(values, message: str) -> np.ndarray:
    """The floats of a decoded JSON list of ints and floats of finite float value; anything
    else (a bool, a string, null, NaN, an infinity, an int past the float range) raises."""
    if not (isinstance(values, list)
            and all(type(x) in (int, float) and abs(x) <= sys.float_info.max for x in values)):
        raise ValueError(message)
    return np.array(values, dtype=float)


def json_entries(obj, what: str, size_keys: tuple[str, ...], list_key: str) -> np.ndarray:
    """The complex array of a decoded JSON record such as {"rows": 2, "cols": 2, "data":
    [[re, im], ...]}, shaped by its sizes in key order. A ValueError names an object, key,
    size (an integer of at least 1), entry (a [re, im] pair of json_floats numbers) or
    count of entries that is bad."""
    *sizes, entries = json_values(obj, what, (*size_keys, list_key))
    named = f"{what} JSON sizes {', '.join(size_keys)}"
    try:
        sizes = [_index(k, n) for k, n in zip(size_keys, sizes)]
    except ValueError:
        raise ValueError(f"{named} must be integers") from None
    if min(sizes) < 1:
        raise ValueError(f"{named} must be at least 1, got {sizes}")
    bad = f"{what} JSON {list_key} must be a list of [re, im] pairs of finite numbers"
    if not (isinstance(entries, list) and all(type(e) is list and len(e) == 2 for e in entries)):
        raise ValueError(bad)
    flat = json_floats([x for pair in entries for x in pair], bad).view(complex)
    if flat.size != (n := math.prod(sizes)):
        raise ValueError(f"{what} JSON {list_key} must hold {n} entries, got {flat.size}")
    return flat.reshape(sizes)


def matrix_from_dict(obj: dict) -> np.ndarray:
    return json_entries(obj, "matrix", ("rows", "cols"), "data")


def load_matrix(path) -> np.ndarray:
    with open(path) as fh:
        return matrix_from_dict(json.load(fh))
