"""Smooth increasing approximants of sqrt(x_+) built from the bump
g(x) = w(alpha(x) x) with w(x) = (1/2)(x^2 + 1)^(-1/4) and
alpha(x) = 1 + exp(-theta x): the antiderivative h, its scaled family
h_s(x) = h(s x)/sqrt(s), and the paired-derivative check that certifies g
as the derivative of an increasing matrix-compatible approximant.

h is computed by adaptive Simpson quadrature on [L, x], every panel of
every grid in lockstep, where the left cutoff L makes the analytic tail
bound on the dropped integral smaller than half the requested tolerance;
quad_tol is therefore a total error budget per grid, not a per-panel one.
Every pointwise function is a numpy ufunc expression, its exp and power
numpy's, and gives a point one float at every shape: alone, in an array, in
a strided or transposed view.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureFailureError, RootNotBracketedError
from .matcore import _EPS, InequalityReport, _at_least, _finite_number, make_report

DEFAULT_THETA = 1.0
DEFAULT_QUAD_TOL = 1e-10

# exp() overflow guard; g underflows to zero long before this matters.
_EXP_CLIP = 700.0
# The rows of a level's table that _simpson_panels pairs, left half and
# right half, into the next level's a, m, b, fa, fm, fb, whole and tol
_HALVES = np.array([[0, 1], [6, 7], [1, 2], [3, 4], [8, 9], [4, 5], [10, 11], [12, 12]])


def _pointwise(f):
    """f, which maps a 1-d float array pointwise, at x of any shape: a float at 0-d."""
    @functools.wraps(f)
    def at_every_shape(x, *args, **kwargs):
        x = np.asarray(x, dtype=float)
        out = f(x.ravel(), *args, **kwargs).reshape(x.shape)
        return float(out) if out.ndim == 0 else out
    return at_every_shape


@_pointwise
def w(x):
    """w(x) = (1/2) (x^2 + 1)^(-1/4); even, decreasing in |x|, maximum 1/2."""
    v = np.where(big := np.abs(x) > 1e150, 0.0, x)  # x * x may overflow; (x^2 + 1)^(1/4) ~ sqrt|x|
    out = 0.5 * np.power(v * v + 1.0, -0.25)
    out[big] = 0.5 / np.sqrt(np.abs(x[big]))
    return out


@_pointwise
def w_prime(x):
    """w'(x) = -(x/4) (x^2 + 1)^(-5/4); its tail -sign(x) |x|^(-3/2) / 4 past 1e100."""
    v = np.where(big := np.abs(x) > 1e100, 0.0, x)  # x * x may overflow
    out = -v / (4.0 * np.power(v * v + 1.0, 1.25))
    out[big] = -np.sign(x[big]) * np.power(np.abs(x[big]), -1.5) / 4.0
    return out


@_pointwise
def alpha(x, theta: float = DEFAULT_THETA):
    """alpha(x) = 1 + exp(-theta x)."""
    return 1.0 + np.exp(np.minimum(-theta * x, _EXP_CLIP))


@_pointwise
@np.errstate(over="ignore", invalid="ignore")  # inf and nan at |x| = inf or x << 0, silently
def beta(x, theta: float = DEFAULT_THETA):
    """d/dx of alpha(x) x: beta = -theta x exp(-theta x) + 1 + exp(-theta x).

    Strictly above 2 for x < 0, exactly 2 at 0, strictly below 2 for x > 0;
    this sign pattern is what makes the paired-derivative sums positive.
    """
    e = np.exp(np.minimum(-theta * x, _EXP_CLIP))
    return -theta * x * e + 1.0 + e


@_pointwise
def g(x, theta: float = DEFAULT_THETA):
    """g(x) = w(alpha(x) x), the integrand _g_array of h: positive, unimodal, g(0) = 1/2."""
    return _g_array(x, theta)


@_pointwise
@np.errstate(over="ignore", invalid="ignore")  # inf and nan at |x| = inf or x << 0, silently
def g_prime(x, theta: float = DEFAULT_THETA):
    """Closed-form derivative g'(x) = w'(alpha(x) x) * beta(x)."""
    return w_prime(alpha(x, theta) * x) * beta(x, theta)


def _g_scalar(y: float, theta: float) -> float:
    return g(y, theta)  # g at one point, which perfbench/tracer.py wraps


@np.errstate(over="ignore", invalid="ignore")  # inf and nan at |y| = inf or y << 0, silently
def _g_array(y: np.ndarray, theta: float) -> np.ndarray:
    """g at every point of y: w at alpha(y) y by numpy's exp and power, one
    float per point at every shape."""
    return w((1.0 + np.exp(np.minimum(-theta * y, _EXP_CLIP))) * y)


@np.errstate(over="ignore", invalid="ignore")
def _simpson_panels(f, a: np.ndarray, b: np.ndarray, tol: float | np.ndarray) -> np.ndarray:
    """Adaptive Simpson with Richardson correction on the panels [a_k, b_k]
    in lockstep, 60 halvings deep at most, f called once per level on all
    midpoints. tol is per panel (an array, or a scalar for all), halved at
    each split. A tol under a panel's roundoff fails, as err could meet it
    only by chance. Contiguous panels share their end point, where f is
    taken once. The values, and the error of the first failing panel from
    the left, are the recursion's bit for bit."""
    new = np.ones(a.size, bool)  # a panel that does not start where the one before ended
    new[1:] = a[1:] != b[:-1]
    m = 0.5 * (a + b)
    k, n = np.count_nonzero(new), a.size
    fn = f(np.concatenate((a[new], b, m)))
    fa, fb, fm = np.roll(fn[k:k + n], 1), fn[k:k + n], fn[k + n:]  # fa: f at the end before
    fa[new] = fn[:k]
    level = np.stack((a, m, b, fa, fm, fb, (b - a) / 6.0 * (fa + 4.0 * fm + fb),
                      np.broadcast_to(tol, a.shape)))
    levels, failure = [], None
    for depth in range(60, -1, -1):
        a, b, whole, tol = level[0], level[2], level[6], level[7]
        mids = 0.5 * (level[0:2] + level[1:3])  # the left and right midpoints
        fmids = f(mids.ravel()).reshape(mids.shape)
        halves = (level[1:3] - level[0:2]) / 6.0 * (level[3:5] + 4.0 * fmids + level[4:6])
        both = halves[0] + halves[1]
        err = both - whole
        split = ~(np.abs(err) <= 15.0 * tol)
        bad = split & (depth <= 0 or 15.0 * tol < _EPS * np.abs(whole))
        # a nan or inf at its points, or a nan tol, makes a panel fail at some depth
        sick = ~np.isfinite(level[3:6]).all(axis=0) | np.isnan(tol)
        doomed = bad | split & sick
        if doomed.any():  # advance only what lies left of the first
            k = int(np.argmax(doomed))
            if bad[k]:
                span = f"on [{float(a[k])!r}, {float(b[k])!r}]"
                failure = (f"max subdivision depth reached {span}" if depth <= 0 else
                           f"panel tolerance {float(tol[k]):.3g} {span} is below the rounding "
                           f"error {_EPS * abs(float(whole[k])):.3g} of its Simpson estimate")
            split[k if bad[k] else k + 1:] = False
        levels.append((both + err / 15.0, split))
        if not split.any():
            break
        table = np.concatenate((level[:6], mids, fmids, halves, 0.5 * level[7:]))
        level = table[_HALVES[:, None, :], np.flatnonzero(split)[:, None]].reshape(8, -1)
    if failure is not None:
        raise QuadratureFailureError(failure)
    value = levels.pop()[0]
    for val, split in reversed(levels):  # a split panel sums its halves
        val[split], value = value[0::2] + value[1::2], val
    return value


def adaptive_simpson(f, a: float, b: float, tol: float) -> float:
    """Adaptive Simpson quadrature with Richardson correction, 60 halvings deep at most."""
    if b <= a:
        return 0.0
    fs = lambda ys: np.fromiter(map(f, ys.tolist()), float, ys.size)
    return float(_simpson_panels(fs, np.array([a], float), np.array([b], float), tol)[0])


def tail_bound(x: float, theta: float = DEFAULT_THETA) -> float:
    """Closed-form bound on the integral of g over (-inf, x] for x < 0,
    from g(y) <= exp(theta y / 2) / (2 sqrt(-y))."""
    if x >= 0:
        raise ValueError("tail bound only valid for x < 0")
    return math.exp(theta * x / 2.0) / (theta * math.sqrt(-x))


def tail_cutoff(theta: float = DEFAULT_THETA, quad_tol: float = DEFAULT_QUAD_TOL) -> float:
    """Left endpoint L < 0 with tail_bound(L) < quad_tol / 2. h, h_s and
    h_grid check theta and quad_tol here, once: the doubling ends only
    when both are finite and positive."""
    _finite_number("theta", theta, positive=True)
    _finite_number("quad_tol", quad_tol, positive=True)
    t = 8.0 / theta
    while tail_bound(-t, theta) > 0.5 * quad_tol:
        t *= 2.0
    return -t


def h(x: float, theta: float = DEFAULT_THETA, quad_tol: float = DEFAULT_QUAD_TOL) -> float:
    """Antiderivative h(x) = integral of g over (-inf, x]: h_grid at one point."""
    return float(h_grid([x], theta, quad_tol)[0])


def h_grid(xs, theta: float = DEFAULT_THETA, quad_tol: float = DEFAULT_QUAD_TOL) -> np.ndarray:
    """h evaluated on an ascending grid: _h_grids on the one grid. A nan or
    +inf point is rejected; a point at or below L, -inf included, gives 0.

    The total budget quad_tol is split into half for the tail cutoff and
    half shared by the n segments, so errors cannot accumulate past it.
    """
    return _h_grids([xs], theta, quad_tol)[0]


def _grid(xs) -> np.ndarray:
    v = np.asarray(xs, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"expected a non-empty 1-d grid, got shape {v.shape}")
    if not np.all(v < np.inf):  # false at a nan and at +inf
        raise ValueError(f"grid points must be finite or -inf, got {v[~(v < np.inf)][0]}")
    if np.any(np.diff(v) < 0):
        raise ValueError("grid must be ascending")
    return v


def _h_grids(grids, theta: float, quad_tol: float) -> list[np.ndarray]:
    """h on each grid by one _simpson_panels call over the segments between
    the points above L of every grid, each grid's summed left to right with
    its own budget, as h_grid gives it; a failure is the first grid's in
    order. Every grid is checked before any quadrature."""
    vs = [_grid(xs) for xs in grids]
    lo = tail_cutoff(theta, quad_tol)
    if not vs:
        return []
    panels = []
    for v in vs:
        up = ~(v <= lo)  # a point at or below L gives 0
        starts, ends = np.concatenate(([lo], v[up]))[:-1], v[up]
        run = ~(ends <= starts)  # a zero-length segment gives 0.0
        panels.append((up, run, starts[run], ends[run],
                       np.full(np.count_nonzero(run), 0.5 * quad_tol / v.size)))
    ups, runs, a, b, tol = zip(*panels)
    values = _simpson_panels(lambda y: _g_array(y, theta), np.concatenate(a), np.concatenate(b),
                             np.concatenate(tol))
    parts = np.split(values, np.cumsum([x.size for x in a])[:-1])
    out = []
    for v, up, run, part in zip(vs, ups, runs, parts):
        seg, hv = np.zeros(run.size), np.zeros(v.size)
        seg[run] = part
        hv[up] = np.cumsum(seg)
        out.append(hv)
    return out


def _scaled(s: float, xs) -> np.ndarray:
    """s * xs, for a scale s that is finite and positive and keeps every
    finite point finite."""
    _finite_number("scale", s, positive=True)
    xs = np.asarray(xs, dtype=float)
    with np.errstate(over="ignore"):
        ys = s * xs
    over = np.isinf(ys) & np.isfinite(xs)
    if over.any():
        raise ValueError(f"scale {s} overflows the grid: s * {xs[over][0]} is not finite")
    return ys


def h_s(x: float, s: float, theta: float = DEFAULT_THETA, quad_tol: float = DEFAULT_QUAD_TOL) -> float:
    """Scaled approximant h_s(x) = h(s x) / sqrt(s); converges uniformly to
    sqrt(x_+) at rate 1/sqrt(s)."""
    return h(_scaled(s, x), theta, quad_tol) / math.sqrt(s)


@_pointwise
def sqrt_plus(x):
    """Target function sqrt(x_+)."""
    return np.sqrt(np.clip(x, 0.0, None))


@dataclass(frozen=True)
class IMParams:
    """Evaluation parameters: bump steepness, quadrature budget and the grid
    on which approximation error is reported."""

    theta: float = DEFAULT_THETA
    quad_tol: float = DEFAULT_QUAD_TOL
    grid_lo: float = -10.0
    grid_hi: float = 10.0
    grid_n: int = 2001

    def __post_init__(self):
        for name in ("theta", "quad_tol"):
            _finite_number(name, getattr(self, name), positive=True)
        for name in ("grid_lo", "grid_hi"):
            _finite_number(name, getattr(self, name))
        if not self.grid_hi > self.grid_lo:
            raise ValueError("grid must have grid_hi > grid_lo")
        object.__setattr__(self, "grid_n", _at_least("grid_n", self.grid_n, 2))

    def grid(self) -> np.ndarray:
        return np.linspace(self.grid_lo, self.grid_hi, self.grid_n)


def _sup_error(s: float, xs: np.ndarray, hx: np.ndarray) -> float:
    """max over the grid xs of |h_s(x) - sqrt(x_+)|, from hx = h on s * xs."""
    return float(np.max(np.abs(hx / math.sqrt(s) - sqrt_plus(xs))))


def sup_error_table(s_values, params: IMParams) -> list[tuple[float, float]]:
    """Rows (s, sup |h_s - sqrt(x_+)|) over the parameter grid, by one
    _h_grids call over the scaled grids; every s is checked first, and the
    first bad one in order is the error."""
    scales = [float(s) for s in s_values]
    xs = params.grid()
    grids = [_scaled(s, xs) for s in scales]
    hs = _h_grids(grids, params.theta, params.quad_tol)
    return [(s, _sup_error(s, xs, hx)) for s, hx in zip(scales, hs)]


def _bisect_levels(c: np.ndarray, theta: float, positive, tol: float) -> np.ndarray:
    """Solve g(t) = c for every level of the array c on the monotone branch
    that positive names per level (a bool array, or one bool for all) by
    bisection, in lockstep, evaluating g by _g_array.

    The bracket runs from inner = 0, where g = 1/2 > c, to an outer end
    doubled until g(outer) <= c; the 80 outer ends +-2**k, k < 40, are
    evaluated once. A midpoint with g > c replaces the inner end. A tie
    g = c replaces the end at the larger t: the outer one on the positive
    branch, the inner one on the negative branch.
    """
    bad = ~((0.0 < c) & (c < 0.5))
    if bad.any():
        raise RootNotBracketedError(f"level must lie in (0, 1/2), got {float(c[bad][0])}")
    positive = np.broadcast_to(positive, c.shape)
    side = positive.astype(np.intp)
    ends = np.ldexp([[-1.0], [1.0]], np.arange(40))  # the outer ends up to 1e12
    stop = ~(_g_array(ends.ravel(), theta).reshape(ends.shape)[side] > c[:, None])
    if not (found := stop.any(axis=1)).all():
        k = int(np.argmin(found))
        raise RootNotBracketedError(
            f"no {'positive' if positive[k] else 'negative'} root for level {float(c[k])}")
    inner, outer = np.zeros(c.shape), ends[side, stop.argmax(axis=1)]
    while (live := np.abs(outer - inner) > tol * np.maximum(1.0, np.abs(outer))).any():
        mid = 0.5 * (inner + outer)
        gm = _g_array(mid, theta)
        up = live & ((gm > c) | (gm == c) & ~positive)
        inner, outer = np.where(up, mid, inner), np.where(live & ~up, mid, outer)
    return 0.5 * (inner + outer)


def im_pair_check(theta: float = DEFAULT_THETA, sample_count: int = 100) -> InequalityReport:
    """For sampled levels c in (0, 1/2), locate the two preimages
    t1 < 0 < t2 of c under g and check g'(t1) + g'(t2) > 0.

    This is the increasing-rearrangement criterion for g being the
    derivative of a matrix-compatible increasing approximant; the report
    carries the smallest derivative sum over all sampled levels, at
    preimages bisected to a relative width of 1e-12, and the first level
    that attains it. The roots come from one _bisect_levels call on the
    levels of both branches, and g' from one g_prime call on all of them.
    """
    _finite_number("theta", theta, positive=True)
    sample_count = _at_least("sample_count", sample_count, 1)
    levels = np.linspace(0.01, 0.49, sample_count)
    roots = _bisect_levels(np.concatenate((levels, levels)), theta,
                           np.repeat([False, True], sample_count), 1e-12)
    slopes = g_prime(roots, theta)
    sums = slopes[:sample_count] + slopes[sample_count:]
    k = int(np.argmin(sums))
    return make_report(
        "im_pair_derivative_sum", 0.0, float(sums[k]),
        theta=theta, samples=sample_count, worst_level=float(levels[k]),
    )


def beta_sign_report(theta: float = DEFAULT_THETA, n: int = 1000) -> InequalityReport:
    """Worst margin of the sign pattern beta > 2 for x < 0 and beta < 2 for
    x > 0 over an n-point grid on [-10, 10], skipping x = 0 (beta = 2)."""
    _finite_number("theta", theta, positive=True)
    n = _at_least("n", n, 1)
    xs = np.linspace(-10.0, 10.0, n)
    bs = beta(xs, theta)
    margins = np.where(xs < 0, bs - 2.0, 2.0 - bs)[xs != 0]
    return make_report(
        "beta_sign_pattern", 0.0, float(np.min(margins)), theta=theta, n=n
    )
