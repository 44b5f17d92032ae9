"""The former scalar forms of imfunc's quadrature, bisection and g', kept
as oracles: the depth-first adaptive Simpson recursion, the h_grid loop
that ran it once per segment, the one-level bisection loop, and g' composed
of w', alpha and beta at one point. The first three evaluate g by
imfunc._g_scalar one point at a time and count its evaluations."""

import math

import numpy as np

from negmono import imfunc
from negmono.errors import QuadratureFailureError, RootNotBracketedError


def _simpson(fa, fm, fb, a, b):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adapt(f, a, fa, m, fm, b, fb, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(fa, flm, fm, a, m)
    right = _simpson(fm, frm, fb, m, b)
    err = left + right - whole
    if abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    if depth <= 0:
        raise QuadratureFailureError(f"max subdivision depth reached on [{a!r}, {b!r}]")
    if 15.0 * tol < imfunc._EPS * abs(whole):
        raise QuadratureFailureError(
            f"panel tolerance {tol:.3g} on [{a!r}, {b!r}] is below the rounding "
            f"error {imfunc._EPS * abs(whole):.3g} of its Simpson estimate"
        )
    half = 0.5 * tol
    return _adapt(f, a, fa, lm, flm, m, fm, left, half, depth - 1) + _adapt(
        f, m, fm, rm, frm, b, fb, right, half, depth - 1
    )


def recursive_simpson(f, a, b, tol):
    """The former adaptive_simpson: a depth-first recursion, 60 deep."""
    if b <= a:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    return _adapt(f, a, fa, m, fm, b, fb, _simpson(fa, fm, fb, a, b), tol, 60)


def reference_h_grid(xs, theta=imfunc.DEFAULT_THETA, quad_tol=imfunc.DEFAULT_QUAD_TOL):
    """The former h_grid loop, one recursion per segment: (values, number
    of integrand evaluations)."""
    v = np.asarray(xs, dtype=float)
    lo = imfunc.tail_cutoff(theta, quad_tol)
    seg_tol = 0.5 * quad_tol / v.size
    evals = [0]

    def fn(y):
        evals[0] += 1
        return imfunc._g_scalar(y, theta)

    out = np.zeros(v.size)
    acc = 0.0
    prev = lo
    for i, x in enumerate(v):
        if x <= lo:
            continue
        acc += recursive_simpson(fn, prev, float(x), seg_tol)
        prev = float(x)
        out[i] = acc
    return out, evals[0]


def scalar_bisect(c, theta, positive, tol):
    """The former one-level bisection, g by _g_scalar."""
    if not 0.0 < c < 0.5:
        raise RootNotBracketedError(f"level must lie in (0, 1/2), got {c}")
    inner, outer = 0.0, (1.0 if positive else -1.0)
    while imfunc._g_scalar(outer, theta) > c:
        outer *= 2.0
        if abs(outer) > 1e12:
            side = "positive" if positive else "negative"
            raise RootNotBracketedError(f"no {side} root for level {c}")
    while abs(outer - inner) > tol * max(1.0, abs(outer)):
        mid = 0.5 * (inner + outer)
        gm = imfunc._g_scalar(mid, theta)
        if gm > c or (gm == c and not positive):
            inner = mid
        else:
            outer = mid
    return 0.5 * (inner + outer)


def scalar_g_prime(x, theta):
    """The former g_prime at one point: w'(alpha(x) x) * beta(x), each step
    on a 0-d array or a numpy scalar."""
    x = np.asarray(x, dtype=float)
    return float(imfunc.w_prime(imfunc.alpha(x, theta) * x) * imfunc.beta(x, theta))


def reference_approximation_suite(seed):
    """Criterion 8's details from the oracles above."""
    h0 = reference_h_grid([0.0])[0][0]
    worst = math.inf
    for c in np.linspace(0.01, 0.49, 100).tolist():
        t1, t2 = (scalar_bisect(c, 1.0, positive, 1e-12) for positive in (False, True))
        worst = min(worst, scalar_g_prime(t1, 1.0) + scalar_g_prime(t2, 1.0))
    errs = []
    for s in (1.0, 100.0):
        xs = imfunc.IMParams().grid()
        hs = reference_h_grid(s * xs)[0] / math.sqrt(s)
        errs.append(float(np.max(np.abs(hs - imfunc.sqrt_plus(xs)))))
    return {"h0": h0, "h0_bound": math.sqrt(math.pi / 2.0), "min_pair_sum": worst,
            "min_beta_margin": imfunc.beta_sign_report(theta=1.0, n=1000).rhs,
            "sup_err_s1": errs[0], "sup_err_s100": errs[1]}
