import math

import numpy as np
import pytest
from scipy.integrate import quad

from negmono import imfunc
from negmono.errors import RootNotBracketedError
from negmono.imfunc import (
    DEFAULT_QUAD_TOL,
    IMParams,
    adaptive_simpson,
    alpha,
    beta,
    beta_sign_report,
    g,
    g_prime,
    h,
    h_grid,
    h_s,
    im_pair_check,
    sqrt_plus,
    sup_error,
    sup_error_table,
    tail_bound,
    tail_cutoff,
    w,
    w_prime,
)


def test_w_hand_values():
    assert w(0.0) == 0.5
    assert w(1.0) == pytest.approx(0.5 * 2.0 ** -0.25)
    assert w(-3.0) == w(3.0)
    # decreasing in |x|
    xs = np.linspace(0.0, 50.0, 200)
    assert np.all(np.diff(w(xs)) < 0)


def test_w_prime_is_derivative():
    for x in (-2.0, -0.3, 0.0, 1.7, 10.0):
        fd = (w(x + 1e-6) - w(x - 1e-6)) / 2e-6
        assert w_prime(x) == pytest.approx(fd, abs=1e-8)


def test_w_handles_huge_arguments():
    assert w(1e200) == 0.0
    assert w_prime(1e200) == 0.0
    assert np.isfinite(w(np.array([1e160, -1e160]))).all()


def test_alpha_beta_at_zero():
    assert alpha(0.0) == 2.0
    assert beta(0.0) == 2.0


def test_beta_is_derivative_of_alpha_x():
    for x in (-3.0, -0.5, 0.4, 2.0):
        fd = (alpha(x + 1e-6) * (x + 1e-6) - alpha(x - 1e-6) * (x - 1e-6)) / 2e-6
        assert beta(x) == pytest.approx(fd, abs=1e-7)


def test_beta_sign_pattern():
    xs = np.linspace(-10.0, 10.0, 1001)
    b = beta(xs)
    assert np.all(b[xs < 0] > 2.0)
    assert np.all(b[xs > 0] < 2.0)
    rep = beta_sign_report()
    assert rep.holds and rep.rhs > 0


def test_g_shape():
    assert g(0.0) == 0.5
    # positive everywhere, unimodal: increasing left of 0, decreasing right
    xs = np.linspace(-30.0, 30.0, 500)
    vals = g(xs)
    assert np.all(vals > 0)
    peak = int(np.argmax(vals))
    assert np.all(np.diff(vals[: peak + 1]) > 0)
    assert np.all(np.diff(vals[peak:]) < 0)


def test_g_prime_matches_finite_differences():
    for x in (-4.0, -1.0, 0.0, 0.5, 3.0):
        fd = (g(x + 1e-6) - g(x - 1e-6)) / 2e-6
        assert g_prime(x) == pytest.approx(fd, abs=1e-7)


def test_g_right_tail_behaves_like_half_inverse_sqrt():
    # for large positive x, alpha -> 1 and g(x) ~ 1/(2 sqrt x)
    for x in (1e4, 1e8):
        assert g(x) == pytest.approx(0.5 / math.sqrt(x), rel=1e-6)


def test_adaptive_simpson_polynomial_exact():
    # Simpson integrates cubics exactly; the adaptive driver must too
    val = adaptive_simpson(lambda t: t**3 - 2.0 * t + 1.0, -1.0, 3.0, 1e-12)
    exact = (3.0**4 / 4 - 3.0**2 + 3.0) - (1.0 / 4 - 1.0 - 1.0)
    assert val == pytest.approx(exact, abs=1e-11)


def test_adaptive_simpson_against_quad():
    for fn, a, b in [
        (lambda t: math.exp(-t * t), -2.0, 5.0),
        (lambda t: 1.0 / (1.0 + t * t), 0.0, 40.0),
        (math.sin, 0.0, 10.0),
    ]:
        ref = quad(fn, a, b, epsabs=1e-13, limit=300)[0]
        assert adaptive_simpson(fn, a, b, 1e-11) == pytest.approx(ref, abs=1e-10)


def test_adaptive_simpson_empty_interval():
    assert adaptive_simpson(math.sin, 2.0, 2.0, 1e-10) == 0.0
    assert adaptive_simpson(math.sin, 3.0, 2.0, 1e-10) == 0.0


def test_tail_bound_dominates_dropped_mass():
    # integral of g over (-inf, L] is below the closed-form bound
    for length in (-8.0, -16.0, -32.0):
        dropped = quad(g, length - 200.0, length, limit=500)[0]
        assert dropped <= tail_bound(length, 1.0)


def test_tail_cutoff_budget():
    cut = tail_cutoff(1.0, DEFAULT_QUAD_TOL)
    assert tail_bound(cut, 1.0) < DEFAULT_QUAD_TOL / 2.0


def test_h_against_quad_oracle():
    lo = tail_cutoff(1.0, DEFAULT_QUAD_TOL)
    for x in (-5.0, -1.0, 0.0, 0.5, 2.0, 10.0, 50.0):
        ref = quad(g, lo, x, epsabs=1e-13, limit=800)[0]
        assert h(x) == pytest.approx(ref, abs=5e-10)


def test_h_zero_value_bound():
    # closed form: h(0) < sqrt(pi / (2 theta)) for the default theta
    assert 0.0 < h(0.0) < math.sqrt(math.pi / 2.0)


def test_h_is_increasing():
    xs = np.linspace(-12.0, 12.0, 60)
    vals = [h(float(x)) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_h_far_left_is_zero():
    assert h(-1e6) == 0.0


def test_h_derivative_is_g():
    # five-point central differences; a first-order central stencil cannot
    # reach the 10 * quad_tol budget through the quadrature noise floor
    delta = 0.004
    budget = 10.0 * DEFAULT_QUAD_TOL
    for x in np.linspace(-8.0, 8.0, 33):
        fd = (
            h(x - 2 * delta) - 8.0 * h(x - delta)
            + 8.0 * h(x + delta) - h(x + 2 * delta)
        ) / (12.0 * delta)
        assert abs(fd - g(x)) <= budget


def test_h_grid_matches_pointwise():
    xs = np.linspace(-6.0, 6.0, 101)
    grid_vals = h_grid(xs)
    for k in (0, 17, 50, 100):
        assert grid_vals[k] == pytest.approx(h(float(xs[k])), abs=1e-9)


@pytest.mark.parametrize("theta,quad_tol", [(1.0, DEFAULT_QUAD_TOL), (2.5, 1e-8)])
def test_h_is_h_grid_at_one_point(theta, quad_tol):
    # bit for bit, and bit for bit one quadrature over [L, x] with half the
    # budget, L the tail cutoff; at or below L, h is exactly 0
    lo = tail_cutoff(theta, quad_tol)
    for x in (lo - 1.0, lo, -3.0, 0.0, 0.5, 7.0, 500.0):
        got = h(x, theta, quad_tol)
        assert got == h_grid([x], theta, quad_tol)[0]
        ref = 0.0 if x <= lo else adaptive_simpson(
            lambda y: imfunc._g_scalar(y, theta), lo, x, 0.5 * quad_tol)
        assert got == ref
    assert h(lo, theta, quad_tol) == 0.0 and h(lo - 1.0, theta, quad_tol) == 0.0


def test_h_grid_requires_ascending_input():
    with pytest.raises(ValueError):
        h_grid(np.array([0.0, -1.0, 1.0]))


def test_h_s_scaling_identity():
    for x in (-2.0, 0.3, 4.0):
        for s in (2.0, 10.0):
            assert h_s(x, s) == pytest.approx(h(s * x) / math.sqrt(s), abs=1e-12)
    with pytest.raises(ValueError):
        h_s(1.0, 0.0)


def test_h_s_converges_to_sqrt_plus():
    for x in (-1.0, 0.5, 2.0, 9.0):
        err_small = abs(h_s(x, 10.0) - sqrt_plus(x))
        err_large = abs(h_s(x, 1000.0) - sqrt_plus(x))
        assert err_large < err_small


def test_sqrt_plus():
    assert sqrt_plus(-3.0) == 0.0
    assert sqrt_plus(4.0) == 2.0
    np.testing.assert_array_equal(sqrt_plus(np.array([-1.0, 9.0])), [0.0, 3.0])


def test_sup_error_scales_inversely_with_s():
    e1 = sup_error(IMParams(s=1.0))
    e100 = sup_error(IMParams(s=100.0))
    # exact ratio 1/10: the sup sits at the origin where h_s = h(0)/sqrt(s)
    assert e100 == pytest.approx(e1 / 10.0, rel=1e-6)
    assert e100 <= e1 / 8.0
    assert e1 == pytest.approx(h(0.0), abs=1e-8)


def test_sup_error_table():
    table = sup_error_table([1.0, 4.0], IMParams())
    assert [s for s, _ in table] == [1.0, 4.0]
    assert table[1][1] == pytest.approx(table[0][1] / 2.0, rel=1e-6)


def test_im_params_validation():
    with pytest.raises(ValueError):
        IMParams(theta=0.0)
    with pytest.raises(ValueError):
        IMParams(grid_lo=3.0, grid_hi=-3.0)
    with pytest.raises(ValueError):
        IMParams(grid_n=1)


def test_im_pair_check_positive_sums():
    rep = im_pair_check(theta=1.0, sample_count=50)
    assert rep.holds
    assert rep.rhs > 0.0
    assert rep.inputs_digest["samples"] == 50


def test_level_crossing_outside_range_raises():
    from negmono.imfunc import _bisect_level

    with pytest.raises(RootNotBracketedError):
        _bisect_level(0.9, 1.0, True, 1e-12)
    # interior levels bracket two points with g(t) = c on opposite slopes
    t_neg = _bisect_level(0.25, 1.0, False, 1e-12)
    t_pos = _bisect_level(0.25, 1.0, True, 1e-12)
    assert t_neg < t_pos
    assert g(t_neg) == pytest.approx(0.25, abs=1e-9)
    assert g(t_pos) == pytest.approx(0.25, abs=1e-9)


def _two_branch_bisect(c, theta, positive, tol, g=g):
    # the former _bisect_level, one mirrored loop per branch
    if positive:
        lo, hi = 0.0, 1.0
        while g(hi, theta) > c:
            hi *= 2.0
        while hi - lo > tol * max(1.0, abs(hi)):
            mid = 0.5 * (lo + hi)
            if g(mid, theta) > c:
                lo = mid
            else:
                hi = mid
    else:
        lo, hi = -1.0, 0.0
        while g(lo, theta) > c:
            lo *= 2.0
        while hi - lo > tol * max(1.0, abs(lo)):
            mid = 0.5 * (lo + hi)
            if g(mid, theta) < c:
                lo = mid
            else:
                hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("theta", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("positive", [False, True])
def test_bisect_level_matches_two_branch_reference(theta, positive):
    from negmono.imfunc import _bisect_level

    for c in np.linspace(0.01, 0.49, 100):
        got = _bisect_level(float(c), theta, positive, 1e-12)
        assert got == _two_branch_bisect(float(c), theta, positive, 1e-12)


def test_bisect_level_ties_keep_each_branch_rule(monkeypatch):
    # with g equal to the level everywhere, every midpoint is a tie: the
    # positive branch moves its outer end and the negative branch its
    # inner end, as the two-branch form did
    from negmono import imfunc

    def flat(t, theta):
        return 0.25

    monkeypatch.setattr(imfunc, "_g_scalar", flat)
    roots = [imfunc._bisect_level(0.25, 1.0, positive, 1e-3) for positive in (False, True)]
    assert roots == [_two_branch_bisect(0.25, 1.0, positive, 1e-3, g=flat)
                     for positive in (False, True)]
    assert roots[0] < -0.99 and 0.0 < roots[1] < 0.01


def test_lower_bound_machinery():
    # h'(x) - f'(x) stays above the two-term envelope for x > 1
    for x in np.geomspace(1.05, 40.0, 25):
        diff = g(x) - 0.5 / math.sqrt(x)
        envelope = -math.exp(-x) / (4.0 * math.sqrt(x)) - 1.0 / (8.0 * x**2.5)
        assert diff > envelope


def test_h_minus_sqrt_bounded_on_positive_axis():
    # the approximant never drifts: |h - f| stays below h(0) + 1 out to 100
    h0 = h(0.0)
    for x in np.linspace(1.0, 100.0, 23):
        assert abs(h(float(x)) - math.sqrt(x)) <= h0 + 1.0
