import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from imfunc_oracles import recursive_simpson, reference_h_grid, scalar_bisect, scalar_g_prime
from scipy.integrate import quad

from negmono import imfunc
from negmono.cli import main
from negmono.imfunc import (
    DEFAULT_QUAD_TOL,
    IMParams,
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
    # past |x| = 1e150 w is 0.5 / sqrt|x| and past 1e100 w' is
    # -sign(x) |x|^(-3/2) / 4, where x * x overflowed to 0.0 before
    xs = np.array([2e150, -2e150, 2e154, 1e200, -1e200, 1e300, np.inf, -np.inf])
    np.testing.assert_array_equal(w(xs), 0.5 / np.sqrt(np.abs(xs)))
    assert w(1e200) == 5e-101 and w(2e154) > 0.0
    ys = np.array([1.1e100, -1.1e100, 1e150, -1e200, 1e300])
    want = [-math.copysign(1.0, y) * abs(y) ** -1.5 / 4.0 for y in ys.tolist()]
    np.testing.assert_array_equal(w_prime(ys), want)
    assert w_prime(1.1e100) == pytest.approx(-2.17e-151, rel=1e-3)
    # the two forms meet at the cutoffs to within a few ulps
    for cut, f, tail in ((1e150, w, lambda x: 0.5 / math.sqrt(x)),
                         (1e100, w_prime, lambda x: -(x ** -1.5) / 4.0)):
        assert f(cut) == pytest.approx(tail(cut), rel=1e-15)


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


def _one_panel(f, a, b, tol):
    # the adaptive Simpson driver on the one panel [a, b], f taken per point
    fs = lambda ys: np.fromiter(map(f, ys.tolist()), float, ys.size)
    return float(imfunc._simpson_panels(fs, np.array([a]), np.array([b]), tol)[0])


def test_adaptive_simpson_polynomial_exact():
    # Simpson integrates cubics exactly; the adaptive driver must too
    val = _one_panel(lambda t: t**3 - 2.0 * t + 1.0, -1.0, 3.0, 1e-12)
    exact = (3.0**4 / 4 - 3.0**2 + 3.0) - (1.0 / 4 - 1.0 - 1.0)
    assert val == pytest.approx(exact, abs=1e-11)


def test_adaptive_simpson_against_quad():
    for fn, a, b in [
        (lambda t: math.exp(-t * t), -2.0, 5.0),
        (lambda t: 1.0 / (1.0 + t * t), 0.0, 40.0),
        (math.sin, 0.0, 10.0),
    ]:
        ref = quad(fn, a, b, epsabs=1e-13, limit=300)[0]
        assert _one_panel(fn, a, b, 1e-11) == pytest.approx(ref, abs=1e-10)


def test_tail_bound_dominates_dropped_mass():
    # integral of g over (-inf, L] is below the closed-form bound
    for length in (-8.0, -16.0, -32.0):
        dropped = quad(g, length - 200.0, length, limit=500)[0]
        assert dropped <= tail_bound(length, 1.0)


@pytest.mark.parametrize("theta,quad_tol", [
    (1.0, -1.0), (1.0, 0.0), (1.0, math.nan), (1.0, math.inf),
    (0.0, DEFAULT_QUAD_TOL), (-1.0, DEFAULT_QUAD_TOL), (math.nan, DEFAULT_QUAD_TOL),
])
def test_tail_cutoff_rejects_what_would_not_end(monkeypatch, theta, quad_tol):
    # a negative quad_tol would double the cutoff forever; every public
    # entry raises before the doubling, which here fails instead of looping
    def loop(*args):
        raise AssertionError("the cutoff loop ran")

    monkeypatch.setattr(imfunc, "tail_bound", loop)
    calls = (lambda: tail_cutoff(theta, quad_tol), lambda: h(1.0, theta, quad_tol),
             lambda: h_s(1.0, 2.0, theta, quad_tol),
             lambda: h_grid([0.0, 3.0, 50.0], theta, quad_tol))
    for call in calls:
        with pytest.raises(ValueError, match="must be finite and positive"):
            call()


def test_h_grid_rejects_nan_and_inf_points(monkeypatch):
    # a nan passed the ascending check and then failed in the quadrature, as
    # did +inf; both are now rejected before any panel is integrated
    def no_quadrature(*args):
        raise AssertionError("the quadrature ran")

    monkeypatch.setattr(imfunc, "_simpson_panels", no_quadrature)
    calls = (lambda: h_grid([1.0, math.nan, 0.0]), lambda: h_grid([0.0, math.inf]),
             lambda: h(math.inf), lambda: h(math.nan),
             lambda: h_s(math.inf, 2.0), lambda: h_s(math.nan, 2.0))
    for call in calls:
        with pytest.raises(ValueError, match="grid points must be finite or -inf, got (nan|inf)"):
            call()
    monkeypatch.undo()
    assert h(-math.inf) == 0.0
    assert h_grid([-math.inf, 0.0])[0] == 0.0


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_theta_is_checked_by_every_report(theta):
    # theta=-1 gave a failing pair report (slack -0.235) and beta margin
    # (slack -242290) that read like failed lemmas, and nan a nan slack
    for call in (lambda: im_pair_check(theta), lambda: beta_sign_report(theta)):
        with pytest.raises(ValueError, match="^theta must be finite and positive, got "):
            call()


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
        ref = 0.0 if x <= lo else recursive_simpson(
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


def _no_quadrature(monkeypatch):
    def fail(*args):
        raise AssertionError("the quadrature ran")

    monkeypatch.setattr(imfunc, "_simpson_panels", fail)


@pytest.mark.parametrize("s", [math.inf, math.nan, -math.inf])
def test_h_s_rejects_a_scale_that_is_not_finite(monkeypatch, s):
    # h_s(-1, inf) gave 0.0, and h_s(1, inf) and h_s(0, inf) blamed the grid
    _no_quadrature(monkeypatch)
    for x in (-1.0, 0.0, 1.0):
        with pytest.raises(ValueError, match=f"^scale must be finite and positive, got {s}$"):
            h_s(x, s)


def test_a_scale_that_overflows_the_grid_is_named(monkeypatch):
    # s * x overflowed to inf, warned, and was blamed on the grid
    _no_quadrature(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^scale 1e\+308 overflows the grid: s \* 10.0 "):
            h_s(10.0, 1e308)
        with pytest.raises(ValueError, match=r"^scale 1e\+308 overflows the grid: s \* -10.0 "):
            sup_error_table([1e308], IMParams())


def test_sup_error_table_names_the_first_bad_scale_before_any_quadrature(monkeypatch):
    _no_quadrature(monkeypatch)
    for scales, bad in (([1.0, -1.0, math.inf], "-1.0"), ([4.0, math.nan, 0.0], "nan"),
                        ([1.0, 0.0, 1e308], "0.0")):
        with pytest.raises(ValueError, match=f"^scale must be finite and positive, got {bad}$"):
            sup_error_table(scales, IMParams())
    with pytest.raises(ValueError, match="^scale 1e\\+308 overflows"):
        sup_error_table([2.0, 1e308, -1.0], IMParams())


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
    (_, e1), (_, e100) = sup_error_table([1.0, 100.0], IMParams())
    # exact ratio 1/10: the sup sits at the origin where h_s = h(0)/sqrt(s)
    assert e100 == pytest.approx(e1 / 10.0, rel=1e-6)
    assert e100 <= e1 / 8.0
    assert e1 == pytest.approx(h(0.0), abs=1e-8)


def test_sup_error_table():
    table = sup_error_table([1.0, 4.0], IMParams())
    assert [s for s, _ in table] == [1.0, 4.0]
    assert table[1][1] == pytest.approx(table[0][1] / 2.0, rel=1e-6)
    assert sup_error_table([], IMParams()) == []


def test_im_params_validation():
    with pytest.raises(ValueError):
        IMParams(theta=0.0)
    with pytest.raises(ValueError):
        IMParams(grid_lo=3.0, grid_hi=-3.0)
    with pytest.raises(ValueError):
        IMParams(grid_n=1)


def test_im_params_refuse_a_grid_wider_than_the_float_range():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            IMParams(grid_lo=-1e308, grid_hi=1e308)
    assert str(info.value) == ("grid width grid_hi - grid_lo must be finite, "
                               "got grid_lo = -1e+308, grid_hi = 1e+308")


@pytest.mark.parametrize("call,message", [
    (lambda: IMParams(grid_n=2.5), "grid_n must be an integer, got 2.5"),
    (lambda: IMParams(grid_n=1), "grid_n must be at least 2, got 1"),
    (lambda: im_pair_check(1.0, 1.5), "sample_count must be an integer, got 1.5"),
    (lambda: im_pair_check(1.0, 0), "sample_count must be at least 1, got 0"),
    (lambda: beta_sign_report(1.0, 2.5), "n must be an integer, got 2.5"),
    (lambda: beta_sign_report(1.0, 0), "n must be at least 1, got 0"),
], ids=["grid_n-float", "grid_n-1", "sample_count-float", "sample_count-0", "n-float", "n-0"])
def test_integer_arguments_are_checked_by_name(call, message):
    # 2.5 built an IMParams that failed only in grid(), and 0 and 2.5 met
    # numpy errors in linspace or in a reduction over no margins
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("field", ["theta", "quad_tol"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
def test_positive_parameters_are_checked_by_name(field, value):
    with pytest.raises(ValueError) as info:
        IMParams(**{field: value})
    assert str(info.value) == f"{field} must be finite and positive, got {value}"


def test_integer_arguments_are_stored_as_ints():
    assert type(IMParams(grid_n=np.int64(5)).grid_n) is int
    assert im_pair_check(1.0, np.int64(3)).inputs_digest["samples"] == 3
    assert beta_sign_report(1.0, np.int32(1)).inputs_digest["n"] == 1


def test_im_pair_check_positive_sums():
    rep = im_pair_check(theta=1.0, sample_count=50)
    assert rep.holds
    assert rep.rhs > 0.0
    assert rep.inputs_digest["samples"] == 50


def _bisect_level(c, theta, positive, tol):
    # _bisect_levels on a batch of one level
    return float(imfunc._bisect_levels(np.array([c]), theta, positive, tol)[0])


def test_level_crossing_outside_range_raises():
    with pytest.raises(RuntimeError):
        _bisect_level(0.9, 1.0, True, 1e-12)
    # interior levels bracket two points with g(t) = c on opposite slopes
    t_neg = _bisect_level(0.25, 1.0, False, 1e-12)
    t_pos = _bisect_level(0.25, 1.0, True, 1e-12)
    assert t_neg < t_pos
    assert g(t_neg) == pytest.approx(0.25, abs=1e-9)
    assert g(t_pos) == pytest.approx(0.25, abs=1e-9)


def _two_branch_bisect(c, theta, positive, tol, g=g):
    # the one-level bisection as it was, one mirrored loop per branch
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
    for c in np.linspace(0.01, 0.49, 100):
        got = _bisect_level(float(c), theta, positive, 1e-12)
        assert got == _two_branch_bisect(float(c), theta, positive, 1e-12)


def test_bisect_level_ties_keep_each_branch_rule(monkeypatch):
    # with g equal to the level everywhere, every midpoint is a tie: the
    # positive branch moves its outer end and the negative branch its
    # inner end, as the two-branch form did
    def flat(t, theta):
        return 0.25

    monkeypatch.setattr(imfunc, "_g_array", lambda t, theta: np.full(t.shape, 0.25))
    roots = [_bisect_level(0.25, 1.0, positive, 1e-3) for positive in (False, True)]
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


# Lockstep against the former scalar forms in imfunc_oracles, to the last bit.

def _counting_g_array(monkeypatch):
    evals = [0]
    g_array = imfunc._g_array

    def counted(y, theta):
        evals[0] += y.size
        return g_array(y, theta)

    monkeypatch.setattr(imfunc, "_g_array", counted)
    return evals


def _random_grids(theta, quad_tol, count=12):
    # ascending, with duplicate points, points at and below the cutoff L,
    # and a single point
    rng = np.random.default_rng(int(100 * theta))
    lo = imfunc.tail_cutoff(theta, quad_tol)
    grids = [np.array([0.0]), np.array([lo]), np.array([lo - 3.0, lo, 1.0, 1.0])]
    for _ in range(count):
        pts = rng.uniform(1.3 * lo, 40.0, rng.integers(1, 40))
        pts = np.concatenate([pts, pts[: rng.integers(0, 4)], [lo, 0.0]])
        grids.append(np.sort(pts))
    return grids


def _criterion_grids():
    xs = IMParams().grid()
    return [xs, 100.0 * xs]


@pytest.mark.parametrize("theta,quad_tol,grids", [
    (1.0, DEFAULT_QUAD_TOL, _criterion_grids()),
    (0.5, 1e-8, _random_grids(0.5, 1e-8)),
    (2.5, 1e-8, _random_grids(2.5, 1e-8)),
], ids=["criterion-8", "theta-0.5", "theta-2.5"])
def test_h_grid_is_the_recursion_bit_for_bit(monkeypatch, theta, quad_tol, grids):
    # the same values to the last bit from the recursion's integrand
    # evaluations, less one at each node two running segments share
    evals = _counting_g_array(monkeypatch)
    lo = tail_cutoff(theta, quad_tol)
    for xs in grids:
        evals[0] = 0
        got = h_grid(xs, theta, quad_tol)
        ref, ref_evals = reference_h_grid(xs, theta, quad_tol)
        assert got.tobytes() == ref.tobytes()
        runs = np.count_nonzero(np.diff(np.concatenate(([lo], xs[xs > lo]))) > 0)
        assert evals[0] == ref_evals - max(runs - 1, 0)


@pytest.mark.parametrize("theta,quad_tol", [(1.0, DEFAULT_QUAD_TOL), (0.5, 1e-8), (2.5, 1e-8)])
def test_h_grids_is_h_grid_on_each_grid(monkeypatch, theta, quad_tol):
    # one quadrature over mixed grids: [0.0], grids at or below L, duplicate
    # points, 1-point grids and both criterion grids, each to the last bit;
    # grids at or below L cost no evaluation
    lo = tail_cutoff(theta, quad_tol)
    grids = [[0.0], *_criterion_grids(), [lo - 5.0, lo], [-np.inf], [3.0, 3.0, 3.0],
             *_random_grids(theta, quad_tol, 4)]
    got = imfunc._h_grids(grids, theta, quad_tol)
    assert len(got) == len(grids)
    for xs, hx in zip(grids, got):
        assert hx.tobytes() == h_grid(xs, theta, quad_tol).tobytes()
    evals = _counting_g_array(monkeypatch)
    assert [hx.tolist() for hx in imfunc._h_grids([[lo], [-1e9, lo]], theta, quad_tol)] == [
        [0.0], [0.0, 0.0]]
    assert evals[0] == 0


def test_unreachable_tolerance_is_a_plain_value_error():
    # bad input, as README's library contract says: no subclass to catch
    for call in (lambda: h(0.0, quad_tol=1e-30), lambda: h_grid([0.0, 1e200])):
        with pytest.raises(ValueError, match="of its Simpson estimate$") as info:
            call()
        assert type(info.value) is ValueError


def _first_grid_failure(grids, quad_tol):
    # the error of the former loop of h_grid calls, one per grid
    for xs in grids:
        try:
            h_grid(xs, 1.0, quad_tol)
        except ValueError as exc:
            return str(exc)
    return None


def test_h_grids_fails_where_the_per_grid_loop_fails_first():
    # the first grid's failure is the error, even when a later grid, with
    # its own smaller budget, fails fewer halvings down (at 1e-15, [0.0]
    # fails six halvings down, deep three and wide two)
    deep = [-50.0, -20.0, 0.0, 0.0, 3.0, 40.0, 400.0, 4000.0]
    wide = np.linspace(-60.0, 4000.0, 4000)
    seen = set()
    for quad_tol in (1e-13, 1e-14, 3e-15, 1e-15, 1e-16, 1e-30):
        for grids in ([[0.0], deep, wide], [wide, deep], [deep, [0.0, 1e200]], [[1.0], deep]):
            ref = _first_grid_failure(grids, quad_tol)
            if ref is None:
                got = imfunc._h_grids(grids, 1.0, quad_tol)
                assert [hx.tobytes() for hx in got] == [
                    h_grid(xs, 1.0, quad_tol).tobytes() for xs in grids]
                continue
            with pytest.raises(ValueError) as info:
                imfunc._h_grids(grids, 1.0, quad_tol)
            assert str(info.value) == ref
            seen.add(ref)
    assert len(seen) > 2


def test_h_grid_fails_where_the_recursion_fails_first():
    # the first failing panel from the left: at 1e-14 and 3e-15 a later
    # segment fails at once, at 1e-15 that happens too, but a panel of an
    # earlier segment fails four halvings down and is the error
    xs = np.array([-50.0, -20.0, 0.0, 0.0, 3.0, 40.0, 400.0, 4000.0])
    seen = set()
    for quad_tol in (1e-13, 3e-14, 1e-14, 3e-15, 1e-15, 1e-16, 1e-17, 1e-30):
        try:
            reference_h_grid(xs, 1.0, quad_tol)
        except ValueError as exc:
            ref = str(exc)
        else:
            ref = None
        if ref is None:
            continue
        with pytest.raises(ValueError) as info:
            h_grid(xs, 1.0, quad_tol)
        assert str(info.value) == ref
        seen.add(ref.split(" on [")[1].split(",")[0])
    # failures in more than one segment
    assert len(seen) > 1


@pytest.mark.parametrize("xs", [[float("nan")], [0.0, float("nan"), 1.0], [float("inf")]])
def test_h_grid_non_finite_points_fail_as_the_recursion(xs):
    # h_grid rejects such a point before any quadrature; on the segments it
    # would make, the panel engine still fails as the recursion does, a nan
    # point at the depth limit along one path, not on 2**60 panels
    with pytest.raises(ValueError, match="grid points must be finite or -inf"):
        h_grid(xs)
    with pytest.raises(ValueError) as ref:
        reference_h_grid(xs)
    starts, ends = np.array([tail_cutoff(), *xs[:-1]]), np.array(xs)
    gs = lambda y: imfunc._g_array(y, imfunc.DEFAULT_THETA)
    with pytest.raises(ValueError) as got:
        imfunc._simpson_panels(gs, starts, ends, 0.5 * DEFAULT_QUAD_TOL / len(xs))
    assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("f,a,b,tol", [
    (math.sin, 0.0, 10.0, 1e-11),
    (lambda t: 1.0 / (1.0 + t * t), 0.0, 40.0, 1e-11),
    (math.sqrt, 0.0, 2.0, 1e-10),
    (math.sqrt, 0.0, 2.0, 1e-14),
    (abs, -1.0, 2.0, 1e-300),
    (math.exp, 0.0, 1.0, float("nan")),
], ids=["sin", "lorentz", "sqrt", "sqrt-depth", "abs-roundoff", "nan-tol"])
def test_adaptive_simpson_is_the_recursion(f, a, b, tol):
    try:
        ref = recursive_simpson(f, a, b, tol)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            _one_panel(f, a, b, tol)
        assert str(info.value) == str(exc)
    else:
        assert _one_panel(f, a, b, tol) == ref


@pytest.mark.parametrize("theta", [0.5, 1.0, 3.0])
def test_lockstep_roots_are_the_scalar_bisection(theta):
    levels = np.linspace(0.01, 0.49, 100)
    for positive in (False, True):
        got = imfunc._bisect_levels(levels, theta, positive, 1e-12).tolist()
        assert got == [scalar_bisect(c, theta, positive, 1e-12) for c in levels.tolist()]
    rep = im_pair_check(theta, 100)
    sums = [scalar_g_prime(scalar_bisect(c, theta, False, 1e-12), theta)
            + scalar_g_prime(scalar_bisect(c, theta, True, 1e-12), theta) for c in levels.tolist()]
    assert rep.rhs == min(sums)
    assert rep.inputs_digest["worst_level"] == levels.tolist()[sums.index(min(sums))]


def test_im_pair_check_reports_the_first_level_of_a_tie(monkeypatch):
    # as the former loop, which replaced its worst sum only by a smaller one
    monkeypatch.setattr(imfunc, "g_prime", lambda t, theta: np.zeros_like(t))
    rep = im_pair_check(1.0, 5)
    assert rep.rhs == 0.0 and rep.inputs_digest["worst_level"] == 0.01


def test_bisect_levels_reject_what_the_scalar_loop_rejects():
    for c in (0.0, 0.5, 0.9, float("nan")):
        with pytest.raises(RuntimeError) as ref:
            scalar_bisect(c, 1.0, True, 1e-12)
        with pytest.raises(RuntimeError) as got:
            imfunc._bisect_levels(np.array([0.25, c]), 1.0, True, 1e-12)
        assert str(got.value) == str(ref.value)
    # g that does not fall to the level by |t| = 1e12 leaves no bracket
    for positive in (False, True):
        with pytest.raises(RuntimeError) as ref:
            scalar_bisect(1e-7, 1e-15, positive, 1e-12)
        with pytest.raises(RuntimeError) as got:
            imfunc._bisect_levels(np.array([0.25, 1e-7, 2e-7]), 1e-15, positive, 1e-12)
        assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.5, 1e3])
def test_g_array_is_g_scalar_bit_for_bit(theta):
    # on spread points; below -700/theta the exp argument is clipped, above
    # |u| = 1e150 the square root branch applies, and at +-0.0
    rng = np.random.default_rng(7)
    ys = np.concatenate([
        rng.uniform(-80.0, 80.0, 3000), rng.standard_normal(3000),
        -np.geomspace(700.0 / theta, 1e6, 200), -np.geomspace(1e3, 1e300, 50),
        np.geomspace(1e149, 1e308, 200), -np.geomspace(1e149, 1e300, 50),
        [0.0, -0.0, np.inf, -np.inf],
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = imfunc._g_array(ys, theta)
    ref = np.array([imfunc._g_scalar(y, theta) for y in ys.tolist()])
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.5])
def test_g_array_is_w_at_alpha_y_y(theta):
    # the integrand takes no power of its own: it is w at (1 + e) y, with e
    # numpy's exp of the clipped -theta y, bit for bit
    rng = np.random.default_rng(29)
    ys = np.concatenate([rng.normal(scale=20.0, size=4000), rng.uniform(-800.0, 800.0, 4000),
                         np.geomspace(1e140, 1e160, 100), -np.geomspace(1e2, 1e200, 100)])
    e = np.exp(np.minimum(-theta * ys, imfunc._EXP_CLIP))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # (1 + e) y overflows to -inf far left
        want = w((1.0 + e) * ys)
    assert imfunc._g_array(ys, theta).tobytes() == want.tobytes()


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.5])
def test_g_array_skips_exp_only_where_it_changes_nothing(theta):
    # _g_array takes exp at every point; around t = -theta y = -37, to the
    # last bit, it is w((1 + exp(t)) y), and where t <= -37, where 1 + exp(t)
    # rounds to 1.0, it is w(y): leaving exp out there would change nothing;
    # at +-inf and nan it gives 0 and nan without a warning
    at = 37.0 / theta
    ys = np.concatenate([
        np.linspace(36.0, 38.0, 4001) / theta, at + np.spacing(at) * np.arange(-25, 26),
        [np.inf, -np.inf, np.nan, -np.nan],
    ])
    t = np.minimum(-theta * ys, imfunc._EXP_CLIP)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = imfunc._g_array(ys, theta)
        far = t <= -37.0
        assert far.sum() > 2000 and got[far].tobytes() == w(ys[far]).tobytes()
        assert got.tobytes() == w((1.0 + np.exp(t)) * ys).tobytes()
    assert np.isnan(got[-2:]).all() and got[-4] == 0.0


@pytest.mark.parametrize("theta", [1.0, 2.5])
def test_g_prime_is_one_form_at_every_shape(theta):
    # on an array g_prime gives each point's 0-d value, to the last bit:
    # at criterion 8's roots, spread points, below -700/theta where the exp
    # argument is clipped, at |u| > 1e100 where w' is 0.0, and at +-0, +-inf
    levels = np.linspace(0.01, 0.49, 100)
    rng = np.random.default_rng(11)
    ys = np.concatenate([
        imfunc._bisect_levels(levels, theta, False, 1e-12),
        imfunc._bisect_levels(levels, theta, True, 1e-12),
        rng.uniform(-80.0, 80.0, 3000), rng.standard_normal(3000),
        -np.geomspace(700.0 / theta, 1e6, 200), np.geomspace(1e99, 1e308, 200),
        -np.geomspace(1e99, 1e308, 200), [0.0, -0.0, np.inf, -np.inf],
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the 0-d oracle may warn at +-inf
        ref = np.array([scalar_g_prime(y, theta) for y in ys.tolist()])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = g_prime(ys, theta)
        alone = np.array([g_prime(y, theta) for y in ys.tolist()])
    assert got.tobytes() == ref.tobytes() == alone.tobytes()
    assert g_prime(ys.reshape(-1, 4), theta).tobytes() == ref.tobytes()


POINTWISE = [w, w_prime, alpha, beta, g, g_prime, sqrt_plus]


def _spread_points():
    # seeded points, the w' and g cutoffs |x| = 1e100 and 1e150 met and
    # passed, +-inf and +-0
    rng = np.random.default_rng(1)
    edges = [1.1e100, -1.1e100, 1e150, -1e150,
             1e151, -1e151, 1e200, -1e200, np.inf, -np.inf, 0.0, -0.0]
    return np.concatenate([rng.normal(scale=5.0, size=3000), rng.uniform(-80.0, 80.0, 988), edges])


@pytest.mark.parametrize("f", POINTWISE, ids=lambda f: f.__name__)
def test_pointwise_functions_give_one_float_at_every_shape(f):
    # a point gives its 0-d float alone, in a 1-d array, a 2-d one, a
    # strided view, a transposed view and a size-1 array, to the last bit,
    # and none of them warns
    xs = _spread_points()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        floats = [f(np.array(x)) for x in xs.tolist()]
        assert {type(y) for y in floats} == {float}
        alone = np.array(floats)
        assert f(xs).tobytes() == alone.tobytes()
        assert f(xs.reshape(-1, 8)).tobytes() == alone.tobytes()
        assert f(xs[::3]).tobytes() == alone[::3].tobytes()
        assert f(xs.reshape(8, -1).T).tobytes() == alone.reshape(8, -1).T.tobytes()
        assert np.concatenate([f(xs[k:k + 1]) for k in range(xs.size)]).tobytes() == alone.tobytes()
    if f in (w, w_prime):  # a finite point past a cutoff keeps its nonzero tail
        tails = alone[np.isfinite(xs) & (np.abs(xs) > 1e100)]
        assert tails.size == 8 and np.all(tails != 0.0)
        assert w_prime(1.1e100) == -np.power(1.1e100, -1.5) / 4.0 == -w_prime(-1.1e100)
        x = 1e150  # the last point that takes the power
        assert w(1e200) == 0.5 / math.sqrt(1e200) and w(x) == 0.5 * np.power(x * x + 1.0, -0.25)


@pytest.mark.parametrize("theta", [1.0, 2.5])
def test_g_is_the_integrand_of_h(theta):
    xs = _spread_points()
    ref = np.array([imfunc._g_scalar(x, theta) for x in xs.tolist()])
    assert g(xs, theta).tobytes() == ref.tobytes()
    assert g(1e200, theta) == imfunc._g_scalar(1e200, theta) > 0.0


def test_no_comprehension_or_map_raises_to_a_power():
    # no map(pow in src/negmono, and no comprehension whose element raises
    # to a power: powers are taken on whole arrays, not one float at a time
    src = Path(imfunc.__file__).parent
    sites, comprehension_pows = [], []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        sites += [(path.name, k) for k, line in enumerate(text.splitlines(), 1) if "map(pow" in line]
        comprehension_pows += [
            (path.name, node.lineno) for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.ListComp, ast.GeneratorExp))
            and any(isinstance(op, ast.BinOp) and isinstance(op.op, ast.Pow)
                    for op in ast.walk(node.elt))]
    assert sites == []
    assert comprehension_pows == []


def test_no_runtime_warning_escapes(capsys):
    # u * u overflowing and 0.5 / sqrt(0) are never computed; inf and nan
    # arise only where the former float code made them, silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for theta, quad_tol in ((1.0, DEFAULT_QUAD_TOL), (2.5, 1e-8)):
            for xs in _criterion_grids() + _random_grids(theta, quad_tol, 3):
                h_grid(xs, theta, quad_tol)
        with pytest.raises(ValueError):
            h_grid([0.0, 1e200])
        for xs in ([float("inf")], [float("nan")]):
            with pytest.raises(ValueError, match="grid points must be finite or -inf"):
                h_grid(xs)
        for theta in (0.5, 1.0, 3.0):
            im_pair_check(theta, 100)
        assert main(["im-approx"]) == 0
        assert main(["im-approx", "--theta", "2.5", "--quad-tol", "1e-8"]) == 0
    capsys.readouterr()
