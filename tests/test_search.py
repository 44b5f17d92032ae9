import numpy as np
import pytest

from negmono.monogamy import ineq4_report
from negmono.qstate import TripartiteState
from negmono.search import (
    CHUNK,
    NOISE_BLOCK,
    SearchConfig,
    SearchResult,
    deserialize_instance,
    evaluate_slack,
    iter_trials,
    local_descend,
    random_instance,
    run_search,
    run_trial,
    serialize_instance,
)


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(target="nope", d=2)
    with pytest.raises(ValueError):
        SearchConfig(target="ineq4")  # needs dims
    with pytest.raises(ValueError):
        SearchConfig(target="ineqid")  # needs d
    with pytest.raises(ValueError):
        SearchConfig(target="ineqid", d=2, trials=0)
    with pytest.raises(ValueError):
        SearchConfig(target="ineqid", d=2, seed=-1)


def test_random_instance_deterministic_per_trial():
    cfg = SearchConfig(target="ineq4", dims=(2, 2, 2), seed=7)
    a = random_instance(cfg, 3)
    b = random_instance(cfg, 3)
    c = random_instance(cfg, 4)
    np.testing.assert_array_equal(a.coeffs, b.coeffs)
    assert np.abs(a.coeffs - c.coeffs).max() > 0


def test_random_instance_kinds():
    s = random_instance(SearchConfig(target="ineq4", dims=(2, 3, 3), seed=0), 0)
    assert isinstance(s, TripartiteState) and s.dims == (2, 3, 3)
    b = random_instance(SearchConfig(target="ineqid", d=4, seed=0), 0)
    assert b.shape == (4, 4) and np.iscomplexobj(b)
    mu, pi = random_instance(SearchConfig(target="commutative", d=5, seed=0), 0)
    assert mu.shape == (5,) and sorted(pi) == [1, 2, 3, 4, 5]
    assert np.all(np.diff(mu) <= 0) and np.all(mu >= 0)
    assert np.sum(mu) == pytest.approx(1.0, abs=1e-12)


def test_evaluate_slack_matches_reports():
    cfg = SearchConfig(target="ineq4", dims=(2, 2, 2), seed=1)
    s = random_instance(cfg, 0)
    assert evaluate_slack("ineq4", s) == pytest.approx(
        ineq4_report(list(s.coeffs)).slack, abs=1e-14
    )


def test_serialize_roundtrip_all_kinds():
    for cfg in (
        SearchConfig(target="ineq4", dims=(2, 2, 3), seed=2),
        SearchConfig(target="ineqid1", d=3, seed=2),
        SearchConfig(target="commutative", d=4, seed=2),
    ):
        inst = random_instance(cfg, 5)
        blob = serialize_instance(cfg.target, inst)
        back = deserialize_instance(blob)
        assert evaluate_slack(cfg.target, back) == pytest.approx(
            evaluate_slack(cfg.target, inst), abs=1e-14
        )


def test_local_descend_never_increases_slack():
    cfg = SearchConfig(target="ineqid2", d=3, seed=3)
    inst = random_instance(cfg, 0)
    start = evaluate_slack("ineqid2", inst)
    best_inst, best = local_descend(inst, "ineqid2", steps=30, scale=0.3, seed=11)
    assert best <= start + 1e-15
    assert evaluate_slack("ineqid2", best_inst) == pytest.approx(best, abs=1e-14)


def test_run_trial_deterministic():
    cfg = SearchConfig(target="ineqid", d=3, trials=10, seed=5)
    assert run_trial(cfg, 4) == run_trial(cfg, 4)


def test_run_search_deterministic_and_replayable():
    cfg = SearchConfig(target="ineq4", dims=(2, 2, 2), trials=40, seed=0)
    r1 = run_search(cfg)
    r2 = run_search(cfg)
    assert r1 == r2
    replay = evaluate_slack("ineq4", deserialize_instance(r1.argmin))
    assert replay == pytest.approx(r1.min_slack, abs=1e-12)
    assert 0 <= r1.trial_index < cfg.trials


@pytest.mark.parametrize(
    "target,kw",
    [
        ("ineqid", dict(d=3)),
        ("ineqid1", dict(d=3)),
        ("ineqid2", dict(d=3)),
        ("commutative", dict(d=6)),
    ],
)
def test_proven_targets_have_no_violations(target, kw):
    cfg = SearchConfig(target=target, trials=60, seed=9, **kw)
    res = run_search(cfg)
    assert res.violations == 0
    assert res.min_slack >= -cfg.tol


def test_parallel_merge_matches_serial():
    cfg = SearchConfig(target="ineq4", dims=(2, 2, 2), trials=30, seed=4)
    assert run_search(cfg, jobs=1) == run_search(cfg, jobs=2)


def _scalar_descent_slacks(cfg):
    slacks = []
    for t in range(cfg.trials):
        descent_seed = np.random.SeedSequence(entropy=(cfg.seed, t)).spawn(2)[1]
        _, slack = local_descend(
            random_instance(cfg, t), cfg.target, cfg.local_steps, cfg.step_scale, descent_seed
        )
        slacks.append(slack)
    return slacks


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 3)])
def test_lockstep_matches_scalar_descent(dims):
    cfg = SearchConfig(target="ineq4", dims=dims, trials=150, seed=0)
    assert 2 * CHUNK < cfg.trials < 3 * CHUNK  # two full chunks and a partial one
    lockstep = [slack for _, slack, _ in iter_trials(cfg)]
    scalar = _scalar_descent_slacks(cfg)
    np.testing.assert_allclose(lockstep, scalar, rtol=0, atol=1e-12)
    assert np.argmin(lockstep) == np.argmin(scalar)


def test_lockstep_long_descent_matches_scalar_descent():
    # several noise blocks, and enough rejections to halve the scale
    cfg = SearchConfig(target="ineq4", dims=(3, 2, 2), trials=8, local_steps=75, seed=2)
    assert cfg.local_steps > 2 * NOISE_BLOCK
    lockstep = [slack for _, slack, _ in iter_trials(cfg)]
    np.testing.assert_allclose(lockstep, _scalar_descent_slacks(cfg), rtol=0, atol=1e-12)


def test_lockstep_keeps_the_start_state_on_ties():
    # every 1x1x1 state has slack exactly 0, so no proposal is strictly better
    cfg = SearchConfig(target="ineq4", dims=(1, 1, 1), trials=3, seed=0)
    for t, slack, best in iter_trials(cfg):
        assert slack == 0.0
        np.testing.assert_array_equal(best.coeffs, random_instance(cfg, t).coeffs)


def test_parallel_merge_matches_serial_across_chunks():
    cfg = SearchConfig(target="ineq4", dims=(2, 3, 3), trials=150, seed=4)
    assert cfg.trials > 2 * CHUNK
    assert run_search(cfg, jobs=1) == run_search(cfg, jobs=2)


def test_lockstep_rejects_non_finite_candidates():
    cfg = SearchConfig(target="ineq4", dims=(2, 2, 2), trials=3, step_scale=np.inf)
    with pytest.raises(ValueError, match="finite"):
        run_search(cfg)


def test_result_to_dict():
    cfg = SearchConfig(target="ineqid", d=2, trials=5, seed=6)
    res = run_search(cfg)
    d = res.to_dict()
    assert set(d) == {"min_slack", "argmin", "trial_index", "violations"}
    assert isinstance(res, SearchResult)
