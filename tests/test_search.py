import math
import tracemalloc

import numpy as np
import pytest

from negmono import matcore, permlemma, qstate, search
from negmono.matcore import TAU_CHECK, complex_gaussian
from negmono.monogamy import ineq4_report
from negmono.permlemma import check_commutative
from negmono.qstate import TripartiteState
from negmono.search import (
    NOISE_BLOCK,
    STALL_LIMIT,
    SearchConfig,
    SearchResult,
    deserialize_instance,
    _descend,
    evaluate_slack,
    local_descend,
    run_search,
    run_trial,
    serialize_instance,
)
from negmono.specialcase import _check, check_ineqid, check_ineqid2

# One configuration per proven target, at the sizes the pins below use.
PROVEN = {
    "ineqid": dict(d=4),
    "ineqid1": dict(d=4),
    "ineqid2": dict(d=4),
    "commutative": dict(d=6),
}
ALL_TARGETS = {"ineq4": dict(dims=(2, 3, 3)), **PROVEN}

# Seed-0 results of 1000 trials with the default descent, measured with the
# scalar descent the lockstep engine replaced.
PINNED = {
    "ineqid": (1.2914300096788445, 361),
    "ineqid1": (0.46874629544948343, 915),
    "ineqid2": (0.30902166420970545, 3),
    "commutative": (0.0009183474912108913, 668),
}


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
    # only built: a search at the cap would run for weeks
    assert SearchConfig(target="ineqid", d=2, trials=2**32, seed=2**96).trials == search.MAX_TRIALS
    with pytest.raises(ValueError, match="at most 2\\*\\*32"):
        SearchConfig(target="ineqid", d=2, trials=2**32 + 1)


@pytest.mark.parametrize("field, config", [
    ("dims", dict(target="ineq4", dims=(2.5, 2, 2))),
    ("trials", dict(target="ineq4", dims=(2, 2, 2), trials=2.5)),
    ("local_steps", dict(target="ineqid", d=2, local_steps=1.5)),
    ("seed", dict(target="ineqid", d=2, seed=1.0)),
    ("d", dict(target="ineqid", d=2.0)),
])
def test_config_rejects_float_integer_fields(field, config):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        SearchConfig(**config)


@pytest.mark.parametrize("config, message", [
    (dict(target="ineqid", d=2, trials=0), "trials must be at least 1, got 0"),
    (dict(target="ineqid", d=2, local_steps=-1), "local_steps must be at least 0, got -1"),
    (dict(target="ineqid", d=2, seed=-1), "seed must be at least 0, got -1"),
    (dict(target="ineqid", d=0), "d must be at least 1, got 0"),
    (dict(target="ineqid", d=2, step_scale=0.0), "step_scale must be finite and positive, got 0.0"),
    (dict(target="ineq4", dims=(-2, -2, 1)), "dims must be at least 1, got -2"),
    (dict(target="ineq4", dims=(2, 2)), "dims must be three sizes (dA, dB, dC), got (2, 2)"),
], ids=["trials", "local_steps", "seed", "d", "step_scale", "dims-negative", "dims-two"])
def test_config_range_errors_name_the_field(config, message):
    with pytest.raises(ValueError) as info:
        SearchConfig(**config)
    assert str(info.value) == message


def test_fractional_pi_of_a_replayed_instance_is_rejected():
    # int() truncated the entries: this replayed as (2, 1, 3) with slack 1.3;
    # the record is now rejected as it is read, as a hand-built pair is
    bad = r"^permutation entry must be an integer, got 2\.9$"
    with pytest.raises(ValueError, match=bad):
        deserialize_instance({"kind": "mu_pi", "mu": [0.5, 0.3, 0.2], "pi": [2.9, 1.1, 3.0]})
    with pytest.raises(ValueError, match=bad):
        evaluate_slack("commutative", (np.array([0.5, 0.3, 0.2]), (2.9, 1.1, 3.0)))


NOT_MU_PI = "mu_pi JSON mu must be a list of finite numbers, and pi a list"


@pytest.mark.parametrize("record, message", [
    ({}, "mu_pi JSON lacks the key(s) mu, pi"),
    ({"mu": [1.0]}, "mu_pi JSON lacks the key(s) pi"),
    ({"mu": [1.5, 0.5], "pi": [1.5, 2]}, "permutation entry must be an integer, got 1.5"),
    ({"mu": [0.5], "pi": [True]}, "permutation entry must be an integer, got True"),
    ({"mu": [0.5], "pi": 1}, NOT_MU_PI),
    ({"mu": 0.5, "pi": [1]}, NOT_MU_PI),
    ({"mu": ["0.5"], "pi": [1]}, NOT_MU_PI),
    ({"mu": [True], "pi": [1]}, NOT_MU_PI),
    ({"mu": [math.nan], "pi": [1]}, NOT_MU_PI),
    ({"mu": [-math.inf], "pi": [1]}, NOT_MU_PI),
    ({"mu": [10**400], "pi": [1]}, NOT_MU_PI),
], ids=["no-keys", "no-pi", "fractional-pi", "bool-pi", "pi-not-list", "mu-not-list", "mu-string",
        "mu-bool", "mu-nan", "mu-inf", "mu-huge-int"])
def test_mu_pi_records_are_checked_as_they_are_read(record, message):
    # {"kind": "mu_pi"} raised KeyError: 'mu', and "pi": [1.5, 2] came back
    # as (1.5, 2)
    with pytest.raises(ValueError) as info:
        deserialize_instance({"kind": "mu_pi", **record})
    assert str(info.value) == message


@pytest.mark.parametrize("record, message", [
    ([1], "instance JSON must be an object, got list"),
    (None, "instance JSON must be an object, got NoneType"),
    ({"mu": [1.0], "pi": [1]}, "instance JSON lacks the key(s) kind"),
    ({"kind": "spectrum"}, "unknown instance kind 'spectrum'"),
])
def test_instance_records_must_name_a_known_kind(record, message):
    # a record that is not an object raised AttributeError from obj.get
    with pytest.raises(ValueError) as info:
        deserialize_instance(record)
    assert str(info.value) == message


def test_mu_pi_records_read_back_as_numbers():
    mu, pi = deserialize_instance({"kind": "mu_pi", "mu": [1, 0.5, 0], "pi": [np.int64(2), 3, 1]})
    assert mu.dtype == float and mu.tolist() == [1.0, 0.5, 0.0]
    assert pi == (2, 3, 1) and all(type(i) is int for i in pi)


def test_config_stores_numpy_integers_as_python_ints():
    # a numpy seed once reached the seed words and failed there
    cfg = SearchConfig(target="ineq4", dims=(np.int64(2), 2, 2), trials=np.int32(20),
                       local_steps=np.uint8(3), seed=np.uint32(5))
    plain = SearchConfig(target="ineq4", dims=(2, 2, 2), trials=20, local_steps=3, seed=5)
    assert cfg == plain
    assert all(type(v) is int for v in (*cfg.dims, cfg.trials, cfg.local_steps, cfg.seed))
    assert run_search(cfg) == run_search(plain)
    assert type(SearchConfig(target="ineqid", d=np.int16(3)).d) is int


def _drawn_start(cfg, t):
    # trial t's start instance, drawn from its own stream as run_search draws it
    x, perms = search._sample(cfg, search._generators(cfg.seed, [t])[0])
    return search._instance(cfg.target, x, perms, 0)


def test_random_instance_deterministic_per_trial():
    cfg = SearchConfig(target="ineq4", dims=(2, 2, 2), seed=7)
    a = _drawn_start(cfg, 3)
    b = _drawn_start(cfg, 3)
    c = _drawn_start(cfg, 4)
    np.testing.assert_array_equal(a.coeffs, b.coeffs)
    assert np.abs(a.coeffs - c.coeffs).max() > 0


def test_seed_words_are_the_spawned_children():
    # seeds of one to four 32-bit words, trial indices up to the last one below the cap
    trials = [0, 1, 127, 128, 10**6, 2**32 - 1]
    for seed in (0, 11, 2**32 - 1, 2**32, 2**64 + 5, 2**96):
        words = search._seed_words(seed, trials)
        generators = search._generators(seed, trials)
        for i, t in enumerate(trials):
            spawned = np.random.SeedSequence((seed, t)).spawn(2)
            for k in (0, 1):
                child = np.random.SeedSequence((seed, t), spawn_key=(k,))
                np.testing.assert_array_equal(words[k, i], child.generate_state(4, np.uint64))
                np.testing.assert_array_equal(
                    generators[k][i].standard_normal(64),
                    np.random.default_rng(spawned[k]).standard_normal(64))
    for t in (-1, 2**32):
        with pytest.raises(ValueError, match="trial indices"):
            search._generators(0, [t])


@pytest.mark.parametrize("target", list(ALL_TARGETS))
def test_sampled_starts_are_single_draws(target):
    # a chunk's stack of starts is, row by row, the start each stream draws alone
    cfg = SearchConfig(target=target, seed=5, **ALL_TARGETS[target])
    trials = range(3, 12)
    x, perms = search._sample(cfg, search._generators(cfg.seed, trials)[0])
    assert (perms is None) == (target != "commutative")
    for k, t in enumerate(trials):
        want = _reference_start(cfg, np.random.SeedSequence((cfg.seed, t)).spawn(2)[0])
        got = _drawn_start(cfg, t)
        if target == "ineq4":
            want, got = want.coeffs, got.coeffs
        elif target == "commutative":
            assert tuple(int(i) + 1 for i in perms[k]) == got[1] == want[1]
            got, want = got[0], want[0]
        np.testing.assert_array_equal(x[k], want)
        np.testing.assert_array_equal(got, want)


def test_search_builds_no_seed_sequence(monkeypatch):
    # a chunk seeds its streams from precomputed words, not per trial
    built = []

    class CountingSeedSequence(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
    cfg = SearchConfig(target="ineq4", dims=(2, 2, 2), trials=300, local_steps=3, seed=0)
    assert _chunk_count(cfg.trials) == 2
    run_search(cfg)
    assert built == []
    np.random.SeedSequence((0, 1))  # the counter sees a construction
    assert built == [((0, 1),)]


def test_random_instance_kinds():
    s = _drawn_start(SearchConfig(target="ineq4", dims=(2, 3, 3), seed=0), 0)
    assert isinstance(s, TripartiteState) and s.dims == (2, 3, 3)
    b = _drawn_start(SearchConfig(target="ineqid", d=4, seed=0), 0)
    assert b.shape == (4, 4) and np.iscomplexobj(b)
    mu, pi = _drawn_start(SearchConfig(target="commutative", d=5, seed=0), 0)
    assert mu.shape == (5,) and sorted(pi) == [1, 2, 3, 4, 5]
    assert np.all(np.diff(mu) <= 0) and np.all(mu >= 0)
    assert np.sum(mu) == pytest.approx(1.0, abs=1e-12)


def test_evaluate_slack_matches_reports():
    cfg = SearchConfig(target="ineq4", dims=(2, 2, 2), seed=1)
    s = _drawn_start(cfg, 0)
    assert evaluate_slack("ineq4", s) == pytest.approx(
        ineq4_report(list(s.coeffs)).slack, abs=1e-14
    )


def test_serialize_roundtrip_all_kinds():
    for cfg in (
        SearchConfig(target="ineq4", dims=(2, 2, 3), seed=2),
        SearchConfig(target="ineqid1", d=3, seed=2),
        SearchConfig(target="commutative", d=4, seed=2),
    ):
        inst = _drawn_start(cfg, 5)
        blob = serialize_instance(cfg.target, inst)
        back = deserialize_instance(blob)
        assert evaluate_slack(cfg.target, back) == pytest.approx(
            evaluate_slack(cfg.target, inst), abs=1e-14
        )


def test_local_descend_never_increases_slack():
    cfg = SearchConfig(target="ineqid2", d=3, seed=3)
    inst = _drawn_start(cfg, 0)
    start = evaluate_slack("ineqid2", inst)
    best_inst, best = local_descend(inst, "ineqid2", steps=30, scale=0.3, seed=11)
    assert best <= start + 1e-15
    assert evaluate_slack("ineqid2", best_inst) == pytest.approx(best, abs=1e-14)


@pytest.mark.parametrize("target", list(ALL_TARGETS))
def test_local_descend_leaves_its_instance_unchanged(target):
    # the descent works on a copy of the start's stack, not on the instance
    cfg = SearchConfig(target=target, seed=4, **ALL_TARGETS[target])
    inst = _drawn_start(cfg, 0)
    before = serialize_instance(target, inst)
    best, _ = local_descend(inst, target, steps=30, scale=0.3, seed=1)
    assert serialize_instance(target, inst) == before
    assert serialize_instance(target, best) != before


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


# The scalar descent, one trial and one step at a time, kept as the
# reference of the lockstep engine: every step perturbs one instance and
# evaluates it through the public, validating reports.
def _reference_slack(target, instance):
    if target == "ineq4":
        return ineq4_report(list(instance.coeffs)).slack
    if target == "commutative":
        return check_commutative(*instance).slack
    if target == "ineqid1":
        return _check("ineqid1", instance, TAU_CHECK).slack
    return (check_ineqid if target == "ineqid" else check_ineqid2)(instance).slack


def _reference_perturb(target, instance, scale, rng):
    if target == "ineq4":
        c = instance.coeffs + scale * complex_gaussian(rng, instance.dims)
        if not np.any(c):
            return instance
        return TripartiteState(c, normalize=True)
    if target == "commutative":
        mu, pi = instance
        cand = np.clip(mu + scale * rng.standard_normal(mu.size), 0.0, None)
        total = cand.sum()
        if total == 0.0:
            return instance
        cand[::-1].sort()
        return cand / total, pi
    return instance + scale * complex_gaussian(rng, instance.shape)


def _reference_descend(instance, target, steps, scale, seed):
    """(best_instance, best_slack, final_scale): accept a perturbation only
    when it strictly decreases the slack, halve the scale after STALL_LIMIT
    consecutive rejections."""
    rng = np.random.default_rng(seed)
    best = instance
    best_slack = _reference_slack(target, instance)
    stalled = 0
    for _ in range(steps):
        cand = _reference_perturb(target, best, scale, rng)
        cand_slack = _reference_slack(target, cand)
        if cand_slack < best_slack:
            best, best_slack = cand, cand_slack
            stalled = 0
        else:
            stalled += 1
            if stalled >= STALL_LIMIT:
                scale *= 0.5
                stalled = 0
    return best, best_slack, scale


def _reference_start(cfg, seed):
    """The start of a trial drawn alone from default_rng(seed): a
    random_state, a complex_gaussian matrix, or an exponentially spaced
    spectrum, sorted and normalised, and then a uniform permutation."""
    rng = np.random.default_rng(seed)
    if cfg.target == "ineq4":
        return qstate.random_state(cfg.dims, rng)
    if cfg.target == "commutative":
        mu = np.exp(-search.MU_GAMMA * rng.random(cfg.d))
        mu[::-1].sort()
        mu /= mu.sum()
        return mu, tuple(int(i) + 1 for i in rng.permutation(cfg.d))
    return complex_gaussian(rng, (cfg.d, cfg.d))


def _scalar_descent(cfg):
    """[(slack, final_scale)] of every trial through the reference descent,
    from starts and descent streams seeded by the spawned children of
    SeedSequence((seed, t))."""
    out = []
    for t in range(cfg.trials):
        start_seed, descent_seed = np.random.SeedSequence(entropy=(cfg.seed, t)).spawn(2)
        _, slack, scale = _reference_descend(
            _reference_start(cfg, start_seed), cfg.target, cfg.local_steps, cfg.step_scale,
            descent_seed
        )
        out.append((slack, scale))
    return out


def _scalar_descent_slacks(cfg):
    return [slack for slack, _ in _scalar_descent(cfg)]


def _chunk_count(trials, parts=1):
    """The number of chunks run_search cuts a scan into for `parts` processes."""
    return sum(1 for _ in search._chunks(trials, parts))


def _trial_slacks(cfg, jobs=1):
    """The per-trial slacks of a search, in trial order."""
    slacks = []
    run_search(cfg, jobs, on_trial=lambda t, slack: slacks.append(slack))
    return slacks


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 3)])
def test_lockstep_matches_scalar_descent(monkeypatch, dims):
    monkeypatch.setattr(search, "CHUNK", 64)
    cfg = SearchConfig(target="ineq4", dims=dims, trials=150, seed=0)
    assert 2 * search.CHUNK < cfg.trials < 3 * search.CHUNK  # three chunks of 50
    lockstep = _trial_slacks(cfg)
    scalar = _scalar_descent_slacks(cfg)
    assert lockstep == scalar
    assert np.argmin(lockstep) == np.argmin(scalar)


def test_lockstep_long_descent_matches_scalar_descent():
    # several noise blocks, and enough rejections to halve the scale
    cfg = SearchConfig(target="ineq4", dims=(3, 2, 2), trials=8, local_steps=75, seed=2)
    assert cfg.local_steps > 2 * NOISE_BLOCK
    assert _trial_slacks(cfg) == _scalar_descent_slacks(cfg)


def test_lockstep_keeps_the_start_state_on_ties():
    # every 1x1x1 state has slack exactly 0, so no proposal is strictly better
    cfg = SearchConfig(target="ineq4", dims=(1, 1, 1), trials=3, seed=0)
    starts = np.stack([_drawn_start(cfg, t).coeffs for t in range(cfg.trials)])
    rngs = [np.random.default_rng(t) for t in range(cfg.trials)]
    rows, slacks = _descend("ineq4", starts, None, rngs, cfg.local_steps, cfg.step_scale)
    assert slacks.tolist() == [0.0] * cfg.trials
    np.testing.assert_array_equal(rows, starts)


def test_parallel_merge_matches_serial_across_chunks(monkeypatch):
    monkeypatch.setattr(search, "CHUNK", 64)
    cfg = SearchConfig(target="ineq4", dims=(2, 3, 3), trials=150, seed=4)
    assert cfg.trials > 2 * search.CHUNK
    assert _chunk_count(cfg.trials, 2) == 3
    assert run_search(cfg, jobs=1) == run_search(cfg, jobs=2)


def test_search_starts_no_more_workers_than_chunks(cpus, in_process_pool):
    sizes = in_process_pool
    cfg = SearchConfig(target="ineq4", dims=(2, 2, 2), trials=300, local_steps=3, seed=0)
    # capped by the CPUs of the affinity mask, then by the 3 chunks
    cpus(2)
    assert run_search(cfg, jobs=64) == run_search(cfg, jobs=1)
    assert sizes == [2]
    cpus(64)
    assert run_search(cfg, jobs=64) == run_search(cfg, jobs=1)
    assert sizes == [2, 3]
    one_chunk = SearchConfig(target="ineq4", dims=(2, 2, 2), trials=100, local_steps=3, seed=0)
    assert run_search(one_chunk, jobs=8) == run_search(one_chunk, jobs=1)
    assert sizes == [2, 3]


@pytest.mark.parametrize("parts", [*range(1, 9), 15, 16, 17, 31, 32, 33, 63, 64])
def test_chunks_cover_the_trials_in_balanced_ranges(parts):
    for trials in [*range(1, 600), *range(1000, 10_001, 997), 2047, 2048, 2049, 10_000]:
        chunks = list(search._chunks(trials, parts))
        assert chunks[0].start == 0 and chunks[-1].stop == trials
        assert all(a.stop == b.start for a, b in zip(chunks, chunks[1:]))
        lengths = [len(c) for c in chunks]
        assert max(lengths) <= search.CHUNK
        assert max(lengths) - min(lengths) <= 1
        assert len(chunks) >= min(parts, -(-trials // (search.CHUNK // 2)))
        if parts == 1:
            assert len(chunks) == -(-trials // search.CHUNK)


def test_chunks_are_made_lazily():
    # 2**24 chunks at the trial cap; the first arrives without the rest
    tracemalloc.start()
    try:
        chunks = search._chunks(search.MAX_TRIALS, 1)
        first = next(chunks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first == range(search.CHUNK)
    assert peak < 10_000


def _recorded_chunks(monkeypatch):
    """A list of the trial ranges that every later _run_trials call is given."""
    ranges = []
    run = search._run_trials

    def recording(cfg, trials):
        ranges.append(trials)
        return run(cfg, trials)

    monkeypatch.setattr(search, "_run_trials", recording)
    return ranges


def test_search_chunks_follow_the_workers_not_jobs(monkeypatch, cpus, in_process_pool):
    # --jobs 64 on 2 CPUs cuts the scan as --jobs 2 does, not into 64 slivers
    ranges = _recorded_chunks(monkeypatch)
    cpus(2)
    cfg = SearchConfig(target="ineq4", dims=(2, 2, 2), trials=1000, local_steps=3, seed=0)
    res = run_search(cfg, jobs=64)
    at_64 = list(ranges)
    ranges.clear()
    assert run_search(cfg, jobs=2) == res
    assert ranges == at_64 == [range(0, 250), range(250, 500), range(500, 750), range(750, 1000)]
    assert in_process_pool == [2, 2]


def test_search_of_250_trials_is_one_chunk_per_job(monkeypatch, cpus, in_process_pool):
    ranges = _recorded_chunks(monkeypatch)
    cpus(2)
    cfg = SearchConfig(target="ineq4", dims=(2, 2, 2), trials=250, local_steps=3, seed=0)
    res = run_search(cfg, jobs=1)
    assert ranges == [range(0, 250)] and in_process_pool == []
    ranges.clear()
    assert run_search(cfg, jobs=2) == res
    assert ranges == [range(0, 125), range(125, 250)] and in_process_pool == [2]


@pytest.mark.parametrize("trial_index,message", [
    (2.7, "must be an integer"), (True, "must be an integer"), (np.float64(3.0), "must be an integer"),
    (-1, "trial indices"), (2**32, "trial indices"),
])
def test_trial_index_is_checked(trial_index, message):
    # a float or bool index was truncated or read as trial 1
    cfg = SearchConfig(target="ineqid", d=2, trials=3, local_steps=2, seed=0)
    with pytest.raises(ValueError, match=message):
        run_trial(cfg, trial_index)


def test_numpy_trial_index_is_the_int():
    cfg = SearchConfig(target="ineqid", d=2, trials=3, local_steps=2, seed=0)
    assert run_trial(cfg, np.uint32(2)) == run_trial(cfg, 2)


@pytest.mark.parametrize("jobs,message", [
    (0, "must be at least 1, got 0"), (-3, "must be at least 1, got -3"),
    (2.5, "must be an integer, got 2.5"), (True, "must be an integer, got True"),
])
def test_run_search_checks_jobs(jobs, message):
    # these all ran serially without a word
    cfg = SearchConfig(target="ineqid", d=2, trials=3, local_steps=2, seed=0)
    with pytest.raises(ValueError, match=f"^jobs {message}$"):
        run_search(cfg, jobs=jobs)


def test_lockstep_rejects_non_finite_candidates():
    with pytest.raises(ValueError, match="step_scale"):
        SearchConfig(target="ineq4", dims=(2, 2, 2), trials=3, step_scale=np.inf)
    # a finite scale whose perturbations overflow stops at the in-loop guard
    cfg = SearchConfig(target="ineq4", dims=(2, 2, 2), trials=3, step_scale=1e200)
    with pytest.raises(ValueError, match="step_scale"):
        run_search(cfg)


@pytest.mark.parametrize("scale", [np.inf, -np.inf, np.nan, 0.0, -1.0])
def test_config_rejects_bad_step_scale(scale):
    with pytest.raises(ValueError, match="step_scale"):
        SearchConfig(target="ineqid", d=2, step_scale=scale)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf])
def test_config_rejects_non_finite_tol(tol):
    # a NaN tol counted no violation whatever the slacks, and -inf counted
    # every trial of a proven target
    with pytest.raises(ValueError, match=f"^tol must be finite, got {tol}$"):
        SearchConfig(target="ineqid", d=2, tol=tol)


@pytest.mark.parametrize("target", list(ALL_TARGETS))
def test_overflowing_step_scale_names_the_option(target):
    cfg = SearchConfig(target=target, trials=2, step_scale=1e308, seed=0, **ALL_TARGETS[target])
    with pytest.raises(ValueError, match="step_scale"):
        run_search(cfg)


@pytest.mark.parametrize("target", list(PROVEN))
def test_proven_lockstep_matches_scalar_descent(monkeypatch, target):
    monkeypatch.setattr(search, "CHUNK", 64)
    cfg = SearchConfig(target=target, trials=150, seed=0, **PROVEN[target])
    assert 2 * search.CHUNK < cfg.trials < 3 * search.CHUNK  # three chunks of 50
    lockstep = _trial_slacks(cfg)
    scalar = _scalar_descent_slacks(cfg)
    assert lockstep == scalar
    assert np.argmin(lockstep) == np.argmin(scalar)
    res = run_search(cfg)
    assert res.violations == sum(s < -cfg.tol for s in scalar)
    assert res.trial_index == np.argmin(scalar)


@pytest.mark.parametrize("target", list(ALL_TARGETS))
def test_lockstep_long_descent_halves_the_scale_as_scalar_descent(target):
    cfg = SearchConfig(target=target, trials=8, local_steps=75, seed=2, **ALL_TARGETS[target])
    assert cfg.local_steps > 2 * NOISE_BLOCK
    scalar = _scalar_descent(cfg)
    assert any(scale < cfg.step_scale for _, scale in scalar)
    assert _trial_slacks(cfg) == [slack for slack, _ in scalar]


@pytest.mark.parametrize("target", list(ALL_TARGETS))
def test_lockstep_output_does_not_depend_on_chunk(monkeypatch, target):
    cfg = SearchConfig(target=target, trials=20, seed=1, **ALL_TARGETS[target])
    outputs = []
    for chunk in (1, 7, 64, 128, 256):
        monkeypatch.setattr(search, "CHUNK", chunk)
        outputs.append((_trial_slacks(cfg), run_search(cfg)))
        outputs.append((outputs[0][0], run_search(cfg, jobs=2)))
    assert all(output == outputs[0] for output in outputs)


@pytest.mark.parametrize("target", list(ALL_TARGETS))
def test_lockstep_rows_do_not_depend_on_their_stack(target):
    # the descended instance of a start is the same alone and in a stack
    cfg = SearchConfig(target=target, trials=9, seed=6, **ALL_TARGETS[target])
    seeds = [np.random.SeedSequence(entropy=(cfg.seed, t)).spawn(2) for t in range(cfg.trials)]
    x, perms = search._sample(cfg, [np.random.default_rng(s) for s, _ in seeds])

    def descend(ks):
        ks = list(ks)
        return _descend(target, x[ks], None if perms is None else perms[ks],
                        [np.random.default_rng(seeds[k][1]) for k in ks], 30, cfg.step_scale)

    rows, slacks = descend(range(cfg.trials))
    for k in range(cfg.trials):
        row, slack = descend([k])
        np.testing.assert_array_equal(row[0], rows[k])
        assert slack[0] == slacks[k]


@pytest.mark.parametrize("target", list(PROVEN))
def test_proven_parallel_merge_matches_serial(target):
    cfg = SearchConfig(target=target, trials=150, seed=4, **PROVEN[target])
    assert run_search(cfg, jobs=1) == run_search(cfg, jobs=2)


@pytest.mark.parametrize("target", list(PROVEN))
def test_proven_targets_pinned_at_seed_0(target):
    res = run_search(SearchConfig(target=target, trials=1000, seed=0, **PROVEN[target]))
    ref_slack, ref_trial = PINNED[target]
    assert abs(res.min_slack - ref_slack) <= 1e-12 + 1e-9 * abs(ref_slack)
    assert res.trial_index == ref_trial
    assert res.violations == 0


@pytest.mark.parametrize("target", list(ALL_TARGETS))
def test_evaluate_slack_matches_public_checks(target):
    cfg = SearchConfig(target=target, seed=3, **ALL_TARGETS[target])
    for t in range(5):
        inst = _drawn_start(cfg, t)
        assert evaluate_slack(target, inst) == _reference_slack(target, inst)


# The call that evaluates the batched slack of each target once: the ineq4
# kernel, the commutative kernel, or the eigvalsh calls of Z and Delta.
KERNEL_CALLS = {
    "ineq4": ("ineq4_batch", 1),
    "ineqid": ("eigvalsh", 1),
    "ineqid1": ("eigvalsh", 2),
    "ineqid2": ("eigvalsh", 1),
    "commutative": ("_commutative_sides", 1),
}


@pytest.mark.parametrize("target", list(ALL_TARGETS))
def test_lockstep_counts_one_slack_evaluation_per_step(call_counts, target):
    counts, count = call_counts
    name, per_eval = KERNEL_CALLS[target]
    count(np.linalg if name == "eigvalsh" else search, name)
    for name in ("require_hermitian", "make_report", "hermitian_eigenvalues"):
        count(matcore, name)
    cfg = SearchConfig(target=target, trials=150, local_steps=10, seed=0, **ALL_TARGETS[target])
    run_search(cfg)
    chunks = _chunk_count(cfg.trials)
    assert counts == {KERNEL_CALLS[target][0]: per_eval * chunks * (cfg.local_steps + 1),
                      "require_hermitian": 0, "make_report": 0, "hermitian_eigenvalues": 0}


def test_ineq4_descent_settles_through_unit_states(call_counts):
    # the chunk's starts, then every step's candidates, are normalised by
    # the one qstate kernel
    counts, count = call_counts
    count(qstate, "_unit_states")
    cfg = SearchConfig(target="ineq4", dims=(2, 3, 3), trials=150, local_steps=10, seed=0)
    run_search(cfg)
    chunks = _chunk_count(cfg.trials)
    assert counts == {"_unit_states": chunks * (1 + cfg.local_steps)}
    assert not hasattr(search, "_normalised")


def test_commutative_search_validates_no_drawn_start(call_counts):
    # the drawn starts are valid by construction; only public instances
    # are checked, in search._start
    counts, count = call_counts
    count(permlemma, "_spectrum_and_images")
    run_search(SearchConfig(target="commutative", d=5, trials=150, local_steps=3, seed=0))
    assert counts == {"_spectrum_and_images": 0}


@pytest.mark.parametrize("target", ["ineqid", "ineqid1", "ineqid2"])
def test_matrix_search_validates_no_drawn_start(call_counts, target):
    # the drawn starts are complex square matrices by construction; the one
    # validation left serializes the argmin
    counts, count = call_counts
    count(matcore, "as_complex_matrix")
    run_search(SearchConfig(target=target, d=3, trials=150, local_steps=3, seed=0))
    assert counts == {"as_complex_matrix": 1}


@pytest.mark.parametrize("instance,message", [
    (np.ones((2, 3)), "square"),
    (np.zeros((0, 0)), "non-empty"),
    (np.array([[1.0, np.nan], [0.0, 1.0]]), "finite"),
], ids=["non-square", "empty", "non-finite"])
@pytest.mark.parametrize("target", ["ineqid", "ineqid1", "ineqid2"])
def test_public_matrix_instances_are_validated(target, instance, message):
    with pytest.raises(ValueError, match=message):
        evaluate_slack(target, instance)
    with pytest.raises(ValueError, match=message):
        local_descend(instance, target, steps=5, scale=0.1, seed=0)


@pytest.mark.parametrize("mu,pi,message", [
    ([0.2, 0.5, 0.3], (1, 2, 3), r"^spectrum must be sorted non-increasing$"),
    ([0.5, 0.6, -0.1], (1, 2, 3), r"^spectrum entries must be non-negative$"),
    ([0.5, 0.3, 0.2], (1, 1, 3), r"^not a bijection on 1\.\.3: \(1, 1, 3\)$"),
    ([0.5, 0.3, 0.2], (1, 2), r"^len\(mu\)=3 but len\(pi\)=2$"),
], ids=["mu0-pi0-NotSortedError", "mu1-pi1-NegativeEntryError", "mu2-pi2-InvalidPermutationError",
        "mu3-pi3-SizeMismatchError"])
def test_public_commutative_instances_are_validated(mu, pi, message):
    with pytest.raises(ValueError, match=message):
        evaluate_slack("commutative", (mu, pi))
    with pytest.raises(ValueError, match=message):
        local_descend((mu, pi), "commutative", steps=5, scale=0.1, seed=0)


def test_search_rebuilds_states_only_for_chunk_argmins(monkeypatch, call_counts):
    # a chunk stays an array stack; one TripartiteState per chunk, its argmin
    counts, count = call_counts
    count(qstate, "random_state")
    built = []
    init = TripartiteState.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TripartiteState, "__init__", counting_init)
    cfg = SearchConfig(target="ineq4", dims=(2, 2, 2), trials=300, local_steps=3, seed=0)
    res = run_search(cfg)
    assert len(built) == _chunk_count(cfg.trials) == 2
    assert counts == {"random_state": 0}
    assert evaluate_slack("ineq4", deserialize_instance(res.argmin)) == pytest.approx(
        res.min_slack, abs=1e-12)


def test_chunk_argmin_is_the_first_lowest_trial():
    # 1x1x1 states tie at slack 0, so the argmin is the chunk's first trial
    cfg = SearchConfig(target="ineq4", dims=(1, 1, 1), trials=10, seed=0)
    slacks, (slack, t, best) = search._run_trials(cfg, range(3, 8))
    assert slacks == [0.0] * 5 and (slack, t) == (0.0, 3)
    np.testing.assert_array_equal(best.coeffs, _drawn_start(cfg, 3).coeffs)
    assert run_search(cfg).trial_index == 0


def test_result_to_dict():
    cfg = SearchConfig(target="ineqid", d=2, trials=5, seed=6)
    res = run_search(cfg)
    d = res.to_dict()
    assert set(d) == {"min_slack", "argmin", "trial_index", "violations"}
    assert isinstance(res, SearchResult)
