"""Seeded random scans and derivative-free local descent on the slack of the
monogamy and special-case inequalities.

Every trial is a pure function of (seed, trial_index) through splittable
seed sequences, so results are reproducible and independent of worker
scheduling; the final minimum is merged by (slack, trial_index). Trials run
in fixed chunks of CHUNK consecutive indices; the ineq4 trials of a chunk
descend in lockstep through one batched kernel call per step.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .matcore import TAU_CHECK, complex_gaussian, matrix_from_dict, matrix_to_dict
from .monogamy import ineq4_batch
from .permlemma import check_commutative
from .qstate import (
    TripartiteState,
    _stacked,
    random_state,
    state_from_dict,
    state_to_dict,
)
from .specialcase import check_ineqid, check_ineqid1, check_ineqid2

TARGETS = ("ineq4", "ineqid", "ineqid1", "ineqid2", "commutative")

# Spread of the exponentially spaced spectra sampled for the commutative
# target; larger means sparser spectra, which is where equality lives.
MU_GAMMA = 5.0

# Consecutive rejected proposals before the step scale is halved.
STALL_LIMIT = 20

# Trials per chunk. Chunk k holds trials [k * CHUNK, (k + 1) * CHUNK), so
# the boundaries depend only on the trial index, never on --jobs.
CHUNK = 64
# Descent steps whose noise a lockstep chunk draws at once; bounds the noise
# buffer (370 kB at 2x3x3) whatever --local-steps is.
NOISE_BLOCK = 32


@dataclass(frozen=True)
class SearchConfig:
    """Scan parameters; dims is used by the state target ineq4, d by the
    matrix and spectrum targets."""

    target: str
    dims: tuple[int, int, int] | None = None
    d: int | None = None
    trials: int = 1000
    local_steps: int = 20
    step_scale: float = 0.25
    seed: int = 0
    tol: float = TAU_CHECK

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}, expected one of {TARGETS}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.local_steps < 0:
            raise ValueError("local_steps must be non-negative")
        if not self.step_scale > 0:
            raise ValueError("step_scale must be positive")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.target == "ineq4":
            if self.dims is None or len(self.dims) != 3 or min(self.dims) < 1:
                raise ValueError("target ineq4 needs dims = (dA, dB, dC)")
        elif self.d is None or self.d < 1:
            raise ValueError(f"target {self.target} needs a matrix size d >= 1")


@dataclass(frozen=True)
class SearchResult:
    min_slack: float
    argmin: dict
    trial_index: int
    violations: int

    def to_dict(self) -> dict:
        return {
            "min_slack": self.min_slack,
            "argmin": self.argmin,
            "trial_index": self.trial_index,
            "violations": self.violations,
        }


def _trial_seeds(cfg: SearchConfig, trial_index: int):
    """The (start state, descent) seed sequences of one trial."""
    return np.random.SeedSequence(entropy=(cfg.seed, int(trial_index))).spawn(2)


def random_instance(cfg: SearchConfig, trial_index: int):
    """Deterministic random instance for one trial: a normalised Gaussian
    state for ineq4, a complex Gaussian matrix for the ineqid targets, or a
    sorted exponentially spaced spectrum plus uniform permutation."""
    return _sample(cfg, np.random.default_rng(_trial_seeds(cfg, trial_index)[0]))


def _sample(cfg: SearchConfig, rng: np.random.Generator):
    if cfg.target == "ineq4":
        return random_state(cfg.dims, rng)
    if cfg.target == "commutative":
        mu = np.exp(-MU_GAMMA * rng.random(cfg.d))
        mu[::-1].sort()
        mu /= mu.sum()
        pi = tuple(int(i) + 1 for i in rng.permutation(cfg.d))
        return mu, pi
    return complex_gaussian(rng, (cfg.d, cfg.d))


def evaluate_slack(target: str, instance) -> float:
    """Slack of the targeted inequality on one instance; negative means a
    violation candidate."""
    if target == "ineq4":
        _, _, lhs, rhs = ineq4_batch(_stacked(instance.coeffs)[None])
        return float(rhs[0] - lhs[0])
    if target == "ineqid":
        return check_ineqid(instance).slack
    if target == "ineqid1":
        return check_ineqid1(instance).slack
    if target == "ineqid2":
        return check_ineqid2(instance).slack
    if target == "commutative":
        mu, pi = instance
        return check_commutative(mu, pi).slack
    raise ValueError(f"unknown target {target!r}")


def _perturb(target: str, instance, scale: float, rng: np.random.Generator):
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


def local_descend(instance, target: str, steps: int, scale: float, seed):
    """Greedy descent on the slack: accept a Gaussian perturbation only when
    it strictly decreases the slack; halve the scale after STALL_LIMIT
    consecutive rejections. Returns (best_instance, best_slack).

    seed may be an int or a numpy SeedSequence."""
    rng = np.random.default_rng(seed)
    best = instance
    best_slack = evaluate_slack(target, instance)
    stalled = 0
    for _ in range(steps):
        cand = _perturb(target, best, scale, rng)
        cand_slack = evaluate_slack(target, cand)
        if cand_slack < best_slack:
            best, best_slack = cand, cand_slack
            stalled = 0
        else:
            stalled += 1
            if stalled >= STALL_LIMIT:
                scale *= 0.5
                stalled = 0
    return best, best_slack


def serialize_instance(target: str, instance) -> dict:
    if target == "ineq4":
        return {"kind": "state", **state_to_dict(instance)}
    if target == "commutative":
        mu, pi = instance
        return {"kind": "mu_pi", "mu": [float(x) for x in mu], "pi": list(pi)}
    return {"kind": "matrix", **matrix_to_dict(instance)}


def deserialize_instance(obj: dict):
    kind = obj.get("kind")
    if kind == "state":
        return state_from_dict(obj)
    if kind == "mu_pi":
        return np.asarray(obj["mu"], dtype=float), tuple(obj["pi"])
    if kind == "matrix":
        return matrix_from_dict(obj)
    raise ValueError(f"unknown instance kind {kind!r}")


def _descend_ineq4(cfg: SearchConfig, trials: range) -> list:
    """local_descend on target ineq4 for several trials in lockstep.

    Each trial keeps its own start state, its own descent stream (drawn
    NOISE_BLOCK steps at a time, in the order _perturb draws it step by
    step) and the step rules of local_descend: strict improvement, halving
    after STALL_LIMIT rejections, rejection of a zero candidate, and
    ValueError on a non-finite one. So the result of a trial does not
    depend on which other trials share its lockstep."""
    steps = cfg.local_steps
    starts, rngs = [], []
    for t in trials:
        start_seq, descent_seq = _trial_seeds(cfg, t)
        starts.append(_sample(cfg, np.random.default_rng(start_seq)).coeffs)
        rngs.append(np.random.default_rng(descent_seq))
    best = np.stack(starts)
    _, _, lhs, rhs = ineq4_batch(best)
    best_slack = rhs - lhs
    scale = np.full(len(trials), float(cfg.step_scale))
    stalled = np.zeros(len(trials), dtype=int)
    per_trial = (slice(None), None, None, None)
    for step in range(steps):
        k = step % NOISE_BLOCK
        if k == 0:
            noise = np.empty((len(trials), min(NOISE_BLOCK, steps - step), 2, *cfg.dims))
            for rng, out in zip(rngs, noise):
                rng.standard_normal(out=out)
        gauss = (noise[:, k, 0] + 1j * noise[:, k, 1]) / np.sqrt(2.0)  # as complex_gaussian
        cand = best + scale[per_trial] * gauss
        if not np.all(np.isfinite(cand)):
            raise ValueError("coefficients must be finite")
        weight = np.sum(np.abs(cand) ** 2, axis=(1, 2, 3))
        nonzero = weight > 0.0
        cand /= np.sqrt(np.where(nonzero, weight, 1.0))[per_trial]
        _, _, lhs, rhs = ineq4_batch(cand)
        cand_slack = rhs - lhs
        accept = nonzero & (cand_slack < best_slack)
        best[accept] = cand[accept]
        best_slack = np.where(accept, cand_slack, best_slack)
        stalled = np.where(accept, 0, stalled + 1)
        halve = stalled >= STALL_LIMIT
        scale[halve] *= 0.5
        stalled[halve] = 0
    return [(t, float(slack), TripartiteState(c))
            for t, slack, c in zip(trials, best_slack, best)]


def _run_trials(cfg: SearchConfig, trials: range) -> list:
    """[(trial_index, slack, best_instance)] for the given trials."""
    if cfg.target == "ineq4":
        return _descend_ineq4(cfg, trials)
    out = []
    for t in trials:
        start_seq, descent_seq = _trial_seeds(cfg, t)
        instance = _sample(cfg, np.random.default_rng(start_seq))
        best, slack = local_descend(
            instance, cfg.target, cfg.local_steps, cfg.step_scale, descent_seq
        )
        out.append((t, float(slack), best))
    return out


def run_trial(cfg: SearchConfig, trial_index: int) -> tuple[int, float, dict]:
    """One full trial: sample, descend, serialize the survivor."""
    [(t, slack, best)] = _run_trials(cfg, range(trial_index, trial_index + 1))
    return t, slack, serialize_instance(cfg.target, best)


def _run_chunk(cfg: SearchConfig, start: int) -> list:
    return _run_trials(cfg, range(start, min(start + CHUNK, cfg.trials)))


def iter_trials(cfg: SearchConfig, jobs: int = 1):
    """Yield (trial_index, slack, best_instance) in trial order, one chunk
    of CHUNK trials at a time, in this process or in `jobs` workers."""
    starts = range(0, cfg.trials, CHUNK)
    if jobs <= 1:
        yield from chain.from_iterable(map(_run_chunk, repeat(cfg), starts))
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield from chain.from_iterable(pool.map(_run_chunk, repeat(cfg), starts))


def run_search(cfg: SearchConfig, jobs: int = 1, on_trial=None) -> SearchResult:
    """Scan all trials and merge by (slack, trial_index), so the result is
    independent of worker count and scheduling. on_trial(trial_index,
    slack), when given, is called for every trial in trial order."""
    best = None
    violations = 0
    for t, slack, inst in iter_trials(cfg, jobs):
        if on_trial is not None:
            on_trial(t, slack)
        if slack < -cfg.tol:
            violations += 1
        if best is None or (slack, t) < (best[0], best[1]):
            best = (slack, t, inst)
    return SearchResult(
        min_slack=best[0],
        argmin=serialize_instance(cfg.target, best[2]),
        trial_index=best[1],
        violations=violations,
    )
