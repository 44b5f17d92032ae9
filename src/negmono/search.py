"""Seeded random scans and derivative-free local descent on the slack of the
monogamy and special-case inequalities.

Every trial is a pure function of (seed, trial_index) through splittable
seed sequences, so results are reproducible and independent of worker
scheduling; the final minimum is merged by (slack, trial_index). Trials run
in fixed chunks of CHUNK consecutive indices, and the trials of a chunk
descend in lockstep through one batched slack evaluation per step, for
every target. A chunk stays a stack of arrays from its start draws to its
slacks; only its argmin is rebuilt as an instance.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import repeat

import numpy as np

from .matcore import TAU_CHECK, _square, complex_gaussian, matrix_from_dict, matrix_to_dict
from .monogamy import ineq4_batch
from .permlemma import _commutative_sides, _spectrum_and_images
from .qstate import TripartiteState, _random_coeffs, state_from_dict, state_to_dict
from .specialcase import _SIDES

TARGETS = ("ineq4", "ineqid", "ineqid1", "ineqid2", "commutative")

# Spread of the exponentially spaced spectra sampled for the commutative
# target; larger means sparser spectra, which is where equality lives.
MU_GAMMA = 5.0

# Consecutive rejected proposals before the step scale is halved.
STALL_LIMIT = 20

# Trials per chunk. Chunk k holds trials [k * CHUNK, (k + 1) * CHUNK), so
# the boundaries depend only on the trial index, never on --jobs.
CHUNK = 128
# Descent steps whose noise a lockstep chunk draws at once; bounds the noise
# buffer (590 kB at 2x3x3) whatever --local-steps is.
NOISE_BLOCK = 16


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
        if not (self.step_scale > 0 and math.isfinite(self.step_scale)):
            raise ValueError(f"step_scale must be finite and positive, got {self.step_scale}")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.target == "ineq4":
            if self.dims is None or len(self.dims) != 3 or min(self.dims) < 1:
                raise ValueError("target ineq4 needs dims = (dA, dB, dC)")
            if self.d is not None:
                raise ValueError("target ineq4 takes dims, not d")
        elif self.d is None or self.d < 1:
            raise ValueError(f"target {self.target} needs a matrix size d >= 1")
        elif self.dims is not None:
            raise ValueError(f"target {self.target} takes d, not dims")


@dataclass(frozen=True)
class SearchResult:
    min_slack: float
    argmin: dict
    trial_index: int
    violations: int

    def to_dict(self) -> dict:
        return asdict(self)


def _trial_seeds(cfg: SearchConfig, trial_index: int):
    """The (start state, descent) seed sequences of one trial: the two
    children of SeedSequence((seed, trial_index)), built without their
    parent."""
    entropy = (cfg.seed, int(trial_index))
    return [np.random.SeedSequence(entropy, spawn_key=(k,)) for k in (0, 1)]


def random_instance(cfg: SearchConfig, trial_index: int):
    """Deterministic random instance for one trial: a normalised Gaussian
    state for ineq4, a complex Gaussian matrix for the ineqid targets, or a
    sorted exponentially spaced spectrum plus uniform permutation."""
    start = _sample(cfg, np.random.default_rng(_trial_seeds(cfg, trial_index)[0]))
    return TripartiteState(start) if cfg.target == "ineq4" else start


def _sample(cfg: SearchConfig, rng: np.random.Generator):
    """The start of a descent: an instance, or the coefficient tensor of a
    state for ineq4."""
    if cfg.target == "ineq4":
        return _random_coeffs(cfg.dims, rng, 1)[0]
    if cfg.target == "commutative":
        mu = np.exp(-MU_GAMMA * rng.random(cfg.d))
        mu[::-1].sort()
        mu /= mu.sum()
        pi = tuple(int(i) + 1 for i in rng.permutation(cfg.d))
        return mu, pi
    return complex_gaussian(rng, (cfg.d, cfg.d))


def _normalised(c: np.ndarray):
    weight = np.sum(np.abs(c) ** 2, axis=(1, 2, 3))
    c /= np.sqrt(np.where(weight > 0.0, weight, 1.0))[:, None, None, None]
    return c, weight


def _simplex(mu: np.ndarray):
    # clipped, sorted descending and divided by the total taken before sorting
    np.clip(mu, 0.0, None, out=mu)
    total = mu.sum(axis=1)
    mu[:, ::-1].sort(axis=1)
    mu /= np.where(total > 0.0, total, 1.0)[:, None]
    return mu, total


def _slack(sides):
    """rhs - lhs of a batched function whose last two outputs are (lhs, rhs)."""
    def slack(x):
        lhs, rhs = sides(x)[-2:]
        return rhs - lhs
    return slack


def _bound(name: str) -> tuple:
    return (lambda m: m, lambda m: (m, np.sum(np.abs(m) ** 2, axis=(1, 2))),
            lambda starts: _slack(_SIDES[name]), lambda m, start: m)


def _commutative_slack(starts):
    perms = np.array([pi for _, pi in starts]) - 1
    return _slack(lambda mu: _commutative_sides(mu, perms))


# The descent of each target: (array, settle, slack, instance). array(start)
# is the part of a start (as _sample draws it) that descends; settle(raw)
# turns raw candidates, in place, into (candidates, weight), the norm or total
# that normalises them (zero rejects a candidate); slack(starts) is the
# batched slack of stacks descended from those starts; instance(row, start)
# rebuilds a descended instance.
_DESCENTS = {
    "ineq4": (lambda c: c, _normalised,
              lambda starts: _slack(ineq4_batch), lambda c, start: TripartiteState(c)),
    "ineqid": _bound("ineqid"),
    "ineqid1": _bound("ineqid1"),
    "ineqid2": _bound("ineqid2_minus"),
    "commutative": (lambda inst: np.asarray(inst[0], dtype=float), _simplex,
                    _commutative_slack, lambda mu, start: (mu, start[1])),
}


def _descent(target: str) -> tuple:
    if target not in _DESCENTS:
        raise ValueError(f"unknown target {target!r}")
    return _DESCENTS[target]


def _start(target: str, instance):
    """The descent start of a public instance, as _sample draws it; a
    commutative (mu, pi) or a matrix is validated here, once."""
    if target == "commutative":
        mu, pi = instance
        v, perm = _spectrum_and_images(mu, pi)
        return v, tuple(int(i) + 1 for i in perm[0])
    return instance.coeffs if target == "ineq4" else _square(instance)


def evaluate_slack(target: str, instance) -> float:
    """Slack of the targeted inequality on one instance; negative means a
    violation candidate."""
    array, _, slack, _ = _descent(target)
    start = _start(target, instance)
    return float(slack([start])(array(start)[None])[0])


def _descend(target: str, starts: list, rngs: list, steps: int, scale: float):
    """Greedy descent on the slack of several starts in lockstep, with one
    batched slack evaluation per step. Returns (best rows, their slacks) as
    stacks; the instance of row k is instance(rows[k], starts[k]).

    Each start has its own descent stream, drawn NOISE_BLOCK steps at a
    time: per step a real Gaussian vector for commutative, the real and then
    the imaginary part of a complex Gaussian for the other targets. A
    candidate is accepted only when its weight is nonzero and it strictly
    decreases the slack; the scale halves after STALL_LIMIT consecutive
    rejections. So the result of a start does not depend on which other
    starts share its lockstep."""
    array, settle, slack_of, _ = _descent(target)
    n = len(starts)
    best = np.stack([array(s) for s in starts])
    slack = slack_of(starts)
    best_slack = slack(best)
    scales = np.full(n, float(scale))
    stalled = np.zeros(n, dtype=int)
    per_start = (slice(None),) + (None,) * (best.ndim - 1)
    complex_noise = np.iscomplexobj(best)
    step_shape = ((2,) if complex_noise else ()) + best.shape[1:]
    for step in range(steps):
        k = step % NOISE_BLOCK
        if k == 0:
            noise = np.empty((n, min(NOISE_BLOCK, steps - step), *step_shape))
            for rng, out in zip(rngs, noise):
                rng.standard_normal(out=out)
        step_noise = noise[:, k]
        if complex_noise:  # as complex_gaussian
            step_noise = (step_noise[:, 0] + 1j * step_noise[:, 1]) / np.sqrt(2.0)
        with np.errstate(over="ignore", invalid="ignore"):  # caught just below
            cand = best + scales[per_start] * step_noise
            finite = np.all(np.isfinite(cand))
            cand, weight = settle(cand)
        if not (finite and np.all(np.isfinite(weight))):
            raise ValueError(f"step_scale {scale:g} overflows: a descent candidate "
                             "or its weight is not finite")
        cand_slack = slack(cand)
        accept = (weight > 0.0) & (cand_slack < best_slack)
        best[accept] = cand[accept]
        best_slack = np.where(accept, cand_slack, best_slack)
        stalled = np.where(accept, 0, stalled + 1)
        halve = stalled >= STALL_LIMIT
        scales[halve] *= 0.5
        stalled[halve] = 0
    return best, best_slack


def local_descend(instance, target: str, steps: int, scale: float, seed):
    """The lockstep descent of a single instance. Returns (best_instance,
    best_slack).

    seed may be an int or a numpy SeedSequence."""
    instance_of = _descent(target)[3]
    start = _start(target, instance)
    [best], [slack] = _descend(target, [start], [np.random.default_rng(seed)], steps, scale)
    return instance_of(best, start), float(slack)


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


def _run_trials(cfg: SearchConfig, trials: range) -> tuple[list, tuple]:
    """The slacks of the given trials, descended in lockstep, and their
    argmin (slack, trial_index, best_instance): the lowest slack, first
    trial on ties."""
    starts, rngs = [], []
    for t in trials:
        start_seq, descent_seq = _trial_seeds(cfg, t)
        starts.append(_sample(cfg, np.random.default_rng(start_seq)))
        rngs.append(np.random.default_rng(descent_seq))
    rows, slacks = _descend(cfg.target, starts, rngs, cfg.local_steps, cfg.step_scale)
    k = int(np.argmin(slacks))
    best = _descent(cfg.target)[3](rows[k], starts[k])
    return slacks.tolist(), (float(slacks[k]), trials[k], best)


def run_trial(cfg: SearchConfig, trial_index: int) -> tuple[int, float, dict]:
    """One full trial: sample, descend, serialize the survivor."""
    _, (slack, t, best) = _run_trials(cfg, range(trial_index, trial_index + 1))
    return t, slack, serialize_instance(cfg.target, best)


def _chunks(cfg: SearchConfig, jobs: int):
    """The _run_trials result of every chunk of CHUNK trials, in trial
    order, computed in this process or in up to `jobs` workers, never more
    than there are chunks: a forking pool starts all its workers at the
    first submit."""
    chunks = [range(k, min(k + CHUNK, cfg.trials)) for k in range(0, cfg.trials, CHUNK)]
    workers = min(jobs, len(chunks))
    if workers <= 1:
        yield from map(_run_trials, repeat(cfg), chunks)
        return
    # imported here, so that loading negmono loads no process pool
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(_run_trials, repeat(cfg), chunks)


def run_search(cfg: SearchConfig, jobs: int = 1, on_trial=None) -> SearchResult:
    """Scan all trials and merge the chunk argmins by (slack, trial_index),
    so the result is independent of worker count and scheduling.
    on_trial(trial_index, slack), when given, is called for every trial in
    trial order."""
    best = None
    violations = 0
    t = 0
    for slacks, argmin in _chunks(cfg, jobs):
        for slack in slacks:
            if on_trial is not None:
                on_trial(t, slack)
            if slack < -cfg.tol:
                violations += 1
            t += 1
        if best is None or argmin[:2] < best[:2]:
            best = argmin
    return SearchResult(
        min_slack=best[0],
        argmin=serialize_instance(cfg.target, best[2]),
        trial_index=best[1],
        violations=violations,
    )
