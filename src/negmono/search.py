"""Seeded random scans and derivative-free local descent on the slack of the
monogamy and special-case inequalities.

Every trial is a pure function of (seed, trial_index): its start and its
descent draw from the two children of numpy's SeedSequence((seed,
trial_index)), so results are reproducible and independent of worker
scheduling; the final minimum is merged by (slack, trial_index). Trials run
in chunks of consecutive indices, sized to the work by _chunks: at most
CHUNK trials each, balanced over the processes that run them. A chunk seeds
all its streams from one vectorised pass of the SeedSequence hash, and its
trials descend in lockstep through one batched slack evaluation per step,
for every target. A chunk stays a stack of arrays from its start draws to
its slacks; only its argmin is rebuilt as an instance. The rows of a
lockstep are independent, so results never depend on where the chunk
boundaries fall.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cache, partial

import numpy as np

from .matcore import (TAU_CHECK, _at_least, _complex_pairs, _finite_number, _index, _ordered_map,
                      _square, _three_sizes, _workers, json_floats, json_values,
                      matrix_from_dict, matrix_to_dict)
from .monogamy import ineq4_batch
from .permlemma import _commutative_sides, _spectrum_and_images
from .qstate import TripartiteState, _unit_states, state_from_dict, state_to_dict
from .specialcase import _SIDES

TARGETS = ("ineq4", "ineqid", "ineqid1", "ineqid2", "commutative")

# Spread of the exponentially spaced spectra sampled for the commutative
# target; larger means sparser spectra, which is where equality lives.
MU_GAMMA = 5.0

# Consecutive rejected proposals before the step scale is halved.
STALL_LIMIT = 20

# Most trials per chunk; _chunks cuts none below CHUNK // 2 unless the scan
# is shorter. At 256 rows no target is slower per trial than at 128, and at
# 512 the larger matrices get slower again.
CHUNK = 256
# Descent steps whose noise a lockstep chunk draws at once; bounds the noise
# buffer (1.18 MB at 2x3x3, 4.2 MB at 4x4x4, for 256 rows) whatever
# --local-steps is.
NOISE_BLOCK = 16

# Most trials a search may run: every trial index is then one 32-bit word of
# seed entropy, so all trials of a chunk share one entropy layout.
MAX_TRIALS = 2**32

# numpy's SeedSequence (numpy/random/bit_generator.pyx): its default pool
# size in 32-bit words, its hash constants and its xor-shift.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF


@dataclass(frozen=True)
class SearchConfig:
    """Scan parameters; dims is used by the state target ineq4, d by the
    matrix and spectrum targets.

    The support of B in a state on A x B x C has dimension at most dA * dC
    (and that of C at most dA * dB), so ineq4 dims beyond those add nothing:
    2x2x5 searches nothing that 2x2x4 does not. trials is at most
    MAX_TRIALS, the seed may be any non-negative integer, and tol is
    finite."""

    target: str
    dims: tuple[int, int, int] | None = None
    d: int | None = None
    trials: int = 1000
    local_steps: int = 20
    step_scale: float = 0.25
    seed: int = 0
    tol: float = TAU_CHECK

    def __post_init__(self):
        # stored as Python ints: a numpy seed has no bit_length for _seed_words
        if self.dims is not None:
            object.__setattr__(self, "dims", _three_sizes(self.dims))
        least = {"trials": 1, "local_steps": 0, "seed": 0, **({} if self.d is None else {"d": 1})}
        for name, low in least.items():
            object.__setattr__(self, name, _at_least(name, getattr(self, name), low))
        if self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}, expected one of {TARGETS}")
        if self.trials > MAX_TRIALS:
            raise ValueError(f"trials must be at most 2**32, got {self.trials}")
        _finite_number("step_scale", self.step_scale, positive=True)
        _finite_number("tol", self.tol)
        if self.target == "ineq4":
            if self.dims is None:
                raise ValueError("target ineq4 needs dims = (dA, dB, dC)")
            if self.d is not None:
                raise ValueError("target ineq4 takes dims, not d")
        elif self.d is None:
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


def _running_hash(init: int, mult: int):
    """numpy SeedSequence's running hash of uint32 arrays: xor in the
    current constant, advance the constant by mult, multiply by it and
    xor-shift. The constants do not depend on the data, so one hash serves
    every row at once."""
    const = init

    def hash_(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _XSHIFT)

    return hash_


def _seed_words(seed: int, trials) -> np.ndarray:
    """SeedSequence((seed, t), spawn_key=(k,)).generate_state(4, np.uint64)
    for every t of trials (each below 2**32) and k in (0, 1), as a
    (2, len(trials), 4) array: row [k, i] seeds stream k of trials[i].

    One pass of numpy's hash with one uint32 array per entropy word. The
    run entropy is the 32-bit words of seed, least significant first, then
    t; it is padded with zeros to the pool size, because a spawn key
    follows, and then comes k."""
    if min(trials) < 0 or max(trials) >= MAX_TRIALS:
        raise ValueError(f"trial indices must lie in [0, 2**32), got {min(trials)}..{max(trials)}")
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    n = len(trials)
    entropy = np.zeros((max(len(words) + 1, _POOL) + 1, 2, n), dtype=np.uint32)
    entropy[:len(words)] = np.array(words, dtype=np.uint32)[:, None, None]
    entropy[len(words)] = np.asarray(trials, dtype=np.uint32)
    entropy[-1, 1] = 1
    entropy = entropy.reshape(len(entropy), 2 * n)
    hashmix = _running_hash(_INIT_A, _MULT_A)

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> _XSHIFT)

    # the entropy always outgrows the pool, so every pool word starts from it
    pool = [hashmix(e) for e in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for e in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(e))
    # generate_state(4, np.uint64): 8 words cycling over the pool, paired
    # little-endian into 64-bit words
    out_hash = _running_hash(_INIT_B, _MULT_B)
    out = [out_hash(pool[i % _POOL]).astype(np.uint64) for i in range(8)]
    state = np.stack([lo | hi << np.uint64(32) for lo, hi in zip(out[0::2], out[1::2])])
    return np.ascontiguousarray(state.reshape(4, 2, n).transpose(1, 2, 0))


@cache
def _precomputed_seed():
    """A numpy ISeedSequence whose generate_state returns words computed
    beforehand; defined on first use, so that importing negmono loads no
    numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class PrecomputedSeed(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != len(self.words) or np.dtype(dtype) != self.words.dtype:
                raise ValueError(f"holds {len(self.words)} {self.words.dtype} words")
            return self.words

    return PrecomputedSeed


def _generators(seed: int, trials) -> list:
    """[start generators, descent generators] of the given trials: for
    trial t, the generators default_rng gives the two children of
    SeedSequence((seed, t)), stream for stream, built from one _seed_words
    pass."""
    precomputed = _precomputed_seed()
    return [[np.random.Generator(np.random.PCG64(precomputed(w))) for w in words]
            for words in _seed_words(seed, trials)]


def _sample(cfg: SearchConfig, rngs: list):
    """The descent starts drawn from the given generators, one each, every
    start as a single draw from its generator would give it: a stack x of
    state tensors (ineq4), matrices (ineqid*) or spectra (commutative), and
    perms, the 0-based commutative permutations, None for the other targets."""
    n = len(rngs)
    if cfg.target == "commutative":
        u = np.empty((n, cfg.d))
        perms = np.empty((n, cfg.d), dtype=int)
        for rng, out, perm in zip(rngs, u, perms):
            rng.random(out=out)
            perm[:] = rng.permutation(cfg.d)
        mu = np.exp(-MU_GAMMA * u)
        mu[:, ::-1].sort(axis=1)
        mu /= mu.sum(axis=1, keepdims=True)
        return mu, perms
    shape = cfg.dims if cfg.target == "ineq4" else (cfg.d, cfg.d)
    x = np.empty((n, 2, *shape))
    for rng, out in zip(rngs, x):
        rng.standard_normal(out=out)
    c = _complex_pairs(x)
    return (_unit_states(c)[0] if cfg.target == "ineq4" else c), None


def _weighed(m: np.ndarray):
    # matrices are not normalised; only a zero matrix is rejected
    return m, np.sum(np.abs(m) ** 2, axis=(1, 2))


def _simplex(mu: np.ndarray):
    # clipped, sorted descending and divided by the total taken before sorting
    np.clip(mu, 0.0, None, out=mu)
    total = mu.sum(axis=1)
    mu[:, ::-1].sort(axis=1)
    mu /= np.where(total > 0.0, total, 1.0)[:, None]
    return mu, total


# The descent of each target: (settle, sides). settle(raw) turns raw
# candidates, in place, into (candidates, weight), the norm or total that
# normalises them (zero rejects a candidate); sides(x, perms) is the batched
# (lhs, rhs) of a stack x. A kernel shared with another module is looked up
# when called, so that a test can count the calls.
_DESCENTS = {
    "ineq4": (lambda c: _unit_states(c), lambda c, perms: ineq4_batch(c)[2:]),
    "ineqid": (_weighed, lambda m, perms: _SIDES["ineqid"](m)),
    "ineqid1": (_weighed, lambda m, perms: _SIDES["ineqid1"](m)),
    "ineqid2": (_weighed, lambda m, perms: _SIDES["ineqid2_minus"](m)),
    "commutative": (_simplex, lambda mu, perms: _commutative_sides(mu, perms)),
}


def _slacks(target: str, x: np.ndarray, perms) -> np.ndarray:
    """rhs - lhs of the targeted inequality on every row of a stack x."""
    _, sides = _DESCENTS[target]
    lhs, rhs = sides(x, perms)
    return rhs - lhs


def _start(target: str, instance):
    """The (x, perms) stack of one public instance, as _sample draws it; a
    commutative (mu, pi) or a matrix is validated here, once."""
    if target not in _DESCENTS:
        raise ValueError(f"unknown target {target!r}")
    if target == "commutative":
        mu, pi = instance
        v, perms = _spectrum_and_images(mu, pi)
        return v[None], perms
    return (instance.coeffs if target == "ineq4" else _square(instance))[None], None


def _instance(target: str, x: np.ndarray, perms, k: int):
    """The public instance of row k of a stack: a TripartiteState, a matrix,
    or a spectrum and its 1-based permutation."""
    if target == "ineq4":
        return TripartiteState(x[k])
    if target == "commutative":
        return x[k], tuple(int(i) + 1 for i in perms[k])
    return x[k]


def evaluate_slack(target: str, instance) -> float:
    """Slack of the targeted inequality on one instance; negative means a
    violation candidate."""
    return float(_slacks(target, *_start(target, instance))[0])


def _descend(target: str, x: np.ndarray, perms, rngs: list, steps: int, scale: float):
    """Greedy descent on the slack of the rows of a stack x in lockstep,
    with one batched slack evaluation per step; x itself is not changed.
    Returns (best rows, their slacks) as stacks; the instance of row k is
    _instance(target, rows, perms, k).

    Each row has its own descent stream, drawn NOISE_BLOCK steps at a
    time: per step a real Gaussian vector for commutative, the real and then
    the imaginary part of a complex Gaussian for the other targets. A
    candidate is accepted only when its weight is nonzero and it strictly
    decreases the slack; the scale halves after STALL_LIMIT consecutive
    rejections. So the result of a row does not depend on which other rows
    share its lockstep."""
    settle, _ = _DESCENTS[target]
    n = len(x)
    best = x.copy()
    best_slack = _slacks(target, best, perms)
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
        if complex_noise:
            step_noise = _complex_pairs(step_noise)
        with np.errstate(over="ignore", invalid="ignore"):  # caught just below
            cand = best + scales[per_start] * step_noise
            finite = np.all(np.isfinite(cand))
            cand, weight = settle(cand)
        if not (finite and np.all(np.isfinite(weight))):
            raise ValueError(f"step_scale {scale:g} overflows: a descent candidate "
                             "or its weight is not finite")
        cand_slack = _slacks(target, cand, perms)
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
    x, perms = _start(target, instance)
    best, [slack] = _descend(target, x, perms, [np.random.default_rng(seed)], steps, scale)
    return _instance(target, best, perms, 0), float(slack)


def serialize_instance(target: str, instance) -> dict:
    if target == "ineq4":
        return {"kind": "state", **state_to_dict(instance)}
    if target == "commutative":
        mu, pi = instance
        return {"kind": "mu_pi", "mu": [float(x) for x in mu], "pi": list(pi)}
    return {"kind": "matrix", **matrix_to_dict(instance)}


def deserialize_instance(obj: dict):
    [kind] = json_values(obj, "instance", ("kind",))
    if kind == "state":
        return state_from_dict(obj)
    if kind == "mu_pi":
        mu, pi = json_values(obj, "mu_pi", ("mu", "pi"))
        bad = "mu_pi JSON mu must be a list of finite numbers, and pi a list"
        if not isinstance(pi, list):
            raise ValueError(bad)
        return json_floats(mu, bad), tuple(_index("permutation entry", i) for i in pi)
    if kind == "matrix":
        return matrix_from_dict(obj)
    raise ValueError(f"unknown instance kind {kind!r}")


def _run_trials(cfg: SearchConfig, trials: range) -> tuple[list, tuple]:
    """The slacks of the given trials, descended in lockstep, and their
    argmin (slack, trial_index, best_instance): the lowest slack, first
    trial on ties."""
    start_rngs, descent_rngs = _generators(cfg.seed, trials)
    x, perms = _sample(cfg, start_rngs)
    rows, slacks = _descend(cfg.target, x, perms, descent_rngs, cfg.local_steps, cfg.step_scale)
    k = int(np.argmin(slacks))
    return slacks.tolist(), (float(slacks[k]), trials[k], _instance(cfg.target, rows, perms, k))


def run_trial(cfg: SearchConfig, trial_index: int) -> tuple[int, float, dict]:
    """One full trial: sample, descend, serialize the survivor."""
    t = _index("trial_index", trial_index)
    _, (slack, _, best) = _run_trials(cfg, range(t, t + 1))
    return t, slack, serialize_instance(cfg.target, best)


def _chunks(trials: int, parts: int):
    """The chunk ranges of trials [0, trials) for `parts` processes, made
    lazily. A chunk holds at most width = min(CHUNK, max(CHUNK // 2,
    ceil(trials / parts))) trials, so each part gets a chunk of its own
    unless that would cut chunks below CHUNK // 2; the ceil(trials / width)
    chunks are balanced, their lengths differing by at most one."""
    width = min(CHUNK, max(CHUNK // 2, -(-trials // parts)))
    count = -(-trials // width)
    return (range(trials * k // count, trials * (k + 1) // count) for k in range(count))


def run_search(cfg: SearchConfig, jobs: int = 1, on_trial=None) -> SearchResult:
    """Scan all trials in the chunks of _chunks, balanced over the
    min(jobs, _workers()) processes that _ordered_map would start, which
    makes each chunk range as it reads it, and merge the chunk argmins by
    (slack, trial_index). The chunks depend on the trial and worker counts,
    but the result does not: every trial draws from its own streams and
    descends independently of its chunk. on_trial(trial_index, slack), when
    given, is called for every trial in trial order."""
    jobs = _at_least("jobs", jobs, 1)
    best = None
    violations = 0
    t = 0
    chunks = _chunks(cfg.trials, min(jobs, _workers()))
    for slacks, argmin in _ordered_map(partial(_run_trials, cfg), chunks, jobs):
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
