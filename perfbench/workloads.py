"""The benchmark's workloads: closed loops from one process that drive the
user-facing entry points (negmono.cli.main and the acceptance criteria),
time them from outside, and check every output.

A workload runs batches until its time budget would be overrun by one more
batch of average length (at least one batch). Each batch yields one rate
sample; the run reports the median. Every CLI invocation and every criterion
is one checked op: it fails when it raises, exits with an unexpected code,
does not pass, or produces output that breaks an invariant or differs from
the seed-0 reference (an ineq4 violation is a finding, not a failure).
"""

from __future__ import annotations

import hashlib
import json
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

from negmono import acceptance, cli
from negmono.matcore import TAU_CHECK
from negmono.search import deserialize_instance, evaluate_slack

REFERENCE = Path(__file__).resolve().parent / "reference.json"

SEARCH_DIMS = ("2x2x2", "2x3x3")
VERIFY_DIMS = ("2x2x2", "2x3x3", "3x2x4")
SEARCH_TRIALS = 250   # trials per search invocation
VERIFY_STATES = 300   # states per verify-conjecture invocation

# Small fixed seed-0 configurations run (untimed) in every run and compared
# with reference.json, so the numbers are pinned at any workload seed.
SEARCH_ANCHOR_TRIALS = 50
VERIFY_ANCHOR_STATES = 20
# jobs 1 versus jobs 2 identity probe (untimed, ineq4-search-jobs2 only).
JOBS_PROBE = ("2x3x3", 200)

# Criteria 1-9 of the gate; criterion 10 (conjecture_scan) is left out
# because its traffic is ineq4-search, where the load is sized.
CRITERIA = tuple(fn.__name__ for fn in acceptance.CRITERIA[:9])
SELFTEST = {"selftest-chain": CRITERIA[:5], "selftest-perm": CRITERIA[5:]}
# A cheap criterion per selftest workload, run at seed 0 in every run and
# compared with reference.json, so the details are pinned at any seed.
SELFTEST_ANCHOR = {"selftest-chain": "partial_trace_monotonicity",
                   "selftest-perm": "drury_reduction"}
CRITERION_INDEX = {fn.__name__: i + 1 for i, fn in enumerate(acceptance.CRITERIA)}

# Float comparison against reference.json: |a - b| <= ABS_TOL + REL_TOL * |b|.
# ABS_TOL covers roundoff-level details (residuals of ~1e-15 that differ
# between BLAS kernels); REL_TOL covers last-bit drift of O(1) slacks.
REL_TOL = 1e-9
ABS_TOL = 1e-12
REPLAY_TOL = 1e-12


def close(a, b) -> bool:
    """Structural equality with the float tolerance above."""
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str) or a is None:
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if isinstance(a, int) and isinstance(b, int):
            return a == b
        return abs(a - b) <= ABS_TOL + REL_TOL * abs(b)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(close(x, y) for x, y in zip(a, b))
    return a == b


class Ledger:
    """Attempted and failed ops, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.findings = 0
        self.records = 0

    def op(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def cli_seeds(seed: int) -> np.ndarray:
    """Per-invocation CLI seeds derived from the workload seed."""
    return np.random.SeedSequence(seed).generate_state(4096)


def run_cli(argv: list[str], out: Path) -> tuple[int | None, float, str, str | None]:
    """Call negmono.cli.main with --out; returns (exit code, wall s, NDJSON
    text, error). Only the call itself is timed."""
    t0 = perf_counter()
    try:
        rc = cli.main(argv + ["--out", str(out)])
    except Exception as exc:  # an op that raises is a failed op
        return None, perf_counter() - t0, "", f"{argv[0]} raised {exc!r}"
    dt = perf_counter() - t0
    return rc, dt, out.read_text(encoding="utf-8"), None


# -- search -----------------------------------------------------------------

def search_argv(dims: str, trials: int, seed: int, jobs: int) -> list[str]:
    return ["search", "--target", "ineq4", "--dims", dims, "--trials", str(trials),
            "--seed", str(seed), "--jobs", str(jobs)]


def check_search(text: str, dims: str, trials: int, seed: int, jobs: int,
                 ledger: Ledger) -> list[str]:
    """Invariants of one search invocation; returns the problems found."""
    where = f"search {dims} seed {seed} jobs {jobs}"
    lines = text.splitlines()
    ledger.records += len(lines)
    recs = [json.loads(line) for line in lines]
    if not recs or "result" not in recs[-1]:
        return [f"{where}: no result record"]
    last = recs[-1]
    res = last["result"]
    problems = []
    if last.get("target") != "ineq4" or last.get("seed") != seed:
        problems.append(f"{where}: result names target {last.get('target')} "
                        f"seed {last.get('seed')}")
    if jobs == 1:
        per_trial = recs[:-1]
        if [r.get("trial") for r in per_trial] != list(range(trials)):
            problems.append(f"{where}: per-trial records out of order or missing")
        else:
            slacks = [r["slack"] for r in per_trial]
            low = min(slacks)
            if res["min_slack"] != low or res["trial_index"] != slacks.index(low):
                problems.append(f"{where}: result {res['min_slack']!r} at "
                                f"{res['trial_index']} is not the minimum record")
            if res["violations"] != sum(s < -TAU_CHECK for s in slacks):
                problems.append(f"{where}: violation count disagrees with records")
    elif len(recs) != 1:
        problems.append(f"{where}: expected only the result record, got {len(recs)}")
    inst = deserialize_instance(res["argmin"])
    if "x".join(str(d) for d in inst.dims) != dims:
        problems.append(f"{where}: argmin has dims {inst.dims}")
    replay = evaluate_slack("ineq4", inst)
    if abs(replay - res["min_slack"]) > REPLAY_TOL:
        problems.append(f"{where}: argmin replays to {replay!r}, not {res['min_slack']!r}")
    ledger.findings += int(res["violations"])
    return problems


def search_batch(batch: int, seeds, jobs: int, out: Path):
    """One batch: one invocation per dims. Returns (trials, wall s, outputs)."""
    total = 0.0
    outputs = []
    for k, dims in enumerate(SEARCH_DIMS):
        seed = int(seeds[(batch * len(SEARCH_DIMS) + k) % len(seeds)])
        rc, dt, text, err = run_cli(search_argv(dims, SEARCH_TRIALS, seed, jobs), out)
        total += dt
        outputs.append((dims, seed, rc, text, err))
    return SEARCH_TRIALS * len(SEARCH_DIMS), total, outputs


def check_search_batch(outputs, jobs: int, ledger: Ledger) -> None:
    for dims, seed, rc, text, err in outputs:
        if err:
            ledger.op([err])
            continue
        problems = [] if rc == 0 else [f"search {dims} seed {seed}: exit {rc}"]
        ledger.op(problems + check_search(text, dims, SEARCH_TRIALS, seed, jobs, ledger))


def search_anchor(out: Path) -> dict:
    """Seed-0 anchor results keyed by dims, as stored in reference.json."""
    found = {}
    for dims in SEARCH_DIMS:
        rc, _, text, err = run_cli(search_argv(dims, SEARCH_ANCHOR_TRIALS, 0, 1), out)
        if err or rc != 0:
            found[dims] = {"error": err or f"exit {rc}"}
            continue
        res = json.loads(text.splitlines()[-1])["result"]
        found[dims] = {"min_slack": res["min_slack"], "trial_index": res["trial_index"],
                       "violations": res["violations"]}
    return found


def jobs_probe(seed: int, out: Path, ledger: Ledger) -> None:
    """The --jobs 1 and --jobs 2 result records must be identical."""
    dims, trials = JOBS_PROBE
    lines = []
    for jobs in (1, 2):
        rc, _, text, err = run_cli(search_argv(dims, trials, seed, jobs), out)
        if err or rc != 0:
            ledger.op([err or f"jobs probe exit {rc}"])
            return
        lines.append(text.splitlines()[-1])
    ledger.op([] if lines[0] == lines[1] else
              [f"jobs probe seed {seed}: --jobs 1 and --jobs 2 results differ"])


# -- verify-conjecture ------------------------------------------------------

def verify_argv(dims: str, states: int, seed: int) -> list[str]:
    return ["verify-conjecture", "--dims", dims, "--trials", str(states), "--seed", str(seed)]


PROVEN_ORDER = ("ineq2", "ineq3", "ineq4", "monotonicity_AB", "monotonicity_AC")


def check_verify(text: str, dims: str, states: int, seed: int, ledger: Ledger) -> list[str]:
    """Five reports per state in order, proven ones holding, each ineq4
    violation followed by its finding record."""
    where = f"verify {dims} seed {seed}"
    recs = [json.loads(line) for line in text.splitlines()]
    ledger.records += len(recs)
    want_dims = [int(d) for d in dims.split("x")]
    it = iter(recs)
    reports = 0
    for trial in range(states):
        for name in PROVEN_ORDER:
            rec = next(it, None)
            if rec is None or rec.get("name") != name or "finding" in rec:
                return [f"{where}: trial {trial} expected a {name} report"]
            reports += 1
            if rec.get("trial") != trial or rec.get("seed") != seed or rec.get("dims") != want_dims:
                return [f"{where}: trial {trial} {name} carries wrong metadata"]
            if rec["holds"]:
                continue
            if name != "ineq4":
                return [f"{where}: proven {name} fails at trial {trial}"]
            finding = next(it, None)
            if finding is None or finding.get("finding") != "conjecture-violation":
                return [f"{where}: ineq4 violation at trial {trial} has no finding record"]
            ledger.findings += 1
    if next(it, None) is not None or reports != 5 * states:
        return [f"{where}: {len(recs)} records for {states} states"]
    return []


def verify_batch(batch: int, seeds, out: Path):
    total = 0.0
    outputs = []
    for k, dims in enumerate(VERIFY_DIMS):
        seed = int(seeds[(batch * len(VERIFY_DIMS) + k) % len(seeds)])
        rc, dt, text, err = run_cli(verify_argv(dims, VERIFY_STATES, seed), out)
        total += dt
        outputs.append((dims, seed, rc, text, err))
    return VERIFY_STATES * len(VERIFY_DIMS), total, outputs


def check_verify_batch(outputs, ledger: Ledger) -> None:
    for dims, seed, rc, text, err in outputs:
        if err:
            ledger.op([err])
            continue
        problems = [] if rc == 0 else [f"verify {dims} seed {seed}: exit {rc}"]
        ledger.op(problems + check_verify(text, dims, VERIFY_STATES, seed, ledger))


def verify_anchor(out: Path) -> dict:
    found = {}
    for dims in VERIFY_DIMS:
        rc, _, text, err = run_cli(verify_argv(dims, VERIFY_ANCHOR_STATES, 0), out)
        if err or rc != 0:
            found[dims] = {"error": err or f"exit {rc}"}
            continue
        found[dims] = {
            "records": len(text.splitlines()),
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "values": [json.loads(line) for line in text.splitlines()],
        }
    return found


# -- selftest ---------------------------------------------------------------

def criterion(name: str, seed: int, tracer=None):
    """Run one criterion through the module attribute, so tracer wrappers
    apply; returns (result, wall s, error)."""
    if tracer is not None:
        tracer.group = tracer.op = CRITERION_INDEX[name]
    t0 = perf_counter()
    try:
        res = getattr(acceptance, name)(seed)
    except Exception as exc:
        return None, perf_counter() - t0, f"criterion {name} raised {exc!r}"
    finally:
        if tracer is not None:
            tracer.close_windows()
    return res, perf_counter() - t0, None


def selftest_details(names, seed: int) -> dict:
    out = {}
    for name in names:
        res, _, err = criterion(name, seed)
        out[name] = {"error": err} if err else {"passed": res.passed, "details": res.details}
    return out


# -- the workload table ------------------------------------------------------

def median_iqr(values) -> tuple[float, float]:
    if len(values) == 1:
        return values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q3 - q1


class Workload:
    """One named workload: its anchor check, its timed batch and the check
    of a batch's outputs."""

    def __init__(self, name: str, seed: int, out: Path, ledger: Ledger, reference: dict):
        self.name = name
        self.seed = seed
        self.out = out
        self.ledger = ledger
        self.reference = reference
        self.seeds = cli_seeds(seed)

    @property
    def op_root(self) -> str | None:
        if self.name.startswith("selftest"):
            return None  # criterion() sets the op id
        return "qstate.random_state" if self.name == "verify-states" else "search.run_trial"

    def anchor(self) -> None:
        """Untimed seed-0 reference check; one op per configuration."""
        if self.name.startswith("ineq4-search"):
            ref = self.reference["search_anchor"]["results"]
            for dims, got in search_anchor(self.out).items():
                self.ledger.op([] if close(got, ref[dims]) else
                               [f"search anchor {dims}: {got} differs from reference {ref[dims]}"])
        elif self.name == "verify-states":
            ref = self.reference["verify_anchor"]["results"]
            self.anchor_sha_match = True
            for dims, got in verify_anchor(self.out).items():
                want = ref[dims]
                if "error" in got:
                    self.ledger.op([f"verify anchor {dims}: {got['error']}"])
                    continue
                self.anchor_sha_match &= got["sha256"] == want["sha256"]
                ok = got["records"] == want["records"] and close(got["values"], want["values"])
                self.ledger.op([] if ok else [f"verify anchor {dims}: records differ from reference"])
        else:
            name = SELFTEST_ANCHOR[self.name]
            res, _, err = criterion(name, 0)
            self.check_selftest([(name, res, err)], seed=0)
        if self.name == "ineq4-search-jobs2":
            jobs_probe(int(self.seeds[-1]), self.out, self.ledger)

    def batch(self, index: int, tracer=None, jobs: int | None = None):
        """Run one timed batch; returns (ops, wall s, pending check)."""
        if self.name.startswith("ineq4-search"):
            if jobs is None:
                jobs = 2 if self.name.endswith("jobs2") else 1
            ops, dt, outputs = search_batch(index, self.seeds, jobs, self.out)
            return ops, dt, lambda: check_search_batch(outputs, jobs, self.ledger)
        if self.name == "verify-states":
            ops, dt, outputs = verify_batch(index, self.seeds, self.out)
            return ops, dt, lambda: check_verify_batch(outputs, self.ledger)
        names = SELFTEST[self.name]
        total = 0.0
        results = []
        for name in names:
            res, dt, err = criterion(name, self.seed, tracer)
            total += dt
            results.append((name, res, err))
        return len(names), total, lambda: self.check_selftest(results)

    def check_selftest(self, results, seed: int | None = None) -> None:
        """Each criterion must pass; at seed 0 its details must also match
        reference.json."""
        seed = self.seed if seed is None else seed
        ref = self.reference["selftest_seed0"]
        for name, res, err in results:
            if err:
                self.ledger.op([err])
                continue
            problems = [] if res.passed else [f"criterion {name} did not pass: {res.details}"]
            if seed == 0 and not close(res.details, ref[name]["details"]):
                problems.append(f"criterion {name} details {res.details} differ from reference")
            self.ledger.op(problems)


def timed_loop(workload: Workload, seconds: float, tracer=None, jobs=None):
    """Closed loop of batches for about `seconds`. Returns the per-batch
    (ops, wall s, start, end) samples, the loop's wall time and the checks
    still to run. Only the entry-point calls are timed; an untraced run
    checks each batch as soon as it ends, so outputs are not kept, while a
    traced run defers the checks until the tracer is removed, because they
    call into negmono."""
    samples, checks = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        ops, dt, check = workload.batch(len(samples), tracer, jobs)
        samples.append((ops, dt, t0, perf_counter()))
        if tracer is None:
            check()
        else:
            checks.append(check)
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(samples) > seconds:
            break
    wall = perf_counter() - start
    return samples, wall, checks


def rates(samples) -> list[float]:
    return [ops / dt for ops, dt, _, _ in samples]


# Reference pass time of the probe kernel on the machine the benchmark was
# defined on (2-core x86-64 at 2.1 GHz); it fixes the scale of the
# normalised rates and must not change.
PROBE_REF_S = 4e-3


def norm_rates(samples, probe) -> list[float]:
    """Rates rescaled to the reference machine speed: the raw rate times
    the probe's mean pass time during the batch over PROBE_REF_S."""
    return [ops / dt * probe.mean_cpu(t0, t1) / PROBE_REF_S for ops, dt, t0, t1 in samples]


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)
