"""Command line interface.

Reports go to stdout, one JSON object per line (NDJSON) unless CSV is
selected where supported. Progress and diagnostics go to stderr. Exit
status is 0 when every checked statement holds (a violation of a
conjectured inequality is reported as a finding but still exits 0),
1 when a proven statement is violated numerically or a certified chain
step fails, 2 on usage errors, 3 on any other failure of the run (say, a
LAPACK routine failed) and 141 when the reader closes stdout early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict
from functools import cache

import numpy as np

from . import acceptance
from .imfunc import DEFAULT_QUAD_TOL, DEFAULT_THETA, IMParams, sup_error_table
from .matcore import (TAU_CHECK, _at_least, _finite_number, _rng, _three_sizes, complex_gaussian,
                      load_matrix)
from .monogamy import CONJECTURED, VERIFY, verify_batch
from .permlemma import D_MAX, check_commutative, drury_numeric_check, max_rearranged_sum
from .qstate import _random_coeffs
from .search import TARGETS, SearchConfig, run_search
from .specialcase import interlacing_trace, pad_square
from .errors import StepFailedError

# One compact encoder for every record, rather than one per json.dumps call;
# numpy scalars (np.int64, np.bool_, ...) are written as their Python value.
_encode = json.JSONEncoder(separators=(",", ":"), default=lambda o: o.item()).encode


def _emit(obj: dict, out) -> None:
    out.write(_encode(obj) + "\n")


def _parse_dims(text: str) -> tuple[int, int, int]:
    try:
        return _three_sizes([int(p) for p in text.lower().split("x")])
    except ValueError:
        raise ValueError(f"--dims must be AxBxC with positive integer sizes, "
                         f"got {text!r}") from None


def _resolve_seed(args) -> int:
    """--seed, else NEGMONO_SEED, else 0; anything but an integer >= 0 is a usage error."""
    if args.seed is not None:
        source, text = "--seed", str(args.seed)
    else:
        source, text = "NEGMONO_SEED", os.environ.get("NEGMONO_SEED", "0")
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ValueError(f"{source} must be a non-negative integer, got {text!r}")
    return seed


@contextmanager
def _output(path):
    """stdout, or the file at path opened for writing and closed on exit."""
    if path is None or path == "-":
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8") as fh:
        yield fh


def _verdict(blocks, out) -> int:
    """Write each block (text, failed), in order, and return the exit
    status: 1 when a proven report failed, else 0. text holds a record per
    line, and failed the (name, slack, record) of its failed reports in
    order. A failed report named in monogamy.CONJECTURED is a finding: a
    finding record follows its line, and a stderr note names it. The failed
    proven report with the lowest slack (the first on ties) is named in one
    stderr line at the end. A block without a finding is one write.

    This is the one verdict loop. A record is its report's record as _encode
    writes it: special-case, perm-lemma and drury-check pass _rows(reports);
    verify-conjecture passes a block per chunk (_verify_rows), byte for byte
    the records of monogamy.verify_reports."""
    worst = None
    for text, failed in blocks:
        pos = 0
        for name, slack, record in failed:
            if name in CONJECTURED:
                end = text.index(record + "\n", pos) + len(record) + 1
                out.write(text[pos:end] + '{"finding":"conjecture-violation",' + record[1:] + "\n")
                pos = end
                print(f"finding: {name} violated at trial {json.loads(record)['trial']} "
                      f"(slack {slack:.3e})", file=sys.stderr)
            elif worst is None or slack < worst[1]:
                worst = (name, slack)
        out.write(text[pos:])
    if worst is None:
        return 0
    print(f"proven statement violated: {worst[0]} slack {worst[1]:.3e}", file=sys.stderr)
    return 1


def _rows(reports):
    """The _verdict blocks of InequalityReport objects, one report each."""
    for rep in reports:
        record = _encode(rep.to_dict())
        yield record + "\n", [] if rep.holds else [(rep.name, rep.slack, record)]


# verify-conjecture streams its reports over an unbounded --trials, drawing
# at most CHUNK states and CHUNK_ENTRIES entries of Z1 and Z2 per
# verify_batch call; the output depends on neither bound.
CHUNK = 512
CHUNK_ENTRIES = 2 ** 17


def _chunk_states(dims) -> int:
    """States per verify_batch call at dims: per-state time falls up to 512
    states, and the entries bound keeps large stacks (64 states at 8x4x4,
    16 at 8x8x8) at or below the memory of 64 states."""
    dA, dB, dC = dims
    return max(1, min(CHUNK, CHUNK_ENTRIES // ((dA * dB) ** 2 + (dA * dC) ** 2)))


def _verify_rows(dims, trials: int, tol: float, seed: int):
    """The _verdict blocks of verify-conjecture, one per chunk of
    _chunk_states(dims) states, rendered from the arrays of verify_batch
    as monogamy.VERIFY lays them out. slack, holds and slack_rel are the
    IEEE operations of make_report and monogamy.verify_reports, taken on
    arrays. A state has 15 distinct floats (the seven verify_batch columns,
    the five slacks and the three slack_rel of the CONJECTURED reports), and
    all floats of a chunk are written by one _encode call, each once, so NaN
    and Infinity read as in any record. A chunk's text is one % of a fixed
    per-state template (a record per report, with the key order of
    InequalityReport.to_dict) over the chunk's argument columns; a failed
    record is its line of that text."""
    rng = _rng(seed)
    dims_text = _encode([int(d) for d in dims])
    lhs, rhs = np.array([cols for _, *cols in VERIFY]).T
    conj = np.array([name in CONJECTURED for name, *_ in VERIFY])
    state_template = "".join(
        f'{{"name":"{name}","lhs":%s,"rhs":%s,"slack":%s,"holds":%s,'
        f'"dims":{dims_text}{"%s" if rel else ""},"seed":{seed},"trial":%d}}\n'
        for (name, *_), rel in zip(VERIFY, conj))
    width = _chunk_states(dims)
    for start in range(0, trials, width):
        c = _random_coeffs(dims, rng, min(width, trials - start))
        v = np.column_stack(verify_batch(c))
        with np.errstate(all="ignore"):  # Python float arithmetic does not warn
            # (N, 5): one column per report of VERIFY
            slack = v[:, rhs] - v[:, lhs]
            rel = slack[:, conj] / v[:, rhs[conj]]
        holds = slack >= -tol
        values = np.column_stack((v, slack, rel))
        f = np.array(_encode(values.ravel().tolist())[1:-1].split(","), dtype=object)
        f = f.reshape(values.shape)
        n = v.shape[1]
        holds_text = np.where(holds, "true", "false")
        # the slack_rel columns, taken in turn by the CONJECTURED reports
        rel_text = iter(np.where(v[:, rhs[conj]] > 0,
                                 ',"slack_rel":' + f[:, n + len(VERIFY):], "").T)
        trial = np.arange(start, start + len(c))
        args = np.stack([col for k in range(len(VERIFY))
                         for col in (f[:, lhs[k]], f[:, rhs[k]], f[:, n + k], holds_text[:, k],
                                     *((next(rel_text),) if conj[k] else ()), trial)], axis=1)
        text = (state_template * len(c)) % tuple(args.ravel().tolist())
        bad = np.argwhere(~holds)  # (state, report) of each failed record, in output order
        lines = text.split("\n") if len(bad) else ()
        yield text, [(VERIFY[k][0], float(slack[i, k]), lines[i * len(VERIFY) + k]) for i, k in bad]


def _cmd_verify(args) -> int:
    seed = _resolve_seed(args)
    dims = _parse_dims(args.dims)
    with _output(args.out) as out:
        return _verdict(_verify_rows(dims, args.trials, args.tol, seed), out)


def _cmd_special(args) -> int:
    seed = _resolve_seed(args)
    if args.file is not None:
        b = pad_square(load_matrix(args.file))
    else:
        b = complex_gaussian(_rng(seed), (args.d, args.d))
    with _output(args.out) as out:
        trace = interlacing_trace(b, tol=args.tol)
        return _verdict(_rows(rep.with_meta(seed=seed) for rep in trace.reports), out)


def _perm_reports(d: int, samples: int, tol: float, seed: int):
    rng = _rng(seed)
    for sample in range(samples):
        mu = np.sort(rng.random(d))[::-1]
        _, image = max_rearranged_sum(mu)
        yield check_commutative(mu, image, tol=tol).with_meta(
            seed=seed, sample=sample, argworst=[int(i) for i in image])


def _exhaustive(args, reports) -> int:
    """The verdict of reports that enumerate all permutations of size args.d."""
    if args.d > D_MAX:
        raise ValueError(f"d={args.d} exceeds the exhaustive limit {D_MAX}")
    with _output(args.out) as out:
        return _verdict(_rows(reports), out)


def _cmd_perm(args) -> int:
    return _exhaustive(args, _perm_reports(args.d, args.samples, args.tol, _resolve_seed(args)))


def _drury_reports(d: int, trials: int, tol: float, seed: int):
    rng = _rng(seed)
    for trial in range(trials):
        b = complex_gaussian(rng, (d, d))
        yield drury_numeric_check(b, tol=tol).with_meta(seed=seed, trial=trial)


def _cmd_drury(args) -> int:
    return _exhaustive(args, _drury_reports(args.d, args.trials, args.tol, _resolve_seed(args)))


def _parse_grid(text: str) -> tuple[float, float, int]:
    try:
        lo, hi, n = text.split(":")
        return float(lo), float(hi), int(n)
    except ValueError:
        raise ValueError(f"--grid must be lo:hi:n with an integer n, got {text!r}") from None


def _cmd_im(args) -> int:
    lo, hi, n = _parse_grid(args.grid)
    try:
        s_values = [float(s) for s in args.s_list.split(",")]
    except ValueError:
        raise ValueError(f"--s-list must be comma-separated numbers, got {args.s_list!r}") from None
    params = IMParams(theta=args.theta, quad_tol=args.quad_tol,
                      grid_lo=lo, grid_hi=hi, grid_n=n)
    table = sup_error_table(s_values, params)
    with _output(args.out) as out:
        if args.format == "csv":
            out.write("s,sup_error\n")
            for s, err in table:
                out.write(f"{s:.17g},{err:.17g}\n")
        else:
            for s, err in table:
                _emit({"s": s, "sup_error": err, "theta": args.theta}, out)
    return 0


def _cmd_search(args) -> int:
    seed = _resolve_seed(args)
    dims = _parse_dims(args.dims) if args.dims is not None else None
    cfg = SearchConfig(target=args.target, dims=dims, d=args.d,
                       trials=args.trials, local_steps=args.local_steps,
                       step_scale=args.step_scale, seed=seed, tol=args.tol)
    with _output(args.out) as out:
        def on_trial(t: int, slack: float) -> None:
            if args.jobs == 1:
                _emit({"trial": t, "slack": slack}, out)
            if (t + 1) % 1000 == 0:
                print(f"{t + 1}/{cfg.trials} trials", file=sys.stderr)

        res = run_search(cfg, jobs=args.jobs, on_trial=on_trial)
        _emit({"result": res.to_dict(), "target": cfg.target, "seed": seed}, out)
    if res.violations:
        kind = "finding" if cfg.target in CONJECTURED else "proven statement violated"
        print(f"{kind}: {res.violations} violation(s) for target {cfg.target}",
              file=sys.stderr)
        if cfg.target not in CONJECTURED:
            return 1
    return 0


def _cmd_selftest(args) -> int:
    seed = _resolve_seed(args)
    failed = 0
    with _output(args.out) as out:
        for fn in acceptance.CRITERIA:
            res = fn(seed)
            print(res.line(), file=sys.stderr)
            _emit(asdict(res), out)
            if not res.passed:
                failed += 1
    return 1 if failed else 0


# built once per process: argparse makes a help formatter per option (~2 ms)
@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="negmono",
        description="Numerical checks for block-matrix negativity bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol=True):
        p.add_argument("--seed", type=int, default=None,
                       help="rng seed (default: NEGMONO_SEED or 0)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if tol:
            p.add_argument("--tol", type=float, default=TAU_CHECK,
                           help="slack tolerance")

    p = sub.add_parser("verify-conjecture",
                       help="check the monogamy inequalities on random states")
    common(p)
    p.add_argument("--dims", default="2x2x2", help="local dimensions AxBxC")
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("special-case",
                       help="run the certified two-block chain on a matrix")
    common(p)
    p.add_argument("--file", default=None, help="matrix JSON file")
    p.add_argument("--d", type=int, default=4, help="size for a random matrix")
    p.set_defaults(func=_cmd_special)

    p = sub.add_parser("perm-lemma",
                       help="check the rearranged square-root sum bound")
    common(p)
    p.add_argument("--d", type=int, default=5)
    p.add_argument("--samples", type=int, default=20)
    p.set_defaults(func=_cmd_perm)

    p = sub.add_parser("drury-check",
                       help="compare the commutator-gap trace to the "
                            "rearrangement maximum")
    common(p)
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--trials", type=int, default=50)
    p.set_defaults(func=_cmd_drury)

    p = sub.add_parser("im-approx",
                       help="tabulate sup errors of the smooth square-root "
                            "approximation")
    p.add_argument("--theta", type=float, default=DEFAULT_THETA)
    p.add_argument("--s-list", default="1,4,16,64,100")
    p.add_argument("--grid", default="-10:10:2001", help="lo:hi:n")
    p.add_argument("--quad-tol", type=float, default=DEFAULT_QUAD_TOL)
    p.add_argument("--format", choices=("ndjson", "csv"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_im)

    p = sub.add_parser("search", help="randomized counterexample search")
    common(p)
    p.add_argument("--target", choices=TARGETS, required=True)
    p.add_argument("--dims", default=None, help="AxBxC (ineq4 only)")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--local-steps", type=int, default=20)
    p.add_argument("--step-scale", type=float, default=0.25)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    common(p, tol=False)
    p.set_defaults(func=_cmd_selftest)

    return parser


def _check_usage(args) -> None:
    """Reject option values that make a run vacuous or meaningless: a
    non-finite --tol, and fewer than one trial, sample, job or matrix row
    (--d, which search may leave out)."""
    _finite_number("--tol", getattr(args, "tol", 0.0))
    for name in ("trials", "samples", "jobs", "d"):
        if getattr(args, name, None) is not None:
            _at_least(f"--{name}", getattr(args, name), 1)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _check_usage(args)
        return args.func(args)
    except StepFailedError as exc:
        print(f"certified chain failed at {exc.step}: {exc}", file=sys.stderr)
        print(_encode({"instance": exc.instance}), file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed stdout (`negmono ... | head`): not a usage error.
        # Point stdout at devnull so the flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE, as a shell reports a process it killed
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash is never a finding
        print(f"internal error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
