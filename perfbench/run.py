"""Benchmark of negmono's user-facing entry points.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. With --trace 0 the run measures the
end-to-end metrics of BENCHMARK.json; with --trace 1 it measures the
workload untraced for half the time and traced for the other half, and
reports the per-layer metrics with the tracing overhead. Human-readable
lines and a manifest go to stdout first; the last stdout line is the JSON
result. The exit code is 0 only when every op was correct, 2 on bad usage
or when the package sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"

WORKLOADS = ("ineq4-search", "ineq4-search-jobs2", "verify-states",
             "selftest-chain", "selftest-perm")
OP_NAMES = {
    "ineq4-search": "trials/s at --jobs 1",
    "ineq4-search-jobs2": "trials/s at --jobs 2",
    "verify-states": "states/s",
    "selftest-chain": "criteria 1-5 per s",
    "selftest-perm": "criteria 6-9 per s",
}
# Fresh-interpreter imports timed before and again after the timed loop
# (after one untimed warm-up that writes the bytecode cache): the host's
# speed drifts over minutes, so the two halves sample it at different times.
SETUP_REPEATS = 5
# Import time of numpy alone in a fresh interpreter on the machine the
# benchmark was defined on; it fixes the scale of setup_s and must not change.
NUMPY_IMPORT_REF_S = 0.15


NOT_CONTROLLED = [
    "no CPU pinning of the benchmark process",
    "no CPU frequency or cache control",
    "2 cores shared with other tenants of the machine",
    "BLAS threads left at the library default",
]


def _fresh_import(module: str) -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", f"import {module}"], env=env, check=True,
                   cwd=ROOT, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def measure_setup(repeats: int) -> list[tuple[float, float]]:
    """Pairs of wall times, from starting a fresh interpreter until it has
    imported and exited: `import negmono`, then `import numpy` alone.

    The import time of a fresh process moves by up to 50% between phases of
    a few minutes on a 2-vCPU shared host (fresh pages and file reads, not CPU speed:
    it does not follow the probe kernel), but the two imports move together
    (correlation 0.87), so setup_s rescales each negmono import by the
    numpy import next to it."""
    return [(_fresh_import("negmono"), _fresh_import("numpy")) for _ in range(repeats)]


def blas_info() -> dict:
    import ctypes

    import numpy as np

    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version"),
                "config": blas.get("openblas configuration")}
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line and line.rstrip().endswith(".so")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                fn = getattr(handle, f"{prefix}get_num_threads{suffix}", None)
                core = getattr(handle, f"{prefix}get_corename{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = fn()
                if core is not None:
                    core.restype = ctypes.c_char_p
                    info["core"] = core().decode()
    info["thread_env"] = {k: os.environ.get(k) for k in
                          ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return info


def manifest(args) -> dict:
    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                    capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "negmono").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "argv": sys.argv,
        "not_controlled": NOT_CONTROLLED,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("seed must be >= 0 and seconds > 0", file=sys.stderr)
        return 2
    if not (SRC / "negmono" / "__init__.py").is_file():
        print(f"negmono sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads as wl
    from layers import PER_LAYER, per_layer
    from probe import Probe
    from tracer import Tracer

    RESULTS.mkdir(exist_ok=True)
    scratch = RESULTS / f"tmp-{os.getpid()}"
    scratch.mkdir()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if not args.trace:
            measure_setup(1)
            setup = measure_setup(SETUP_REPEATS)
        ledger = wl.Ledger()
        work = wl.Workload(args.workload, args.seed, scratch / "out.ndjson", ledger,
                           wl.load_reference())
        work.anchor()
        report: dict = {"manifest": manifest(args)}
        if not args.trace:
            with Probe(scratch / "probe.log") as probe:
                samples, _, _ = wl.timed_loop(work, args.seconds)
            setup += measure_setup(SETUP_REPEATS)
            rate, rate_iqr = wl.median_iqr(wl.rates(samples))
            norm, norm_iqr = wl.median_iqr(wl.norm_rates(samples, probe))
            setup_s, setup_iqr = wl.median_iqr(
                [neg * NUMPY_IMPORT_REF_S / np_only for neg, np_only in setup])
            raw_setup = statistics.median(neg for neg, _ in setup)
            report["raw_ops_per_s"] = {"value": rate, "iqr": rate_iqr, "samples": len(samples)}
            report["raw_setup_s"] = {"value": raw_setup, "samples": len(setup)}
            metrics = {
                "norm_ops_per_s": (norm, "1/s", norm_iqr, len(samples)),
                "setup_s": (setup_s, "s", setup_iqr, len(setup)),
                "peak_rss_mb": (peak_rss_mb(), "MB", 0.0, 1),
            }
        else:
            half = args.seconds / 2.0
            jobs = 1 if args.workload.startswith("ineq4-search") else None
            tracer = Tracer(op_root=work.op_root)
            with Probe(scratch / "probe.log") as probe:
                plain, _, _ = wl.timed_loop(work, half, jobs=jobs)
                records_before = ledger.records
                tracer.install()
                try:
                    samples, wall, checks = wl.timed_loop(work, half, tracer, jobs=jobs)
                finally:
                    tracer.uninstall()
            for check in checks:
                check()
            untraced = statistics.median(wl.norm_rates(plain, probe))
            traced = statistics.median(wl.norm_rates(samples, probe))
            layer = per_layer(args.workload, tracer, ledger.records - records_before,
                              wall, untraced, traced)
            metrics = {k: (v, PER_LAYER[k], 0.0, 1) for k, v in layer.items()}
            tracer.save(RESULTS / f"spans-{tag}.npz")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    correct = ledger.failed == 0
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}: {OP_NAMES[args.workload]}")
    for name, (value, unit, iqr, n) in metrics.items():
        extra = f"  (median of {n}, IQR {iqr:.4g})" if n > 1 else ""
        print(f"  {name:48s} {value:.6g} {unit}{extra}")
    if not args.trace:
        print(f"  {'ops_per_s (raw, not normalised)':48s} {rate:.6g} 1/s"
              f"  (median of {len(samples)}, IQR {rate_iqr:.4g})")
        print(f"  {'setup_s (raw, not normalised)':48s} {raw_setup:.6g} s")
    print(f"  fail_ratio {ledger.failed}/{ledger.attempted}  ineq4 findings {ledger.findings}")
    if args.workload == "verify-states":
        report["anchor_sha256_match"] = work.anchor_sha_match
        print(f"  anchor NDJSON sha256 matches reference: {work.anchor_sha_match}")
    for problem in ledger.problems[:20]:
        print(f"  FAIL {problem}")
    report.update(problems=ledger.problems, findings=ledger.findings,
                  metrics={k: {"value": v, "unit": u, "iqr": i, "samples": n}
                           for k, (v, u, i, n) in metrics.items()})
    with open(RESULTS / f"run-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({"manifest": report["manifest"]}))
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
