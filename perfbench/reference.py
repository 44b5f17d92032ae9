"""Regenerate perfbench/reference.json: the seed-0 outputs that pin the
benchmark's correctness gate.

    python3 perfbench/reference.py

Takes about two minutes, most of it criterion 10 (conjecture_scan), whose
seed-0 outputs are stored for later kernels to be checked against but are
not re-run by the benchmark itself.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from negmono import acceptance  # noqa: E402


def main() -> int:
    scratch = Path(__file__).resolve().parent / "results" / "tmp-reference"
    scratch.mkdir(parents=True, exist_ok=True)
    out = scratch / "out.ndjson"
    try:
        ref = {
            "tolerance": {
                "rule": "|got - want| <= abs + rel * |want| for floats; other values exact",
                "rel": wl.REL_TOL, "abs": wl.ABS_TOL, "replay": wl.REPLAY_TOL,
            },
            "search_anchor": {
                "argv": wl.search_argv("<dims>", wl.SEARCH_ANCHOR_TRIALS, 0, 1),
                "results": wl.search_anchor(out),
            },
            "verify_anchor": {
                "argv": wl.verify_argv("<dims>", wl.VERIFY_ANCHOR_STATES, 0),
                "results": wl.verify_anchor(out),
            },
            "selftest_seed0": wl.selftest_details(
                wl.SELFTEST["selftest-chain"] + wl.SELFTEST["selftest-perm"], 0),
        }
        scan = acceptance.conjecture_scan(0)
        ref["conjecture_scan_seed0"] = {"passed": scan.passed, "details": scan.details,
                                        "elapsed_s": scan.elapsed_s}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(wl.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
