"""In-memory span tracer that instruments negmono from the outside.

The tracer wraps module-level functions of negmono (and three numpy.linalg
decompositions) at every namespace that binds them, so a call made through
any import alias is recorded. Nothing under src/ is modified; `uninstall`
puts every original binding back.

Each span records its name, start, end, parent span and op id. Aggregates
(calls, inclusive time, self time, n^3 work) are kept per (name, group) as
the spans close, so metrics never need to rescan the raw spans; the raw
spans are kept in compact arrays and written out at the end of a run.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

from workloads import CRITERIA

LINALG = ("eigvalsh", "eigh", "svd")

# Functions that get a span, by module. The numpy.linalg decompositions are
# added separately because they live outside the package.
SPANNED = {
    "cli": ("main",),
    "search": ("run_trial", "local_descend", "evaluate_slack", "serialize_instance"),
    "monogamy": ("ineq2_report", "ineq3_report", "ineq4_report", "monotonicity_report",
                 "build_Z1", "build_Z2"),
    "qstate": ("random_state", "density", "partial_transpose_A", "partial_trace_B",
               "partial_trace_C", "state_to_dict"),
    "matcore": ("hermitian_eigenvalues", "hermitian_eig", "require_hermitian", "psd_sqrt",
                "as_complex_matrix", "make_report"),
    "specialcase": ("interlacing_trace", "commutator_gap", "build_special_Z",
                    "connecting_unitary"),
    "permlemma": ("commutative_lhs", "ma_chains", "drury_numeric_check"),
    "imfunc": ("h_grid",),
    "acceptance": CRITERIA,
}

# Every PERM_SAMPLE-th commutative_lhs call opens a window, closed by the
# next call, in which sys.setprofile counts Python-level calls; the window
# covers one spectrum-permutation pair of criterion 6.
PERM_SAMPLE = 97

# Raw spans kept for writing out; aggregates stay exact beyond this.
SPAN_CAP = 3_000_000


def _n3(args) -> int:
    """Work of one decomposition, as computed: n^3 for eigvalsh/eigh and
    m*n*min(m, n) for svd, times the number of stacked matrices."""
    shape = np.shape(args[0])
    m, n = shape[-2], shape[-1]
    batch = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
    return batch * m * n * min(m, n)


class Tracer:
    def __init__(self, op_root: str | None = None):
        self.op_root = op_root
        self.ids: dict[str, int] = {}
        self.names: list[str] = []
        self.stats: dict[tuple[int, int], list] = {}
        self.durations: dict[str, list[float]] = {"search.run_trial": [],
                                                   "specialcase.interlacing_trace@8": []}
        self.counts: Counter = Counter()
        self.group = 0
        self.op = 0
        self._stack: list[list] = []
        self._next_span = 0
        self.spans = {k: array(t) for k, t in (("id", "q"), ("name", "i"), ("start", "d"),
                                                ("end", "d"), ("parent", "q"), ("op", "q"))}
        self._restore: list[tuple[object, str, object]] = []
        self._closers: list = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def span(self, name: str, fn, work=None):
        """Wrap fn so each call records a span named name; work(args) gives
        the n^3 work credited to the span."""
        nid = self._id(name)
        is_root = name == self.op_root
        keep = self.durations.get(name)
        stack = self._stack
        stats = self.stats
        spans = self.spans

        def wrapper(*args, **kwargs):
            if is_root:
                self.op += 1
            sid = self._next_span
            self._next_span += 1
            frame = [0.0, sid]
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                key = (nid, self.group)
                rec = stats.get(key)
                if rec is None:
                    rec = stats[key] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]
                if work is not None:
                    rec[3] += work(args)
                if keep is not None:
                    keep.append(dur)
                if sid < SPAN_CAP:
                    spans["id"].append(sid)
                    spans["name"].append(nid)
                    spans["start"].append(start)
                    spans["end"].append(end)
                    spans["parent"].append(parent)
                    spans["op"].append(self.op)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- layer-specific observers -------------------------------------------

    def _search_wrappers(self, mod):
        """local_descend and evaluate_slack, plus the accept-ratio observer:
        inside a descent the first evaluation is the start point and each
        later one a proposal, accepted when strictly below the best so far
        (the rule local_descend applies)."""
        ev = self.span("search.evaluate_slack", mod.evaluate_slack)
        ld = self.span("search.local_descend", mod.local_descend)
        state = {"active": False, "best": None}
        counts = self.counts

        def local_descend(*args, **kwargs):
            state["active"], state["best"] = True, None
            try:
                return ld(*args, **kwargs)
            finally:
                state["active"] = False

        def evaluate_slack(target, instance):
            value = ev(target, instance)
            if state["active"]:
                if state["best"] is None:
                    state["best"] = value
                else:
                    counts["search.proposals"] += 1
                    if value < state["best"]:
                        counts["search.accepted"] += 1
                        state["best"] = value
            return value

        return {"local_descend": local_descend, "evaluate_slack": evaluate_slack}

    def _interlacing_wrapper(self, fn):
        inner = self.span("specialcase.interlacing_trace", fn)
        at8 = self.durations["specialcase.interlacing_trace@8"]

        def interlacing_trace(b, *args, **kwargs):
            if np.shape(b)[0] != 8:
                return inner(b, *args, **kwargs)
            t0 = perf_counter()
            try:
                return inner(b, *args, **kwargs)
            finally:
                at8.append(perf_counter() - t0)

        return interlacing_trace

    def _commutative_lhs_wrapper(self, fn):
        inner = self.span("permlemma.commutative_lhs", fn)
        counts = self.counts
        state = {"n": 0, "open": False}

        def profile(frame, event, arg):
            if event == "call":
                counts["permlemma.window_calls"] += 1

        def commutative_lhs(*args, **kwargs):
            if state["open"]:
                sys.setprofile(None)
                state["open"] = False
                counts["permlemma.windows"] += 1
            state["n"] += 1
            if state["n"] % PERM_SAMPLE == 0:
                state["open"] = True
                sys.setprofile(profile)
            return inner(*args, **kwargs)

        def close():
            if state["open"]:
                sys.setprofile(None)
                state["open"] = False
                counts["permlemma.windows"] += 1

        self._closers.append(close)
        return commutative_lhs

    def _h_grid_wrapper(self, mod):
        inner = self.span("imfunc.h_grid", mod.h_grid)
        g_scalar = mod._g_scalar
        counts = self.counts

        def counted_g(y, theta):
            counts["imfunc.integrand_evals"] += 1
            return g_scalar(y, theta)

        def h_grid(xs, *args, **kwargs):
            before = counts["imfunc.integrand_evals"]
            out = inner(xs, *args, **kwargs)
            counts["imfunc.h_grid.points"] += int(np.size(xs))
            counts["imfunc.h_grid.evals"] += counts["imfunc.integrand_evals"] - before
            return out

        return {"h_grid": h_grid, "_g_scalar": counted_g}

    # -- installation --------------------------------------------------------

    def _rebind(self, orig, wrapper) -> None:
        """Point every negmono namespace that binds orig at wrapper."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "negmono" or modname.startswith("negmono.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._restore.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        import negmono  # noqa: F401  (loads every submodule)

        for short, names in SPANNED.items():
            mod = sys.modules[f"negmono.{short}"]
            special = {}
            if short == "search":
                special = self._search_wrappers(mod)
            elif short == "imfunc":
                special = self._h_grid_wrapper(mod)
            for name in names:
                orig = getattr(mod, name)
                if name in special:
                    wrapper = special[name]
                elif name == "interlacing_trace":
                    wrapper = self._interlacing_wrapper(orig)
                elif name == "commutative_lhs":
                    wrapper = self._commutative_lhs_wrapper(orig)
                else:
                    wrapper = self.span(f"{short}.{name}", orig)
                self._rebind(orig, wrapper)
            for name, wrapper in special.items():
                if name not in names:
                    self._rebind(getattr(mod, name), wrapper)
        for name in LINALG:
            orig = getattr(np.linalg, name)
            self._restore.append((np.linalg, name, orig))
            setattr(np.linalg, name, self.span(f"linalg.{name}", orig, work=_n3))

    def close_windows(self) -> None:
        """End any open profiling window, e.g. when an op ends."""
        for close in self._closers:
            close()

    def uninstall(self) -> None:
        self.close_windows()
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    # -- queries -------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return self._next_span

    def stat(self, name: str, groups=None) -> tuple[int, float, float, int]:
        """(calls, inclusive s, self s, n^3 work) of name over the given
        groups (all groups when None)."""
        nid = self.ids.get(name)
        calls, total, self_s, work = 0, 0.0, 0.0, 0
        if nid is None:
            return calls, total, self_s, work
        for (n, g), rec in self.stats.items():
            if n == nid and (groups is None or g in groups):
                calls += rec[0]
                total += rec[1]
                self_s += rec[2]
                work += rec[3]
        return calls, total, self_s, work

    def save(self, path) -> None:
        """Write the raw spans and the name table as a compressed .npz."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            recorded=np.array(self._next_span),
            **{k: np.frombuffer(v, dtype=v.typecode) if len(v) else np.array([])
               for k, v in self.spans.items()},
        )
