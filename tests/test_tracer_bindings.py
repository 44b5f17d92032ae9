"""The benchmark's tracer (perfbench/tracer.py) wraps negmono functions that
it names in its SPANNED table. A spanned name that the package no longer
defines stops `perfbench/run.py --trace 1` from installing, so these tests
keep the table and the package in step."""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from negmono import search
from negmono.search import SearchConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("tracer")
    for name in ("tracer", "workloads"):
        sys.modules.pop(name, None)


def test_every_spanned_name_exists(tracer):
    missing = [
        f"negmono.{short}.{name}"
        for short, names in tracer.SPANNED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"negmono.{short}"), name, None))
    ]
    assert missing == []


def test_tracer_installs_runs_and_restores(tracer):
    originals = {name: getattr(search, name) for name in tracer.SPANNED["search"]}
    eigvalsh = np.linalg.eigvalsh
    t = tracer.Tracer(op_root="search.run_trial")
    t.install()
    try:
        cfg = SearchConfig(target="ineq4", dims=(2, 2, 2), trials=3, seed=0)
        traced = [search.run_trial(cfg, i) for i in range(cfg.trials)]
        assert t.op == cfg.trials
        assert t.stat("search.run_trial")[0] == cfg.trials
    finally:
        t.uninstall()
    assert {name: getattr(search, name) for name in originals} == originals
    assert np.linalg.eigvalsh is eigvalsh
    assert traced == [search.run_trial(cfg, i) for i in range(cfg.trials)]
