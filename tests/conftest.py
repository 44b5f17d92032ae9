import concurrent.futures
import os
import sys

import numpy as np
import pytest

from negmono import matcore


@pytest.fixture
def call_counts(monkeypatch):
    """A dict and a function count(module, name) that makes each call of
    module.name add one to dict[name]: at every negmono namespace that
    binds the function, and at numpy.linalg for its decompositions."""
    counts = {}

    def count(module, name):
        orig = getattr(module, name)
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return orig(*args, **kwargs)

        for modname, mod in list(sys.modules.items()):
            if modname == "negmono" or modname.startswith("negmono."):
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        monkeypatch.setattr(mod, attr, wrapper)
        if module is np.linalg:
            monkeypatch.setattr(np.linalg, name, wrapper)

    return counts, count


@pytest.fixture
def cpus(monkeypatch):
    """A function cpus(n) that makes the affinity mask hold n CPUs."""
    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    return set_cpus


@pytest.fixture
def in_process_pool(monkeypatch):
    """A list of the max_workers of every process pool started, in order,
    while a stand-in pool runs each submitted call in this process at once:
    no worker is started whatever the size asked for, and call_counts sees
    every call. The stand-in checks that the pool names its start method."""
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers, mp_context):
            assert mp_context.get_start_method() == matcore.START_METHOD
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            try:
                future.set_result(fn(*args))
            except Exception as exc:
                future.set_exception(exc)
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return sizes
