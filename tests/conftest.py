import concurrent.futures
import sys

import numpy as np
import pytest


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
def in_process_pool(monkeypatch):
    """A list of the max_workers of every process pool started, in order,
    while a stand-in pool maps in this process: no worker is started
    whatever the size asked for, and call_counts sees every call."""
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return sizes
