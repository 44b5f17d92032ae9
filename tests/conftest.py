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
