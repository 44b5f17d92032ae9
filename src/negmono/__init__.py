"""Numerical tools for block-matrix negativity bounds on tripartite states.

Import each function from its module, as in `from negmono.monogamy import
ineq4_report`. Importing the package loads every module but `cli`.
"""

from . import acceptance, errors, imfunc, matcore, monogamy, permlemma, qstate, search, specialcase

__version__ = "0.1.0"
