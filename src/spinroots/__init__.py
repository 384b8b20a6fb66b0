"""Exact construction of rank-4 Coxeter root systems from rank-3 spinors.

The package imports none of its modules, so each command loads only what
it runs: ``roots`` and ``cartan`` never load the spinor code.
"""

__version__ = "0.1.0"
