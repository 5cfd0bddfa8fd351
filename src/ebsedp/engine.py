"""Kernel selection: the compiled DPLL core (_dpllcore, built from Cython)
when it imports, else the pure-Python watched-literal kernel (_dpll_py).
Both run the same search and return the same models.
"""

from __future__ import annotations

from . import _dpll_py

try:
    from . import _dpllcore as _impl
    KERNEL = "compiled"
except ImportError:
    _impl = _dpll_py  # type: ignore[assignment]
    KERNEL = "pure"

solve = _impl.solve
