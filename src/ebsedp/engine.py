"""Kernel selection: the compiled DPLL core (_dpllcore, built from Cython)
when available, else the pure-Python watched-literal kernel (_dpll_py).
Both run the same search and return the same models; EBSEDP_PURE=1 forces
the pure kernel.
"""

from __future__ import annotations

import os

from . import _dpll_py

if os.environ.get("EBSEDP_PURE") == "1":
    _impl = _dpll_py
    KERNEL = "pure"
else:
    try:
        from . import _dpllcore as _impl  # type: ignore[no-redef]
        KERNEL = "compiled"
    except ImportError:
        _impl = _dpll_py
        KERNEL = "pure"

solve = _impl.solve
