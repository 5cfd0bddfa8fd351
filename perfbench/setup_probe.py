"""Set-up time of a fresh interpreter: ``import ebsedp`` (kernel selection
included) plus reading and parsing the given input files.

Usage: python3 setup_probe.py SRC_DIR FILE...
Prints the elapsed seconds on stdout.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])

import ebsedp  # noqa: E402

for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        problem = ebsedp.parse_problem(fh.read(), require_formula=False)
    if problem.formula is not None:
        ebsedp.to_pcnf(problem.formula, problem.vocabulary, problem.declared_free)

print(repr(time.perf_counter() - START))
