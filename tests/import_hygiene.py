"""Check that the CLI and a path solve import only the modules on their route.

Usage: ``python tests/import_hygiene.py INSTANCE`` where INSTANCE is a path
instance file and ``graphfair`` is importable.  The script imports
``graphfair.cli`` and then runs ``solve INSTANCE --problem prop`` through
``cli.main``.  It exits 1 and names the modules that should not have been
imported, if any were; otherwise it exits 0.

It subtracts a baseline first: whatever this interpreter loads for
``argparse``, ``json``, ``fractions``, ``pathlib`` and ``contextlib``,
which graphfair imports anyway, does not count.  A standard library that
loads one of the named modules by itself therefore cannot fail the check.
The check measures no time.
"""

import sys

import argparse  # noqa: F401  (the baseline)
import contextlib
import fractions  # noqa: F401
import io
import json  # noqa: F401
import pathlib  # noqa: F401

BASELINE = set(sys.modules)
ROUTE_FREE = ("graphfair.oracle", "graphfair.mms_tree", "graphfair.matching")
IMPORT_FREE = ("dataclasses", "inspect", "logging", "graphfair.generators", *ROUTE_FREE)


def loaded(names):
    return [name for name in names if name in sys.modules and name not in BASELINE]


def main(argv):
    (path,) = argv
    import graphfair.cli

    failures = [f"import graphfair.cli loaded {name}" for name in loaded(IMPORT_FREE)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = graphfair.cli.main(["solve", path, "--problem", "prop"])
    if code not in (0, 1):
        failures.append(f"solve exited {code}")
    failures += [f"a path solve loaded {name}" for name in loaded(ROUTE_FREE)]
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
