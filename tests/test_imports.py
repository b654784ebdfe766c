"""What ``import graphfair`` binds, and what a CLI solve imports.

The package serves the generators, oracle, tree maximin and solver names on
first read, so these tests check that every public name still resolves to
its defining module's object, and that a path solve through the CLI never
loads the modules its route does not run.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import graphfair
from graphfair import dispatch, fixture_cycle8, gen_random, instance_to_json

HERE = Path(__file__).resolve().parent
PACKAGE_PARENT = str(Path(graphfair.__file__).resolve().parent.parent)


def run_python(*args, cwd):
    """``python -S`` on ``args`` with only the package under test on the path."""
    return subprocess.run(
        [sys.executable, "-S", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": PACKAGE_PARENT},
        cwd=str(cwd),
    )


def test_cli_and_a_path_solve_import_only_their_route(tmp_path):
    path = tmp_path / "path.json"
    path.write_text(instance_to_json(gen_random(0, "path", 12, 3, types=2)), encoding="utf-8")
    proc = run_python(str(HERE / "import_hygiene.py"), str(path), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from graphfair import *", namespace)
    assert set(graphfair.__all__) <= set(namespace)
    for name in graphfair.__all__:
        assert namespace[name] is getattr(graphfair, name), name


def test_public_names_are_their_defining_modules_objects():
    assert set(graphfair.__all__) <= set(dir(graphfair))
    for name in graphfair.__all__:
        if name == "__version__":
            continue
        value = getattr(graphfair, name)
        home = value.__module__
        assert home.startswith("graphfair."), name
        assert getattr(importlib.import_module(home), name) is value, name
    assert graphfair.oracle.OracleBudget is graphfair.OracleBudget
    assert graphfair.oracle.DEFAULT_BUDGET is graphfair.DEFAULT_BUDGET


def test_lazy_names_resolve_in_a_fresh_interpreter(tmp_path):
    """Each name read first through the package, and the oracle imported on its own."""
    check = (
        "import sys\n"
        "import graphfair\n"
        "assert 'graphfair.oracle' not in sys.modules\n"
        "assert set(graphfair.__all__) <= set(dir(graphfair))\n"
        "from graphfair import oracle_prop, OracleBudget\n"
        "import graphfair.oracle as oracle\n"
        "assert oracle.oracle_prop is oracle_prop and oracle.OracleBudget is OracleBudget\n"
        "for name in ('generators', 'mms_tree', 'solvers', 'matching'):\n"
        "    assert getattr(graphfair, name) is sys.modules['graphfair.' + name]\n"
        "try:\n"
        "    graphfair.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('no AttributeError')\n"
    )
    proc = run_python("-c", check, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    alone = run_python(
        "-c", "import graphfair.oracle as o; print(o.oracle_prop.__module__)", cwd=tmp_path
    )
    assert alone.returncode == 0, alone.stderr
    assert alone.stdout == "graphfair.oracle\n"


def test_solvers_serve_their_lazy_names_by_attribute(monkeypatch):
    """Each lazy solver name is its module's object, and a value set on it is
    the one the routes call."""
    solvers = importlib.import_module("graphfair.solvers")
    oracle = importlib.import_module("graphfair.oracle")
    mms_tree = importlib.import_module("graphfair.mms_tree")
    for name in ("oracle_prop", "oracle_ef_complete", "oracle_mms_exists"):
        assert getattr(solvers, name) is getattr(oracle, name)
    assert solvers.mms_tree is mms_tree
    assert solvers.solve_matching is importlib.import_module("graphfair.matching").solve_matching

    calls = []

    def recorded(name, original):
        def call(*args):
            calls.append(name)
            return original(*args)

        return call

    for name in ("oracle_prop", "oracle_ef_complete", "oracle_mms_exists", "solve_matching"):
        monkeypatch.setattr(solvers, name, recorded(name, getattr(solvers, name)))
    monkeypatch.setattr(solvers, "mms_tree", SimpleNamespace(
        solve_mms_tree=recorded("solve_mms_tree", mms_tree.solve_mms_tree)))
    cycle = fixture_cycle8()
    for problem in ("prop", "ef-complete", "mms"):
        dispatch(cycle, problem)
    dispatch(gen_random(0, "star", 5, 3), "prop")
    dispatch(gen_random(0, "tree", 6, 2), "mms")
    assert calls[:3] == ["oracle_prop", "oracle_ef_complete", "oracle_mms_exists"]
    assert set(calls[3:-1]) == {"solve_matching"} and calls[-1] == "solve_mms_tree"
