"""``repro.mpi``, ``repro.core`` and ``repro.obs`` wait by being woken,
never by sleeping in a loop.

Every blocking call in them completes a Future, sets an event, waits on
a condition or reads a socket.  Two ``time.sleep`` calls are allowed, one
per package that needs one: the fault injector's ``delay`` rule, which
slows a delivery on purpose, and ``mpidrun``'s backoff before it
restarts a failed job.
"""

import ast
from pathlib import Path

import pytest

import repro.core
import repro.mpi
import repro.obs

PACKAGE = Path(repro.mpi.__file__).parent
ALLOWED = {("transport.py", "FaultInjector.apply")}


def _sleeps(path):
    """(file name, enclosing qualified name) of every ``sleep`` call."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name == "sleep":
                found.append((path.name, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), "")
    return found


def test_the_only_sleep_in_repro_mpi_is_the_injected_delay():
    sleeps = [s for path in sorted(PACKAGE.rglob("*.py")) for s in _sleeps(path)]
    assert set(sleeps) - ALLOWED == set(), sleeps
    assert sleeps == sorted(ALLOWED)  # the delay rule itself, once


@pytest.mark.parametrize(
    "package, allowed",
    [
        (repro.obs, []),
        (repro.core, [("mpidrun.py", "mpidrun")]),  # the restart backoff
    ],
    ids=["obs", "core"],
)
def test_obs_and_core_sleep_only_where_allowed(package, allowed):
    root = Path(package.__file__).parent
    assert [s for path in sorted(root.rglob("*.py")) for s in _sleeps(path)] == allowed
