"""Source guard: every scheduled action and listener survives a fork.

``copy.deepcopy`` forks a run (``tests/core/test_fork.py``) because it
copies each pending action with the objects it acts on.  A bound
method, a module-level function or a ``functools.partial`` of one is
copied that way; a lambda or a nested function is copied by reference,
so the fork's event would keep acting on the original's objects.  This
guard fails on any lambda or nested function handed to a method that
keeps its argument for later: the simulator's scheduling methods and
the components' listener registrations.  Callables a run stores as
attributes (a manager's weight function, a classifier) are guarded by
the fork test's pickle arm instead: pickle refuses a lambda or a nested
function wherever it sits.
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent

#: every method of ``src/repro`` that stores a callable it calls later
KEEPS_ITS_ACTION = {
    "schedule",
    "schedule_at",
    "schedule_periodic",
    "defer",
    "on_exit",
    "add_completion_listener",
    "add_backlog_listener",
    "on_change",
    "on_accepting_change",
}


def _nested_function_names(tree: ast.AST) -> set:
    """Names of the functions defined inside another function."""
    return {
        inner.name
        for outer in ast.walk(tree)
        if isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for inner in ast.walk(outer)
        if inner is not outer and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def closures_handed_to_the_simulator(source: str) -> list:
    """``(line, method)`` of every call in ``source`` that hands a
    lambda or a nested function to a method that keeps it."""
    tree = ast.parse(source)
    nested = _nested_function_names(tree)
    found = []
    for call in ast.walk(tree):
        if not (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr in KEEPS_ITS_ACTION
        ):
            continue
        for argument in (*call.args, *(keyword.value for keyword in call.keywords)):
            if any(
                isinstance(node, ast.Lambda)
                or (isinstance(node, ast.Name) and node.id in nested)
                for node in ast.walk(argument)
            ):
                found.append((call.lineno, call.func.attr))
    return found


def test_no_closure_is_handed_to_the_simulator_or_kept_as_a_listener():
    offenders = [
        f"{path.relative_to(SRC).as_posix()}:{line} {method}"
        for path in sorted(SRC.rglob("*.py"))
        for line, method in closures_handed_to_the_simulator(path.read_text())
    ]
    assert offenders == [], "use a bound method or a functools.partial of one"


def test_the_guard_sees_lambdas_nested_functions_and_partials_of_them():
    source = '''
def arm(sim, manager, node, query):
    def on_edge(node):
        pass
    sim.schedule(1.0, lambda: manager.submit(query))
    sim.schedule_at(2.0, partial(lambda q: q, query), label="x")
    node.on_change(on_edge)
    manager.add_completion_listener(manager.note)
    sim.defer(partial(manager.submit, query))
'''
    assert closures_handed_to_the_simulator(source) == [
        (5, "schedule"),
        (6, "schedule_at"),
        (7, "on_change"),
    ]
