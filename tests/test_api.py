"""Every public function of ``src/egl`` has a use.

A public module-level function must be exported in ``egl.__all__``,
imported by another egl module, or named in ``KEPT`` with the reason it
stays.  Anything else is a wrapper no solver calls: delete it, or make it
private to its module.  A name one egl module imports from another must be
read there.
"""

import ast
import importlib
import inspect
from pathlib import Path

import egl

SRC = Path(egl.__file__).resolve().parent

#: Public functions kept for the acceptance suite, the tests or a tool,
#: with the reason each stays.
KEPT = {
    "cli.main": "the `egl` console script",
    "demand.marginal_utility": "marginal utility on the stated form, "
                               "which the tests' tangency oracle reads",
    "growth.enter_period": "period entry at any period, which the tests "
                           "use to build shocked states",
    "growth.normalized_surplus_args": "oracle: accumulation drive that "
                                      "acceptance 09 checks at its ends",
    "reports.fmt": "the CSV number format, pinned by its own tests",
    "statics.draw_scenario": "the documented random family, which tests "
                             "stub to show the family is checked first",
}


def public_functions() -> set[tuple[str, str]]:
    """(module, name) of each public function defined in an egl module."""
    found = set()
    for path in SRC.glob("*.py"):
        module = importlib.import_module(f"egl.{path.stem}")
        for name, fn in vars(module).items():
            if not name.startswith("_") and inspect.isfunction(fn) \
                    and fn.__module__ == module.__name__:
                found.add((path.stem, name))
    return found


def imported_across_modules() -> set[tuple[str, str]]:
    """(module, name) of each function one egl module imports from
    another; the package's own re-exports are ``egl.__all__``."""
    found = set()
    for path in SRC.glob("*.py"):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 \
                    and node.module:
                found.update((node.module, alias.name)
                             for alias in node.names)
    return found


def test_every_public_function_has_a_use():
    imported = imported_across_modules()
    unused = sorted(f"{module}.{name}"
                    for module, name in public_functions()
                    if name not in egl.__all__
                    and (module, name) not in imported
                    and f"{module}.{name}" not in KEPT)
    assert unused == []


def test_kept_names_need_the_list():
    # a stale entry would let a wrapper of that name grow back unseen
    functions = public_functions()
    imported = imported_across_modules()
    for key in KEPT:
        module, name = key.split(".")
        assert (module, name) in functions, key
        assert name not in egl.__all__ and (module, name) not in imported, key


def test_every_exported_name_resolves():
    # a type or function removed from its module must leave __all__ too
    missing = [name for name in egl.__all__ if not hasattr(egl, name)]
    assert missing == []
    assert len(set(egl.__all__)) == len(egl.__all__)


def test_every_import_across_modules_is_read():
    # a name kept only to re-export it belongs in ``egl/__init__.py``
    unread = []
    for path in SRC.glob("*.py"):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unread += [f"{path.stem}: {alias.asname or alias.name}"
                   for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level == 1
                   for alias in node.names
                   if (alias.asname or alias.name) not in read]
    assert unread == []


def fixed_count_loop(node: ast.AST) -> bool:
    """Whether ``node`` is a ``for _ in range(...)`` statement whose count
    is a literal: an iteration that stops after a fixed number of steps,
    whatever the data."""
    return isinstance(node, ast.For) and isinstance(node.target, ast.Name) \
        and node.target.id == "_" and isinstance(node.iter, ast.Call) \
        and isinstance(node.iter.func, ast.Name) \
        and node.iter.func.id == "range" \
        and all(isinstance(arg, ast.Constant) for arg in node.iter.args)


def test_root_iterations_live_in_numerics():
    # a module that reads the iteration cap, or iterates a fixed number of
    # steps, runs a root or bisection loop of its own; it belongs in
    # ``numerics``: a residual in ``newton_root``, with or without a
    # closed-form slope, and a predicate in ``bisect_predicate``
    readers = []
    for path in SRC.glob("*.py"):
        if path.stem == "numerics":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any((isinstance(node, ast.ImportFrom)
                and any(alias.name == "MAX_ITER" for alias in node.names))
               or (isinstance(node, ast.Attribute)
                   and node.attr == "MAX_ITER")
               or fixed_count_loop(node)
               for node in ast.walk(tree)):
            readers.append(path.stem)
    assert readers == []


def test_a_fixed_count_loop_is_flagged():
    # the loop ``_evaluable_range`` ran before its bisection moved into
    # ``numerics``, and loops whose count the data sets
    flagged = ast.parse("for _ in range(60):\n    pass\n").body[0]
    assert fixed_count_loop(flagged)
    for text in ("for _ in range(len(movers) + 1):\n    pass\n",
                 "for t in range(60):\n    pass\n"):
        assert not fixed_count_loop(ast.parse(text).body[0])
