"""Every public function of ``src/egl`` has a use, egl imports nothing
outside the standard library, and a process loads only the modules its
command runs.

A public module-level function must be exported in ``egl.__all__``,
imported by another egl module, or named in ``KEPT`` with the reason it
stays.  Anything else is a wrapper no solver calls: delete it, or make it
private to its module.  A name one egl module imports from another must be
read there, and a name read only in annotations is imported under
``TYPE_CHECKING``.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def annotation_only_imports(tree: ast.AST) -> list[str]:
    """Names a module imports from another egl module, outside an
    ``if TYPE_CHECKING:`` block, and reads only in annotations."""
    guarded = {id(node) for block in ast.walk(tree)
               if isinstance(block, ast.If)
               and isinstance(block.test, ast.Name)
               and block.test.id == "TYPE_CHECKING"
               for node in ast.walk(block)}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations += [arg.annotation for arg in (
                *args.posonlyargs, *args.args, *args.kwonlyargs,
                args.vararg, args.kwarg) if arg is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    in_annotation = {id(node) for annotation in annotations
                     if annotation is not None
                     for node in ast.walk(annotation)}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and id(node) not in in_annotation}
    return [alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            and id(node) not in guarded
            for alias in node.names
            if (alias.asname or alias.name) not in read]


def test_annotation_only_imports_wait_for_type_checking():
    # an import read only in annotations still loads its module at run
    # time: ``reports`` importing ``statics`` for ``SignTable`` made every
    # command load the comparative-statics code
    found = [f"{path.stem}: {name}" for path in sorted(SRC.glob("*.py"))
             for name in annotation_only_imports(
                 ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def test_an_annotation_only_import_is_flagged():
    text = ("from .core import A, B\n"
            "def f(a: A) -> None:\n"
            "    return B(a)\n")
    assert annotation_only_imports(ast.parse(text)) == ["A"]
    guarded = ("from typing import TYPE_CHECKING\n"
               "if TYPE_CHECKING:\n"
               "    from .core import A\n"
               "x: A\n")
    assert annotation_only_imports(ast.parse(guarded)) == []


#: Runs one command in a fresh interpreter, then prints the modules it
#: loaded that were not loaded at start-up.
_LOAD_CHILD = """\
import contextlib, io, json, sys
before = set(sys.modules)
import egl.cli
with contextlib.redirect_stdout(io.StringIO()):
    if sys.argv[1:] == ["parse"]:
        egl.core.load_scenario(open("scenarios/reference.json").read())
        code = 0
    else:
        code = egl.cli.main(sys.argv[1:])
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""

#: The modules every command loads: the command line, the scenario parser
#: and what the parser needs.
_BASE = {"egl", "egl.cli", "egl.core", "egl.errors", "egl.numerics"}
_SOLVERS = {"egl.demand", "egl.embodied", "egl.growth", "egl.statics",
            "egl.surplus"}


def loaded_by(args: list[str], out: Path) -> set[str]:
    """The modules a fresh ``egl`` process loads to run ``args`` under the
    default EGL_LOG."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(SRC.parent), os.environ.get("PYTHONPATH")])))
    env.pop("EGL_LOG", None)
    args = [a.replace("OUT", str(out)) for a in args]
    done = subprocess.run([sys.executable, "-c", _LOAD_CHILD, *args],
                          cwd=Path(__file__).resolve().parents[1], env=env, capture_output=True, text=True,
                          check=True, timeout=120)
    code, modules = json.loads(done.stdout)
    assert code == 0, done.stderr
    return set(modules)


@pytest.mark.parametrize("args, want, never", [
    (["parse"], _BASE, set()),
    (["validate", "--scenario", "scenarios/reference.json"], _BASE,
     _SOLVERS),
    (["simulate", "--scenario", "scenarios/reference.json", "--out", "OUT"],
     None, {"egl.statics"}),
    (["equilibrium", "--scenario", "scenarios/reference.json",
      "--out", "OUT"], None, {"egl.statics"}),
    (["statics", "--family", "scenarios/sweep_family.json", "--seed", "1",
      "--trials", "1", "--out", "OUT"], None, {"egl.svgfig"}),
], ids=["parse", "validate", "simulate", "equilibrium", "statics"])
def test_each_command_loads_only_what_it_runs(tmp_path, args, want, never):
    modules = loaded_by(args, tmp_path / "out")
    egl_modules = {m for m in modules if m.split(".")[0] == "egl"}
    if want is not None:
        assert egl_modules == want
    assert _BASE <= egl_modules
    assert not egl_modules & never
    # nor what no command needs: numpy (statics draws from ``_pcg64``),
    # ``inspect``, which numpy loads, and ``logging``, which egl loads
    # only when EGL_LOG asks for its INFO or DEBUG records
    assert not modules & {"dataclasses", "numpy", "inspect", "logging"}


def test_lazy_exports_list_and_bind_every_name():
    assert set(egl.__all__) <= set(dir(egl))
    namespace: dict = {}
    exec("from egl import *", namespace)
    assert set(egl.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(egl, name) for name in egl.__all__)
    with pytest.raises(AttributeError):
        getattr(egl, "no_such_name")


def outside_imports(tree: ast.AST) -> list[str]:
    """Top-level names of the modules ``tree`` imports, anywhere in it and
    ``TYPE_CHECKING`` blocks included, that are neither egl nor in the
    standard library."""
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names]
    names += [node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 0]
    return [name for name in names
            if name.split(".")[0] not in sys.stdlib_module_names | {"egl"}]


def test_egl_imports_only_the_standard_library():
    # egl has no runtime dependency: numpy, once loaded for the statics
    # draws, is a test dependency only
    found = [f"{path.stem}: {name}" for path in sorted(SRC.glob("*.py"))
             for name in outside_imports(
                 ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def test_an_outside_import_is_flagged():
    text = ("from typing import TYPE_CHECKING\n"
            "import json, os.path\n"
            "from . import core\n"
            "if TYPE_CHECKING:\n"
            "    import numpy as np\n"
            "def f():\n"
            "    from scipy.optimize import brentq\n")
    assert outside_imports(ast.parse(text)) == ["numpy", "scipy.optimize"]
