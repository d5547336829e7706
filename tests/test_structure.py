"""Checks on the package's source as code: every annotation resolves, the
Smith logs and their replays stay inside `linalg`, and so does the storage
of the per-object tables.
"""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import re
import typing
from functools import cached_property

import pytest

import freeabcat

SRC = pathlib.Path(freeabcat.__file__).resolve().parent
MODULES = sorted(info.name for info in pkgutil.iter_modules(freeabcat.__path__))


def _functions(module):
    """The functions and methods that `module` defines: plain, static and
    class methods and the getters of properties, cached ones included."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            for attr in vars(obj).values():
                if isinstance(attr, (staticmethod, classmethod)):
                    attr = attr.__func__
                elif isinstance(attr, property):
                    attr = attr.fget
                elif isinstance(attr, cached_property):
                    attr = attr.func
                if inspect.isfunction(attr):
                    yield attr


@pytest.mark.parametrize("name", MODULES)
def test_every_annotation_resolves(name):
    """`typing.get_type_hints` resolves the annotations of every function
    and method of the module: each name an annotation uses is defined
    where the function was."""
    module = importlib.import_module(f"freeabcat.{name}")
    for f in _functions(module):
        typing.get_type_hints(f)


# a replay function, an inverted log or a log itself: `_replay`,
# `_inverse_log`, `p_log`, `log`, ...
_LOG_NAME = re.compile(r"replay|(^|_)log$")


@pytest.mark.parametrize("name", [m for m in MODULES if m != "linalg"])
def test_only_linalg_reads_smith_logs(name):
    """No module but `linalg` imports a replay or a log from it or reads a
    log or a replay off a Smith form: other modules apply the operators
    `SnfResult.p` and `.q` through `cols`, `rows` and `inv`, so a change of
    the log format stays inside `linalg`."""
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [a.name for a in node.names if _LOG_NAME.search(a.name)]
        elif isinstance(node, ast.Attribute) and _LOG_NAME.search(node.attr):
            found.append(node.attr)
    assert found == [], f"{name} reads {found}"


# the instance-dict entry where `linalg._Cached` keeps an object's table
_TABLE = "_table"


def _names(tree):
    """Every identifier, attribute, imported name and string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


@pytest.mark.parametrize("name", MODULES)
def test_only_linalg_names_the_table(name):
    """Chains, squares and modules reach their tables through `_once`
    alone, so the table's layout stays inside `linalg`, which must name
    the entry (else this test checks a name nobody uses)."""
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    assert (_TABLE in set(_names(tree))) == (name == "linalg")
