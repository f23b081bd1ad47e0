"""Every public name is one the package runs, or one the README offers.

A name in a module's ``__all__`` (or in ``staticstar.__all__``) must resolve,
and must be used by the code in ``src`` outside its own definition, as an
AST ``Name`` or ``Attribute``, or be named in the code of README.md.
Docstrings, comments and import lines do not count as uses: a function that
only the tests call is not part of the library.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import staticstar

SRC = Path(staticstar.__file__).parent
README = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
# the README's code: fenced blocks and inline spans, not its prose
README_CODE = "\n".join(re.findall(r"```.*?```|`[^`\n]+`", README, flags=re.S))
MODULES = [staticstar] + [importlib.import_module(f"staticstar.{info.name}")
                          for info in pkgutil.iter_modules([str(SRC)])]
PUBLIC = [(module, name) for module in MODULES for name in getattr(module, "__all__", ())]


def _ids(pair):
    module, name = pair
    return f"{module.__name__}.{name}"


def _top_level_uses(tree: ast.Module) -> list[tuple[str | None, set[str]]]:
    """For each top-level statement, the name it defines (a function or a
    class, else None) and the names it reads as a ``Name`` or as the
    attribute of an ``Attribute``."""
    tops = []
    for top in tree.body:
        found = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                found.add(node.attr)
        defines = top.name if isinstance(
            top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
        tops.append((defines, found))
    return tops


USES = {path.stem: _top_level_uses(ast.parse(path.read_text(encoding="utf-8")))
        for path in SRC.glob("*.py")}


def _stem(module) -> str:
    return "__init__" if module is staticstar else module.__name__.rpartition(".")[2]


def _used_in_src(module, name: str) -> bool:
    """Whether ``module.name`` is read anywhere in ``src`` outside its own
    definition.  A function or class is judged by where it is defined, under
    its own name: the top-level ``build_catalog_model`` is ``catalog.build``."""
    obj = getattr(module, name)
    home, own = _stem(module), name
    if inspect.isfunction(obj) or inspect.isclass(obj):
        home, own = obj.__module__.rpartition(".")[2], obj.__name__
    return any({name, own} & found
               for stem, tops in USES.items()
               for defines, found in tops if not (stem == home and defines == own))


def _in_readme(name: str) -> bool:
    return re.search(rf"(?<!\w){re.escape(name)}(?!\w)", README_CODE) is not None


@pytest.mark.parametrize("pair", PUBLIC, ids=_ids)
def test_public_name_resolves(pair):
    module, name = pair
    assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"


@pytest.mark.parametrize("pair", PUBLIC, ids=_ids)
def test_public_name_is_run_by_the_package_or_documented(pair):
    module, name = pair
    assert _used_in_src(module, name) or _in_readme(name), (
        f"{module.__name__}.{name} has no use in src outside its definition "
        "and is not named in README.md")
