"""Import hygiene (IM5xx): every imported name is used.

A refactor that deletes the last use of a name tends to leave its
import behind, and nothing at runtime notices.  IM501 flags each name
an ``import`` statement binds that the module never reads.  A name
counts as read when the module loads it anywhere (``x``, ``x.attr``,
in any function), lists it in ``__all__``, or names it inside a
string annotation (``-> "Counter[Any]"``).  Every import of a package
``__init__`` is a re-export and counts as read, and so does the
``import x as x`` re-export spelling; ``from __future__`` and star
imports bind nothing to check.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.devtools.lint.core import ModuleContext, Rule

IM501 = Rule(
    id="IM501", name="unused-import", family="import-hygiene",
    description="A name bound by an import is never read; delete the "
                "import (or list the name in __all__ if it is a "
                "re-export).",
)

RULES = (IM501,)

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _bound_name(alias: ast.alias, is_from: bool) -> Optional[str]:
    """The name an import alias binds, or None when it binds nothing
    to check (a star import, or the ``x as x`` re-export idiom)."""
    if alias.name == "*":
        return None
    if alias.asname is not None:
        return None if alias.asname == alias.name else alias.asname
    # ``import a.b.c`` binds ``a``; ``from m import c`` binds ``c``.
    return alias.name if is_from else alias.name.split(".", 1)[0]


def _imports(tree: ast.Module) -> Iterator[Tuple[ast.stmt, str]]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = _bound_name(alias, is_from=False)
                if name is not None:
                    yield node, name
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                name = _bound_name(alias, is_from=True)
                if name is not None:
                    yield node, name


def _dunder_all(tree: ast.Module) -> Set[str]:
    """String entries of every ``__all__`` assignment or extension."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        if not any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets):
            continue
        if node.value is None:
            continue
        for item in ast.walk(node.value):
            if isinstance(item, ast.Constant) and \
                    isinstance(item.value, str):
                names.add(item.value)
    return names


def _annotations(tree: ast.Module) -> Iterator[ast.expr]:
    for node in ast.walk(tree):
        if isinstance(node, _FUNCS):
            args = node.args
            for arg in (args.posonlyargs + args.args + args.kwonlyargs
                        + [a for a in (args.vararg, args.kwarg) if a]):
                if arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _string_annotation_names(tree: ast.Module) -> Set[str]:
    """Names read inside string annotations, at any nesting."""
    names: Set[str] = set()
    pending: List[ast.AST] = list(_annotations(tree))
    while pending:
        for node in ast.walk(pending.pop()):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Constant) and \
                    isinstance(node.value, str):
                try:
                    pending.append(ast.parse(node.value, mode="eval"))
                except SyntaxError:
                    continue
    return names


def check(ctx: ModuleContext) -> Iterator[Tuple[Rule, ast.AST, str]]:
    if ctx.path.endswith("__init__.py"):
        return
    read = {node.id for node in ast.walk(ctx.tree)
            if isinstance(node, ast.Name)
            and not isinstance(node.ctx, ast.Store)}
    read |= _dunder_all(ctx.tree)
    read |= _string_annotation_names(ctx.tree)
    for stmt, name in _imports(ctx.tree):
        if name not in read:
            yield (IM501, stmt,
                   f"'{name}' is imported but never read in "
                   f"'{ctx.module}'; delete the import")
