"""Cache-aliasing rules (CA3xx): engine-returned vectors are read-only.

The scenario engine's ``peek_vector`` / ``source_vectors`` /
``try_delta`` / ``base_distances`` family may return the *same row
object* that sits in the shared LRU (and, under the delta strategy,
the base vector every future patch starts from) — an ``array('i')``
hop row or a weighted list.  Mutating one in place corrupts every
later query that hits the cache.  The contract: copy before writing
(``vec[:]`` copies either row type; ``list(vec)`` makes a list).

The checker runs a simple forward taint pass per scope: names bound
from a getter (directly, via aliasing, or by indexing/iterating a
tainted collection) are tainted until rebound; a recognised copy
(``list(x)``, ``x.copy()``, ``x[a:b]``) produces a fresh object.
Branches are processed in source order (an over-approximation that
keeps the checker honest and predictable rather than flow-precise).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.devtools.lint.config import (
    CACHE_GETTERS,
    COPY_CALLS,
    COPY_METHODS,
    MUTATING_METHODS,
)
from repro.devtools.lint.core import ModuleContext, Rule

CA301 = Rule(
    id="CA301", name="cache-subscript-write", family="cache-aliasing",
    description="Subscript or slice assignment to a name aliasing an "
                "engine-cached vector; copy it before writing.",
)
CA302 = Rule(
    id="CA302", name="cache-augassign", family="cache-aliasing",
    description="Augmented assignment mutating a name aliasing an "
                "engine-cached vector; copy it before writing.",
)
CA303 = Rule(
    id="CA303", name="cache-mutating-call", family="cache-aliasing",
    description="In-place mutating method call on a name aliasing an "
                "engine-cached vector; copy it first.",
)

RULES = (CA301, CA302, CA303)

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)

# taint map: name -> getter it came from
Taint = Dict[str, str]


def _base_name(node: ast.AST) -> Optional[str]:
    """The root ``Name`` of a ``x[i][j]``-style access chain."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _expr_taint(expr: Optional[ast.AST], taint: Taint) -> Optional[str]:
    """Getter name when ``expr`` may alias a cached vector, else None."""
    if expr is None:
        return None
    if isinstance(expr, ast.Name):
        return taint.get(expr.id)
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name) and func.id in COPY_CALLS:
            return None
        if isinstance(func, ast.Attribute):
            if func.attr in COPY_METHODS:
                return None
            if func.attr in CACHE_GETTERS:
                return func.attr
        return None
    if isinstance(expr, ast.Subscript):
        if isinstance(expr.slice, ast.Slice):
            return None  # a slice of a list is a fresh list
        base = _base_name(expr.value) if isinstance(expr.value, ast.Subscript) \
            else (expr.value.id if isinstance(expr.value, ast.Name) else None)
        return taint.get(base) if base is not None else None
    if isinstance(expr, ast.IfExp):
        return _expr_taint(expr.body, taint) or _expr_taint(expr.orelse, taint)
    if isinstance(expr, ast.BoolOp):
        for value in expr.values:
            origin = _expr_taint(value, taint)
            if origin is not None:
                return origin
        return None
    if isinstance(expr, ast.NamedExpr):
        return _expr_taint(expr.value, taint)
    if isinstance(expr, ast.Await):
        return _expr_taint(expr.value, taint)
    return None


def _bind(target: ast.AST, origin: Optional[str], taint: Taint) -> None:
    if isinstance(target, ast.Name):
        if origin is None:
            taint.pop(target.id, None)
        else:
            taint[target.id] = origin
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            _bind(elt, origin, taint)
    elif isinstance(target, ast.Starred):
        _bind(target.value, origin, taint)
    # Subscript / Attribute targets bind no name.


def _scan_mutations(stmt: ast.stmt, taint: Taint
                    ) -> Iterator[Tuple[Rule, ast.AST, str]]:
    """Flag in-place writes in one statement under the current taint."""

    def msg(name: str, origin: str, what: str) -> str:
        return (f"{what} mutates '{name}', which may alias a cached vector "
                f"returned by {origin}(); copy it first "
                f"(e.g. {name}[:])")

    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            if isinstance(target, ast.Subscript):
                name = _base_name(target)
                if name is not None and name in taint:
                    what = ("slice assignment"
                            if isinstance(target.slice, ast.Slice)
                            else "subscript assignment")
                    yield CA301, target, msg(name, taint[name], what)
    elif isinstance(stmt, ast.Delete):
        for target in stmt.targets:
            if isinstance(target, ast.Subscript):
                name = _base_name(target)
                if name is not None and name in taint:
                    yield CA301, target, msg(name, taint[name], "del")
    elif isinstance(stmt, ast.AugAssign):
        target = stmt.target
        name = None
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Subscript):
            name = _base_name(target)
        if name is not None and name in taint:
            yield CA302, target, msg(name, taint[name], "augmented assignment")

    # Mutating method calls can hide anywhere in the statement's own
    # expressions (nested statements are scanned by _process itself).
    for expr in _own_exprs(stmt):
        yield from _scan_calls(expr, taint, msg)


def _own_exprs(stmt: ast.stmt) -> List[ast.expr]:
    """Expressions evaluated by ``stmt`` itself, not by nested bodies."""
    if isinstance(stmt, ast.For):
        return [stmt.iter]
    if isinstance(stmt, ast.While):
        return [stmt.test]
    if isinstance(stmt, ast.If):
        return [stmt.test]
    if isinstance(stmt, (ast.Try, getattr(ast, "TryStar", ast.Try))):
        return []
    if isinstance(stmt, ast.With):
        return [item.context_expr for item in stmt.items]
    return [node for node in ast.iter_child_nodes(stmt)
            if isinstance(node, ast.expr)]


def _scan_calls(expr: ast.expr, taint: Taint, msg
                ) -> Iterator[Tuple[Rule, ast.AST, str]]:
    for node in ast.walk(expr):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATING_METHODS):
            name = _base_name(node.func.value)
            if name is not None and name in taint:
                yield (CA303, node,
                       msg(name, taint[name], f".{node.func.attr}()"))


def _process(stmts: List[ast.stmt], taint: Taint
             ) -> Iterator[Tuple[Rule, ast.AST, str]]:
    for stmt in stmts:
        if isinstance(stmt, _FUNCS + (ast.ClassDef,)):
            continue  # nested scopes are checked independently

        yield from _scan_mutations(stmt, taint)

        if isinstance(stmt, ast.Assign):
            origin = _expr_taint(stmt.value, taint)
            for target in stmt.targets:
                _bind(target, origin, taint)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            _bind(stmt.target, _expr_taint(stmt.value, taint), taint)
        elif isinstance(stmt, ast.For):
            _bind(stmt.target, _expr_taint(stmt.iter, taint), taint)
            yield from _process(stmt.body, taint)
            yield from _process(stmt.orelse, taint)
        elif isinstance(stmt, ast.While):
            yield from _process(stmt.body, taint)
            yield from _process(stmt.orelse, taint)
        elif isinstance(stmt, ast.If):
            yield from _process(stmt.body, taint)
            yield from _process(stmt.orelse, taint)
        elif isinstance(stmt, (ast.Try, getattr(ast, "TryStar", ast.Try))):
            yield from _process(stmt.body, taint)
            for handler in stmt.handlers:
                yield from _process(handler.body, taint)
            yield from _process(stmt.orelse, taint)
            yield from _process(stmt.finalbody, taint)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                if item.optional_vars is not None:
                    _bind(item.optional_vars,
                          _expr_taint(item.context_expr, taint), taint)
            yield from _process(stmt.body, taint)


def _scopes(tree: ast.Module) -> Iterator[List[ast.stmt]]:
    yield tree.body
    for node in ast.walk(tree):
        if isinstance(node, _FUNCS):
            yield node.body


def check(ctx: ModuleContext) -> Iterator[Tuple[Rule, ast.AST, str]]:
    for body in _scopes(ctx.tree):
        taint: Taint = {}
        yield from _process(body, taint)
