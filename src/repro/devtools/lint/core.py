"""Framework core: rules, findings, suppressions, and the runner.

The analyzer is deliberately self-contained (stdlib ``ast`` +
``tokenize`` only) and deliberately simple: each rule family module
exposes ``RULES`` (the :class:`Rule` objects it can emit) and a
``check(ctx)`` generator yielding ``(rule, node, message)`` triples.
This module turns those into :class:`Finding` records, applies
per-line ``# reprolint: disable=...`` pragmas, and walks file trees.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple


@dataclass(frozen=True)
class Rule:
    """One enforceable convention."""

    id: str
    name: str
    family: str
    description: str


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    module: str
    line: int
    col: int
    rule: Rule
    message: str
    suppressed: bool = False

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule.id)


PARSE_ERROR = Rule(
    id="E001",
    name="parse-error",
    family="framework",
    description="The file could not be parsed as Python source.",
)


# ---------------------------------------------------------------------------
# Suppression pragmas: ``# reprolint: disable=KH101,cache-augassign`` on
# the offending line.  Tokens may be rule ids, rule names, or ``all``.
# ---------------------------------------------------------------------------
_PRAGMA = re.compile(r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\-\s]+)")


def _scan_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number -> lowercased suppression tokens on that line."""
    out: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _PRAGMA.search(tok.string)
            if match is None:
                continue
            names = {
                part.strip().lower()
                for part in match.group(1).replace(" ", ",").split(",")
                if part.strip()
            }
            if names:
                out.setdefault(tok.start[0], set()).update(names)
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # An unparsable file is reported separately as E001.
        return {}
    return out


class ModuleContext:
    """Everything a rule needs to check one module."""

    def __init__(self, source: str, module: str, path: str = "<string>"):
        self.source = source
        self.module = module
        self.path = path
        self.tree = ast.parse(source, filename=path)
        self.suppressions = _scan_suppressions(source)

    def is_suppressed(self, line: int, rule: Rule) -> bool:
        tokens = self.suppressions.get(line)
        if not tokens:
            return False
        return ("all" in tokens
                or rule.id.lower() in tokens
                or rule.name.lower() in tokens)


# ---------------------------------------------------------------------------
# Rule registry — populated from the family modules at import time
# (see ``all_rules`` below; imported lazily to avoid a module cycle).
# ---------------------------------------------------------------------------
def _families():
    from repro.devtools.lint import (aliasing, hygiene, imports, layering,
                                     obsrules)

    return (hygiene, layering, aliasing, obsrules, imports)


def all_rules() -> Tuple[Rule, ...]:
    """Every rule the analyzer can emit, parse errors included."""
    rules: List[Rule] = [PARSE_ERROR]
    for family in _families():
        rules.extend(family.RULES)
    return tuple(rules)


def _selected(rule: Rule, select: Optional[Set[str]],
              ignore: Optional[Set[str]]) -> bool:
    keys = {rule.id.lower(), rule.name.lower()}
    if select is not None and not (keys & select):
        return False
    if ignore is not None and (keys & ignore):
        return False
    return True


def _normalize_filter(names: Optional[Iterable[str]]) -> Optional[Set[str]]:
    if names is None:
        return None
    return {n.strip().lower() for n in names if n.strip()}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------
def lint_source(source: str, module: str, path: str = "<string>",
                select: Optional[Iterable[str]] = None,
                ignore: Optional[Iterable[str]] = None) -> List[Finding]:
    """Lint one module's source text; returns sorted findings.

    Suppressed findings are *included*, flagged with
    ``suppressed=True`` — callers decide whether they fail the run
    (the CLI does not).
    """
    select_set = _normalize_filter(select)
    ignore_set = _normalize_filter(ignore)
    try:
        ctx = ModuleContext(source, module, path)
    except SyntaxError as exc:
        finding = Finding(
            path=path, module=module,
            line=exc.lineno or 1, col=(exc.offset or 1) - 1,
            rule=PARSE_ERROR, message=f"syntax error: {exc.msg}",
        )
        return [finding] if _selected(PARSE_ERROR, select_set, ignore_set) else []

    findings: List[Finding] = []
    for family in _families():
        for rule, node, message in family.check(ctx):
            if not _selected(rule, select_set, ignore_set):
                continue
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0)
            finding = Finding(
                path=path, module=module, line=line, col=col,
                rule=rule, message=message,
            )
            if ctx.is_suppressed(line, rule):
                finding = replace(finding, suppressed=True)
            findings.append(finding)
    findings.sort(key=Finding.sort_key)
    return findings


def module_name_for(path: Path) -> str:
    """Infer the dotted module name from the package layout on disk."""
    path = path.resolve()
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    return ".".join(reversed(parts)) or path.stem


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Yield every ``.py`` file under ``paths`` in sorted order."""
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                yield path
            continue
        for candidate in sorted(path.rglob("*.py")):
            if any(part == "__pycache__" or part.startswith(".")
                   for part in candidate.parts):
                continue
            yield candidate


def lint_file(path: Path, select: Optional[Iterable[str]] = None,
              ignore: Optional[Iterable[str]] = None) -> List[Finding]:
    source = path.read_text(encoding="utf-8")
    return lint_source(source, module_name_for(path), str(path),
                       select=select, ignore=ignore)


def lint_paths(paths: Sequence[Path], select: Optional[Iterable[str]] = None,
               ignore: Optional[Iterable[str]] = None
               ) -> Tuple[List[Finding], int]:
    """Lint every Python file under ``paths``.

    Returns ``(findings, files_checked)``; findings are sorted and
    include suppressed entries.
    """
    findings: List[Finding] = []
    checked = 0
    for file in iter_python_files(paths):
        checked += 1
        findings.extend(lint_file(file, select=select, ignore=ignore))
    findings.sort(key=Finding.sort_key)
    return findings, checked
