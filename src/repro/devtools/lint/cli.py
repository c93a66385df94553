"""Command-line front end: ``python -m repro.devtools.lint [paths...]``.

Exit codes: 0 clean, 1 active findings, 2 usage errors (argparse).
Suppressed findings never fail the run.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List, Optional

from repro.devtools.lint.core import all_rules, lint_paths
from repro.devtools.lint.reporters import render_json, render_text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.lint",
        description="AST analyzer for kernel hygiene, layering, the "
                    "cache-aliasing contract, obs use in kernels and "
                    "unused imports (see CONTRIBUTING.md).",
    )
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default: text)")
    parser.add_argument("--select", default=None, metavar="RULES",
                        help="comma-separated rule ids/names to enable")
    parser.add_argument("--ignore", default=None, metavar="RULES",
                        help="comma-separated rule ids/names to disable")
    parser.add_argument("--show-suppressed", action="store_true",
                        help="also print pragma-suppressed findings (text)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print every rule and exit")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    options = parser.parse_args(argv)

    if options.list_rules:
        for rule in all_rules():
            print(f"{rule.id}  {rule.name:<24} [{rule.family}] "
                  f"{rule.description}")
        return 0

    select = options.select.split(",") if options.select else None
    ignore = options.ignore.split(",") if options.ignore else None
    paths = [Path(p) for p in options.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        parser.error(f"no such path: {', '.join(map(str, missing))}")

    findings, files_checked = lint_paths(paths, select=select, ignore=ignore)
    if options.format == "json":
        print(render_json(findings, files_checked))
    else:
        print(render_text(findings, files_checked,
                          show_suppressed=options.show_suppressed))
    active = sum(1 for f in findings if not f.suppressed)
    return 1 if active else 0
