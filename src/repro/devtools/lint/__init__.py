"""``reprolint`` — the repo's AST static analyzer.

Five rule families enforce the repo's conventions (see
``CONTRIBUTING.md`` for the full catalogue):

* **kernel hygiene** (KH1xx) — hot kernels listed in the registry keep
  attribute/global lookups and allocation out of their inner loops;
* **layering** (LD2xx) — module-level imports respect the declared
  layer DAG;
* **cache aliasing** (CA3xx) — vectors returned by the engine's cache
  getters are read-only until copied;
* **obs hygiene** (OB4xx) — no observability calls inside hot kernels;
* **import hygiene** (IM5xx) — every imported name is read.

Run ``python -m repro.devtools.lint src/`` (exit 1 on findings), or use
:func:`lint_source` / :func:`lint_paths` programmatically.  Suppress a
single line with ``# reprolint: disable=RULE`` plus a justification.
"""

from repro.devtools.lint.core import (
    Finding,
    Rule,
    all_rules,
    lint_file,
    lint_paths,
    lint_source,
)

__all__ = [
    "Finding",
    "Rule",
    "all_rules",
    "lint_file",
    "lint_paths",
    "lint_source",
]
