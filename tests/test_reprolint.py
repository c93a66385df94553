"""reprolint self-tests: every rule pinned by paired good/bad fixtures.

Each rule in the analyzer is exercised twice — once on a minimal
snippet that must trigger it and once on the hoisted/copied/deferred
rewrite that must not — so a rule that silently stops firing (or
starts over-firing) breaks a named test, not just the repo sweep.  On
top of the fixtures: suppression-pragma semantics, the select/ignore
filters, both reporters, the CLI exit-code contract, and the
self-checks that ``src/repro`` itself is clean and that every
hot-path registry entry still names a function.
"""

from __future__ import annotations

import ast
import json
from fnmatch import fnmatch
from pathlib import Path

import pytest

from repro.devtools.lint import all_rules, lint_paths, lint_source
from repro.devtools.lint.cli import main
from repro.devtools.lint.config import HOT_PATHS, VECTORIZED_HOT_PATHS
from repro.devtools.lint.core import iter_python_files, module_name_for
from repro.devtools.lint.hygiene import _functions
from repro.devtools.lint.reporters import (
    JSON_SCHEMA_VERSION,
    render_json,
    render_text,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"

# A module name matched by the hot-path registry; fixture functions are
# named ``csr_*`` so the qualname patterns match too.
HOT = "repro.spt.fastpaths"
# A module outside every KH registry entry, for the CA/LD fixtures.
COLD = "repro.analysis.report"


def active_ids(findings):
    return {f.rule.id for f in findings if not f.suppressed}


def all_ids(findings):
    return {f.rule.id for f in findings}


# ---------------------------------------------------------------------------
# Paired fixtures: rule id -> (module, bad source, good source)
# ---------------------------------------------------------------------------
FIXTURES = {
    "KH101": (  # attribute load in a hot loop
        HOT,
        """
def csr_scan(csr, items):
    total = 0
    for v in items:
        total += csr.indptr[v]
    return total
""",
        """
def csr_scan(csr, items):
    indptr = csr.indptr
    total = 0
    for v in items:
        total += indptr[v]
    return total
""",
    ),
    "KH102": (  # module-global load in a hot loop
        HOT,
        """
LIMIT = 64

def csr_scan(items):
    total = 0
    for v in items:
        total += v % LIMIT
    return total
""",
        """
LIMIT = 64

def csr_scan(items):
    limit = LIMIT
    total = 0
    for v in items:
        total += v % limit
    return total
""",
    ),
    "KH103": (  # allocation in an innermost hot loop
        HOT,
        """
def csr_scan(items):
    total = 0
    for v in items:
        total += sum([v, v + 1])
    return total
""",
        """
def csr_scan(items):
    total = 0
    for v in items:
        total += v + v + 1
    return total
""",
    ),
    "KH104": (  # list concatenation in a hot loop
        HOT,
        """
def csr_scan(items):
    out = []
    for v in items:
        out = out + [v]
    return out
""",
        """
def csr_scan(items):
    out = []
    append = out.append
    for v in items:
        append(v)
    return out
""",
    ),
    "KH105": (  # try/except in a hot loop
        HOT,
        """
def csr_scan(table, items):
    total = 0
    get = table.get
    for v in items:
        try:
            total += table[v]
        except KeyError:
            pass
    return total
""",
        """
def csr_scan(table, items):
    total = 0
    get = table.get
    for v in items:
        hit = get(v)
        if hit is not None:
            total += hit
    return total
""",
    ),
    "KH106": (  # membership test against a list display
        HOT,
        """
def csr_scan(items):
    out = 0
    for v in items:
        if v in [1, 2, 3]:
            out += 1
    return out
""",
        """
def csr_scan(items):
    out = 0
    for v in items:
        if v in (1, 2, 3):
            out += 1
    return out
""",
    ),
    "LD201": (  # module-level import from a higher layer: the fleet
        # sits *above* query (it builds sessions), so query code may
        # only reach it through a deferred import.
        "repro.query.fake",
        """
from repro.fleet.session import FleetSession

def scale_out(graph):
    return FleetSession(graph)
""",
        """
def scale_out(graph):
    from repro.fleet.session import FleetSession

    return FleetSession(graph)
""",
    ),
    "CA301": (  # subscript write through a cache alias
        COLD,
        """
def tweak(engine, s):
    vec = engine.peek_vector(s)
    vec[0] = 0
    return vec
""",
        """
def tweak(engine, s):
    vec = list(engine.peek_vector(s))
    vec[0] = 0
    return vec
""",
    ),
    "CA302": (  # augmented assignment through a cache alias
        COLD,
        """
def extend(engine, s, tail):
    vec = engine.peek_vector(s)
    vec += tail
    return vec
""",
        """
def extend(engine, s, tail):
    vec = engine.peek_vector(s).copy()
    vec += tail
    return vec
""",
    ),
    "CA303": (  # in-place mutating method through a cache alias
        COLD,
        """
def order(engine, s):
    vec = engine.peek_vector(s)
    vec.sort()
    return vec
""",
        """
def order(engine, s):
    return sorted(engine.peek_vector(s))
""",
    ),
    "OB401": (  # observability use inside a hot kernel
        HOT,
        """
from repro import obs

def csr_scan(csr, out):
    total = 0
    indptr = csr.indptr
    for v in out:
        total += indptr[v]
    obs.inc("repro_scan_total")
    return total
""",
        """
from repro import obs


def record_scan(total):
    obs.inc("repro_scan_total", total)


def csr_scan(csr, out):
    total = 0
    indptr = csr.indptr
    for v in out:
        total += indptr[v]
    return total
""",
    ),
    "IM501": (  # an imported name the module never reads
        COLD,
        """
from typing import List, Tuple

def first(items: List[int]) -> int:
    return items[0]
""",
        """
from typing import List

def first(items: List[int]) -> int:
    return items[0]
""",
    ),
    "E001": (  # unparsable source
        COLD,
        """
def broken(:
    pass
""",
        """
def fine():
    pass
""",
    ),
}


# ---------------------------------------------------------------------------
# Rule catalogue
# ---------------------------------------------------------------------------
def test_rule_catalogue_is_complete_and_unique():
    rules = all_rules()
    ids = [rule.id for rule in rules]
    assert len(ids) == len(set(ids))
    assert len(rules) >= 10
    assert set(FIXTURES) <= set(ids)


def test_every_rule_has_a_fixture():
    # The acceptance bar: at least 10 distinct rules, each pinned.
    assert len(FIXTURES) >= 10


# ---------------------------------------------------------------------------
# Paired good/bad fixtures
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("rule_id", sorted(FIXTURES))
def test_bad_fixture_triggers_rule(rule_id):
    module, bad, _ = FIXTURES[rule_id]
    assert rule_id in active_ids(lint_source(bad, module))


@pytest.mark.parametrize("rule_id", sorted(FIXTURES))
def test_good_fixture_is_clean_for_rule(rule_id):
    module, _, good = FIXTURES[rule_id]
    assert rule_id not in all_ids(lint_source(good, module))


@pytest.mark.parametrize("rule_id",
                         [r for r in sorted(FIXTURES) if r != "E001"])
def test_good_fixture_is_fully_clean(rule_id):
    module, _, good = FIXTURES[rule_id]
    assert lint_source(good, module) == []


def test_hot_rules_do_not_fire_outside_the_registry():
    _, bad, _ = FIXTURES["KH101"]
    assert lint_source(bad, "repro.analysis.report") == []


@pytest.mark.parametrize("source", [
    # listed in __all__: a re-export
    "from repro.graphs.base import Graph\n__all__ = ['Graph']\n",
    # the ``x as x`` re-export spelling
    "from repro.graphs.base import Graph as Graph\n",
    # read only inside a string annotation
    "from collections import Counter\n"
    "def count(xs) -> 'Counter[int]':\n    return xs\n",
    # read only through an attribute chain of a dotted import
    "import os.path\n\ndef here():\n    return os.path.curdir\n",
    # a deferred import read in its function
    "def load():\n    import json\n    return json.loads('1')\n",
    "from __future__ import annotations\n",
], ids=["all", "as-self", "string-annotation", "dotted", "deferred",
        "future"])
def test_unused_import_counts_these_reads(source):
    assert "IM501" not in all_ids(lint_source(source, COLD))


def test_unused_import_skips_package_inits():
    source = "from repro.graphs.base import Graph\n"
    assert "IM501" in all_ids(lint_source(source, "repro.graphs"))
    assert lint_source(source, "repro.graphs",
                       path="src/repro/graphs/__init__.py") == []


# ---------------------------------------------------------------------------
# The vectorized kernel class: ndarray kernels get a relaxed hygiene
# profile (allocation rules off, KH101 narrowed to module-global bases).
# ---------------------------------------------------------------------------
VEC = "repro.backends.vectorized"

VEC_BAD_GLOBAL_ATTR = """
import numpy as np

def csr_scan(dist, frontiers):
    for heads, cand in frontiers:
        np.minimum.at(dist, heads, cand)
    return dist
"""

VEC_GOOD_HOISTED_ATTR = """
import numpy as np

def csr_scan(dist, frontiers):
    minimum_at = np.minimum.at
    for heads, cand in frontiers:
        minimum_at(dist, heads, cand)
    return dist
"""

VEC_ARRAY_TEMPORARIES = """
def csr_scan(frontier, indices, mask):
    out = []
    while frontier.size:
        rows = [v for v in frontier if mask[v]]
        out = out + [rows]
        frontier = indices[frontier]
        if frontier.size in [0, 1]:
            break
    return out
"""

VEC_BAD_GLOBAL_NAME = """
LIMIT = 64

def csr_scan(frontier, indices):
    total = 0
    while frontier.size:
        total += LIMIT
        frontier = indices[frontier]
    return total
"""


def test_vectorized_flags_unhoisted_module_global_attribute():
    assert "KH101" in active_ids(lint_source(VEC_BAD_GLOBAL_ATTR, VEC))


def test_vectorized_hoisted_attribute_is_clean():
    assert lint_source(VEC_GOOD_HOISTED_ATTR, VEC) == []


def test_vectorized_allows_array_temporaries_and_local_attrs():
    # KH103/KH104/KH106 are off for ndarray kernels, and the
    # `frontier.size` loads (local base) do not trip KH101.
    assert lint_source(VEC_ARRAY_TEMPORARIES, VEC) == []


def test_vectorized_still_flags_unhoisted_globals():
    assert "KH102" in active_ids(lint_source(VEC_BAD_GLOBAL_NAME, VEC))


def test_loops_profile_flags_what_vectorized_allows():
    # The same source under the strict loops registry trips the
    # allocation rules the vectorized class waives.
    ids = active_ids(lint_source(VEC_ARRAY_TEMPORARIES, HOT))
    assert {"KH103", "KH104", "KH106"} <= ids


# Hop rows are ``array('i')``: CA303 must know the array's own
# in-place mutators, and the fix hint must be a copy both row types
# support (an array has no ``.copy()``).
ARRAY_MUTATOR_BAD = """
def refill(engine, s, raw):
    vec = engine.peek_vector(s)
    vec.frombytes(raw)
    return vec
"""

ARRAY_MUTATOR_GOOD = """
def refill(engine, s, raw):
    vec = engine.peek_vector(s)[:]
    vec.frombytes(raw)
    return vec
"""


@pytest.mark.parametrize("method", ["byteswap", "frombytes", "fromfile",
                                    "fromlist", "fromunicode"])
def test_array_row_mutators_through_a_cache_alias(method):
    bad = ARRAY_MUTATOR_BAD.replace("frombytes", method)
    good = ARRAY_MUTATOR_GOOD.replace("frombytes", method)
    assert active_ids(lint_source(bad, COLD)) == {"CA303"}
    assert active_ids(lint_source(good, COLD)) == set()


def test_cache_alias_hint_is_a_slice_copy():
    finding, = lint_source(ARRAY_MUTATOR_BAD, COLD)
    assert "vec[:]" in finding.message
    assert ".copy()" not in finding.message


def test_findings_carry_location_and_sort():
    module, bad, _ = FIXTURES["CA301"]
    findings = lint_source(bad, module, path="fake.py")
    assert findings
    assert findings == sorted(findings, key=lambda f: f.sort_key())
    finding = findings[0]
    assert finding.path == "fake.py"
    assert finding.module == module
    assert finding.line == 4  # fixtures open with a blank line
    assert "peek_vector" in finding.message


# ---------------------------------------------------------------------------
# Suppression pragmas
# ---------------------------------------------------------------------------
SUPPRESSED_BY_ID = """
def csr_scan(table, items):
    total = 0
    for v in items:
        try:  # reprolint: disable=KH105
            total += table[v]
        except KeyError:
            pass
    return total
"""


def test_pragma_suppresses_by_rule_id():
    findings = lint_source(SUPPRESSED_BY_ID, HOT)
    assert "KH105" not in active_ids(findings)
    suppressed = [f for f in findings if f.suppressed]
    assert [f.rule.id for f in suppressed] == ["KH105"]


def test_pragma_suppresses_by_rule_name():
    src = SUPPRESSED_BY_ID.replace("disable=KH105",
                                   "disable=hot-try-in-loop")
    assert "KH105" not in active_ids(lint_source(src, HOT))


def test_pragma_disable_all():
    src = SUPPRESSED_BY_ID.replace("disable=KH105", "disable=all")
    assert not active_ids(lint_source(src, HOT))


def test_pragma_on_wrong_line_does_not_suppress():
    src = SUPPRESSED_BY_ID.replace("  # reprolint: disable=KH105", "")
    src = src.replace("total = 0", "total = 0  # reprolint: disable=KH105")
    assert "KH105" in active_ids(lint_source(src, HOT))


def test_pragma_for_other_rule_does_not_suppress():
    src = SUPPRESSED_BY_ID.replace("disable=KH105", "disable=CA301")
    assert "KH105" in active_ids(lint_source(src, HOT))


# ---------------------------------------------------------------------------
# select / ignore filters
# ---------------------------------------------------------------------------
def test_select_restricts_to_named_rules():
    module, bad, _ = FIXTURES["KH106"]
    findings = lint_source(bad, module, select=["KH106"])
    assert all_ids(findings) == {"KH106"}


def test_ignore_drops_named_rules():
    module, bad, _ = FIXTURES["KH106"]
    findings = lint_source(bad, module, ignore=["hot-list-membership"])
    assert "KH106" not in all_ids(findings)


# ---------------------------------------------------------------------------
# Reporters
# ---------------------------------------------------------------------------
def test_json_reporter_schema():
    module, bad, _ = FIXTURES["CA303"]
    findings = lint_source(bad, module, path="fake.py")
    payload = json.loads(render_json(findings, files_checked=1))
    assert payload["version"] == JSON_SCHEMA_VERSION
    assert payload["files_checked"] == 1
    assert set(payload) == {"version", "files_checked", "findings", "counts"}
    record = payload["findings"][0]
    assert set(record) == {
        "path", "module", "line", "col", "rule", "rule_name",
        "family", "message", "suppressed",
    }
    assert record["rule"] == "CA303"
    assert record["rule_name"] == "cache-mutating-call"
    assert record["family"] == "cache-aliasing"
    assert payload["counts"]["CA303"] >= 1


def test_json_counts_exclude_suppressed():
    findings = lint_source(SUPPRESSED_BY_ID, HOT)
    payload = json.loads(render_json(findings, files_checked=1))
    assert payload["counts"] == {}
    assert any(record["suppressed"] for record in payload["findings"])


def test_text_reporter_lines_and_summary():
    module, bad, _ = FIXTURES["KH101"]
    findings = lint_source(bad, module, path="fake.py")
    text = render_text(findings, files_checked=1)
    assert "fake.py:5:" in text
    assert "KH101 [hot-attr-load]" in text
    assert text.endswith("in 1 files")


def test_text_reporter_hides_suppressed_by_default():
    findings = lint_source(SUPPRESSED_BY_ID, HOT)
    assert "KH105" not in render_text(findings, files_checked=1)
    shown = render_text(findings, files_checked=1, show_suppressed=True)
    assert "KH105" in shown and "(suppressed)" in shown


# ---------------------------------------------------------------------------
# CLI exit codes
# ---------------------------------------------------------------------------
def test_cli_exits_zero_on_clean_tree(tmp_path, capsys):
    (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
    assert main([str(tmp_path)]) == 0
    assert "0 findings" in capsys.readouterr().out


CACHE_WRITE = "def f(engine):\n    vec = engine.peek_vector(0)\n    vec[0] = 1\n"


def test_cli_exits_nonzero_on_findings(tmp_path, capsys):
    (tmp_path / "bad.py").write_text(CACHE_WRITE, encoding="utf-8")
    assert main([str(tmp_path)]) == 1
    assert "CA301" in capsys.readouterr().out


def test_cli_json_format(tmp_path, capsys):
    (tmp_path / "bad.py").write_text(CACHE_WRITE, encoding="utf-8")
    assert main(["--format", "json", str(tmp_path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"] == {"CA301": 1}


def test_cli_missing_path_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["no/such/path"])
    assert excinfo.value.code == 2


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in all_rules():
        assert rule.id in out


# ---------------------------------------------------------------------------
# The repo itself is lint-clean (the CI gate, pinned as a test)
# ---------------------------------------------------------------------------
def test_src_repro_is_lint_clean():
    findings, files_checked = lint_paths([SRC])
    active = [f for f in findings if not f.suppressed]
    assert active == [], render_text(findings, files_checked)
    assert files_checked > 50


@pytest.mark.parametrize("tree", ["tests", "benchmarks", "examples"])
def test_callers_of_src_are_lint_clean(tree):
    """A refactor that deletes a name also deletes its last imports in
    the code that called it."""
    findings, files_checked = lint_paths([REPO_ROOT / tree])
    active = [f for f in findings if not f.suppressed]
    assert active == [], render_text(findings, files_checked)
    assert files_checked > 5


def test_every_hot_path_entry_matches_a_function():
    """A registry entry whose function was deleted or renamed checks
    nothing; it must go with the function."""
    defined = [
        (module_name_for(path), qualname)
        for path in iter_python_files([SRC])
        for qualname, _ in _functions(
            ast.parse(path.read_text(encoding="utf-8")))
    ]
    stale = [
        entry for entry in HOT_PATHS + VECTORIZED_HOT_PATHS
        if not any(fnmatch(module, entry.partition(":")[0])
                   and fnmatch(qualname, entry.partition(":")[2])
                   for module, qualname in defined)
    ]
    assert stale == []


# ---------------------------------------------------------------------------
# mypy allowlist (runs only where mypy is installed, e.g. the CI job)
# ---------------------------------------------------------------------------
def test_mypy_allowlist_is_clean():
    pytest.importorskip("mypy")
    from mypy import api

    stdout, stderr, status = api.run(
        ["--config-file", str(REPO_ROOT / "mypy.ini")]
    )
    assert status == 0, stdout + stderr
