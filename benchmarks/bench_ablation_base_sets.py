"""ABLATION — Afek et al.'s base sets vs Theorem 2's selected paths.

The paper's "intermediate open question" (Section 1): the pre-2021
workaround for tiebreaking-sensitivity was a base set of up to
``m(n-1)`` paths; Theorem 2 replaces it with just ``n(n-1)`` selected
paths (one per ordered pair).  This ablation measures both objects on
the same graphs — the size gap is the concrete payoff of the paper —
and verifies both methods restore correctly.
"""

import pytest

from repro.graphs import generators
from repro.core.scheme import RestorableTiebreaking
from repro.core.restoration import restore_by_concatenation
from repro.spt.apsp import replacement_distance
from repro.weighted.base_set import BaseSet

from _harness import emit

SIZES = (30, 60, 120)


@pytest.fixture(scope="module")
def comparison_rows():
    rows = []
    for n in SIZES:
        g = generators.connected_erdos_renyi(n, 4.0 / n, seed=n)
        base = BaseSet(g, seed=1)
        rows.append({
            "n": n,
            "m": g.m,
            "base_set_paths": base.count_paths(),
            "base_set_bound": base.theoretical_bound(),
            "thm2_selected_paths": n * (n - 1),
            "reduction_factor": base.count_paths() / (n * (n - 1)),
        })
    return rows


def test_base_set_restore_benchmark(benchmark, comparison_rows):
    g = generators.connected_erdos_renyi(60, 4.0 / 60, seed=60)
    base = BaseSet(g, seed=1)
    path = base.canonical(0, 59)
    fault = next(iter(path.edges()))
    base.restore(0, 59, fault)  # warm the trees

    benchmark(base.restore, 0, 59, fault)

    emit(
        "ablation_base_sets", comparison_rows,
        "ABLATION: base-set size vs Theorem 2's selected-path count",
        notes=(
            "paper: base sets need up to m(n-1)+C(n,2) paths; "
            "restorable tiebreaking needs n(n-1).  reduction_factor "
            "is the open-question gap the paper closes."
        ),
    )
    assert all(r["base_set_paths"] > r["thm2_selected_paths"]
               for r in comparison_rows)
    assert all(r["base_set_paths"] <= r["base_set_bound"]
               for r in comparison_rows)


def test_both_methods_restore_exactly(benchmark):
    """Correctness cross-check + benchmark of Theorem 2 restoration."""
    g = generators.connected_erdos_renyi(60, 4.0 / 60, seed=60)
    base = BaseSet(g, seed=1)
    scheme = RestorableTiebreaking.build(g, f=1, seed=1)
    pairs = [(0, 59), (7, 31)]
    for s, t in pairs:
        path = scheme.path(s, t)
        for e in path.edges():
            truth = replacement_distance(g, s, t, [e])
            if truth == -1:
                continue
            assert restore_by_concatenation(scheme, s, t, [e]).path.hops \
                == truth
            assert base.restore(s, t, e).hops == truth
    path = scheme.path(0, 59)
    fault = next(iter(path.edges()))
    scheme.tree(0)
    scheme.tree(59)
    benchmark(restore_by_concatenation, scheme, 0, 59, [fault])
