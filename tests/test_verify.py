import hashlib
import json

import numpy as np
import pytest

from spectree.families import (
    complete_graph,
    diam4_tree,
    path_graph,
    star_graph,
    tkst_tree,
)
from spectree.graphs import edge_list, from_edge_list
from spectree.spectra import ROUTE_TOL
from spectree.verify import (
    ALL_CLAIMS,
    CheckInstance,
    VerificationReport,
    _eq_instance,
    _le_instance,
    _lt_instance,
    check_corollary_31,
    check_theorem_21,
    check_theorem_das,
    check_theorem_das_examples,
    classify_diam4,
    classify_t1st,
    reproduce_table2,
    run_claim,
)


def _relabel(g, perm):
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in edge_list(g)])


# ---- classification ----

def test_classify_t1st():
    assert classify_t1st(path_graph(4)) == (1, 1)
    assert classify_t1st(tkst_tree(1, 3, 2)) == (3, 2)
    assert classify_t1st(tkst_tree(1, 2, 4)) == (4, 2)
    shuffled = _relabel(tkst_tree(1, 3, 2), [4, 0, 6, 2, 5, 1, 3])
    assert classify_t1st(shuffled) == (3, 2)
    assert classify_t1st(star_graph(5)) is None
    assert classify_t1st(tkst_tree(2, 2, 2)) is None  # three internal vertices
    assert classify_t1st(path_graph(2)) is None
    with pytest.raises(ValueError):
        classify_t1st(complete_graph(3))


def test_classify_diam4():
    assert classify_diam4(path_graph(5)) == (2, (1, 1))
    assert classify_diam4(diam4_tree(3, (2, 2, 1))) == (3, (2, 2, 1))
    assert classify_diam4(diam4_tree(2, (3, 2))) == (2, (3, 2))
    assert classify_diam4(tkst_tree(1, 2, 1)) is None  # chair
    assert classify_diam4(star_graph(6)) is None
    perm = [3, 0, 5, 1, 7, 2, 6, 4, 8]
    assert classify_diam4(_relabel(diam4_tree(3, (2, 2, 1)), perm)) == (3, (2, 2, 1))
    with pytest.raises(ValueError):
        classify_diam4(complete_graph(4))


# ---- report plumbing ----

def _report():
    return VerificationReport(
        claim_id="demo",
        tolerance=1e-8,
        instances=(
            CheckInstance("i1", "= 1", "1", True, deviation=1e-12),
            CheckInstance("i2", "= 2", "3", False, deviation=1.0),
            CheckInstance("i3", "= 4", "9", False, informational=True, deviation=5.0),
        ),
    )


def test_report_counts_and_verdict():
    r = _report()
    assert (r.passed, r.failed, r.informational) == (1, 1, 1)
    assert not r.ok
    # informational deviations stay out of the headline number
    assert r.worst_deviation == 1.0
    ok = VerificationReport("demo", 1e-8, (r.instances[0], r.instances[2]))
    assert ok.ok and ok.worst_deviation == 1e-12


def test_report_serialization():
    r = _report()
    d = r.to_dict()
    assert d["claim"] == "demo" and d["failed"] == 1 and len(d["instances"]) == 3
    assert json.loads(r.to_json()) == d
    text = r.to_text()
    assert text.splitlines()[0].startswith("claim demo: FAIL")
    assert "[FAIL] i2" in text and "[info] i3" in text and "[ok ] i1" in text


# ---- spectral surgery checks ----

def test_check_theorem_das_star_to_clique():
    base = star_graph(5)
    group = (1, 2, 3, 4)
    edges = [(u, v) for u in group for v in group if u < v]
    rep = check_theorem_das(base, group, edges)
    assert rep.ok and rep.instances[0].deviation <= 1e-8


def test_check_theorem_das_validation():
    base = star_graph(5)
    with pytest.raises(ValueError):
        check_theorem_das(base, (), [])
    with pytest.raises(ValueError):
        check_theorem_das(base, (0, 1), [(0, 1)])  # 0 and 1 are adjacent
    with pytest.raises(ValueError):
        check_theorem_das(base, (1, 2), [(1, 3)])  # edge leaves the group
    with pytest.raises(ValueError, match="loop at vertex 1"):
        check_theorem_das(base, (1, 2), [(1, 1)])  # named by the vertex, not its index in the group
    p4 = path_graph(4)
    with pytest.raises(ValueError):
        check_theorem_das(p4, (0, 2), [(0, 2)])  # neighborhoods {1} vs {1,3}
    # out-of-range vertices are named, not wrapped round or left to IndexError
    with pytest.raises(ValueError, match="group vertex -1 is not in 0..3"):
        check_theorem_das(star_graph(4), (-1,), [])
    with pytest.raises(ValueError, match="group vertex 7 is not in 0..3"):
        check_theorem_das(star_graph(4), (7,), [])


@pytest.mark.parametrize(
    "group, added, problem",
    [
        ((1.7, 2), [], "group vertex 1.7 is not an integer"),
        ((True, 2), [], "group vertex True is not an integer"),
        ((1, 2), [(1.7, 2)], "endpoints must be integers, got 1.7"),
        ((1, 2), [(True, 2)], "endpoints must be integers, got True"),
    ],
    ids=("group-float", "group-bool", "edge-float", "edge-bool"),
)
def test_check_theorem_das_rejects_non_integer_vertices(group, added, problem):
    # int() would pass 1.7 and True as vertex 1
    with pytest.raises(ValueError, match=problem):
        check_theorem_das(star_graph(5), group, added)


def test_check_theorem_das_counts_distinct_added_edges():
    rep = check_theorem_das(star_graph(5), (1, 2), [(1, 2), (2, 1)])
    assert rep.ok and rep.instances[0].descriptor == "n=5 group=(1, 2) added=1 edges"


def test_check_theorem_das_examples():
    rep = check_theorem_das_examples()
    assert rep.ok and rep.failed == 0 and rep.passed >= 3


# ---- claim registry ----

def test_run_claim_rejects_unknown():
    with pytest.raises(ValueError):
        run_claim("bogus")


def test_light_claims_pass():
    for claim in ("thm-2.1-cases", "thm-das", "cor-3.1"):
        for rep in run_claim(claim):
            assert rep.ok, rep.to_text()


def test_all_claims_registry():
    assert len(ALL_CLAIMS) == len(set(ALL_CLAIMS)) == 10
    assert "table-2" in ALL_CLAIMS


def test_every_check_compares_at_the_route_tolerance():
    # = and <= allow ROUTE_TOL, no more
    assert _eq_instance("eq", 1.0, 1.0 + ROUTE_TOL / 2).passed
    assert not _eq_instance("eq", 1.0, 1.0 + 2 * ROUTE_TOL).passed
    assert not _eq_instance("eq", 1.0, 1.0 - 2 * ROUTE_TOL).passed
    assert _le_instance("le", 1.0, 1.0 + ROUTE_TOL / 2).passed
    assert not _le_instance("le", 1.0, 1.0 + 2 * ROUTE_TOL).passed
    # < needs a gap wider than ROUTE_TOL
    assert not _lt_instance("lt", 1.0, 1.0 - ROUTE_TOL / 2).passed
    assert _lt_instance("lt", 1.0, 1.0 - 2 * ROUTE_TOL).passed
    for claim in ALL_CLAIMS:
        for rep in run_claim(claim):
            assert rep.tolerance == (0.01 if claim == "table-2" else ROUTE_TOL), claim


def test_thm_21_needs_a_nonempty_sweep():
    with pytest.raises(ValueError, match="max_n >= 3"):
        check_theorem_21(2)
    with pytest.raises(ValueError, match="max_n >= 3"):
        run_claim("thm-2.1", max_n=2)


# (passed, failed, informational) of every report run_claim returns
_CENSUS = {
    "thm-2.1": [(46, 0, 0), (46, 0, 0)],  # m = 2, then m = 3
    "thm-2.1-cases": [(12, 0, 0)],
    "cor-2.1": [(30, 0, 10)],
    "thm-2.3": [(26, 0, 2)],
    "thm-das": [(3, 0, 0)],
    "thm-3.1": [(36, 0, 0)],
    "thm-3.2": [(36, 0, 0)],
    "thm-3.3": [(28, 0, 0)],
    "cor-3.1": [(4, 0, 3)],
    "table-2": [(86, 0, 12)],
}


def test_verify_census():
    assert tuple(_CENSUS) == ALL_CLAIMS
    seen = set()
    total = 0
    for claim, want in _CENSUS.items():
        reps = run_claim(claim)
        assert [(r.passed, r.failed, r.informational) for r in reps] == want, claim
        for r in reps:
            assert r.claim_id == claim
            total += len(r.instances)
            for i in r.instances:
                assert (claim, i.descriptor) not in seen, (claim, i.descriptor)
                seen.add((claim, i.descriptor))
    assert total == 380


# SHA-256 of json.dumps of one [claim, descriptor, expected, passed,
# informational] row per instance, in ALL_CLAIMS order. observed and
# deviation carry solver noise and stay out; the census above pins only
# counts, so this catches a range edited to another of the same length.
_VERIFY_ROWS_SHA256 = "3e2a7e59ae74f8758934f63cc525df045e395e13dd7e11a0eeebffe9517532fe"


def test_verify_instances_golden():
    rows = [
        [r.claim_id, i.descriptor, i.expected, i.passed, i.informational]
        for c in ALL_CLAIMS
        for r in run_claim(c)
        for i in r.instances
    ]
    assert len(rows) == 380
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == _VERIFY_ROWS_SHA256


def test_reproduce_table2():
    rep = reproduce_table2()
    assert rep.ok, rep.to_text()
    # 14 rows x (a + beta_2..beta_7); the cells with printed-value slips are
    # carried as informational
    assert len(rep.instances) == 98
    assert rep.informational == 12
    assert rep.worst_deviation <= 0.01


def test_check_corollary_31_error_paths():
    with pytest.raises(ValueError):
        check_corollary_31(path_graph(4), 2)  # not the diameter-4 pattern
    with pytest.raises(ValueError):
        check_corollary_31(diam4_tree(2, (2, 2)), 2)  # root degree 2
    with pytest.raises(ValueError):
        check_corollary_31(diam4_tree(3, (3, 2, 1)), 2)  # no repeated load >= 2


def test_check_corollary_31_bound_holds():
    rep = check_corollary_31(diam4_tree(3, (2, 2, 1)), 2)
    assert rep.ok
    assert any(i.informational for i in rep.instances)


def test_thm_21_returns_both_m():
    reps = run_claim("thm-2.1")
    assert len(reps) == 2
    for rep in reps:
        assert rep.ok, rep.to_text()
