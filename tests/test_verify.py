import dataclasses
import hashlib
import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spectree import families, spectra, verify
from spectree.closedform import star_product_spectrum
from spectree.families import (
    complete_graph,
    diam4_tree,
    enumerate_free_trees,
    line_graph,
    path_graph,
    star_graph,
    tkst_tree,
    tree_canonical_form,
)
from spectree.graphs import degrees, edge_list, from_edge_list, is_star
from spectree.spectra import ROUTE_TOL, a_beta_m, product_connected
from spectree.verify import (
    ALL_CLAIMS,
    CheckInstance,
    VerificationReport,
    _instance,
    _multiset_instance,
    check_corollary_31,
    check_theorem_21,
    check_theorem_das,
    check_theorem_das_examples,
    classify_diam4,
    classify_t1st,
    reproduce_table2,
    run_claim,
)

from _oracles import double_star_oracle, eccentricities_oracle, prufer_to_tree
from _strategies import PROPERTY


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


def test_classify_diam4_reads_back_every_pattern():
    # every (k, xs), xs descending with xs[1] >= 1, on at most 12 vertices,
    # in a random labelling
    rng = np.random.default_rng(4)
    patterns = 0
    for k in range(2, 10):
        for xs in itertools.combinations_with_replacement(range(11 - k, -1, -1), k):
            if xs[1] >= 1 and 1 + k + sum(xs) <= 12:
                tree = diam4_tree(k, xs)
                assert classify_diam4(_relabel(tree, rng.permutation(tree.n).tolist())) == (k, xs)
                patterns += 1
    assert patterns == sum(max(eccentricities_oracle(t)) == 4 for n in range(5, 13) for t in enumerate_free_trees(n))


def test_classify_diam4_matches_exactly_the_trees_of_diameter_4():
    for n in range(1, 13):
        for tree in enumerate_free_trees(n):
            cls = classify_diam4(tree)
            assert (cls is not None) == (max(eccentricities_oracle(tree)) == 4), edge_list(tree)
            if cls is not None:
                assert tree_canonical_form(diam4_tree(*cls)) == tree_canonical_form(tree)


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
    assert json.loads(json.dumps(d)) == d  # as the CLI writes it
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
    # 0.5 * ROUTE_TOL off the bound passes and 2 * ROUTE_TOL fails: = on
    # either side, <= above, and the multiset check at any one value, either
    # way; < needs a gap wider than ROUTE_TOL, so it fails at the first
    # and passes at the second
    closed = np.array([0.0, 1.0, 2.0])
    for scale, within in ((0.5, True), (2.0, False)):
        d = scale * ROUTE_TOL
        assert _instance("eq", "=", 1.0, 1.0 + d).passed == within
        assert _instance("eq", "=", 1.0, 1.0 - d).passed == within
        assert _instance("le", "<=", 1.0, 1.0 + d).passed == within
        assert _instance("lt", "<", 1.0, 1.0 - d).passed != within
        for k in range(len(closed)):
            for step in (d, -d):
                direct = closed.copy()
                direct[k] += step
                assert _multiset_instance("ms", closed, direct).passed == within, (scale, k, step)
    assert _instance("le", "<=", 1.0, 0.0).passed
    for claim in ALL_CLAIMS:
        for rep in run_claim(claim):
            assert rep.tolerance == (0.01 if claim == "table-2" else ROUTE_TOL), claim


def test_scalar_instance_deviation_text_and_tol():
    eq = _instance("d", "=", 2.0, 1.5)
    assert (eq.expected, eq.observed, eq.deviation, eq.passed) == ("= 2", "1.5", 0.5, False)
    le = _instance("d", "<=", 2.0, 1.5)
    assert (le.expected, le.deviation, le.passed) == ("<= 2", 0.0, True)
    lt = _instance("d", "<", 2.0, 2.5)
    assert (lt.expected, lt.deviation, lt.passed) == ("< 2", 0.5, False)
    # tol widens = and <=, and widens the gap that < needs
    assert _instance("d", "=", 2.0, 1.995, tol=0.01).passed
    assert _instance("d", "<=", 2.0, 2.005, tol=0.01).passed
    assert not _instance("d", "<", 2.0, 1.995, tol=0.01).passed
    assert _instance("d", "<", 2.0, 1.985, tol=0.01).passed
    # tol=0.0 makes <= exact
    assert not _instance("d", "<=", 1.0, 1.0 + 1e-12, tol=0.0).passed
    assert _instance("d", "<=", 1.0, 1.0, tol=0.0).passed
    assert _instance("d", "=", 1.0, 3.0, informational=True).informational


def test_thm_21_needs_a_nonempty_sweep():
    with pytest.raises(ValueError, match="^max_n must be >= 3, got 2$"):
        check_theorem_21(2)
    with pytest.raises(ValueError, match="^max_n must be >= 3, got 2$"):
        run_claim("thm-2.1", max_n=2)
    for ms, problem in (
        ((1,), "m must be >= 2, got 1"),
        ((2, 1), "m must be >= 2, got 1"),
        ((0, 3), "m must be >= 2, got 0"),
        ((), "ms must hold at least one m, got ()"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
            check_theorem_21(5, ms)
    with pytest.raises(ValueError, match="^m must be >= 2, got 1$"):
        run_claim("thm-2.1", m=1)


def test_thm_21_stacks_at_most_a_chunk_of_trees(monkeypatch):
    # n = 12 has 551 trees, more than one chunk: every stacked solve holds
    # at most a chunk of them, and the stacks cover every tree once per
    # matrix
    stacks = []
    solve = verify.eigenvalues

    def spy(mat):
        stacks.append(mat.shape)
        return solve(mat)

    monkeypatch.setattr(verify, "eigenvalues", spy)
    monkeypatch.setattr(spectra, "eigenvalues", spy)
    check_theorem_21(12, (2,))
    assert len(enumerate_free_trees(12)) == 551 > families._TREE_CHUNK
    assert all(len(shape) == 3 for shape in stacks)
    assert max(shape[0] for shape in stacks) == families._TREE_CHUNK
    # a(L), Q_1(L) and L x K_2 per tree
    trees = sum(len(enumerate_free_trees(n)) for n in range(3, 13))
    assert sum(shape[0] for shape in stacks) == 3 * trees


def test_thm_21_names_the_stack_of_a_tree_whose_routes_disagree(monkeypatch):
    # tree #03 of n = 6 has its direct product value moved by 1e-6
    solve = spectra.eigenvalues

    def perturbed(mat):
        vals = solve(mat)
        if mat.shape[-2:] == (5 * 3, 5 * 3):  # L x K_3 at n = 6
            vals[3] += 1e-6
        return vals

    monkeypatch.setattr(spectra, "eigenvalues", perturbed)
    check_theorem_21(5, (3,))
    with pytest.raises(RuntimeError, match="^n=6, stack from tree #00: tree 3 of the stack: "):
        check_theorem_21(6, (3,))


def test_thm_21_reports_do_not_depend_on_the_chunk(monkeypatch):
    # every slice of a stacked solve gets the bits of a solve of that slice
    # alone, so the reports, deviations included, are the same for any
    # chunk size; n = 12 spans three default chunks
    want = [r.to_dict() for r in check_theorem_21(12)]
    for chunk in (1, 7):
        monkeypatch.setattr(families, "_TREE_CHUNK", chunk)
        assert [r.to_dict() for r in check_theorem_21(12)] == want, chunk


def test_thm_21_instances_match_each_trees_graph(monkeypatch):
    # every instance of check_theorem_21(10) at m = 2, 3 and 4, built again
    # from the tree's Graph with chunks of 7 trees, so that every n >= 8
    # spans several: edge string, classes and product connectivity (by BFS)
    # of the tree, observed and deviation bit for bit, as a slice of a
    # stacked solve gets the bits of a solve of that slice alone; the
    # product is disconnected only for the path at m = 2
    monkeypatch.setattr(families, "_TREE_CHUNK", 7)
    ms = (2, 3, 4)
    reports = check_theorem_21(10, ms)
    trees = [(n, i, tree) for n in range(3, 11) for i, tree in enumerate(enumerate_free_trees(n))]
    for m, rep in zip(ms, reports):
        assert len(rep.instances) == len(trees)
        for (n, i, tree), got in zip(trees, rep.instances):
            desc = f"m={m} n={n}#{i:02d} " + ",".join(f"{u}-{v}" for u, v in edge_list(tree))
            a = a_beta_m(tree, m)
            path = degrees(tree).max() <= 2
            connected = product_connected(line_graph(tree)[0], m)
            assert connected == (not (path and m == 2)), (m, n, i)
            cls = classify_t1st(tree)
            assert cls == double_star_oracle(tree), (n, i)
            if path and m == 2:
                want = CheckInstance(
                    desc + " [path]",
                    "disconnected product, a = 0",
                    f"connected={connected}, a={a:.10g}",
                    not connected and abs(a) <= ROUTE_TOL,
                    deviation=abs(a),
                )
            elif is_star(tree):
                ex = float(star_product_spectrum(n, m).values()[1])
                note = " (= m-1 here)" if ex == m - 1 else ""
                want = _instance(desc + f" [star{note}]", "=", ex, a, note=" (clique product)")
            elif cls and cls[1] >= 2:
                want = _instance(desc + f" [T(1,{cls[0]},{cls[1]})]", "=", float(m - 1), a)
            else:
                want = _instance(desc, "<", float(m - 1), a)
            assert got == want, (m, n, i)


@st.composite
def _large_trees(draw):
    """A tree from a Prufer sequence on 3 to 40 vertices, or a planted
    double star T(1,s,s), alone or with one pendant hung on a leaf."""
    kind = draw(st.sampled_from(("prufer", "double star", "double star + pendant")))
    if kind == "prufer":
        n = draw(st.integers(3, 40))
        return prufer_to_tree(n, draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2)))
    s = draw(st.integers(1, 18))
    tree = tkst_tree(1, s, s)
    if kind == "double star":
        return tree
    return from_edge_list(tree.n + 1, edge_list(tree) + [(tree.n - 1, tree.n)])


@PROPERTY
@given(_large_trees())
def test_thm_21_holds_past_the_exhaustive_range(tree):
    # a(L x K_m) = m - 1 on the double stars T(1,s,t) with t >= 2, and
    # below m - 1 by more than ROUTE_TOL on every other tree but a star
    cls = classify_t1st(tree)
    for m in (2, 3):
        a = a_beta_m(tree, m)
        if cls is not None and cls[1] >= 2:
            assert abs(a - (m - 1)) <= ROUTE_TOL, (cls, m, a)
        elif not is_star(tree):
            assert a < m - 1 - ROUTE_TOL, (edge_list(tree), m, a)


def test_thm_21_single_m_run_matches_the_default_run():
    # one report per m, in the order given; a single-m run repeats the
    # matching report of the two-m run instance for instance
    both = run_claim("thm-2.1", max_n=9)
    assert [r.instances[0].descriptor[:4] for r in both] == ["m=2 ", "m=3 "]
    (only3,) = run_claim("thm-2.1", max_n=9, m=3)
    assert only3 == both[1]
    assert check_theorem_21(9, (3, 2)) == both[::-1]


def test_report_dict_lists_instance_fields_in_order():
    inst = CheckInstance("d", "= 1", "1", True, informational=False, deviation=0.5)
    (row,) = VerificationReport("c", ROUTE_TOL, (inst,)).to_dict()["instances"]
    assert row == dataclasses.asdict(inst)
    assert list(row) == [f.name for f in dataclasses.fields(CheckInstance)]


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
_VERIFY_ROWS_SHA256 = "524dbc4cefaed6b078adb8a2c3ad02ad22c14f5499bfc0e7a9426fcef484dfc2"


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
