import hashlib
import itertools
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spectree import families
from spectree.closedform import (
    CubicCoeffs,
    book_aconn_bound,
    book_line_laplacian_spectrum,
    integer_roots_of_monic_cubic,
    is_beta_laplacian_integral,
    star_product_spectrum,
    t1st_line_laplacian_spectrum,
    windmill_product_spectrum,
    windmill_q_quadratic,
    wprime_algebraic_connectivity,
    wprime_product_spectrum,
    wprime_quadratics,
)
from spectree.families import (
    beta_m,
    book_graph,
    cartesian,
    complete_graph,
    diam4_tree,
    enumerate_free_trees,
    kronecker,
    line_graph,
    parse_family,
    path_graph,
    star_graph,
    tkst_tree,
    tree_canonical_form,
    windmill_graph,
    wprime_graph,
)
from spectree.graphs import (
    Graph,
    degrees,
    edge_list,
    from_edge_list,
    is_connected,
    is_star,
    is_tree,
)
from spectree.spectra import (
    a_beta_m,
    eigvec_lift_check,
    product_connected,
    product_laplacian_spectrum_decomposed,
    product_laplacian_spectrum_direct,
    product_spectrum,
    q_matrix,
    q_min,
)
from spectree.verify import check_theorem_21

from _oracles import (
    cartesian_adjacency_oracle,
    centers_oracle,
    kron_adjacency_oracle,
    line_graph_oracle,
    prufer_to_tree,
    random_prufer_tree,
    representative_oracle,
    tree_key_oracle,
)
from _strategies import PROPERTY, general_graphs

# free trees on 1..12 vertices (OEIS A000055)
FREE_TREE_COUNTS = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551)


# ---- constructors ----

def test_path_star_complete_shapes():
    assert edge_list(path_graph(4)) == [(0, 1), (1, 2), (2, 3)]
    assert is_star(star_graph(6)) and star_graph(6).edge_count == 5
    assert degrees(star_graph(6))[0] == 5
    assert complete_graph(5).edge_count == 10   # every pair of 5 vertices
    with pytest.raises(ValueError):
        path_graph(0)
    with pytest.raises(ValueError):
        star_graph(1)


def test_tkst_shape():
    t = tkst_tree(2, 3, 1)
    assert is_tree(t)
    assert t.n == 2 + 1 + 3 + 1
    deg = degrees(t)
    assert deg[0] == 4 and deg[2] == 2  # s+1 at one end, t+1 at the other
    assert sorted(deg.tolist(), reverse=True) == [4, 2, 2, 1, 1, 1, 1]
    with pytest.raises(ValueError):
        tkst_tree(0, 2, 2)


def test_diam4_shape():
    t = diam4_tree(3, (2, 2, 1))
    assert is_tree(t) and t.n == 1 + 3 + 5
    assert degrees(t)[0] == 3
    with pytest.raises(ValueError):
        diam4_tree(1, (2, 2))
    with pytest.raises(ValueError):
        diam4_tree(3, (2, 0, 0))  # second largest load must be >= 1


def test_windmill_shape():
    w = windmill_graph(3, 4)
    assert w.n == 1 + 3 * 3
    assert degrees(w)[0] == 9
    assert set(degrees(w).tolist()[1:]) == {3}
    with pytest.raises(ValueError):
        windmill_graph(1, 3)
    with pytest.raises(ValueError):
        windmill_graph(3, 2)


def test_wprime_shape():
    w = wprime_graph(3, 4)
    assert w.n == 3 * 4
    # core vertices: eta-1 core neighbors + mu-1 blade neighbors
    assert degrees(w)[0] == 2 + 3
    with pytest.raises(ValueError):
        wprime_graph(1, 3)


def test_book_is_stacked_triangle_pages():
    b = book_graph(3)
    assert b.n == 8
    assert b.edge_count == 3 * 2 + 3 + 1  # pages contribute 2 edges each + spine copies + spine rung
    # book = star box K_2
    oracle = cartesian_adjacency_oracle(
        star_graph(4).adj.astype(bool), complete_graph(2).adj.astype(bool)
    )
    np.testing.assert_array_equal(b.adj, oracle)


_TREE = tkst_tree(1, 2, 2)
_P4 = path_graph(4)

# every function with an integer parameter: the function, valid arguments,
# and (name, floor) for each integer argument, None for any other; a floor
# of None admits any integer; the family constructors are keyed by their
# descriptor kind
_INT_PARAMS = {
    "path": (path_graph, (4,), (("n", 1),)),
    "star": (star_graph, (4,), (("n", 2),)),
    "complete": (complete_graph, (4,), (("n", 1),)),
    "tkst": (tkst_tree, (1, 2, 2), (("k", 1), ("s", 0), ("t", 0))),
    "diam4": (families._FAMILIES["diam4"][0], (3, 2, 2, 1), (("k", 2), ("xs[0]", 0), ("xs[1]", 0), ("xs[2]", 0))),
    "windmill": (windmill_graph, (2, 3), (("eta", 2), ("mu", 3))),
    "wprime": (wprime_graph, (3, 2), (("eta", 2), ("mu", 2))),
    "book": (book_graph, (3,), (("k", 1),)),
    "from_edge_list": (from_edge_list, (3, [(0, 1)]), (("n", 1), None)),
    "enumerate_free_trees": (enumerate_free_trees, (6,), (("n", 1),)),
    "beta_m": (beta_m, (_TREE, 3), (None, ("m", 2))),
    "q_matrix": (q_matrix, (_P4, 3), (None, ("m", 2))),
    "q_min": (q_min, (_P4, 3), (None, ("m", 2))),
    "product_laplacian_spectrum_direct": (product_laplacian_spectrum_direct, (_P4, 3), (None, ("m", 2))),
    "product_laplacian_spectrum_decomposed": (product_laplacian_spectrum_decomposed, (_P4, 3), (None, ("m", 2))),
    "product_spectrum": (product_spectrum, (_P4, 3), (None, ("m", 2))),
    "product_connected": (product_connected, (_P4, 3), (None, ("m", 2))),
    "a_beta_m": (a_beta_m, (_TREE, 3), (None, ("m", 2))),
    "eigvec_lift_check": (eigvec_lift_check, (_P4, 3), (None, ("m", 2))),
    "star_product_spectrum": (star_product_spectrum, (4, 3), (("n", 3), ("m", 2))),
    "t1st_line_laplacian_spectrum": (t1st_line_laplacian_spectrum, (2, 3), (("s", 1), ("t", 1))),
    "CubicCoeffs": (CubicCoeffs, (2, 3, 3), (("s", 1), ("t", 1), ("m", 2))),
    "integer_roots_of_monic_cubic": (integer_roots_of_monic_cubic, (6, 11, 6), (("a", None), ("b", None), ("c", None))),
    "is_beta_laplacian_integral": (is_beta_laplacian_integral, (2, 2, 3), (("s", 1), ("t", 1), ("m", 2))),
    "windmill_product_spectrum": (windmill_product_spectrum, (2, 3, 3), (("eta", 2), ("mu", 3), ("m", 2))),
    "windmill_q_quadratic": (windmill_q_quadratic, (2, 3, 3), (("eta", 2), ("mu", 3), ("m", 2))),
    "wprime_quadratics": (wprime_quadratics, (3, 2, 3), (("eta", 2), ("mu", 2), ("m", 2))),
    "wprime_product_spectrum": (wprime_product_spectrum, (3, 2, 3), (("eta", 2), ("mu", 2), ("m", 2))),
    "wprime_algebraic_connectivity": (wprime_algebraic_connectivity, (3, 4, 3), (("eta", 3), ("mu", 3), ("m", 2))),
    "book_line_laplacian_spectrum": (book_line_laplacian_spectrum, (3,), (("k", 1),)),
    "book_aconn_bound": (book_aconn_bound, (3, 3), (("k", 2), ("m", 2))),
    # each entry of ms on its own
    "check_theorem_21": (lambda max_n, m0, m1: check_theorem_21(max_n, (m0, m1)), (4, 2, 3), (("max_n", 3), ("m", 2), ("m", 2))),
}


def _same(a, b) -> bool:
    if isinstance(a, Graph):
        return np.array_equal(a.adj, b.adj)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


@pytest.mark.parametrize("kind", sorted(_INT_PARAMS))
def test_constructors_name_a_non_integer_size(kind):
    # one rule for every size or order: a float, a bool or a string is not
    # an integer, one below the floor is too small, and each error names
    # the argument; numpy integers are sizes too
    fn, params, rules = _INT_PARAMS[kind]
    want = fn(*params)
    for i, rule in enumerate(rules):
        if rule is None:
            continue
        name, lo = rule
        cases = [(bad, f"must be an integer, got {bad!r}") for bad in (float(params[i]), True, str(params[i]))]
        if lo is not None:
            cases.append((lo - 1, f"must be >= {lo}, got {lo - 1}"))
        for bad, problem in cases:
            with pytest.raises(ValueError, match=f"^{re.escape(f'{name} {problem}')}$"):
                fn(*params[:i], bad, *params[i + 1:])
    assert _same(fn(*(p if r is None else np.int64(p) for p, r in zip(params, rules))), want)


def test_complete_graph_is_read_only():
    k3 = complete_graph(3)
    np.testing.assert_array_equal(k3.adj, ~np.eye(3, dtype=bool))
    assert not k3.adj.flags.writeable
    with pytest.raises(ValueError):
        k3.adj[0, 1] = False
    with pytest.raises(ValueError):
        k3.adj.flags.writeable = True
    assert k3.edge_count == 3


def test_complete_graph_checks_n():
    # True == 1 and 2.0 == 2, but neither is an integer size
    assert complete_graph(1).n == 1 and complete_graph(2).n == 2
    for bad in (True, 2.0, False, 1.0):
        with pytest.raises(ValueError, match=f"^n must be an integer, got {bad!r}$"):
            complete_graph(bad)


# ---- descriptors ----

def test_parse_format_round_trip():
    for text in ("path:5", "star:4", "complete:6", "tkst:1,2,3", "windmill:3,4", "wprime:3,3", "book:5", "diam4:3;2,2,1"):
        np.testing.assert_array_equal(parse_family(f" {text.upper()} ").adj, parse_family(text).adj, err_msg=text)


def test_parse_family_errors():
    for bad in ("nope:3", "path", "path:x", "tkst:1,2", "diam4:3;2", "diam4:a;1,1", ""):
        with pytest.raises(ValueError):
            parse_family(bad)
    # a parameter that is not an integer literal is named as such, before
    # the kind is checked
    for bad in ("path:x", "windmill:2.5,3", "tkst:1,,2", "diam4:a;1,1", "diam4:3;2,b,1", "diam4:2,1;1", "nope:x"):
        with pytest.raises(ValueError, match=f"^bad family descriptor {re.escape(repr(bad))}: parameters must be integers$"):
            parse_family(bad)


def test_build_matches_constructors():
    cases = (
        ("path:4", path_graph(4)),
        ("star:5", star_graph(5)),
        ("complete:4", complete_graph(4)),
        ("tkst:1,2,2", tkst_tree(1, 2, 2)),
        ("diam4:3;2,2,0", diam4_tree(3, (2, 2, 0))),
        ("windmill:2,3", windmill_graph(2, 3)),
        ("wprime:3,2", wprime_graph(3, 2)),
        ("book:3", book_graph(3)),
    )
    for text, want in cases:
        np.testing.assert_array_equal(parse_family(text).adj, want.adj, err_msg=text)


def test_family_descriptor_validation():
    cases = (
        ("nope:3", "unknown family kind 'nope'"),
        ("path:3,4", "path takes 1 parameter(s)"),
        ("tkst:1,2", "tkst takes 3 parameter(s)"),
        ("diam4:3;2,2", "diam4 takes params (k, x1, .., xk)"),
        ("diam4:3", "diam4 needs 'k;x1,..,xk'"),
        ("path", "bad family descriptor 'path'"),
    )
    for text, msg in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            parse_family(text)


# ---- products ----

def test_line_graph_matches_definition():
    samples = [path_graph(5), star_graph(5), tkst_tree(2, 2, 2), book_graph(2),
               from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
               windmill_graph(2, 3)]
    for g in samples:
        lg, emap = line_graph(g)
        oracle = line_graph_oracle(g)
        np.testing.assert_array_equal(lg.adj, oracle.adj)
        assert list(emap) == edge_list(g)


@PROPERTY
@given(general_graphs())
def test_line_graph_matches_definition_on_general_graphs(g):
    if g.edge_count:
        lg, emap = line_graph(g)
        np.testing.assert_array_equal(lg.adj, line_graph_oracle(g).adj)
        assert list(emap) == edge_list(g)


def test_line_graph_known_shapes():
    assert np.array_equal(line_graph(star_graph(5))[0].adj, complete_graph(4).adj)  # L(K_{1,4}) = K_4
    lp = line_graph(path_graph(6))[0]
    assert is_tree(lp) and max(degrees(lp)) == 2       # L(P_6) = P_5
    with pytest.raises(ValueError):
        line_graph(from_edge_list(2, []))              # no edges


def test_kronecker_matches_definition():
    pairs = [(path_graph(3), complete_graph(2)), (complete_graph(3), complete_graph(3)),
             (star_graph(4), complete_graph(3))]
    for g, h in pairs:
        got = kronecker(g, h)
        np.testing.assert_array_equal(got.adj, kron_adjacency_oracle(g.adj, h.adj))


def test_cartesian_matches_definition():
    got = cartesian(path_graph(3), path_graph(2))
    np.testing.assert_array_equal(
        got.adj, cartesian_adjacency_oracle(path_graph(3).adj, path_graph(2).adj)
    )


@PROPERTY
@given(general_graphs(), general_graphs())
def test_cartesian_matches_definition_on_general_graphs(g, h):
    np.testing.assert_array_equal(cartesian(g, h).adj, cartesian_adjacency_oracle(g.adj, h.adj))


def test_beta_m_is_line_graph_times_clique():
    tree = tkst_tree(1, 2, 2)
    got = beta_m(tree, 3)
    lg, _ = line_graph(tree)
    np.testing.assert_array_equal(got.adj, kronecker(lg, complete_graph(3)).adj)
    with pytest.raises(ValueError):
        beta_m(complete_graph(3), 2)  # not a tree
    with pytest.raises(ValueError):
        beta_m(tree, 1)


def test_kronecker_with_k2_of_bipartite_disconnects():
    prod = kronecker(path_graph(4), complete_graph(2))
    assert not is_connected(prod)
    prod = kronecker(complete_graph(3), complete_graph(2))
    assert is_connected(prod)


# ---- enumeration ----

def test_free_tree_counts():
    for n, want in enumerate(FREE_TREE_COUNTS, start=1):
        assert len(enumerate_free_trees(n)) == want


# free trees on 1..18 vertices (OEIS A000055); past n = 12 only the
# generator's level rows are counted
LEVEL_ROW_COUNTS = FREE_TREE_COUNTS + (1301, 3159, 7741, 19320, 48629, 123867)

# SHA-256 of _free_tree_levels(n).tobytes(): every row and the row order
LEVEL_ROW_DIGESTS = {
    16: "be5f96af39d6e4009bd364e660b2075cbab4de9b717ce15d7903a3879d745d7f",
    18: "723f7b776116c8c93a0ee9895f548bf7393c8b94ded18fb9f2328694ff10154b",
}


def test_free_tree_level_rows_are_pinned():
    # the generator's own rows, past the n <= 15 that the enumerate goldens
    # pin through the CLI
    assert families._free_tree_levels(1).tolist() == [[0]]
    assert families._free_tree_levels(2).tolist() == [[0, 1]]
    for n, want in enumerate(LEVEL_ROW_COUNTS, start=1):
        rows = families._free_tree_levels(n)
        assert (rows.shape, rows.dtype) == ((want, n), np.uint8), n
        if n in LEVEL_ROW_DIGESTS:
            assert hashlib.sha256(rows.tobytes()).hexdigest() == LEVEL_ROW_DIGESTS[n], n


@pytest.mark.parametrize("n", [1, 2, 7])
def test_free_tree_level_rows_are_fresh_and_writable(n):
    # callers may write into the rows they get without touching another call's
    a, b = families._free_tree_levels(n), families._free_tree_levels(n)
    assert a.flags.writeable and b.flags.writeable and not np.shares_memory(a, b)
    a[:] = 9
    assert b.tolist() == families._free_tree_levels(n).tolist()


def test_free_tree_levels_name_the_uint8_bound(monkeypatch):
    # n = 511 passes the check and starts the generator, stopped here at
    # its first successor step; n = 512 is refused before it starts
    class Started(Exception):
        pass

    def started(seq, p):
        raise Started

    monkeypatch.setattr(families, "_successor", started)
    with pytest.raises(Started):
        families._free_tree_levels(511)
    problem = (
        "n must be <= 511, got 512: the free trees' level rows are uint8, and the path on "
        "n vertices has its center at level n // 2"
    )
    for read in (families._free_tree_levels, enumerate_free_trees):
        with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
            read(512)


def test_enumerated_trees_are_trees_and_distinct():
    """With the A000055 counts, sorted and distinct oracle keys pin the set
    of trees and their order. Vertex 0 of each is a center, and up to
    n = 10 the canonical form is the oracle's key."""
    for n, count in enumerate(FREE_TREE_COUNTS, start=1):
        trees = enumerate_free_trees(n)
        keys = [tree_key_oracle(t) for t in trees]
        assert all(is_tree(t) and t.n == n for t in trees)
        assert len(trees) == count and len(set(keys)) == count
        assert keys == sorted(keys)  # deterministic canonical order
        assert all(0 in centers_oracle(t) for t in trees)
        if n <= 10:
            assert [tree_canonical_form(t) for t in trees] == keys


def test_enumeration_matches_prufer_oracle():
    """Exhaustive Prufer generation + dedup must give the same canonical
    sets (n <= 7 keeps the 5^3..7^5 sweep fast)."""
    for n in range(2, 8):
        oracle = set()
        for seq in itertools.product(range(n), repeat=max(0, n - 2)):
            oracle.add(tree_canonical_form(prufer_to_tree(n, seq)))
        got = {tree_canonical_form(t) for t in enumerate_free_trees(n)}
        assert got == oracle


def test_enumeration_matches_networkx():
    nx = pytest.importorskip("networkx")
    for n in range(1, 13):
        theirs = [tree_canonical_form(from_edge_list(n, t.edges)) for t in nx.nonisomorphic_trees(n)]
        ours = [tree_canonical_form(t) for t in enumerate_free_trees(n)]
        assert len(theirs) == len(ours) == len(set(ours)), n
        assert sorted(theirs) == sorted(ours), n


def _relabel(rng, tree):
    perm = rng.permutation(tree.n)
    return from_edge_list(tree.n, [(int(perm[u]), int(perm[v])) for u, v in edge_list(tree)])


def test_canonical_form_is_isomorphism_invariant():
    rng = np.random.default_rng(11)
    for n in (5, 6, 7, 8):
        for tree in enumerate_free_trees(n)[:4]:
            base = tree_canonical_form(tree)
            for _ in range(5):
                assert tree_canonical_form(_relabel(rng, tree)) == base


def test_canonical_form_of_random_trees():
    """Arbitrary labelled trees, re-rooted at a peripheral vertex, get the
    oracle's key, and so does every relabelled copy."""
    rng = np.random.default_rng(21)
    for n in range(3, 41):
        for _ in range(12):
            tree = random_prufer_tree(rng, n)
            key = tree_key_oracle(tree)
            assert tree_canonical_form(tree) == key
            assert tree_canonical_form(_relabel(rng, tree)) == key


def _caterpillar(legs):
    # a path on len(legs) vertices with legs[i] leaves hung on vertex i;
    # its diameter is len(legs) - 1, plus one for each loaded end
    edges = [(i, i + 1) for i in range(len(legs) - 1)]
    for i, k in enumerate(legs):
        for _ in range(k):
            edges.append((i, len(edges) + 1))
    return from_edge_list(len(edges) + 1, edges)


@pytest.mark.parametrize("legs", [
    (2, 0, 1, 3),           # diameter 5: two centers
    (1, 2, 0, 2, 1),        # diameter 6: one center
    (0, 3, 1, 1, 2, 0),     # diameter 5
    (3, 1, 0, 0, 1, 2, 1),  # diameter 8
])
def test_canonical_form_of_caterpillars(legs):
    tree = _caterpillar(legs)
    key = tree_key_oracle(tree)
    assert tree_canonical_form(tree) == key
    rng = np.random.default_rng(len(legs))
    for _ in range(20):
        assert tree_canonical_form(_relabel(rng, tree)) == key


def test_canonical_form_orders_equal_heights_by_encoding():
    """Children of equal height are joined by encoding, not by label. On
    the path 0..10, vertex 4 carries a branch with two leaves and one with
    a single leaf: equal heights, different encodings, and either branch
    may get the smaller labels, so an order that keeps label order among
    equal heights lists the one-leaf branch first in one of the two."""
    for two, one in ((11, 14), (13, 11)):
        edges = [(i, i + 1) for i in range(10)]
        edges += [(4, two), (two, two + 1), (two, two + 2), (4, one), (one, one + 1)]
        tree = from_edge_list(16, edges)
        key = tree_key_oracle(tree)
        assert tree_canonical_form(tree) == key
        rng = np.random.default_rng(two)
        for _ in range(10):
            assert tree_canonical_form(_relabel(rng, tree)) == key


def test_enumeration_keeps_largest_level_sequence():
    """Each kept tree is the one its lexicographically largest level
    sequence rooted at a center builds. The oracle sees a relabelled
    copy."""
    rng = np.random.default_rng(12)
    for n in range(1, 11):
        for tree in enumerate_free_trees(n):
            assert edge_list(tree) == representative_oracle(_relabel(rng, tree))


@st.composite
def _level_rows(draw):
    """One to four level sequences of one length n <= 9, and in about half
    of the draws one entry set to any level from 0 to n, which may break
    its row."""
    n = draw(st.integers(1, 9))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        row = [0]
        for _ in range(n - 1):
            row.append(draw(st.integers(1, row[-1] + 1)))
        rows.append(row)
    if draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, n - 1))] = draw(st.integers(0, n))
    return np.array(rows, dtype=np.uint8)


@PROPERTY
@given(_level_rows())
def test_rows_that_pass_the_level_check_give_an_earlier_parent_for_each_vertex(rows):
    # the level check is the only check on the generator's rows: a row that
    # passes it must give each vertex v >= 1 one edge to its parent, the
    # last earlier vertex one level up, with 0 <= parent < v; the first row
    # and vertex that fail it must be named
    n = rows.shape[1]
    bad = [(i, v) for i, row in enumerate(rows.tolist()) for v in range(n)
           if not (row[v] == 0 if v == 0 else 1 <= row[v] <= row[v - 1] + 1)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(families, "_free_tree_levels", lambda _: rows.copy())
        if bad:
            i, v = bad[0]
            problem = f"tree {i} on n = {n} vertices has level {rows[i, v]} at vertex {v}; "
            with pytest.raises(ValueError, match=f"^{re.escape(problem)}"):
                families._free_tree_chunks(n)
            return
        count, chunks = families._free_tree_chunks(n)
        ((lo, u, v),) = chunks
    assert (count, lo) == (len(rows), 0)
    for row, us, vs in zip(rows.tolist(), u.tolist(), v.tolist()):
        parents = [max((w for w in range(x) if row[w] == row[x] - 1), default=-1) for x in range(1, n)]
        assert all(0 <= p < x for x, p in enumerate(parents, start=1))
        assert list(zip(us, vs)) == sorted(zip(parents, range(1, n)))


def test_canonical_form_of_paths_and_stars():
    # K_1, odd paths and stars on 3+ vertices have one center; even paths two
    assert tree_canonical_form(path_graph(1)) == "()"
    assert tree_canonical_form(path_graph(2)) == "(())"
    assert tree_canonical_form(path_graph(3)) == "(()())" == tree_canonical_form(star_graph(3))
    assert tree_canonical_form(path_graph(4)) == "((())())"
    assert tree_canonical_form(path_graph(5)) == "((())(()))"
    assert tree_canonical_form(star_graph(5)) == "(()()()())"
    rng = np.random.default_rng(4)
    for n in range(1, 10):
        trees = [path_graph(n)]
        if n >= 2:
            # a star centred on the last vertex as well as on vertex 0
            trees += [star_graph(n), from_edge_list(n, [(n - 1, i) for i in range(n - 1)])]
        for t in trees:
            key = tree_key_oracle(t)
            assert tree_canonical_form(t) == key
            assert tree_canonical_form(_relabel(rng, t)) == key
    assert tree_canonical_form(star_graph(9)) == "(" + "()" * 8 + ")"
    off_zero = from_edge_list(7, [(3, i) for i in range(7) if i != 3])  # centred on vertex 3
    assert tree_canonical_form(off_zero) == "(" + "()" * 6 + ")" == tree_key_oracle(off_zero)


def test_canonical_form_separates_nonisomorphic():
    a = tkst_tree(1, 2, 2)
    b = tkst_tree(2, 2, 1)
    assert a.n == b.n
    assert tree_canonical_form(a) != tree_canonical_form(b)


def test_canonical_form_requires_tree():
    with pytest.raises(ValueError):
        tree_canonical_form(complete_graph(3))
    # n - 1 edges but disconnected: a triangle beside an edge
    with pytest.raises(ValueError, match="defined for trees"):
        tree_canonical_form(from_edge_list(5, [(0, 1), (1, 2), (0, 2), (3, 4)]))
    # disconnected with too few edges: two disjoint edges
    with pytest.raises(ValueError, match="defined for trees"):
        tree_canonical_form(from_edge_list(4, [(0, 1), (2, 3)]))
