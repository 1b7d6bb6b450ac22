import itertools

import numpy as np
import pytest

from spectree import families
from spectree.families import (
    FamilyDescriptor,
    beta_m,
    book_graph,
    build,
    cartesian,
    complete_graph,
    diam4_tree,
    enumerate_free_trees,
    format_family,
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
    degrees,
    edge_list,
    from_edge_list,
    is_connected,
    is_star,
    is_tree,
)

from _oracles import (
    cartesian_adjacency_oracle,
    kron_adjacency_oracle,
    line_graph_oracle,
    prufer_to_tree,
    random_prufer_tree,
    representative_oracle,
    tree_key_oracle,
)

# free trees on 1..8 vertices (OEIS A000055)
FREE_TREE_COUNTS = (1, 1, 1, 2, 3, 6, 11, 23)
# canonical keys the enumeration computes for n = 1..9: one per leaf-rooted
# level sequence whose root's height is the tree's diameter, against
# 1, 1, 2, 4, 9, 20, 48, 115, 286 rooted sequences (OEIS A000081)
KEYS_PER_N = (1, 1, 1, 2, 4, 8, 17, 37, 84)


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


# ---- descriptors ----

def test_parse_format_round_trip():
    for text in ("path:5", "star:4", "complete:6", "tkst:1,2,3", "windmill:3,4", "wprime:3,3", "book:5", "diam4:3;2,2,1"):
        desc = parse_family(text)
        assert format_family(desc) == text
        build(desc)


def test_parse_family_errors():
    for bad in ("nope:3", "path", "path:x", "tkst:1,2", "diam4:3;2", "diam4:a;1,1", ""):
        with pytest.raises(ValueError):
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
        np.testing.assert_array_equal(build(parse_family(text)).adj, want.adj, err_msg=text)


def test_family_descriptor_validation():
    with pytest.raises(ValueError):
        FamilyDescriptor("unknown", (3,))
    with pytest.raises(ValueError, match="path takes 1 parameter"):
        FamilyDescriptor("path", (3, 4))
    with pytest.raises(ValueError, match="diam4 takes params"):
        FamilyDescriptor("diam4", (3, 2, 2))


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
        assert lg.labels == tuple(f"{u}-{v}" for u, v in edge_list(g))


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


def test_enumerated_trees_are_trees_and_distinct():
    for n in range(2, 9):
        trees = enumerate_free_trees(n)
        keys = [tree_canonical_form(t) for t in trees]
        assert all(is_tree(t) and t.n == n for t in trees)
        assert len(set(keys)) == len(trees)
        assert keys == sorted(keys)  # deterministic canonical order


def test_enumeration_matches_prufer_oracle():
    """Exhaustive Prufer generation + dedup must give the same canonical
    sets (n <= 7 keeps the 5^3..7^5 sweep fast)."""
    for n in range(2, 8):
        oracle = set()
        for seq in itertools.product(range(n), repeat=max(0, n - 2)):
            oracle.add(tree_canonical_form(prufer_to_tree(n, seq)))
        got = {tree_canonical_form(t) for t in enumerate_free_trees(n)}
        assert got == oracle


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


def test_canonical_form_matches_enumeration_keys(monkeypatch):
    """The key the enumeration computes from each rooted tree's parent
    array equals tree_canonical_form of that tree and of a relabelled copy,
    and the independent oracle's string. Only the peripheral-leaf-rooted
    sequences get a key; the others are turned away with None."""
    spine_key = families._spine_key
    seen = []

    def record(parent, h):
        key = spine_key(parent, h)
        if key is not None:
            seen[-1].append((key, [(parent[v], v) for v in range(1, len(parent))]))
        return key

    monkeypatch.setattr(families, "_spine_key", record)
    for n in range(1, len(KEYS_PER_N) + 1):
        seen.append([])
        enumerate_free_trees(n)
    monkeypatch.undo()

    rng = np.random.default_rng(9)
    assert tuple(len(keyed) for keyed in seen) == KEYS_PER_N
    for n, keyed in enumerate(seen, 1):
        for key, edges in keyed:
            g = from_edge_list(n, edges)
            assert tree_canonical_form(g) == key == tree_key_oracle(g)
            assert tree_canonical_form(_relabel(rng, g)) == key


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


def test_enumeration_keeps_largest_level_sequence():
    """Each kept tree is the one its lexicographically largest level
    sequence over all roots builds, the first of its kind the rooted
    generator emits. The oracle sees a relabelled copy."""
    rng = np.random.default_rng(12)
    for n in range(1, 11):
        for tree in enumerate_free_trees(n):
            assert edge_list(tree) == representative_oracle(_relabel(rng, tree))


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
