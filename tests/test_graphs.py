import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import given

from spectree.families import (
    complete_graph,
    enumerate_free_trees,
    kronecker,
    line_graph,
    path_graph,
    star_graph,
    windmill_graph,
    wprime_graph,
)
from spectree.graphs import (
    Graph,
    block_decomposition,
    block_structure_is_star,
    blocks_all_complete,
    degrees,
    edge_list,
    from_edge_list,
    graph_from_dict,
    graph_to_dict,
    is_bipartite,
    is_connected,
    is_restricted,
    is_star,
    is_tree,
    load_graph,
    save_graph,
)

from _oracles import brute_cut_vertices, component_count, is_bipartite_oracle, recursive_blocks
from _strategies import PROPERTY, general_graphs


def test_from_edge_list_basic():
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.edge_count == 3
    assert edge_list(g) == [(0, 1), (1, 2), (2, 3)]
    np.testing.assert_array_equal(g.adj, g.adj.T)
    assert not g.adj.diagonal().any()


def test_from_edge_list_duplicates_collapse():
    g = from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


def test_from_edge_list_rejects_bad_edges():
    with pytest.raises(ValueError):
        from_edge_list(3, [(0, 0)])
    with pytest.raises(ValueError):
        from_edge_list(3, [(0, 3)])
    with pytest.raises(ValueError):
        from_edge_list(3, [(-1, 1)])


@pytest.mark.parametrize("n, bad", [(2.0, "2.0"), (True, "True"), ("3", "'3'"), (None, "None")])
def test_from_edge_list_rejects_non_integer_n(n, bad):
    with pytest.raises(ValueError, match=f"n must be an integer, got {bad}"):
        from_edge_list(n, [])


@pytest.mark.parametrize("edge, bad", [((0, 1.7), "1.7"), ((True, 2), "True"), (("0", 1), "'0'")])
def test_from_edge_list_rejects_non_integer_endpoints(edge, bad):
    with pytest.raises(ValueError, match=f"endpoints must be integers, got {bad}"):
        from_edge_list(3, [edge])


def test_from_edge_list_takes_numpy_integers():
    g = from_edge_list(3, [(np.int64(0), np.int32(1)), (np.uint8(1), 2)])
    assert edge_list(g) == [(0, 1), (1, 2)]


def test_adjacency_is_read_only():
    # a shared K_n, a product built from a reshaped temporary, and a graph
    # from an edge list all hold a read-only copy
    for g in (complete_graph(3), kronecker(path_graph(3), complete_graph(3)), from_edge_list(3, [(0, 1)])):
        with pytest.raises(ValueError):
            g.adj[0, 2] = not g.adj[0, 2]
        arr = g.adj  # neither adj nor any array it views can be switched back
        while isinstance(arr, np.ndarray):
            with pytest.raises(ValueError):
                arr.flags.writeable = True
            arr = arr.base
    assert complete_graph(3).edge_count == 3
    # the caller's array stays writable, and writing to it leaves the Graph as built
    adj = np.zeros((2, 2), dtype=bool)
    g = Graph(adj)
    adj[0, 1] = adj[1, 0] = True
    assert g.edge_count == 0


def test_graph_rejects_invalid_adjacency():
    one_way = np.zeros((3, 3), dtype=bool)
    one_way[0, 1] = True
    loop = np.zeros((2, 2), dtype=bool)
    loop[1, 1] = True
    cases = (
        (np.ones((2, 3), dtype=bool), r"shape \(2, 3\), expected a square"),
        (np.zeros(3, dtype=bool), r"shape \(3,\), expected a square"),
        (np.zeros((2, 2, 2), dtype=bool), r"shape \(2, 2, 2\), expected a square"),
        (one_way, "not symmetric"),
        (loop, "diagonal"),
        (np.zeros((2, 2)), "dtype bool"),
        ([[False, True], [True, False]], "dtype bool"),
    )
    for adj, msg in cases:
        with pytest.raises(ValueError, match=msg):
            Graph(adj)
    assert Graph(np.array([[False, True], [True, False]])).edge_count == 1


def test_graph_is_its_adjacency_matrix():
    assert [f.name for f in dataclasses.fields(Graph)] == ["adj"]
    g = Graph(np.zeros((3, 3), dtype=bool))
    assert g.n == 3 and type(g.n) is int
    with pytest.raises(AttributeError):
        g.n = 4
    # the vertex count is not a second argument: n=2.0 or n=True cannot slip in
    with pytest.raises(TypeError):
        Graph(n=2.0, adj=np.zeros((2, 2), dtype=bool))


def test_graph_rejects_bad_vertex_count_and_labels():
    with pytest.raises(ValueError, match="at least one vertex, got n=0"):
        Graph(np.zeros((0, 0), dtype=bool))
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"^n must be >= 1, got {n}$"):
            from_edge_list(n, [])
    # vertices carry no labels: a line graph's edge_map says which edge is which
    with pytest.raises(TypeError):
        Graph(np.zeros((2, 2), dtype=bool), labels=("a", "b"))
    with pytest.raises(TypeError):
        from_edge_list(2, [(0, 1)], labels=["a", "b"])


def test_degrees_and_min_degree():
    g = from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
    assert degrees(g).tolist() == [3, 1, 1, 1]
    assert degrees(g).min() == 1
    assert degrees(complete_graph(4)).min() == 3


def test_connectivity():
    assert is_connected(path_graph(5))
    assert is_connected(from_edge_list(1, []))
    assert not is_connected(from_edge_list(4, [(0, 1), (2, 3)]))
    assert not is_connected(from_edge_list(2, []))


def test_bipartite():
    assert is_bipartite(path_graph(6))
    assert is_bipartite(star_graph(5))
    assert is_bipartite(from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    assert not is_bipartite(complete_graph(3))
    assert not is_bipartite(windmill_graph(2, 3))
    # disconnected with an odd cycle in one part
    g = from_edge_list(5, [(0, 1), (2, 3), (3, 4), (2, 4)])
    assert not is_bipartite(g)


def test_shape_predicates():
    assert is_tree(path_graph(4))
    assert not is_tree(complete_graph(3))
    assert not is_tree(from_edge_list(4, [(0, 1), (2, 3)]))
    assert is_star(star_graph(4))
    assert is_star(path_graph(2))
    assert is_star(path_graph(3))  # K_{1,2}
    assert not is_star(path_graph(4))


# ---- block decomposition ----

def _sample_graphs():
    out = []
    for n in range(2, 8):
        out.extend(enumerate_free_trees(n))
    out.append(complete_graph(4))
    out.append(from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]))  # C_5
    out.append(windmill_graph(2, 3))
    out.append(windmill_graph(3, 4))
    out.append(wprime_graph(3, 3))
    # chain of three triangles
    out.append(from_edge_list(7, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4), (4, 5), (4, 6), (5, 6)]))
    # triangle with a pendant at each corner: one block with 3 cut vertices
    out.append(from_edge_list(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)]))
    for lg_src in (star_graph(5), path_graph(6)):
        out.append(line_graph(lg_src)[0])
    # seeded random connected graphs
    rng = np.random.default_rng(7)
    while len(out) < 60:
        n = int(rng.integers(3, 9))
        adj = np.triu(rng.random((n, n)) < 0.4, 1)
        g = from_edge_list(n, [(int(u), int(v)) for u, v in zip(*np.nonzero(adj))])
        if component_count(g.adj) == 1:  # the oracle, so a broken is_connected cannot hang this
            out.append(g)
    return out


def test_blocks_match_recursive_oracle():
    for g in _sample_graphs():
        dec = block_decomposition(g)
        got = {frozenset(b) for b in dec.blocks}
        assert got == recursive_blocks(g), edge_list(g)


def test_cut_vertices_match_brute_force():
    for g in _sample_graphs():
        dec = block_decomposition(g)
        assert set(dec.cut_vertices) == brute_cut_vertices(g), edge_list(g)


def test_block_shape_predicates_match_oracles():
    # star: one vertex lies in every block; restricted: no block holds
    # more than two cut vertices
    seen = set()
    for g in _sample_graphs():
        blocks = recursive_blocks(g)
        cut = brute_cut_vertices(g)
        star = bool(frozenset.intersection(*blocks))
        restricted = all(len(b & cut) <= 2 for b in blocks)
        assert block_structure_is_star(g) == star, edge_list(g)
        assert is_restricted(g) == restricted, edge_list(g)
        seen.add((star, restricted))
    assert seen == {(True, True), (False, True), (False, False)}


def test_blocks_cover_every_edge_once():
    for g in _sample_graphs():
        dec = block_decomposition(g)
        seen = set()
        for b in dec.blocks:
            sub = g.adj[np.ix_(b, b)]
            for i, j in zip(*np.nonzero(np.triu(sub, 1))):
                e = (b[i], b[j])
                assert e not in seen
                seen.add(e)
        assert seen == set(edge_list(g))


def test_long_path_blocks():
    # deeper than the default recursion limit
    dec = block_decomposition(path_graph(2000))
    assert sorted(dec.blocks) == [(i, i + 1) for i in range(1999)]
    assert dec.cut_vertices == tuple(range(1, 1999))


def test_block_decomposition_requires_connected():
    with pytest.raises(ValueError):
        block_decomposition(from_edge_list(4, [(0, 1), (2, 3)]))


def test_single_vertex_decomposition():
    dec = block_decomposition(from_edge_list(1, []))
    assert dec.blocks == ((0,),)
    assert dec.cut_vertices == ()


def test_tree_blocks_are_edges():
    for tree in enumerate_free_trees(7):
        dec = block_decomposition(tree)
        assert {frozenset(b) for b in dec.blocks} == {frozenset(e) for e in edge_list(tree)}
        internal = {v for v in range(tree.n) if degrees(tree)[v] >= 2}
        assert set(dec.cut_vertices) == internal


def test_windmill_block_structure():
    w = windmill_graph(4, 3)
    dec = block_decomposition(w)
    assert len(dec.blocks) == 4
    assert dec.cut_vertices == (0,)
    assert is_restricted(w)
    assert blocks_all_complete(w)
    assert block_structure_is_star(w)


def test_triangle_chain_structure():
    chain = from_edge_list(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    assert is_restricted(chain)
    assert blocks_all_complete(chain)
    # two blocks sharing one cut vertex still form a star shape (P_3)
    assert block_structure_is_star(chain)
    longer = from_edge_list(7, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4), (4, 5), (4, 6), (5, 6)])
    assert not block_structure_is_star(longer)


def test_three_cut_vertex_block_not_restricted():
    g = from_edge_list(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])
    assert not is_restricted(g)
    assert not block_structure_is_star(g)


def test_blocks_all_complete_negative():
    c5 = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert not blocks_all_complete(c5)


# ---- serialization ----

def test_graph_dict_round_trip():
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    d = graph_to_dict(g)
    assert d == {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}
    h = graph_from_dict(json.loads(json.dumps(d)))
    assert h.n == g.n
    assert edge_list(h) == edge_list(g)
    # files written with vertex labels still load; the key is ignored
    h = graph_from_dict({**d, "labels": ["a", "b", "c", "d"]})
    assert edge_list(h) == edge_list(g)


@pytest.mark.parametrize(
    "doc, problem",
    [
        ([1, 2], "must be a JSON object"),
        ({"edges": []}, "no 'n'"),
        ({"n": 3}, "no 'edges'"),
        ({"n": "3", "edges": []}, "'n' must be an integer"),
        ({"n": 3.7, "edges": []}, "'n' must be an integer"),
        ({"n": True, "edges": []}, "'n' must be an integer"),
        ({"n": 3, "edges": 5}, "'edges' must be a list"),
        ({"n": 3, "edges": [[0, 1, 2]]}, "pair of integers"),
        ({"n": 3, "edges": [[0, "1"]]}, "pair of integers"),
        ({"n": 3, "edges": [[0, 1.0]]}, "pair of integers"),
        ({"n": 3, "edges": [[0, True]]}, "pair of integers"),
        ({"n": 3, "edges": [5]}, "pair of integers"),
    ],
)
def test_graph_from_dict_rejects_malformed(doc, problem):
    with pytest.raises(ValueError, match=problem):
        graph_from_dict(json.loads(json.dumps(doc)))


def test_graph_file_round_trip(tmp_path):
    g = windmill_graph(3, 3)
    path = tmp_path / "w.json"
    save_graph(g, path)
    h = load_graph(path)
    assert edge_list(h) == edge_list(g)
    assert json.loads(path.read_text()) == graph_to_dict(g)


# ---- property tests on general graphs ----

@PROPERTY
@given(general_graphs())
def test_neighbor_view_matches_adjacency(g):
    assert g.neighbors is g.neighbors  # built once
    # isolated vertices first and last, where the cumulative-degree split
    # has empty slices at both ends
    padded = Graph(np.pad(g.adj, 1))
    for h in (g, padded):
        assert type(h.neighbors) is tuple and len(h.neighbors) == h.n
        for v, nb in enumerate(h.neighbors):
            assert type(nb) is tuple and all(type(w) is int for w in nb)
            assert nb == tuple(np.flatnonzero(h.adj[v]).tolist())
    assert padded.neighbors[0] == padded.neighbors[-1] == ()


@PROPERTY
@given(general_graphs(), general_graphs())
def test_kronecker_is_the_kron_of_the_adjacency_matrices(g, h):
    k1 = complete_graph(1)
    for a, b in ((g, h), (h, g), (g, k1), (k1, g)):
        prod = kronecker(a, b)
        assert prod.adj.dtype == np.bool_ and not prod.adj.flags.writeable
        np.testing.assert_array_equal(prod.adj, np.kron(a.adj, b.adj))


@PROPERTY
@given(general_graphs())
def test_is_connected_matches_union_find(g):
    assert is_connected(g) == (component_count(g.adj) == 1)


@PROPERTY
@given(general_graphs())
def test_is_bipartite_matches_brute_force(g):
    assert is_bipartite(g) == is_bipartite_oracle(g)


@PROPERTY
@given(general_graphs())
def test_blocks_match_recursive_oracle_on_general_graphs(g):
    # connected draws only; K_1 is one block here and none in the oracle
    if g.n >= 2 and component_count(g.adj) == 1:
        assert {frozenset(b) for b in block_decomposition(g).blocks} == recursive_blocks(g)


@PROPERTY
@given(general_graphs())
def test_vertex_count_is_the_adjacency_order(g):
    assert g.n == g.adj.shape[0]


@PROPERTY
@given(general_graphs())
def test_edge_list_and_dict_round_trips_keep_the_edges(g):
    edges = edge_list(g)
    # the upper triangle in row-major order, as plain ints
    iu, iv = np.nonzero(np.triu(g.adj))
    assert edges == list(zip(iu.tolist(), iv.tolist()))
    assert all(type(u) is int and type(v) is int for u, v in edges)
    assert edge_list(from_edge_list(g.n, edges)) == edges
    h = graph_from_dict(graph_to_dict(g))
    assert h.n == g.n and edge_list(h) == edges


@PROPERTY
@given(general_graphs())
def test_line_graph_vertex_i_is_edge_i(g):
    # emap is the one record of which edge became which vertex
    if g.edge_count == 0:
        return
    lg, emap = line_graph(g)
    assert emap == tuple(edge_list(g))
    assert lg.n == len(emap)
    for i, j in itertools.permutations(range(lg.n), 2):
        assert lg.adj[i, j] == (len(set(emap[i]) & set(emap[j])) == 1)
