import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spectree import families, spectra
from spectree.eigen import eigensystem, eigenvalues
from spectree.families import (
    complete_graph,
    enumerate_free_trees,
    kronecker,
    line_graph,
    path_graph,
    star_graph,
    tkst_tree,
    windmill_graph,
)
from spectree.graphs import Graph, from_edge_list
from spectree.spectra import (
    ROUTE_TOL,
    _a_beta,
    a_beta_m,
    algebraic_connectivity,
    eigvec_lift_check,
    laplacian,
    product_connected,
    product_laplacian_spectrum_decomposed,
    product_laplacian_spectrum_direct,
    product_spectrum,
    q_matrix,
    q_min,
)

from _oracles import jacobi, random_prufer_tree
from _strategies import PROPERTY, general_graphs, graph_stacks


def _cycle(n: int) -> Graph:
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def test_matrix_hand_values():
    p3 = path_graph(3)
    np.testing.assert_array_equal(
        laplacian(p3), [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]
    )
    np.testing.assert_array_equal(
        q_matrix(p3, 2), [[1, 1, 0], [1, 2, 1], [0, 1, 1]]
    )
    # signless Laplacian = A + D is exactly the m=2 case
    np.testing.assert_array_equal(
        q_matrix(p3, 2), p3.adj.astype(float) + np.diag([1.0, 2.0, 1.0])
    )
    np.testing.assert_array_equal(
        q_matrix(p3, 4), p3.adj.astype(float) + 3 * np.diag([1.0, 2.0, 1.0])
    )
    with pytest.raises(ValueError):
        q_matrix(p3, 1)


def _spot_graphs():
    gs = [path_graph(5), star_graph(6), complete_graph(4), _cycle(5), tkst_tree(1, 2, 1)]
    gs.append(line_graph(tkst_tree(1, 2, 3))[0])
    gs.append(windmill_graph(3, 4))
    rng = np.random.default_rng(11)
    gs.extend(random_prufer_tree(rng, rng.integers(2, 9)) for _ in range(6))
    return gs


def test_laplacian_psd_and_zero_row_sums():
    for g in _spot_graphs():
        lap = laplacian(g)
        np.testing.assert_allclose(lap.sum(axis=1), 0.0, atol=1e-12)
        vals = eigenvalues(lap)
        assert vals[0] >= -1e-9
        assert abs(vals[0]) <= 1e-9  # connected sample, so 0 is attained
        for m in (2, 3):
            assert q_min(g, m) >= -1e-9


def test_product_spectrum_routes_agree():
    for g in _spot_graphs():
        for m in (2, 3):
            res = product_spectrum(g, m)  # raises if the routes disagree
            assert len(res.direct.values()) == g.n * m
            assert len(res.decomposed.values()) == g.n * m


def test_product_spectrum_direct_vs_decomposed_values():
    g = _cycle(5)
    d = product_laplacian_spectrum_direct(g, 3).values()
    z = product_laplacian_spectrum_decomposed(g, 3).values()
    np.testing.assert_allclose(d, z, atol=1e-9)
    with pytest.raises(ValueError):
        product_laplacian_spectrum_decomposed(g, 1)


def test_algebraic_connectivity_known_values():
    assert abs(algebraic_connectivity(path_graph(2)) - 2.0) <= 1e-9
    assert abs(algebraic_connectivity(path_graph(3)) - 1.0) <= 1e-9
    assert abs(algebraic_connectivity(_cycle(4)) - 2.0) <= 1e-9
    assert abs(algebraic_connectivity(complete_graph(4)) - 4.0) <= 1e-9
    assert abs(algebraic_connectivity(star_graph(4)) - 1.0) <= 1e-9
    # 5-vertex chair tree
    assert abs(algebraic_connectivity(tkst_tree(1, 2, 1)) - 0.5188) <= 5e-4
    with pytest.raises(ValueError):
        algebraic_connectivity(from_edge_list(1, []))


def test_q_min_known_values():
    # bipartite graphs have singular signless Laplacians
    for g in (path_graph(4), star_graph(5), _cycle(6)):
        assert abs(q_min(g, 2)) <= 1e-9
    assert abs(q_min(complete_graph(3), 2) - 1.0) <= 1e-9
    assert q_min(_cycle(5), 2) > 1e-3


def test_product_connected_matches_spectral_zero_count():
    # K_1 x K_m has no edge, so it is disconnected at every m
    for g in [*_spot_graphs(), complete_graph(1)]:
        for m in (2, 3, 4):
            prod = kronecker(g, complete_graph(m))
            vals, _ = jacobi(laplacian(prod))
            n_components = int((np.abs(vals) <= 1e-8).sum())
            assert product_connected(g, m) == (n_components == 1)
    with pytest.raises(ValueError):
        product_connected(path_graph(3), 1)


def test_a_beta_m_validation():
    with pytest.raises(ValueError):
        a_beta_m(_cycle(4), 2)  # not a tree
    with pytest.raises(ValueError):
        a_beta_m(path_graph(2), 2)  # single edge, line graph is K_1
    with pytest.raises(ValueError):
        a_beta_m(path_graph(4), 1)


def test_shared_line_graph_gives_a_beta_m_bitwise():
    # the sweeps stack the line graphs of every tree of size n and call
    # _a_beta once for all m, which solves a(L) once; each tree must get
    # the bits that a_beta_m gives it alone
    ms = (2, 3, 4)
    for n in range(3, 10):
        trees = enumerate_free_trees(n)
        adj = np.stack([line_graph(tree)[0].adj for tree in trees])
        got = _a_beta(adj, ms)
        assert len(got) == len(ms)
        for m, a in zip(ms, got):
            want = np.array([a_beta_m(tree, m) for tree in trees])
            assert a.tobytes() == want.tobytes(), (n, m)


def test_stacked_a_beta_names_the_perturbed_tree(monkeypatch):
    # the direct product solve of one tree moved at one m of a call for
    # m = 2 and 3, either way: by 0.5 * ROUTE_TOL the routes still agree,
    # and by 2 * ROUTE_TOL _a_beta must raise and name that tree by its
    # index in the stack
    trees = enumerate_free_trees(7)
    adj = np.stack([line_graph(tree)[0].adj for tree in trees])

    def perturbed(mat):
        vals = eigenvalues(mat)
        if mat.shape[-1] == adj.shape[-1] * m:  # the assembled L x K_m
            vals[bad] += shift
        return vals

    monkeypatch.setattr(spectra, "eigenvalues", perturbed)
    for m in (2, 3):
        for bad in (0, 5, len(trees) - 1):
            for sign in (1, -1):
                shift = sign * 0.5 * ROUTE_TOL
                _a_beta(adj, (2, 3))
                shift = sign * 2 * ROUTE_TOL
                with pytest.raises(RuntimeError, match=f"^tree {bad} of the stack: decomposition value "):
                    _a_beta(adj, (2, 3))


def test_assembled_matrices_have_no_negative_zero():
    # a -0.0 entry changes the last bits LAPACK returns, so every kernel
    # writes its zeros as +0.0
    for g in _spot_graphs():
        mats = [laplacian(g), g.adj.astype(float)]
        for m in (2, 3):
            mats += [q_matrix(g, m), spectra._product_laplacian(g.adj, m)]
        for mat in mats:
            assert not np.signbit(mat[mat == 0]).any()


@PROPERTY
@given(general_graphs())
def test_product_routes_agree_on_general_graphs(g):
    for m in (2, 3, 4):
        res = product_spectrum(g, m)  # raises if the routes disagree
        assert len(res.direct.values()) == len(res.decomposed.values()) == g.n * m


@PROPERTY
@given(graph_stacks(), st.integers(2, 4))
def test_stacked_kernels_match_each_graph_bitwise(gs, m):
    # each slice of a stacked assembly or solve has the bits of the same
    # work done on that graph alone; the assemblies also match the
    # textbook formulas D - A and A + (m-1) D entry for entry, zero signs
    # included
    adj = np.stack([g.adj for g in gs])
    km = complete_graph(m)

    def same(stacked, singles):
        assert stacked.dtype == singles[0].dtype
        assert stacked.tobytes() == np.stack(singles).tobytes()

    deg = [np.diag(g.adj.sum(axis=1).astype(np.float64)) for g in gs]
    lap = spectra._laplacian(adj)
    same(lap, [d - g.adj.astype(np.float64) for g, d in zip(gs, deg)])
    same(lap, [laplacian(g) for g in gs])
    same(spectra._q_matrix(adj, m), [g.adj.astype(np.float64) + (m - 1) * d for g, d in zip(gs, deg)])
    same(spectra._q_matrix(adj, m), [q_matrix(g, m) for g in gs])
    same(families._kron(adj, km.adj), [kronecker(g, km).adj for g in gs])
    same(families._kron(adj, km.adj), [np.kron(g.adj, km.adj) for g in gs])
    same(eigenvalues(lap), [eigenvalues(laplacian(g)) for g in gs])
    prod = spectra._product_laplacian(adj, m)
    same(eigenvalues(prod), [eigenvalues(laplacian(kronecker(g, km))) for g in gs])
    same(eigenvalues(spectra._q_matrix(adj, m)), [eigenvalues(q_matrix(g, m)) for g in gs])


def test_a_beta_m_star_and_double_star_values():
    # L(K_{1,n-1}) = K_{n-1}: closed value (n-2)(m-1) - 1 once that beats m-1
    for n in (4, 5, 6):
        for m in (2, 3):
            want = min((m - 1) * (n - 2), (n - 2) * (m - 1) - 1)
            assert abs(a_beta_m(star_graph(n), m) - want) <= 1e-9
    for m in (2, 3, 4):
        assert abs(a_beta_m(tkst_tree(1, 2, 2), m) - (m - 1)) <= 1e-9
        assert abs(a_beta_m(tkst_tree(1, 3, 2), m) - (m - 1)) <= 1e-9


def test_a_beta_m_below_bound_for_non_double_stars():
    # paths and spiders sit strictly below m-1
    for tree in (path_graph(5), tkst_tree(1, 2, 1), tkst_tree(2, 2, 2)):
        for m in (2, 3):
            assert a_beta_m(tree, m) < (m - 1) - 1e-6


def test_eigvec_lift_check():
    for g in (path_graph(4), _cycle(5), star_graph(5), complete_graph(3)):
        for m in (2, 3):
            assert eigvec_lift_check(g, m)
    with pytest.raises(ValueError):
        eigvec_lift_check(path_graph(3), 1)


def test_eigvec_lift_check_rejects_wrong_eigenvalues(monkeypatch):
    # eigenpairs whose values are off by 1e-6 leave residuals far above
    # ROUTE_TOL, so the check must fail
    def shifted(mat):
        vals, vecs = eigensystem(mat)
        return vals + 1e-6, vecs

    monkeypatch.setattr(spectra, "eigensystem", shifted)
    for g in (path_graph(4), _cycle(5), windmill_graph(3, 4)):
        for m in (2, 3):
            assert not eigvec_lift_check(g, m)


@PROPERTY
@given(general_graphs())
def test_eigvec_lift_check_on_general_graphs(g):
    for m in (2, 3, 4):
        assert eigvec_lift_check(g, m)


@pytest.mark.parametrize("solve", ["laplacian", "q"])
@pytest.mark.parametrize("col", [0, -1])
def test_eigvec_lift_check_rejects_a_perturbed_eigenvector(monkeypatch, solve, col):
    # one entry of one eigenvector column moved by 1e-6 leaves a residual
    # near 1e-6, far above ROUTE_TOL, so the check must fail
    def perturbed(mat):
        vals, vecs = eigensystem(mat)
        calls.append(mat)
        if len(calls) == (1 if solve == "laplacian" else 2):
            vecs = vecs.copy()
            vecs[0, col] += 1e-6
        return vals, vecs

    monkeypatch.setattr(spectra, "eigensystem", perturbed)
    for g in (path_graph(4), _cycle(5), windmill_graph(3, 4)):
        for m in (2, 3, 4):
            calls = []
            assert not eigvec_lift_check(g, m)
            assert len(calls) == 2


_ROUTES = (
    q_matrix,
    q_min,
    product_connected,
    product_laplacian_spectrum_direct,
    product_laplacian_spectrum_decomposed,
    product_spectrum,
    eigvec_lift_check,
    a_beta_m,
)


@pytest.mark.parametrize("bad, problem", [
    (2.0, "must be an integer, got 2.0"),
    (True, "must be an integer, got True"),
    ("3", "must be an integer, got '3'"),
    (None, "must be an integer, got None"),
    (1, "must be >= 2, got 1"),
    (np.int64(0), "must be >= 2, got 0"),
])
def test_product_routes_name_a_bad_m(bad, problem):
    for route in _ROUTES:
        with pytest.raises(ValueError, match=f"^m {problem}$"):
            route(path_graph(4), bad)


def test_product_routes_take_numpy_integer_m():
    g = path_graph(4)
    assert product_spectrum(g, np.int64(3)).decomposed.pairs == product_spectrum(g, 3).decomposed.pairs
    assert eigvec_lift_check(g, np.int64(3))
    assert a_beta_m(g, np.int64(3)) == a_beta_m(g, 3)


def test_small_tree_sweep_decomposition():
    for n in range(2, 7):
        for tree in enumerate_free_trees(n):
            product_spectrum(tree, 2)  # raises if the routes disagree
            assert eigvec_lift_check(tree, 3)
