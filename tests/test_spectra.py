import numpy as np
import pytest

from spectree import spectra
from spectree.eigen import eigensystem
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
    a_beta_m,
    adjacency_matrix,
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
        q_matrix(p3, 2), adjacency_matrix(p3) + np.diag([1.0, 2.0, 1.0])
    )
    np.testing.assert_array_equal(
        q_matrix(p3, 4), adjacency_matrix(p3) + 3 * np.diag([1.0, 2.0, 1.0])
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
    from spectree.eigen import eigenvalues

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
            assert res.direct.dimension == g.n * m
            assert res.decomposed.dimension == g.n * m


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
    for g in _spot_graphs():
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


def test_small_tree_sweep_decomposition():
    for n in range(2, 7):
        for tree in enumerate_free_trees(n):
            product_spectrum(tree, 2)  # raises if the routes disagree
            assert eigvec_lift_check(tree, 3)
