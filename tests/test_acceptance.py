"""End-to-end acceptance checks.

Each test is one acceptance criterion; `pytest -v` prints one pass/fail
line per criterion. Tolerances and sweep ranges are stated inline. The
whole module is wall-clock bounded: the last test asserts the full run
stayed under five minutes.
"""

import math
import time

import numpy as np

from spectree.closedform import (
    CubicCoeffs,
    book_aconn_bound,
    book_line_laplacian_spectrum,
    integer_roots_of_monic_cubic,
    is_beta_laplacian_integral,
    star_product_spectrum,
    windmill_product_spectrum,
    wprime_algebraic_connectivity,
)
from spectree.eigen import (
    eigenvalues,
    group_spectrum,
    spectra_equal,
)
from spectree.families import (
    beta_m,
    book_graph,
    complete_graph,
    enumerate_free_trees,
    kronecker,
    line_graph,
    star_graph,
    tkst_tree,
    windmill_graph,
    wprime_graph,
)
from spectree.graphs import degrees
from spectree.spectra import (
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
from spectree.verify import check_theorem_das_examples, classify_t1st

from _oracles import random_prufer_tree

_T0 = time.perf_counter()

# free trees on 1..8 vertices
_TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23}


def test_criterion_01_star_product_three_routes():
    t0 = time.perf_counter()
    want = np.array([0.0, 1.0, 1.0, 3.0, 3.0, 4.0])
    k3 = line_graph(star_graph(4))[0]  # L(K_{1,3}) = K_3
    routes = (
        star_product_spectrum(4, 2),
        product_laplacian_spectrum_decomposed(k3, 2),
        product_laplacian_spectrum_direct(k3, 2),
    )
    for spec in routes:
        assert np.max(np.abs(spec.values() - want)) <= 1e-8
    for a in routes:
        for b in routes:
            assert spectra_equal(a, b, 1e-8)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_double_star_characterization_exhaustive():
    t0 = time.perf_counter()
    double_star_hits = 0
    star_boundary_hits = 0
    skipped_disconnected = 0
    for n in range(3, 9):
        trees = enumerate_free_trees(n)
        assert len(trees) == _TREE_COUNTS[n]
        for tree in trees:
            deg = degrees(tree)
            lg = line_graph(tree)[0]
            for m in (2, 3):
                if not product_connected(lg, m):
                    # only paths produce a bipartite line graph, and only
                    # m = 2 leaves the product disconnected
                    assert m == 2 and deg.max() <= 2
                    skipped_disconnected += 1
                    continue
                val = a_beta_m(tree, m)  # asserts decomposed == direct inside
                hit = abs(val - (m - 1)) <= 1e-8
                if deg.max() == n - 1:
                    # stars have their own closed form; it touches m-1 only
                    # at n = 4, m = 2, where (n-2)(m-1)-1 = m-1
                    closed = min((m - 1) * (n - 2), (n - 2) * (m - 1) - 1)
                    assert abs(val - closed) <= 1e-8
                    assert hit == (n == 4 and m == 2), (n, m, val)
                    star_boundary_hits += hit
                else:
                    cls = classify_t1st(tree)
                    expect_hit = cls is not None and cls[1] >= 2
                    assert hit == expect_hit, (n, m, cls, val)
                    double_star_hits += hit
    # T(1,2,2), T(1,3,2), T(1,3,3), T(1,4,2) at both m
    assert double_star_hits == 8
    assert star_boundary_hits == 1
    assert skipped_disconnected == 6  # one path per n
    assert time.perf_counter() - t0 < 120.0


def test_criterion_03_survey_table_spot_rows():
    chair = tkst_tree(1, 2, 1)
    assert abs(algebraic_connectivity(chair) - 0.519) <= 0.005
    printed = (0.43, 1.72, 2.82, 3.87, 4.89, 5.91)
    for m, want in zip(range(2, 8), printed):
        assert abs(a_beta_m(chair, m) - want) <= 0.01, m
    for s, t in ((2, 2), (2, 3)):
        for m in range(2, 8):
            assert abs(a_beta_m(tkst_tree(1, s, t), m) - (m - 1)) <= 1e-8


def test_criterion_04_double_star_product_integrality():
    cub = CubicCoeffs(3, 3, 2)
    assert integer_roots_of_monic_cubic(cub.a, cub.b, cub.c) == (3, 5, 8)
    assert is_beta_laplacian_integral(3, 3, 2) is True
    vals = eigenvalues(laplacian(beta_m(tkst_tree(1, 3, 3), 2)))
    assert np.max(np.abs(vals - np.round(vals))) <= 1e-6

    cub = CubicCoeffs(2, 2, 2)
    assert integer_roots_of_monic_cubic(cub.a, cub.b, cub.c) is None
    roots = cub.roots()
    for irr in ((7 - math.sqrt(17)) / 2, (7 + math.sqrt(17)) / 2):
        assert min(abs(r - irr) for r in roots) <= 1e-8
    assert is_beta_laplacian_integral(2, 2, 2) is False
    vals = eigenvalues(laplacian(beta_m(tkst_tree(1, 2, 2), 2)))
    assert np.max(np.abs(vals - np.round(vals))) > 1e-6


def test_criterion_05_windmill_product_spectrum_and_connectivity():
    for eta in (2, 3, 4):
        for mu in (3, 4, 5):
            for m in (2, 3):
                closed = windmill_product_spectrum(eta, mu, m)
                direct = product_laplacian_spectrum_direct(windmill_graph(eta, mu), m)
                assert spectra_equal(closed, direct, 1e-8), (eta, mu, m)
                assert abs(direct.values()[1] - (m - 1)) <= 1e-8, (eta, mu, m)


def test_criterion_06_glued_clique_connectivity_closed_form():
    for eta in (3, 4, 5):
        for mu in (3, 4, 5):
            for m in (2, 3):
                closed = wprime_algebraic_connectivity(eta, mu, m)
                direct = algebraic_connectivity(kronecker(wprime_graph(eta, mu), complete_graph(m)))
                assert abs(closed - direct) <= 1e-8, (eta, mu, m)
    want = (6 - math.sqrt(24)) / 2  # 0.550510...
    assert abs(wprime_algebraic_connectivity(3, 3, 2) - want) <= 1e-6


def test_criterion_07_book_line_graph_spectrum_and_bounds():
    for k in range(3, 9):
        closed = book_line_laplacian_spectrum(k)
        lb = line_graph(book_graph(k))[0]
        direct = group_spectrum(eigenvalues(laplacian(lb)))
        assert spectra_equal(closed, direct, 1e-8), k
        for m in (2, 3):
            a_prod = algebraic_connectivity(kronecker(lb, complete_graph(m)))
            assert a_prod <= book_aconn_bound(k, m) + 1e-8, (k, m)
    want = (7 - math.sqrt(17)) / 2  # 1.438447...
    lb3 = line_graph(book_graph(3))[0]
    assert abs(algebraic_connectivity(lb3) - want) <= 1e-6


def test_criterion_08_random_tree_decomposition_and_lifts():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        tree = random_prufer_tree(rng, n)
        for m in (2, 3, 4):
            product_spectrum(tree, m)  # raises if the routes disagree
            assert eigvec_lift_check(tree, m)


def test_criterion_09_common_neighborhood_surgery_examples():
    rep = check_theorem_das_examples()
    assert rep.ok, rep.to_text()
    assert rep.passed == 3
    assert rep.worst_deviation <= 1e-8


def test_criterion_10_property_suites_and_wall_clock():
    trees = [t for n in range(2, 9) for t in enumerate_free_trees(n)]

    # trace identities and positive semidefiniteness over every solved matrix
    for tree in trees:
        mats = [laplacian(tree), q_matrix(tree, 2), q_matrix(tree, 3)]
        mats.append(laplacian(kronecker(tree, complete_graph(2))))
        for mat in mats:
            vals = eigenvalues(mat)
            n = mat.shape[0]
            assert vals[0] >= -1e-9
            assert abs(vals.sum() - np.trace(mat)) <= n * 1e-9
            assert abs((vals**2).sum() - np.trace(mat @ mat)) <= n * 1e-9

    # connectivity ceiling for trees that are not stars
    for tree in trees:
        if tree.n >= 6 and degrees(tree).max() < tree.n - 1:
            assert algebraic_connectivity(tree) < 0.49, tree

    # minimum-degree shift bound on the generalized signless spectrum
    for tree in trees:
        lg = line_graph(tree)[0]
        delta = int(degrees(lg).min()) if lg.n else 0
        base = q_min(lg, 2)
        for m in (3, 4, 5, 6):
            assert base + (m - 2) * delta <= q_min(lg, m) + 1e-8, (tree, m)

    # cut-vertex ceiling: line graphs of non-star trees with >= 3 edges have
    # a cut vertex, so a(L(X)) <= 1; stars are excluded (their line graphs
    # are complete)
    for tree in trees:
        if tree.n >= 4 and degrees(tree).max() < tree.n - 1:
            lg = line_graph(tree)[0]
            assert algebraic_connectivity(lg) <= 1.0 + 1e-8, tree

    # taking the line graph shortens the double-broom spine by one without
    # moving the algebraic connectivity
    for k in (2, 3):
        for s in (1, 2, 3):
            for t in (1, 2, 3):
                a_line = algebraic_connectivity(line_graph(tkst_tree(k, s, t))[0])
                a_short = algebraic_connectivity(tkst_tree(k - 1, s, t))
                assert abs(a_line - a_short) <= 1e-8, (k, s, t)

    assert time.perf_counter() - _T0 < 300.0
