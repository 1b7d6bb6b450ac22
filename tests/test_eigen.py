import json
import math

import numpy as np
import pytest

from spectree.eigen import (
    GROUP_TOL,
    Spectrum,
    eigensystem,
    eigenvalues,
    group_spectrum,
    min_eigenvalue,
    scale,
    second_smallest,
    spectra_equal,
    spectrum_from_dict,
    spectrum_from_json,
    spectrum_from_pairs,
    spectrum_is_integral,
    spectrum_to_dict,
    spectrum_to_json,
    union_with_multiplicity,
)
from spectree.families import (
    beta_m,
    complete_graph,
    enumerate_free_trees,
    kronecker,
    line_graph,
    star_graph,
    tkst_tree,
    windmill_graph,
)
from spectree.spectra import laplacian, q_matrix

from _oracles import jacobi


def _random_symmetric(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return (a + a.T) / 2.0


def _solver_test_matrices():
    rng = np.random.default_rng(2024)
    mats = []
    for n in (1, 2, 3, 5, 8, 13, 21, 30):
        for _ in range(3):
            mats.append(_random_symmetric(rng, n))
    # scaled versions exercise the relative threshold
    mats.append(_random_symmetric(rng, 10, scale=1e6))
    mats.append(_random_symmetric(rng, 10, scale=1e-6))
    # heavy eigenvalue multiplicities
    mats.append(np.zeros((4, 4)))
    mats.append(np.eye(7) * 3.0)
    mats.append(np.diag([5.0, -1.0, 2.0, 2.0, 0.0]))
    mats.append(laplacian(complete_graph(6)))
    mats.append(laplacian(star_graph(8)))
    mats.append(laplacian(kronecker(windmill_graph(3, 3), complete_graph(3))))
    mats.append(q_matrix(line_graph(tkst_tree(1, 3, 3))[0], 4))
    mats.append(np.kron(np.eye(4), _random_symmetric(rng, 3)))
    return mats


def _assert_matches_jacobi(m):
    want, _ = jacobi(m)
    scale_ = 1.0 + np.abs(want).max()
    np.testing.assert_allclose(eigenvalues(m), want, atol=1e-9 * scale_, rtol=0)


def test_eigenvalues_match_jacobi_oracle():
    for m in _solver_test_matrices():
        _assert_matches_jacobi(m)


def test_tree_products_match_jacobi_oracle():
    # every beta_m(T, m) with 2 <= |T| <= 8 (K_1 has no line graph) and
    # m in {2, 3}: orders up to 21
    for n in range(2, 9):
        for tree in enumerate_free_trees(n):
            for m in (2, 3):
                _assert_matches_jacobi(laplacian(beta_m(tree, m)))


def test_eigensystem_residuals_and_orthogonality():
    for m in _solver_test_matrices():
        vals, vecs = eigensystem(m)
        n = m.shape[0]
        scale_ = 1.0 + float(np.abs(vals).max()) if n else 1.0
        assert np.max(np.abs(m @ vecs - vecs * vals)) <= 1e-8 * scale_
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(n), atol=1e-10)


def test_eigenvalues_sorted_and_deterministic():
    rng = np.random.default_rng(5)
    m = _random_symmetric(rng, 12)
    a = eigenvalues(m)
    b = eigenvalues(m.copy())
    assert np.array_equal(a, b)  # bit identical
    assert np.all(np.diff(a) >= 0)


def test_trace_identities():
    for m in _solver_test_matrices():
        vals = eigenvalues(m)
        n = m.shape[0]
        tol = n * 1e-9 * (1.0 + np.abs(vals).max() ** 2)
        assert abs(vals.sum() - np.trace(m)) <= tol
        assert abs((vals**2).sum() - np.trace(m @ m)) <= tol


def test_known_small_spectra():
    np.testing.assert_allclose(eigenvalues(laplacian(complete_graph(3))), [0, 3, 3], atol=1e-12)
    p3 = laplacian(line_graph(star_graph(4))[0])  # K_3 again, via L(K_{1,3})
    np.testing.assert_allclose(eigenvalues(p3), [0, 3, 3], atol=1e-12)
    c6 = kronecker(complete_graph(3), complete_graph(2))
    np.testing.assert_allclose(eigenvalues(laplacian(c6)), [0, 1, 1, 3, 3, 4], atol=1e-12)


def test_solver_input_validation():
    with pytest.raises(ValueError, match="not symmetric"):
        eigenvalues(np.array([[1.0, 2.0], [3.0, 4.0]]))
    with pytest.raises(ValueError, match="square"):
        eigenvalues(np.ones((2, 3)))
    with pytest.raises(ValueError, match="square"):
        eigenvalues(np.ones(4))
    for bad in (np.nan, np.inf, -np.inf):
        diag = np.array([[bad, 0.0], [0.0, 1.0]])
        offdiag = np.array([[1.0, bad], [bad, 1.0]])
        for m in (diag, offdiag):
            for solve in (eigenvalues, eigensystem, min_eigenvalue):
                with pytest.raises(ValueError, match="non-finite"):
                    solve(m)


def test_min_eigenvalue():
    assert abs(min_eigenvalue(np.diag([3.0, -2.0, 7.0]))) - 2.0 <= 1e-12


# ---- Spectrum ----

def test_group_spectrum_merges_close_values():
    s = group_spectrum(np.array([0.0, 1.0, 1.0 + 1e-9, 2.5]))
    assert s.pairs == ((0.0, 1), (1.0 + 5e-10, 2), (2.5, 1))
    assert s.dimension == 4
    np.testing.assert_allclose(s.values(), [0.0, 1.0 + 5e-10, 1.0 + 5e-10, 2.5])


def test_group_spectrum_requires_sorted():
    with pytest.raises(ValueError):
        group_spectrum(np.array([1.0, 0.0]))


def test_spectrum_from_pairs_weighted_merge():
    s = spectrum_from_pairs([(1.0, 1), (1.0 + 1e-9, 3)])
    assert s.pairs == ((1.0 + 7.5e-10, 4),)


def test_spectrum_from_pairs_chains_without_width_limit():
    # each value is compared with the previous one, not with the group's
    # first: steps of 0.9 * group_tol merge into one group 2.7 * group_tol wide
    t = GROUP_TOL
    s = spectrum_from_pairs([(0.0, 1), (0.9 * t, 1), (1.8 * t, 1), (2.7 * t, 1)])
    assert s.pairs == ((1.35 * t, 4),)
    assert group_spectrum(np.array([0.0, 0.9 * t, 1.8 * t, 2.7 * t])).pairs == s.pairs
    # a single step wider than group_tol splits the chain
    s = spectrum_from_pairs([(0.0, 1), (0.9 * t, 1), (2.0 * t, 1), (2.9 * t, 1)])
    assert s.pairs == ((0.45 * t, 2), (2.45 * t, 2))
    # the bound is inclusive
    assert spectrum_from_pairs([(0.0, 1), (GROUP_TOL, 1)]).pairs == ((GROUP_TOL / 2, 2),)


def test_spectrum_validation():
    with pytest.raises(ValueError):
        Spectrum(pairs=((1.0, 1), (1.0, 1)))  # not increasing
    with pytest.raises(ValueError, match="positive integers"):
        Spectrum(pairs=((1.0, 0),))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            Spectrum(pairs=((bad, 1),))


def test_second_smallest():
    s = group_spectrum(np.array([0.0, 0.0, 2.0]))
    assert second_smallest(s) == 0.0
    s = group_spectrum(np.array([0.0, 1.5, 2.0]))
    assert second_smallest(s) == 1.5
    with pytest.raises(ValueError):
        second_smallest(group_spectrum(np.array([4.0])))


def test_scale_and_union():
    s = group_spectrum(np.array([0.0, 1.0, 3.0]))
    doubled = scale(s, 2.0)
    assert doubled.pairs == ((0.0, 1), (2.0, 1), (6.0, 1))
    with pytest.raises(ValueError):
        scale(s, -1.0)
    u = union_with_multiplicity([(s, 1), (doubled, 2)])
    assert u.dimension == 9
    assert u.values()[0] == 0.0 and (u.values() == 0.0).sum() == 3
    with pytest.raises(ValueError):
        union_with_multiplicity([(s, 0)])


def test_spectra_equal():
    a = group_spectrum(np.array([0.0, 1.0, 1.0, 3.0]))
    b = spectrum_from_pairs([(1.0 + 1e-10, 2), (0.0, 1), (3.0, 1)])
    assert spectra_equal(a, b, tol=1e-8)
    c = group_spectrum(np.array([0.0, 1.0, 3.0, 3.0]))
    assert not spectra_equal(a, c, tol=1e-8)
    assert not spectra_equal(a, group_spectrum(np.array([0.0])), tol=1e-8)


def test_spectrum_is_integral():
    assert spectrum_is_integral(group_spectrum(np.array([0.0, 3.0 + 1e-9, 5.0])))
    assert not spectrum_is_integral(group_spectrum(np.array([0.0, 0.5])))


def test_spectrum_json_round_trip():
    s = spectrum_from_pairs([(0.0, 1), (1 / 3, 2), (math.sqrt(2), 1)])
    blob = spectrum_to_json(s)
    back = spectrum_from_json(blob)
    assert back.pairs == s.pairs  # repr round trip keeps exact floats
    d = json.loads(blob)
    assert set(d) == {"pairs", "tol"}
    assert spectrum_from_dict(spectrum_to_dict(s)).pairs == s.pairs
    assert d["tol"] == GROUP_TOL


def test_spectrum_from_json_rejects_nan_value():
    with pytest.raises(ValueError, match="finite, got nan"):
        spectrum_from_json('{"pairs": [[NaN, 1]], "tol": 1e-07}')


def test_spectrum_from_json_rejects_infinite_value():
    with pytest.raises(ValueError, match="finite, got inf"):
        spectrum_from_json('{"pairs": [[0.0, 1], [Infinity, 2]], "tol": 1e-07}')


def test_spectrum_from_json_rejects_fractional_multiplicity():
    with pytest.raises(ValueError, match="positive integers, got 1.5"):
        spectrum_from_json('{"pairs": [[0.0, 1.5]], "tol": 1e-07}')


def test_spectrum_from_json_rejects_other_tol():
    with pytest.raises(ValueError, match="tol must be 1e-07, got 0.001"):
        spectrum_from_json('{"pairs": [[0.0, 1]], "tol": 1e-3}')


def test_default_tolerances_positive():
    assert 0 < GROUP_TOL < 1e-3
