import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spectree.eigen import (
    GROUP_TOL,
    Spectrum,
    eigensystem,
    eigenvalues,
    group_spectrum,
    spectra_equal,
    spectrum_from_dict,
    spectrum_from_pairs,
    spectrum_is_integral,
    spectrum_to_dict,
)
from spectree.families import (
    beta_m,
    book_graph,
    complete_graph,
    diam4_tree,
    enumerate_free_trees,
    kronecker,
    line_graph,
    star_graph,
    tkst_tree,
    windmill_graph,
    wprime_graph,
)
from spectree.graphs import Graph
from spectree.spectra import laplacian, product_spectrum, q_matrix

from _oracles import group_pairs_oracle, jacobi
from _strategies import PROPERTY


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
            for solve in (eigenvalues, eigensystem):
                with pytest.raises(ValueError, match="non-finite"):
                    solve(m)


def test_stacked_solve_checks_every_slice():
    # a stack passes the same three checks as one matrix, slice by slice,
    # and the error names the first slice that fails
    lap = laplacian(star_graph(4))
    stack = np.stack([lap, lap, lap])
    asym = stack.copy()
    asym[1, 0, 2] = 0.5
    with pytest.raises(ValueError, match="^matrix 1 of the stack is not symmetric$"):
        eigenvalues(asym)
    for bad in (np.nan, np.inf):
        nonfinite = stack.copy()
        nonfinite[2, 3, 3] = bad
        for solve in (eigenvalues, eigensystem):
            with pytest.raises(ValueError, match="^matrix 2 of the stack has non-finite entries$"):
                solve(nonfinite)
    deep = np.stack([stack, asym])
    with pytest.raises(ValueError, match="^matrix 1, 1 of the stack is not symmetric$"):
        eigenvalues(deep)
    with pytest.raises(ValueError, match="square"):
        eigenvalues(np.ones((3, 2, 4)))
    assert eigenvalues(stack).shape == (3, 4)
    assert eigenvalues(stack).tobytes() == np.stack([eigenvalues(lap)] * 3).tobytes()


# ---- Spectrum ----

def test_group_spectrum_merges_close_values():
    s = group_spectrum(np.array([0.0, 1.0, 1.0 + 1e-9, 2.5]))
    assert s.pairs == ((0.0, 1), (1.0 + 5e-10, 2), (2.5, 1))
    assert len(s.values()) == 4
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


def test_spectra_equal():
    a = group_spectrum(np.array([0.0, 1.0, 1.0, 3.0]))
    b = spectrum_from_pairs([(1.0 + 1e-10, 2), (0.0, 1), (3.0, 1)])
    assert spectra_equal(a, b, tol=1e-8)
    c = group_spectrum(np.array([0.0, 1.0, 3.0, 3.0]))
    assert not spectra_equal(a, c, tol=1e-8)
    assert not spectra_equal(a, group_spectrum(np.array([0.0])), tol=1e-8)


def test_spectrum_from_pairs_rejects_fractional_multiplicity():
    with pytest.raises(ValueError, match="non-negative integers, got 1.5"):
        spectrum_from_pairs([(0.0, 1.5), (2.0, 1)])


def test_bool_multiplicities_are_rejected():
    with pytest.raises(ValueError, match="positive integers, got True"):
        Spectrum(pairs=((1.0, True),))
    for bad in (True, False, np.True_):
        with pytest.raises(ValueError, match=f"non-negative integers, got {bad!r}"):
            spectrum_from_pairs([(1.0, bad)])
    with pytest.raises(ValueError, match="positive integers, got True"):
        spectrum_from_dict(json.loads('{"pairs": [[1.0, true]], "tol": 1e-07}'))


def test_spectrum_from_pairs_rejects_negative_multiplicity():
    with pytest.raises(ValueError, match="non-negative integers, got -1"):
        spectrum_from_pairs([(0.0, 1), (3.0, -1)])


def test_spectrum_is_integral():
    assert spectrum_is_integral(group_spectrum(np.array([0.0, 3.0 + 1e-9, 5.0])))
    assert not spectrum_is_integral(group_spectrum(np.array([0.0, 0.5])))


def test_spectrum_json_round_trip():
    s = spectrum_from_pairs([(0.0, 1), (1 / 3, 2), (math.sqrt(2), 1)])
    blob = json.dumps(spectrum_to_dict(s))
    back = spectrum_from_dict(json.loads(blob))
    assert back.pairs == s.pairs  # repr round trip keeps exact floats
    d = json.loads(blob)
    assert set(d) == {"pairs", "tol"}
    assert spectrum_from_dict(spectrum_to_dict(s)).pairs == s.pairs
    assert d["tol"] == GROUP_TOL


@st.composite
def _spectra(draw):
    """Spectra of any finite values, subnormal and huge ones and -0.0
    included, with multiplicities up to 100."""
    edge = st.sampled_from([-0.0, 5e-324, -1.7976931348623157e308, 1 / 3])
    finite = st.one_of(edge, st.floats(allow_nan=False, allow_infinity=False))
    values = sorted(draw(st.lists(finite, unique=True, max_size=12)))
    return Spectrum(tuple((v, draw(st.integers(1, 100))) for v in values))


@PROPERTY
@given(_spectra())
def test_spectrum_json_round_trip_keeps_every_bit(s):
    back = spectrum_from_dict(json.loads(json.dumps(spectrum_to_dict(s))))
    assert _hex(back.pairs) == _hex(s.pairs)
    assert all(type(m) is int for _, m in back.pairs)


def test_spectrum_from_json_rejects_nan_value():
    with pytest.raises(ValueError, match="finite, got nan"):
        spectrum_from_dict(json.loads('{"pairs": [[NaN, 1]], "tol": 1e-07}'))


def test_spectrum_from_json_rejects_infinite_value():
    with pytest.raises(ValueError, match="finite, got inf"):
        spectrum_from_dict(json.loads('{"pairs": [[0.0, 1], [Infinity, 2]], "tol": 1e-07}'))


def test_spectrum_from_json_rejects_fractional_multiplicity():
    with pytest.raises(ValueError, match="positive integers, got 1.5"):
        spectrum_from_dict(json.loads('{"pairs": [[0.0, 1.5]], "tol": 1e-07}'))


def test_spectrum_from_json_rejects_other_tol():
    with pytest.raises(ValueError, match="tol must be 1e-07, got 0.001"):
        spectrum_from_dict(json.loads('{"pairs": [[0.0, 1]], "tol": 1e-3}'))


@pytest.mark.parametrize("doc, problem", [
    ([1, 2], "must be a JSON object, got list"),
    ({"tol": 1e-07}, "has no 'pairs'"),
    ({"pairs": []}, "has no 'tol'"),
    ({"pairs": 5, "tol": 1e-07}, "'pairs' must be a list, got 5"),
    ({"pairs": [[0.0, 1, 2]], "tol": 1e-07}, r"must be \[number, multiplicity\], got \[0.0, 1, 2\]"),
    ({"pairs": [["0", 1]], "tol": 1e-07}, r"must be \[number, multiplicity\], got \['0', 1\]"),
])
def test_spectrum_from_dict_names_malformed_shape(doc, problem):
    with pytest.raises(ValueError, match=problem):
        spectrum_from_dict(doc)


# ---- grouping bits ----

def _hex(pairs):
    return [(float(v).hex(), int(m)) for v, m in pairs]


@st.composite
def _pair_lists(draw):
    """(value, multiplicity) pairs in any order: +-0.0, one value under
    several multiplicities, chains in steps of 0, 0.9 * GROUP_TOL, exactly
    GROUP_TOL and just over it, and multiplicity 0."""
    t = GROUP_TOL
    starts = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]), st.floats(-10, 10))
    steps = st.sampled_from([0.0, -0.0, 0.45 * t, 0.9 * t, t, 1.1 * t])
    vals = []
    for start in draw(st.lists(starts, max_size=6)):
        vals.append(start)
        for step in draw(st.lists(steps, max_size=4)):
            vals.append(vals[-1] + step)
    mults = st.one_of(st.integers(0, 4), st.integers(0, 4).map(np.int64))
    return draw(st.permutations([(v, draw(mults)) for v in vals]))


@PROPERTY
@given(_pair_lists())
def test_grouping_matches_reference_bits(pairs):
    want = group_pairs_oracle(pairs, GROUP_TOL)
    assert _hex(spectrum_from_pairs(pairs).pairs) == _hex(want)
    vals = np.sort(np.array([v for v, m in pairs for _ in range(m)], dtype=np.float64))
    units = [(v, 1) for v in vals.tolist()]
    assert _hex(group_spectrum(vals).pairs) == _hex(group_pairs_oracle(units, GROUP_TOL))


def _product_inputs():
    """The section-3 families (windmills, W' graphs, book and diameter-4
    line graphs) and seeded G(n, 0.3) graphs."""
    gs = [windmill_graph(eta, mu) for eta in (2, 3) for mu in (3, 4)]
    gs += [wprime_graph(3, 3), wprime_graph(3, 4)]
    gs += [line_graph(book_graph(k))[0] for k in (2, 3, 4)]
    gs += [line_graph(diam4_tree(3, xs))[0] for xs in ((2, 2, 1), (2, 2, 2))]
    rng = np.random.default_rng(14)
    for n in range(5, 11):
        upper = np.triu(rng.random((n, n)) < 0.3, 1)
        gs.append(Graph(upper | upper.T))
    return gs


def _digest(groups) -> str:
    h = hashlib.sha256()
    for pairs in groups:
        h.update(repr(_hex(pairs)).encode())
    return h.hexdigest()


# SHA-256 of the raw eigenvalues both product routes group, and of the
# grouped spectra, over _product_inputs() and m in (2, 3, 4), recorded with
# the first merge loop (the oracle). The raw values carry this LAPACK
# build's last bits; on another build the spectra are held to the oracle
# alone.
_PRODUCT_SOLVES_SHA256 = "91aa138e4f5a85bd65d934525a5ab2ad7844fbf269f4699f101bcce62f099c43"
_PRODUCT_SPECTRA_SHA256 = "21f354041c40b139f506b286a804d68dd6fc8594d106a5afdba57222d389e672"


def test_product_spectrum_grouping_bits():
    raw, got = [], []
    for g in _product_inputs():
        for m in (2, 3, 4):
            res = product_spectrum(g, m)
            direct = eigenvalues(laplacian(kronecker(g, complete_graph(m))))
            union = np.concatenate([(m - 1) * eigenvalues(laplacian(g)), np.repeat(eigenvalues(q_matrix(g, m)), m - 1)])
            raw += [[(v, 1) for v in direct.tolist()], [(v, 1) for v in np.sort(union).tolist()]]
            got += [res.direct.pairs, res.decomposed.pairs]
    assert [_hex(p) for p in got] == [_hex(group_pairs_oracle(r, GROUP_TOL)) for r in raw]
    if _digest(raw) == _PRODUCT_SOLVES_SHA256:
        assert _digest(got) == _PRODUCT_SPECTRA_SHA256


def test_default_tolerances_positive():
    assert 0 < GROUP_TOL < 1e-3
