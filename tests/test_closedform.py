import hashlib
import itertools
import math
import time

import numpy as np
import pytest

from spectree.closedform import (
    CubicCoeffs,
    _cubic,
    _pendant_bound,
    book_aconn_bound,
    book_line_laplacian_spectrum,
    integer_roots_of_monic_cubic,
    is_beta_laplacian_integral,
    quad_roots,
    star_product_spectrum,
    t1st_line_laplacian_spectrum,
    windmill_product_spectrum,
    windmill_q_quadratic,
    wprime_algebraic_connectivity,
    wprime_product_spectrum,
    wprime_quadratics,
)
from spectree.eigen import Spectrum, eigenvalues, group_spectrum, spectra_equal
from spectree.families import (
    beta_m,
    book_graph,
    complete_graph,
    kronecker,
    line_graph,
    path_graph,
    star_graph,
    tkst_tree,
    windmill_graph,
    wprime_graph,
)
from spectree.spectra import laplacian, product_laplacian_spectrum_direct, q_matrix

from _oracles import cubic_integer_roots_oracle


def test_quad_roots():
    assert quad_roots(5.0, 6.0) == (2.0, 3.0)
    lo, hi = quad_roots(1.0, -1.0)
    assert abs(lo - (1 - math.sqrt(5)) / 2) <= 1e-12
    assert abs(hi - (1 + math.sqrt(5)) / 2) <= 1e-12
    with pytest.raises(ValueError):
        quad_roots(0.0, 1.0)


# each closed form with the ranges of its arguments, over their product
_CLOSED_FORM_GRID = (
    (star_product_spectrum, (range(3, 9), range(2, 6))),
    (t1st_line_laplacian_spectrum, (range(1, 6), range(1, 6))),
    (windmill_product_spectrum, (range(2, 6), range(3, 7), range(2, 5))),
    (wprime_product_spectrum, (range(2, 6), range(2, 7), range(2, 5))),
    (book_line_laplacian_spectrum, (range(1, 11),)),
    (wprime_algebraic_connectivity, (range(3, 6), range(3, 7), range(2, 5))),
    (book_aconn_bound, (range(2, 11), range(2, 5))),
)


def test_closed_form_bits_golden():
    # the closed forms use only Python float arithmetic (math.sqrt, +, *,
    # /), so every value's bits are the same on every platform; the digest
    # pins them, each multiplicity, and the arguments that gave them
    digest = hashlib.sha256()
    count = 0
    for fn, ranges in _CLOSED_FORM_GRID:
        for args in itertools.product(*ranges):
            out = fn(*args)
            pairs = out.pairs if isinstance(out, Spectrum) else ((out, 1),)
            row = " ".join(f"{float(v).hex()}^{k}" for v, k in pairs)
            digest.update(f"{fn.__name__}{args}: {row}\n".encode())
            count += 1
    assert count == 230
    assert digest.hexdigest() == "57beaf70e77ed173ca6ec4775e2ecac66c4b6fdb85269b7e5b25bb18a4110777"


def test_star_product_closed_vs_direct():
    for n in (3, 4, 5, 7):
        for m in (2, 3):
            closed = star_product_spectrum(n, m)
            direct = product_laplacian_spectrum_direct(line_graph(star_graph(n))[0], m)
            assert spectra_equal(closed, direct, 1e-9)
    with pytest.raises(ValueError):
        star_product_spectrum(2, 2)
    with pytest.raises(ValueError):
        star_product_spectrum(4, 1)


def test_star_product_n4_m2_values():
    s = star_product_spectrum(4, 2)
    np.testing.assert_allclose(s.values(), [0, 1, 1, 3, 3, 4], atol=1e-12)


def test_t1st_line_laplacian_closed_vs_direct():
    for s in (1, 2, 3, 4):
        for t in range(1, s + 1):
            closed = t1st_line_laplacian_spectrum(s, t)
            direct = group_spectrum(eigenvalues(laplacian(line_graph(tkst_tree(1, s, t))[0])))
            assert spectra_equal(closed, direct, 1e-9)
            assert closed.values()[-1] == s + t + 1  # largest eigenvalue
            assert len(closed.values()) == s + t + 1


def test_cubic_roots_match_numpy():
    for s, t, m in ((2, 2, 2), (3, 3, 2), (4, 2, 3), (5, 5, 4), (1, 1, 2)):
        cub = CubicCoeffs(s, t, m)
        got = np.array(cub.roots())
        want = np.sort(np.roots([1.0, -cub.a, cub.b, -cub.c]).real)
        np.testing.assert_allclose(got, want, atol=1e-7)


def test_cubic_is_the_charpoly_of_the_quotient_symbolically():
    """The 3x3 quotient that CubicCoeffs.roots solves, built symbolically
    in s, t and m, has characteristic polynomial x^3 - a x^2 + b x - c with
    (a, b, c) = _cubic(s, t, m), coefficient by coefficient."""
    sympy = pytest.importorskip("sympy")
    s, t, m, x = sympy.symbols("s t m x")
    quot = sympy.Matrix(
        [
            [(m - 1) * (s + t), sympy.sqrt(s), sympy.sqrt(t)],
            [sympy.sqrt(s), m * s - 1, 0],
            [sympy.sqrt(t), 0, m * t - 1],
        ]
    )
    a, b, c = _cubic(s, t, m)
    got = quot.charpoly(x).all_coeffs()
    assert [sympy.expand(g - w) for g, w in zip(got, (1, -a, b, -c))] == [0, 0, 0, 0]
    # the symbolic quotient is the one roots() solves
    for st_m in ((1, 1, 2), (3, 2, 2), (2, 5, 4)):
        at = dict(zip((s, t, m), st_m))
        want = sorted(complex(r).real for r in quot.subs(at).charpoly(x).nroots())
        assert CubicCoeffs(*st_m).roots() == pytest.approx(want, abs=1e-9)


def _int_charpoly(sympy, mat, x):
    # the float matrices here hold small integers exactly
    return sympy.Matrix(np.rint(mat).astype(int).tolist()).charpoly(x).as_expr()


def test_windmill_and_wprime_quadratics_divide_the_charpolys():
    """windmill_q_quadratic is the charpoly of the 2x2 quotient of
    Q_{m-1}(W) on {hub, blade vertices}: checked on a grid, which settles
    the identity since both coefficients have degree <= 1 in eta and <= 2
    in mu and in m. And on five (eta, mu, m), each quadratic divides the
    characteristic polynomial of the matrix whose roots it carries: wind1
    Lap(W'), wind2 and wind3 Q_{m-1}(W'), the windmill's Q_{m-1}(W). The
    book's factors multiply to the characteristic polynomial of
    Lap(L(book(k))), so both its quadratics divide it; the thm-2.1-cases
    P_3 quadratic and the pendant-bound quadratic are the characteristic
    polynomials of their 2x2 matrices."""
    sympy = pytest.importorskip("sympy")
    eta, mu, m, x = sympy.symbols("eta mu m x")
    quot = sympy.Matrix(
        [
            [(m - 1) * eta * (mu - 1), eta * (mu - 1)],
            [1, (m - 1) * (mu - 1) + mu - 2],
        ]
    )
    _, minus_p, q = quot.charpoly(x).all_coeffs()
    for point in itertools.product((2, 3), (3, 4, 5), (2, 3, 4)):
        at = dict(zip((eta, mu, m), point))
        assert (-minus_p.subs(at), q.subs(at)) == windmill_q_quadratic(*point), point
    for e, u, k in ((2, 3, 2), (3, 3, 3), (3, 4, 2), (4, 3, 4), (2, 5, 3)):
        lap = _int_charpoly(sympy, laplacian(wprime_graph(e, u)), x)
        qw = _int_charpoly(sympy, q_matrix(wprime_graph(e, u), k), x)
        quads = wprime_quadratics(e, u, k)
        for poly, name in ((lap, "wind1"), (qw, "wind2"), (qw, "wind3")):
            p, c = quads[name]
            assert sympy.rem(poly, x**2 - p * x + c, x) == 0, (e, u, k, name)
        p, c = windmill_q_quadratic(e, u, k)
        qm = _int_charpoly(sympy, q_matrix(windmill_graph(e, u), k), x)
        assert sympy.rem(qm, x**2 - p * x + c, x) == 0, (e, u, k)
    for k in range(1, 5):
        lap = _int_charpoly(sympy, laplacian(line_graph(book_graph(k))[0]), x)
        factors = x * (x - 2) * (x - k - 2) ** (k - 1) * (x**2 - (2 * k + 4) * x + 6 * k + 2)
        assert sympy.expand(lap - factors * (x**2 - (k + 4) * x + 2 * k + 2) ** (k - 1)) == 0, k
    # Q_{m-1}(P_3): m-1 on the end vertices' difference, and the quotient
    # on {ends, middle} for the rest
    p3 = sympy.Matrix([[m - 1, 1], [2, 2 * (m - 1)]]).charpoly(x).as_expr()
    assert sympy.expand(p3 - (x**2 - 3 * (m - 1) * x + 2 * m * (m - 2))) == 0
    for k in (2, 3, 4, 5):
        qp = _int_charpoly(sympy, q_matrix(path_graph(3), k), x)
        assert sympy.expand(qp - (x - k + 1) * p3.subs(m, k)) == 0, k
    d = sympy.symbols("d")
    _, minus_p, q = sympy.Matrix([[(m - 1) * d, 1], [1, m - 1]]).charpoly(x).all_coeffs()
    for point in itertools.product((1, 2, 3, 4), (2, 3, 4)):
        at = dict(zip((d, m), point))
        assert _pendant_bound(*point) == quad_roots(float(-minus_p.subs(at)), float(q.subs(at)))[0], point


def test_cubic_332_is_integral():
    cub = CubicCoeffs(3, 3, 2)
    assert (cub.a, cub.b, cub.c) == (16, 79, 120)
    assert integer_roots_of_monic_cubic(cub.a, cub.b, cub.c) == (3, 5, 8)
    np.testing.assert_allclose(cub.roots(), [3.0, 5.0, 8.0], atol=1e-9)


def test_cubic_coeffs_takes_only_s_t_m():
    # a, b and c are computed from s, t and m, so none of them can be
    # passed, and roots() and the integer-root test read the same cubic
    cub = CubicCoeffs(3, 3, 2)
    assert CubicCoeffs(3, 3, 2) == cub
    for name in ("a", "b", "c"):
        with pytest.raises(TypeError):
            CubicCoeffs(3, 3, 2, **{name: getattr(cub, name)})
    with pytest.raises(TypeError):
        CubicCoeffs(16, 79, 120, 3, 3, 2)


def test_numpy_integers_give_the_python_int_coefficients():
    # at these sizes int64 products overflow: in numpy integers, c of the
    # cubic read -3,420,581,989,593,213,952 and q of the windmill quadratic
    # -3.87e18, and the wprime products pass 2**63
    def cubic(s, t, m):
        cub = CubicCoeffs(s, t, m)
        return cub.a, cub.b, cub.c

    for fn, big in (
        (cubic, (10**6, 10**6, 1000)),
        (windmill_q_quadratic, (10**6, 10**6, 1000)),
        (wprime_quadratics, (10**7, 10**7, 1000)),
    ):
        want = fn(*big)
        got = fn(*map(np.int64, big))
        assert got == want, fn.__name__
        values = got.values() if isinstance(got, dict) else (got,)
        assert all(type(x) is int for pair in values for x in pair), fn.__name__
    assert CubicCoeffs(10**6, 10**6, 1000).c > 0
    assert windmill_q_quadratic(10**6, 10**6, 1000)[1] > 9.9e23


def test_closed_forms_take_numpy_integers_of_any_size():
    # each closed form at parameters where int64 arithmetic overflows gives
    # what Python ints give, types included; is_beta_laplacian_integral
    # assembles its graph, which cannot be allocated at these sizes
    big = 2**31
    calls = (
        (star_product_spectrum, (2**32, 2**32)),
        (t1st_line_laplacian_spectrum, (2**62, 2**62)),
        (CubicCoeffs, (big, big + 1, big)),
        (integer_roots_of_monic_cubic, (6 * 10**6, 11 * 10**12, 6 * 10**18)),
        (windmill_q_quadratic, (big, big, big)),
        (windmill_product_spectrum, (big, 2**32 + 1, 2)),
        (wprime_quadratics, (big, big, big)),
        (wprime_product_spectrum, (big, big, big)),
        (wprime_algebraic_connectivity, (big, big, big)),
        (book_line_laplacian_spectrum, (2**62,)),
        (book_aconn_bound, (2**62, 2**62)),
    )

    def exact(x):
        if isinstance(x, Spectrum):
            return repr(x.pairs)
        return repr((x, x.roots())) if isinstance(x, CubicCoeffs) else repr(x)

    for fn, args in calls:
        assert exact(fn(*map(np.int64, args))) == exact(fn(*args)), fn.__name__
    assert integer_roots_of_monic_cubic(6 * 10**6, 11 * 10**12, 6 * 10**18) == (10**6, 2 * 10**6, 3 * 10**6)
    assert windmill_product_spectrum(big, 2**32 + 1, 2).pairs[0] == (0.0, 1)


def test_cubic_222_is_not_integral():
    cub = CubicCoeffs(2, 2, 2)
    assert integer_roots_of_monic_cubic(cub.a, cub.b, cub.c) is None
    want = sorted([3.0, (7 - math.sqrt(17)) / 2, (7 + math.sqrt(17)) / 2])
    np.testing.assert_allclose(cub.roots(), want, atol=1e-9)


def test_integer_roots_of_monic_cubic():
    # (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
    assert integer_roots_of_monic_cubic(6, 11, 6) == (1, 2, 3)
    # x(x-2)(x-5) = x^3 - 7x^2 + 10x
    assert integer_roots_of_monic_cubic(7, 10, 0) == (0, 2, 5)
    # (x+1)x(x-1) = x^3 - x
    assert integer_roots_of_monic_cubic(0, -1, 0) == (-1, 0, 1)
    # irrational roots
    assert integer_roots_of_monic_cubic(7, 12, 3) is None
    # one integer root, irrational quadratic factor: (x-1)(x^2-3)
    assert integer_roots_of_monic_cubic(1, -3, -3) is None


def test_integer_roots_of_a_cubic_with_a_large_constant_take_no_time():
    # CubicCoeffs(10**6, 10**6, 1000), which sympy factors as
    # (x - 999999999)(x^2 - 2997999999x + 1997999998000000000); trial
    # division up to sqrt(c) ~ 4.5e13 would run for hours
    cub = CubicCoeffs(10**6, 10**6, 1000)
    abc = (3997999998, 4995999994002000001, 1997999996002000002000000000)
    assert (cub.a, cub.b, cub.c) == abc
    start = time.perf_counter()
    assert integer_roots_of_monic_cubic(*abc) is None
    assert time.perf_counter() - start < 0.25
    # one root at 10**9 and two more 10**9 apart, all integers
    big = (10**9, 2 * 10**9, -(10**9))
    a, b, c = sum(big), big[0] * big[1] + big[0] * big[2] + big[1] * big[2], big[0] * big[1] * big[2]
    assert integer_roots_of_monic_cubic(a, b, c) == tuple(sorted(big))


def test_integer_roots_of_monic_cubic_match_trial_division():
    # the trial-division oracle on a grid of coefficients, on every cubic
    # with roots in -6..6, and on every integrality cubic with s, t <= 12
    # and m <= 5
    cubics = list(itertools.product(range(-8, 9), range(-20, 21), range(-30, 31)))
    cubics += [
        (x + y + z, x * y + x * z + y * z, x * y * z)
        for x, y, z in itertools.combinations_with_replacement(range(-6, 7), 3)
    ]
    for s, t, m in itertools.product(range(1, 13), range(1, 13), range(2, 6)):
        cub = CubicCoeffs(s, t, m)
        cubics.append((cub.a, cub.b, cub.c))
    hits = 0
    for abc in cubics:
        want = cubic_integer_roots_oracle(*abc)
        assert integer_roots_of_monic_cubic(*abc) == want, abc
        hits += want is not None
    assert hits > 455  # the 455 cubics built from roots, and more


def test_is_beta_laplacian_integral():
    assert is_beta_laplacian_integral(3, 3, 2)
    assert not is_beta_laplacian_integral(2, 2, 2)
    for s in (1, 2, 3):
        for t in range(1, s + 1):
            for m in (2, 3):
                exact = is_beta_laplacian_integral(s, t, m)  # raises on mismatch
                assert exact in (True, False)


def test_windmill_product_closed_vs_direct():
    for eta, mu, m in ((2, 3, 2), (3, 3, 3), (2, 4, 2), (4, 3, 2)):
        closed = windmill_product_spectrum(eta, mu, m)
        direct = product_laplacian_spectrum_direct(windmill_graph(eta, mu), m)
        assert spectra_equal(closed, direct, 1e-8)
    with pytest.raises(ValueError):
        windmill_product_spectrum(1, 3, 2)


def test_windmill_quadratic_values():
    p, q = windmill_q_quadratic(2, 3, 2)
    vals = eigenvalues(q_matrix(windmill_graph(2, 3), 2))
    lo, hi = quad_roots(float(p), float(q))
    assert any(abs(v - lo) <= 1e-9 for v in vals)
    assert any(abs(v - hi) <= 1e-9 for v in vals)


def test_wprime_product_closed_vs_direct():
    for eta, mu, m in ((2, 2, 2), (3, 3, 2), (3, 4, 3), (4, 3, 2)):
        closed = wprime_product_spectrum(eta, mu, m)
        direct = product_laplacian_spectrum_direct(wprime_graph(eta, mu), m)
        assert spectra_equal(closed, direct, 1e-8)
    assert set(wprime_quadratics(3, 3, 2)) == {"wind1", "wind2", "wind3"}
    with pytest.raises(ValueError):
        wprime_product_spectrum(2, 1, 2)


def test_wprime_algebraic_connectivity():
    # (3,3,2): (6 - sqrt(24)) / 2
    want = (6 - math.sqrt(24)) / 2
    assert abs(wprime_algebraic_connectivity(3, 3, 2) - want) <= 1e-12
    got = eigenvalues(laplacian(kronecker(wprime_graph(3, 3), complete_graph(2))))[1]
    assert abs(got - want) <= 1e-8
    # the closed form only covers eta, mu >= 3
    with pytest.raises(ValueError):
        wprime_algebraic_connectivity(2, 3, 2)
    with pytest.raises(ValueError):
        wprime_algebraic_connectivity(3, 2, 2)


def test_book_line_laplacian_closed_vs_direct():
    for k in range(1, 9):
        closed = book_line_laplacian_spectrum(k)
        direct = group_spectrum(eigenvalues(laplacian(line_graph(book_graph(k))[0])))
        assert spectra_equal(closed, direct, 1e-9)


def test_book_k1_is_c4():
    np.testing.assert_allclose(
        book_line_laplacian_spectrum(1).values(), [0, 2, 2, 4], atol=1e-12
    )


def test_book_aconn_bound():
    assert abs(book_aconn_bound(3, 2) - (7 - math.sqrt(17)) / 2) <= 1e-12
    assert abs(book_aconn_bound(3, 3) - (7 - math.sqrt(17))) <= 1e-12
    with pytest.raises(ValueError):
        book_aconn_bound(1, 2)


def test_cubic_coeffs_frozen():
    cub = CubicCoeffs(s=1, t=1, m=2)
    assert (cub.a, cub.b, cub.c) == (4, 3, 0)
    with pytest.raises(AttributeError):
        cub.a = 5
