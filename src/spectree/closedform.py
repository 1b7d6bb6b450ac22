"""Closed-form spectra for the studied families, with exact integrality
tests for the double-star product.

Each closed form lists its characteristic polynomial's integer factors
once, with multiplicities: (c, k) is (x - c)^k and ((p, q), k) is
(x^2 - p x + q)^k. A product X x K_m is listed as the factors of Lap(X)
and of Q_{m-1}(X), and spec(X x K_m) = (m-1) spec Lap(X) u (m-1) x spec
Q_{m-1}(X).

Every function here has an independent numeric twin (assemble the graph,
eigensolve) exercised by the test suite; the two routes are kept separate
on purpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .eigen import Spectrum, eigenvalues, group_spectrum, spectrum_from_pairs, spectrum_is_integral
from .families import beta_m, tkst_tree
from .graphs import _check_ints
from .spectra import laplacian

__all__ = [
    "CubicCoeffs",
    "star_product_spectrum",
    "t1st_line_laplacian_spectrum",
    "is_beta_laplacian_integral",
    "integer_roots_of_monic_cubic",
    "windmill_product_spectrum",
    "windmill_q_quadratic",
    "wprime_quadratics",
    "wprime_product_spectrum",
    "wprime_algebraic_connectivity",
    "book_line_laplacian_spectrum",
    "book_aconn_bound",
    "quad_roots",
]


def quad_roots(p: float, q: float) -> tuple[float, float]:
    """Real roots of x^2 - p x + q, ascending."""
    disc = p * p - 4.0 * q
    if disc < 0.0:
        raise ValueError("complex roots")
    r = math.sqrt(disc)
    return (p - r) / 2.0, (p + r) / 2.0


def _roots(factors) -> list[tuple[float, int]]:
    # (root, multiplicity) pairs of a factor list, a quadratic's through
    # quad_roots
    pairs = []
    for f, k in factors:
        if isinstance(f, tuple):
            lo, hi = quad_roots(float(f[0]), float(f[1]))
            pairs += [(lo, k), (hi, k)]
        else:
            pairs.append((float(f), k))
    return pairs


def _product_spectrum(lap, q, m: int) -> Spectrum:
    # X x K_m from the factors of Lap(X), roots scaled by m-1, and of
    # Q_{m-1}(X), multiplicities times m-1
    w = m - 1
    return spectrum_from_pairs([(w * v, k) for v, k in _roots(lap)] + [(v, k * w) for v, k in _roots(q)])


def _pendant_bound(d: int, m: int) -> float:
    # smaller eigenvalue of [[(m-1) d, 1], [1, m-1]], the principal
    # submatrix of Q_{m-1} on a degree-d vertex and a pendant neighbour
    return quad_roots(float((m - 1) * (d + 1)), float((m - 1) ** 2 * d - 1))[0]


def star_product_spectrum(n: int, m: int) -> Spectrum:
    """Laplacian spectrum of K_{n-1} x K_m, i.e. of the product of the line
    graph of the star on n vertices with K_m."""
    (n,) = _check_ints(3, n=n)
    (m,) = _check_ints(2, m=m)
    lap = [(0, 1), (n - 1, n - 2)]
    q = [((m - 1) * (n - 2) - 1, n - 2), (m * (n - 2), 1)]
    return _product_spectrum(lap, q, m)


def t1st_line_laplacian_spectrum(s: int, t: int) -> Spectrum:
    """Laplacian spectrum of L(T(1,s,t)), two cliques K_{s+1}, K_{t+1}
    sharing a vertex: {0, 1, (s+1)^(s-1), (t+1)^(t-1), s+t+1}."""
    s, t = _check_ints(1, s=s, t=t)
    return spectrum_from_pairs(_roots([(0, 1), (1, 1), (s + 1, s - 1), (t + 1, t - 1), (s + t + 1, 1)]))


# ---- double-star product integrality ----

@dataclass(frozen=True)
class CubicCoeffs:
    """Monic cubic x^3 - a x^2 + b x - c carrying the non-fixed part of the
    Q_{m-1}(L(T(1,s,t))) spectrum; the exact integer coefficients are
    computed from s, t and m. It decides whether Lap(L(T(1,s,t)) x K_m) is
    integral: all other eigenvalues of that product are integers."""

    s: int
    t: int
    m: int
    a: int = field(init=False)
    b: int = field(init=False)
    c: int = field(init=False)

    def __post_init__(self):
        s, t = _check_ints(1, s=self.s, t=self.t)
        (m,) = _check_ints(2, m=self.m)
        for name, v in zip("stmabc", (s, t, m, *_cubic(s, t, m))):
            object.__setattr__(self, name, v)

    def roots(self) -> tuple[float, float, float]:
        """Numeric roots, ascending: eigenvalues of the symmetrized 3x3
        quotient of Q_{m-1} on {shared vertex, s-clique, t-clique}."""
        s, t, m = self.s, self.t, self.m
        quot = np.array(
            [
                [(m - 1.0) * (s + t), math.sqrt(s), math.sqrt(t)],
                [math.sqrt(s), m * s - 1.0, 0.0],
                [math.sqrt(t), 0.0, m * t - 1.0],
            ]
        )
        vals = eigenvalues(quot)
        return (float(vals[0]), float(vals[1]), float(vals[2]))


def _cubic(s: int, t: int, m: int) -> tuple[int, int, int]:
    # (a, b, c) of the cubic; s, t and m are checked integers, or symbols
    a = (2 * m - 1) * (s + t) - 2
    b = (
        m * (m - 1) * (s * s + t * t)
        - (3 * m - 1) * (s + t)
        + m * (3 * m - 2) * s * t
        + 1
    )
    c = (
        m * (1 - m) * (s * s + t * t)
        + m * (s + t)
        - 2 * m * m * s * t
        + m * m * (m - 1) * (s * s * t + s * t * t)
    )
    return a, b, c


def integer_roots_of_monic_cubic(a: int, b: int, c: int) -> tuple[int, int, int] | None:
    """Roots of x^3 - a x^2 + b x - c if all three are integers, else None.

    Exact, in Python ints, in time that grows with the digits of the
    coefficients. Three real roots need f' = 3x^2 - 2a x + b to have real
    roots, the larger being r = (a + sqrt(a^2 - 3b)) / 3; the largest root
    of f then lies in [r, 1 + max(|a|, |b|, |c|)), where f increases. So
    if it is an integer it is floor(r), or the least integer above
    floor(r) where f >= 0, which bisection finds. Deflate by that root to
    x^2 + p x + q and demand a perfect-square discriminant p^2 - 4q; its
    root has p's parity (the squares differ by 4q), so the roots are integers.
    """
    a, b, c = _check_ints(None, a=a, b=b, c=c)

    def poly(x: int) -> int:
        return x * x * x - a * x * x + b * x - c

    disc = a * a - 3 * b
    if disc < 0:
        return None
    # floor(r), as floor((a + s) / 3) = floor((a + floor(s)) / 3) for an integer a
    root = (a + math.isqrt(disc)) // 3
    if poly(root) != 0:
        lo, hi = root + 1, 1 + max(abs(a), abs(b), abs(c))
        while lo < hi:
            mid = (lo + hi) // 2
            if poly(mid) >= 0:
                hi = mid
            else:
                lo = mid + 1
        if poly(lo) != 0:
            return None
        root = lo
    p = root - a  # deflated quadratic x^2 + p x + q
    q = b + root * p
    disc = p * p - 4 * q
    if disc < 0:
        return None
    r = math.isqrt(disc)
    if r * r != disc:
        return None
    x1 = (-p + r) // 2
    x2 = (-p - r) // 2
    out = sorted((root, x1, x2))
    return (out[0], out[1], out[2])


def is_beta_laplacian_integral(s: int, t: int, m: int) -> bool:
    """Exact integrality of Lap(L(T(1,s,t)) x K_m), cross-checked against
    the numeric eigensolve of the assembled product."""
    cc = CubicCoeffs(s, t, m)  # checks s, t and m
    exact = integer_roots_of_monic_cubic(cc.a, cc.b, cc.c) is not None
    vals = eigenvalues(laplacian(beta_m(tkst_tree(1, s, t), m)))
    numeric = spectrum_is_integral(group_spectrum(vals))
    if exact != numeric:
        raise RuntimeError(
            f"integer-root test ({exact}) and numeric integrality ({numeric}) "
            f"disagree for s={s}, t={t}, m={m}"
        )
    return exact


# ---- windmills ----

def windmill_q_quadratic(eta: int, mu: int, m: int) -> tuple[int, int]:
    """(p, q) of the quadratic x^2 - p x + q holding the two non-fixed
    eigenvalues of Q_{m-1}(W(eta, mu))."""
    (eta,) = _check_ints(2, eta=eta)
    (mu,) = _check_ints(3, mu=mu)
    (m,) = _check_ints(2, m=m)
    p = (m - 1) * (mu - 1) * (eta + 1) + mu - 2
    q = eta * (mu - 1) * ((m - 1) * ((m - 1) * (mu - 1) + mu - 2) - 1)
    return p, q


def windmill_product_spectrum(eta: int, mu: int, m: int) -> Spectrum:
    """Laplacian spectrum of W(eta, mu) x K_m in closed form."""
    quad = windmill_q_quadratic(eta, mu, m)  # checks eta, mu and m
    eta, mu, m = _check_ints(None, eta=eta, mu=mu, m=m)
    lap = [(0, 1), (1, eta - 1), (mu, eta * (mu - 2)), (eta * mu - eta + 1, 1)]
    q = [((m - 1) * (mu - 1) - 1, eta * (mu - 2)), (m * (mu - 1) - 1, eta - 1), (quad, 1)]
    return _product_spectrum(lap, q, m)


# ---- windmills with separated blade centers ----

def wprime_quadratics(eta: int, mu: int, m: int) -> dict[str, tuple[int, int]]:
    """(p, q) pairs for the three quadratics x^2 - p x + q attached to
    W'(eta, mu) = K_eta with a K_mu glued at each core vertex:

    wind1: the two non-fixed Laplacian eigenvalue pairs of W' itself
           (multiplicity eta-1 each root),
    wind2: same role inside Q_{m-1}(W') (multiplicity eta-1 each root),
    wind3: the symmetric-quotient pair of Q_{m-1}(W') (multiplicity 1 each).
    """
    eta, mu, m = _check_ints(2, eta=eta, mu=mu, m=m)
    base = (m - 1) * (mu + eta - 2)
    col = m * mu - m - 1  # (m-1)(mu-1) + mu - 2
    return {
        "wind1": (mu + eta, eta),
        "wind2": (col + base - 1, (base - 1) * col - mu + 1),
        "wind3": (col + base - 1 + eta, (base + eta - 1) * col - mu + 1),
    }


def wprime_product_spectrum(eta: int, mu: int, m: int) -> Spectrum:
    """Laplacian spectrum of W'(eta, mu) x K_m in closed form."""
    eta, mu, m = _check_ints(2, eta=eta, mu=mu, m=m)
    quads = wprime_quadratics(eta, mu, m)
    lap = [(0, 1), (mu, 1 + eta * (mu - 2)), (quads["wind1"], eta - 1)]
    q = [((m - 1) * (mu - 1) - 1, eta * (mu - 2)), (quads["wind2"], eta - 1), (quads["wind3"], 1)]
    return _product_spectrum(lap, q, m)


def wprime_algebraic_connectivity(eta: int, mu: int, m: int) -> float:
    """a(W'(eta, mu) x K_m) = (m-1)(mu + eta - sqrt((mu+eta)^2 - 4 eta))/2.

    Only claimed for eta >= 3, mu >= 3; eta = 2 is rejected (the statement
    does not cover it)."""
    eta, mu = _check_ints(3, eta=eta, mu=mu)
    (m,) = _check_ints(2, m=m)
    p, q = wprime_quadratics(eta, mu, m)["wind1"]
    return (m - 1) * quad_roots(float(p), float(q))[0]


# ---- books ----

def book_line_laplacian_spectrum(k: int) -> Spectrum:
    """Laplacian spectrum of the line graph of the book K_{1,k} x-box K_2."""
    (k,) = _check_ints(1, k=k)
    # the quadratics' discriminants are k^2 + 8 and 4(k^2 - 2k + 2)
    return spectrum_from_pairs(
        _roots([(0, 1), (2, 1), ((2 * k + 4, 6 * k + 2), 1), (k + 2, k - 1), ((k + 4, 2 * k + 2), k - 1)])
    )


def book_aconn_bound(k: int, m: int) -> float:
    """(m-1)(k + 4 - sqrt(k^2 + 8))/2, the scaled small root above."""
    k, m = _check_ints(2, k=k, m=m)
    return (m - 1) * quad_roots(float(k + 4), float(2 * k + 2))[0]
