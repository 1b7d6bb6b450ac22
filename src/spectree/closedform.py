"""Closed-form spectra for the studied families, with exact integrality
tests for the double-star product.

Every function here has an independent numeric twin (assemble the graph,
eigensolve) exercised by the test suite; the two routes are kept separate
on purpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigen import Spectrum, eigenvalues, group_spectrum, spectrum_from_pairs, spectrum_is_integral
from .families import beta_m, tkst_tree
from .spectra import laplacian

__all__ = [
    "CubicCoeffs",
    "star_product_spectrum",
    "t1st_q_spectrum_m2",
    "t1st_line_laplacian_spectrum",
    "integrality_cubic",
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


def star_product_spectrum(n: int, m: int) -> Spectrum:
    """Laplacian spectrum of K_{n-1} x K_m, i.e. of the product of the line
    graph of the star on n vertices with K_m."""
    if n < 3 or m < 2:
        raise ValueError("needs n >= 3, m >= 2")
    pairs = [
        (0.0, 1),
        (float((m - 1) * (n - 2) - 1), (n - 2) * (m - 1)),
        (float(n + (m - 1) * (n - 2) - 2), m - 1),
        (float((n - 1) * (m - 1)), n - 2),
    ]
    return spectrum_from_pairs(pairs)


def t1st_q_spectrum_m2(s: int, t: int) -> Spectrum:
    """Signless Laplacian spectrum of L(T(1,s,t)): s-1 copies of s-1, t-1
    copies of t-1, one s+t-1, and the roots of
    x^2 - (2(s+t)-1) x + (4st - 2(s+t))."""
    if s < 1 or t < 1:
        raise ValueError("needs s >= 1, t >= 1")
    lo, hi = quad_roots(2.0 * (s + t) - 1.0, 4.0 * s * t - 2.0 * (s + t))
    pairs = [(float(s + t - 1), 1), (lo, 1), (hi, 1)]
    if s >= 2:
        pairs.append((float(s - 1), s - 1))
    if t >= 2:
        pairs.append((float(t - 1), t - 1))
    return spectrum_from_pairs(pairs)


def t1st_line_laplacian_spectrum(s: int, t: int) -> Spectrum:
    """Laplacian spectrum of L(T(1,s,t)), two cliques K_{s+1}, K_{t+1}
    sharing a vertex: {0, 1, (s+1)^(s-1), (t+1)^(t-1), s+t+1}."""
    if s < 1 or t < 1:
        raise ValueError("needs s >= 1, t >= 1")
    pairs = [(0.0, 1), (1.0, 1), (float(s + t + 1), 1)]
    if s >= 2:
        pairs.append((float(s + 1), s - 1))
    if t >= 2:
        pairs.append((float(t + 1), t - 1))
    return spectrum_from_pairs(pairs)


# ---- double-star product integrality ----

@dataclass(frozen=True)
class CubicCoeffs:
    """Monic cubic x^3 - a x^2 + b x - c carrying the non-fixed part of the
    Q_{m-1}(L(T(1,s,t))) spectrum; coefficients are exact integers."""

    a: int
    b: int
    c: int
    s: int
    t: int
    m: int

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

    def integer_roots(self) -> tuple[int, int, int] | None:
        return integer_roots_of_monic_cubic(self.a, self.b, self.c)


def integrality_cubic(s: int, t: int, m: int) -> CubicCoeffs:
    """The cubic factor deciding whether Lap(L(T(1,s,t)) x K_m) is integral
    (all other eigenvalues of that product are integers automatically)."""
    if s < 1 or t < 1 or m < 2:
        raise ValueError("needs s, t >= 1 and m >= 2")
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
    return CubicCoeffs(a=a, b=b, c=c, s=s, t=t, m=m)


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


def integer_roots_of_monic_cubic(a: int, b: int, c: int) -> tuple[int, int, int] | None:
    """Roots of x^3 - a x^2 + b x - c if all three are integers, else None.

    Exact: a rational root of a monic integer polynomial is an integer
    dividing the constant term; deflate and demand a perfect-square
    discriminant with matching parity for the remaining quadratic.
    """

    def poly(x: int) -> int:
        return x * x * x - a * x * x + b * x - c

    root = None
    if c == 0:
        root = 0
    else:
        for d in _divisors(abs(c)):
            if poly(d) == 0:
                root = d
                break
            if poly(-d) == 0:
                root = -d
                break
    if root is None:
        return None
    p = root - a  # deflated quadratic x^2 + p x + q
    q = b + root * p
    disc = p * p - 4 * q
    if disc < 0:
        return None
    r = math.isqrt(disc)
    if r * r != disc or (r - p) % 2 != 0:
        return None
    x1 = (-p + r) // 2
    x2 = (-p - r) // 2
    out = sorted((root, x1, x2))
    return (out[0], out[1], out[2])


def is_beta_laplacian_integral(s: int, t: int, m: int) -> bool:
    """Exact integrality of Lap(L(T(1,s,t)) x K_m), cross-checked against
    the numeric eigensolve of the assembled product."""
    exact = integrality_cubic(s, t, m).integer_roots() is not None
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
    p = (m - 1) * (mu - 1) * (eta + 1) + mu - 2
    q = eta * (mu - 1) * ((m - 1) * ((m - 1) * (mu - 1) + mu - 2) - 1)
    return p, q


def windmill_product_spectrum(eta: int, mu: int, m: int) -> Spectrum:
    """Laplacian spectrum of W(eta, mu) x K_m in closed form."""
    if eta < 2 or mu < 3 or m < 2:
        raise ValueError("needs eta >= 2, mu >= 3, m >= 2")
    w = m - 1
    lo, hi = quad_roots(*(float(x) for x in windmill_q_quadratic(eta, mu, m)))
    pairs = [
        # (m-1) * Lap(W) part, weight 1
        (0.0, 1),
        (float(w), eta - 1),
        (float(w * mu), eta * (mu - 2)),
        (float(w * (eta * mu - eta + 1)), 1),
        # Q_{m-1}(W) part, weight m-1
        (float(w * (mu - 1) - 1), eta * (mu - 2) * w),
        (float(w * (mu - 1) + mu - 2), (eta - 1) * w),
        (lo, w),
        (hi, w),
    ]
    return spectrum_from_pairs(pairs)


# ---- windmills with separated blade centers ----

def wprime_quadratics(eta: int, mu: int, m: int) -> dict[str, tuple[int, int]]:
    """(p, q) pairs for the three quadratics x^2 - p x + q attached to
    W'(eta, mu) = K_eta with a K_mu glued at each core vertex:

    wind1: the two non-fixed Laplacian eigenvalue pairs of W' itself
           (multiplicity eta-1 each root),
    wind2: same role inside Q_{m-1}(W') (multiplicity eta-1 each root),
    wind3: the symmetric-quotient pair of Q_{m-1}(W') (multiplicity 1 each).
    """
    if eta < 2 or mu < 2 or m < 2:
        raise ValueError("needs eta >= 2, mu >= 2, m >= 2")
    base = (m - 1) * (mu + eta - 2)
    col = m * mu - m - 1  # (m-1)(mu-1) + mu - 2
    return {
        "wind1": (mu + eta, eta),
        "wind2": (col + base - 1, (base - 1) * col - mu + 1),
        "wind3": (col + base - 1 + eta, (base + eta - 1) * col - mu + 1),
    }


def wprime_product_spectrum(eta: int, mu: int, m: int) -> Spectrum:
    """Laplacian spectrum of W'(eta, mu) x K_m in closed form."""
    if eta < 2 or mu < 2 or m < 2:
        raise ValueError("needs eta >= 2, mu >= 2, m >= 2")
    w = m - 1
    quads = wprime_quadratics(eta, mu, m)
    l1, l2 = quad_roots(*(float(x) for x in quads["wind1"]))
    q1, q2 = quad_roots(*(float(x) for x in quads["wind2"]))
    r1, r2 = quad_roots(*(float(x) for x in quads["wind3"]))
    pairs = [
        # (m-1) * Lap(W') part, weight 1
        (0.0, 1),
        (float(w * mu), 1 + eta * (mu - 2)),
        (w * l1, eta - 1),
        (w * l2, eta - 1),
        # Q_{m-1}(W') part, weight m-1
        (float(w * (mu - 1) - 1), eta * (mu - 2) * w),
        (q1, (eta - 1) * w),
        (q2, (eta - 1) * w),
        (r1, w),
        (r2, w),
    ]
    return spectrum_from_pairs(pairs)


def wprime_algebraic_connectivity(eta: int, mu: int, m: int) -> float:
    """a(W'(eta, mu) x K_m) = (m-1)(mu + eta - sqrt((mu+eta)^2 - 4 eta))/2.

    Only claimed for eta >= 3, mu >= 3; eta = 2 is rejected (the statement
    does not cover it)."""
    if eta < 3 or mu < 3:
        raise ValueError("closed form requires eta >= 3 and mu >= 3")
    if m < 2:
        raise ValueError("needs m >= 2")
    lo, _ = quad_roots(float(mu + eta), float(eta))
    return (m - 1) * lo


# ---- books ----

def book_line_laplacian_spectrum(k: int) -> Spectrum:
    """Laplacian spectrum of the line graph of the book K_{1,k} x-box K_2."""
    if k < 1:
        raise ValueError("needs k >= 1")
    lo, hi = quad_roots(float(k + 4), float(2 * k + 2))  # disc = k^2 + 8
    so, si = quad_roots(float(2 * k + 4), float(6 * k + 2))  # disc = 4(k^2-2k+2)
    pairs = [(0.0, 1), (2.0, 1), (so, 1), (si, 1)]
    if k >= 2:
        pairs += [(float(k + 2), k - 1), (lo, k - 1), (hi, k - 1)]
    return spectrum_from_pairs(pairs)


def book_aconn_bound(k: int, m: int) -> float:
    """(m-1)(k + 4 - sqrt(k^2 + 8))/2, the scaled small root above."""
    if k < 2 or m < 2:
        raise ValueError("needs k >= 2, m >= 2")
    lo, _ = quad_roots(float(k + 4), float(2 * k + 2))
    return (m - 1) * lo
