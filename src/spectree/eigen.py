"""Symmetric eigensolver and eigenvalue multisets.

Eigenvalues and eigenvectors come from LAPACK's symmetric routines through
numpy.linalg (eigvalsh / eigh), after checking that the input is a finite,
square and exactly symmetric matrix. Reruns in one process give bitwise
identical output; a different BLAS/LAPACK build may differ in the last
few ulps. The tests check this solver against an independent cyclic
Jacobi reference.

A Spectrum is an eigenvalue multiset stored as (value, multiplicity) pairs
in strictly increasing value order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import _is_int

__all__ = [
    "GROUP_TOL",
    "INT_TOL",
    "Spectrum",
    "eigenvalues",
    "eigensystem",
    "group_spectrum",
    "spectrum_from_pairs",
    "spectra_equal",
    "spectrum_is_integral",
    "spectrum_to_dict",
    "spectrum_from_dict",
]

GROUP_TOL = 1e-7  # tolerance for merging near-equal eigenvalues
INT_TOL = 1e-6    # threshold for calling a float an integer


def _checked(mat) -> np.ndarray:
    """mat as a float64 array, a square matrix or a stack (..., k, k) of
    them, after checking that every slice is finite and exactly
    symmetric; an error names the first slice that is not."""
    a = np.array(mat, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("need a square matrix or a stack of them")
    finite = np.isfinite(a)
    if not finite.all():
        raise ValueError(f"{_first(~finite)} has non-finite entries")
    asym = a != np.swapaxes(a, -1, -2)
    if asym.any():
        raise ValueError(f"{_first(asym)} is not symmetric")
    return a


def _first(bad: np.ndarray) -> str:
    # the first slice holding a True entry of bad
    if bad.ndim == 2:
        return "matrix"
    idx = np.argwhere(bad.any(axis=(-2, -1)))[0]
    return f"matrix {', '.join(map(str, idx.tolist()))} of the stack"


def eigenvalues(m) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending, with multiplicity;
    for a stack (..., k, k), those of each slice, shape (..., k). A stack
    gives each slice the same bits as a solve of that slice alone."""
    return np.linalg.eigvalsh(_checked(m))


def eigensystem(m):
    """(values, vectors): ascending eigenvalues and orthonormal columns,
    slice by slice for a stack."""
    vals, vecs = np.linalg.eigh(_checked(m))
    return vals, vecs


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalue multiset as (value, multiplicity) pairs: finite values,
    strictly increasing, each with a positive integer multiplicity."""

    pairs: tuple[tuple[float, int], ...]

    def __post_init__(self):
        last = None
        for v, mult in self.pairs:
            if not math.isfinite(v):
                raise ValueError(f"values must be finite, got {v!r}")
            # plain ints pass on the cheap type test, others need _is_int
            if not (type(mult) is int or _is_int(mult)) or mult < 1:
                raise ValueError(f"multiplicities must be positive integers, got {mult!r}")
            if last is not None and not v > last:
                raise ValueError("values must be strictly increasing")
            last = v

    def values(self) -> np.ndarray:
        """Flattened ascending eigenvalue list, respecting multiplicity."""
        if not self.pairs:
            return np.zeros(0)
        vs, ms = zip(*self.pairs)
        return np.repeat(np.array(vs, dtype=np.float64), np.array(ms, dtype=np.int64))

    def __repr__(self):
        inner = ", ".join(f"{v:.6g}^{m}" for v, m in self.pairs)
        return f"Spectrum({inner})"


def spectrum_from_pairs(pairs) -> Spectrum:
    """Merge (value, multiplicity) pairs whose values chain within GROUP_TOL;
    a merged group takes its multiplicity-weighted mean value.

    Multiplicities must be non-negative integers (not bools); a pair with
    multiplicity 0 is dropped, so a closed form may list a part that is
    empty.

    Each sorted value is compared with the previous one, not with the
    group's first, so a group's width is unbounded: values spaced
    0.9 * GROUP_TOL apart form one group, and four of them span
    2.7 * GROUP_TOL.

    The pairs are sorted by value and then by multiplicity, and a group's
    sum of value * multiplicity starts at its first member and adds the
    rest left to right. Both orders are fixed, so the means are the same
    bits on every run and for any input order."""
    items = []
    for v, m in pairs:
        if not _is_int(m) or m < 0:
            raise ValueError(f"multiplicities must be non-negative integers, got {m!r}")
        if m > 0:
            items.append((float(v), int(m)))
    items.sort()
    return _merge([v for v, _ in items], [m for _, m in items])


def group_spectrum(values) -> Spectrum:
    """Group an ascending eigenvalue array into a Spectrum."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("need a 1-d value list")
    if np.any(np.diff(arr) < 0):
        raise ValueError("values must be ascending")
    vals = arr.tolist()
    return _merge(vals, [1] * len(vals))


def _merge(vals: list[float], mults: list[int]) -> Spectrum:
    # the one grouping rule: walk the sorted values once; a group goes on
    # while each step from the previous value is <= GROUP_TOL, and its sum
    # starts at its first v * m (so a -0.0 group keeps its sign)
    pairs = []
    if vals:
        prev, tot = vals[0], mults[0]
        wsum = prev * tot
        for i in range(1, len(vals)):
            v, m = vals[i], mults[i]
            if v - prev <= GROUP_TOL:
                tot += m
                wsum += v * m
            else:
                pairs.append((wsum / tot, tot))
                tot, wsum = m, v * m
            prev = v
        pairs.append((wsum / tot, tot))
    return Spectrum(pairs=tuple(pairs))


def spectra_equal(a: Spectrum, b: Spectrum, tol: float) -> bool:
    """Multiset equality: same dimension and sorted values pairwise within
    tol."""
    va, vb = a.values(), b.values()
    if va.shape != vb.shape:
        return False
    if va.size == 0:
        return True
    return float(np.max(np.abs(va - vb))) <= tol


def spectrum_is_integral(s: Spectrum) -> bool:
    return all(abs(v - round(v)) <= INT_TOL for v, _ in s.pairs)


# ---- serialization ----

def spectrum_to_dict(s: Spectrum) -> dict:
    return {"pairs": [[float(v), int(m)] for v, m in s.pairs], "tol": GROUP_TOL}


def spectrum_from_dict(d: dict) -> Spectrum:
    """Inverse of spectrum_to_dict. Raises ValueError naming the problem for
    anything but an object with "pairs" a list of [value, multiplicity]
    pairs and "tol" equal to GROUP_TOL."""
    if not isinstance(d, dict):
        raise ValueError(f"spectrum must be a JSON object, got {type(d).__name__}")
    for key in ("pairs", "tol"):
        if key not in d:
            raise ValueError(f"spectrum has no {key!r}")
    pairs, tol = d["pairs"], d["tol"]
    if tol != GROUP_TOL:
        raise ValueError(f"spectrum tol must be {GROUP_TOL!r}, got {tol!r}")
    if not isinstance(pairs, list):
        raise ValueError(f"spectrum 'pairs' must be a list, got {pairs!r}")
    for p in pairs:
        if not (isinstance(p, (list, tuple)) and len(p) == 2 and _is_number(p[0])):
            raise ValueError(f"each spectrum pair must be [number, multiplicity], got {p!r}")
    return Spectrum(pairs=tuple((float(v), m) for v, m in pairs))


def _is_number(x) -> bool:
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)

