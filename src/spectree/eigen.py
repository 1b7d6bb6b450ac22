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

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GROUP_TOL",
    "INT_TOL",
    "Spectrum",
    "eigenvalues",
    "eigensystem",
    "min_eigenvalue",
    "second_smallest",
    "group_spectrum",
    "spectrum_from_pairs",
    "spectra_equal",
    "scale",
    "union_with_multiplicity",
    "spectrum_is_integral",
    "spectrum_to_dict",
    "spectrum_from_dict",
    "spectrum_to_json",
    "spectrum_from_json",
]

GROUP_TOL = 1e-7  # tolerance for merging near-equal eigenvalues
INT_TOL = 1e-6    # threshold for calling a float an integer


def _checked(mat) -> np.ndarray:
    a = np.array(mat, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("need a square matrix")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix is not symmetric")
    return a


def eigenvalues(m) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending, with multiplicity."""
    return np.linalg.eigvalsh(_checked(m))


def eigensystem(m):
    """(values, vectors): ascending eigenvalues and orthonormal columns."""
    vals, vecs = np.linalg.eigh(_checked(m))
    return vals, vecs


def min_eigenvalue(m) -> float:
    return float(eigenvalues(m)[0])


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
            if not isinstance(mult, (int, np.integer)) or mult < 1:
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

    @property
    def dimension(self) -> int:
        return sum(m for _, m in self.pairs)

    def __repr__(self):
        inner = ", ".join(f"{v:.6g}^{m}" for v, m in self.pairs)
        return f"Spectrum({inner})"


def spectrum_from_pairs(pairs) -> Spectrum:
    """Merge (value, multiplicity) pairs whose values chain within GROUP_TOL;
    a merged group takes its multiplicity-weighted mean value.

    Each sorted value is compared with the previous one, not with the
    group's first, so a group's width is unbounded: values spaced
    0.9 * GROUP_TOL apart form one group, and four of them span
    2.7 * GROUP_TOL."""
    items = sorted((float(v), int(m)) for v, m in pairs if int(m) > 0)
    merged: list[list[float]] = []
    for v, m in items:
        if merged and v - merged[-1][2] <= GROUP_TOL:
            tot, wsum, _ = merged[-1]
            merged[-1] = [tot + m, wsum + v * m, v]
        else:
            merged.append([m, v * m, v])
    out = tuple((wsum / tot, int(tot)) for tot, wsum, _ in merged)
    return Spectrum(pairs=out)


def group_spectrum(values) -> Spectrum:
    """Group an ascending eigenvalue array into a Spectrum."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("need a 1-d value list")
    if np.any(np.diff(arr) < 0):
        raise ValueError("values must be ascending")
    return spectrum_from_pairs([(float(v), 1) for v in arr])


def second_smallest(s: Spectrum) -> float:
    """Second entry of the flattened list, counting multiplicity."""
    if s.dimension < 2:
        raise ValueError("need at least two eigenvalues")
    v0, m0 = s.pairs[0]
    if m0 >= 2:
        return float(v0)
    return float(s.pairs[1][0])


def spectra_equal(a: Spectrum, b: Spectrum, tol: float) -> bool:
    """Multiset equality: same dimension and sorted values pairwise within
    tol."""
    va, vb = a.values(), b.values()
    if va.shape != vb.shape:
        return False
    if va.size == 0:
        return True
    return float(np.max(np.abs(va - vb))) <= tol


def scale(s: Spectrum, c: float) -> Spectrum:
    """Spectrum of c*M given the spectrum of M, c >= 0."""
    if c < 0:
        raise ValueError("scale factor must be >= 0")
    return spectrum_from_pairs([(v * c, m) for v, m in s.pairs])


def union_with_multiplicity(parts) -> Spectrum:
    """Multiset union of (Spectrum, weight) parts; each part's
    multiplicities are multiplied by its integer weight >= 1."""
    pairs = []
    for spec, w in parts:
        if int(w) != w or w < 1:
            raise ValueError("weights must be positive integers")
        pairs.extend((v, m * int(w)) for v, m in spec.pairs)
    if not pairs:
        raise ValueError("union of nothing")
    return spectrum_from_pairs(pairs)


def spectrum_is_integral(s: Spectrum, tol: float = INT_TOL) -> bool:
    return all(abs(v - round(v)) <= tol for v, _ in s.pairs)


# ---- serialization ----

def spectrum_to_dict(s: Spectrum) -> dict:
    return {"pairs": [[float(v), int(m)] for v, m in s.pairs], "tol": GROUP_TOL}


def spectrum_from_dict(d: dict) -> Spectrum:
    """Inverse of spectrum_to_dict; "tol" must be GROUP_TOL."""
    if d["tol"] != GROUP_TOL:
        raise ValueError(f"spectrum tol must be {GROUP_TOL!r}, got {d['tol']!r}")
    return Spectrum(pairs=tuple((float(v), m) for v, m in d["pairs"]))


def spectrum_to_json(s: Spectrum) -> str:
    # floats serialize via repr: shortest form that round-trips exactly
    return json.dumps(spectrum_to_dict(s))


def spectrum_from_json(text: str) -> Spectrum:
    return spectrum_from_dict(json.loads(text))
