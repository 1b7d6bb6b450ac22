"""Laplacian and generalized signless matrices, Kronecker-product spectra,
and algebraic connectivity.

The central identity: for a graph X on n vertices, the Laplacian spectrum
of X x K_m is the multiset union of (m-1) * Lap(X) (weight 1) and the
spectrum of Q_{m-1}(X) = A(X) + (m-1) D(X) (weight m-1). Both routes are
implemented and cross-checked, never collapsed into one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigen import (
    GROUP_TOL,
    Spectrum,
    eigensystem,
    eigenvalues,
    group_spectrum,
    min_eigenvalue,
    scale,
    spectra_equal,
    union_with_multiplicity,
)
from .families import complete_graph, kronecker, line_graph
from .graphs import Graph, degrees, is_bipartite, is_connected, is_tree

__all__ = [
    "adjacency_matrix",
    "laplacian",
    "q_matrix",
    "product_laplacian_spectrum_direct",
    "product_laplacian_spectrum_decomposed",
    "ProductSpectrumResult",
    "product_spectrum",
    "algebraic_connectivity",
    "q_min",
    "product_connected",
    "a_beta_m",
    "eigvec_lift_check",
]


def adjacency_matrix(g: Graph) -> np.ndarray:
    return g.adj.astype(np.float64)


def laplacian(g: Graph) -> np.ndarray:
    """D(g) - A(g)."""
    return np.diag(degrees(g).astype(np.float64)) - adjacency_matrix(g)


def q_matrix(g: Graph, m: int) -> np.ndarray:
    """Q_{m-1}(g) = A(g) + (m-1) D(g); m=2 gives the signless Laplacian."""
    if m < 2:
        raise ValueError("q_matrix needs m >= 2")
    return adjacency_matrix(g) + (m - 1) * np.diag(degrees(g).astype(np.float64))


def product_laplacian_spectrum_direct(g: Graph, m: int, group_tol: float = GROUP_TOL) -> Spectrum:
    """Assemble g x K_m explicitly and eigensolve its Laplacian."""
    prod = kronecker(g, complete_graph(m))
    return group_spectrum(eigenvalues(laplacian(prod)), group_tol)


def product_laplacian_spectrum_decomposed(g: Graph, m: int, group_tol: float = GROUP_TOL) -> Spectrum:
    """Union of (m-1)*Lap(g) (weight 1) and Q_{m-1}(g) (weight m-1)."""
    if m < 2:
        raise ValueError("needs m >= 2")
    lap_part = scale(group_spectrum(eigenvalues(laplacian(g)), group_tol), float(m - 1))
    q_part = group_spectrum(eigenvalues(q_matrix(g, m)), group_tol)
    return union_with_multiplicity([(lap_part, 1), (q_part, m - 1)])


@dataclass(frozen=True)
class ProductSpectrumResult:
    m: int
    direct: Spectrum
    decomposed: Spectrum

    def agree(self, tol: float = 1e-8) -> bool:
        return spectra_equal(self.direct, self.decomposed, tol)


def product_spectrum(g: Graph, m: int, tol: float = 1e-8) -> ProductSpectrumResult:
    """Both spectrum routes for Lap(g x K_m); raises if they disagree."""
    res = ProductSpectrumResult(
        m=m,
        direct=product_laplacian_spectrum_direct(g, m),
        decomposed=product_laplacian_spectrum_decomposed(g, m),
    )
    if not res.agree(tol):
        raise RuntimeError(f"product spectrum routes disagree beyond {tol}")
    return res


def algebraic_connectivity(g: Graph) -> float:
    """Second-smallest Laplacian eigenvalue (counting multiplicity)."""
    if g.n < 2:
        raise ValueError("needs at least two vertices")
    return float(eigenvalues(laplacian(g))[1])


def q_min(g: Graph, m: int) -> float:
    """Smallest eigenvalue of Q_{m-1}(g); zero iff g has a bipartite
    component (for m=2), nonnegative always."""
    return min_eigenvalue(q_matrix(g, m))


def product_connected(g: Graph, m: int) -> bool:
    """g x K_m is connected iff g is connected and at least one factor is
    non-bipartite; K_m is non-bipartite exactly when m >= 3."""
    if m < 2:
        raise ValueError("needs m >= 2")
    return is_connected(g) and (m >= 3 or not is_bipartite(g))


def a_beta_m(tree: Graph, m: int) -> float:
    """Algebraic connectivity of L(tree) x K_m.

    Computed as min{(m-1) a(L), lambda_min(Q_{m-1}(L))} from the product
    decomposition, then cross-checked against the second-smallest eigenvalue
    of the explicitly assembled product Laplacian (1e-8).
    """
    if not is_tree(tree):
        raise ValueError("a_beta_m needs a tree")
    if tree.edge_count < 2:
        raise ValueError("a_beta_m needs a tree with >= 2 edges")
    if m < 2:
        raise ValueError("a_beta_m needs m >= 2")
    lg, _ = line_graph(tree)
    cand = min((m - 1) * algebraic_connectivity(lg), q_min(lg, m))
    direct = algebraic_connectivity(kronecker(lg, complete_graph(m)))
    if abs(cand - direct) > 1e-8:
        raise RuntimeError(
            f"decomposition value {cand!r} disagrees with direct value {direct!r}"
        )
    return cand


def eigvec_lift_check(g: Graph, m: int, tol: float = 1e-8) -> bool:
    """Verify the eigenvector lifts behind the product decomposition.

    An eigenvector v of Lap(g) at value u lifts to v (x) 1_m at (m-1)u; an
    eigenvector v' of Q_{m-1}(g) at value u' lifts to v' (x) w for any w
    with sum 0 (w = e_1 - e_2 here) at u'. True iff every unit-normalized
    lifted vector has residual norm <= tol against the product Laplacian.
    """
    if m < 2:
        raise ValueError("needs m >= 2")
    prod_lap = laplacian(kronecker(g, complete_graph(m)))
    ones = np.ones(m)
    w = np.zeros(m)
    w[0], w[1] = 1.0, -1.0

    lvals, lvecs = eigensystem(laplacian(g))
    qvals, qvecs = eigensystem(q_matrix(g, m))
    for vals, vecs, wgt, expect in (
        (lvals, lvecs, ones, lambda u: (m - 1) * u),
        (qvals, qvecs, w, lambda u: u),
    ):
        for i in range(g.n):
            lifted = np.kron(vecs[:, i], wgt)
            lifted = lifted / np.linalg.norm(lifted)
            resid = prod_lap @ lifted - expect(vals[i]) * lifted
            if float(np.linalg.norm(resid)) > tol:
                return False
    return True
