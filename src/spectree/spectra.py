"""Laplacian and generalized signless matrices, Kronecker-product spectra,
and algebraic connectivity.

The central identity: for a graph X on n vertices, the Laplacian spectrum
of X x K_m is the multiset union of (m-1) * Lap(X) (weight 1) and the
spectrum of Q_{m-1}(X) = A(X) + (m-1) D(X) (weight m-1). Both routes are
implemented and cross-checked, never collapsed into one, and every such
comparison (spectra, a(X x K_m), eigenvector lifts) allows ROUTE_TOL.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigen import (
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
    "ROUTE_TOL",
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

ROUTE_TOL = 1e-8  # largest gap allowed between the direct and decomposed routes


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


def product_laplacian_spectrum_direct(g: Graph, m: int) -> Spectrum:
    """Assemble g x K_m explicitly and eigensolve its Laplacian."""
    prod = kronecker(g, complete_graph(m))
    return group_spectrum(eigenvalues(laplacian(prod)))


def product_laplacian_spectrum_decomposed(g: Graph, m: int) -> Spectrum:
    """Union of (m-1)*Lap(g) (weight 1) and Q_{m-1}(g) (weight m-1)."""
    if m < 2:
        raise ValueError("needs m >= 2")
    lap_part = scale(group_spectrum(eigenvalues(laplacian(g))), float(m - 1))
    q_part = group_spectrum(eigenvalues(q_matrix(g, m)))
    return union_with_multiplicity([(lap_part, 1), (q_part, m - 1)])


@dataclass(frozen=True)
class ProductSpectrumResult:
    m: int
    direct: Spectrum
    decomposed: Spectrum


def product_spectrum(g: Graph, m: int) -> ProductSpectrumResult:
    """Both spectrum routes for Lap(g x K_m); raises if they disagree
    beyond ROUTE_TOL."""
    res = ProductSpectrumResult(
        m=m,
        direct=product_laplacian_spectrum_direct(g, m),
        decomposed=product_laplacian_spectrum_decomposed(g, m),
    )
    if not spectra_equal(res.direct, res.decomposed, ROUTE_TOL):
        raise RuntimeError(f"product spectrum routes disagree beyond {ROUTE_TOL}")
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
    of the explicitly assembled product Laplacian (ROUTE_TOL).
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
    if abs(cand - direct) > ROUTE_TOL:
        raise RuntimeError(
            f"decomposition value {cand!r} disagrees with direct value {direct!r}"
        )
    return cand


def eigvec_lift_check(g: Graph, m: int) -> bool:
    """Verify the eigenvector lifts behind the product decomposition.

    An eigenvector v of Lap(g) at value u lifts to v (x) 1_m at (m-1)u; an
    eigenvector v' of Q_{m-1}(g) at value u' lifts to v' (x) w for any w
    with sum 0 (w = e_1 - e_2 here) at u'. True iff every unit-normalized
    lifted vector has residual norm <= ROUTE_TOL against the product
    Laplacian.
    """
    if m < 2:
        raise ValueError("needs m >= 2")
    prod_lap = laplacian(kronecker(g, complete_graph(m)))
    w = np.r_[1.0, -1.0, np.zeros(m - 2)]
    lvals, lvecs = eigensystem(laplacian(g))
    qvals, qvecs = eigensystem(q_matrix(g, m))
    # orthonormal columns: column k of kron(vecs, u) has norm |u|
    lifted = np.hstack([np.kron(lvecs, np.ones((m, 1))) / np.sqrt(m), np.kron(qvecs, w[:, None]) / np.sqrt(2.0)])
    expect = np.concatenate([(m - 1) * lvals, qvals])
    resid = prod_lap @ lifted - lifted * expect
    return float(np.linalg.norm(resid, axis=0).max()) <= ROUTE_TOL
