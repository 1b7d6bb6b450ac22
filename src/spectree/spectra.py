"""Laplacian and generalized signless matrices, Kronecker-product spectra,
and algebraic connectivity.

The central identity: for a graph X on n vertices, the Laplacian spectrum
of X x K_m is the multiset union of (m-1) * Lap(X) (weight 1) and the
spectrum of Q_{m-1}(X) = A(X) + (m-1) D(X) (weight m-1). Both routes are
implemented and cross-checked, never collapsed into one, and every such
comparison (spectra, a(X x K_m), eigenvector lifts) allows ROUTE_TOL. The
verify checks compare at ROUTE_TOL too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigen import Spectrum, eigensystem, eigenvalues, group_spectrum, spectra_equal
from .families import _kron, line_graph
from .graphs import Graph, _check_ints, is_bipartite, is_connected, is_tree

__all__ = [
    "ROUTE_TOL",
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


def laplacian(g: Graph) -> np.ndarray:
    """D(g) - A(g)."""
    return _laplacian(g.adj)


def q_matrix(g: Graph, m: int) -> np.ndarray:
    """Q_{m-1}(g) = A(g) + (m-1) D(g); m=2 gives the signless Laplacian."""
    _check_ints(2, m=m)
    return _q_matrix(g.adj, m)


# The assembly kernels take a stack (..., k, k) of boolean adjacency
# matrices and build each slice's matrix. Off-diagonal zeros are +0.0:
# a -0.0 entry changes the last bits LAPACK returns.

def _laplacian(adj: np.ndarray) -> np.ndarray:
    lap = np.where(adj, -1.0, 0.0)
    diag = np.arange(adj.shape[-1])
    lap[..., diag, diag] = adj.sum(axis=-1, dtype=np.float64)
    return lap


def _q_matrix(adj: np.ndarray, m: int) -> np.ndarray:
    q = adj.astype(np.float64)
    diag = np.arange(adj.shape[-1])
    q[..., diag, diag] = (m - 1) * adj.sum(axis=-1, dtype=np.float64)
    return q


def _product_laplacian(adj: np.ndarray, m: int) -> np.ndarray:
    """Laplacian of each X x K_m, X a slice of the stack adj."""
    return _laplacian(_kron(adj, ~np.eye(m, dtype=bool)))


def product_laplacian_spectrum_direct(g: Graph, m: int) -> Spectrum:
    """Assemble g x K_m explicitly and eigensolve its Laplacian."""
    _check_ints(2, m=m)
    return group_spectrum(eigenvalues(_product_laplacian(g.adj, m)))


def product_laplacian_spectrum_decomposed(g: Graph, m: int) -> Spectrum:
    """Union of (m-1)*Lap(g) (weight 1) and Q_{m-1}(g) (weight m-1),
    grouped once."""
    _check_ints(2, m=m)
    lap_part = (m - 1) * eigenvalues(laplacian(g))
    q_part = np.repeat(eigenvalues(q_matrix(g, m)), m - 1)
    return group_spectrum(np.sort(np.concatenate([lap_part, q_part])))


@dataclass(frozen=True)
class ProductSpectrumResult:
    direct: Spectrum
    decomposed: Spectrum


def product_spectrum(g: Graph, m: int) -> ProductSpectrumResult:
    """Both spectrum routes for Lap(g x K_m); raises if they disagree
    beyond ROUTE_TOL."""
    res = ProductSpectrumResult(
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
    return float(_aconn(g.adj))


def _aconn(adj: np.ndarray) -> np.ndarray:
    """Algebraic connectivity of each graph in the adjacency stack adj."""
    return eigenvalues(_laplacian(adj))[..., 1]


def q_min(g: Graph, m: int) -> float:
    """Smallest eigenvalue of Q_{m-1}(g); zero iff g has a bipartite
    component (for m=2), nonnegative always."""
    return float(eigenvalues(q_matrix(g, m))[0])


def product_connected(g: Graph, m: int) -> bool:
    """g x K_m is connected iff g has an edge, g is connected and at least
    one factor is non-bipartite (Weichsel); K_m is non-bipartite exactly
    when m >= 3. A one-vertex g makes m isolated vertices."""
    _check_ints(2, m=m)
    return g.n >= 2 and is_connected(g) and (m >= 3 or not is_bipartite(g))


def a_beta_m(tree: Graph, m: int) -> float:
    """Algebraic connectivity of L(tree) x K_m.

    Computed as min{(m-1) a(L), lambda_min(Q_{m-1}(L))} from the product
    decomposition, then cross-checked against the second-smallest eigenvalue
    of the explicitly assembled product Laplacian (ROUTE_TOL).
    """
    _check_ints(2, m=m)
    if not is_tree(tree):
        raise ValueError("a_beta_m needs a tree")
    if tree.edge_count < 2:
        raise ValueError("a_beta_m needs a tree with >= 2 edges")
    (a,) = _a_beta(line_graph(tree)[0].adj[None], (m,))
    return float(a[0])


def _a_beta(adj: np.ndarray, ms) -> list[np.ndarray]:
    """a_beta_m at each m in ms (each >= 2) for each tree whose line graph
    L is a slice of the adjacency stack adj (count, k, k): one array per m,
    with a(L) solved once for all of them.

    Per m, one stacked solve of Q_{m-1}(L) and one of the assembled
    L x K_m; each tree's decomposed value must match its direct one within
    ROUTE_TOL, or the error names the first tree, by its index in the
    stack, that does not."""
    a_l = _aconn(adj)
    out = []
    for m in ms:
        cand = np.minimum((m - 1) * a_l, eigenvalues(_q_matrix(adj, m))[:, 0])
        direct = eigenvalues(_product_laplacian(adj, m))[:, 1]
        bad = np.flatnonzero(np.abs(cand - direct) > ROUTE_TOL)
        if bad.size:
            i = int(bad[0])
            raise RuntimeError(
                f"tree {i} of the stack: decomposition value {float(cand[i])!r} "
                f"disagrees with direct value {float(direct[i])!r}"
            )
        out.append(cand)
    return out


def eigvec_lift_check(g: Graph, m: int) -> bool:
    """Verify the eigenvector lifts behind the product decomposition.

    An eigenvector v of Lap(g) at value u lifts to v (x) 1_m at (m-1)u; an
    eigenvector v' of Q_{m-1}(g) at value u' lifts to v' (x) w for any w
    with sum 0 (w = e_1 - e_2 here) at u'. True iff every unit-normalized
    lifted vector has residual norm <= ROUTE_TOL against the product
    Laplacian.
    """
    _check_ints(2, m=m)
    n = g.n
    prod_lap = _product_laplacian(g.adj, m)
    lvals, lvecs = eigensystem(laplacian(g))
    qvals, qvecs = eigensystem(q_matrix(g, m))
    # row u * m + x of a lifted column is vertex (u, x) of g x K_m; the
    # columns are v (x) 1_m / sqrt(m), then v' (x) (e_1 - e_2) / sqrt(2)
    lifted = np.zeros((n * m, 2 * n))
    lifted[:, :n] = np.repeat(lvecs, m, axis=0) / np.sqrt(m)
    q = qvecs / np.sqrt(2.0)
    lifted[0::m, n:] = q
    lifted[1::m, n:] = -q
    expect = np.concatenate([(m - 1) * lvals, qvals])
    resid = prod_lap @ lifted - lifted * expect
    return float(np.linalg.norm(resid, axis=0).max()) <= ROUTE_TOL
