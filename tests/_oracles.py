"""Independent reference implementations the tests compare against.

Everything here deliberately avoids the package's own algorithms: trees
come from Prufer sequences, line graphs from the textbook definition,
blocks from a recursive lowpoint DFS, component counts from a
union-find, bipartiteness from trying every 2-colouring, tree centers
from eccentricities, enumeration representatives from the largest level
sequence over all roots, and eigenvalues from a cyclic Jacobi iteration
rather than the LAPACK routine the package calls.
"""

from __future__ import annotations

import heapq
import math
import sys

import numpy as np

from spectree.graphs import Graph, from_edge_list


def prufer_to_tree(n: int, seq) -> Graph:
    if n < 2:
        raise ValueError("need n >= 2")
    seq = [int(x) for x in seq]
    assert len(seq) == n - 2
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    leaves = [i for i in range(n) if deg[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return from_edge_list(n, edges)


def random_prufer_tree(rng: np.random.Generator, n: int) -> Graph:
    if n == 2:
        return prufer_to_tree(2, [])
    return prufer_to_tree(n, rng.integers(0, n, size=n - 2))


def tree_key_oracle(g: Graph) -> str:
    """Center-rooted canonical string of a tree in the package's format,
    found another way: the centers are the vertices of least eccentricity
    (a BFS from every vertex), and each rooted encoding is built by
    recursion."""
    nbrs = [np.flatnonzero(g.adj[v]).tolist() for v in range(g.n)]

    def eccentricity(s):
        dist = {s: 0}
        queue = [s]
        for v in queue:
            for w in nbrs[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        return max(dist.values())

    def encode(v, parent):
        return "(" + "".join(sorted(encode(w, v) for w in nbrs[v] if w != parent)) + ")"

    ecc = [eccentricity(v) for v in range(g.n)]
    return min(encode(c, -1) for c in range(g.n) if ecc[c] == min(ecc))


def representative_oracle(tree: Graph) -> list[tuple[int, int]]:
    """Edges of the representative the enumeration keeps for this tree,
    found another way: over all roots, the lexicographically largest
    canonical level sequence (each vertex's depth, then its children's
    sequences in decreasing order, by recursion), with vertices numbered
    in sequence order and each joined to the last earlier vertex one level
    up."""
    nbrs = [np.flatnonzero(tree.adj[v]).tolist() for v in range(tree.n)]

    def levels(v, parent, depth):
        kids = sorted((levels(w, v, depth + 1) for w in nbrs[v] if w != parent), reverse=True)
        return [depth] + [x for kid in kids for x in kid]

    seq = max(levels(r, -1, 0) for r in range(tree.n))
    edges = [(max(j for j in range(i) if seq[j] == seq[i] - 1), i) for i in range(1, tree.n)]
    return sorted(edges)


def line_graph_oracle(g: Graph) -> Graph:
    """Line graph straight from the definition, with the same vertex order
    convention (sorted endpoint pairs) as the package."""
    edges = sorted(
        (min(u, v), max(u, v))
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if g.adj[u, v]
    )
    le = []
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            if set(edges[i]) & set(edges[j]):
                le.append((i, j))
    return from_edge_list(max(len(edges), 1), le) if edges else from_edge_list(1, [])


class _UnionFind:
    def __init__(self, n):
        self.p = list(range(n))

    def find(self, x):
        while self.p[x] != x:
            self.p[x] = self.p[self.p[x]]
            x = self.p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.p[ra] = rb


def component_count(adj: np.ndarray) -> int:
    n = adj.shape[0]
    uf = _UnionFind(n)
    for u in range(n):
        for v in range(u + 1, n):
            if adj[u, v]:
                uf.union(u, v)
    return len({uf.find(x) for x in range(n)})


def brute_cut_vertices(g: Graph) -> set[int]:
    base = component_count(g.adj)
    cuts = set()
    for v in range(g.n):
        keep = [u for u in range(g.n) if u != v]
        if not keep:
            continue
        if component_count(g.adj[np.ix_(keep, keep)]) > base:
            cuts.add(v)
    return cuts


def is_bipartite_oracle(g: Graph) -> bool:
    """Whether some 2-colouring leaves no edge inside one colour, trying
    all 2^(n-1) colourings with vertex n-1 fixed (exponential: small n)."""
    edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.adj[u, v]]
    return any(all((mask >> u ^ mask >> v) & 1 for u, v in edges) for mask in range(2 ** (g.n - 1)))


def recursive_blocks(g: Graph) -> set[frozenset]:
    """Blocks of a connected graph via the classic recursive formulation."""
    sys.setrecursionlimit(10000)
    n = g.n
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    counter = [0]
    stack: list[tuple[int, int]] = []
    blocks: list[frozenset] = []

    def dfs(u: int) -> None:
        disc[u] = low[u] = counter[0]
        counter[0] += 1
        for v in np.flatnonzero(g.adj[u]):
            v = int(v)
            if disc[v] == -1:
                parent[v] = u
                stack.append((u, v))
                dfs(v)
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:
                    comp = set()
                    while True:
                        e = stack.pop()
                        comp.update(e)
                        if e == (u, v):
                            break
                    blocks.append(frozenset(comp))
            elif v != parent[u] and disc[v] < disc[u]:
                stack.append((u, v))
                low[u] = min(low[u], disc[v])

    dfs(0)
    return set(blocks)


def kron_adjacency_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product adjacency from the definition: (u,i)~(v,j) iff u~v
    and i~j, vertex (u,i) at index u*len(b)+i."""
    na, nb = a.shape[0], b.shape[0]
    out = np.zeros((na * nb, na * nb), dtype=bool)
    for u in range(na):
        for v in range(na):
            for i in range(nb):
                for j in range(nb):
                    if a[u, v] and b[i, j]:
                        out[u * nb + i, v * nb + j] = True
    return out


def cartesian_adjacency_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    na, nb = a.shape[0], b.shape[0]
    out = np.zeros((na * nb, na * nb), dtype=bool)
    for u in range(na):
        for v in range(na):
            for i in range(nb):
                for j in range(nb):
                    if (u == v and b[i, j]) or (i == j and a[u, v]):
                        out[u * nb + i, v * nb + j] = True
    return out


# ---- cyclic Jacobi eigensolver ----
# Fixed (p, q) sweep order, sweeps until the off-diagonal Frobenius norm
# drops below 1e-12 * (1 + ||M||_F), hard cap of 100 sweeps. Slow, but it
# shares no code with LAPACK and has high relative accuracy.

_SWEEP_TOL = 1e-12
_MAX_SWEEPS = 100


def _offdiag_norm(a: np.ndarray) -> float:
    # summing the off-diagonal entries directly avoids the cancellation a
    # full-norm-minus-diagonal formula would hit once the matrix is nearly
    # diagonal
    b = a.copy()
    np.fill_diagonal(b, 0.0)
    return math.sqrt(float((b * b).sum()))


def jacobi(mat, want_vectors: bool = False):
    """(ascending eigenvalues, eigenvector columns or None) of a symmetric
    matrix by cyclic Jacobi rotations."""
    a = np.array(mat, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("need a square matrix")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix is not symmetric")
    n = a.shape[0]
    v = np.eye(n) if want_vectors else None
    thresh = _SWEEP_TOL * (1.0 + math.sqrt(float((a * a).sum())))
    for _sweep in range(_MAX_SWEEPS):
        if _offdiag_norm(a) <= thresh:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = a[q, p] = 0.0
                if v is not None:
                    vp = v[:, p].copy()
                    vq = v[:, q].copy()
                    v[:, p] = c * vp - s * vq
                    v[:, q] = s * vp + c * vq
    else:
        if _offdiag_norm(a) > thresh:
            raise RuntimeError(f"Jacobi did not converge in {_MAX_SWEEPS} sweeps")
    diag = np.diag(a).copy()
    order = np.argsort(diag, kind="stable")
    if v is None:
        return diag[order], None
    return diag[order], v[:, order]
