"""Independent reference implementations the tests compare against.

Everything here deliberately avoids the package's own algorithms: trees
come from Prufer sequences, line graphs from the textbook definition,
blocks from a recursive lowpoint DFS, component counts from a
union-find, bipartiteness from trying every 2-colouring, tree centers
from eccentricities, enumeration representatives from the largest level
sequence over the roots at a center, double stars from their two
internal vertices tested for adjacency, the
`enumerate` command's output from each tree's Graph, its edges read back
from the stacked adjacency matrices and written through json.dumps,
eigenvalues from a cyclic Jacobi iteration
rather than the LAPACK routine the package calls, eigenvalue grouping
from the package's first merge loop, kept here as written, and the integer
roots of a monic cubic by the package's first routine, trial division by
every divisor of the constant term.
"""

from __future__ import annotations

import heapq
import json
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


def centers_oracle(g: Graph) -> list[int]:
    """The vertices of least eccentricity."""
    ecc = eccentricities_oracle(g)
    return [v for v in range(g.n) if ecc[v] == min(ecc)]


def eccentricities_oracle(g: Graph) -> list[int]:
    """Each vertex's eccentricity in a connected graph, by a BFS from every
    vertex."""
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

    return [eccentricity(v) for v in range(g.n)]


def tree_key_oracle(g: Graph) -> str:
    """Center-rooted canonical string of a tree in the package's format,
    found another way: the centers come from centers_oracle, and each
    rooted encoding is built by recursion."""
    nbrs = [np.flatnonzero(g.adj[v]).tolist() for v in range(g.n)]

    def encode(v, parent):
        return "(" + "".join(sorted(encode(w, v) for w in nbrs[v] if w != parent)) + ")"

    return min(encode(c, -1) for c in centers_oracle(g))


def representative_oracle(tree: Graph) -> list[tuple[int, int]]:
    """Edges of the representative the enumeration keeps for this tree,
    found another way: over the roots at a center (centers_oracle), the
    lexicographically largest canonical level sequence (each vertex's
    depth, then its children's sequences in decreasing order, by
    recursion), with vertices numbered in sequence order and each joined
    to the last earlier vertex one level up."""
    nbrs = [np.flatnonzero(tree.adj[v]).tolist() for v in range(tree.n)]

    def levels(v, parent, depth):
        kids = sorted((levels(w, v, depth + 1) for w in nbrs[v] if w != parent), reverse=True)
        return [depth] + [x for kid in kids for x in kid]

    seq = max(levels(r, -1, 0) for r in centers_oracle(tree))
    edges = [(max(j for j in range(i) if seq[j] == seq[i] - 1), i) for i in range(1, tree.n)]
    return sorted(edges)


def enumerate_output_oracle(trees, n: int, fmt: str) -> str:
    """What `enumerate --n n --format fmt` writes for these trees, as the
    command first wrote it: each tree's sorted edge list from the nonzeros
    of the stacked upper triangles of the Graphs' adjacency matrices, then
    json.dumps, csv rows or one json.dumps line per tree."""
    _, u, v = np.nonzero(np.triu(np.stack([t.adj for t in trees]), 1))
    edges = np.stack((u, v), axis=1).reshape(len(trees), n - 1, 2).tolist()
    if fmt == "json":
        return json.dumps({"n": n, "count": len(trees), "trees": edges}) + "\n"
    if fmt == "csv":
        return "index,edges\n" + "".join(
            f"{i}," + " ".join(f"{a}-{b}" for a, b in es) + "\n" for i, es in enumerate(edges)
        )
    return "".join(json.dumps(es) + "\n" for es in edges)


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


def cubic_integer_roots_oracle(a: int, b: int, c: int) -> tuple[int, int, int] | None:
    """Roots of x^3 - a x^2 + b x - c if all three are integers, else None.

    A rational root of a monic integer polynomial is an integer dividing
    the constant term; deflate and demand a perfect-square discriminant
    with matching parity for the remaining quadratic. The divisors are
    found by trial division up to sqrt|c|, so keep |c| small.
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


def double_star_oracle(tree: Graph):
    """(s, t) with s >= t when the tree is T(1,s,t), read off its two
    internal vertices, which must be adjacent; None otherwise."""
    deg = tree.adj.sum(axis=1)
    internal = [v for v in range(tree.n) if deg[v] >= 2]
    if len(internal) != 2 or not tree.adj[internal[0], internal[1]]:
        return None
    s, t = sorted((int(deg[v]) - 1 for v in internal), reverse=True)
    return (s, t)


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


# ---- eigenvalue grouping ----

def group_pairs_oracle(pairs, tol: float) -> tuple[tuple[float, int], ...]:
    """(value, multiplicity) groups as spectree first computed them: drop
    multiplicity 0, sort the (value, multiplicity) tuples, and merge a value
    into the group before it when it is within tol of that group's last
    value. A group is [total, sum of v * m, last value], started from its
    first member."""
    items = sorted((float(v), int(m)) for v, m in pairs if m > 0)
    merged: list[list[float]] = []
    for v, m in items:
        if merged and v - merged[-1][2] <= tol:
            tot, wsum, _ = merged[-1]
            merged[-1] = [tot + m, wsum + v * m, v]
        else:
            merged.append([m, v * m, v])
    return tuple((wsum / tot, int(tot)) for tot, wsum, _ in merged)


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
