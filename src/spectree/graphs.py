"""Simple undirected graphs on vertices 0..n-1, with block (biconnected
component) machinery used by the product-connectivity checks.

A Graph is its adjacency matrix, immutable; the vertex count is read from
its shape. All constructors validate; everything downstream assumes a
valid Graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Graph",
    "BlockDecomposition",
    "from_edge_list",
    "edge_list",
    "degrees",
    "is_connected",
    "is_bipartite",
    "is_tree",
    "is_star",
    "block_decomposition",
    "is_restricted",
    "blocks_all_complete",
    "block_structure_is_star",
    "graph_to_dict",
    "graph_from_dict",
    "load_graph",
    "save_graph",
]


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple undirected graph.

    adj is a symmetric boolean (n, n) ndarray with n >= 1 and a zero
    diagonal. Construction checks this and keeps a read-only copy that
    cannot be made writable again; the caller's array stays writable,
    and later writes to it do not reach the Graph. Traversals read the
    neighbour view, neighbors, built from adj on first use.
    """

    adj: np.ndarray

    def __post_init__(self):
        adj = self.adj
        if not isinstance(adj, np.ndarray) or adj.dtype != np.bool_:
            raise ValueError("adj must be a numpy array of dtype bool")
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adj has shape {adj.shape}, expected a square matrix")
        if adj.shape[0] < 1:
            raise ValueError("graph needs at least one vertex, got n=0")
        if adj.diagonal().any():
            raise ValueError("adj has a nonzero diagonal (a loop)")
        if (adj != adj.T).any():
            raise ValueError("adj is not symmetric")
        # an array over immutable bytes: neither it nor its base can be
        # made writable again
        object.__setattr__(self, "adj", np.frombuffer(adj.tobytes(), dtype=bool).reshape(adj.shape))

    @property
    def n(self) -> int:
        return self.adj.shape[0]

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's neighbours in increasing order, as tuples."""
        # row-major nonzeros, split at each row's cumulative degree
        cols = np.nonzero(self.adj)[1].tolist()
        ends = np.cumsum(np.count_nonzero(self.adj, axis=1)).tolist()
        return tuple(tuple(cols[a:b]) for a, b in zip([0] + ends, ends))

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self.adj)) // 2

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count})"


def from_edge_list(n: int, edges) -> Graph:
    """Build a Graph on n vertices from an iterable of (u, v) pairs.

    n and the endpoints must be ints or numpy integers, not bools.
    Duplicate edges (either orientation) collapse; loops are rejected.
    """
    _check_ints(1, n=n)
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        # plain ints pass on the cheap type test, others need _is_int
        if not (type(u) is int or _is_int(u)) or not (type(v) is int or _is_int(v)):
            bad = v if _is_int(u) else u
            raise ValueError(f"edge endpoints must be integers, got {bad!r}")
        u, v = int(u), int(v)
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        adj[u, v] = adj[v, u] = True
    return Graph(adj)


def edge_list(g: Graph) -> list[tuple[int, int]]:
    """Edges as sorted (u, v) pairs with u < v, lexicographic order."""
    u, v = _edge_arrays(g)
    return list(zip(u.tolist(), v.tolist()))


def _edge_arrays(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The endpoints u and v of edge_list(g), as two int arrays."""
    iu, iv = np.nonzero(g.adj)
    upper = iu < iv
    return iu[upper], iv[upper]


def degrees(g: Graph) -> np.ndarray:
    return g.adj.sum(axis=1).astype(np.int64)


def _bfs(g: Graph, s: int) -> tuple[list[int], list[int]]:
    # the vertices reachable from s in visiting order (farthest last) and
    # each one's parent, s its own; unreached vertices keep -1
    nbrs = g.neighbors
    order, up = [s], [-1] * g.n
    up[s] = s
    for v in order:
        for w in nbrs[v]:
            if up[w] < 0:
                up[w] = v
                order.append(w)
    return order, up


def _diametral_path(tree: Graph) -> list[int]:
    # a longest path of a tree, end to end: a vertex r farthest from vertex
    # 0 is peripheral, and the path runs from a vertex farthest from r to r
    order, up = _bfs(tree, _bfs(tree, 0)[0][-1])
    path = [order[-1]]
    while up[path[-1]] != path[-1]:
        path.append(up[path[-1]])
    return path


def is_connected(g: Graph) -> bool:
    return len(_bfs(g, 0)[0]) == g.n


def is_bipartite(g: Graph) -> bool:
    """2-colour each component's BFS tree by depth parity, then check
    that no edge joins two vertices of one colour."""
    color = [-1] * g.n
    for s in range(g.n):
        if color[s] < 0:
            order, up = _bfs(g, s)
            color[s] = 0
            for v in order[1:]:
                color[v] = 1 - color[up[v]]
    return all(color[v] != color[w] for v, nb in enumerate(g.neighbors) for w in nb)


def is_tree(g: Graph) -> bool:
    return is_connected(g) and g.edge_count == g.n - 1


def is_star(g: Graph) -> bool:
    """K_{1,k} for some k >= 1 (so P_2 counts)."""
    return g.n >= 2 and is_tree(g) and int(degrees(g).max()) == g.n - 1


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks (maximal 2-connected subgraphs, bridges as K_2) and cut
    vertices."""

    blocks: tuple[tuple[int, ...], ...]
    cut_vertices: tuple[int, ...]


def block_decomposition(g: Graph) -> BlockDecomposition:
    """Hopcroft-Tarjan biconnected components by one iterative DFS over a
    stack of found vertices. Requires g connected."""
    if not is_connected(g):
        raise ValueError("block decomposition requires a connected graph")
    n = g.n
    if n == 1:
        return BlockDecomposition(((0,),), ())

    nbrs = g.neighbors
    disc = [-1] * n
    low = [0] * n
    disc[0] = 0
    counter = 1
    found: list[int] = []  # discovered vertices not yet in a block, root excluded
    path = [(0, iter(nbrs[0]))]  # the DFS path, each vertex with its unread neighbours
    blocks = []
    while path:
        v, rest = path[-1]
        for w in rest:
            if disc[w] < 0:
                disc[w] = low[w] = counter
                counter += 1
                found.append(w)
                path.append((w, iter(nbrs[w])))
                break
            # the edge back to v's parent lowers low[v] only to the
            # parent's disc, so the block test below is unchanged
            low[v] = min(low[v], disc[w])
        else:
            path.pop()
            if path:
                u = path[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:
                    # v's subtree, less the blocks already cut from it, and u
                    block = [u]
                    while block[-1] != v:
                        block.append(found.pop())
                    blocks.append(tuple(sorted(block)))

    membership = [0] * n
    for b in blocks:
        for v in b:
            membership[v] += 1
    cut = tuple(v for v, c in enumerate(membership) if c >= 2)
    return BlockDecomposition(tuple(blocks), cut)


def is_restricted(g: Graph) -> bool:
    """True iff every block contains at most two cut vertices."""
    dec = block_decomposition(g)
    cut = set(dec.cut_vertices)
    return all(sum(v in cut for v in b) <= 2 for b in dec.blocks)


def blocks_all_complete(g: Graph) -> bool:
    return all(
        (g.adj[np.ix_(b, b)] | np.eye(len(b), dtype=bool)).all()
        for b in block_decomposition(g).blocks
    )


def block_structure_is_star(g: Graph) -> bool:
    """True iff one vertex lies in every block, i.e. at most one cut vertex:
    with two, the block tree holds a path of three edges."""
    return len(block_decomposition(g).cut_vertices) <= 1


# ---- JSON ----

def graph_to_dict(g: Graph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in edge_list(g)]}


def graph_from_dict(d: dict) -> Graph:
    """Inverse of graph_to_dict. Raises ValueError naming the problem for
    anything but an object with an int "n" and "edges" a list of two-int
    pairs; other keys are ignored."""
    if not isinstance(d, dict):
        raise ValueError(f"graph must be a JSON object, got {type(d).__name__}")
    for key in ("n", "edges"):
        if key not in d:
            raise ValueError(f"graph has no {key!r}")
    n, edges = d["n"], d["edges"]
    if not _is_int(n):
        raise ValueError(f"graph 'n' must be an integer, got {n!r}")
    if not isinstance(edges, list):
        raise ValueError(f"graph 'edges' must be a list, got {edges!r}")
    for e in edges:
        if not (isinstance(e, (list, tuple)) and len(e) == 2 and all(map(_is_int, e))):
            raise ValueError(f"each edge must be a pair of integers, got {e!r}")
    return from_edge_list(n, edges)


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_ints(lo: int | None, **values) -> tuple[int, ...]:
    """Each value is a size or order: an integer, not a bool, and >= lo;
    lo None admits any integer. The error names the argument. Returns the
    values as Python ints, which cannot overflow, in argument order."""
    for name, v in values.items():
        if not _is_int(v):
            raise ValueError(f"{name} must be an integer, got {v!r}")
        if lo is not None and v < lo:
            raise ValueError(f"{name} must be >= {lo}, got {v}")
    return tuple(map(int, values.values()))


def load_graph(path) -> Graph:
    with open(path) as fh:
        return graph_from_dict(json.load(fh))


def save_graph(g: Graph, path) -> None:
    with open(path, "w") as fh:
        json.dump(graph_to_dict(g), fh)
        fh.write("\n")
