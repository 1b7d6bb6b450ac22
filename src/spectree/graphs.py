"""Simple undirected graphs on vertices 0..n-1, with block (biconnected
component) machinery used by the product-connectivity checks.

Graphs are immutable: an adjacency matrix plus optional vertex labels.
All constructors validate; everything downstream assumes a valid Graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Graph",
    "BlockDecomposition",
    "from_edge_list",
    "edge_list",
    "degrees",
    "min_degree",
    "is_connected",
    "is_bipartite",
    "is_tree",
    "is_star",
    "is_complete",
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

    n >= 1; adj is a symmetric boolean (n, n) ndarray with a zero
    diagonal; labels, if given, has one entry per vertex. Construction
    checks this and marks adj read-only.
    """

    n: int
    adj: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"graph needs at least one vertex, got n={self.n}")
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError(
                f"labels must have one entry per vertex: got {len(self.labels)} for n={self.n}"
            )
        adj = self.adj
        if not isinstance(adj, np.ndarray) or adj.dtype != np.bool_:
            raise ValueError("adj must be a numpy array of dtype bool")
        if adj.shape != (self.n, self.n):
            raise ValueError(f"adj has shape {adj.shape}, expected ({self.n}, {self.n})")
        if adj.diagonal().any():
            raise ValueError("adj has a nonzero diagonal (a loop)")
        if (adj != adj.T).any():
            raise ValueError("adj is not symmetric")
        adj.flags.writeable = False

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self.adj)) // 2

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count})"


def from_edge_list(n: int, edges, labels=None) -> Graph:
    """Build a Graph from an iterable of (u, v) pairs.

    Endpoints must be ints or numpy integers, not bools. Duplicate edges
    (either orientation) collapse; loops are rejected.
    """
    adj = np.zeros((max(n, 0), max(n, 0)), dtype=bool)  # Graph rejects n < 1
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
    if labels is not None:
        labels = tuple(str(x) for x in labels)
    return Graph(n=n, adj=adj, labels=labels)


def edge_list(g: Graph) -> list[tuple[int, int]]:
    """Edges as sorted (u, v) pairs with u < v, lexicographic order."""
    iu, iv = np.nonzero(np.triu(g.adj))
    return list(zip(iu.tolist(), iv.tolist()))


def degrees(g: Graph) -> np.ndarray:
    return g.adj.sum(axis=1).astype(np.int64)


def min_degree(g: Graph) -> int:
    return int(degrees(g).min())


def _neighbors(g: Graph):
    return [np.flatnonzero(g.adj[v]).tolist() for v in range(g.n)]


def is_connected(g: Graph) -> bool:
    seen = np.zeros(g.n, dtype=bool)
    seen[0] = True
    frontier = [0]
    while frontier:
        nxt = g.adj[frontier].any(axis=0) & ~seen
        frontier = np.flatnonzero(nxt).tolist()
        seen |= nxt
    return bool(seen.all())


def is_bipartite(g: Graph) -> bool:
    color = np.full(g.n, -1, dtype=np.int8)
    for s in range(g.n):
        if color[s] >= 0:
            continue
        color[s] = 0
        queue = [s]
        while queue:
            v = queue.pop()
            for w in np.flatnonzero(g.adj[v]):
                if color[w] < 0:
                    color[w] = 1 - color[v]
                    queue.append(int(w))
                elif color[w] == color[v]:
                    return False
    return True


def is_tree(g: Graph) -> bool:
    return is_connected(g) and g.edge_count == g.n - 1


def is_star(g: Graph) -> bool:
    """K_{1,k} for some k >= 1 (so P_2 counts)."""
    return g.n >= 2 and is_tree(g) and int(degrees(g).max()) == g.n - 1


def is_complete(g: Graph) -> bool:
    return bool((g.adj | np.eye(g.n, dtype=bool)).all())


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks (maximal 2-connected subgraphs, bridges as K_2) and cut
    vertices."""

    blocks: tuple[tuple[int, ...], ...]
    cut_vertices: tuple[int, ...]


def block_decomposition(g: Graph) -> BlockDecomposition:
    """Hopcroft-Tarjan biconnected components, iteratively. Requires g
    connected."""
    if not is_connected(g):
        raise ValueError("block decomposition requires a connected graph")
    n = g.n
    if n == 1:
        return BlockDecomposition(((0,),), ())

    nbrs = _neighbors(g)
    disc = [-1] * n
    low = [0] * n
    counter = 0
    edge_stack: list[tuple[int, int]] = []
    block_edge_sets: list[list[tuple[int, int]]] = []

    # explicit stack frames: (vertex, parent, iterator index)
    ptr = [0] * n
    parent = [-1] * n
    disc[0] = low[0] = counter
    counter += 1
    stack = [0]
    while stack:
        v = stack[-1]
        if ptr[v] < len(nbrs[v]):
            w = nbrs[v][ptr[v]]
            ptr[v] += 1
            if disc[w] == -1:
                parent[w] = v
                disc[w] = low[w] = counter
                counter += 1
                edge_stack.append((v, w))
                stack.append(w)
            elif w != parent[v] and disc[w] < disc[v]:
                edge_stack.append((v, w))
                low[v] = min(low[v], disc[w])
        else:
            stack.pop()
            if not stack:
                break
            u = stack[-1]
            low[u] = min(low[u], low[v])
            if low[v] >= disc[u]:
                # (u, v) closes a block
                block = []
                while edge_stack:
                    e = edge_stack.pop()
                    block.append(e)
                    if e == (u, v):
                        break
                block_edge_sets.append(block)

    blocks = []
    for es in block_edge_sets:
        verts = sorted({x for e in es for x in e})
        blocks.append(tuple(verts))
    membership: dict[int, int] = {}
    for b in blocks:
        for v in b:
            membership[v] = membership.get(v, 0) + 1
    cut = tuple(sorted(v for v, c in membership.items() if c >= 2))
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
    d = {"n": g.n, "edges": [[u, v] for u, v in edge_list(g)]}
    if g.labels is not None:
        d["labels"] = list(g.labels)
    return d


def graph_from_dict(d: dict) -> Graph:
    """Inverse of graph_to_dict. Raises ValueError naming the problem for
    anything but an object with an int "n", "edges" a list of two-int
    pairs and, optionally, "labels" a list of strings."""
    if not isinstance(d, dict):
        raise ValueError(f"graph must be a JSON object, got {type(d).__name__}")
    for key in ("n", "edges"):
        if key not in d:
            raise ValueError(f"graph has no {key!r}")
    n, edges, labels = d["n"], d["edges"], d.get("labels")
    if not _is_int(n):
        raise ValueError(f"graph 'n' must be an integer, got {n!r}")
    if not isinstance(edges, list):
        raise ValueError(f"graph 'edges' must be a list, got {edges!r}")
    for e in edges:
        if not (isinstance(e, (list, tuple)) and len(e) == 2 and all(map(_is_int, e))):
            raise ValueError(f"each edge must be a pair of integers, got {e!r}")
    if labels is not None and not (
        isinstance(labels, list) and all(isinstance(x, str) for x in labels)
    ):
        raise ValueError(f"graph 'labels' must be a list of strings, got {labels!r}")
    return from_edge_list(n, edges, labels=labels)


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def load_graph(path) -> Graph:
    with open(path) as fh:
        return graph_from_dict(json.load(fh))


def save_graph(g: Graph, path) -> None:
    with open(path, "w") as fh:
        json.dump(graph_to_dict(g), fh)
        fh.write("\n")
