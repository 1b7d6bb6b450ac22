"""Constructors for the tree and clique-arrangement families under study,
graph products, line graphs, and exhaustive free-tree enumeration.

Family descriptors use a compact text form, e.g. "path:4", "tkst:1,2,3",
"diam4:3;2,2,1", "windmill:2,3", "wprime:3,3", "book:3".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, _bfs, edge_list, from_edge_list, is_tree

__all__ = [
    "FamilyDescriptor",
    "parse_family",
    "format_family",
    "build",
    "path_graph",
    "star_graph",
    "complete_graph",
    "tkst_tree",
    "diam4_tree",
    "windmill_graph",
    "wprime_graph",
    "book_graph",
    "line_graph",
    "kronecker",
    "cartesian",
    "beta_m",
    "enumerate_free_trees",
    "tree_canonical_form",
]

@dataclass(frozen=True)
class FamilyDescriptor:
    kind: str
    params: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in _FAMILIES:
            raise ValueError(f"unknown family kind {self.kind!r}")
        arity = _FAMILIES[self.kind][1]
        if arity is None:
            if len(self.params) < 2 or len(self.params) != self.params[0] + 1:
                raise ValueError("diam4 takes params (k, x1, .., xk)")
        elif len(self.params) != arity:
            raise ValueError(f"{self.kind} takes {arity} parameter(s)")


def parse_family(text: str) -> FamilyDescriptor:
    kind, sep, rest = text.strip().partition(":")
    kind = kind.strip().lower()
    if not sep or not rest:
        raise ValueError(f"bad family descriptor {text!r}")
    if kind == "diam4":
        head, sep2, tail = rest.partition(";")
        if not sep2:
            raise ValueError("diam4 needs 'k;x1,..,xk'")
        params = (int(head), *(int(x) for x in tail.split(",")))
    else:
        params = tuple(int(x) for x in rest.split(","))
    return FamilyDescriptor(kind, params)


def format_family(desc: FamilyDescriptor) -> str:
    if desc.kind == "diam4":
        k, xs = desc.params[0], desc.params[1:]
        return f"diam4:{k};{','.join(str(x) for x in xs)}"
    return f"{desc.kind}:{','.join(str(p) for p in desc.params)}"


def build(desc: FamilyDescriptor) -> Graph:
    ctor, _ = _FAMILIES[desc.kind]
    return ctor(*desc.params)


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n: int) -> Graph:
    """Star on n vertices, K_{1,n-1}, center 0."""
    if n < 2:
        raise ValueError("star needs n >= 2")
    return from_edge_list(n, [(0, i) for i in range(1, n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete needs n >= 1")
    return Graph(n=n, adj=~np.eye(n, dtype=bool))


def tkst_tree(k: int, s: int, t: int) -> Graph:
    """Path on k+1 vertices 0..k with s pendants at 0 and t pendants at k."""
    if k < 1 or s < 0 or t < 0:
        raise ValueError("tkst needs k >= 1, s >= 0, t >= 0")
    edges = [(i, i + 1) for i in range(k)]
    edges += [(0, k + 1 + i) for i in range(s)]
    edges += [(k, k + 1 + s + i) for i in range(t)]
    return from_edge_list(k + 1 + s + t, edges)


def diam4_tree(k: int, xs) -> Graph:
    """Root 0 joined to branch vertices 1..k; branch i carries xs[i-1]
    pendants. Needs the two largest branch loads positive (diameter 4)."""
    xs = tuple(int(x) for x in xs)
    if k < 2 or len(xs) != k:
        raise ValueError("diam4 needs k >= 2 and one x per branch")
    if any(x < 0 for x in xs):
        raise ValueError("branch loads must be >= 0")
    if sorted(xs, reverse=True)[1] < 1:
        raise ValueError("diam4 needs at least two branches with pendants")
    edges = [(0, i) for i in range(1, k + 1)]
    nxt = k + 1
    for i, x in enumerate(xs, start=1):
        for _ in range(x):
            edges.append((i, nxt))
            nxt += 1
    return from_edge_list(nxt, edges)


def windmill_graph(eta: int, mu: int) -> Graph:
    """eta copies of K_mu all sharing the hub vertex 0."""
    if eta < 2 or mu < 3:
        raise ValueError("windmill needs eta >= 2, mu >= 3")
    edges = []
    for j in range(eta):
        blade = [0] + [1 + j * (mu - 1) + i for i in range(mu - 1)]
        edges += [(u, v) for a, u in enumerate(blade) for v in blade[a + 1:]]
    return from_edge_list(1 + eta * (mu - 1), edges)


def wprime_graph(eta: int, mu: int) -> Graph:
    """K_eta on 0..eta-1 with a K_mu blade glued at each core vertex."""
    if eta < 2 or mu < 2:
        raise ValueError("wprime needs eta >= 2, mu >= 2")
    edges = [(u, v) for u in range(eta) for v in range(u + 1, eta)]
    nxt = eta
    for c in range(eta):
        blade = [c] + [nxt + i for i in range(mu - 1)]
        nxt += mu - 1
        edges += [(u, v) for a, u in enumerate(blade) for v in blade[a + 1:]]
    return from_edge_list(eta * mu, edges)


def book_graph(k: int) -> Graph:
    """K_{1,k} box K_2: k triangular pages sharing a spine edge, each page
    closed into a quadrilateral. 2k+2 vertices, 3k+1 edges."""
    if k < 1:
        raise ValueError("book needs k >= 1")
    return cartesian(star_graph(k + 1), complete_graph(2))


# family kind -> (constructor, parameter count); None marks diam4's
# variable count, k followed by k branch loads
_FAMILIES = {
    "path": (path_graph, 1),
    "star": (star_graph, 1),
    "complete": (complete_graph, 1),
    "tkst": (tkst_tree, 3),
    "diam4": (lambda k, *xs: diam4_tree(k, xs), None),
    "windmill": (windmill_graph, 2),
    "wprime": (wprime_graph, 2),
    "book": (book_graph, 1),
}


# ---- products and line graph ----

def line_graph(g: Graph) -> tuple[Graph, tuple[tuple[int, int], ...]]:
    """Line graph with vertices ordered by the sorted edge list of g.

    Returns (L(g), edge_map) where edge_map[i] is the edge of g that became
    vertex i.
    """
    emap = tuple(edge_list(g))
    m = len(emap)
    if m == 0:
        raise ValueError("line graph needs at least one edge")
    inc = np.zeros((g.n, m), dtype=np.int64)
    for i, (u, v) in enumerate(emap):
        inc[u, i] = inc[v, i] = 1
    shared = inc.T @ inc  # off-diagonal entry = number of shared endpoints
    labels = tuple(f"{u}-{v}" for u, v in emap)
    return Graph(n=m, adj=(shared == 1), labels=labels), emap


def kronecker(g: Graph, h: Graph) -> Graph:
    """Tensor (categorical) product; vertex (u, x) is u * h.n + x."""
    return Graph(n=g.n * h.n, adj=np.kron(g.adj, h.adj))


def cartesian(g: Graph, h: Graph) -> Graph:
    """Cartesian product; vertex (u, x) is u * h.n + x."""
    eg = np.eye(g.n, dtype=bool)
    eh = np.eye(h.n, dtype=bool)
    adj = np.kron(g.adj, eh) | np.kron(eg, h.adj)
    return Graph(n=g.n * h.n, adj=adj)


def beta_m(tree: Graph, m: int) -> Graph:
    """Kronecker product of the tree's line graph with K_m."""
    if not is_tree(tree):
        raise ValueError("beta_m needs a tree")
    if m < 2:
        raise ValueError("beta_m needs m >= 2")
    lg, _ = line_graph(tree)
    return kronecker(lg, complete_graph(m))


# ---- free tree enumeration ----

def enumerate_free_trees(n: int) -> list[Graph]:
    """All unlabeled trees on n vertices, one representative each.

    Rooted trees are generated by the level-sequence successor rule and
    reduced to free trees by their center-rooted canonical encoding; a
    Graph is built only for the first tree of each new encoding.
    Deterministic: output is sorted by that encoding.

    Only sequences that can come first for their free tree are generated
    and keyed, which keeps every representative and the order unchanged:
    - the generator emits canonical sequences in decreasing lexicographic
      order;
    - a canonical sequence lists the deepest child first, so it starts
      0, 1, .., h with h the root's height;
    - so a free tree's first sequence has the largest h, its root is a
      vertex of greatest eccentricity (h = diameter), and for n >= 2 such
      a peripheral vertex is a leaf.
    The leaf-rooted sequences whose root's height is the diameter thus
    hold each free tree's first sequence, in the same relative order.
    Their leading 0, 1, .., h is a diametral path, so the centers are its
    middle vertices and the key re-roots along that path alone
    (_spine_key).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    reps: dict[str, Graph] = {}
    for seq in _leaf_rooted_level_sequences(n):
        parent = _parents(seq)
        key = _spine_key(parent, max(seq))
        if key is not None and key not in reps:
            reps[key] = from_edge_list(n, [(parent[v], v) for v in range(1, n)])
    return [reps[k] for k in sorted(reps)]


def _rooted_level_sequences(n: int):
    """Canonical level sequences of all rooted trees on n vertices, in
    decreasing lexicographic order (path first, star last)."""
    seq = list(range(n))
    while True:
        yield seq
        p = n - 1
        while p > 0 and seq[p] < 2:
            p -= 1
        if p == 0:
            return
        q = p - 1
        while seq[q] != seq[p] - 1:
            q -= 1
        seq = seq[:p]
        while len(seq) < n:
            seq.append(seq[-(p - q)])


def _leaf_rooted_level_sequences(n: int):
    """The rooted sequences on n vertices whose root has one child, in the
    order _rooted_level_sequences(n) emits them: the root above each
    rooted tree on n - 1 vertices."""
    if n == 1:
        yield [0]
        return
    for seq in _rooted_level_sequences(n - 1):
        yield [0] + [x + 1 for x in seq]


def _parents(seq) -> list[int]:
    # a vertex's parent is the last earlier vertex one level up
    parent = [-1] * len(seq)
    last = [0] * len(seq)  # last vertex seen at each level
    for v in range(1, len(seq)):
        parent[v] = last[seq[v] - 1]
        last[seq[v]] = v
    return parent


def _spine_key(parent, h: int) -> str | None:
    """Canonical encoding of a tree given by the parent array of its
    vertices in preorder, where 0, 1, .., h is a path from the root to a
    deepest vertex; None when the root's height h is not the diameter."""
    n = len(parent)
    deep = [0] * n  # deepest branch below each vertex
    for v in range(n - 1, 0, -1):
        d, u = deep[v] + 1, parent[v]
        if deep[u] + d > h:
            return None
        if d > deep[u]:
            deep[u] = d
    # 0..h is a diametral path, so its middle vertices are the centers
    c = h // 2
    kids: list[list[str]] = [[] for _ in range(n)]
    for v in range(n - 1, c, -1):
        kids[parent[v]].append("(" + "".join(sorted(kids[v])) + ")")
    # path vertices k < c hold only their off-path children; re-root
    # along the path, carrying the encoding of the part above k + 1
    up: list[str] = []
    for k in range(c):
        up = ["(" + "".join(sorted(kids[k] + up)) + ")"]
    key = "(" + "".join(sorted(kids[c] + up)) + ")"
    if h % 2:
        # bicentral: kids[c] ends with c + 1, the child appended last
        up = ["(" + "".join(sorted(kids[c][:-1] + up)) + ")"]
        key = min(key, "(" + "".join(sorted(kids[c + 1] + up)) + ")")
    return key


def tree_canonical_form(tree: Graph) -> str:
    """Canonical encoding of an unlabeled tree: rooted encoding with sorted
    child encodings, rooted at the center (minimum over both centers when
    the tree is bicentral). Equal strings iff isomorphic.

    The tree is relabelled in preorder from a vertex r farthest from vertex
    0, which is peripheral, listing the deepest child first; vertices
    0, 1, .., h then form a diametral path and _spine_key applies, as in
    enumerate_free_trees. The first BFS also checks that the graph is a
    tree: connected, with n - 1 edges."""
    nbrs = tree.neighbors
    order = _bfs(tree, 0)[0]
    if len(order) != tree.n or tree.edge_count != tree.n - 1:
        raise ValueError("canonical form defined for trees")
    r = order[-1]
    order, up = _bfs(tree, r)
    height = [0] * tree.n
    for v in reversed(order[1:]):
        height[up[v]] = max(height[up[v]], height[v] + 1)
    parent: list[int] = []
    stack = [(r, -1)]
    while stack:
        v, p = stack.pop()
        kids = sorted((w for w in nbrs[v] if w != up[v]), key=height.__getitem__)
        stack += [(w, len(parent)) for w in kids]  # deepest is popped first
        parent.append(p)
    return _spine_key(parent, height[r])

