"""Constructors for the tree and clique-arrangement families under study,
graph products, line graphs, and exhaustive free-tree enumeration.

Family descriptors use a compact text form, e.g. "path:4", "tkst:1,2,3",
"diam4:3;2,2,1", "windmill:2,3", "wprime:3,3", "book:3".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graphs import Graph, _bfs, _check_ints, _edge_arrays, from_edge_list, is_tree

__all__ = [
    "FamilyDescriptor",
    "parse_family",
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
    parts = rest.split(",")
    if kind == "diam4":
        head, sep2, tail = rest.partition(";")
        if not sep2:
            raise ValueError("diam4 needs 'k;x1,..,xk'")
        parts = [head, *tail.split(",")]
    try:
        params = tuple(map(int, parts))
    except ValueError:
        raise ValueError(f"bad family descriptor {text!r}: parameters must be integers") from None
    return FamilyDescriptor(kind, params)


def build(desc: FamilyDescriptor) -> Graph:
    ctor, _ = _FAMILIES[desc.kind]
    return ctor(*desc.params)


def path_graph(n: int) -> Graph:
    _check_ints(1, n=n)
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n: int) -> Graph:
    """Star on n vertices, K_{1,n-1}, center 0."""
    _check_ints(2, n=n)
    return from_edge_list(n, [(0, i) for i in range(1, n)])


def complete_graph(n: int) -> Graph:
    """K_n. Every call with the same n returns one shared Graph, whose
    adj is read-only."""
    _check_ints(1, n=n)
    return _complete_graph(int(n))


# keyed after the check: True == 1 as a key, and complete_graph(True)
# must still raise once K_1 is cached
@lru_cache(maxsize=16)
def _complete_graph(n: int) -> Graph:
    return Graph(~np.eye(n, dtype=bool))


def tkst_tree(k: int, s: int, t: int) -> Graph:
    """Path on k+1 vertices 0..k with s pendants at 0 and t pendants at k."""
    _check_ints(1, k=k)
    _check_ints(0, s=s, t=t)
    edges = [(i, i + 1) for i in range(k)]
    edges += [(0, k + 1 + i) for i in range(s)]
    edges += [(k, k + 1 + s + i) for i in range(t)]
    return from_edge_list(k + 1 + s + t, edges)


def diam4_tree(k: int, xs) -> Graph:
    """Root 0 joined to branch vertices 1..k; branch i carries xs[i-1]
    pendants. Needs the two largest branch loads positive (diameter 4)."""
    xs = tuple(xs)
    _check_ints(2, k=k)
    _check_ints(0, **{f"xs[{i}]": x for i, x in enumerate(xs)})
    if len(xs) != k:
        raise ValueError("diam4 needs one x per branch")
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
    _check_ints(2, eta=eta)
    _check_ints(3, mu=mu)
    edges = []
    for j in range(eta):
        blade = [0] + [1 + j * (mu - 1) + i for i in range(mu - 1)]
        edges += [(u, v) for a, u in enumerate(blade) for v in blade[a + 1:]]
    return from_edge_list(1 + eta * (mu - 1), edges)


def wprime_graph(eta: int, mu: int) -> Graph:
    """K_eta on 0..eta-1 with a K_mu blade glued at each core vertex."""
    _check_ints(2, eta=eta, mu=mu)
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
    _check_ints(1, k=k)
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
    u, v = _edge_arrays(g)
    if not len(u):
        raise ValueError("line graph needs at least one edge")
    return Graph(_line_adj(u, v)), tuple(zip(u.tolist(), v.tolist()))


def _line_adj(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Adjacency of each line graph in a stack, given the endpoints of
    each graph's edges: edge i of graph j is (u[j, i], v[j, i]), for
    arrays of shape (..., k). Two distinct edges are adjacent iff they
    share an endpoint; shape (..., k, k)."""
    a, b = u[..., :, None], v[..., :, None]
    c, d = u[..., None, :], v[..., None, :]
    adj = (a == c) | (a == d) | (b == c) | (b == d)
    diag = np.arange(u.shape[-1])
    adj[..., diag, diag] = False
    return adj


def kronecker(g: Graph, h: Graph) -> Graph:
    """Tensor (categorical) product; vertex (u, x) is u * h.n + x."""
    return Graph(_kron(g.adj, h.adj))


def _kron(adj: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Adjacency of each tensor product X x H, for a stack (..., k, k) of
    adjacency matrices of X and one (p, p) of H; shape (..., k*p, k*p)."""
    k, p = adj.shape[-1], b.shape[-1]
    # (..., k, 1, k, 1) & (p, 1, p) -> (..., k, p, k, p)
    return (adj[..., :, None, :, None] & b[:, None, :]).reshape(*adj.shape[:-2], k * p, k * p)


def cartesian(g: Graph, h: Graph) -> Graph:
    """Cartesian product; vertex (u, x) is u * h.n + x."""
    eg = np.eye(g.n, dtype=bool)
    eh = np.eye(h.n, dtype=bool)
    return Graph(np.kron(g.adj, eh) | np.kron(eg, h.adj))


def beta_m(tree: Graph, m: int) -> Graph:
    """Kronecker product of the tree's line graph with K_m."""
    _check_ints(2, m=m)
    if not is_tree(tree):
        raise ValueError("beta_m needs a tree")
    lg, _ = line_graph(tree)
    return kronecker(lg, complete_graph(m))


# ---- free tree enumeration ----

def enumerate_free_trees(n: int) -> list[Graph]:
    """All unlabeled trees on n vertices, one representative each.

    The representatives are built at once from the preorder parent arrays
    of _free_tree_parents, through one (count, n, n) adjacency array, and
    come in the same order: sorted by the center-rooted canonical encoding.
    Deterministic."""
    parents = _free_tree_parents(n)
    # in tree i, vertex v >= 1 is joined to up[i, v - 1]
    tree, child, up = np.arange(len(parents))[:, None], np.arange(1, n), parents[:, 1:]
    adj = np.zeros((len(parents), n, n), dtype=bool)
    adj[tree, up, child] = adj[tree, child, up] = True
    return [Graph(a) for a in adj]


def _free_tree_parents(n: int) -> np.ndarray:
    """One representative of each unlabeled tree on n vertices, as a
    (count, n) int array sorted by canonical encoding. Each row is a parent
    array in preorder: row[0] = -1 and 0 <= row[v] < v for v >= 1.

    Rooted trees are generated by the level-sequence successor rule, which
    hands over each tree's parent array, and reduced to free trees by their
    center-rooted canonical encoding: a dict maps each new encoding to the
    parent array of its first tree.

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

    The generator (_first_candidates) turns a leaf-rooted sequence away
    at the first vertex off the spine 0, 1, .., h that breaks either of two
    rules. Off the spine, preorder lists the branches by the spine vertex k
    they hang from, in decreasing k.
    - Long path: a vertex at level l in the branch at k lies
      (l - k) + (h - k) from vertex h, so l > 2k makes the diameter exceed
      the root's height h; the root is not peripheral, and the sequence is
      not first.
    - Far-end duplicate: let b = parent[h + 1], the largest k, and k the
      smallest. Rooted at vertex h, the other end of the spine, the tree
      has a level sequence starting 0, 1, .., h, h - k + 1, and its
      canonical sequence is at least that. When h - k > b this beats the
      0, 1, .., h, b + 1 here, so the decreasing generator has already
      emitted a sequence of the same free tree.
    Neither rule fires on a first sequence. h, b and the k of each vertex
    lie in the prefix up to that vertex, so when vertex v breaks a rule,
    every sequence starting with the same v + 1 levels breaks it too. Those
    sequences come one after another, the last of them with every vertex
    after v a leaf at level 2; the generator applies the successor rule to
    that one and skips them all unseen, none of them a first sequence.

    When the long-path rule lets a sequence through, every vertex lies
    within h of every other, so 0, 1, .., h is a diametral path: the
    centers are its middle vertices, and the key re-roots along that path
    alone (_spine_key). A canonical sequence also lists each vertex's
    children in increasing encoding, so below the center the key needs no
    sort.
    """
    _check_ints(1, n=n)
    reps: dict[str, list[int]] = {}
    for parent, h in _first_candidates(n):
        key = _spine_key(parent, h)
        if key not in reps:
            reps[key] = parent[:]
    return np.array([reps[k] for k in sorted(reps)])


def _check_parent_rows(parents: np.ndarray, n: int) -> None:
    """Raise unless every row is a preorder parent array of a tree on n
    vertices: row[0] = -1 and 0 <= row[v] < v for v >= 1, so each vertex
    but 0 has one edge to an earlier vertex."""
    ok = (parents >= 0) & (parents < np.arange(n))
    ok[:, 0] = parents[:, 0] == -1
    bad = np.argwhere(~ok)
    if len(bad):
        i, v = bad[0]
        raise ValueError(
            f"tree {i} on n = {n} vertices has parent {parents[i, v]} at vertex {v}; "
            "a preorder parent array has -1 at vertex 0 and 0 <= parent < v at each vertex v >= 1"
        )


def _edge_keys(parents: np.ndarray) -> np.ndarray:
    """Each tree's edges as keys u * n + v, one sorted row per parent
    array: the edges are (parent[v], v) for v >= 1 with parent[v] < v, so
    sorting the keys orders them by (u, v), as edge_list does."""
    n = parents.shape[-1]
    return np.sort(parents[:, 1:] * n + np.arange(1, n), axis=1)


def _first_candidates(n: int):
    """(parent, h) for the canonical level sequences on n vertices whose
    root has one child and which neither rule of _free_tree_parents turns
    away, in decreasing lexicographic order (path first); parent[v] is the
    last vertex before v one level up, -1 for the root, and h is the
    root's height. The list is updated in place between yields.

    The root sits above a rooted tree on n - 1 vertices, so this is the
    successor rule on those trees, run one level lower: the last vertex
    above level 2 moves up to its parent's level and the block from that
    parent on repeats to the end. Each rewritten vertex is checked as it is
    written, and the first one to break a rule ends the sequence there."""
    seq = list(range(n))
    parent = list(range(-1, n - 1))
    # spine vertex each vertex's branch hangs from; spine vertices their own
    spine = list(range(n))
    h, lo = n - 1, 0  # lo = h - b: a branch at k < lo breaks the far-end rule
    yield parent, h
    v = n - 1
    while True:
        # the last vertex at or before v above level 2; every vertex after
        # v counts as a leaf at level 2
        p = v
        while p > 1 and seq[p] < 3:
            p -= 1
        if p <= 1:
            return
        q = p - 1
        while seq[q] != seq[p] - 1:
            q -= 1
        # vertex v >= p copies v - d: a copy of q is a sibling of q, any
        # other vertex hangs d below its original's parent
        d, level, up = p - q, seq[q], parent[q]
        if p <= h:
            # p was the spine's end and moves up beside its parent
            h = p - 1
        if p == h + 1:
            lo = h - up  # b = parent[p], a copy of q
        for v in range(p, n):
            seq[v] = lv = seq[v - d]
            parent[v] = u = parent[v - d] + d if lv > level else up
            spine[v] = k = spine[u]
            if k < lo or lv > 2 * k:
                break
        else:
            yield parent, h  # and v = n - 1


def _spine_key(parent, h: int) -> str:
    """Canonical encoding of a tree given by the parent array of its
    vertices in preorder, where 0, 1, .., h is a path from the root to a
    deepest vertex. The caller guarantees that h is the diameter: a
    peripheral root, as _first_candidates and tree_canonical_form give.

    The preorder must also be canonical: each vertex lists its children
    by decreasing level sequence, which is increasing encoding (at the
    first difference, a deeper next level writes "(" where the other
    writes ")"). Below the center the children's encodings are then joined
    as listed, without a sort; only the re-rooted path 0..c sorts."""
    n = len(parent)
    # 0..h is a diametral path, so its middle vertices are the centers
    c = h // 2
    kids: list[list[str]] = [[] for _ in range(n)]
    for v in range(n - 1, c, -1):
        below = kids[v]  # in decreasing preorder, so reversed is sorted
        kids[parent[v]].append("(" + "".join(below[::-1]) + ")" if below else "()")
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
    0, which is peripheral, listing each vertex's children by increasing
    encoding, built bottom up from r. That is a canonical preorder, and
    the smallest encoding is a deepest child's, so vertices 0, 1, .., h
    form a diametral path and _spine_key applies, as in _free_tree_parents.
    The first BFS also checks that the graph is a tree: connected, with
    n - 1 edges."""
    nbrs = tree.neighbors
    order = _bfs(tree, 0)[0]
    if len(order) != tree.n or tree.edge_count != tree.n - 1:
        raise ValueError("canonical form defined for trees")
    r = order[-1]
    order, up = _bfs(tree, r)
    enc, kids = [""] * tree.n, [None] * tree.n
    for v in reversed(order):
        # largest encoding first, so the smallest is popped first below
        kids[v] = sorted((w for w in nbrs[v] if w != up[v]), key=enc.__getitem__, reverse=True)
        enc[v] = "(" + "".join(enc[w] for w in reversed(kids[v])) + ")"
    parent: list[int] = []
    stack = [(r, -1)]
    while stack:
        v, p = stack.pop()
        stack += [(w, len(parent)) for w in kids[v]]
        parent.append(p)
    # the path 0, 1, .., h ends at the first vertex without a child
    h = next(v for v in range(tree.n) if v + 1 == tree.n or parent[v + 1] != v)
    return _spine_key(parent, h)
