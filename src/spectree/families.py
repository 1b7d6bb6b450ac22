"""Constructors for the tree and clique-arrangement families under study,
graph products, line graphs, and exhaustive free-tree enumeration.

Family descriptors use a compact text form, e.g. "path:4", "tkst:1,2,3",
"diam4:3;2,2,1", "windmill:2,3", "wprime:3,3", "book:3".
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph, _bfs, _check_ints, _diametral_path, _edge_arrays, from_edge_list, is_tree

__all__ = [
    "parse_family",
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

def parse_family(text: str) -> Graph:
    """The graph that a family descriptor names."""
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
    if kind not in _FAMILIES:
        raise ValueError(f"unknown family kind {kind!r}")
    ctor, arity = _FAMILIES[kind]
    if arity is None:
        # diam4's head and tail give at least two parameters
        if len(params) != params[0] + 1:
            raise ValueError("diam4 takes params (k, x1, .., xk)")
    elif len(params) != arity:
        raise ValueError(f"{kind} takes {arity} parameter(s)")
    return ctor(*params)


def path_graph(n: int) -> Graph:
    _check_ints(1, n=n)
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n: int) -> Graph:
    """Star on n vertices, K_{1,n-1}, center 0."""
    _check_ints(2, n=n)
    return from_edge_list(n, [(0, i) for i in range(1, n)])


def complete_graph(n: int) -> Graph:
    _check_ints(1, n=n)
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

    The representatives are built a chunk at a time from the checked
    level rows of _free_tree_levels, through one (count, n, n) adjacency
    array per chunk, and come in the same order: sorted by the
    center-rooted canonical encoding. Vertex 0 of each is a center.
    Deterministic."""
    trees = []
    for _, u, v in _free_tree_chunks(n)[1]:
        tree = np.arange(len(u))[:, None]
        adj = np.zeros((len(u), n, n), dtype=bool)
        adj[tree, u, v] = adj[tree, v, u] = True
        trees += map(Graph, adj)
    return trees


# trees per chunk of _free_tree_chunks: enumerate builds one chunk's edge
# lists at a time, and the thm-2.1 sweep one chunk's stacked eigensolves,
# which keeps both small at large n (7,741 trees at n = 15)
_TREE_CHUNK = 256


def _free_tree_chunks(n: int):
    """The free trees on n vertices, from the rows of _free_tree_levels,
    checked once: (count, chunks). chunks yields (lo, u, v) for trees lo,
    lo + 1, .. in enumeration order, up to _TREE_CHUNK of them; tree lo + i
    has edges (u[i, j], v[i, j]), u < v, sorted as edge_list sorts them.

    Raises at once unless every row is a preorder level sequence:
    row[0] = 0 and 1 <= row[v] <= row[v - 1] + 1 for v >= 1. Every level
    from 0 to row[v - 1] then occurs before v, so v's parent, the last
    earlier vertex one level up, exists and 0 <= parent < v."""
    levels = _free_tree_levels(n)
    # row[v] - 1 wraps to 255 in uint8 when row[v] = 0, above every earlier level
    bad = np.argwhere(np.hstack((levels[:, :1] != 0, levels[:, 1:] - 1 > levels[:, :-1])))
    if len(bad):
        i, v = bad[0]
        raise ValueError(
            f"tree {i} on n = {n} vertices has level {levels[i, v]} at vertex {v}; a preorder level "
            "sequence has 0 at vertex 0 and 1 <= level <= previous level + 1 at each vertex v >= 1"
        )

    def chunks():
        vertex = np.arange(n)
        for lo in range(0, len(levels), _TREE_CHUNK):
            rows = levels[lo:lo + _TREE_CHUNK]
            parents = np.full(rows.shape, -1)
            for level in range(1, int(rows.max()) + 1):
                above = np.maximum.accumulate(np.where(rows == level - 1, vertex, -1), axis=1)
                np.copyto(parents, above, where=rows == level)
            # each vertex v >= 1 has the edge (parent[v], v) with parent[v] < v,
            # so sorting the keys u * n + v orders the edges by (u, v)
            keys = np.sort(parents[:, 1:] * n + vertex[1:], axis=1)
            yield (lo, *np.divmod(keys, n))

    return len(levels), chunks()


# byte tables that add 1 to or take 1 from every level of a level sequence;
# the generator adds 1 only to levels 1..254 and takes 1 only from 2..255
_UP = bytes((x + 1) % 256 for x in range(256))
_DOWN = bytes((x - 1) % 256 for x in range(256))


def _free_tree_levels(n: int) -> np.ndarray:
    """One representative of each unlabeled tree on n vertices, as a fresh
    (count, n) uint8 array of preorder level sequences sorted by canonical
    encoding. n <= 511, so that the path's center level n // 2 fits in a
    byte.

    The trees come from the free-tree generator of Wright, Richmond,
    Odlyzko and McKay (SIAM J. Comput. 15, 1986), which emits each free
    tree exactly once as a canonical level sequence rooted at a center. It
    runs the Beyer-Hedetniemi successor rule on one bytearray, starting from
    the path rooted at its center. With m the index of the root's second
    child, the sequence is kept when the rest of the tree is higher than the
    left subtree 1..m-1, or as high and (m - 1, left) <= (n - m + 1, rest).
    Otherwise no sequence with the same left subtree is kept, and the
    generator jumps past them all: the successor rule runs from the left
    subtree's last vertex, and when that vertex lay below level 2 the tail
    becomes the path 1, 2, .., h, which makes the rest higher than the new
    left subtree of height h - 1.

    The rest's height is read off by containment, not by a maximum: a
    preorder segment that starts at level 1, as the rest seq[m:] does, goes
    at most one level deeper at each step, so it holds every level from 1
    down to its deepest. The rest is then higher than a left subtree of
    height left >= 0 iff it holds level left + 1, and as high iff it holds
    level left but not left + 1. n = 1 and 2 have no rest, and return
    their one path.

    Equal heights mean two centers, vertex 0 and vertex 1. Rooted at vertex
    1, the old root's subtree is the unique deepest child, so it comes
    first and the sequence is canonical; the larger of the two is kept.
    Rows are sorted by decreasing sequence, which is increasing encoding (at
    the first difference, a deeper next level writes "(" where the other
    writes ")").
    """
    _check_ints(1, n=n)
    if n > 511:
        raise ValueError(
            f"n must be <= 511, got {n}: the free trees' level rows are uint8, and the path on "
            "n vertices has its center at level n // 2"
        )
    if n <= 2:
        return np.arange(n, dtype=np.uint8)[None]
    seq = bytearray(range(n // 2 + 1)) + bytearray(range(1, (n + 1) // 2))
    kept = bytearray()
    while True:
        m = seq.find(1, 2)
        if m < 0:
            m = n
        # the height of the left subtree, and the rest of the tree
        left, rest = max(seq[1:m]) - 1, seq[m:]
        higher = left + 1 in rest
        # (m - 1, left) <= (n - m + 1, rest), the rest one level deeper so
        # that both hang from level 1
        if higher or left in rest and (m - 1, seq[1:m]) <= (n - m + 1, b"\1" + rest.translate(_UP)):
            kept += seq if higher else max(seq, b"\0\1" + rest.translate(_UP) + seq[2:m].translate(_DOWN))
            p = n - 1
            while seq[p] == 1:
                p -= 1
            if p == 0:
                break
            _successor(seq, p)
        else:
            p = m - 1
            tall = seq[p] > 2
            _successor(seq, p)
            if tall:
                # the block repeated below a vertex deeper than level 2 holds
                # no level 1, so vertex 1's subtree is now the whole tree
                h = max(seq)
                seq[n - h:] = range(1, h + 1)
    seqs = np.frombuffer(kept, dtype=np.uint8).reshape(-1, n)
    return seqs[np.lexsort(~seqs.T[::-1])]


def _successor(seq: bytearray, p: int) -> None:
    """The Beyer-Hedetniemi successor of a level sequence, in place, from
    vertex p on: with q the parent of p, the last vertex before p one
    level up, the block q..p-1 repeats from p to the end, written by one
    slice copy."""
    q = seq.rfind(seq[p] - 1, 0, p)
    k, tail = p - q, len(seq) - p
    seq[p:] = (seq[q:p] * (tail // k + 1))[:tail]


def tree_canonical_form(tree: Graph) -> str:
    """Canonical encoding of an unlabeled tree: rooted encoding with sorted
    child encodings, rooted at the center (minimum over both centers when
    the tree is bicentral). Equal strings iff isomorphic.

    The centers are the middle of a diametral path."""
    if not is_tree(tree):
        raise ValueError("canonical form defined for trees")
    nbrs = tree.neighbors
    path = _diametral_path(tree)
    c, other = path[(len(path) - 1) // 2], path[len(path) // 2]

    def join(kids) -> str:
        return "(" + "".join(sorted(kids)) + ")"

    order, up = _bfs(tree, c)
    enc = [""] * tree.n
    for v in reversed(order):
        enc[v] = join(enc[w] for w in nbrs[v] if w != up[v])
    if other == c:
        return enc[c]
    # rooted at the other center, c hangs below it without that branch
    below = join(enc[w] for w in nbrs[c] if w != other)
    return min(enc[c], join([below] + [enc[w] for w in nbrs[other] if w != c]))
