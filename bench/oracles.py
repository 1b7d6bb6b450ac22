"""Reference computations the benchmark checks spectree's outputs against.

None of these call spectree: graphs are built as numpy adjacency matrices
or edge lists here, spectra come from numpy.linalg.eigvalsh, and trees are
compared through their own canonical encoding.
"""

from __future__ import annotations

import json

import numpy as np

# OEIS A000055: unlabeled free trees on n = 1..13 vertices.
A000055 = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301)

SPECTRUM_TOL = 1e-8
VERIFY_INSTANCES = 380


# ---- graphs as edge lists ----

def line_graph_edges(edges):
    """(vertex count, edges) of the line graph; vertex i is edges[i]."""
    edges = [tuple(e) for e in edges]
    out = []
    for i, (a, b) in enumerate(edges):
        for j in range(i + 1, len(edges)):
            c, d = edges[j]
            if a in (c, d) or b in (c, d):
                out.append((i, j))
    return len(edges), out


def clique_edges(vertices):
    return [(u, v) for i, u in enumerate(vertices) for v in vertices[i + 1:]]


def windmill_edges(eta, mu):
    """eta copies of K_mu sharing vertex 0."""
    edges = []
    for j in range(eta):
        edges += clique_edges([0] + [1 + j * (mu - 1) + i for i in range(mu - 1)])
    return 1 + eta * (mu - 1), edges


def wprime_edges(eta, mu):
    """K_eta with a K_mu glued at each of its vertices."""
    edges = clique_edges(list(range(eta)))
    nxt = eta
    for c in range(eta):
        edges += clique_edges([c] + list(range(nxt, nxt + mu - 1)))
        nxt += mu - 1
    return eta * mu, edges


def book_edges(k):
    """K_{1,k} box K_2: vertex (i, side) is 2 * i + side, hub i = 0."""
    edges = [(2 * i + s, s) for i in range(1, k + 1) for s in (0, 1)]
    edges += [(2 * i, 2 * i + 1) for i in range(k + 1)]
    return 2 * (k + 1), edges


def prufer_tree_edges(seq, n):
    """Labelled tree on n vertices decoded from a Prufer sequence."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = degree.index(1)
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
    u, v = (i for i in range(n) if degree[i] == 1)
    edges.append((u, v))
    return edges


def adjacency(n, edges) -> np.ndarray:
    adj = np.zeros((n, n))
    for u, v in edges:
        adj[u, v] = adj[v, u] = 1.0
    return adj


def is_connected(n, edges) -> bool:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    return len({find(x) for x in range(n)}) == 1


# ---- product-mix ----

def product_laplacian_spectrum(adj: np.ndarray, m: int) -> np.ndarray:
    """Ascending Laplacian eigenvalues of X x K_m from X's adjacency."""
    prod = np.kron(adj, np.ones((m, m)) - np.eye(m))
    lap = np.diag(prod.sum(axis=1)) - prod
    return np.linalg.eigvalsh(lap)


def spectrum_matches(values, reference) -> bool:
    values = np.asarray(values, dtype=np.float64)
    return values.shape == reference.shape and float(np.max(np.abs(values - reference))) <= SPECTRUM_TOL


# ---- tree-enum ----

def is_tree(n, edges) -> bool:
    if len(edges) != n - 1:
        return False
    if any(u == v or not (0 <= u < n and 0 <= v < n) for u, v in edges):
        return False
    return is_connected(n, edges)


def free_tree_key(n, edges):
    """Canonical form of an unlabelled tree: nested sorted tuples of the
    tree rooted at its center, minimised over both centers if bicentral."""
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    deg = [len(x) for x in nbrs]
    leaves = [v for v in range(n) if deg[v] <= 1]
    left = n
    removed = [False] * n
    while left > 2:
        nxt = []
        for v in leaves:
            removed[v] = True
            left -= 1
            for w in nbrs[v]:
                if not removed[w]:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        leaves = nxt
    centers = [v for v in range(n) if not removed[v]]

    def encode(root):
        order, parent = [root], {root: None}
        for v in order:
            for w in nbrs[v]:
                if w != parent[v]:
                    parent[w] = v
                    order.append(w)
        code = {}
        for v in reversed(order):
            code[v] = tuple(sorted(code[w] for w in nbrs[v] if w != parent[v]))
        return code[root]

    return min(encode(c) for c in centers)


def check_enumeration(n: int, text: str) -> tuple[int, int]:
    """(attempted, failed) for one `enumerate --n n --format json` output.

    Attempted is the true tree count, so missing trees count as failures.
    """
    expected = A000055[n - 1]
    try:
        doc = json.loads(text)
        trees = [[tuple(e) for e in t] for t in doc["trees"]]
    except (ValueError, KeyError, TypeError):
        return expected, expected
    if doc.get("n") != n or doc.get("count") != len(trees) or len(trees) != expected:
        return expected, expected
    failed = 0
    seen = set()
    for t in trees:
        if not is_tree(n, t):
            failed += 1
            continue
        key = free_tree_key(n, t)
        if key in seen:
            failed += 1
        seen.add(key)
    return expected, failed


# ---- verify-all ----

def check_verify(code: int, text: str) -> tuple[int, int, dict]:
    """(attempted, failed, summary) for one `verify all --format json` run.

    An instance passes when the run exited 0 with exactly VERIFY_INSTANCES
    instances and its report is ok; otherwise every expected instance fails.
    """
    try:
        reports = json.loads(text)
        total = sum(len(r["instances"]) for r in reports)
    except (ValueError, KeyError, TypeError):
        return VERIFY_INSTANCES, VERIFY_INSTANCES, {}
    summary = {
        "instances": total,
        "worst_margin": max((r["worst_deviation"] / r["tolerance"] for r in reports), default=0.0),
    }
    if code != 0 or total != VERIFY_INSTANCES:
        return max(total, VERIFY_INSTANCES), max(total, VERIFY_INSTANCES), summary
    failed = sum(
        1
        for r in reports
        for i in r["instances"]
        if not r["ok"] or not (i["passed"] or i["informational"])
    )
    return total, failed, summary
