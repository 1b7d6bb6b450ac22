"""Checks that run each claimed result against enumerated or parametric
instances, producing deterministic pass/fail reports.

Every check computes the claimed value twice over: once through the closed
form or classification being tested, once through an independent numeric
route (explicit graph assembly + eigensolve). Instances marked
informational document known boundary cases or suspected misprints in the
source material without affecting the report verdict.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .closedform import (
    book_aconn_bound,
    book_line_laplacian_spectrum,
    integrality_cubic,
    is_beta_laplacian_integral,
    star_product_spectrum,
    t1st_line_laplacian_spectrum,
    windmill_product_spectrum,
    wprime_algebraic_connectivity,
    wprime_product_spectrum,
)
from .eigen import eigenvalues, second_smallest
from .families import (
    book_graph,
    complete_graph,
    diam4_tree,
    enumerate_free_trees,
    kronecker,
    line_graph,
    star_graph,
    tkst_tree,
    windmill_graph,
    wprime_graph,
)
from .graphs import (
    Graph,
    _is_int,
    block_decomposition,
    block_structure_is_star,
    blocks_all_complete,
    degrees,
    edge_list,
    from_edge_list,
    is_restricted,
    is_star,
    is_tree,
    min_degree,
)
from .spectra import (
    ROUTE_TOL,
    a_beta_m,
    algebraic_connectivity,
    laplacian,
    product_connected,
    product_laplacian_spectrum_direct,
    q_matrix,
    q_min,
)

__all__ = [
    "CheckInstance",
    "VerificationReport",
    "classify_t1st",
    "classify_diam4",
    "check_theorem_21",
    "check_case_bounds_thm21",
    "check_corollary_21",
    "check_theorem_23",
    "check_theorem_das",
    "check_theorem_das_examples",
    "check_theorem_31",
    "check_theorem_32",
    "check_theorem_33",
    "check_corollary_31",
    "check_corollary_31_examples",
    "reproduce_table2",
    "ALL_CLAIMS",
    "run_claim",
]


@dataclass(frozen=True)
class CheckInstance:
    descriptor: str
    expected: str
    observed: str
    passed: bool
    informational: bool = False
    deviation: float = 0.0


@dataclass(frozen=True)
class VerificationReport:
    claim_id: str
    tolerance: float
    instances: tuple[CheckInstance, ...] = field(default_factory=tuple)

    @property
    def failed(self) -> int:
        return sum(1 for i in self.instances if not i.passed and not i.informational)

    @property
    def passed(self) -> int:
        return sum(1 for i in self.instances if i.passed and not i.informational)

    @property
    def informational(self) -> int:
        return sum(1 for i in self.instances if i.informational)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    @property
    def worst_deviation(self) -> float:
        devs = [i.deviation for i in self.instances if not i.informational]
        return max(devs, default=0.0)

    def to_dict(self) -> dict:
        return {
            "claim": self.claim_id,
            "tolerance": self.tolerance,
            "ok": self.ok,
            "passed": self.passed,
            "failed": self.failed,
            "informational": self.informational,
            "worst_deviation": self.worst_deviation,
            "instances": [asdict(i) for i in self.instances],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def to_text(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        lines = [
            f"claim {self.claim_id}: {verdict} "
            f"({self.passed} passed, {self.failed} failed, "
            f"{self.informational} informational, "
            f"worst deviation {self.worst_deviation:.3g})"
        ]
        for i in self.instances:
            tag = "info" if i.informational else ("ok " if i.passed else "FAIL")
            lines.append(
                f"  [{tag}] {i.descriptor}: expected {i.expected}; observed {i.observed}"
            )
        return "\n".join(lines)


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _eq_instance(desc, expected, observed, informational=False, tol=ROUTE_TOL) -> CheckInstance:
    dev = abs(observed - expected)
    return CheckInstance(
        descriptor=desc,
        expected=f"= {_fmt(expected)}",
        observed=_fmt(observed),
        passed=dev <= tol,
        informational=informational,
        deviation=dev,
    )


def _le_instance(desc, bound, observed, informational=False, tol=ROUTE_TOL) -> CheckInstance:
    over = max(0.0, observed - bound)
    return CheckInstance(
        descriptor=desc,
        expected=f"<= {_fmt(bound)}",
        observed=_fmt(observed),
        passed=over <= tol,
        informational=informational,
        deviation=over,
    )


def _lt_instance(desc, bound, observed) -> CheckInstance:
    """observed must sit strictly below bound, by more than ROUTE_TOL."""
    return CheckInstance(
        descriptor=desc,
        expected=f"< {_fmt(bound)}",
        observed=_fmt(observed),
        passed=observed < bound - ROUTE_TOL,
        deviation=max(0.0, observed - bound),
    )


def _multiset_instance(desc, closed, direct, expected="multisets equal") -> CheckInstance:
    """Closed-form against directly solved eigenvalues, both ascending arrays."""
    dev = math.inf if len(closed) != len(direct) else float(np.max(np.abs(closed - direct)))
    return CheckInstance(
        descriptor=desc,
        expected=expected,
        observed=f"max deviation {dev:.3g}",
        passed=dev <= ROUTE_TOL,
        deviation=dev,
    )


def _edge_str(g: Graph) -> str:
    return ",".join(f"{u}-{v}" for u, v in edge_list(g))


# ---- classification ----

def classify_t1st(tree: Graph):
    """(s, t) with s >= t when the tree is the double star T(1,s,t):
    exactly two non-pendant vertices, adjacent to each other. None
    otherwise."""
    if not is_tree(tree):
        raise ValueError("classification requires a tree")
    deg = degrees(tree)
    internal = np.flatnonzero(deg >= 2)
    if len(internal) != 2:
        return None
    u, v = int(internal[0]), int(internal[1])
    if not tree.adj[u, v]:
        return None
    s, t = int(deg[u]) - 1, int(deg[v]) - 1
    return (max(s, t), min(s, t))


def classify_diam4(tree: Graph):
    """(k, xs) when the tree is a root joined to k branch vertices, the
    i-th carrying xs[i] pendants, with the two largest loads positive.
    xs comes back sorted descending. None otherwise."""
    if not is_tree(tree):
        raise ValueError("classification requires a tree")
    deg = degrees(tree)
    nbrs = tree.neighbors
    for c in range(tree.n):
        if deg[c] < 2:
            continue
        xs = []
        ok = True
        for b in nbrs[c]:
            others = [w for w in nbrs[b] if w != c]
            if any(deg[w] != 1 for w in others):
                ok = False
                break
            xs.append(len(others))
        if not ok or 1 + len(xs) + sum(xs) != tree.n:
            continue
        xs = sorted(xs, reverse=True)
        if len(xs) >= 2 and xs[1] >= 1:
            return (len(xs), tuple(xs))
    return None


# ---- the double-star characterization ----

def check_theorem_21(max_n: int = 8, m: int = 2) -> VerificationReport:
    """a(L(X) x K_m) = m-1 exactly for the double stars T(1,s,t), s,t >= 2,
    over every tree with 3 <= n <= max_n.

    Paths at m = 2 (disconnected product, a = 0) and stars (complete line
    graph, a from star_product_spectrum, which can exceed m-1) sit outside
    the characterization and are checked against their own closed values.
    """
    if m < 2:
        raise ValueError("needs m >= 2")
    if max_n < 3:
        raise ValueError("needs max_n >= 3")
    out = []
    for n in range(3, max_n + 1):
        for idx, tree in enumerate(enumerate_free_trees(n)):
            desc = f"m={m} n={n}#{idx:02d} {_edge_str(tree)}"
            lg, _ = line_graph(tree)
            connected = product_connected(lg, m)
            a = a_beta_m(tree, m)
            cls = classify_t1st(tree)
            path = int(degrees(tree).max()) <= 2
            if path and m == 2:
                inst = CheckInstance(
                    descriptor=desc + " [path]",
                    expected="disconnected product, a = 0",
                    observed=f"connected={connected}, a={_fmt(a)}",
                    passed=(not connected) and abs(a) <= ROUTE_TOL,
                    deviation=abs(a),
                )
            elif is_star(tree):
                ex = second_smallest(star_product_spectrum(n, m))
                note = " (= m-1 here)" if ex == m - 1 else ""
                inst = _eq_instance(desc + f" [star{note}]", ex, a)
                inst = replace(inst, expected=inst.expected + " (clique product)", passed=inst.passed and connected)
            elif cls is not None and cls[1] >= 2:
                s, t = cls
                inst = _eq_instance(desc + f" [T(1,{s},{t})]", float(m - 1), a)
            else:
                inst = _lt_instance(desc, float(m - 1), a)
                inst = replace(inst, passed=inst.passed and connected)
            out.append(inst)
    return VerificationReport("thm-2.1", ROUTE_TOL, tuple(out))


def check_case_bounds_thm21() -> VerificationReport:
    """The proof's case analysis for X = T(1,1,t).

    t = 1: Q_{m-1}(L(T(1,1,1))) = Q_{m-1}(P_3) has eigenvalues m-1 and
    (3(m-1) +- sqrt(m^2-2m+9))/2, the smaller strictly below m-1.
    t >= 2: lambda_min(Q_{m-1}(L(T(1,1,t)))) is at most the smaller
    eigenvalue of the principal submatrix [[(m-1)(t+1), 1], [1, m-1]],
    itself strictly below m-1.
    """
    out = []
    for m in (2, 3):
        for t in (1, 2, 3):
            lg, _ = line_graph(tkst_tree(1, 1, t))
            qv = eigenvalues(q_matrix(lg, m))
            if t == 1:
                root = math.sqrt(m * m - 2.0 * m + 9.0)
                lo = (3.0 * (m - 1) - root) / 2.0
                hi = (3.0 * (m - 1) + root) / 2.0
                closed = np.sort(np.array([float(m - 1), lo, hi]))
                dev = float(np.max(np.abs(np.sort(qv) - closed)))
                out.append(
                    CheckInstance(
                        descriptor=f"m={m} t=1 Q_{{m-1}}(P_3) roots",
                        expected=f"= {{{_fmt(closed[0])}, {_fmt(closed[1])}, {_fmt(closed[2])}}}",
                        observed="{" + ", ".join(_fmt(v) for v in qv) + "}",
                        passed=dev <= ROUTE_TOL,
                        deviation=dev,
                    )
                )
                out.append(
                    _le_instance(f"m={m} t=1 small root below m-1", float(m - 1) - ROUTE_TOL, lo, tol=0.0)
                )
            else:
                bound = ((m - 1) * (t + 2) - math.sqrt((t * (m - 1)) ** 2 + 4.0)) / 2.0
                out.append(
                    _le_instance(f"m={m} t={t} q_min within submatrix bound", bound, float(qv[0]))
                )
                out.append(
                    _le_instance(f"m={m} t={t} submatrix bound below m-1", float(m - 1) - ROUTE_TOL, bound, tol=0.0)
                )
    return VerificationReport("thm-2.1-cases", ROUTE_TOL, tuple(out))


def check_corollary_21() -> VerificationReport:
    """Integrality of Lap(L(T(1,s,t)) x K_m) decided by the exact cubic
    root test, against numeric near-integrality of the assembled product.

    One informational instance per (s, t) records that the proof's printed
    top Laplacian eigenvalue of L(T(1,s,t)), s+t-1, disagrees with both the
    closed form and the eigensolver, which give s+t+1.
    """
    out = []
    for s in range(2, 6):
        for t in range(2, s + 1):
            lg, _ = line_graph(tkst_tree(1, s, t))
            top = float(eigenvalues(laplacian(lg))[-1])
            closed_top = float(t1st_line_laplacian_spectrum(s, t).pairs[-1][0])
            out.append(
                _eq_instance(f"s={s} t={t} top Laplacian eigenvalue of L(T(1,s,t))", closed_top, top)
            )
            printed = f"s={s} t={t} source text prints top value s+t-1"
            out.append(_eq_instance(printed, float(s + t - 1), top, informational=True))
            for m in (2, 3):
                cc = integrality_cubic(s, t, m)
                exact = cc.integer_roots()
                try:  # raises when the exact and numeric verdicts disagree
                    numeric = is_beta_laplacian_integral(s, t, m)
                except RuntimeError as exc:
                    observed, passed = str(exc), False
                else:
                    observed, passed = f"exact={'none' if exact is None else exact}, numeric={numeric}", True
                desc = f"s={s} t={t} m={m} integrality (cubic {cc.a},{cc.b},{cc.c})"
                out.append(CheckInstance(desc, "exact and numeric integrality verdicts agree", observed, passed))
    return VerificationReport("cor-2.1", ROUTE_TOL, tuple(out))


# ---- clique-block graphs ----

def _windmill_plus_pendant(eta: int, mu: int, at_hub: bool) -> Graph:
    base = windmill_graph(eta, mu)
    edges = edge_list(base)
    anchor = 0 if at_hub else 1
    edges.append((anchor, base.n))
    return from_edge_list(base.n + 1, edges)


def _triangle_chain(blocks: int = 3) -> Graph:
    edges = []
    for i in range(blocks):
        a = 2 * i
        edges += [(a, a + 1), (a, a + 2), (a + 1, a + 2)]
    return from_edge_list(2 * blocks + 1, edges)


def check_theorem_23() -> VerificationReport:
    """For connected restricted graphs with complete blocks and >= 3
    blocks: a(X x K_m) = m-1 iff min degree >= 2 and the block structure
    is a star.

    Positives: windmills W(eta, mu). Negatives: a pendant hung off the hub
    (star structure, min degree 1), a pendant off a rim vertex (non-star
    structure), and a path-like chain of triangles (min degree 2, non-star
    structure). W(2, mu) has only two blocks, below the hypothesis, and is
    reported informationally.
    """
    out = []
    for eta in (3, 4):
        for mu in (3, 4, 5):
            wm = windmill_graph(eta, mu)
            preds = (
                is_restricted(wm),
                blocks_all_complete(wm),
                block_structure_is_star(wm),
                len(block_decomposition(wm).blocks) >= 3,
                min_degree(wm) >= 2,
            )
            out.append(
                CheckInstance(
                    descriptor=f"windmill:{eta},{mu} hypothesis predicates",
                    expected="restricted, complete blocks, star structure, >=3 blocks, delta>=2",
                    observed=str(preds),
                    passed=all(preds),
                )
            )
            for m in (2, 3):
                a = algebraic_connectivity(kronecker(wm, complete_graph(m)))
                out.append(_eq_instance(f"windmill:{eta},{mu} m={m} a(X x K_m)", float(m - 1), a))

    # negatives
    hubbed = _windmill_plus_pendant(3, 3, at_hub=True)
    x = int(degrees(hubbed)[0])  # hub degree after the pendant
    non_star = (
        ("windmill:3,3+rim pendant", "non-star structure", _windmill_plus_pendant(3, 3, at_hub=False)),
        ("triangle chain", "delta=2, path structure", _triangle_chain(3)),
    )
    for m in (2, 3):
        a = algebraic_connectivity(kronecker(hubbed, complete_graph(m)))
        sub = ((m - 1) * (x + 1) - math.sqrt(((m - 1) * (x - 1)) ** 2 + 4.0)) / 2.0
        out.append(
            _lt_instance(f"windmill:3,3+hub pendant m={m} (delta=1, star structure)", float(m - 1), a)
        )
        out.append(
            _le_instance(
                f"windmill:3,3+hub pendant m={m} q_min within pendant submatrix bound",
                sub,
                q_min(hubbed, m),
            )
        )
        for name, note, g in non_star:
            a = algebraic_connectivity(kronecker(g, complete_graph(m)))
            star = block_structure_is_star(g)
            out.append(
                CheckInstance(
                    descriptor=f"{name} m={m} ({note})",
                    expected=f"non-star blocks and a < {m - 1}",
                    observed=f"star={star}, a={_fmt(a)}",
                    passed=(not star) and a < (m - 1) - ROUTE_TOL,
                )
            )
        # below the >=3 blocks hypothesis, yet the value still lands on m-1
        a = algebraic_connectivity(kronecker(windmill_graph(2, 3), complete_graph(m)))
        desc = f"windmill:2,3 m={m} (only 2 blocks, outside hypothesis)"
        out.append(_eq_instance(desc, float(m - 1), a, informational=True))
    return VerificationReport("thm-2.3", ROUTE_TOL, tuple(out))


# ---- spectral surgery on twin pendant groups ----

def check_theorem_das(base: Graph, group, added_edges, label: str | None = None) -> VerificationReport:
    """Adding edges among k vertices that share one common neighborhood of
    size p replaces k-1 eigenvalues equal to p with p + nu_i, where nu_i
    are the nonzero-slot eigenvalues of the added graph's Laplacian."""
    group = tuple(group)
    for v in group:
        if not _is_int(v):
            raise ValueError(f"group vertex {v!r} is not an integer")
        if not 0 <= v < base.n:
            raise ValueError(f"group vertex {v} is not in 0..{base.n - 1}")
    group = tuple(sorted({int(v) for v in group}))
    k = len(group)
    if k == 0:
        raise ValueError("empty group")
    gset = set(group)
    shared = None
    for v in group:
        nb = set(base.neighbors[v])
        if nb & gset:
            raise ValueError("group vertices must be pairwise non-adjacent")
        if shared is None:
            shared = nb
        elif nb != shared:
            raise ValueError("group vertices must share one neighborhood")
    p = len(shared)
    added = edge_list(from_edge_list(base.n, added_edges))  # checked, each edge once
    if any(u not in gset or v not in gset for u, v in added):
        raise ValueError("added edges must stay inside the group")

    base_vals = eigenvalues(laplacian(base))
    h = from_edge_list(k, [(group.index(u), group.index(v)) for u, v in added])
    hvals = eigenvalues(laplacian(h))

    order = np.argsort(np.abs(base_vals - p), kind="stable")
    removed = order[: k - 1]
    removal_dev = float(np.max(np.abs(base_vals[removed] - p))) if k > 1 else 0.0
    keep = np.delete(base_vals, removed)
    predicted = np.sort(np.concatenate([keep, p + hvals[1:]]))

    plus = from_edge_list(base.n, edge_list(base) + added)
    direct = eigenvalues(laplacian(plus))
    dev = float(np.max(np.abs(predicted - direct)))

    desc = label or f"n={base.n} group={group} added={len(added)} edges"
    inst = CheckInstance(
        descriptor=desc,
        expected=f"surgery spectrum (k={k}, p={p})",
        observed=f"max deviation {dev:.3g}",
        passed=removal_dev <= ROUTE_TOL and dev <= ROUTE_TOL,
        deviation=max(dev, removal_dev),
    )
    return VerificationReport("thm-das", ROUTE_TOL, (inst,))


def check_theorem_das_examples() -> VerificationReport:
    chair = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
    reports = [
        check_theorem_das(
            tkst_tree(2, 3, 2),
            group=(3, 4, 5),
            added_edges=[(3, 4), (3, 5), (4, 5)],
            label="T(2,3,2), clique on the 3 pendants at one end",
        ),
        check_theorem_das(chair, group=(3,), added_edges=[], label="chair, singleton group"),
        check_theorem_das(
            star_graph(5),
            group=(1, 2, 3, 4),
            added_edges=[(u, v) for u in range(1, 5) for v in range(u + 1, 5)],
            label="K_{1,4} completed to K_5",
        ),
    ]
    return VerificationReport("thm-das", ROUTE_TOL, tuple(i for r in reports for i in r.instances))


# ---- clique arrangement closed forms ----

def check_theorem_31() -> VerificationReport:
    out = []
    for eta in (2, 3, 4):
        for mu in (3, 4, 5):
            for m in (2, 3):
                closed = windmill_product_spectrum(eta, mu, m).values()
                direct = product_laplacian_spectrum_direct(windmill_graph(eta, mu), m).values()
                desc = f"windmill:{eta},{mu} m={m}"
                out.append(_multiset_instance(f"{desc} closed vs direct product spectrum", closed, direct))
                out.append(_eq_instance(f"{desc} a(W x K_m)", float(m - 1), float(direct[1])))
    return VerificationReport("thm-3.1", ROUTE_TOL, tuple(out))


def check_theorem_32() -> VerificationReport:
    out = []
    for eta in (3, 4, 5):
        for mu in (3, 4, 5):
            for m in (2, 3):
                closed = wprime_product_spectrum(eta, mu, m).values()
                direct = product_laplacian_spectrum_direct(wprime_graph(eta, mu), m).values()
                aconn = wprime_algebraic_connectivity(eta, mu, m)
                desc = f"wprime:{eta},{mu} m={m}"
                out.append(_multiset_instance(f"{desc} closed vs direct product spectrum", closed, direct))
                out.append(_eq_instance(f"{desc} a(W' x K_m)", aconn, float(direct[1])))
    return VerificationReport("thm-3.2", ROUTE_TOL, tuple(out))


def check_theorem_33() -> VerificationReport:
    out = []
    for k in range(2, 9):
        lg, _ = line_graph(book_graph(k))
        closed = book_line_laplacian_spectrum(k).values()
        vals = eigenvalues(laplacian(lg))
        out.append(
            _multiset_instance(f"book:{k} Laplacian spectrum of L(B_k)", closed, vals, expected="closed multiset")
        )
        out.append(_eq_instance(f"book:{k} a(L(B_k))", book_aconn_bound(k, 2), float(vals[1])))
        for m in (2, 3):
            a = algebraic_connectivity(kronecker(lg, complete_graph(m)))
            out.append(
                _le_instance(f"book:{k} m={m} a(L(B_k) x K_m) within bound", book_aconn_bound(k, m), a)
            )
    return VerificationReport("thm-3.3", ROUTE_TOL, tuple(out))


def check_corollary_31(tree: Graph, m: int) -> VerificationReport:
    """Bound a(L(tree) x K_m) by (m-1) times the small root of
    x^2 - (mu+1+eta) x + eta whenever two branches of a diameter-4 tree
    carry the same pendant load mu >= 2 at a degree-eta root, eta >= 3."""
    cls = classify_diam4(tree)
    if cls is None:
        raise ValueError("tree does not match the diameter-4 pattern")
    eta, xs = cls
    if eta < 3:
        raise ValueError("needs a root of degree >= 3")
    mus = sorted({x for x in xs if x >= 2 and xs.count(x) >= 2})
    if not mus:
        raise ValueError("needs two equal branch loads >= 2")
    a = a_beta_m(tree, m)
    out = []
    for mu in mus:
        bound = wprime_algebraic_connectivity(eta, mu + 1, m)
        out.append(_le_instance(f"diam4 eta={eta} xs={xs} m={m} mu={mu}: a within (m-1)-scaled root", bound, a))
        literal = wprime_algebraic_connectivity(eta, mu + 1, 2)  # unscaled small root
        inst = _le_instance(
            f"diam4 eta={eta} xs={xs} m={m} mu={mu}: literal unscaled bound", literal, a, informational=True
        )
        out.append(replace(inst, expected=inst.expected + " (as printed, no (m-1) factor)"))
    return VerificationReport("cor-3.1", ROUTE_TOL, tuple(out))


def check_corollary_31_examples() -> VerificationReport:
    instances = []
    for xs in ((2, 2, 1), (2, 2, 2), (2, 2, 0)):
        r = check_corollary_31(diam4_tree(3, xs), m=2)
        instances.extend(r.instances)
    # the equal-load tree is the W' pre-image: the bound is attained
    tree = diam4_tree(3, (2, 2, 2))
    instances.append(
        _eq_instance(
            "diam4 eta=3 xs=(2,2,2) m=2: bound attained at the W'(3,3) pre-image",
            wprime_algebraic_connectivity(3, 3, 2),
            a_beta_m(tree, 2),
        )
    )
    return VerificationReport("cor-3.1", ROUTE_TOL, tuple(instances))


# ---- the numeric table ----

# fixture rows: (name, edges, printed a, printed a(beta_m) for m=2..7,
# columns excluded from assertion). "a" flags the first column, integers
# flag the matching m. Three rows carry arithmetic slips in print:
#   r09's last three cells repeat r02's; its first four happen to be right
#       because the third leg of the (2,2,2) spider does not move the
#       antisymmetric eigenvector living on the other two legs.
#   r10's last three cells are (m-1) times the *rounded* first cell
#       (0.43*4 = 1.72 etc.); the true values use the unrounded 0.4384.
#   r11's last two cells continue with +0.43 steps where the true
#       progression steps by 0.6313.
_TABLE2 = (
    ("r01 n=5", ((0, 1), (1, 2), (2, 3), (2, 4)), 0.519, (0.43, 1.72, 2.82, 3.87, 4.89, 5.91), ()),
    ("r02 n=6", ((0, 1), (1, 2), (2, 3), (3, 4), (3, 5)), 0.325, (0.224, 1.037, 1.556, 2.075, 2.59, 3.112), ()),
    ("r03 n=6", ((0, 1), (1, 2), (1, 3), (2, 4), (3, 5)), 0.381, (0.381, 1.39, 2.09, 2.78, 3.486, 4.18), ()),
    ("r04 n=6", ((0, 1), (1, 2), (2, 3), (2, 4), (2, 5)), 0.486, (0.627, 1.824, 2.88, 3.91, 4.93, 5.94), ()),
    ("r05 n=6 T(1,2,2)", ((0, 4), (0, 5), (0, 1), (1, 2), (1, 3)), 0.438, (1, 2, 3, 4, 5, 6), ()),
    ("r06 n=7", ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6)), 0.225, (0.13, 0.649, 0.974, 1.299, 1.62, 1.944), ()),
    ("r07 n=7", ((0, 3), (1, 2), (2, 3), (2, 4), (4, 5), (5, 6)), 0.260, (0.220, 0.826, 1.23, 1.652, 2.065, 2.478), ()),
    ("r08 n=7", ((0, 1), (1, 2), (2, 3), (3, 4), (3, 5), (3, 6)), 0.296, (0.28, 0.9717, 1.45, 1.943, 2.42, 2.91), ()),
    ("r09 n=7 spider", ((0, 1), (1, 2), (1, 3), (2, 4), (3, 5), (0, 6)), 0.381, (0.381, 1.39, 2.09, 2.075, 2.59, 3.112), ("a", 2, 3, 4, 5, 6, 7)),
    ("r10 n=7 T(2,2,2)", ((0, 1), (1, 2), (2, 3), (2, 4), (0, 5), (0, 6)), 0.267, (0.43, 0.876, 1.31, 1.72, 2.15, 2.58), (5, 6, 7)),
    ("r11 n=7", ((0, 5), (0, 1), (1, 2), (1, 3), (4, 6), (0, 6)), 0.322, (0.45, 1.26, 1.89, 2.52, 2.95, 3.38), (6, 7)),
    ("r12 n=7", ((0, 3), (1, 2), (2, 3), (2, 4), (4, 5), (2, 6)), 0.381, (0.581, 1.52, 2.29, 3.055, 3.81, 4.58), ()),
    ("r13 n=7", ((0, 1), (1, 2), (2, 3), (2, 4), (2, 5), (2, 6)), 0.466, (0.72, 1.86, 2.91, 3.93, 4.94, 5.95), ()),
    ("r14 n=7 T(1,2,3)", ((0, 4), (0, 5), (0, 1), (1, 2), (1, 3), (1, 6)), 0.398, (1, 2, 3, 4, 5, 6), ()),
)
_TABLE2_TOL = 0.01  # the table's print precision


def reproduce_table2() -> VerificationReport:
    """Recompute the survey table: a(X) and a(L(X) x K_m) for m = 2..7 over
    its fourteen small trees, comparing against the printed values at the
    print precision.

    Cells whose printed values carry identifiable arithmetic or copy slips
    (see the fixture notes) are reported with both numbers but excluded
    from the verdict; the computed side of every cell is still backed by
    the decomposed-vs-direct agreement assertion inside a_beta_m.
    """
    out = []
    for name, edges, a_printed, betas, skip in _TABLE2:
        tree = from_edge_list(1 + len(edges), edges)
        a = algebraic_connectivity(tree)
        out.append(_eq_instance(f"{name} a(X)", float(a_printed), a, informational="a" in skip, tol=_TABLE2_TOL))
        for m, printed in zip(range(2, 8), betas):
            val = a_beta_m(tree, m)
            out.append(
                _eq_instance(f"{name} a(beta_{m})", float(printed), val, informational=m in skip, tol=_TABLE2_TOL)
            )
    return VerificationReport("table-2", _TABLE2_TOL, tuple(out))


# ---- registry ----

# claim id -> check; table-2 compares at its print precision, the rest at ROUTE_TOL
_CLAIMS = {
    "thm-2.1": check_theorem_21,
    "thm-2.1-cases": check_case_bounds_thm21,
    "cor-2.1": check_corollary_21,
    "thm-2.3": check_theorem_23,
    "thm-das": check_theorem_das_examples,
    "thm-3.1": check_theorem_31,
    "thm-3.2": check_theorem_32,
    "thm-3.3": check_theorem_33,
    "cor-3.1": check_corollary_31_examples,
    "table-2": reproduce_table2,
}

ALL_CLAIMS = tuple(_CLAIMS)


def run_claim(claim_id: str, max_n: int = 8, m: int | None = None) -> list[VerificationReport]:
    """Run the named claim over its fixed instance ranges.

    max_n and m narrow the thm-2.1 tree sweep (m=None runs m = 2 and 3);
    other claims ignore them.
    """
    check = _CLAIMS.get(claim_id)
    if check is None:
        raise ValueError(f"unknown claim {claim_id!r}")
    if claim_id == "thm-2.1":
        return [check(max_n, mm) for mm in ((2, 3) if m is None else (m,))]
    return [check()]
