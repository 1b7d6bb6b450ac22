"""In-memory spans around spectree's public functions, and the per-layer
metrics computed from them.

A Tracer wraps every public function of the spectree modules and rebinds
each module attribute that holds one. The package copies bindings with
`from .eigen import eigenvalues`, so the same function object sits in
several module namespaces; every copy is rebound, and every copy is put
back when the tracer exits. Spans are kept in a list and written out by the
caller at the end of the run.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import statistics
import sys
from time import perf_counter

import numpy as np

MODULES = ("graphs", "families", "eigen", "spectra", "closedform", "verify", "cli")

# Claim ids at the commit that defined the benchmark; one busy-time metric
# each. A claim that disappears reports 0.
CLAIMS = (
    "thm-2.1",
    "thm-2.1-cases",
    "cor-2.1",
    "thm-2.3",
    "thm-das",
    "thm-3.1",
    "thm-3.2",
    "thm-3.3",
    "cor-3.1",
    "table-2",
)

# Layer groups: metric prefix -> wrapped functions, as "module.name".
GROUPS = {
    "eigen.values": ("eigen.eigenvalues", "eigen.min_eigenvalue"),
    "eigen.vectors": ("eigen.eigensystem",),
    "eigen.group": (
        "eigen.group_spectrum",
        "eigen.spectrum_from_pairs",
        "eigen.scale",
        "eigen.union_with_multiplicity",
        "eigen.spectra_equal",
    ),
    "families.enum": ("families.enumerate_free_trees",),
    "families.canon": ("families.tree_canonical_form",),
    "families.line_graph": ("families.line_graph",),
    "families.kronecker": ("families.kronecker",),
    "families.build": (
        "families.build",
        "families.parse_family",
        "families.path_graph",
        "families.star_graph",
        "families.complete_graph",
        "families.tkst_tree",
        "families.diam4_tree",
        "families.windmill_graph",
        "families.wprime_graph",
        "families.book_graph",
        "families.cartesian",
        "families.beta_m",
    ),
    "graphs.construct": ("graphs.from_edge_list",),
    "graphs.predicates": (
        "graphs.is_tree",
        "graphs.is_connected",
        "graphs.is_bipartite",
        "graphs.is_star",
        "graphs.is_complete",
        "graphs.degrees",
        "graphs.min_degree",
    ),
    "graphs.blocks": (
        "graphs.block_decomposition",
        "graphs.is_restricted",
        "graphs.blocks_all_complete",
        "graphs.block_structure_is_star",
    ),
    "graphs.edge_list": ("graphs.edge_list",),
    "spectra.assembly": ("spectra.laplacian", "spectra.q_matrix", "spectra.adjacency_matrix"),
    "spectra.a_beta_m": ("spectra.a_beta_m",),
    "spectra.product_spectrum": ("spectra.product_spectrum",),
    "spectra.lift": ("spectra.eigvec_lift_check",),
    "closedform": "closedform.*",
    "verify.claim": ("verify.run_claim",),
}

SOLVES = GROUPS["eigen.values"] + GROUPS["eigen.vectors"]
SIZE_BUCKETS = (("n_le16", 0, 16), ("n17_64", 17, 64), ("n_gt64", 65, sys.maxsize))

# Metric name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER = {}


def _declare():
    def add(name, unit):
        PER_LAYER[name] = unit

    for g in ("eigen.values", "eigen.vectors"):
        add(f"{g}.calls", "count")
        add(f"{g}.busy_s", "s")
    for b, _, _ in SIZE_BUCKETS:
        add(f"eigen.solve.{b}.calls", "count")
        add(f"eigen.solve.{b}.busy_s", "s")
    add("eigen.solve.n3_sum", "count")
    add("eigen.solve.s_per_gn3", "s/Gn3")
    add("eigen.solve.distinct_frac", "ratio")
    add("eigen.group.calls", "count")
    add("eigen.group.busy_s", "s")
    add("families.enum.calls", "count")
    add("families.enum.busy_s", "s")
    add("families.enum.trees", "count")
    add("families.canon.calls", "count")
    add("families.canon.busy_s", "s")
    add("families.enum.yield", "ratio")
    for g in ("families.line_graph", "families.kronecker"):
        add(f"{g}.calls", "count")
        add(f"{g}.busy_s", "s")
    add("families.build.busy_s", "s")
    for g in ("graphs.construct", "graphs.predicates", "graphs.blocks"):
        add(f"{g}.calls", "count")
        add(f"{g}.busy_s", "s")
    add("graphs.edge_list.busy_s", "s")
    add("spectra.assembly.calls", "count")
    add("spectra.assembly.busy_s", "s")
    for g in ("spectra.a_beta_m", "spectra.product_spectrum", "spectra.lift"):
        add(f"{g}.calls", "count")
        add(f"{g}.self_s", "s")
    add("spectra.route_gap_max", "abs")
    add("closedform.calls", "count")
    add("closedform.busy_s", "s")
    for cid in CLAIMS:
        add(f"verify.claim.{cid}.busy_s", "s")
    add("verify.instances", "count")
    add("verify.worst_margin", "ratio")
    for mod in MODULES:
        add(f"{mod}.self_s", "s")
    add("bench.self_s", "s")
    add("trace.spans", "count")
    add("trace.self_sum_frac", "ratio")
    add("trace.overhead_frac", "ratio")
    add("machine.ref_s", "s")


_declare()


@functools.lru_cache(maxsize=None)
def _group_of(qualname: str) -> str | None:
    for group, members in GROUPS.items():
        if qualname in members or members == qualname.split(".")[0] + ".*":
            return group
    return None


# ---- attributes recorded on spans ----

def _matrix_attrs(args, kwargs):
    mat = args[0] if args else kwargs.get("m")
    arr = np.ascontiguousarray(mat, dtype=np.float64)
    digest = hashlib.blake2b(arr.tobytes(), digest_size=16)
    digest.update(repr(arr.shape).encode())
    return {"n": int(arr.shape[0]), "digest": digest.hexdigest()}


def _claim_attrs(args, kwargs):
    return {"claim": args[0] if args else kwargs.get("claim_id")}


def _route_gap(result):
    a, b = result.direct.values(), result.decomposed.values()
    gap = float(np.max(np.abs(a - b))) if a.shape == b.shape and a.size else 0.0
    return {"route_gap": gap}


BEFORE = {name: _matrix_attrs for name in SOLVES}
BEFORE["verify.run_claim"] = _claim_attrs
AFTER = {
    "families.enumerate_free_trees": lambda result: {"trees": len(result)},
    "spectra.product_spectrum": _route_gap,
}


class Tracer:
    """Wraps spectree's public functions while installed.

    Use as a context manager: entry installs the wrappers, exit restores
    every rebound attribute. With wrap=False it wraps nothing and records
    nothing, for untraced passes.
    """

    def __init__(self, wrap: bool = True):
        self.wrap = wrap
        self.spans: list = []
        self.item = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def reset(self):
        """Drop recorded spans; call between passes, never inside one."""
        self.spans = []
        self._stack = []

    # ---- installation ----

    def _targets(self):
        out = {}
        if not self.wrap:
            return out
        for mod_name in MODULES:
            mod = sys.modules[f"spectree.{mod_name}"]
            names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for name in names:
                fn = getattr(mod, name, None)
                qual = f"{mod_name}.{name}"
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    out[fn] = qual
        return out

    def __enter__(self):
        targets = self._targets()
        wrappers = {fn: self._wrap(fn, qual) for fn, qual in targets.items()}
        spectree_mods = [
            m for k, m in list(sys.modules.items()) if k == "spectree" or k.startswith("spectree.")
        ]
        for mod in spectree_mods:
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((mod, name, value))
                    setattr(mod, name, wrappers[value])
        return self

    def __exit__(self, *exc):
        for mod, name, value in reversed(self._saved):
            setattr(mod, name, value)
        self._saved = []
        return False

    def _wrap(self, fn, qualname):
        before = BEFORE.get(qualname)
        after = AFTER.get(qualname)
        tracer = self  # spans and stack are looked up per call: reset() rebinds them

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = before(args, kwargs) if before else None
            spans = tracer.spans
            stack = tracer._stack
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = [parent, qualname, t0, t1, tracer.item, attrs]
            if after:
                extra = after(result)
                spans[sid][5] = {**(attrs or {}), **extra}
            return result

        wrapper.__bench_wrapped__ = fn
        return wrapper


# ---- metrics from spans ----

def layer_metrics(spans, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass lasting wall_s seconds."""
    n = len(spans)
    groups = [_group_of(s[1]) for s in spans]
    child = [0.0] * n
    for s in spans:
        if s[0] >= 0:
            child[s[0]] += s[3] - s[2]

    def outermost(i):
        # True when no ancestor span belongs to the same group
        g = groups[i]
        p = spans[i][0]
        while p >= 0:
            if groups[p] == g:
                return False
            p = spans[p][0]
        return True

    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_by_group: dict[str, float] = {}
    self_by_module = {m: 0.0 for m in MODULES}
    solves = []  # (n, digest, seconds) of outermost eigensolves
    root_time = 0.0
    m = {}
    trees = 0
    gap = 0.0
    for i, (parent, name, t0, t1, _item, attrs) in enumerate(spans):
        dur = t1 - t0
        own = dur - child[i]
        self_by_module[name.split(".")[0]] += own
        if parent < 0:
            root_time += dur
        g = groups[i]
        if g is not None:
            self_by_group[g] = self_by_group.get(g, 0.0) + own
            if outermost(i):
                calls[g] = calls.get(g, 0) + 1
                busy[g] = busy.get(g, 0.0) + dur
                if g in ("eigen.values", "eigen.vectors") and attrs:
                    solves.append((attrs["n"], attrs["digest"], dur))
        if attrs:
            trees += attrs.get("trees", 0)
            gap = max(gap, attrs.get("route_gap", 0.0))

    for g in ("eigen.values", "eigen.vectors", "eigen.group", "families.enum", "families.canon",
              "families.line_graph", "families.kronecker", "graphs.construct",
              "graphs.predicates", "graphs.blocks", "spectra.assembly", "closedform"):
        m[f"{g}.calls"] = calls.get(g, 0)
        m[f"{g}.busy_s"] = busy.get(g, 0.0)
    for g in ("families.build", "graphs.edge_list"):
        m[f"{g}.busy_s"] = busy.get(g, 0.0)
    for g in ("spectra.a_beta_m", "spectra.product_spectrum", "spectra.lift"):
        m[f"{g}.calls"] = calls.get(g, 0)
        m[f"{g}.self_s"] = self_by_group.get(g, 0.0)
    for b, lo, hi in SIZE_BUCKETS:
        sel = [s for s in solves if lo <= s[0] <= hi]
        m[f"eigen.solve.{b}.calls"] = len(sel)
        m[f"eigen.solve.{b}.busy_s"] = sum(s[2] for s in sel)
    n3 = sum(s[0] ** 3 for s in solves)
    m["eigen.solve.n3_sum"] = n3
    m["eigen.solve.s_per_gn3"] = sum(s[2] for s in solves) / (n3 / 1e9) if n3 else 0.0
    m["eigen.solve.distinct_frac"] = len({s[1] for s in solves}) / len(solves) if solves else 0.0
    m["families.enum.trees"] = trees
    canon = calls.get("families.canon", 0)
    m["families.enum.yield"] = trees / canon if canon else 0.0
    m["spectra.route_gap_max"] = gap
    per_claim = {}
    for _parent, name, t0, t1, _item, attrs in spans:
        if name == "verify.run_claim":
            per_claim[attrs["claim"]] = per_claim.get(attrs["claim"], 0.0) + t1 - t0
    for cid in CLAIMS:
        m[f"verify.claim.{cid}.busy_s"] = per_claim.get(cid, 0.0)
    for mod in MODULES:
        m[f"{mod}.self_s"] = self_by_module[mod]
    m["bench.self_s"] = wall_s - root_time
    m["trace.spans"] = n
    m["trace.self_sum_frac"] = sum(self_by_module.values()) / wall_s if wall_s > 0 else 0.0
    return m


def median_metrics(per_pass: list[dict]) -> dict:
    """Median of each metric over passes."""
    return {k: statistics.median(d[k] for d in per_pass) for k in per_pass[0]}
