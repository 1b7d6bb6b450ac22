"""The benchmark's workloads: verify-all, product-mix and tree-enum.

Each workload makes its inputs from the seed, runs one pass over them
through spectree's public API, and checks the pass's outputs against the
references in oracles.py. A pass is a sequence of timed units (the
`verify all` call, an `enumerate` call, a product-mix slot); `run` returns
one record per unit that starts
`(key, wall_s, cpu_s)`. Only the calls into spectree are timed. Inputs
depend only on the seed: every pass of a run gets the same ones, and run.py
runs each pass in a fresh interpreter, so no pass can reuse another's work.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
import traceback
from time import perf_counter, process_time

import spectree
import spectree.cli as cli

import oracles


def _call_cli(argv) -> tuple[int, str]:
    """Run the CLI in-process with stdout captured; a raise counts as exit -1."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception:  # a crashing item must fail its checks, not end the run
        traceback.print_exc(file=sys.stderr)
        code = -1
    return code, buf.getvalue()


def _timed_cli(key, argv):
    """(key, wall_s, cpu_s, exit code, stdout) of one CLI call."""
    c0, t0 = process_time(), perf_counter()
    code, text = _call_cli(argv)
    return key, perf_counter() - t0, process_time() - c0, code, text


class VerifyAll:
    """`spectree verify all --format json`, the command users run; the
    call is the pass's one timed unit.

    An item is one check instance; every instance is printed when the
    command returns. The seed shuffles only the order of the claims, which
    the CLI reads from its ALL_CLAIMS binding.
    """

    name = "verify-all"
    ARGV = ("verify", "all", "--format", "json")

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self):
        claims = list(spectree.verify.ALL_CLAIMS)
        random.Random(f"{self.name}:{self.seed}").shuffle(claims)
        return tuple(claims)

    def run(self, claims, tracer):
        saved = getattr(cli, "ALL_CLAIMS", None)
        if saved is None:  # a CLI without that binding runs its own order
            return [_timed_cli("all", self.ARGV)]
        cli.ALL_CLAIMS = claims
        try:
            return [_timed_cli("all", self.ARGV)]
        finally:
            cli.ALL_CLAIMS = saved

    def check(self, claims, outputs):
        ((_key, _wall, _cpu, code, text),) = outputs
        attempted, failed, summary = oracles.check_verify(code, text)
        return attempted, failed, {**summary, "units": {"all": (attempted, failed == 0)}}


class TreeEnum:
    """`spectree enumerate --n k --format json` for k = 1..13 in seeded
    order. Each call is a timed unit. An item is one emitted tree; no
    eigensolve runs."""

    name = "tree-enum"
    MAX_N = len(oracles.A000055)

    def __init__(self, seed: int):
        self.seed = seed
        self._verdicts: dict[int, tuple[str, tuple[int, int]]] = {}

    def inputs(self):
        ns = list(range(1, self.MAX_N + 1))
        random.Random(f"{self.name}:{self.seed}").shuffle(ns)
        return tuple(ns)

    def run(self, ns, tracer):
        out = []
        for n in ns:
            tracer.item = n
            out.append(_timed_cli(n, ["enumerate", "--n", str(n), "--format", "json"]))
        tracer.item = None
        return out

    def check(self, ns, outputs):
        """Every tree of a call is printed when the call returns, so the
        call is its trees' unit."""
        attempted = failed = 0
        units = {}
        for n, _wall, _cpu, code, text in outputs:
            if code != 0:
                verdict = (oracles.A000055[n - 1],) * 2
            else:
                cached = self._verdicts.get(n)
                if cached is None or cached[0] != text:
                    cached = (text, oracles.check_enumeration(n, text))
                    self._verdicts[n] = cached
                verdict = cached[1]
            attempted += verdict[0]
            failed += verdict[1]
            units[n] = (verdict[0], verdict[1] == 0)
        return attempted, failed, {"units": units}


class ProductItem:
    """One (graph, m) input for slot `slot`. The program receives
    `base_edges` on `base_n` vertices, and takes the line graph first when
    `line` is set; `edges` is the benchmark's own edge list of the resulting
    graph, on `n` vertices, in the order spectree's line graph uses."""

    __slots__ = ("slot", "kind", "m", "base_n", "base_edges", "line", "n", "edges")

    def __init__(self, slot, kind, m, base_n, base_edges, line):
        self.slot, self.kind, self.m, self.base_n, self.line = slot, kind, m, base_n, line
        self.base_edges = tuple(sorted(tuple(sorted(e)) for e in base_edges))
        if line:
            self.n, self.edges = oracles.line_graph_edges(self.base_edges)
        else:
            self.n, self.edges = base_n, list(self.base_edges)

    def build(self):
        """The item's graph, made through spectree's public constructors."""
        g = spectree.from_edge_list(self.base_n, self.base_edges)
        return spectree.line_graph(g)[0] if self.line else g


def _structured_params(kind: str, n: int) -> list[tuple[int, ...]]:
    """Parameters of the windmills, W' graphs or book line graphs on n vertices."""
    if kind == "windmill":
        return [(eta, (n - 1) // eta + 1) for eta in range(2, n) if (n - 1) % eta == 0 and (n - 1) // eta >= 2]
    if kind == "wprime":
        return [(eta, n // eta) for eta in range(2, n) if n % eta == 0 and n // eta >= 2]
    return [((n - 1) // 3,)] if n % 3 == 1 and n >= 4 else []


def _slots():
    """(n, m, kind, params) per slot. Product orders n * m are log-spaced
    12..72 and m cycles through 2, 3, 4; kinds cycle through KINDS, and a
    family with no member on n vertices hands its slot to a random kind."""
    out = []
    for i in range(100):
        m = (2, 3, 4)[i % 3]
        n = max(6, round(12 * 6 ** (i / 99) / m))
        kind = ProductMix.KINDS[i % len(ProductMix.KINDS)]
        params = None
        if kind not in ("gnp", "prufer-line"):
            choices = _structured_params(kind, n)
            if choices:
                params = choices[len(choices) // 2]
            else:
                kind = ("gnp", "prufer-line")[i % 2]
        out.append((n, m, kind, params))
    return tuple(out)


class ProductMix:
    """100 (graph, m) items per pass: `product_spectrum` then
    `eigvec_lift_check`. Graphs are connected G(n, 0.3), line graphs of
    Prufer trees, windmills, W' graphs and book line graphs.

    Every slot's size, m, kind and family parameters are fixed, the same on
    every seed, so the work per pass does not swing with the draw; a slot
    is a timed unit. The seed draws the random graphs and relabels the
    family graphs with a random vertex permutation, so no two items of a
    pass share a matrix.
    """

    name = "product-mix"
    KINDS = ("gnp", "prufer-line", "windmill", "wprime", "book-line")
    GNP_P = 0.3
    MAX_DRAWS = 1000

    def __init__(self, seed: int):
        self.seed = seed

    def _draw(self, rng, slot, n, m, kind, params):
        if kind == "gnp":
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < self.GNP_P]
            if not oracles.is_connected(n, edges):
                return None
            return ProductItem(slot, kind, m, n, edges, line=False)
        if kind == "prufer-line":
            seq = [rng.randrange(n + 1) for _ in range(n - 1)]
            return ProductItem(slot, kind, m, n + 1, oracles.prufer_tree_edges(seq, n + 1), line=True)
        if kind == "windmill":
            base_n, edges = oracles.windmill_edges(*params)
        elif kind == "wprime":
            base_n, edges = oracles.wprime_edges(*params)
        else:
            base_n, edges = oracles.book_edges(*params)
        perm = list(range(base_n))
        rng.shuffle(perm)
        return ProductItem(slot, kind, m, base_n, [(perm[u], perm[v]) for u, v in edges],
                           line=kind == "book-line")

    def inputs(self):
        rng = random.Random(f"{self.name}:{self.seed}")
        items, seen = [], set()
        for slot, params in enumerate(SLOTS):
            for _ in range(self.MAX_DRAWS):
                item = self._draw(rng, slot, *params)
                if item is not None and frozenset(item.edges) not in seen:
                    break
            else:
                raise RuntimeError(f"no distinct connected draw for slot {slot}")
            seen.add(frozenset(item.edges))
            items.append(item)
        rng.shuffle(items)
        return items

    def run(self, items, tracer):
        out = []
        for item in items:
            tracer.item = item.slot
            c0, t0 = process_time(), perf_counter()
            try:
                g = item.build()
                res = spectree.product_spectrum(g, item.m)
                lift = spectree.eigvec_lift_check(g, item.m)
            except Exception:  # a raising item fails its check and keeps the run going
                traceback.print_exc(file=sys.stderr)
                res, lift = None, False
            out.append((item.slot, perf_counter() - t0, process_time() - c0, res, lift))
        tracer.item = None
        return out

    def check(self, items, outputs):
        units = {}
        for item, (_slot, _wall, _cpu, res, lift) in zip(items, outputs):
            ok = res is not None and lift is True
            if ok:
                ref = oracles.product_laplacian_spectrum(oracles.adjacency(item.n, item.edges), item.m)
                ok = oracles.spectrum_matches(res.direct.values(), ref)
            units[item.slot] = (1, ok)
        failed = sum(not ok for _n, ok in units.values())
        return len(items), failed, {"units": units}


SLOTS = _slots()
WORKLOADS = {w.name: w for w in (VerifyAll, ProductMix, TreeEnum)}
