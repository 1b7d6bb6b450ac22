"""Hypothesis strategies shared by the property tests: general graphs on
at most 9 vertices, connected or not."""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st

from spectree.families import complete_graph, kronecker, line_graph
from spectree.graphs import from_edge_list

# reproducible examples; no per-example deadline, since an example's time
# depends on the graph drawn
PROPERTY = settings(derandomize=True, deadline=None)


@st.composite
def edge_graphs(draw, n, max_edges=None):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=max_edges)) if pairs else []
    return from_edge_list(n, edges)


@st.composite
def general_graphs(draw):
    """Graphs on at most 9 vertices, connected or not, built from an edge
    list or straight from an adjacency matrix."""
    kind = draw(st.sampled_from(("edges", "line", "kron", "complete")))
    if kind == "complete":
        return complete_graph(draw(st.integers(1, 9)))
    if kind == "kron":
        a = draw(st.integers(1, 3))
        return kronecker(draw(edge_graphs(a)), draw(edge_graphs(draw(st.integers(1, 9 // a)))))
    if kind == "line":
        g = draw(edge_graphs(draw(st.integers(2, 9)), max_edges=9))
        if g.edge_count:
            return line_graph(g)[0]  # else no line graph: fall through
    return draw(edge_graphs(draw(st.integers(1, 9))))


@st.composite
def graph_stacks(draw):
    """One to five graphs of one order n <= 9, as a list."""
    n = draw(st.integers(1, 9))
    return draw(st.lists(edge_graphs(n), min_size=1, max_size=5))
