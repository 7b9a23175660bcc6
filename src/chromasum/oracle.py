"""Brute-force auditor for the optimized solvers.

Enumerates every surjective k-colouring up to colour-class relabeling as a
restricted-growth string, pruning only on propriety of the partial string,
then filters (b-colourings where required), reads each string's class
sizes, and labels the winning string, a colour list, by `optimal_labeling`.  Slow on purpose: the point is that it shares no
pruning logic with the optimized search it audits.  Intended for graphs of
at most ~18 vertices; b-quantities get expensive well before that.
"""

from __future__ import annotations

from .coloring import optimal_labeling
from .graphs import Graph
from .solvers import QUANTITIES, SearchBudget, SumResult, _Tracker


def brute_force_oracle(
    g: Graph,
    quantity: str,
    k: int | None = None,
    budget: SearchBudget | None = None,
) -> SumResult:
    """Independent exhaustive computation of any solver quantity.

    For the sum quantities, `k` fixes the number of colour classes; when
    omitted it is determined by the oracle's own scan (smallest feasible k
    for chi sums, largest b-feasible k for b sums), never borrowed from the
    optimized solver.
    """
    if quantity not in QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}")
    if g.n == 0:
        raise ValueError("colouring quantities of the empty graph are undefined here")
    tracker = _Tracker(budget or SearchBudget())

    if quantity in ("chi", "b_chromatic"):
        value, labels = _scan(g, tracker, quantity == "b_chromatic")
        witness = optimal_labeling(labels, "min")
        return SumResult(quantity, value, witness, tracker.nodes, tracker.elapsed_ms())

    need_b = quantity.startswith("b_sum")
    direction = quantity.rsplit("_", 1)[1]
    if k is None:
        k = _scan(g, tracker, need_b)[0]
    value, labels = _extremal(g, k, direction, need_b, tracker)
    witness = optimal_labeling(labels, direction)
    return SumResult(quantity, value, witness, tracker.nodes, tracker.elapsed_ms())


def _tick(tracker: _Tracker) -> None:
    """Count one node on the solvers' tracker; raise if the budget is spent.
    The deadline is read only at every 1,024th node."""
    tracker.nodes += 1
    if tracker.nodes > tracker.max_nodes or not tracker.nodes & 0x3FF:
        tracker.check()


def _scan(g: Graph, tracker: _Tracker, need_b: bool) -> tuple[int, list[int]]:
    """chi(G) from 1 up, or phi(G) from max degree + 1 down, with the first
    restricted-growth string found there.  phi(G) <= max degree + 1, and a b-colouring with
    chi(G) colours always exists, so the downward scan ends at the exact
    maximum."""
    ks = range(g.max_degree() + 1, 0, -1) if need_b else range(1, g.n + 1)
    for j in ks:
        found = _first_partition(g, j, need_b, tracker)
        if found is not None:
            return j, found
    raise RuntimeError("unreachable")


def _first_partition(g: Graph, k: int, need_b: bool, tracker: _Tracker):
    hit: list[list[int]] = []

    def on_leaf(labels):
        hit.append(labels)
        return True

    _enumerate(g, k, need_b, tracker, on_leaf)
    return hit[0] if hit else None


def _extremal(g: Graph, k: int, direction: str, need_b: bool, tracker: _Tracker):
    best: list = [None, None]  # value, labels
    better = (lambda a, b: a < b) if direction == "min" else (lambda a, b: a > b)

    def on_leaf(labels):
        sizes = sorted((labels.count(c) for c in range(k)), reverse=(direction == "min"))
        value = sum(i * s for i, s in enumerate(sizes, start=1))
        if best[0] is None or better(value, best[0]):
            best[0], best[1] = value, labels
        return False

    _enumerate(g, k, need_b, tracker, on_leaf)
    if best[0] is None:
        raise RuntimeError(f"no {'b-' if need_b else ''}partition into {k} classes exists")
    return best[0], best[1]


def _enumerate(g: Graph, k: int, need_b: bool, tracker: _Tracker, on_leaf) -> None:
    """Visit every partition of V(g) into exactly k independent classes, in
    restricted-growth (lexicographic) order; classes must each hold a vertex
    adjacent to all other classes when need_b.  on_leaf gets a copy of each
    string, vertex v in class assign[v]; its returning True stops the
    enumeration."""
    n, adj = g.n, g.adj
    masks = [0] * k
    assign = [0] * n

    def is_b(used_masks) -> bool:
        for c, mc in enumerate(used_masks):
            m = mc
            while m:
                low = m & -m
                aw = adj[low.bit_length() - 1]
                m ^= low
                if all(aw & mo for co, mo in enumerate(used_masks) if co != c):
                    break
            else:
                return False
        return True

    def rec(v: int, used: int) -> bool:
        _tick(tracker)
        if v == n:
            if used != k:
                return False
            if need_b and not is_b(masks):
                return False
            return on_leaf(assign.copy())
        if k - used > n - v:
            return False
        av = adj[v]
        vbit = 1 << v
        for c in range(used + 1 if used < k else k):
            if av & masks[c]:
                continue
            masks[c] |= vbit
            assign[v] = c
            if rec(v + 1, used + 1 if c == used else used):
                return True
            masks[c] ^= vbit
        return False

    rec(0, 0)
