"""Brute-force auditor for the optimized solvers.

One enumerator lists every partition of V into exactly k independent
classes (b-classes when asked) as a restricted-growth string, pruning only
on propriety of the partial string.  The oracle scans k with it, takes a
sum's extremum over the class sizes of each string, and labels the winning
string by `optimal_labeling`.  Slow on purpose: it shares no pruning logic
with the optimized search it audits.  Intended for graphs of at most ~18
vertices; b-quantities get expensive well before that.
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

    chi scans k from 1 up, phi from max degree + 1 down (phi(G) <= max
    degree + 1, and a b-colouring with chi(G) colours exists), to the first
    k with a partition.  A sum lists every partition at the caller's `k`,
    else at its own scan's k, never at one borrowed from the optimized
    solver, and keeps the first string whose sorted class sizes are extremal.
    A caller's k outside 1..n, with no such partition, or for a scan, is a
    ValueError.
    """
    if quantity not in QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}")
    if g.n == 0:
        raise ValueError("colouring quantities of the empty graph are undefined here")
    is_sum, need_b = "sum" in quantity, quantity.startswith("b_")
    if k is not None and (not is_sum or type(k) is not int or not 1 <= k <= g.n):
        raise ValueError(f"k must be an int in 1..{g.n} and {quantity} a sum, got k = {k!r}")
    tracker = _Tracker(budget or SearchBudget())
    if k is None:
        for k in range(g.max_degree() + 1, 0, -1) if need_b else range(1, g.n + 1):
            found = _partitions(g, k, need_b, tracker, first=True)
            if found:
                break
        else:
            raise RuntimeError("the scan found no k with a partition")
    if is_sum:
        found = _partitions(g, k, need_b, tracker)
        if not found:
            raise ValueError(f"no {'b-' if need_b else ''}partition into k = {k} classes exists")
    direction = quantity[-3:] if is_sum else "min"

    def value(labels: list[int]) -> int:
        sizes = sorted(map(labels.count, range(k)), reverse=direction == "min")
        return sum(i * s for i, s in enumerate(sizes, start=1))

    # min and max each return the first extremal string of the list
    labels = (min if direction == "min" else max)(found, key=value)
    witness = optimal_labeling(labels, direction)
    return SumResult(quantity, value(labels) if is_sum else k, witness, tracker.nodes, tracker.elapsed_ms())


def _tick(tracker: _Tracker) -> None:
    """Count one node on the solvers' tracker; raise if the budget is spent.
    The budget is read only at the count `tracker.check` last asked for."""
    tracker.nodes += 1
    if tracker.nodes == tracker.alarm:
        tracker.alarm = tracker.check()


def _partitions(g: Graph, k: int, need_b: bool, tracker: _Tracker, first: bool = False) -> list[list[int]]:
    """The restricted-growth string (vertex v in class s[v]) of every
    partition of V(g) into exactly k independent classes, in lexicographic
    order, or only the first with `first`.  With `need_b` each class must
    hold a b-vertex, one adjacent to every other class."""
    n, adj = g.n, g.adj
    masks = [0] * k
    assign = [0] * n
    found: list[list[int]] = []

    def is_b() -> bool:
        for c, m in enumerate(masks):
            while m:
                low = m & -m
                aw = adj[low.bit_length() - 1]
                m ^= low
                if all(aw & mo for co, mo in enumerate(masks) if co != c):
                    break
            else:
                return False
        return True

    def rec(v: int, used: int) -> None:
        _tick(tracker)
        if v == n:
            if used == k and (not need_b or is_b()):
                found.append(assign.copy())
            return
        if k - used > n - v:
            return
        av, vbit = adj[v], 1 << v
        for c in range(used + 1 if used < k else k):
            if not av & masks[c]:
                masks[c] |= vbit
                assign[v] = c
                rec(v + 1, used + 1 if c == used else used)
                masks[c] ^= vbit
                if first and found:
                    return

    rec(0, 0)
    return found
