"""Exact solvers for the six colouring quantities.

chi / chi_sum_* search proper colourings with exactly chi(G) colours;
b_chromatic / b_sum_* search b-colourings with exactly phi(G) colours.
Every search runs one enumerator over unlabeled partitions into exactly k
independent classes (b-feasible classes for the b quantities) in
restricted-growth order: the lowest-numbered vertex of each new class
exceeds the lowest-numbered vertex of the previous class.  Colour indices
are assigned post hoc, which shrinks the space by k! and keeps witnesses
reproducible: among equal-value partitions the lexicographically first
restricted-growth string wins.

Each node of the enumerator costs O(k + eligible + deg(v)): the bound's
min-labelled weight is carried down the search with a histogram `above` of
the class sizes instead of re-sorting them, and b-feasibility reads
per-vertex counts `seen` of the opened classes each vertex sees through one
per-node mask `good` (see `_partition`).

A graph that carries a symmetry group (the families carry the dihedral
group D_n of their rings) is searched once per orbit: a partition whose
restricted-growth string is not lex-least among its images under the group
is cut (lex-leader symmetry breaking; Crawford, Ginsberg, Luks & Roy, KR
1996).  Every image of a partition has the same class sizes and the same
b-property, so the lexicographically first partition of least value, or
the first found by a scan, is the lex-leader of its orbit and is never
cut: values and witnesses are those of the search without the cut.

Every quantity is one scan over k that stops at the first k with a
partition: chi(G) is the least k from 1 up, phi(G) the largest k from m(G)
down.  chi and b_chromatic search each k for the first partition, a sum
for the least min sum.  No partition exists at the k the scan passes, so
there the two searches walk the same tree; a sum is its scan's last
search.  Only the min is searched: relabelling a partition in reverse
colour order maps its min labelling onto its max labelling, so the two sums
add up to (k+1)*|V|, and each *_sum_max is the max labelling of the
partition its *_sum_min finds: six quantities are read off four searches
(`SEARCH_OF`).  A witness shows its colouring sum for a sum quantity and
its k for chi and b_chromatic (`witness_value`).

A budget bounds the nodes and wall time of one call, its scan included;
exhausting either raises, it never degrades to a wrong answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .coloring import Coloring, coloring_sum, optimal_labeling
from .graphs import Graph

SOLVER_VERSION = "4"

# The search each quantity's row is read from.  A *_sum_max row is its
# *_sum_min search relabelled (`max_twin`); every other quantity is a search.
SEARCH_OF = {
    "chi": "chi",
    "chi_sum_min": "chi_sum_min",
    "chi_sum_max": "chi_sum_min",
    "b_chromatic": "b_chromatic",
    "b_sum_min": "b_sum_min",
    "b_sum_max": "b_sum_min",
}

QUANTITIES = tuple(SEARCH_OF)


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = 100_000_000
    max_time: float = 300.0


class BudgetExhausted(Exception):
    """A solve call ran out of budget after `nodes_explored` nodes and
    `elapsed_ms` milliseconds."""

    def __init__(self, message: str, nodes_explored: int = 0, elapsed_ms: int = 0):
        super().__init__(message)
        self.nodes_explored = nodes_explored
        self.elapsed_ms = elapsed_ms


@dataclass(frozen=True)
class SumResult:
    quantity: str
    value: int
    witness: Coloring
    nodes_explored: int
    elapsed_ms: int

    def to_json(self) -> dict:
        return {
            "quantity": self.quantity,
            "value": self.value,
            "witness": self.witness.to_json(),
            "nodes": self.nodes_explored,
            "millis": self.elapsed_ms,
        }

    @classmethod
    def from_json(cls, data: dict) -> "SumResult":
        return cls(
            quantity=data["quantity"],
            value=int(data["value"]),
            witness=Coloring.from_json(data["witness"]),
            nodes_explored=int(data["nodes"]),
            elapsed_ms=int(data["millis"]),
        )


class _Tracker:
    """Shared node/time accounting for one solve call, nested phases included."""

    __slots__ = ("max_nodes", "deadline", "nodes", "t0")

    def __init__(self, budget: SearchBudget):
        self.max_nodes = budget.max_nodes
        self.t0 = time.monotonic()
        self.deadline = self.t0 + budget.max_time
        self.nodes = 0

    def tick(self):
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise BudgetExhausted("node budget exhausted", self.nodes, self.elapsed_ms())
        if not (self.nodes & 0x3FF) and time.monotonic() > self.deadline:
            raise BudgetExhausted("time budget exhausted", self.nodes, self.elapsed_ms())

    def elapsed_ms(self) -> int:
        return int((time.monotonic() - self.t0) * 1000)


def m_bound(g: Graph) -> int:
    """m(G): largest i such that G has >= i vertices of degree >= i-1.
    Upper-bounds the b-chromatic number."""
    degs = sorted((a.bit_count() for a in g.adj), reverse=True)
    # the i-th largest degree falls as i grows, so once d >= i-1 fails it stays failed
    return sum(1 for i, d in enumerate(degs, start=1) if d >= i - 1)


def chromatic_number(g: Graph, budget: SearchBudget | None = None) -> SumResult:
    """Exact chi(G): the least k with a partition into k independent classes."""
    return _solve(g, "chi", budget)


def chi_sum(g: Graph, direction: str, budget: SearchBudget | None = None) -> SumResult:
    """Exact extremum of the colouring sum over proper colourings with
    exactly chi(G) colours."""
    return _solve(g, f"chi_sum_{direction}", budget)


def b_chromatic_number(g: Graph, budget: SearchBudget | None = None) -> SumResult:
    """Exact phi(G): largest k <= m(G) admitting a b-colouring with k colours."""
    return _solve(g, "b_chromatic", budget)


def b_sum(g: Graph, direction: str, budget: SearchBudget | None = None) -> SumResult:
    """Exact extremum of the colouring sum over b-colourings with exactly
    phi(G) colours."""
    return _solve(g, f"b_sum_{direction}", budget)


def witness_value(quantity: str, witness: Coloring) -> int:
    """The value `witness` shows for `quantity`: its colouring sum for a sum
    quantity, its number of colours k for chi and b_chromatic."""
    return coloring_sum(witness) if "_sum_" in quantity else witness.k


def max_twin(result: SumResult) -> SumResult:
    """The *_sum_max result of the *_sum_min `result`: the same classes with
    the max labelling, and the same nodes and millis."""
    witness = optimal_labeling(result.witness.classes(), "max", n=len(result.witness.colors))
    quantity = result.quantity.removesuffix("_min") + "_max"
    return SumResult(quantity, witness_value(quantity, witness), witness, result.nodes_explored, result.elapsed_ms)


def _solve(g: Graph, quantity: str, budget: SearchBudget | None) -> SumResult:
    """One quantity of g under one budget: its search's scan, whose last
    partition is labelled for the min, and for a *_sum_max its max twin."""
    if quantity not in SEARCH_OF:
        raise ValueError(f"unknown quantity {quantity!r}")
    search = SEARCH_OF[quantity]
    tracker = _Tracker(budget or SearchBudget())
    first = search in ("chi", "b_chromatic")
    classes = _scan(g, tracker, require_b=search.startswith("b_"), first=first)
    witness = optimal_labeling(classes, "min", n=g.n)
    result = SumResult(search, witness_value(search, witness), witness, tracker.nodes, tracker.elapsed_ms())
    return result if search == quantity else max_twin(result)


def _scan(g: Graph, tracker: _Tracker, require_b: bool, first: bool) -> list[list[int]]:
    """The partition into chi(G) classes, scanning k up from 1, or into
    phi(G) classes, scanning k down from m(G), that `_partition` returns at
    that k: with `first` the first one found, else one of least min sum.
    A k it passes has no partition, so both searches walk the same tree."""
    if g.n == 0:
        raise ValueError("colouring quantities of the empty graph are undefined here")
    ks = range(m_bound(g), 0, -1) if require_b else range(1, g.n + 1)
    for k in ks:
        classes = _partition(g, k, tracker, require_b, first)
        if classes is not None:
            return classes
    raise RuntimeError("unreachable: chi(G) <= n, and a b-colouring with chi(G) colours exists")


def _partition(
    g: Graph,
    k: int,
    tracker: _Tracker,
    require_b: bool,
    first: bool,
) -> list[list[int]] | None:
    """One step of `_scan`: a partition of V into exactly k independent
    classes (b-feasible when require_b) with the least min-labelled sum, or
    with `first` the lexicographically first one; None if there is none.

    Vertices are assigned in index order, so at vertex v the unassigned
    vertices are v..n-1, and each node costs O(k + eligible + deg(v)) work.

    Bound: a partial partition is completed optimistically by giving each
    still-unopened class a single vertex and pouring every other unassigned
    vertex into the currently largest class; that completion maximises
    every prefix sum of the sorted size vector, so its min-labelled sum
    bounds the subtree from below.  The min-labelled weight W of the sorted
    sizes is carried down the search: with `above[s]` the number of opened
    classes larger than s, growing a class from s to s+1 moves it to rank
    above[s]+1 and adds that rank to W.  The completion's weight is then
    W + (rem-need) + need*used + need*(need+1)/2 in O(1), and W at a leaf is
    its min labelled sum.

    b-feasibility: an eligible vertex w (degree >= k-1) can still dominate
    an opened class c if it is in c, or unassigned with no neighbour in c,
    and it sees or can still see k-1 other classes.  In both cases w has no
    neighbour in c, so the classes w already sees are `seen[w]`, the opened
    classes holding a neighbour of w, and `sees[c]` masks the vertices with
    a neighbour in c; assign and undo update both.  Per node the mask
    `good` of eligible w with seen[w] + (unassigned neighbours) >= k-1 is
    built once, and class c is feasible if good meets c or meets the
    unassigned vertices outside sees[c].  At a leaf nothing is unassigned,
    so the same test is the b-colouring check: w dominates c iff
    seen[w] == k-1.

    Lex-leader cut: `_lex_leader_cut` finds the shortest prefix 0..d-1 that
    every automorphism of g maps onto itself (for a family: the hub and
    ring 0).  Once at depth d, for each automorphism p other than the
    identity, the image prefix assign[p[j]], j < d, is renumbered by first
    appearance; if it is lex-smaller than assign[:d], no completion of this
    prefix is lex-least in its orbit, and the subtree is cut.
    """
    n, adj = g.n, g.adj
    masks = [0] * k
    sees = [0] * k
    sizes = [0] * k
    above = [0] * (n + 1)
    seen = [0] * n
    assign = [0] * n
    eligible = [v for v in range(n) if adj[v].bit_count() >= k - 1] if require_b else []
    if require_b and len(eligible) < k:
        return None
    # eligible neighbours of each vertex, whose seen counts its assignment moves
    watchers = [[w for w in eligible if adj[v] >> w & 1] for v in range(n)]
    # at vertex v: eligible w good whatever seen[w] is, and (w, bit, least seen[w]) for the rest
    sure = [0] * (n + 1)
    short: list[list[tuple[int, int, int]]] = [[] for _ in range(n + 1)]
    for v in range(n + 1):
        for w in eligible:
            lack = k - 1 - (adj[w] >> v).bit_count()
            if lack <= 0:
                sure[v] |= 1 << w
            else:
                short[v].append((w, 1 << w, lack))

    cut, images = _lex_leader_cut(g)

    best_value: int | None = None
    best_assign: list[int] | None = None

    def lex_leader() -> bool:
        """False if some automorphism maps assign[:cut] onto a lex-smaller
        restricted-growth string: its classes renumbered by first appearance."""
        for image in images:
            relabel = [-1] * k
            fresh = 0
            for j, u in enumerate(image):
                c = assign[u]
                r = relabel[c]
                if r < 0:
                    r = relabel[c] = fresh
                    fresh += 1
                if r != assign[j]:
                    if r < assign[j]:
                        return False
                    break
        return True

    def b_feasible(v: int, used: int) -> bool:
        good = sure[v]
        for w, wbit, lack in short[v]:
            if seen[w] >= lack:
                good |= wbit
        free = good >> v << v
        for c in range(used):
            if not (good & masks[c] or free & ~sees[c]):
                return False
        return True

    def search(v: int, used: int, weight: int) -> bool:
        """Explore the subtree; True stops the whole search.  `weight` is the
        min-labelled sum of the sizes so far."""
        nonlocal best_value, best_assign
        tracker.tick()
        if v == cut and not lex_leader():
            return False
        if v == n:
            if used != k or (require_b and not b_feasible(n, k)):
                return False
            if best_value is None or weight < best_value:
                best_value, best_assign = weight, assign.copy()
            return first
        need = k - used
        rem = n - v
        if need > rem:
            return False
        if (
            best_value is not None
            and used
            and weight + rem - need + need * used + need * (need + 1) // 2 >= best_value
        ):
            return False
        if require_b and used and not b_feasible(v, used):
            return False
        av = adj[v]
        vbit = 1 << v
        for c in range(used + 1 if used < k else k):
            mc = masks[c]
            if av & mc:
                continue
            sc = sees[c]
            s = sizes[c]
            rank = above[s] + 1
            above[s] = rank
            sizes[c] = s + 1
            masks[c] = mc | vbit
            sees[c] = sc | av
            for w in watchers[v]:
                if not sc >> w & 1:
                    seen[w] += 1
            assign[v] = c
            if search(v + 1, used + 1 if c == used else used, weight + rank):
                return True
            for w in watchers[v]:
                if not sc >> w & 1:
                    seen[w] -= 1
            sees[c] = sc
            masks[c] = mc
            sizes[c] = s
            above[s] = rank - 1
        return False

    search(0, 0, 0)
    if best_assign is None:
        return None
    classes: list[list[int]] = [[] for _ in range(k)]
    for v, c in enumerate(best_assign):
        classes[c].append(v)
    return classes


def _lex_leader_cut(g: Graph) -> tuple[int, list[tuple[int, ...]]]:
    """Depth d of the lex-leader check and the distinct restrictions to
    0..d-1 of g's automorphisms other than the identity: d is the shortest
    prefix that every automorphism maps onto itself and some automorphism
    moves.  (-1, []) when there is no such prefix, and no cut."""
    top = -1
    moved = False
    for d, column in enumerate(zip(*g.automorphisms), start=1):
        top = max(top, *column)
        moved = moved or set(column) != {d - 1}
        if moved and top == d - 1:
            identity = tuple(range(d))
            return d, sorted({p[:d] for p in g.automorphisms} - {identity})
    return -1, []
