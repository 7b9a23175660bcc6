"""Exact solvers for the six colouring quantities.

chi / chi_sum_* search proper colourings with exactly chi(G) colours;
b_chromatic / b_sum_* search b-colourings with exactly phi(G) colours.
Every search runs one enumerator over unlabeled partitions into exactly k
independent classes (b-feasible classes for the b quantities) in
restricted-growth order: the lowest-numbered vertex of each new class
exceeds the lowest-numbered vertex of the previous class.  The winning
string is itself a colour list, numbered post hoc by `optimal_labeling`,
which shrinks the space by k! and keeps witnesses reproducible: among
equal-value partitions the lexicographically first string wins.

Each node of the enumerator costs O(k + deg(v)): the bound's min-labelled
weight is carried down the search with a histogram `above` of the class
sizes instead of re-sorting them; b-feasibility reads a mask `good` of the
vertices that can still see k-1 other classes, which is passed down the
search and narrowed only where an assignment uses up a vertex's slack; and
nodes are counted in a local that meets the budget only at a call's first
node, at every 1,024th node and past the node budget.  Where that bound
does not prune, a second one caps the largest class by what any class can
still hold, in O(k) popcounts, each cap also at most the independence
number of the unassigned suffix.  A distinct b-vertex count cuts a node
where more classes must still take their b-vertex from the unassigned
vertices of `good` than there are such vertices, since no vertex is the
b-vertex of two classes (see `_partition`).  The tables a search reads of
the graph alone (the suffix masks, the lex-leader images, and for the min
searches, the only ones to read them, the suffixes' independence numbers)
are built once per graph object and shared by every search of that graph.

A graph that carries a ring layout (every family does) is searched once
per orbit of its dihedral group D_n: a partition whose restricted-growth
string is not lex-least among its images under the group is cut
(lex-leader symmetry breaking; Crawford, Ginsberg, Luks & Roy, KR 1996).
Every image of a partition has the same class sizes and the same
b-property, so the lexicographically first partition of least value, or
the first found by a scan, is the lex-leader of its orbit and is never
cut: values and witnesses are those of the search without the cut.

Every quantity is one scan over k that stops at the first k with a
partition: chi(G) is the least k from 1 up, phi(G) the largest k from m(G)
down.  chi and b_chromatic search each k for the first partition, a sum
for the least min sum.  No partition exists at the k the scan passes, so
there the two searches walk the same tree; a sum is its scan's last
search.  Only the min is searched: relabelling a colouring in reverse
colour order maps its min labelling onto its max labelling, so the two sums
add up to (k+1)*|V|, and each *_sum_max is the max labelling of the
colouring its *_sum_min finds: six quantities are read off four searches
(`SEARCH_OF`).  A witness shows its colouring sum for a sum quantity and
its k for chi and b_chromatic (`witness_value`).

A budget bounds the nodes and wall time of one call, its scan included;
exhausting either raises, it never degrades to a wrong answer.  The one
step outside it, building a graph's tables before the first node, is
bounded work on any graph, as each of its two tables has a fixed limit:
its independence numbers are exact up to `_ALPHA_MEMO_LIMIT` memoised
masks and upper bounds past it (`_suffix_alpha`), and a ring whose
lex-leader images would hold more than `_LEX_TABLE_LIMIT` entries is
searched without the cut (`_lex_leader_cut`).  The search recurses once
per vertex, and a graph deeper than the recursion limit `_scan` may set
is a ValueError, not a RecursionError (`check_depth`, before any table).
"""

from __future__ import annotations

import functools
import math
import sys
import threading
import time
from dataclasses import dataclass

from .coloring import Coloring, coloring_sum, optimal_labeling
from .graphs import Graph

SOLVER_VERSION = "8"

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

    def __post_init__(self):
        # the search would never abort at a NaN deadline or a fractional count
        if math.isnan(self.max_time) or type(self.max_nodes) is not int:
            raise ValueError(f"budgets must be an int and a number, got {self.max_nodes!r} nodes and {self.max_time} s")
        # 0 is valid: it aborts every search, so a run serves only cached rows
        if self.max_nodes < 0 or self.max_time < 0:
            raise ValueError(f"budgets must be >= 0, got {self.max_nodes} nodes and {self.max_time} s")


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


class _Tracker:
    """Node/time accounting shared by one solve call's phases; `check` is due at `alarm`."""

    __slots__ = ("max_nodes", "deadline", "nodes", "t0", "alarm")

    def __init__(self, budget: SearchBudget):
        self.max_nodes = budget.max_nodes
        self.t0 = time.monotonic()
        self.deadline = self.t0 + budget.max_time
        self.nodes = 0
        self.alarm = 1

    def check(self) -> int:
        """Raise if the budget is spent at `nodes`: the count is past
        max_nodes or the deadline has passed.  Else return the next count at
        which to check again: the next multiple of 1,024, or max_nodes+1."""
        if self.nodes > self.max_nodes:
            raise BudgetExhausted("node budget exhausted", self.nodes, self.elapsed_ms())
        if time.monotonic() > self.deadline:
            raise BudgetExhausted("time budget exhausted", self.nodes, self.elapsed_ms())
        return min((self.nodes | 0x3FF) + 1, self.max_nodes + 1)

    def elapsed_ms(self) -> int:
        return int((time.monotonic() - self.t0) * 1000)


def m_bound(g: Graph) -> int:
    """m(G) of g (`m_of_degrees`), which upper-bounds phi(G) (Irving & Manlove, DAM 1999)."""
    return m_of_degrees(a.bit_count() for a in g.adj)


def m_of_degrees(degrees) -> int:
    """m(G) from G's vertex degrees: the largest i such that >= i of them are >= i-1."""
    degs = sorted(degrees, reverse=True)
    # the i-th largest degree falls as i grows, so once d >= i-1 fails it stays failed
    return sum(1 for i, d in enumerate(degs, start=1) if d >= i - 1)


def chromatic_number(g: Graph, budget: SearchBudget | None = None) -> SumResult:
    """Exact chi(G): the least k with a partition into k independent classes."""
    return solve(g, "chi", budget)


def chi_sum(g: Graph, direction: str, budget: SearchBudget | None = None) -> SumResult:
    """Exact extremum of the colouring sum over proper colourings with
    exactly chi(G) colours."""
    return solve(g, f"chi_sum_{direction}", budget)


def b_chromatic_number(g: Graph, budget: SearchBudget | None = None) -> SumResult:
    """Exact phi(G): largest k <= m(G) admitting a b-colouring with k colours."""
    return solve(g, "b_chromatic", budget)


def b_sum(g: Graph, direction: str, budget: SearchBudget | None = None) -> SumResult:
    """Exact extremum of the colouring sum over b-colourings with exactly
    phi(G) colours."""
    return solve(g, f"b_sum_{direction}", budget)


def witness_value(quantity: str, witness: Coloring) -> int:
    """The value `witness` shows for `quantity`: its colouring sum for a sum
    quantity, its number of colours k for chi and b_chromatic."""
    return coloring_sum(witness) if "_sum_" in quantity else witness.k


def max_twin(result: SumResult) -> SumResult:
    """The *_sum_max result of the *_sum_min `result`: its witness's colour
    list with the max labelling, and the same nodes and millis."""
    witness = optimal_labeling(result.witness.colors, "max")
    quantity = result.quantity.removesuffix("_min") + "_max"
    return SumResult(quantity, witness_value(quantity, witness), witness, result.nodes_explored, result.elapsed_ms)


def solve(g: Graph, quantity: str, budget: SearchBudget | None = None) -> SumResult:
    """One quantity of g under one budget: its search's scan, whose
    restricted-growth string is labelled for the min, and for a *_sum_max
    its max twin."""
    if quantity not in SEARCH_OF:
        raise ValueError(f"unknown quantity {quantity!r}")
    search = SEARCH_OF[quantity]
    tracker = _Tracker(budget or SearchBudget())
    first = search in ("chi", "b_chromatic")
    labels = _scan(g, tracker, require_b=search.startswith("b_"), first=first)
    witness = optimal_labeling(labels, "min")
    result = SumResult(search, witness_value(search, witness), witness, tracker.nodes, tracker.elapsed_ms())
    return result if search == quantity else max_twin(result)


def _scan(g: Graph, tracker: _Tracker, require_b: bool, first: bool) -> list[int]:
    """The restricted-growth string of chi(G) classes, scanning k up from 1,
    or of phi(G) classes, scanning k down from m(G), that `_partition`
    returns at that k: with `first` the first found, else one of least min sum.
    A k it passes has no partition, so both searches walk the same tree."""
    if g.n == 0:
        raise ValueError("colouring quantities of the empty graph are undefined here")
    check_depth(g.n)
    ks = range(m_bound(g), 0, -1) if require_b else range(1, g.n + 1)
    # `_partition`'s search and `_alpha` each recurse one level per vertex.  Each search adds
    # its headroom to the limit and takes back as much, under a lock, so threads' searches compose
    headroom = min(g.n, _MAX_HEADROOM)
    with _RECURSION_LOCK:
        sys.setrecursionlimit(sys.getrecursionlimit() + headroom)
    try:
        for k in ks:
            labels = _partition(g, k, tracker, require_b, first)
            if labels is not None:
                return labels
    except RecursionError:
        # raised once the stack has unwound, so it is a usage error, not a crash
        check_depth(g.n, overflowed=True)
    finally:
        with _RECURSION_LOCK:
            sys.setrecursionlimit(sys.getrecursionlimit() - headroom)
    raise RuntimeError("unreachable: chi(G) <= n, and a b-colouring with chi(G) colours exists")


# The most levels `_scan` adds to the recursion limit.  Where each Python
# call also takes native stack (Python 3.10), a much deeper recursion could
# overflow that stack and crash the interpreter instead of raising
# RecursionError.
_MAX_HEADROOM = 10_000
_RECURSION_LOCK = threading.Lock()


def check_depth(n: int, overflowed: bool = False):
    """Refuse a graph of n vertices too deep for the search, one level per
    vertex: n past the recursion limit plus `_scan`'s `_MAX_HEADROOM`, found
    before it is built, or, with `overflowed`, one whose search overflowed."""
    if overflowed or n > sys.getrecursionlimit() + _MAX_HEADROOM:
        raise ValueError(
            f"a graph of {n} vertices is too deep for the search, which recurses once per "
            f"vertex: at most {_MAX_HEADROOM} levels are added to the recursion limit"
        ) from None


def _partition(
    g: Graph,
    k: int,
    tracker: _Tracker,
    require_b: bool,
    first: bool,
) -> list[int] | None:
    """One step of `_scan`: the restricted-growth string (vertex v in class
    assign[v]) of a partition of V into exactly k independent classes
    (b-feasible when require_b) with the least min-labelled sum, or with
    `first` the lexicographically first one; None if there is none.

    Vertices are assigned in index order, so at vertex v the unassigned
    vertices are v..n-1, and each node costs O(k + deg(v)) work.

    Bound: a partial partition is completed optimistically by giving each
    still-unopened class a single vertex and pouring the P = rem - need
    other unassigned vertices into the currently largest class; that
    completion maximises every prefix sum of the sorted size vector, so its
    min-labelled sum bounds the subtree from below.  The min-labelled weight
    W of the sorted sizes is carried down the search: with `above[s]` the
    number of opened classes larger than s, growing a class from s to s+1
    moves it to rank above[s]+1 and adds that rank to W.  The completion's
    weight is then lb = W + P + need*used + need*(need+1)/2 in O(1).

    Capacity bound, tried when lb alone does not prune: the min-labelled sum
    of sizes s_1 >= ... >= s_k is sum(i*s_i) = sum over j < k of (n - S_j),
    with S_j the sum of the j largest sizes.  No completion has a larger
    S_j than the greedy one, whose largest class ends at
    top = max(sizes) + P.  But the largest class of any completion ends at
    most at C = max(P+1 if need else 0, sizes[c] + popcount(free & ~sees[c])
    over opened c), with free = the unassigned vertices v..n-1 and
    `sees[c]` the vertices with a neighbour in c: an unopened class leaves
    one vertex to each of the other need-1, and an opened class can only
    take unassigned vertices outside sees[c].  So S_1 falls short of its
    greedy value by at least top - C, every other S_j keeps its greedy
    bound, and every leaf below costs at least lb + max(0, top - C); the
    node is cut when that reaches the incumbent.  It costs O(used)
    popcounts and no sort.

    Both caps are also at most alpha[v], the independence number of
    G[v..n-1]: what a class still gains is an independent set of the
    unassigned vertices, and those are always the suffix v..n-1.  So an
    unopened class ends at most at min(P+1, alpha[v]) and an opened one at
    sizes[c] + min(popcount(free & ~sees[c]), alpha[v]); the popcount is
    skipped when sizes[c] + alpha[v] is within the limit already.  The cap
    bounds completions only, whatever their classes must also satisfy, so
    it holds for chi and b searches alike.  The alpha table is built once
    per graph, and only for a min search (`_alpha_table`).

    b-feasibility: a vertex w of the mask `eligible` (degree >= k-1) can
    still dominate an opened class c if it is in c, or unassigned with no
    neighbour in c, and it sees or can still see k-1 other classes, which
    it does while slack[w] = (opened classes holding a neighbour of w) +
    (unassigned neighbours of w) - (k-1) >= 0.  Assigning v to class c
    lowers slack[w] by one for each w of watched[v] = adj[v] & eligible
    that already sees c, and changes no other slack, so slack only falls
    along a branch: the mask `good` of eligible w with slack[w] >= 0 is an
    argument of `search`, and a child clears w's bit when w's slack drops
    below 0.  Class c is feasible if good meets c or meets the unassigned
    vertices outside sees[c].  At a leaf, w is in good iff it sees all k-1
    other classes.

    Distinct b-vertex count: every class needs its own b-vertex, and no
    vertex dominates two classes.  An opened class that good does not meet,
    and each of the `need` unopened classes, must take its b-vertex from
    free = good & unassigned, so the node is cut when those classes
    outnumber popcount(free): the counting form of Hall's condition, one
    counter and one popcount in the per-class loop above.

    Leaves: a leaf (v = n) takes the node tests, each its leaf condition
    once nothing is unassigned: need > rem = 0 unless all k classes are
    opened; lb = W must beat the incumbent, and then its largest class
    exceeds limit = W + top - best and stops the capacity cut; with free = 0
    the b-test is the b-colouring check.  Neither guard reads `used`: the
    root has no incumbent, and its >= k eligible vertices pass its b-test.

    Node count: `search` counts nodes in a local and hands the count to the
    tracker, which reads the deadline, at its first node and then only at
    the next count where the budget can run out (a multiple of 1,024 or
    max_nodes+1), so an abort reports the exact node it stopped at, and a
    call of fewer than 1,024 nodes still reads its deadline once;
    `tracker.nodes` is synced when the search ends or aborts.

    Lex-leader cut: the prefix 0..d-1 of the hub and ring 0 is mapped onto
    itself by every element p of g's ring symmetry (`_lex_leader_cut`).
    Once at depth d, for each p other than the identity, the image prefix
    assign[p[j]], j < d, is renumbered by first appearance; if it is
    lex-smaller than assign[:d], no completion of this prefix is lex-least
    in its orbit, and the subtree is cut.  It costs O(|images| * d), so it
    runs after the O(k) node tests above: those read the state and write
    none, and a node is counted on entry, so the order of the tests changes
    which test cuts a node, never which nodes are cut or counted.
    """
    n, adj = g.n, g.adj
    masks = [0] * k
    sees = [0] * k
    sizes = [0] * k
    above = [0] * (n + 1)
    assign = [0] * n
    slack = [a.bit_count() - (k - 1) for a in adj]
    eligible = sum(1 << w for w in range(n) if slack[w] >= 0) if require_b else 0
    if require_b and eligible.bit_count() < k:
        return None
    # eligible neighbours of each vertex, whose slack its assignment can lower
    watched = [a & eligible for a in adj]
    tails, cut, images = _graph_tables(g)
    alpha = None if first else _alpha_table(g)  # read only under an incumbent

    best_value: int | None = None
    best_assign: list[int] | None = None
    nodes = tracker.nodes
    alarm = nodes + 1

    def lex_leader() -> bool:
        """False if some symmetry maps assign[:cut] onto a lex-smaller
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

    def search(v: int, used: int, weight: int, top: int, good: int) -> bool:
        """Explore the subtree; True stops the whole search.  `weight` is the
        min-labelled sum of the sizes so far, `top` the largest size, `good`
        the eligible vertices of non-negative slack."""
        nonlocal best_value, best_assign, nodes, alarm
        nodes += 1
        if nodes == alarm:
            tracker.nodes = nodes
            alarm = tracker.check()
        need = k - used
        rem = n - v
        if need > rem:
            return False
        if best_value is not None:
            spare = rem - need
            lb = weight + spare + need * used + need * (need + 1) // 2
            if lb >= best_value:
                return False
            # capacity bound: cut if no class can end with more than `limit`
            # vertices, as the greedy largest class then overshoots by enough
            limit = lb + top + spare - best_value
            most = alpha[v]
            if limit >= (min(spare + 1, most) if need else 0):
                free = tails[v]
                for c in range(used):
                    s = sizes[c]
                    if s + most > limit and s + (free & ~sees[c]).bit_count() > limit:
                        break
                else:
                    return False
        if require_b:
            free = good & tails[v]
            # classes that must take their b-vertex from `free`, one each
            short = need
            for c in range(used):
                if not good & masks[c]:
                    if not free & ~sees[c]:
                        return False
                    short += 1
            if short > free.bit_count():
                return False
        if v == cut and not lex_leader():
            return False
        if v == n:
            best_value, best_assign = weight, assign.copy()
            return first
        av = adj[v]
        vbit = 1 << v
        watch = watched[v]
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
            assign[v] = c
            # eligible neighbours of v that already see c lose one slack
            hit = rest = watch & sc
            lost = 0
            while rest:
                low = rest & -rest
                rest ^= low
                w = low.bit_length() - 1
                slack[w] -= 1
                if slack[w] < 0:
                    lost |= low
            grown = s + 1 if s == top else top
            if search(v + 1, used + 1 if c == used else used, weight + rank, grown, good & ~lost):
                return True
            while hit:
                low = hit & -hit
                hit ^= low
                slack[low.bit_length() - 1] += 1
            sees[c] = sc
            masks[c] = mc
            sizes[c] = s
            above[s] = rank - 1
        return False

    try:
        search(0, 0, 0, 0, eligible)
    finally:
        tracker.nodes = nodes
    return best_assign


def _lex_leader_cut(g: Graph) -> tuple[int, list[tuple[int, ...]]]:
    """Depth d of the lex-leader check, the hub and ring 0 of g's ring
    layout (hub, m), and the distinct restrictions to 0..d-1 of its
    symmetries i -> s + i and i -> s - i (mod m) other than the identity.
    (-1, []) for a graph without a ring layout, and no cut; so too where
    the 2m images of d vertices each would exceed `_LEX_TABLE_LIMIT`, as
    the cut only saves nodes: values and witnesses are the same without it."""
    if g.rings is None:
        return -1, []
    hub, m = g.rings
    d = hub + m
    if 2 * m * d > _LEX_TABLE_LIMIT:
        return -1, []
    images = {(*range(hub), *(hub + (s + sign * i) % m for i in range(m))) for s in range(m) for sign in (1, -1)}
    return d, sorted(images - {tuple(range(d))})


# Most vertex entries the lex-leader images of one graph may hold.  Every
# family with rings of up to 700 vertices needs fewer (dw:89 needs 16,020),
# and the limit bounds the table's work and memory on any larger ring,
# whose O(m^2) images would take seconds and hundreds of MB to build.
_LEX_TABLE_LIMIT = 1 << 20


@functools.lru_cache(maxsize=4)
def _graph_tables(g: Graph) -> tuple[list[int], int, list[tuple[int, ...]]]:
    """What `_partition` reads of g alone, built once per graph object: the
    unassigned vertices v..n-1 at each v = 0..n, and the lex-leader depth
    and images.  Keyed to the object (a Graph hashes by identity), so a
    campaign that builds its graphs afresh pays for their tables once each.
    Every search of g shares them, and none writes to them."""
    n = g.n
    tails = [((1 << n) - 1) >> v << v for v in range(n + 1)]
    return (tails, *_lex_leader_cut(g))


@functools.lru_cache(maxsize=4)
def _alpha_table(g: Graph) -> list[int]:
    """`_suffix_alpha` of g, cached as `_graph_tables`, for the min searches."""
    return _suffix_alpha(g)


# Most masks `_suffix_alpha` memoises for one graph.  Every family with
# rings of up to 100 vertices needs fewer (web:100 needs 10,500), and the
# limit bounds the work and memory of the table on any other graph.
_ALPHA_MEMO_LIMIT = 1 << 14


class _AlphaLimit(Exception):
    """`_alpha`'s memo reached its limit."""


def _suffix_alpha(g: Graph) -> list[int]:
    """alpha[v] >= the independence number of G[v..n-1], for v = 0..n.
    Exact, from one memo shared by the suffixes (`_alpha`), shortest suffix
    first, while the memo holds fewer than `_ALPHA_MEMO_LIMIT` masks; past
    that each longer suffix takes alpha[v+1] + 1, as one more vertex adds
    at most one to a largest independent set.  The capacity cut needs only
    an upper bound, so it stays sound either way."""
    n = g.n
    alpha = [0] * (n + 1)
    memo = {0: 0}
    full = (1 << n) - 1
    for v in range(n - 1, -1, -1):
        try:
            alpha[v] = _alpha(g.adj, full >> v << v, memo)
        except _AlphaLimit:
            for u in range(v, -1, -1):
                alpha[u] = alpha[u + 1] + 1
            break
    return alpha


def _alpha(adj: tuple[int, ...], mask: int, memo: dict[int, int]) -> int:
    """The independence number of the subgraph induced by `mask`, memoised
    on masks: a vertex of degree at most 1 in it is always taken (some
    largest independent set holds it), else the search branches on a vertex
    of largest degree, without it or with it and its neighbours removed.  A
    module function rather than a closure, so its memo is freed on return
    instead of waiting in a reference cycle for the collector.  Raises
    `_AlphaLimit` rather than grow the memo past `_ALPHA_MEMO_LIMIT`."""
    if mask in memo:
        return memo[mask]
    if len(memo) >= _ALPHA_MEMO_LIMIT:
        raise _AlphaLimit
    pick, most = 0, -1
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        u = low.bit_length() - 1
        d = (adj[u] & mask).bit_count()
        if d <= 1:
            best = 1 + _alpha(adj, mask & ~low & ~adj[u], memo)
            break
        if d > most:
            pick, most = u, d
    else:
        low = 1 << pick
        best = max(_alpha(adj, mask & ~low, memo), 1 + _alpha(adj, mask & ~low & ~adj[pick], memo))
    memo[mask] = best
    return best
