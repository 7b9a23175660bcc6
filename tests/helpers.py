"""Shared independent oracles and generic graphs for the test suite."""

import functools

from chromasum.coloring import colours
from chromasum.families import make
from chromasum.graphs import Graph
from chromasum.oracle import _tick, brute_force_oracle


# (vertices, edges, [(degree, count), ...]) closed forms per family; degree
# values can coincide at small n, so counts are kept as pairs
FAMILY_CLOSED_FORMS = {
    "wheel": lambda n: (n + 1, 2 * n, [(n, 1), (3, n)]),
    "double_wheel": lambda n: (2 * n + 1, 4 * n, [(2 * n, 1), (3, 2 * n)]),
    "helm": lambda n: (2 * n + 1, 3 * n, [(n, 1), (4, n), (1, n)]),
    "closed_helm": lambda n: (2 * n + 1, 4 * n, [(n, 1), (4, n), (3, n)]),
    "sunlet": lambda n: (2 * n, 2 * n, [(3, n), (1, n)]),
    "web": lambda n: (3 * n, 4 * n, [(3, n), (4, n), (1, n)]),
}


def cycle(n):
    """C_n on vertices 0..n-1 in ring order."""
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def empty_graph(n):
    """n vertices, no edges."""
    return Graph(n, [])


def star(leaves):
    """Centre 0 joined to leaves 1..leaves."""
    return Graph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


def neighbours(g, v):
    """The neighbours of v in increasing order, read off its bitmask."""
    return [u for u in range(g.n) if g.adj[v] >> u & 1]


def degree(g, v):
    return len(neighbours(g, v))


def is_colouring(g, coloring, b=False):
    """True iff the colouring covers g's vertices and `colours` accepts it
    on g's edges: proper, and with `b` a b-colouring."""
    return len(coloring.colors) == g.n and colours(g.edges, coloring, b)


def is_b_vertex(g, coloring, v):
    """True iff v's neighbourhood contains every colour except v's own."""
    cols = coloring.colors
    seen = {cols[u] for u in neighbours(g, v)}
    seen.discard(cols[v])
    return len(seen) == coloring.k - 1


def is_connected(g):
    """Connectivity by BFS from vertex 0; independent of the solvers."""
    seen = {0} if g.n else set()
    queue = list(seen)
    while queue:
        for u in neighbours(g, queue.pop()):
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return len(seen) == g.n


def bfs_two_colorable(g):
    """Bipartiteness check by BFS 2-colouring; independent of the solvers."""
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] >= 0:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for u in neighbours(g, v):
                if color[u] < 0:
                    color[u] = 1 - color[v]
                    queue.append(u)
                elif color[u] == color[v]:
                    return False
    return True


def exhaustive_labeling_extremum(class_sizes, direction):
    """Extremal sum(i * theta_i) over all label permutations, by brute force."""
    from itertools import permutations

    best = None
    for perm in permutations(class_sizes):
        value = sum(i * s for i, s in enumerate(perm, start=1))
        if best is None or (value < best if direction == "min" else value > best):
            best = value
    return best


@functools.lru_cache(maxsize=16)
def brute_suffix_alpha(g):
    """The size of a largest independent set of G[v..n-1], for v = 0..n, by
    trying every vertex subset against the edge list: an independent set
    whose lowest vertex is u counts for every suffix from 0 to u."""
    alpha = [0] * (g.n + 1)
    for subset in range(1, 1 << g.n):
        if any(subset >> a & 1 and subset >> b & 1 for a, b in g.edges):
            continue
        size = bin(subset).count("1")
        lowest = (subset & -subset).bit_length() - 1
        for v in range(lowest + 1):
            alpha[v] = max(alpha[v], size)
    return alpha


def reference_partition(g, k, tracker, require_b, first=False):
    """The loop version of `solvers._partition`, kept as the reference for the
    incremental one: each node rescans every opened class against every
    eligible vertex for b-feasibility (a class whose b-vertex must still be
    unassigned needs one with no neighbour in it, and no more classes may
    need one than there are unassigned vertices that can still see k-1
    classes), sorts and pads the class sizes for the bound, raises it by
    how far the padded largest class exceeds what any class can still hold
    (each opened class's size plus the unassigned vertices with no
    neighbour in it, or one more than the vertices spare for an unopened
    class, and never more than a largest independent set of the unassigned
    vertices, taken from `brute_suffix_alpha`), and checks at a leaf that
    each class has a vertex seeing every other class.  Same pruning
    decisions, so the same restricted-growth string and nodes."""
    n, adj = g.n, g.adj
    masks = [0] * k
    sizes = [0] * k
    assign = [0] * n
    full = (1 << n) - 1
    eligible = [v for v in range(n) if adj[v].bit_count() >= k - 1] if require_b else []
    if require_b and len(eligible) < k:
        return None
    eligible_mask = 0
    for v in eligible:
        eligible_mask |= 1 << v
    alpha = brute_suffix_alpha(g)

    best_value = None
    best_assign = None

    def b_feasible(v, used):
        un = full ^ ((1 << v) - 1)

        def sees_enough(w):
            # w sees, or can still see, k-1 classes other than its own
            aw = adj[w]
            return sum(1 for c in range(used) if aw & masks[c]) + (aw & un).bit_count() >= k - 1

        spare = [w for w in eligible if 1 << w & un and sees_enough(w)]
        short = k - used  # classes whose b-vertex must come from spare
        for c in range(used):
            if any(1 << w & masks[c] and sees_enough(w) for w in eligible):
                continue
            if all(adj[w] & masks[c] for w in spare):
                return False
            short += 1
        return short <= len(spare)

    def leaf_is_b():
        for c in range(k):
            m = masks[c] & eligible_mask
            while m:
                low = m & -m
                aw = adj[low.bit_length() - 1]
                m ^= low
                if all(aw & masks[c2] for c2 in range(k) if c2 != c):
                    break
            else:
                return False
        return True

    def search(v, used):
        nonlocal best_value, best_assign
        _tick(tracker)
        if v == n:
            if used != k or (require_b and not leaf_is_b()):
                return False
            value = sum(i * s for i, s in enumerate(sorted(sizes, reverse=True), start=1))
            if best_value is None or value < best_value:
                best_value, best_assign = value, assign.copy()
            return first
        need = k - used
        rem = n - v
        if need > rem:
            return False
        if best_value is not None and used:
            padded = sorted(sizes[:used], reverse=True)
            padded[0] += rem - need
            padded += [1] * need
            # the most vertices any one class can end with
            cap = min(rem - need + 1, alpha[v]) if need else 0
            for c in range(used):
                outside = sum(1 for u in range(v, n) if not adj[u] & masks[c])
                cap = max(cap, sizes[c] + min(outside, alpha[v]))
            excess = max(0, padded[0] - cap)
            if sum(i * s for i, s in enumerate(padded, start=1)) + excess >= best_value:
                return False
        if require_b and used and not b_feasible(v, used):
            return False
        av = adj[v]
        vbit = 1 << v
        for c in range(used + 1 if used < k else k):
            if av & masks[c]:
                continue
            masks[c] |= vbit
            sizes[c] += 1
            assign[v] = c
            if search(v + 1, used + 1 if c == used else used):
                return True
            masks[c] ^= vbit
            sizes[c] -= 1
        return False

    search(0, 0)
    return best_assign


@functools.lru_cache(maxsize=None)
def oracle_value(kind, n, quantity):
    """The oracle's value on family kind(n), with a sum's k taken from the
    oracle's own chi or phi of the same graph, so each scan runs once per
    graph."""
    g = make(kind, n)
    if quantity in ("chi", "b_chromatic"):
        return brute_force_oracle(g, quantity).value
    k = oracle_value(kind, n, "b_chromatic" if quantity.startswith("b_") else "chi")
    return brute_force_oracle(g, quantity, k=k).value
