"""Immutable simple undirected graphs with bitset adjacency and an optional
checked ring layout, whose dihedral symmetry the solvers cut by.  A graph
is built only to be searched.

Vertices are dense integers 0..n-1.  Nothing mutates after construction,
so graphs can be shared freely between concurrent solver jobs.
"""

from __future__ import annotations

from typing import Iterable


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    `adj[v]` is an int bitmask of the neighbours of v.  `rings` optionally
    records a ring layout (hub, m): vertices 0..hub-1 are fixed, and the
    rest form whole rings of m vertices, vertex i of ring r being
    hub + r*m + i.  Its symmetry is the dihedral group D_m of the ring
    index, applied to every ring at once with the hub fixed.  The layout is
    checked to tile hub..n-1, and the two generators of D_m, i -> i+1 and
    i -> -i (mod m), to map the edges onto themselves, so every element of
    the group is an automorphism.  It is None when no symmetry is known.
    """

    __slots__ = ("n", "edges", "adj", "rings")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]],
        rings: tuple[int, int] | None = None,
    ):
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        seen = set()
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                continue
            seen.add((u, v))
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        if rings is not None:
            hub, m = rings
            if not (hub >= 0 and m >= 1 and n - hub >= m and (n - hub) % m == 0):
                raise ValueError(f"rings {rings} do not tile vertices {hub}..{n - 1} with whole rings")
            # the generators of D_m on every ring at once, the hub fixed
            rotate, reflect = [*range(hub)], [*range(hub)]
            for base in range(hub, n, m):
                rotate += (*range(base + 1, base + m), base)
                reflect += (base, *range(base + m - 1, base, -1))
            for name, p in (("i+1", rotate), ("-i", reflect)):
                # p is a bijection: it maps the edges onto themselves iff it
                # maps every edge to an edge
                if not all(adj[p[u]] >> p[v] & 1 for u, v in seen):
                    raise ValueError(f"rings {rings}: i -> {name} does not map the edges onto themselves")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(seen)))
        object.__setattr__(self, "adj", tuple(adj))
        object.__setattr__(self, "rings", rings)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __repr__(self):
        return f"<Graph n={self.n} m={len(self.edges)}>"

    def max_degree(self) -> int:
        if self.n == 0:
            return 0
        return max(a.bit_count() for a in self.adj)

