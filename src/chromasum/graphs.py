"""Immutable simple undirected graphs with bitset adjacency, and the
edge-list and DOT output formats.

Vertices are dense integers 0..n-1.  Nothing mutates after construction,
so graphs can be shared freely between concurrent solver jobs.
"""

from __future__ import annotations

from typing import Iterable


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    `adj[v]` is an int bitmask of the neighbours of v.  `family` optionally
    records (family kind, cycle parameter) for generated graphs; `repr` and
    the DOT graph name show it.  `automorphisms` is a group of vertex
    permutations, the identity included, each mapping the edge set onto
    itself: p maps vertex v to p[v].  It is empty when no symmetry is
    known.  Each element is checked to be a permutation of 0..n-1 that
    preserves the edges.
    """

    __slots__ = ("n", "edges", "adj", "family", "automorphisms")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]],
        family: tuple[str, int] | None = None,
        automorphisms: tuple[tuple[int, ...], ...] = (),
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
        identity = list(range(n))
        for p in automorphisms:
            if sorted(p) != identity:
                raise ValueError(f"automorphism {p} is not a permutation of 0..{n - 1}")
            if {(p[u], p[v]) if p[u] < p[v] else (p[v], p[u]) for u, v in seen} != seen:
                raise ValueError(f"automorphism {p} does not map the edges onto themselves")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(seen)))
        object.__setattr__(self, "adj", tuple(adj))
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "automorphisms", automorphisms)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __repr__(self):
        tag = f" {self.family[0]}:{self.family[1]}" if self.family else ""
        return f"<Graph{tag} n={self.n} m={self.m}>"

    @property
    def m(self) -> int:
        return len(self.edges)

    def max_degree(self) -> int:
        if self.n == 0:
            return 0
        return max(a.bit_count() for a in self.adj)

    def neighbors(self, v: int) -> list[int]:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        mask = self.adj[v]
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out


def to_edgelist(g: Graph) -> str:
    """Whitespace-separated interchange format: `n m` header, then one
    `u v` line per edge."""
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def to_dot(g: Graph) -> str:
    name = f"{g.family[0]}_{g.family[1]}" if g.family else "G"
    lines = [f"graph {name} {{"]
    isolated = [v for v in range(g.n) if g.adj[v] == 0]
    lines += [f"  {v};" for v in isolated]
    lines += [f"  {u} -- {v};" for u, v in g.edges]
    lines.append("}")
    return "\n".join(lines) + "\n"
