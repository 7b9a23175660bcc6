"""The cycle-derived graph families under study, built from one ring table.

Every family is an optional hub followed by rings of n vertices each.  A
ring is a cycle or a set of pendants; the hub joins some rings by spokes;
a rung pair (a, b) joins vertex i of ring a to vertex i of ring b.  Vertex
ids are deterministic -- hub 0 if present, then each ring's vertices in
ring order, ring after ring -- so solver witnesses are reproducible and
comparable between runs.  Each generated graph carries a family tag,
per-vertex roles and its dihedral group D_n: the rotations and reflections
of the ring index, applied to every ring at once, with the hub fixed.
They are automorphisms of every row, because spokes join whole rings and
rungs pair equal ring indices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import HUB, INNER_CYCLE, OUTER_CYCLE, PENDANT, Graph, VertexRole

# kind -> (ring roles in id order, rings the hub joins, rung pairs)
RINGS = {
    "wheel": ((INNER_CYCLE,), (0,), ()),
    "double_wheel": ((INNER_CYCLE, OUTER_CYCLE), (0, 1), ()),
    "helm": ((INNER_CYCLE, PENDANT), (0,), ((0, 1),)),
    "closed_helm": ((INNER_CYCLE, OUTER_CYCLE), (0,), ((0, 1),)),
    "sunlet": ((INNER_CYCLE, PENDANT), (), ((0, 1),)),
    "web": ((INNER_CYCLE, OUTER_CYCLE, PENDANT), (), ((0, 1), (1, 2))),
}

FAMILY_KINDS = tuple(RINGS)
MIN_N = 3


@dataclass(frozen=True)
class Family:
    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family {self.kind!r}")
        if self.n < MIN_N:
            raise ValueError(f"{self.kind} needs n >= {MIN_N}, got {self.n}")

    def __str__(self):
        return f"{self.kind}:{self.n}"


def parse_family(spec: str) -> Family:
    """Parse a CLI family spec like `helm:7`."""
    kind, sep, num = spec.partition(":")
    if not sep:
        raise ValueError(f"family spec must look like kind:n, got {spec!r}")
    try:
        n = int(num)
    except ValueError:
        raise ValueError(f"family parameter must be an integer, got {num!r}") from None
    return Family(kind, n)


def make(kind: str, n: int) -> Graph:
    """The graph of family `kind` with rings of n vertices."""
    Family(kind, n)
    rings, spokes, rungs = RINGS[kind]
    hub = 1 if spokes else 0

    def at(ring: int, i: int) -> int:
        return hub + ring * n + i % n

    cycles = [r for r, role in enumerate(rings) if role != PENDANT]
    edges = [(0, at(r, i)) for r in spokes for i in range(n)]
    edges += [(at(r, i), at(r, i + 1)) for r in cycles for i in range(n)]
    edges += [(at(a, i), at(b, i)) for a, b in rungs for i in range(n)]
    roles = [VertexRole(HUB, 0)] * hub + [VertexRole(role, i) for role in rings for i in range(1, n + 1)]
    # i -> s + i (rotations) and i -> s - i (reflections), identity first
    dihedral = tuple(
        tuple(range(hub)) + tuple(at(r, s + sign * i) for r in range(len(rings)) for i in range(n))
        for s in range(n)
        for sign in (1, -1)
    )
    return Graph(hub + len(rings) * n, edges, family=(kind, n), roles=tuple(roles), automorphisms=dihedral)


def build(family: Family) -> Graph:
    return make(family.kind, family.n)
