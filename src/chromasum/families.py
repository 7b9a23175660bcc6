"""The cycle-derived graph families under study, built from one ring table.

Every family is an optional hub followed by rings of n vertices each.  A
ring is a cycle unless its row marks it as a set of pendants; the hub
joins some rings by spokes; a rung pair (a, b) joins vertex i of ring a to
vertex i of ring b.  Vertex ids are deterministic -- hub 0 if present,
then vertex i of ring r is hub + r*n + i -- so solver witnesses are
reproducible and comparable between runs.  Each generated graph carries
that layout, (hub, n), whose symmetry is the dihedral group D_n: the
rotations and reflections of the ring index, applied to every ring at
once, with the hub fixed.  They are automorphisms of every row, because
spokes join whole rings and rungs pair equal ring indices.  A row's edges
are generated one at a time by `edges`: `make` builds the graph from them
for a search, and the witness checks and `generate` read them without
building one, so each costs memory linear in the edges, not in bitsets.
"""

from __future__ import annotations

from .graphs import Graph

# kind -> (ring count, pendant rings, rings the hub joins, rung pairs)
RINGS = {
    "wheel": (1, (), (0,), ()),
    "double_wheel": (2, (), (0, 1), ()),
    "helm": (2, (1,), (0,), ((0, 1),)),
    "closed_helm": (2, (), (0,), ((0, 1),)),
    "sunlet": (2, (1,), (), ((0, 1),)),
    "web": (3, (2,), (), ((0, 1), (1, 2))),
}

FAMILY_KINDS = tuple(RINGS)
MIN_N = 3


def _check(kind: str, n: int):
    if kind not in RINGS:
        raise ValueError(f"unknown family {kind!r}")
    if n < MIN_N:
        raise ValueError(f"{kind} needs n >= {MIN_N}, got {n}")


def parse_family(spec: str) -> tuple[str, int]:
    """Parse a CLI family spec like `helm:7` into ("helm", 7)."""
    kind, sep, num = spec.partition(":")
    if not sep:
        raise ValueError(f"family spec must look like kind:n, got {spec!r}")
    # int() would also take "1_0", "+7", " 7" and non-ASCII digits
    if not (num.isascii() and num.isdigit()):
        raise ValueError(f"family parameter must be an integer, got {num!r}")
    n = int(num)
    _check(kind, n)
    return kind, n


def order(kind: str, n: int) -> int:
    """The vertex count of family `kind` with rings of n vertices, read off
    its row without building the graph: the hub, if any, and the rings."""
    _check(kind, n)
    rings, _, spokes, _ = RINGS[kind]
    return (1 if spokes else 0) + rings * n


def edges(kind: str, n: int):
    """Generate the edges of family `kind` with rings of n vertices, without
    building its graph: the hub's spokes, the cycles, then the rungs.
    `make` builds the graph from them, and the witness checks and
    `generate` read them, so all share one source."""
    _check(kind, n)
    rings, pendants, spokes, rungs = RINGS[kind]
    hub = 1 if spokes else 0
    for r in spokes:
        for i in range(n):
            yield 0, hub + r * n + i
    for r in range(rings):
        if r not in pendants:
            base = hub + r * n
            for i in range(n):
                yield base + i, base + (i + 1) % n
    for a, b in rungs:
        for i in range(n):
            yield hub + a * n + i, hub + b * n + i


def make(kind: str, n: int) -> Graph:
    """The graph of family `kind` with rings of n vertices, built from its
    `edges` and carrying its ring layout."""
    size = order(kind, n)
    hub = 1 if RINGS[kind][2] else 0
    return Graph(size, edges(kind, n), rings=(hub, n))
