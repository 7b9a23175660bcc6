"""The cycle-derived graph families under study, built from one ring table.

Every family is an optional hub followed by rings of n vertices each.  A
ring is a cycle unless its row marks it as a set of pendants; the hub
joins some rings by spokes; a rung pair (a, b) joins vertex i of ring a to
vertex i of ring b.  Vertex ids are deterministic -- hub 0 if present,
then vertex i of ring r is hub + r*n + i -- so solver witnesses are
reproducible and comparable between runs.  Each generated graph carries
its family tag and its dihedral group D_n: the rotations and reflections
of the ring index, applied to every ring at once, with the hub fixed.
They are automorphisms of every row, because spokes join whole rings and
rungs pair equal ring indices.
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


def _at(kind: str, n: int):
    """at(ring, i): the id of vertex i (mod n) of ring `ring` of kind(n)."""
    hub = 1 if RINGS[kind][2] else 0
    return lambda ring, i: hub + ring * n + i % n


def edges(kind: str, n: int) -> list[tuple[int, int]]:
    """The edges of family `kind` with rings of n vertices: the hub's
    spokes, the cycles and the rungs.  With `order(kind, n)` vertices they
    make the graph of `make` without its dihedral group, whose building and
    checking is most of make's cost."""
    _check(kind, n)
    rings, pendants, spokes, rungs = RINGS[kind]
    at = _at(kind, n)
    cycles = [r for r in range(rings) if r not in pendants]
    out = [(0, at(r, i)) for r in spokes for i in range(n)]
    out += [(at(r, i), at(r, i + 1)) for r in cycles for i in range(n)]
    out += [(at(a, i), at(b, i)) for a, b in rungs for i in range(n)]
    return out


def make(kind: str, n: int) -> Graph:
    """The graph of family `kind` with rings of n vertices, carrying its
    dihedral group."""
    size = order(kind, n)
    rings, _, spokes, _ = RINGS[kind]
    hub = 1 if spokes else 0
    at = _at(kind, n)
    # i -> s + i (rotations) and i -> s - i (reflections), identity first
    dihedral = tuple(
        tuple(range(hub)) + tuple(at(r, s + sign * i) for r in range(rings) for i in range(n))
        for s in range(n)
        for sign in (1, -1)
    )
    return Graph(size, edges(kind, n), family=(kind, n), automorphisms=dihedral)
