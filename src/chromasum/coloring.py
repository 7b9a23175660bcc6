"""Colourings, their extremal labelling, and the weighted colouring sum.

A colouring assigns every vertex a colour index 1..k and the sum weights
each colour class by its index: sum(i * theta_i) where theta_i is the
size of class i.  Colour indices are deliberately 1-based; an off-by-one
here would silently corrupt every solver result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True, slots=True)
class Coloring:
    """Total map vertex -> colour in 1..k with every colour used."""

    k: int
    colors: tuple[int, ...]

    def __post_init__(self):
        k, colors = self.k, tuple(self.colors)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        # checked before anything is built per colour, so a huge k costs nothing
        if k > len(colors):
            raise ValueError(f"k = {k} exceeds {len(colors)} vertices, so some colours are unused")
        used = set()
        for v, c in enumerate(colors):
            if not (1 <= c <= k):
                raise ValueError(f"vertex {v} has colour {c} outside 1..{k}")
            used.add(c)
        if len(used) != k:
            missing = sorted(set(range(1, k + 1)) - used)
            raise ValueError(f"colours {missing} are unused; empty classes are forbidden")
        object.__setattr__(self, "colors", colors)

    def to_json(self) -> dict:
        return {"k": self.k, "colors": list(self.colors)}

    @classmethod
    def from_json(cls, data: dict) -> "Coloring":
        """Decode `to_json` output.  k and each colour must be an int (not
        a bool) and colors a list: nothing is converted."""
        k, colors = data["k"], data["colors"]
        if type(colors) is not list or any(type(c) is not int for c in (k, *colors)):
            raise ValueError("a colouring needs an int k and a list of int colours")
        return cls(k, colors)


def coloring_sum(coloring: Coloring) -> int:
    """sum(i * theta_i): class i adds i once per vertex, so the colours' sum."""
    return sum(coloring.colors)


def optimal_labeling(labels: Sequence[int], direction: str) -> Coloring:
    """The colouring whose classes are those of the colour list `labels`
    (vertex v in class labels[v], any class ids), numbered 1..k so the sum
    is extremal: class sizes nonincreasing in colour index for min,
    nondecreasing for max, ties broken on a class's smallest vertex."""
    if direction not in ("min", "max"):
        raise ValueError(f"direction must be 'min' or 'max', got {direction!r}")
    sizes: dict[int, int] = {}
    first: dict[int, int] = {}
    for v, c in enumerate(labels):
        if c in sizes:
            sizes[c] += 1
        else:
            sizes[c], first[c] = 1, v
    sign = -1 if direction == "min" else 1
    ordered = sorted(first, key=lambda c: (sign * sizes[c], first[c]))
    colour = {c: idx for idx, c in enumerate(ordered, start=1)}
    return Coloring(len(ordered), [colour[c] for c in labels])


def colours(edges: Iterable[tuple[int, int]], coloring: Coloring, b: bool = False) -> bool:
    """True iff no edge joins two vertices of one colour and, with `b`,
    every colour class holds a b-vertex: one whose neighbours show every
    colour but its own.  One pass over the edges, which must lie within
    the colouring's vertices; with `b` it ORs each neighbour's colour bit
    into a mask per vertex."""
    cols = coloring.colors
    if not b:
        return all(cols[u] != cols[v] for u, v in edges)
    sees = [0] * len(cols)
    for u, v in edges:
        cu, cv = cols[u], cols[v]
        if cu == cv:
            return False
        sees[u] |= 1 << cv
        sees[v] |= 1 << cu
    every = (1 << coloring.k + 1) - 2  # colours 1..k
    return len({c for c, mask in zip(cols, sees) if mask | 1 << c == every}) == coloring.k
