"""Published closed-form predictions for each (family, quantity) pair.

Each entry holds its formula as printed -- the claim under audit, not
ground truth.  The source states every formula as a*n + b, with its own a
and b for even n and for odd n, plus values listed for small n, so an
entry holds that shape as data: the integer pairs `even` and `odd`, a
`divisor` (2 for the halved web chi-sum branches 7n/2, (9n+9)/2 and
(15n-9)/2, else 1), and `special`, the listed small-n values.
`FormulaEntry.predict` is the one evaluation rule: special[n] where one is
listed, else (a*n + b) // divisor for n's parity.  Where the published
branch conditions for a family overlap contradictorily (closed helm b-sums
at odd n >= 9), the encoding follows the even/odd case split used in the
source's own derivation, and the entry carries a note so reports surface
the ambiguity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .families import MIN_N

_CH_NOTE = (
    "published branch conditions overlap for odd n >= 9; "
    "encoded per the derivation's even/odd case split"
)


class NoPublishedFormula(LookupError, ValueError):
    """No formula is published for the asked (family, quantity) pair; a
    ValueError too, so the CLI reports it as a usage error."""


@dataclass(frozen=True)
class FormulaEntry:
    family: str
    quantity: str
    source: str
    even: tuple[int, int]  # (a, b): a*n + b for even n
    odd: tuple[int, int]
    special: dict[int, int] = field(default_factory=dict, hash=False)
    divisor: int = 1
    note: str = ""

    def predict(self, n: int) -> int:
        if n < MIN_N:
            raise ValueError(f"{self.family} needs n >= {MIN_N}, got {n}")
        if n in self.special:
            return self.special[n]
        a, b = self.odd if n % 2 else self.even
        return (a * n + b) // self.divisor


# In report order: each family's entries together, in QUANTITIES order.
# COVERED_FAMILIES is their family order.
_ENTRIES = (
    FormulaEntry("double_wheel", "chi_sum_min", "Proposition 2.1", (3, 3), (3, 7)),
    FormulaEntry("double_wheel", "chi_sum_max", "Proposition 2.2", (5, 1), (7, -2)),
    FormulaEntry("double_wheel", "b_sum_min", "Theorem 2.3", (3, 10), (3, 7), {4: 15}),
    FormulaEntry("double_wheel", "b_sum_max", "Theorem 2.4", (7, -5), (7, -2), {4: 21}),
    FormulaEntry("helm", "chi_sum_min", "Theorem 2.5", (3, 3), (3, 7)),
    FormulaEntry("helm", "chi_sum_max", "Theorem 2.6", (5, 1), (7, -2)),
    FormulaEntry(
        "helm", "b_sum_min", "Theorem 2.7", (3, 13), (3, 13), {3: 14, 4: 25, 5: 21, 6: 30},
    ),
    FormulaEntry(
        "helm", "b_sum_max", "Theorem 2.8", (9, -7), (9, -7), {3: 21, 4: 29, 5: 34, 6: 48},
    ),
    FormulaEntry("closed_helm", "chi_sum_min", "Theorem 2.9", (3, 3), (3, 7)),
    FormulaEntry("closed_helm", "chi_sum_max", "Theorem 2.10", (5, 1), (7, -2)),
    FormulaEntry(
        "closed_helm", "b_sum_min", "Theorem 2.11", (3, 15), (3, 16),
        {3: 16, 4: 25, 5: 22, 6: 32}, note=_CH_NOTE,
    ),
    FormulaEntry(
        "closed_helm", "b_sum_max", "Theorem 2.12", (9, -9), (9, -10),
        {3: 19, 4: 29, 5: 33, 6: 47}, note=_CH_NOTE,
    ),
    FormulaEntry("sunlet", "chi_sum_min", "Proposition 2.13", (3, 0), (3, 3)),
    FormulaEntry("sunlet", "chi_sum_max", "Proposition 2.14", (3, 0), (5, -3)),
    FormulaEntry("sunlet", "b_sum_min", "Theorem 2.15", (3, 8), (3, 8), {3: 10, 4: 20, 5: 17}),
    FormulaEntry("sunlet", "b_sum_max", "Theorem 2.16", (7, -8), (7, -8), {3: 14, 4: 20, 5: 23}),
    FormulaEntry("web", "chi_sum_min", "Proposition 2.17", (7, 0), (9, 9), divisor=2),
    FormulaEntry("web", "chi_sum_max", "Proposition 2.18", (7, 0), (15, -9), divisor=2),
    FormulaEntry("web", "b_chromatic", "Theorem 2.19", (0, 5), (0, 5), {3: 4, 4: 4}),
    FormulaEntry("web", "b_sum_min", "Theorem 2.20", (5, 21), (5, 18), {3: 18, 4: 25, 5: 45}),
    FormulaEntry("web", "b_sum_max", "Theorem 2.21", (13, -21), (13, -18), {3: 27, 4: 35, 5: 45}),
)

COVERED_FAMILIES = tuple(dict.fromkeys(e.family for e in _ENTRIES))

_BY_KEY = {(e.family, e.quantity): e for e in _ENTRIES}


def is_covered(family: str, quantity: str) -> bool:
    return (family, quantity) in _BY_KEY


def entry_for(family: str, quantity: str) -> FormulaEntry:
    try:
        return _BY_KEY[(family, quantity)]
    except KeyError:
        raise NoPublishedFormula(f"no published formula for ({family}, {quantity})") from None


def predict(family: str, quantity: str, n: int) -> int:
    """The published value for the quantity on family(n), special small-n
    cases included."""
    return entry_for(family, quantity).predict(n)
