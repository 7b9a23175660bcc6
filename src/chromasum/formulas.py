"""Published closed-form predictions for each (family, quantity) pair.

These functions reproduce the printed values exactly as published -- they
are the claims under audit, not ground truth.  Where the published branch
conditions for a family overlap contradictorily (closed helm b-sums at odd
n >= 9), the encoding follows the even/odd case split used in the source's
own derivation, and the entry carries a note so reports surface the
ambiguity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .families import MIN_N

COVERED_FAMILIES = ("double_wheel", "helm", "closed_helm", "sunlet", "web")

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
    predictor: Callable[[int], int] = field(repr=False)
    note: str = ""

    def predict(self, n: int) -> int:
        if n < MIN_N:
            raise ValueError(f"{self.family} needs n >= {MIN_N}, got {n}")
        return self.predictor(n)


def _dw_chi_min(n: int) -> int:
    return 3 * (n + 1) if n % 2 == 0 else 3 * n + 7


def _dw_chi_max(n: int) -> int:
    return 5 * n + 1 if n % 2 == 0 else 7 * n - 2


def _dw_b_min(n: int) -> int:
    if n == 4:
        return 15
    return 3 * n + 10 if n % 2 == 0 else 3 * n + 7


def _dw_b_max(n: int) -> int:
    if n == 4:
        return 21
    return 7 * n - 5 if n % 2 == 0 else 7 * n - 2


def _helm_b_min(n: int) -> int:
    return {3: 14, 4: 25, 5: 21, 6: 30}.get(n, 3 * n + 13)


def _helm_b_max(n: int) -> int:
    return {3: 21, 4: 29, 5: 34, 6: 48}.get(n, 9 * n - 7)


def _ch_b_min(n: int) -> int:
    special = {3: 16, 4: 25, 5: 22, 6: 32}
    if n in special:
        return special[n]
    return 3 * (n + 5) if n % 2 == 0 else 3 * n + 16


def _ch_b_max(n: int) -> int:
    special = {3: 19, 4: 29, 5: 33, 6: 47}
    if n in special:
        return special[n]
    return 9 * (n - 1) if n % 2 == 0 else 9 * n - 10


def _sunlet_chi_min(n: int) -> int:
    return 3 * n if n % 2 == 0 else 3 * (n + 1)


def _sunlet_chi_max(n: int) -> int:
    return 3 * n if n % 2 == 0 else 5 * n - 3


def _sunlet_b_min(n: int) -> int:
    return {3: 10, 4: 20, 5: 17}.get(n, 3 * n + 8)


def _sunlet_b_max(n: int) -> int:
    return {3: 14, 4: 20, 5: 23}.get(n, 7 * n - 8)


def _web_chi_min(n: int) -> int:
    return 7 * n // 2 if n % 2 == 0 else (9 * n + 9) // 2


def _web_chi_max(n: int) -> int:
    return 7 * n // 2 if n % 2 == 0 else (15 * n - 9) // 2


def _web_phi(n: int) -> int:
    return 4 if n in (3, 4) else 5


def _web_b_min(n: int) -> int:
    special = {3: 18, 4: 25, 5: 45}
    if n in special:
        return special[n]
    return 5 * n + 21 if n % 2 == 0 else 5 * n + 18


def _web_b_max(n: int) -> int:
    special = {3: 27, 4: 35, 5: 45}
    if n in special:
        return special[n]
    return 13 * n - 21 if n % 2 == 0 else 13 * n - 18


# In report order: family order of COVERED_FAMILIES, then QUANTITIES order.
_ENTRIES = (
    FormulaEntry("double_wheel", "chi_sum_min", "Proposition 2.1", _dw_chi_min),
    FormulaEntry("double_wheel", "chi_sum_max", "Proposition 2.2", _dw_chi_max),
    FormulaEntry("double_wheel", "b_sum_min", "Theorem 2.3", _dw_b_min),
    FormulaEntry("double_wheel", "b_sum_max", "Theorem 2.4", _dw_b_max),
    FormulaEntry("helm", "chi_sum_min", "Theorem 2.5", _dw_chi_min),
    FormulaEntry("helm", "chi_sum_max", "Theorem 2.6", _dw_chi_max),
    FormulaEntry("helm", "b_sum_min", "Theorem 2.7", _helm_b_min),
    FormulaEntry("helm", "b_sum_max", "Theorem 2.8", _helm_b_max),
    FormulaEntry("closed_helm", "chi_sum_min", "Theorem 2.9", _dw_chi_min),
    FormulaEntry("closed_helm", "chi_sum_max", "Theorem 2.10", _dw_chi_max),
    FormulaEntry("closed_helm", "b_sum_min", "Theorem 2.11", _ch_b_min, note=_CH_NOTE),
    FormulaEntry("closed_helm", "b_sum_max", "Theorem 2.12", _ch_b_max, note=_CH_NOTE),
    FormulaEntry("sunlet", "chi_sum_min", "Proposition 2.13", _sunlet_chi_min),
    FormulaEntry("sunlet", "chi_sum_max", "Proposition 2.14", _sunlet_chi_max),
    FormulaEntry("sunlet", "b_sum_min", "Theorem 2.15", _sunlet_b_min),
    FormulaEntry("sunlet", "b_sum_max", "Theorem 2.16", _sunlet_b_max),
    FormulaEntry("web", "chi_sum_min", "Proposition 2.17", _web_chi_min),
    FormulaEntry("web", "chi_sum_max", "Proposition 2.18", _web_chi_max),
    FormulaEntry("web", "b_chromatic", "Theorem 2.19", _web_phi),
    FormulaEntry("web", "b_sum_min", "Theorem 2.20", _web_b_min),
    FormulaEntry("web", "b_sum_max", "Theorem 2.21", _web_b_max),
)

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
