"""Workload grids, the fresh import of chromasum, and the row checks.

Shared by the benchmark (run.py) and the reference-table generator
(make_reference.py), so both see the same rows.
"""

from __future__ import annotations

import importlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

# The frontier tier starts past the small instances and ends two steps past
# each family's desk cap; closed_helm:9 is the first odd n >= 9 row audited.
FRONTIER_N_MIN = 6
FRONTIER_STEPS = 2

CHI_QUANTITIES = ("chi", "chi_sum_min", "chi_sum_max")


@dataclass(frozen=True)
class Workload:
    name: str
    grid: str  # "desk" or "frontier"
    jobs: int
    warm: bool
    setup_repeats: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk_cold", "desk", jobs=1, warm=False, setup_repeats=11),
        Workload("desk_warm", "desk", jobs=1, warm=True, setup_repeats=5),
        Workload("frontier", "frontier", jobs=1, warm=False, setup_repeats=11),
        # jobs is fixed rather than taken from the host's core count, so the
        # workload is the same on every machine.
        Workload("frontier_pool", "frontier", jobs=2, warm=False, setup_repeats=11),
    )
}


def import_chromasum():
    """Import chromasum afresh from this checkout's src/.

    Any copy already loaded is dropped first, so set-up can be timed more
    than once in a process.  Raises ImportError when src/ does not hold the
    package, rather than falling back to an installed copy."""
    for name in [m for m in sys.modules if m == "chromasum" or m.startswith("chromasum.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cs = importlib.import_module("chromasum")
    if Path(cs.__file__).resolve().parent != SRC / "chromasum":
        raise ImportError(f"chromasum was imported from {cs.__file__}, not from {SRC}")
    return cs


def grid_bounds(cs, grid: str) -> tuple[int, dict[str, int]]:
    """(n_min, per-family n_max) of a grid, as run_campaign takes them."""
    caps = cs.verification.DESK_CAPS
    if grid == "desk":
        return cs.families.MIN_N, dict(caps)
    return FRONTIER_N_MIN, {family: cap + FRONTIER_STEPS for family, cap in caps.items()}


def row_key(family: str, n: int, quantity: str) -> str:
    return f"{family}:{n}:{quantity}"


def check_rows(cs, rows, out_dir: Path, reference: dict, grid: str) -> list[str]:
    """Every way the rows of one pass differ from the reference table, one
    string per failed row.  A row fails if it is missing or aborted, if its
    value or status differs from the table, if its witness fails
    re-validation, or if the witness's k is not chi (chi quantities) or phi
    (b quantities) of its graph."""
    expected = reference["grids"][grid]
    graphs = reference["graphs"]
    failures = []
    seen = set()
    for row in rows:
        key = row_key(row.family, row.n, row.quantity)
        seen.add(key)
        want = expected.get(key)
        if want is None:
            failures.append(f"{key}: not in the reference table")
            continue
        if row.status == "aborted":
            failures.append(f"{key}: aborted")
            continue
        if [row.computed, row.status] != want:
            failures.append(f"{key}: got {row.computed} {row.status}, want {want[0]} {want[1]}")
            continue
        if not cs.verification.validate_witness(row, out_dir):
            failures.append(f"{key}: witness fails re-validation")
            continue
        k = json.loads((out_dir / row.witness_path).read_text())["k"]
        graph = graphs[f"{row.family}:{row.n}"]
        want_k = graph["chi"] if row.quantity in CHI_QUANTITIES else graph["phi"]
        if k != want_k:
            failures.append(f"{key}: witness has k={k}, want {want_k}")
    failures.extend(f"{key}: missing" for key in expected if key not in seen)
    return failures
