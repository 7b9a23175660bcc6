"""Campaign runner: solve (family, n, quantity) grids, compare against the
published predictions, and emit reports plus re-validatable witness files.

A mismatch is a first-class outcome, not a failure: the harness exists to
audit the published values, so disagreements surface as data.  The unit of
work is the search: a campaign plans, looks up, runs and caches only the
searches its rows are read from (`solvers.SEARCH_OF`), and reads each row
off its search's outcome.  A *_sum_max row is the max twin of its solved
*_sum_min search, or the same BudgetExhausted when that search aborted.
A plan with no row is a ValueError, raised before any directory is made.
Each search a run solves is one call of its solver, `chromatic_number`,
`chi_sum`, `b_chromatic_number` or `b_sum`, looked up in this module's
namespace (`_search`), and a search the cache serves calls none.
The (family, n) groups a run must solve are dispatched largest graph first
(by vertex count, ties in plan order), so the longest searches do not start
last.  Every group, served or solved, is finished in one place: its
outcomes recorded and cached, its rows built and its witness files written.
A pooled run finishes the groups the cache served entirely once every group
is dispatched, and each solved group as soon as it returns, so the writes
overlap the workers' searches; a serial run finishes them all after its
last search.  A pooled run that fails cancels the groups no worker has
started before it raises, and saves no cache.
Rows are produced in a fixed (family, n, quantity) order regardless of how
worker jobs complete, and cached results carry their original node/time
counts, so warm reruns are byte-identical to the run that populated the
cache.  Every file a run writes (witnesses, reports, the cache) goes
through `_write_if_changed`: a rerun leaves untouched, mtime included, any
file that already holds its bytes, compared by one raw read of at most
len + 1 bytes, and any other file is written beside it and renamed into
place, so no file is ever left half-written.  report.json is built from
json's C encoder, yet byte for byte in json's indent=2 layout
(`_render_json`), and every encoder is built once, at import.  Each
search's outcome, a SumResult or the BudgetExhausted that aborted it,
crosses the process pool as it is; an aborted row reports the nodes and
millis its search's tracker counted.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from . import families, formulas, solvers
from .coloring import Coloring, colours
from .graphs import Graph
from .solvers import (
    QUANTITIES,
    SEARCH_OF,
    SOLVER_VERSION,
    BudgetExhausted,
    SearchBudget,
    SumResult,
    b_chromatic_number,
    b_sum,
    chi_sum,
    chromatic_number,
    max_twin,
    witness_value,
)

CACHE_VERSION = 2

# Default largest cycle parameter per family for a desk-scale campaign.
DESK_CAPS = {"double_wheel": 7, "helm": 7, "closed_helm": 7, "sunlet": 8, "web": 5}

# json builds a new encoder for every dumps call given an option, so these
# are built once.  None has an indent, which would send json to its
# pure-Python encoder, about four times slower: the witnesses and the cache
# take no indent, and report.json's rows (depth 3) and summary (depth 2)
# take their line break and indent as the item separator (`_render_json`).
_SORTED_JSON = json.JSONEncoder(sort_keys=True)
_ROW_JSON = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": "))
_SUMMARY_JSON = json.JSONEncoder(sort_keys=True, separators=(",\n    ", ": "))


@dataclass(frozen=True)
class VerificationRow:
    family: str
    n: int
    quantity: str
    predicted: int
    computed: int | None
    status: str  # match | mismatch | aborted
    witness_path: str
    nodes_explored: int
    elapsed_ms: int

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "quantity": self.quantity,
            "predicted": self.predicted,
            "computed": self.computed,
            "status": self.status,
            "witness": self.witness_path,
            "nodes": self.nodes_explored,
            "millis": self.elapsed_ms,
        }


class ResultsCache:
    """JSON store of search results keyed by (family, n, search).

    An entry holds only what no check can derive: the witness and the
    search's node and millisecond counts.  Its quantity is its key's search
    and its value is what its witness shows (`witness_value`).  Only
    searches are stored: a *_sum_max row is read off its *_sum_min entry.
    The file records CACHE_VERSION and SOLVER_VERSION once; a file with
    either different, or one that is corrupt, is discarded with a warning
    and rebuilt, but a path that is a directory, or one under a file, is an
    OSError before any search, as `save` could not write it.  Each entry is
    checked once, when the file is loaded, and kept only if a run can ask
    for its key, its node and millisecond counts are ints of at least 0,
    and its witness passes `_witness`, the check report rows pass too.  No
    entry that fails is served or saved again.  `put` stores the solver's
    own results as they are."""

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self._entries: dict[str, SumResult] = {}
        self._load()

    def _load(self):
        if self.path.is_dir():
            raise IsADirectoryError(f"cache path {self.path} is a directory")
        if not self.path.exists():
            ancestor = next(p for p in self.path.parents if p.exists())
            if not ancestor.is_dir():
                raise NotADirectoryError(f"cache path {self.path} is under {ancestor}, which is not a directory")
            return
        try:
            data = json.loads(self.path.read_text())
            versions = (data.get("version"), data.get("solver_version"))
            if versions != (CACHE_VERSION, SOLVER_VERSION):
                raise ValueError(f"unsupported cache and solver versions {versions!r}")
            entries = data["entries"]
            if not isinstance(entries, dict):
                raise ValueError("entries must be an object")
        except Exception as exc:  # corrupt cache is recoverable by resolving
            print(f"warning: discarding unreadable cache {self.path}: {exc}", file=sys.stderr)
            return
        for key, entry in entries.items():
            spec, _, search = key.rpartition(":")
            try:
                kind, n = families.parse_family(spec)
                if key != self._key(kind, n, search) or SEARCH_OF.get(search) != search:
                    continue  # a key no run asks for
                coded, counts = entry["witness"], (entry["nodes"], entry["millis"])
            except (KeyError, TypeError, ValueError):
                continue  # malformed entry: a miss, re-solved on demand
            if all(type(c) is int and c >= 0 for c in counts) and (witness := _witness(kind, n, search, coded)):
                self._entries[key] = SumResult(search, witness_value(search, witness), witness, *counts)

    @staticmethod
    def _key(family: str, n: int, quantity: str) -> str:
        return f"{family}:{n}:{quantity}"

    def get(self, family: str, n: int, quantity: str) -> SumResult | None:
        return self._entries.get(self._key(family, n, quantity))

    def put(self, family: str, n: int, quantity: str, result: SumResult):
        self._entries[self._key(family, n, quantity)] = result

    def save(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        entries = {
            key: {"witness": r.witness.to_json(), "nodes": r.nodes_explored, "millis": r.elapsed_ms}
            for key, r in self._entries.items()
        }
        payload = {"version": CACHE_VERSION, "solver_version": SOLVER_VERSION, "entries": entries}
        _write_if_changed(self.path, _SORTED_JSON.encode(payload) + "\n")


def _write_if_changed(path: str | os.PathLike, text: str):
    """Write text to path unless the file already holds exactly its bytes,
    so a rerun leaves an unchanged file, and its mtime, alone.  The compare
    is one raw read of at most len + 1 bytes, so a longer file differs
    without being read to its end (a regular file's read returns every
    byte it asks for up to the end of the file).  An absent file fails its
    open and is written without a byte being read.  Any other file is
    written to the per-process temporary `<name>.<pid>.tmp` beside it and
    renamed over path, so a reader sees the old bytes or the new ones,
    never part of them, and processes that share a file never write the
    same temporary file.  A write that fails removes its temporary file."""
    data = text.encode()
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            if os.read(fd, len(data) + 1) == data:
                return
        finally:
            os.close(fd)
    except OSError:
        pass  # missing or unreadable: written below
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            view = memoryview(data)
            while view:  # a write may take only part of what it is given
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def _search(g: Graph, search: str, budget: SearchBudget) -> SumResult:
    """One of the four searches of `SEARCH_OF` on g.  Its solver is looked
    up in this module's namespace, so a wrapper set on one of them sees
    every search a campaign runs."""
    if search == "chi":
        return chromatic_number(g, budget)
    if search == "b_chromatic":
        return b_chromatic_number(g, budget)
    return (chi_sum if search == "chi_sum_min" else b_sum)(g, "min", budget)


def _solve_group(task) -> dict[str, SumResult | BudgetExhausted]:
    """Run the given searches of one (family, n), each on its own budget,
    and map each search to its result or to the BudgetExhausted that
    aborted it; both pickle, so they cross the process pool as they are."""
    family, n, searches, budget = task
    g = families.make(family, n)
    out: dict[str, SumResult | BudgetExhausted] = {}
    for search in searches:
        try:
            out[search] = _search(g, search, budget)
        except BudgetExhausted as exc:
            out[search] = exc
    return out


def _witness(family: str, n: int, quantity: str, data) -> Coloring | None:
    """The colouring `data` from disk encodes if it witnesses `quantity` of
    family(n): one colour per vertex, proper on the family's edges (a
    b-colouring for a b quantity) with chi(G) (phi(G)) colours; else None."""
    try:
        witness = Coloring.from_json(data)
    except (KeyError, TypeError, ValueError):
        return None
    b = quantity.startswith("b_")
    proper = len(witness.colors) == families.order(family, n) and colours(families.edges(family, n), witness, b)
    return witness if proper and _is_chi_or_phi(family, n, b, witness.k) else None


@functools.lru_cache(maxsize=1024)
def _is_chi_or_phi(family: str, n: int, b: bool, k: int) -> bool:
    """Whether a k-colouring (b-colouring with b) of family(n) has chi(G)
    (phi(G)) colours: if its edges prove chi >= k, or with b if k = m(G);
    else if k is the number solved on the graph, of at most 12 vertices."""
    size, edges = families.order(family, n), families.edges(family, n)
    if (k == _m(edges)) if b else _chi_at_least(edges, k):
        return True
    number = "b_chromatic" if b else "chi"
    return size <= 12 and k == solvers.solve(Graph(size, families.edges(family, n)), number).value


def _chi_at_least(edges, k: int) -> bool:
    """Whether the edges prove chi >= k, read only as far as k needs: any
    graph for 1, an edge for 2, an odd cycle for 3, an odd wheel (a vertex
    whose open neighbourhood holds an odd cycle) for 4, none past 4."""
    if k <= 2 or k > 4:
        return k == 1 or k == 2 and next(iter(edges), None) is not None
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    for within in [set(adj)] if k == 3 else adj.values():
        side: dict[int, int] = {}  # the parity of each vertex a BFS reached
        for root in within:
            queue = [] if root in side else [root]
            side.setdefault(root, 0)
            for u in queue:
                for w in (adj[u] & within) - side.keys():
                    side[w] = 1 - side[u]
                    queue.append(w)
        if any(side[u] == side[w] for u in within for w in adj[u] & within):
            return True
    return False


def _m(edges) -> int:
    """m(G) >= phi (Irving & Manlove, DAM 1999), read off the degrees: the
    most i vertices of degree at least i - 1, and 1 where there is no edge."""
    degree = sorted(Counter(v for edge in edges for v in edge).values(), reverse=True)
    return sum(d >= i for i, d in enumerate(degree)) or 1


def plan_tasks(
    family_kinds,
    n_min: int,
    n_max: int | dict[str, int],
    quantities,
) -> list[tuple[str, int, str]]:
    """Deterministic (family, n, quantity) grid restricted to pairs covered
    by a published formula."""
    kinds = [f for f in formulas.COVERED_FAMILIES if f in set(family_kinds)]
    unknown = set(family_kinds) - set(families.FAMILY_KINDS)
    if unknown:
        raise ValueError(f"unknown families: {sorted(unknown)}")
    wanted = set(quantities)
    bad = wanted - set(QUANTITIES)
    if bad:
        raise ValueError(f"unknown quantities: {sorted(bad)}")
    caps = n_max if isinstance(n_max, dict) else dict.fromkeys(kinds, n_max)
    uncapped = [f for f in kinds if f not in caps]
    if uncapped:
        raise ValueError(f"no n_max cap for families: {uncapped}")
    tasks = []
    for family in kinds:
        for n in range(max(n_min, families.MIN_N), caps[family] + 1):
            for quantity in QUANTITIES:
                if quantity in wanted and formulas.is_covered(family, quantity):
                    tasks.append((family, n, quantity))
    return tasks


def run_campaign(
    family_kinds,
    n_min: int,
    n_max: int | dict[str, int],
    quantities,
    budget: SearchBudget | None = None,
    out_dir: str | os.PathLike | None = None,
    cache: ResultsCache | None = None,
    jobs: int = 1,
) -> list[VerificationRow]:
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    budget = budget or SearchBudget()
    tasks = plan_tasks(family_kinds, n_min, n_max, quantities)
    if not tasks:  # so an audit of nothing cannot pass
        raise ValueError(
            f"nothing to audit: no published formula covers families {','.join(family_kinds)} "
            f"with quantities {','.join(quantities)} for n from {n_min} to {n_max}"
        )
    # made before any search, so a run that cannot write its witnesses
    # fails before it solves anything
    witness_dir = None
    if out_dir is not None:
        witness_dir = os.path.join(out_dir, "witnesses")
        os.makedirs(witness_dir, exist_ok=True)

    # each (family, n)'s quantities in plan order, and the outcomes of the
    # searches they are read from, once each
    groups: dict[tuple[str, int], list[str]] = {}
    for family, n, quantity in tasks:
        groups.setdefault((family, n), []).append(quantity)
    found: dict[tuple[str, int], dict[str, SumResult | BudgetExhausted]] = {}
    served, group_tasks = [], []
    for (family, n), quantities in groups.items():
        found[(family, n)] = outcomes = {}
        missing = []
        for search in dict.fromkeys(SEARCH_OF[q] for q in quantities):
            hit = cache.get(family, n, search) if cache is not None else None
            if hit is None:
                missing.append(search)
            else:
                outcomes[search] = hit
        if missing:
            group_tasks.append((family, n, tuple(missing), budget))
        else:
            served.append((family, n))
    # largest graph first, ties in plan order: the longest searches start
    # while every worker is still free (Graham's LPT rule)
    group_tasks.sort(key=lambda task: -families.order(task[0], task[1]))

    rows_of: dict[tuple[str, int], list[VerificationRow]] = {}

    def finish(key, outcomes):
        """Record and cache a group's new outcomes, and build its rows."""
        found[key].update(outcomes)
        if cache is not None:
            for search, outcome in outcomes.items():
                if isinstance(outcome, SumResult):
                    cache.put(*key, search, outcome)
        rows_of[key] = _group_rows(*key, groups[key], found[key], witness_dir)

    if jobs > 1 and len(group_tasks) > 1:
        # only pooled runs pay this import
        from concurrent.futures import ProcessPoolExecutor, as_completed

        # a forked pool starts all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(jobs, len(group_tasks))) as pool:
            try:
                futures = {pool.submit(_solve_group, task): task[:2] for task in group_tasks}
                # each group's witnesses are written while the workers search
                for key in served:
                    finish(key, {})
                for future in as_completed(futures):
                    finish(futures[future], future.result())
            except BaseException:
                # the queued groups would otherwise all run before it surfaces
                pool.shutdown(cancel_futures=True)
                raise
    else:
        # every search before the first write, which between them was slower
        solved = {task[:2]: _solve_group(task) for task in group_tasks}
        for key in groups:
            finish(key, solved.get(key, {}))
    rows = [row for key in groups for row in rows_of[key]]
    if cache is not None:
        cache.save()
    return rows


def _group_rows(family, n, quantities, outcomes, witness_dir) -> list[VerificationRow]:
    """The rows of one (family, n), one per quantity, each read off its
    search's outcome, and the witness file of each solved row written into
    witness_dir (none when it is None)."""
    rows = []
    for quantity in quantities:
        predicted = formulas.predict(family, quantity, n)
        outcome = outcomes[SEARCH_OF[quantity]]
        if isinstance(outcome, SumResult) and outcome.quantity != quantity:
            outcome = max_twin(outcome)
        computed, status, witness_rel = None, "aborted", ""
        if isinstance(outcome, SumResult):
            computed = outcome.value
            status = "match" if computed == predicted else "mismatch"
            if witness_dir is not None:
                name = f"{family}-{n}-{quantity}.json"
                witness_rel = f"witnesses/{name}"
                text = _SORTED_JSON.encode(outcome.witness.to_json()) + "\n"
                _write_if_changed(f"{witness_dir}/{name}", text)
        rows.append(
            VerificationRow(
                family, n, quantity, predicted, computed, status, witness_rel,
                outcome.nodes_explored, outcome.elapsed_ms,
            )
        )
    return rows


def status_counts(rows) -> dict[str, int]:
    """Rows per outcome, keyed as in the report summaries."""
    statuses = [r.status for r in rows]
    return {
        "matches": statuses.count("match"),
        "mismatches": statuses.count("mismatch"),
        "aborted": statuses.count("aborted"),
    }


def summary_line(rows) -> str:
    return " ".join(f"{name}={count}" for name, count in status_counts(rows).items())


def render_report(rows, fmt: str) -> str:
    if fmt not in REPORT_FORMATS:
        raise ValueError(f"unknown report format {fmt!r}")
    return REPORT_FORMATS[fmt][1](rows)


def _render_csv(rows) -> str:
    lines = ["family,n,quantity,predicted,computed,status,nodes,millis,witness"]
    for r in rows:
        computed = "-" if r.computed is None else str(r.computed)
        witness = r.witness_path or "-"
        lines.append(
            f"{r.family},{r.n},{r.quantity},{r.predicted},{computed},{r.status},"
            f"{r.nodes_explored},{r.elapsed_ms},{witness}"
        )
    return "\n".join(lines) + "\n"


def _render_json(rows) -> str:
    """`json.dumps(payload, sort_keys=True, indent=2) + "\\n"` of the payload
    {"rows": [each row's to_json()], "summary": status_counts(rows)}, byte
    for byte, from json's C encoder: each flat object is encoded with its
    line break and indent as the item separator, then framed."""
    objects = ",\n    ".join("{\n      " + _ROW_JSON.encode(r.to_json())[1:-1] + "\n    }" for r in rows)
    listed = f"[\n    {objects}\n  ]" if rows else "[]"
    summary = _SUMMARY_JSON.encode(status_counts(rows))[1:-1]
    return f'{{\n  "rows": {listed},\n  "summary": {{\n    {summary}\n  }}\n}}\n'


def _render_markdown(rows) -> str:
    out = ["# Verification report", ""]
    by_family: dict[str, list[VerificationRow]] = {}
    for r in rows:
        by_family.setdefault(r.family, []).append(r)
    for family, frows in by_family.items():
        out.append(f"## {family}")
        out.append("")
        out.append("| n | quantity | source | predicted | computed | status |")
        out.append("|---|----------|--------|-----------|----------|--------|")
        noted = {}
        for r in frows:
            entry = formulas.entry_for(r.family, r.quantity)
            computed = "-" if r.computed is None else str(r.computed)
            out.append(
                f"| {r.n} | {r.quantity} | {entry.source} | {r.predicted} | {computed} | {r.status} |"
            )
            if entry.note:
                noted[entry.source] = entry.note
        for source, note in noted.items():
            out.append("")
            out.append(f"*{source}: {note}*")
        out.append("")
    out.append(summary_line(rows))
    return "\n".join(out) + "\n"


# Each report format, the one list of them: its file and its renderer.
REPORT_FORMATS = {
    "csv": ("report.csv", _render_csv),
    "json": ("report.json", _render_json),
    "markdown": ("report.md", _render_markdown),
}
REPORT_FILES = {fmt: name for fmt, (name, _) in REPORT_FORMATS.items()}


def write_reports(rows, out_dir: str | os.PathLike, formats=tuple(REPORT_FORMATS)) -> list[Path]:
    unknown = [fmt for fmt in formats if fmt not in REPORT_FORMATS]
    if unknown:  # before any file is written
        raise ValueError(f"unknown report formats: {unknown}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for fmt in formats:
        path = out / REPORT_FILES[fmt]
        _write_if_changed(path, render_report(rows, fmt))
        written.append(path)
    return written


def validate_witness(row: VerificationRow, base_dir: str | os.PathLike) -> bool:
    """Re-validate a report row's witness file from scratch: it must pass
    the cache's witness check (`_witness`) and show the row's value.  A row
    with no witness file, or one missing or unreadable, fails the check."""
    try:
        data = json.loads((Path(base_dir) / row.witness_path).read_text())
    except (OSError, ValueError):
        return False
    witness = _witness(row.family, row.n, row.quantity, data)
    return witness is not None and witness_value(row.quantity, witness) == row.computed
