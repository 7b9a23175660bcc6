"""Write perfbench/reference.json: the expected value and status of every
row of every benchmark grid, and chi and phi of every graph they use.

Every graph with at most ORACLE_MAX_VERTICES vertices is confirmed against
the brute-force oracle, row by row, before the table is written; the run
stops on the first disagreement.

Usage, from the root of the repository:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys

from workloads import REFERENCE, grid_bounds, import_chromasum, row_key

ORACLE_MAX_VERTICES = 12


def main() -> int:
    cs = import_chromasum()
    v = cs.verification
    grids = {}
    graphs = {}
    for grid in ("desk", "frontier"):
        n_min, n_max = grid_bounds(cs, grid)
        rows = v.run_campaign(cs.formulas.COVERED_FAMILIES, n_min, n_max, cs.QUANTITIES, jobs=1)
        print(f"{grid}: {len(rows)} rows, {v.summary_line(rows)}", flush=True)
        grids[grid] = {row_key(r.family, r.n, r.quantity): [r.computed, r.status] for r in rows}
        for r in rows:
            graphs.setdefault(f"{r.family}:{r.n}", {})[r.quantity] = r.computed

    oracle_checked = 0
    for spec, values in graphs.items():
        family, n = spec.split(":")
        g = cs.make(family, int(n))
        values["chi"] = cs.chromatic_number(g).value
        values["phi"] = cs.b_chromatic_number(g).value
        if g.n > ORACLE_MAX_VERTICES:
            continue
        for quantity, value in values.items():
            name = "b_chromatic" if quantity == "phi" else quantity
            audit = cs.brute_force_oracle(g, name).value
            if audit != value:
                print(f"error: {spec} {name}: solver {value}, oracle {audit}", file=sys.stderr)
                return 1
            oracle_checked += 1
    print(f"{len(graphs)} graphs, {oracle_checked} values confirmed by the oracle")

    table = {
        "solver_version": cs.solvers.SOLVER_VERSION,
        "oracle_max_vertices": ORACLE_MAX_VERTICES,
        "grids": grids,
        "graphs": {spec: {"chi": g["chi"], "phi": g["phi"]} for spec, g in graphs.items()},
    }
    REFERENCE.write_text(json.dumps(table, sort_keys=True, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
