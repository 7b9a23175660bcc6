"""Benchmark of chromasum's audit campaign, end to end and layer by layer.

One pass does what `chromasum verify` does through the library: open the
results cache, run_campaign over a grid, write_reports, each pass into a
fresh output directory with a fresh cache.  Every row of every pass is then
checked, outside the timed window, against perfbench/reference.json, and
every witness is re-validated.

With --trace 0 the run reports the end-to-end metrics.  With --trace 1 it
alternates untraced passes with passes traced by spans around the calls
into each layer (see spans.py) and reports the per-layer split, plus the
tracing overhead: traced minus untraced median wall time.  Metric names and
units are read from BENCHMARK.json at the root of the checkout.

Times measured in this process are scaled to a host of fixed speed (see
hostspeed.py); the unscaled medians are printed beside them.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload desk_cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

The seed sets the order of workloads (with --workload all) and of traced
and untraced passes; the grids themselves are fixed.  The last line of
standard output is one JSON object: correct, attempted and failed (rows),
and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import random
import re
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

from hostspeed import NOMINAL_S, Speedometer
from spans import Tracer, discount, self_times
from workloads import (
    HERE,
    REFERENCE,
    ROOT,
    SRC,
    WORKLOADS,
    check_rows,
    grid_bounds,
    import_chromasum,
)

WORK = ROOT / ".perfbench_work"
SPEC = ROOT / "BENCHMARK.json"

SOLVER_CALLS = ("chi", "phi", "chi_sum_min", "chi_sum_max", "b_sum_min", "b_sum_max")
SEARCH_CALLS = ("chi_sum_min", "chi_sum_max", "b_sum_min", "b_sum_max")

# Per-layer counts that must repeat exactly between traced passes and runs
# of the same code.
COUNT_SUFFIXES = (".nodes", ".calls", ".graphs", "_hits", "_misses", "_bytes")

MILLIS_JSON = re.compile(r'("millis":\s*)\d+')


def timed_pass(api, cs, workload, pass_dir: Path, warm_dir: Path | None, speed, sample_inside):
    """One pass into pass_dir, which starts as a copy of warm_dir if given;
    returns (rows, its measured Interval)."""
    cache_path = pass_dir / "cache" / "results.json"
    if warm_dir is not None:
        shutil.copytree(warm_dir, pass_dir, dirs_exist_ok=True)
    n_min, n_max = grid_bounds(cs, workload.grid)
    kinds, quantities = cs.formulas.COVERED_FAMILIES, cs.QUANTITIES

    def verify():
        cache = api.ResultsCache(cache_path)
        rows = api.run_campaign(
            kinds, n_min, n_max, quantities, out_dir=pass_dir, cache=cache, jobs=workload.jobs
        )
        api.write_reports(rows, pass_dir)
        return rows

    gc.collect()  # so the checks' garbage is not collected inside the window
    return speed.measure(verify, sample_inside)


def set_up(workload, run_dir: Path):
    """Import chromasum afresh and prepare the workload.  For a warm
    workload that is a cold pass into an output directory, which each warm
    pass starts from: the cache is filled, and witnesses and reports are
    rewritten in place, as when `chromasum verify` runs again into the
    same --out directory."""
    cs = import_chromasum()
    if not workload.warm:
        return cs, None
    out_dir = Path(tempfile.mkdtemp(dir=run_dir, prefix="setup-"))
    cache = cs.ResultsCache(out_dir / "cache" / "results.json")
    n_min, n_max = grid_bounds(cs, workload.grid)
    rows = cs.run_campaign(
        cs.formulas.COVERED_FAMILIES, n_min, n_max, cs.QUANTITIES,
        out_dir=out_dir, cache=cache, jobs=workload.jobs,
    )
    cs.verification.write_reports(rows, out_dir)
    return cs, out_dir


def stable_bytes(path: Path) -> int:
    """Size of a report or cache file with its timing fields (JSON "millis"
    values, the csv millis column) written as 0, so it repeats exactly."""
    text = path.read_text()
    if path.suffix == ".csv":
        lines = text.split("\n")
        col = lines[0].split(",").index("millis")
        for i in range(1, len(lines)):
            fields = lines[i].split(",")
            if len(fields) > col:
                fields[col] = "0"
                lines[i] = ",".join(fields)
        text = "\n".join(lines)
    else:
        text = MILLIS_JSON.sub(r"\g<1>0", text)
    return len(text.encode())


def layer_metrics(cs, spans: list[dict], wall: float, jobs: int, pass_dir: Path):
    """Per-layer metrics of one traced pass and the solve time of each
    (family, n) group.  Times are self times (see spans.self_times)."""
    own = self_times(spans)

    def total(name):
        return sum(t for s, t in zip(spans, own) if s["name"] == name)

    def count(name):
        return sum(1 for s in spans if s["name"] == name)

    m = {"families.make_s": total("families.make"), "families.graphs": count("families.make")}
    search_s = search_nodes = 0
    for call in SOLVER_CALLS:
        name = f"solvers.{call}"
        nodes = sum(s["nodes"] for s in spans if s["name"] == name)
        m[f"{name}.s"] = total(name)
        m[f"{name}.nodes"] = nodes
        m[f"{name}.calls"] = count(name)
        if call in SEARCH_CALLS:
            search_s += m[f"{name}.s"]
            search_nodes += nodes
    m["solvers.search_us_per_node"] = 1e6 * search_s / search_nodes if search_nodes else 0.0
    m["coloring.label_s"] = total("coloring.label")
    m["coloring.decode_s"] = total("coloring.decode")
    m["verification.cache_load_s"] = total("verification.cache_load")
    m["verification.cache_save_s"] = total("verification.cache_save")
    m["verification.cache_hits"] = sum(1 for s in spans if s.get("hit") is True)
    m["verification.cache_misses"] = sum(1 for s in spans if s.get("hit") is False)
    m["verification.cache_bytes"] = stable_bytes(pass_dir / "cache" / "results.json")
    m["verification.campaign_self_s"] = total("verification.run_campaign")
    m["verification.witness_bytes"] = sum(
        p.stat().st_size for p in (pass_dir / "witnesses").glob("*.json")
    )
    m["verification.report_s"] = total("verification.write_reports")
    m["verification.report_bytes"] = sum(
        stable_bytes(pass_dir / name) for name in cs.verification.REPORT_FILES.values()
    )
    # Whoever runs the (family, n) groups, the pool's workers or this
    # process, is busy solving for this long; the rest of jobs * wall idles.
    solving = [s for s in spans if s["name"] == "families.make" or s["name"].startswith("solvers.")]
    m["verification.pool_idle_frac"] = 1.0 - sum(s["dur"] for s in solving) / (jobs * wall)
    groups: dict[str, float] = {}
    for s in solving:
        groups[s["group"]] = groups.get(s["group"], 0.0) + s["dur"]
    return m, groups


def is_count(name: str) -> bool:
    return name.endswith(COUNT_SUFFIXES)


def code_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def check_counts(workload_name: str, samples: list[dict]) -> list[str]:
    """Counts that differ between traced passes of this run, or from the
    counts an earlier run of the same code recorded in this checkout."""
    counts = [{k: v for k, v in s.items() if is_count(k)} for s in samples]
    problems = [
        f"{k}: {counts[0][k]} then {c[k]}" for c in counts[1:] for k in c if c[k] != counts[0][k]
    ]
    record = WORK / "counts" / f"{workload_name}-{code_hash()}.json"
    if record.exists():
        earlier = json.loads(record.read_text())
        problems += [
            f"{k}: {earlier.get(k)} in an earlier run, {v} now"
            for k, v in counts[0].items()
            if earlier.get(k) != v
        ]
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        tmp = record.with_name(f"{record.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(counts[0], sort_keys=True) + "\n")
        os.replace(tmp, record)
    return problems


def tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return f"p{p:g}={sorted(samples)[math.ceil(p / 100 * n) - 1]:.6g}"
    return "p=n/a"


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def run_workload(workload, seconds: float, trace: bool, rng: random.Random, reference: dict, units):
    """Set up, run passes for `seconds`, check them; returns (metrics,
    attempted rows, failed rows, problems)."""
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=WORK, prefix=f"{workload.name}-"))
    tag = f"[{workload.name}]"
    intervals = {"setup_s": [], "wall_s": [], "traced": []}
    in_process = workload.jobs == 1
    layers = []
    attempted = failed = 0
    problems = []
    try:
        with Speedometer() as speed:
            for _ in range(workload.setup_repeats):
                (cs, warm_dir), interval = speed.measure(lambda: set_up(workload, run_dir), True)
                intervals["setup_s"].append(interval)
            plain = SimpleNamespace(
                ResultsCache=cs.ResultsCache,
                run_campaign=cs.run_campaign,
                write_reports=cs.verification.write_reports,
            )
            tracer = Tracer(run_dir / "spool")
            expected_rows = len(reference["grids"][workload.grid])
            kinds = ["wall_s", "traced"] if trace else ["wall_s"]
            start = time.perf_counter()
            while True:
                rng.shuffle(kinds)
                for kind in kinds:
                    pass_dir = Path(tempfile.mkdtemp(dir=run_dir, prefix="pass-"))
                    if kind == "wall_s":
                        rows, interval = timed_pass(
                            plain, cs, workload, pass_dir, warm_dir, speed, in_process
                        )
                    else:
                        with tracer.installed(cs) as api:
                            rows, interval = timed_pass(
                                api, cs, workload, pass_dir, warm_dir, speed, in_process
                            )
                        spans = tracer.collect()
                        discount(spans, speed.samples, tracer.owner)
                        wall = speed.seconds(interval)[0]
                        layers.append(layer_metrics(cs, spans, wall, workload.jobs, pass_dir))
                    intervals[kind].append(interval)
                    failures = check_rows(cs, rows, pass_dir, reference, workload.grid)
                    attempted += expected_rows
                    failed += min(len(failures), expected_rows)
                    problems += failures
                    shutil.rmtree(pass_dir)
                if time.perf_counter() - start >= seconds:
                    break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    raw = {k: [speed.seconds(i)[0] for i in v] for k, v in intervals.items()}
    scaled = {k: [speed.seconds(i)[1] for i in v] for k, v in intervals.items()}
    if not in_process:
        # A pool pass runs on cores the samples cannot observe: a sample
        # taken meanwhile would share a core with a worker, and one taken
        # around it says nothing of the cores the workers had.
        scaled["wall_s"], scaled["traced"] = raw["wall_s"], raw["traced"]
    samples = [d for _, d in speed.samples]
    print(f"{tag} passes={len(raw['wall_s']) + len(raw['traced'])} rows={attempted} failed={failed}")
    print(f"{tag} calibration search: median={statistics.median(samples):.6g}s "
          f"range={min(samples):.6g}-{max(samples):.6g}s n={len(samples)} nominal={NOMINAL_S:g}s")
    print(f"{tag} {'fail_frac':<34} {'ratio':<6} value={failed / attempted:.6g}")
    if not trace:
        for name in ("wall_s", "setup_s"):
            for label, values in ((name, scaled[name]), (f"{name} (unscaled)", raw[name])):
                print(f"{tag} {label:<34} {units[name]:<6} median={statistics.median(values):.6g} "
                      f"{tail(values)} n={len(values)}")
        metrics = {name: statistics.median(scaled[name]) for name in ("wall_s", "setup_s")}
        metrics["peak_rss_mb"] = peak_rss_mb()
        print(f"{tag} {'peak_rss_mb':<34} {units['peak_rss_mb']:<6} value={metrics['peak_rss_mb']:.6g}")
        return metrics, attempted, failed, problems

    per_pass = [m for m, _ in layers]
    problems += check_counts(workload.name, per_pass)
    metrics = {
        name: per_pass[0][name] if is_count(name) else statistics.median(m[name] for m in per_pass)
        for name in per_pass[0]
    }
    metrics["trace.overhead_s"] = statistics.median(scaled["traced"]) - statistics.median(scaled["wall_s"])
    for name, value in metrics.items():
        shown = value if is_count(name) else f"{value:.6g}"
        print(f"{tag} {name:<34} {units.get(name, ''):<6} median={shown} n={len(per_pass)}")
    slowest = sorted(layers[-1][1].items(), key=lambda item: -item[1])[:5]
    print(f"{tag} slowest groups: " + " ".join(f"{g}={t:.3f}s" for g, t in slowest))
    return metrics, attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_chromasum()
    except ImportError as exc:
        print(f"error: cannot import chromasum from {SRC}: {exc}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    section = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    reference = json.loads(REFERENCE.read_text())

    rng = random.Random(args.seed)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    rng.shuffle(names)
    print(f"seed={args.seed} seconds={args.seconds:g} trace={args.trace} workloads={','.join(names)}")
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        metrics, attempted, failed, problems = run_workload(
            WORKLOADS[name], args.seconds, bool(args.trace), rng, reference, units
        )
        for problem in problems[:20]:
            print(f"[{name}] FAIL {problem}", file=sys.stderr)
        result["correct"] = result["correct"] and not problems
        result["attempted"] += attempted
        result["failed"] += failed
        prefix = f"{name}." if args.workload == "all" else ""
        for m in section:
            result["metrics"][prefix + m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
