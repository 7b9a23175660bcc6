import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chromasum
from chromasum import families, formulas, solvers, verification
from chromasum.families import MIN_N, make
from chromasum.coloring import Coloring
from chromasum.solvers import SEARCH_OF, SOLVER_VERSION, SearchBudget, SumResult, max_twin, solve, witness_value
from chromasum.verification import (
    DESK_CAPS,
    ResultsCache,
    VerificationRow,
    plan_groups,
    render_report,
    run_campaign,
    summary_line,
    validate_witness,
    write_reports,
)

ALL_QUANTITIES = ("chi", "chi_sum_min", "chi_sum_max", "b_chromatic", "b_sum_min", "b_sum_max")

# sha256 of the desk campaign's witness files and its report.csv without
# the nodes and millis columns, as computed by test_desk_witnesses_pinned
# when the witness files became one per search: every file equals the one
# its search wrote before, and each *_sum_max row's earlier file is the max
# labelling of its *_sum_min file
DESK_WITNESS_DIGEST = "6d013e5a5748bf5516d98fde65b670f0c970da0c0c68c48549a6d80c08e9c77e"
# the same for the frontier campaign (test_frontier_witnesses_pinned)
FRONTIER_WITNESS_DIGEST = "8c58aa21b355826ac71ac60b4e6a4753ef7e6d6db8d604b0d8ae404b988691b6"


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    """The desk campaign's rows and the directory of their witness files."""
    out_dir = tmp_path_factory.mktemp("desk")
    return run_campaign(formulas.COVERED_FAMILIES, MIN_N, DESK_CAPS, ALL_QUANTITIES, out_dir=out_dir), out_dir


def trace_solvers(monkeypatch) -> list[tuple[str, str, int]]:
    """Wrap the four solver names a campaign calls through verification's
    namespace, as a tracer outside the package does, and return the list
    each call appends (name, quantity of its result, vertex count) to."""
    calls = []
    for name in ("chromatic_number", "chi_sum", "b_chromatic_number", "b_sum"):
        def traced(g, *args, _name=name, _real=getattr(verification, name)):
            result = _real(g, *args)
            calls.append((_name, result.quantity, g.n))
            return result

        monkeypatch.setattr(verification, name, traced)
    return calls


class TestPlanTasks:
    def test_skips_uncovered_pairs(self):
        groups = plan_groups(["sunlet"], 3, 4, ALL_QUANTITIES)
        assert "b_chromatic" not in groups[("sunlet", 3)]
        assert "chi" not in groups[("sunlet", 3)]
        assert "b_sum_min" in groups[("sunlet", 3)]

    def test_family_order_is_canonical(self):
        groups = plan_groups(["web", "double_wheel"], 3, 3, ["chi_sum_min"])
        assert [family for family, _ in groups] == ["double_wheel", "web"]

    def test_per_family_caps(self):
        groups = plan_groups(["helm", "web"], 3, {"helm": 4, "web": 3}, ["chi_sum_min"])
        assert list(groups.items()) == [
            (("helm", 3), ["chi_sum_min"]),
            (("helm", 4), ["chi_sum_min"]),
            (("web", 3), ["chi_sum_min"]),
        ]

    def test_rejects_unknown_inputs(self):
        with pytest.raises(ValueError, match="families"):
            plan_groups(["gear"], 3, 4, ["chi"])
        with pytest.raises(ValueError, match="quantities"):
            plan_groups(["helm"], 3, 4, ["chi", "sparkle"])

    def test_rejects_family_without_cap(self):
        with pytest.raises(ValueError, match=r"\['helm'\]"):
            run_campaign(["web", "helm"], 3, {"web": 4}, ["chi_sum_min"])
        with pytest.raises(ValueError, match=r"\['helm', 'web'\]"):
            plan_groups(["web", "helm"], 3, {"sunlet": 4}, ["chi_sum_min"])

    def test_empty_quantities(self):
        assert plan_groups(["sunlet"], 3, 6, []) == {}


class TestRunCampaign:
    def test_sunlet_chi_sum_min_rows(self, tmp_path):
        rows = run_campaign(["sunlet"], 3, 6, ["chi_sum_min"], out_dir=tmp_path)
        assert len(rows) == 4
        by_n = {r.n: r for r in rows}
        assert by_n[3].predicted == 12
        assert by_n[3].computed == 10 and by_n[3].status == "mismatch"
        assert by_n[4].computed == 12 and by_n[4].status == "match"
        assert all(r.quantity == "chi_sum_min" for r in rows)

    def test_unwritable_out_dir_fails_before_any_search(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        out.write_text("a file, not a directory\n")
        calls = []
        monkeypatch.setattr(verification, "_solve_group", lambda task: calls.append(task))
        with pytest.raises(OSError):
            run_campaign(["sunlet"], 3, 4, ["chi_sum_min"], out_dir=out)
        assert calls == []

    def test_jobs_below_one_rejected_before_any_directory(self, tmp_path):
        out = tmp_path / "out"
        for jobs in (0, -5):
            with pytest.raises(ValueError, match="jobs must be >= 1"):
                run_campaign(["sunlet"], 3, 3, ["chi_sum_min"], out_dir=out, jobs=jobs)
        assert not out.exists()

    def test_witnesses_written_and_valid(self, tmp_path):
        rows = run_campaign(["web"], 3, 3, ["b_sum_min", "b_chromatic"], out_dir=tmp_path)
        for row in rows:
            assert row.witness_path
            assert (tmp_path / row.witness_path).exists()
            assert validate_witness(row, tmp_path)

    def test_max_row_names_its_min_search_file(self, desk_run):
        rows, _ = desk_run
        paths = {(r.family, r.n, r.quantity): r.witness_path for r in rows}
        maxes = [(f, n, q.replace("_max", "_min")) for f, n, q in paths if q.endswith("_sum_max")]
        assert len(maxes) == 48
        for f, n, q in maxes:
            assert paths[f, n, q.replace("_min", "_max")] == paths[f, n, q] == f"witnesses/{f}-{n}-{q}.json"

    def test_max_only_run_writes_one_min_file_per_group(self, tmp_path):
        rows = run_campaign(["sunlet", "helm"], 3, 5, ["b_sum_max"], out_dir=tmp_path)
        names = sorted(p.name for p in (tmp_path / "witnesses").iterdir())
        assert names == sorted(f"{f}-{n}-b_sum_min.json" for f in ("sunlet", "helm") for n in (3, 4, 5))
        assert all(validate_witness(row, tmp_path) for row in rows)

    def test_max_row_checks_the_max_labelling_of_its_file(self, tmp_path):
        # helm:4's chi_sum_min witness has classes of 5, 2 and 2 vertices:
        # its file shows 15, and its max labelling the row's 21
        (row,) = run_campaign(["helm"], 4, 4, ["chi_sum_max"], out_dir=tmp_path)
        assert (row.computed, row.witness_path) == (21, "witnesses/helm-4-chi_sum_min.json")
        assert validate_witness(row, tmp_path)
        for off in (20, 22):
            assert not validate_witness(dataclasses.replace(row, computed=off), tmp_path)
        # a proper 3-colouring of other classes, three of 3 vertices, whose
        # max labelling shows 18
        (tmp_path / row.witness_path).write_text(json.dumps({"k": 3, "colors": [1, 2, 3, 2, 3, 1, 1, 3, 2]}))
        assert not validate_witness(row, tmp_path)
        assert validate_witness(dataclasses.replace(row, computed=18), tmp_path)

    def test_mismatch_rows_carry_witness(self, tmp_path):
        rows = run_campaign(["helm"], 3, 3, ["b_sum_min"], out_dir=tmp_path)
        (row,) = rows
        assert row.status == "mismatch"
        assert row.predicted == 14 and row.computed == 13
        assert validate_witness(row, tmp_path)

    def test_sum_witness_needs_chi_colours(self, tmp_path):
        # a proper 3-colouring of sunlet:4, whose chi is 2; its own sum is 14
        witness = tmp_path / "witnesses" / "sunlet-4-chi_sum_min.json"
        witness.parent.mkdir()
        witness.write_text(json.dumps({"k": 3, "colors": [1, 2, 1, 2, 2, 1, 2, 3]}))
        row = VerificationRow("sunlet", 4, "chi_sum_min", 12, 14, "mismatch",
                              "witnesses/sunlet-4-chi_sum_min.json", 0, 0)
        assert not validate_witness(row, tmp_path)

    def test_number_witness_needs_chi_colours(self, tmp_path):
        # a proper 5-colouring of helm:3, whose chi is 4, claiming chi = 5
        witness = tmp_path / "witnesses" / "helm-3-chi.json"
        witness.parent.mkdir()
        witness.write_text(json.dumps({"k": 5, "colors": [1, 2, 3, 4, 5, 5, 5]}))
        row = VerificationRow("helm", 3, "chi", 4, 5, "mismatch", "witnesses/helm-3-chi.json", 0, 0)
        assert not validate_witness(row, tmp_path)

    @pytest.mark.parametrize("data", [
        {"k": 3, "colors": [1, 2, 3, 1, 2, 3]},  # 6 colours for helm:3's 7 vertices
        {"k": 4, "colors": [1, 2, 3, 4, 5, 1, 2]},  # colour 5 with k=4
        {"k": 4},  # no colours
        [1, 2, 3, 4, 1, 2, 3],  # not an object
        # the solver's witness, [1, 2, 3, 4, 1, 1, 1] with k=4, in other types
        {"k": "4", "colors": "1234111"},
        {"k": 4, "colors": [1.9, 2.9, 3.9, 4.9, 1.9, 1.9, 1.9]},
        {"k": 4, "colors": [True, 2, 3, 4, True, True, True]},
    ], ids=["short", "colour-out-of-range", "no-colours", "not-an-object", "strings", "floats", "bools"])
    def test_malformed_witness_fails(self, tmp_path, data):
        witness = tmp_path / "witnesses" / "helm-3-b_sum_min.json"
        witness.parent.mkdir()
        witness.write_text(json.dumps(data))
        row = VerificationRow("helm", 3, "b_sum_min", 14, 13, "mismatch",
                              "witnesses/helm-3-b_sum_min.json", 0, 0)
        assert validate_witness(row, tmp_path) is False

    def test_witness_check_builds_no_group(self, tmp_path, monkeypatch):
        # a check reads its family's edges and builds no graph, so a second
        # pass builds nothing either
        rows = run_campaign(["web", "sunlet"], 3, 3, ["b_sum_min"], out_dir=tmp_path)
        assert all(validate_witness(row, tmp_path) for row in rows)
        built = []
        real = families.make
        monkeypatch.setattr(families, "make", lambda kind, n: built.append((kind, n)) or real(kind, n))
        assert all(validate_witness(row, tmp_path) for row in rows)
        assert built == []

    @pytest.mark.parametrize("shape", ["missing", "directory"])
    def test_unreadable_witness_fails(self, tmp_path, shape):
        witness = tmp_path / "witnesses" / "helm-3-b_sum_min.json"
        witness.parent.mkdir()
        if shape == "directory":
            witness.mkdir()
        row = VerificationRow("helm", 3, "b_sum_min", 14, 13, "mismatch",
                              "witnesses/helm-3-b_sum_min.json", 0, 0)
        assert validate_witness(row, tmp_path) is False

    def test_witness_check_builds_no_graph(self, desk_run, monkeypatch):
        # every desk row is checked against its family's edges, and a graph
        # the check must solve is built from those edges, not by make
        rows, out_dir = desk_run
        built = []
        monkeypatch.setattr(families, "make", lambda kind, n: built.append((kind, n)))
        verification._is_chi_or_phi.cache_clear()
        assert all(validate_witness(row, out_dir) for row in rows)
        assert built == []

    def test_witness_check_calls_no_solver_name(self, desk_run, monkeypatch):
        # k is settled by a certificate or by solvers.solve, never through
        # the four names a campaign's searches go through
        rows, out_dir = desk_run
        calls = trace_solvers(monkeypatch)
        verification._is_chi_or_phi.cache_clear()
        assert all(validate_witness(row, out_dir) for row in rows)
        assert calls == []

    def test_witness_check_solves_only_what_no_certificate_settles(self, desk_run, monkeypatch):
        # chi is settled on every desk graph, and phi = m(G) on all but
        # double_wheel:4, sunlet:5, helm:5 and closed_helm:5, each solved once
        rows, out_dir = desk_run
        solved = []
        real = solvers.solve
        monkeypatch.setattr(solvers, "solve", lambda g, q: solved.append((g.n, q)) or real(g, q))
        verification._is_chi_or_phi.cache_clear()
        assert all(validate_witness(row, out_dir) for row in rows)
        assert sorted(solved) == [(9, "b_chromatic"), (10, "b_chromatic"), (11, "b_chromatic"), (11, "b_chromatic")]

    def test_aborted_rows(self, tmp_path):
        budget = SearchBudget(max_nodes=1)
        rows = run_campaign(["helm"], 4, 4, ["b_sum_min"], budget=budget, out_dir=tmp_path)
        (row,) = rows
        assert row.status == "aborted"
        assert row.computed is None
        assert row.witness_path == ""

    def test_row_budget_covers_phi_scan(self):
        # b_sum(helm(5), "min") takes 41 nodes: 11 at k = m(G) = 5, where its
        # phi scan finds no b-colouring, and 30 at phi = 4.  Its search at
        # phi alone fits this budget, so it aborts only because the failed k
        # counts against it; the campaign row must abort too
        assert solve(make("helm", 5), "b_sum_min").nodes_explored == 41
        budget = SearchBudget(max_nodes=41 - 11 + 1)
        (row,) = run_campaign(["helm"], 5, 5, ["b_sum_min"], budget=budget)
        assert row.status == "aborted"

    def test_aborted_min_aborts_max_without_search(self, monkeypatch):
        # the max row is the min search relabelled, so it aborts where the
        # min did; searching again would spend a second budget
        calls = []
        real = verification.b_sum
        monkeypatch.setattr(
            verification, "b_sum", lambda g, direction, budget=None: calls.append(direction) or real(g, direction, budget)
        )
        budget = SearchBudget(max_nodes=41 - 11 + 1)
        rows = run_campaign(["helm"], 5, 5, ["b_sum_min", "b_sum_max"], budget=budget)
        assert [(r.quantity, r.status, r.nodes_explored) for r in rows] == [
            ("b_sum_min", "aborted", 32),
            ("b_sum_max", "aborted", 32),
        ]
        assert calls == ["min"]
        assert rows[0].elapsed_ms == rows[1].elapsed_ms

    def test_each_solved_search_is_one_solver_call(self, tmp_path, monkeypatch):
        # the names a tracer wraps see each search a run solves, once, and
        # no search the cache serves: web covers chi_sum_min, b_chromatic
        # and b_sum_min, and the first run caches the chi_sum_min searches
        path = tmp_path / "results.json"
        calls = trace_solvers(monkeypatch)
        run_campaign(["web"], 3, 4, ["chi_sum_max"], cache=ResultsCache(path))
        assert calls == [("chi_sum", "chi_sum_min", 12), ("chi_sum", "chi_sum_min", 9)]
        calls.clear()
        run_campaign(["web"], 3, 4, ALL_QUANTITIES, cache=ResultsCache(path))
        assert calls == [
            ("b_chromatic_number", "b_chromatic", 12), ("b_sum", "b_sum_min", 12),
            ("b_chromatic_number", "b_chromatic", 9), ("b_sum", "b_sum_min", 9),
        ]

    def test_empty_plan_rejected_before_any_directory(self, tmp_path):
        # no formula covers the wheel, or the chi quantity: an audit of
        # nothing would pass, so it is an error, and writes nothing
        out = tmp_path / "out"
        for kinds, quantities in ((["wheel"], ALL_QUANTITIES), (["sunlet", "web"], ["chi"])):
            with pytest.raises(ValueError, match="nothing to audit"):
                run_campaign(kinds, 3, 5, quantities, out_dir=out)
        assert not out.exists()

    def test_row_nodes_match_direct_solve(self):
        rows = run_campaign(["sunlet", "web"], 3, 4, ALL_QUANTITIES)
        assert len(rows) == 18
        for row in rows:
            assert row.nodes_explored == solve(make(row.family, row.n), row.quantity).nodes_explored

    def test_jobs_match_serial(self, tmp_path):
        strip = lambda rows: [(r.family, r.n, r.quantity, r.computed, r.status, r.nodes_explored) for r in rows]
        witnesses = lambda d: {p.name: p.read_bytes() for p in (d / "witnesses").iterdir()}
        # under the second budget helm:5's b_sum_min search aborts (see
        # test_row_budget_covers_phi_scan), so an abort crosses the pool too
        cases = [
            ((["sunlet", "web"], 3, 4, ["chi_sum_min", "b_sum_min"]), SearchBudget()),
            ((["helm"], 4, 5, ["b_sum_min", "b_sum_max"]), SearchBudget(max_nodes=41 - 11 + 1)),
        ]
        for i, (args, budget) in enumerate(cases):
            serial = run_campaign(*args, budget=budget, out_dir=tmp_path / f"serial{i}")
            parallel = run_campaign(*args, budget=budget, out_dir=tmp_path / f"pool{i}", jobs=2)
            assert strip(serial) == strip(parallel)
            assert witnesses(tmp_path / f"serial{i}") == witnesses(tmp_path / f"pool{i}")
        assert [(r.n, r.status, r.nodes_explored) for r in parallel if r.status == "aborted"] == [
            (5, "aborted", 32),
            (5, "aborted", 32),
        ]

    def test_pool_starts_no_more_workers_than_groups(self, monkeypatch):
        # a forked pool starts max_workers processes at its first submit, so
        # the cap is what the pool is built with; this one runs serially
        import concurrent.futures

        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, task):
                future = concurrent.futures.Future()
                future.set_result(fn(task))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        args = (["web"], 3, 4, ["b_sum_min"])
        no_millis = lambda rows: [dataclasses.replace(r, elapsed_ms=0) for r in rows]
        pooled = run_campaign(*args, jobs=4)
        assert started == [2]  # web:3 and web:4
        assert no_millis(pooled) == no_millis(run_campaign(*args, jobs=1))

    @staticmethod
    def _pool(submitted, shutdowns, fail_at=None):
        """A pool class that runs each submitted group at once, in this
        process, recording its (family, n) and each shutdown's
        cancel_futures; the submit numbered fail_at raises from its future."""
        import concurrent.futures

        class RecordingPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, task):
                future = concurrent.futures.Future()
                if len(submitted) == fail_at:
                    future.set_exception(RuntimeError("worker failed"))
                else:
                    future.set_result(fn(task))
                submitted.append(task[:2])
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                shutdowns.append(cancel_futures)

        return RecordingPool

    def test_largest_graph_is_submitted_first(self, monkeypatch):
        # by vertex count (web:4 has 12, web:3 9, sunlet:4 8, sunlet:3 6);
        # helm:3 and closed_helm:3 both have 7, so they keep plan order
        import concurrent.futures

        submitted = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", self._pool(submitted, []))
        run_campaign(["sunlet", "web"], 3, 4, ["b_sum_min"], jobs=2)
        assert submitted == [("web", 4), ("web", 3), ("sunlet", 4), ("sunlet", 3)]
        submitted.clear()
        run_campaign(["closed_helm", "helm"], 3, 3, ["b_sum_min"], jobs=2)
        assert submitted == [("helm", 3), ("closed_helm", 3)]

    @staticmethod
    def _outputs(out, rows):
        """Every file of a run into out, its reports written, with each
        millisecond count zeroed: the reports', and those in cache.json."""
        write_reports([dataclasses.replace(r, elapsed_ms=0) for r in rows], out)
        cache = json.loads((out / "cache.json").read_text())
        for entry in cache["entries"].values():
            entry["millis"] = 0
        files = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        files[Path("cache.json")] = json.dumps(cache, sort_keys=True).encode()
        return files

    def test_pool_submits_only_the_groups_the_cache_does_not_serve(self, tmp_path, monkeypatch):
        # the cache serves sunlet:3 and web:3 whole: their witnesses are
        # written before the first submit, and only the n = 4 groups go to
        # the pool, whose outputs equal a serial run's
        import concurrent.futures

        quantities = ["chi_sum_min", "b_sum_min", "b_sum_max"]
        served = ["sunlet-3-chi_sum_min.json", "web-3-b_sum_min.json"]
        runs = {}
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            run_campaign(["sunlet", "web"], 3, 3, quantities, cache=ResultsCache(out / "cache.json"))
            submitted, served_first = [], []
            pool = self._pool(submitted, [])

            def submit(self, fn, task, _submit=pool.submit, _out=out):
                served_first.append(all((_out / "witnesses" / name).exists() for name in served))
                return _submit(self, fn, task)

            monkeypatch.setattr(pool, "submit", submit)
            monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
            rows = run_campaign(
                ["sunlet", "web"], 3, 4, quantities, out_dir=out, cache=ResultsCache(out / "cache.json"), jobs=jobs,
            )
            runs[jobs] = self._outputs(out, rows)
        assert submitted == [("web", 4), ("sunlet", 4)]
        assert served_first == [True, True]
        assert runs[1] == runs[2]

    def test_completion_order_changes_no_output(self, tmp_path, monkeypatch):
        # a real pool whose groups are handled last submitted first; the
        # cache serves sunlet:3 whole, so a served group is written too
        import concurrent.futures

        def last_first(fs):
            fs = list(fs)
            concurrent.futures.wait(fs)
            handled.append(len(fs))
            return reversed(fs)

        handled = []
        args = (["sunlet", "web"], 3, 4, ["chi_sum_min", "b_sum_min", "b_sum_max"])
        runs = {}
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            run_campaign(["sunlet"], 3, 3, ALL_QUANTITIES, cache=ResultsCache(out / "cache.json"))
            with monkeypatch.context() as m:
                m.setattr(concurrent.futures, "as_completed", last_first)
                rows = run_campaign(*args, out_dir=out, cache=ResultsCache(out / "cache.json"), jobs=jobs)
            runs[jobs] = self._outputs(out, rows)
        assert handled == [3]  # web:4, web:3 and sunlet:4
        assert runs[1] == runs[2]

    def test_failed_pool_cancels_queued_groups_and_saves_no_cache(self, tmp_path, monkeypatch):
        # the second group's search raises: the groups not started are
        # cancelled, and each witness written before is whole
        import concurrent.futures

        submitted, shutdowns = [], []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", self._pool(submitted, shutdowns, 1))
        monkeypatch.setattr(concurrent.futures, "as_completed", list)
        cache_path = tmp_path / "cache" / "results.json"
        with pytest.raises(RuntimeError, match="worker failed"):
            run_campaign(
                ["sunlet", "web"], 3, 4, ["chi_sum_min", "b_sum_min"],
                out_dir=tmp_path, cache=ResultsCache(cache_path), jobs=2,
            )
        assert shutdowns == [True]
        assert not cache_path.exists()
        written = sorted((tmp_path / "witnesses").iterdir())
        assert [p.name for p in written] == ["web-4-b_sum_min.json", "web-4-chi_sum_min.json"]
        for path in written:
            witness = Coloring.from_json(json.loads(path.read_text()))
            assert len(witness.colors) == families.order("web", 4)


class TestCache:
    def test_warm_rerun_is_byte_identical(self, tmp_path):
        cache_path = tmp_path / "cache" / "results.json"
        args = (["sunlet"], 3, 5, ["chi_sum_min", "b_sum_min"])
        cold = run_campaign(*args, out_dir=tmp_path, cache=ResultsCache(cache_path))
        warm = run_campaign(*args, out_dir=tmp_path, cache=ResultsCache(cache_path))
        assert render_report(cold, "csv") == render_report(warm, "csv")
        assert render_report(cold, "json") == render_report(warm, "json")

    @staticmethod
    def _write(path, entries, version=verification.CACHE_VERSION, solver_version=SOLVER_VERSION):
        path.write_text(json.dumps({"version": version, "solver_version": solver_version, "entries": entries}))

    @staticmethod
    def _entry(colors, nodes=1):
        return {"witness": {"k": max(colors), "colors": colors}, "nodes": nodes, "millis": 1}

    @staticmethod
    def _saved(path):
        """The saved file's entries, each as the value its witness shows."""
        data = json.loads(path.read_text())
        assert (data["version"], data["solver_version"]) == (verification.CACHE_VERSION, SOLVER_VERSION)
        return {
            key: witness_value(key.rpartition(":")[2], Coloring.from_json(e["witness"]))
            for key, e in data["entries"].items()
        }

    def test_version_mismatch_forces_resolve(self, tmp_path, capsys):
        # a proper 3-colouring of sunlet:3 of sum 12, where the row's value is 10
        path = tmp_path / "results.json"
        self._write(path, {"sunlet:3:chi_sum_min": self._entry([1, 2, 3, 2, 3, 1])}, solver_version="stale")
        cache = ResultsCache(path)
        assert capsys.readouterr().err.startswith("warning: discarding unreadable cache")
        assert cache.get("sunlet", 3, "chi_sum_min") is None
        rows = run_campaign(["sunlet"], 3, 3, ["chi_sum_min"], cache=cache)
        assert rows[0].computed == 10
        cache.save()
        assert self._saved(path)["sunlet:3:chi_sum_min"] == 10

    def test_version_1_file_is_discarded_with_warning(self, tmp_path, capsys):
        # the format before witnesses stood alone: a per-entry solver version
        # beside the quantity and value the witness shows
        path = tmp_path / "results.json"
        result = {"quantity": "chi_sum_min", "value": 10, "nodes": 1, "millis": 1,
                  "witness": {"k": 2, "colors": [1, 2, 1, 2, 1, 2]}}
        path.write_text(json.dumps({"version": 1, "entries": {
            "sunlet:3:chi_sum_min": {"solver_version": SOLVER_VERSION, "result": result},
        }}))
        cache = ResultsCache(path)
        assert capsys.readouterr().err.startswith("warning: discarding unreadable cache")
        assert cache.get("sunlet", 3, "chi_sum_min") is None

    def test_corrupt_cache_rebuilt_with_warning(self, tmp_path, capsys):
        path = tmp_path / "results.json"
        path.write_text("{ not json")
        cache = ResultsCache(path)
        assert capsys.readouterr().err.startswith("warning:")
        cache.put("helm", 3, "chi", solve(make("helm", 3), "chi"))
        cache.save()
        assert ResultsCache(path).get("helm", 3, "chi") is not None

    def test_malformed_entry_is_a_miss(self, tmp_path):
        path = tmp_path / "results.json"
        self._write(path, {"sunlet:3:chi_sum_min": {"nodes": "not-even-close"}})
        cache = ResultsCache(path)
        assert cache.get("sunlet", 3, "chi_sum_min") is None
        rows = run_campaign(["sunlet"], 3, 3, ["chi_sum_min"], cache=cache)
        assert rows[0].computed == 10

    def test_entry_with_a_huge_k_is_dropped(self, tmp_path):
        # a few bytes that claim 10**12 colours over six vertices: rejected
        # before anything is built per colour, and the other entry is kept
        path = tmp_path / "results.json"
        huge = {"witness": {"k": 10**12, "colors": [1] * 6}, "nodes": 1, "millis": 1}
        self._write(path, {"sunlet:3:chi": huge, "sunlet:3:chi_sum_min": self._entry([1, 2, 3, 2, 3, 1])})
        cache = ResultsCache(path)
        assert cache.get("sunlet", 3, "chi") is None
        assert cache.get("sunlet", 3, "chi_sum_min").value == 12

    @pytest.mark.parametrize("field, value", [
        ("nodes", 1), ("nodes", "1"), ("millis", True), ("nodes", 1.0), ("witness", {"k": 3.0, "colors": [1, 2, 3, 2, 3, 1]}),
    ], ids=["ints", "string-nodes", "bool-millis", "float-nodes", "float-k"])
    def test_entry_fields_must_be_ints(self, tmp_path, field, value):
        # a proper 3-colouring of sunlet:3, served only when every field is an int
        path = tmp_path / "results.json"
        self._write(path, {"sunlet:3:chi_sum_min": {**self._entry([1, 2, 3, 2, 3, 1]), field: value}})
        served = ResultsCache(path).get("sunlet", 3, "chi_sum_min")
        assert (served is not None) == (type(value) is int)

    @pytest.mark.parametrize("counts", [(-7, -1), (-7, 1), (1, -1)], ids=["both", "nodes", "millis"])
    def test_negative_counts_are_a_miss(self, tmp_path, counts):
        # a proper 3-colouring of sunlet:3 whose counts no search can have
        # taken: re-solved, so its row never reports a negative count
        path = tmp_path / "results.json"
        nodes, millis = counts
        self._write(path, {"sunlet:3:chi_sum_min": {**self._entry([1, 2, 3, 2, 3, 1], nodes), "millis": millis}})
        cache = ResultsCache(path)
        assert cache.get("sunlet", 3, "chi_sum_min") is None
        (row,) = run_campaign(["sunlet"], 3, 3, ["chi_sum_min"], cache=cache)
        assert row.computed == 10 and row.nodes_explored > 0 and row.elapsed_ms >= 0

    def test_value_its_witness_lacks_is_a_miss(self, tmp_path):
        # the all-1 witness of sunlet:3 would show the sum 6, but it is not a
        # proper colouring, so the run solves the row again and the save
        # replaces the entry
        path = tmp_path / "results.json"
        self._write(path, {"sunlet:3:chi_sum_min": self._entry([1] * 6)})
        cache = ResultsCache(path)
        assert cache.get("sunlet", 3, "chi_sum_min") is None
        (row,) = run_campaign(["sunlet"], 3, 3, ["chi_sum_min"], cache=cache)
        assert (row.computed, row.status) == (10, "mismatch")
        cache.save()
        assert self._saved(path)["sunlet:3:chi_sum_min"] == 10

    def test_b_search_witness_must_be_a_b_colouring(self, tmp_path):
        # a proper 5-colouring of helm:3 showing the sum 17; colour 5 is one
        # pendant vertex, which sees one colour, so it is no b-colouring
        path = tmp_path / "results.json"
        self._write(path, {"helm:3:b_sum_min": self._entry([1, 2, 3, 4, 5, 1, 1])})
        cache = ResultsCache(path)
        assert cache.get("helm", 3, "b_sum_min") is None
        (row,) = run_campaign(["helm"], 3, 3, ["b_sum_min"], out_dir=tmp_path, cache=cache)
        assert (row.computed, validate_witness(row, tmp_path)) == (13, True)

    def test_sum_entry_with_more_than_chi_colours_is_a_miss(self, tmp_path):
        # a proper 3-colouring of sunlet:4, whose chi is 2: served, its rows
        # read 14 and 19 against a published 12 and 12
        path = tmp_path / "results.json"
        self._write(path, {"sunlet:4:chi_sum_min": self._entry([1, 2, 1, 2, 2, 1, 2, 3])})
        cache = ResultsCache(path)
        assert cache.get("sunlet", 4, "chi_sum_min") is None
        rows = run_campaign(["sunlet"], 4, 4, ["chi_sum_min", "chi_sum_max"], cache=cache)
        assert [(r.computed, r.status) for r in rows] == [(12, "match"), (12, "match")]

    def test_b_sum_entry_with_fewer_than_phi_colours_is_a_miss(self, tmp_path):
        # the proper 2-colouring of sunlet:4 is a b-colouring, but phi is
        # m(G) = 4: served, its rows read 12 and 12 against a published 20
        path = tmp_path / "results.json"
        self._write(path, {"sunlet:4:b_sum_min": self._entry([1, 2, 1, 2, 2, 1, 2, 1])})
        cache = ResultsCache(path)
        assert cache.get("sunlet", 4, "b_sum_min") is None
        rows = run_campaign(["sunlet"], 4, 4, ["b_sum_min", "b_sum_max"], cache=cache)
        assert [(r.computed, r.status) for r in rows] == [(20, "match"), (20, "match")]

    def test_chi_entry_of_a_graph_with_triangles_needs_an_odd_wheel(self, tmp_path):
        # a proper 4-colouring of helm:4, whose chi is 3: the hub's closed
        # neighbourhood holds triangles, but its open one is an even cycle
        path = tmp_path / "results.json"
        self._write(path, {"helm:4:chi": self._entry([1, 2, 3, 2, 3, 1, 1, 1, 4])})
        assert ResultsCache(path).get("helm", 4, "chi") is None

    def test_uncertified_large_entry_is_dropped_without_a_solve(self, tmp_path, monkeypatch):
        # a 2-colouring of sunlet:100000 is a b-colouring, but m(G) = 4 and
        # a graph past 12 vertices is never solved: a miss, at no search
        colors = self._sunlet_2_colouring(100_000)
        path = tmp_path / "results.json"
        self._write(path, {"sunlet:100000:b_chromatic": self._entry(colors)})
        self._forbid_builds(monkeypatch)

        def solve(g, quantity):
            raise AssertionError(f"solved {quantity} on {g.n} vertices")

        monkeypatch.setattr(solvers, "solve", solve)
        verification._is_chi_or_phi.cache_clear()
        assert ResultsCache(path).get("sunlet", 100_000, "b_chromatic") is None

    def test_improper_entry_is_dropped_when_its_row_aborts(self, tmp_path):
        # no put replaces the entry of an aborted row, so the load's check
        # itself must drop it
        path = tmp_path / "results.json"
        self._write(path, {"sunlet:3:chi_sum_min": self._entry([1] * 6)})
        cache = ResultsCache(path)
        (row,) = run_campaign(["sunlet"], 3, 3, ["chi_sum_min"], budget=SearchBudget(max_nodes=1), cache=cache)
        assert row.status == "aborted"
        cache.save()
        assert json.loads(path.read_text())["entries"] == {}

    @staticmethod
    def _save_all_ones(path, family, n):
        """Save an all-1 "colouring" of family(n) under each of its searches,
        showing the value it would claim: k = 1 or its own sum."""
        cache = ResultsCache(path)
        witness = Coloring(1, [1] * families.order(family, n))
        for search in set(SEARCH_OF.values()):
            cache.put(family, n, search, SumResult(search, witness_value(search, witness), witness, 1, 1))
        cache.save()

    def test_get_never_serves_an_improper_entry(self, tmp_path):
        path = tmp_path / "results.json"
        self._save_all_ones(path, "sunlet", 9)
        cache = ResultsCache(path)
        assert [cache.get("sunlet", 9, s) for s in SEARCH_OF] == [None] * len(SEARCH_OF)

    def test_improper_entry_outside_the_run_is_not_saved(self, tmp_path):
        path = tmp_path / "results.json"
        self._save_all_ones(path, "sunlet", 9)
        cache = ResultsCache(path)
        run_campaign(["helm"], 3, 3, ["b_sum_min"], cache=cache)
        assert list(json.loads(path.read_text())["entries"]) == ["helm:3:b_sum_min"]

    def test_max_row_is_its_cached_min_relabelled(self, tmp_path):
        # a proper colouring of sunlet:4 from another partition than the
        # min's, max-labelled and showing its own sum 24; an older cache may
        # pair it with the min, but the max row is read off the min alone
        path = tmp_path / "results.json"
        minimum = solve(make("sunlet", 4), "b_sum_min")
        self._write(path, {
            "sunlet:4:b_sum_min": self._entry(list(minimum.witness.colors), minimum.nodes_explored),
            "sunlet:4:b_sum_max": self._entry([3, 4, 3, 4, 1, 2, 4, 3]),
        })
        cache = ResultsCache(path)
        assert cache.get("sunlet", 4, "b_sum_max") is None
        (row,) = run_campaign(["sunlet"], 4, 4, ["b_sum_max"], out_dir=tmp_path, cache=cache)
        twin = max_twin(minimum)
        assert (row.computed, row.nodes_explored) == (twin.value, minimum.nodes_explored) == (20, 19)
        assert json.loads((tmp_path / row.witness_path).read_text()) == minimum.witness.to_json()
        cache.save()
        assert list(json.loads(path.read_text())["entries"]) == ["sunlet:4:b_sum_min"]

    def test_max_only_run_caches_its_min_search(self, tmp_path, monkeypatch):
        path = tmp_path / "results.json"
        args = (["sunlet"], 4, 5, ["b_sum_max"])
        calls = trace_solvers(monkeypatch)
        cold = run_campaign(*args, cache=ResultsCache(path))
        # one b_sum call per group, the larger sunlet:5 first
        assert calls == [("b_sum", "b_sum_min", 10), ("b_sum", "b_sum_min", 8)]
        assert sorted(json.loads(path.read_text())["entries"]) == ["sunlet:4:b_sum_min", "sunlet:5:b_sum_min"]
        calls.clear()
        warm = run_campaign(*args, cache=ResultsCache(path))
        assert calls == []
        assert render_report(cold, "csv") == render_report(warm, "csv")

    def test_served_rows_build_no_graph(self, tmp_path, monkeypatch):
        # the load checks each entry against its family's edges, and serving
        # the rows solves nothing, so a warm run builds no graph
        path = tmp_path / "results.json"
        args = (["sunlet"], 3, 4, ["chi_sum_min", "chi_sum_max", "b_sum_min", "b_sum_max"])
        run_campaign(*args, cache=ResultsCache(path))
        built = []
        real = families.make
        monkeypatch.setattr(families, "make", lambda kind, n: built.append((kind, n)) or real(kind, n))
        run_campaign(*args, cache=ResultsCache(path))
        assert built == []

    def test_witness_of_another_graph_is_a_miss(self, tmp_path):
        # the sum of [1, 1, 1, 2] is 5, but sunlet:3 has 6 vertices, not 4
        path = tmp_path / "results.json"
        self._write(path, {"sunlet:3:chi_sum_min": self._entry([1, 1, 1, 2])})
        cache = ResultsCache(path)
        assert cache.get("sunlet", 3, "chi_sum_min") is None
        (row,) = run_campaign(["sunlet"], 3, 3, ["chi_sum_min"], out_dir=tmp_path, cache=cache)
        assert (row.computed, validate_witness(row, tmp_path)) == (10, True)

    def test_entry_of_the_wrong_order_builds_no_graph(self, tmp_path, monkeypatch):
        # sunlet:10**6 has 2 * 10**6 vertices; its graph would not fit in
        # memory, so the length check must come before any build
        path = tmp_path / "results.json"
        self._write(path, {"sunlet:1000000:chi": self._entry([1])})
        built = []
        monkeypatch.setattr(families, "make", lambda kind, n: built.append((kind, n)))
        cache = ResultsCache(path)
        assert (cache.get("sunlet", 10**6, "chi"), built) == (None, [])

    @staticmethod
    def _sunlet_2_colouring(n):
        """A proper 2-colouring of sunlet(n), n even: the cycle alternates
        and each pendant takes the other colour of its cycle vertex."""
        cycle = [1 + i % 2 for i in range(n)]
        return cycle + [3 - c for c in cycle]

    @staticmethod
    def _forbid_builds(monkeypatch):
        def make(kind, n):
            raise AssertionError(f"built {kind}:{n}")

        monkeypatch.setattr(families, "make", make)

    def test_large_key_is_checked_without_a_graph(self, tmp_path, monkeypatch):
        # sunlet:100000's bitset graph would take gigabytes; its entry is
        # checked against the family's edges, kept and served
        colors = self._sunlet_2_colouring(100_000)
        path = tmp_path / "results.json"
        self._write(path, {"sunlet:100000:chi": self._entry(colors)})
        self._forbid_builds(monkeypatch)
        served = ResultsCache(path).get("sunlet", 100_000, "chi")
        assert (served.value, served.witness.colors) == (2, tuple(colors))
        ResultsCache(path).save()
        assert list(json.loads(path.read_text())["entries"]) == ["sunlet:100000:chi"]

    def test_large_improper_key_is_dropped_without_a_graph(self, tmp_path, monkeypatch):
        # the last pendant takes its cycle vertex's colour; their rung is the
        # last edge the family generates
        colors = self._sunlet_2_colouring(100_000)
        colors[-1] = colors[99_999]
        path = tmp_path / "results.json"
        self._write(path, {"sunlet:100000:chi": self._entry(colors)})
        self._forbid_builds(monkeypatch)
        cache = ResultsCache(path)
        assert cache.get("sunlet", 100_000, "chi") is None
        cache.save()
        assert json.loads(path.read_text())["entries"] == {}

    def test_keys_no_run_asks_for_are_dropped(self, tmp_path):
        kept = {"helm:3:chi": self._entry([1, 2, 3, 4, 1, 1, 1])}
        path = tmp_path / "results.json"
        self._write(path, {
            **kept,
            "sunlet:3:sparkle": self._entry([1, 2, 3, 2, 3, 1]),  # unknown quantity
            "gear:3:chi": self._entry([1, 2, 1, 2, 1, 2]),  # unknown family
            "sunlet:2:chi": self._entry([1, 2, 1, 2]),  # n below MIN_N
            "helm:03:chi": self._entry([1, 2, 3, 4, 1, 1, 1]),  # get asks for helm:3:chi
            "helm:3": self._entry([1, 2, 3, 4, 1, 1, 1]),  # no search
        })
        cache = ResultsCache(path)
        cache.save()
        assert json.loads(path.read_text())["entries"] == kept

    def test_non_object_entry_is_a_miss_and_replaced(self, tmp_path):
        path = tmp_path / "results.json"
        self._write(path, {"sunlet:3:chi_sum_min": [1, 2]})
        cache = ResultsCache(path)
        rows = run_campaign(["sunlet"], 3, 3, ["chi_sum_min"], cache=cache)
        assert rows[0].computed == 10
        cache.save()
        assert self._saved(path)["sunlet:3:chi_sum_min"] == 10

    def test_save_drops_entries_it_would_not_serve(self, tmp_path):
        # entries outside the run's grid, or for a row that aborted, are
        # never replaced by a put, so a stale one must not be saved again
        chi = solve(make("helm", 3), "chi")
        kept = self._entry(list(chi.witness.colors), chi.nodes_explored)
        path = tmp_path / "results.json"
        self._write(path, {
            "sunlet:9:chi_sum_min": self._entry([1] * 18),
            "sunlet:9:chi_sum_max": self._entry([1, 2] * 9),
            "sunlet:9:b_sum_min": self._entry([1] * 18),
            "helm:5:b_sum_min": "garbage",
            "helm:3:chi": kept,
        })
        cache = ResultsCache(path)
        budget = SearchBudget(max_nodes=41 - 11 + 1)  # helm:5 b_sum_min aborts
        (row,) = run_campaign(["helm"], 5, 5, ["b_sum_min"], budget=budget, cache=cache)
        assert row.status == "aborted"
        cache.save()
        entries = json.loads(path.read_text())["entries"]
        assert entries == {"helm:3:chi": kept}

    def test_save_leaves_foreign_temp_file(self, tmp_path):
        # another run sharing the cache directory may be mid-save
        foreign = tmp_path / "results.tmp"
        foreign.write_text("another run's half-written cache")
        cache = ResultsCache(tmp_path / "results.json")
        cache.put("helm", 3, "chi", solve(make("helm", 3), "chi"))
        cache.save()
        assert foreign.read_text() == "another run's half-written cache"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["results.json", "results.tmp"]

    def test_put_replaces_entry(self, tmp_path):
        cache = ResultsCache(tmp_path / "c.json")
        first = solve(make("helm", 3), "chi")
        cache.put("helm", 3, "chi", first)
        second = dataclasses.replace(first, elapsed_ms=first.elapsed_ms + 1)
        cache.put("helm", 3, "chi", second)
        assert cache.get("helm", 3, "chi") == second


class TestRerunWrites:
    """A run leaves alone every file that already holds the bytes it would
    write, and writes every other file."""

    SMALL = (["sunlet", "helm"], 3, 4, ALL_QUANTITIES)

    @staticmethod
    def _verify(out_dir, grid):
        cache = ResultsCache(out_dir / "cache" / "results.json")
        rows = run_campaign(*grid, out_dir=out_dir, cache=cache)
        write_reports(rows, out_dir)
        return rows

    @staticmethod
    def _files(out_dir) -> dict[Path, bytes]:
        return {p: p.read_bytes() for p in sorted(out_dir.rglob("*")) if p.is_file()}

    @staticmethod
    def _stamps(out_dir) -> dict[Path, tuple[int, int]]:
        return {p: (p.stat().st_mtime_ns, p.stat().st_ino) for p in out_dir.rglob("*") if p.is_file()}

    @staticmethod
    def _backdate(paths):
        # a file rewritten later can only carry a newer mtime than this
        for p in paths:
            os.utime(p, ns=(10**18, 10**18))

    def test_warm_desk_rerun_touches_no_file(self, tmp_path):
        desk = (formulas.COVERED_FAMILIES, MIN_N, DESK_CAPS, ALL_QUANTITIES)
        self._verify(tmp_path, desk)
        files = self._files(tmp_path)
        assert len(files) == 51 + 3 + 1  # a witness per search, reports, cache
        self._backdate(files)
        before = self._stamps(tmp_path)
        self._verify(tmp_path, desk)
        assert self._stamps(tmp_path) == before
        assert self._files(tmp_path) == files

    def test_altered_witness_and_report_are_rewritten(self, tmp_path):
        self._verify(tmp_path, self.SMALL)
        files = self._files(tmp_path)
        witness = tmp_path / "witnesses" / "helm-4-b_sum_min.json"
        report = tmp_path / "report.csv"
        witness.write_text('{"colors": [1], "k": 1}\n')
        report.write_bytes(files[report].replace(b"match", b"hctam"))
        self._verify(tmp_path, self.SMALL)
        assert self._files(tmp_path) == files

    def test_cache_entry_failing_its_check_is_dropped_on_save(self, tmp_path):
        self._verify(tmp_path, self.SMALL)
        path = tmp_path / "cache" / "results.json"
        clean = path.read_bytes()
        # an improper witness for a key outside the run's grid: no put
        # replaces it, and the load check drops it
        data = json.loads(clean)
        data["entries"]["sunlet:9:chi_sum_min"] = {"witness": {"k": 1, "colors": [1] * 18}, "nodes": 1, "millis": 1}
        path.write_text(json.dumps(data, sort_keys=True) + "\n")
        self._verify(tmp_path, self.SMALL)
        assert path.read_bytes() == clean

    def test_cache_that_loads_clean_is_left_untouched(self, tmp_path):
        self._verify(tmp_path, self.SMALL)
        path = tmp_path / "cache" / "results.json"
        self._backdate([path])
        before = self._stamps(path.parent)
        ResultsCache(path).save()
        assert self._stamps(path.parent) == before

    def test_cold_run_writes_every_file_and_reads_none(self, tmp_path, monkeypatch):
        # every write of `_write_if_changed` opens its temporary file with
        # os.open, and every compare reads its file with os.read
        reads, written = [], []
        os_open, os_read = os.open, os.read

        def opening(path, flags, *args):
            if flags & os.O_WRONLY:
                written.append(Path(path))
            return os_open(path, flags, *args)

        def reading(fd, size):
            reads.append(fd)
            return os_read(fd, size)

        monkeypatch.setattr(os, "open", opening)
        monkeypatch.setattr(os, "read", reading)
        rows = self._verify(tmp_path, self.SMALL)
        cache = tmp_path / "cache" / "results.json"
        # every file is absent, so its open fails and no byte is read back
        assert reads == []
        assert all(r.witness_path for r in rows)
        outputs = {tmp_path / r.witness_path for r in rows}
        outputs |= {tmp_path / name for name in verification.REPORT_FILES.values()}
        # each output is written to its temporary name, then renamed
        tmps = {p.with_name(f"{p.name}.{os.getpid()}.tmp") for p in outputs | {cache}}
        assert sorted(written) == sorted(tmps)
        assert set(self._files(tmp_path)) == outputs | {cache}
        # a warm rerun compares each of the 12 files, one read each
        self._verify(tmp_path, self.SMALL)
        assert len(reads) == len(outputs | {cache}) == 12

    def test_failed_rewrite_keeps_previous_bytes(self, tmp_path, monkeypatch):
        rows = self._verify(tmp_path, self.SMALL)
        witness = tmp_path / "witnesses" / "helm-4-b_sum_min.json"
        report = tmp_path / "report.csv"
        witness.write_text('{"colors": [1], "k": 1}\n')
        report.write_bytes(report.read_bytes().replace(b"match", b"hctam"))
        before = self._files(tmp_path)
        os_write = os.write

        def failing(fd, data):
            os_write(fd, data[: len(data) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(os, "write", failing)
        cache = ResultsCache(tmp_path / "cache" / "results.json")
        with pytest.raises(OSError, match="disk full"):
            run_campaign(*self.SMALL, out_dir=tmp_path, cache=cache)
        with pytest.raises(OSError, match="disk full"):
            write_reports(rows, tmp_path)
        # the failed writes removed their temporary files
        assert self._files(tmp_path) == before

    @pytest.mark.parametrize("change", ["longer", "shorter"])
    def test_file_one_byte_off_is_rewritten(self, tmp_path, change):
        # the compare reads at most len + 1 bytes: a file that holds the
        # expected bytes plus one, or all but the last, is not a match
        self._verify(tmp_path, self.SMALL)
        files = self._files(tmp_path)
        witness = tmp_path / "witnesses" / "helm-4-b_sum_min.json"
        report = tmp_path / "report.json"
        for path in (witness, report):
            path.write_bytes(files[path] + b" " if change == "longer" else files[path][:-1])
        self._backdate(files)
        before = self._stamps(tmp_path)
        self._verify(tmp_path, self.SMALL)
        assert self._files(tmp_path) == files
        after = self._stamps(tmp_path)
        assert {p for p in files if after[p] != before[p]} == {witness, report}


class TestRendering:
    def _rows(self):
        return [
            VerificationRow("helm", 3, "b_sum_min", 14, 13, "mismatch",
                            "witnesses/helm-3-b_sum_min.json", 120, 3),
            VerificationRow("helm", 4, "b_sum_min", 25, 25, "match",
                            "witnesses/helm-4-b_sum_min.json", 300, 5),
            VerificationRow("helm", 5, "b_sum_min", 21, None, "aborted", "", 10, 0),
        ]

    def test_csv_shape(self):
        text = render_report(self._rows(), "csv")
        lines = text.splitlines()
        assert lines[0] == "family,n,quantity,predicted,computed,status,nodes,millis,witness"
        assert lines[1] == "helm,3,b_sum_min,14,13,mismatch,120,3,witnesses/helm-3-b_sum_min.json"
        assert lines[3] == "helm,5,b_sum_min,21,-,aborted,10,0,-"

    def test_json_summary(self):
        data = json.loads(render_report(self._rows(), "json"))
        assert data["summary"] == {"matches": 1, "mismatches": 1, "aborted": 1}
        assert len(data["rows"]) == 3

    def test_markdown_mirrors_predictions(self, tmp_path):
        rows = run_campaign(["helm"], 3, 7, ["b_sum_min"], out_dir=tmp_path)
        text = render_report(rows, "markdown")
        assert "## helm" in text
        predicted = [line.split("|")[4].strip() for line in text.splitlines()
                     if line.startswith("| ") and "b_sum_min" in line]
        assert predicted == ["14", "25", "21", "30", "34"]

    def test_markdown_flags_overlap_note(self, tmp_path):
        rows = run_campaign(["closed_helm"], 3, 3, ["b_sum_min"], out_dir=tmp_path)
        text = render_report(rows, "markdown")
        assert "overlap" in text

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            render_report([], "xml")
        # rejected before report.csv is written
        with pytest.raises(ValueError, match="xml"):
            write_reports(self._rows(), tmp_path, ("csv", "xml"))
        assert list(tmp_path.iterdir()) == []

    def test_summary_line(self):
        assert summary_line(self._rows()) == "matches=1 mismatches=1 aborted=1"

    def test_empty_report(self):
        assert render_report([], "csv").splitlines() == [
            "family,n,quantity,predicted,computed,status,nodes,millis,witness"
        ]

    @staticmethod
    def _indented(rows) -> str:
        payload = {"rows": [r.to_json() for r in rows], "summary": verification.status_counts(rows)}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("n_min, step", [(MIN_N, 0), (6, 2)], ids=["desk", "frontier"])
    def test_json_is_the_indented_layout(self, n_min, step):
        # built from json's C encoder, byte for byte json.dumps with indent=2
        caps = {family: cap + step for family, cap in DESK_CAPS.items()}
        rows = run_campaign(formulas.COVERED_FAMILIES, n_min, caps, ALL_QUANTITIES)
        assert render_report(rows, "json") == self._indented(rows)
        assert render_report(self._rows(), "json") == self._indented(self._rows())

    def test_empty_json_report(self):
        text = render_report([], "json")
        assert text == self._indented([])
        assert '"rows": [],' in text

    def test_write_reports(self, tmp_path):
        write_reports(self._rows(), tmp_path)
        assert (tmp_path / "report.csv").exists()
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "report.md").exists()


def witness_digest(rows, out_dir: Path) -> tuple[int, str]:
    """The number of witness files a campaign wrote to out_dir, and the
    sha256 of those files and of its report.csv without the nodes and millis
    columns."""
    write_reports(rows, out_dir, ("csv",))
    digest = hashlib.sha256()
    witnesses = sorted((out_dir / "witnesses").iterdir())
    for path in witnesses:
        digest.update(path.name.encode() + b"\n" + path.read_bytes())
    for line in (out_dir / "report.csv").read_text().splitlines():
        cells = line.split(",")
        assert cells[6:8] == ["nodes", "millis"] or all(c.isdigit() for c in cells[6:8])
        digest.update(",".join(cells[:6] + cells[8:]).encode() + b"\n")
    return len(witnesses), digest.hexdigest()


def test_desk_witnesses_pinned(tmp_path):
    # a change to the search may change node counts and timings, never a
    # value, a status or a witness of the desk campaign
    rows = run_campaign(formulas.COVERED_FAMILIES, MIN_N, DESK_CAPS, ALL_QUANTITIES, out_dir=tmp_path)
    assert len(rows) == 99
    assert witness_digest(rows, tmp_path) == (51, DESK_WITNESS_DIGEST)


def test_frontier_witnesses_pinned(tmp_path):
    # the frontier grid, n = 6 to two past each desk cap, holds the largest
    # b-sum searches and the odd n >= 9 closed helm the desk never reaches
    caps = {family: cap + 2 for family, cap in DESK_CAPS.items()}
    rows = run_campaign(formulas.COVERED_FAMILIES, 6, caps, ALL_QUANTITIES, out_dir=tmp_path)
    assert len(rows) == 78
    assert witness_digest(rows, tmp_path) == (40, FRONTIER_WITNESS_DIGEST)


def test_desk_cache_holds_searches_only(tmp_path):
    # 99 rows read off 51 searches: every *_sum_max row is its min relabelled
    path = tmp_path / "results.json"
    run_campaign(formulas.COVERED_FAMILIES, MIN_N, DESK_CAPS, ALL_QUANTITIES, cache=ResultsCache(path))
    keys = json.loads(path.read_text())["entries"]
    assert len(keys) == 51
    assert not [key for key in keys if key.endswith("_sum_max")]


def test_desk_node_total_pinned():
    # a sum row's scan ends with its min search, so no k is searched twice
    rows = run_campaign(formulas.COVERED_FAMILIES, MIN_N, DESK_CAPS, ALL_QUANTITIES)
    assert sum(r.nodes_explored for r in rows) == 8_509


def test_solve_group_builds_each_graph_tables_once(monkeypatch):
    # every search of a group, and every k of each scan, reads one set of
    # graph tables; a group that builds its graph afresh builds them afresh
    built = []
    for name in ("_lex_leader_cut", "_suffix_alpha"):
        real = getattr(solvers, name)
        monkeypatch.setattr(solvers, name, lambda g, real=real, name=name: built.append(name) or real(g))
    solvers._graph_tables.cache_clear()
    task = ("web", 5, ("chi", "chi_sum_min", "b_chromatic", "b_sum_min"), SearchBudget())
    out = verification._solve_group(task)
    assert all(isinstance(r, SumResult) for r in out.values())
    assert sorted(built) == ["_lex_leader_cut", "_suffix_alpha"]
    verification._solve_group(task)
    assert len(built) == 4


def test_import_leaves_process_pool_unloaded():
    # only a pooled campaign needs concurrent.futures.process; importing it
    # costs every serial start
    src = str(Path(chromasum.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, chromasum; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
