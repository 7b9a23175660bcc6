import inspect
import json
import os
import re
import shlex
import sys
import tracemalloc
from pathlib import Path

import pytest

import chromasum
from chromasum import cli, families, solvers
from chromasum.cli import main
from chromasum.families import FAMILY_KINDS, make
from chromasum.solvers import solve

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples() -> list[tuple[list[str], list[str]]]:
    """(argv, output lines shown) of each command in the README's CLI block
    that is followed by its output, one `# ` line per stdout line."""
    block = README.read_text().split("## CLI", 1)[1].split("```")[1]
    examples: list[tuple[list[str], list[str]]] = []
    for line in block.splitlines():
        if line.startswith("chromasum "):
            examples.append((shlex.split(line, comments=True)[1:], []))
        elif line.startswith("# "):
            examples[-1][1].append(line[2:])
    return [(argv, shown) for argv, shown in examples if shown]


def test_readme_examples(tmp_path, monkeypatch, capsys):
    # the README shows what these commands print, millis aside
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CHROMASUM_CACHE", raising=False)
    examples = readme_examples()
    assert [argv[0] for argv, _ in examples] == ["solve", "table", "verify"]
    no_millis = lambda text: re.sub(r'"millis": \d+', '"millis": 0', text)
    for argv, shown in examples:
        assert main(argv) == 0
        assert no_millis(capsys.readouterr().out).splitlines() == shown, argv


def test_readme_library_block_runs(tmp_path, monkeypatch):
    # the first python block under "Library use" runs, and shows its value
    monkeypatch.chdir(tmp_path)
    block = README.read_text().split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    shown = int(re.search(r"value=(\d+)", block)[1])
    assert namespace["result"].value == shown == 29


def test_every_export_has_a_caller_outside_the_tests():
    # a public name that only the tests use is code to delete: some line of
    # src/, perfbench/ or the README other than its own def or class line
    # names it as a whole word
    root = README.parent
    files = [p for p in sorted((root / "src" / "chromasum").glob("*.py")) if p.name != "__init__.py"]
    files += [*sorted((root / "perfbench").glob("*.py")), README]
    lines = [line for p in files for line in p.read_text().splitlines()]
    uncalled = [
        name for name in chromasum.__all__
        if not any(re.search(rf"\b{name}\b", line) and not re.match(rf"\s*(def|class) {name}\b", line) for line in lines)
    ]
    assert uncalled == []


class TestGenerate:
    def test_edgelist(self, capsys):
        assert main(["generate", "sunlet:3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "6 6"
        assert len(lines) == 7

    def test_edgelist_is_default(self, capsys):
        assert main(["generate", "sunlet:3"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "6 6"

    def test_dot(self, capsys):
        assert main(["generate", "web:3", "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph web_3 {")

    def test_bad_spec(self, capsys):
        assert main(["generate", "gear:4"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", FAMILY_KINDS)
    def test_output_is_the_graph_make_builds(self, kind, capsys):
        # `generate` reads the ring row and builds no graph; its text is that
        # of the graph's n and edges, no vertex of which is isolated
        for n in [*range(3, 13), 101]:
            g = make(kind, n)
            assert main(["generate", f"{kind}:{n}"]) == 0
            assert capsys.readouterr().out == "".join(f"{u} {v}\n" for u, v in [(g.n, len(g.edges)), *g.edges])
            assert main(["generate", f"{kind}:{n}", "--dot"]) == 0
            dot = [f"graph {kind}_{n} {{\n", *(f"  {u} -- {v};\n" for u, v in g.edges), "}\n"]
            assert capsys.readouterr().out == "".join(dot)

    def test_memory_grows_with_the_edges(self, capsys):
        # web:20000 has 60,000 vertices and 80,000 edges: built as a bitset
        # graph its output peaked at about 300 MB, read off the ring row at 17 MB
        tracemalloc.start()
        try:
            assert main(["generate", "web:20000"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().out.startswith("60000 80000\n0 1\n")
        assert peak < 30 * 2**20


class TestSolve:
    def test_json_output_matches_library(self, capsys):
        assert main(["solve", "helm:3", "--quantity", "b_sum_min"]) == 0
        data = json.loads(capsys.readouterr().out)
        expected = solve(make("helm", 3), "b_sum_min")
        assert data["value"] == expected.value == 13
        assert data["quantity"] == "b_sum_min"
        assert data["witness"] == expected.witness.to_json()
        assert set(data) == {"quantity", "value", "witness", "nodes", "millis"}

    def test_budget_exhaustion_exit_code(self, capsys):
        code = main(["solve", "helm:5", "--quantity", "b_sum_min", "--budget-nodes", "1"])
        assert code == 2
        assert "nodes" in capsys.readouterr().err

    def test_nan_time_budget_rejected(self, capsys):
        # a NaN deadline is never passed, so the search would run unbounded
        assert main(["solve", "helm:3", "--quantity", "b_sum_min", "--budget-secs", "nan"]) == 1
        assert "nan" in capsys.readouterr().err
        # a negative budget is a usage error, not an exhausted one
        for flag, value in (("--budget-nodes", "-5"), ("--budget-secs", "-1")):
            assert main(["solve", "helm:3", "--quantity", "b_sum_min", flag, value]) == 1
            assert "budgets must be >= 0" in capsys.readouterr().err

    def test_unknown_quantity_rejected(self, capsys):
        assert main(["solve", "helm:3", "--quantity", "sparkle"]) == 1

    def test_graph_too_deep_is_a_one_line_error(self, capsys, monkeypatch):
        # the search recurses once per vertex, so a graph deeper than the
        # recursion limit `_scan` sets is a usage error, not a traceback.
        # With no headroom and the limit 100 frames above this one,
        # sunlet:150's 300 vertices are too deep
        monkeypatch.setattr(solvers, "_MAX_HEADROOM", 0)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            code = main(["solve", "sunlet:150", "--quantity", "chi"])
        finally:
            sys.setrecursionlimit(limit)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a graph of 300 vertices is too deep for the search")
        assert err.count("\n") == 1

    def test_graph_too_deep_is_refused_before_it_is_built(self, capsys, monkeypatch):
        # sunlet:8000's 16,000 vertices are past the recursion limit plus
        # the headroom `_scan` may add, which its order alone shows
        def make(kind, n):
            raise AssertionError(f"{kind}:{n} was built")

        monkeypatch.setattr(families, "make", make)
        assert main(["solve", "sunlet:8000", "--quantity", "chi"]) == 1
        err = capsys.readouterr().err
        assert err == (
            "error: a graph of 16000 vertices is too deep for the search, which recurses once per "
            f"vertex: at most {solvers._MAX_HEADROOM} levels are added to the recursion limit\n"
        )


class TestTable:
    def test_web_b_sum_max(self, capsys):
        assert main(["table", "--family", "web", "--quantity", "b_sum_max", "--n-max", "5"]) == 0
        assert capsys.readouterr().out == "3 27\n4 35\n5 45\n"

    def test_uncovered_pair(self, capsys):
        assert main(["table", "--family", "sunlet", "--quantity", "b_chromatic", "--n-max", "5"]) == 1
        assert "no published formula" in capsys.readouterr().err

    def test_unknown_family(self, capsys):
        assert main(["table", "--family", "gear", "--quantity", "chi", "--n-max", "4"]) == 1


class TestVerify:
    def test_small_campaign(self, tmp_path, capsys):
        code = main([
            "verify", "--families", "sunlet", "--n-min", "3", "--n-max", "4",
            "--quantities", "chi_sum_min,chi_sum_max", "--format", "csv",
            "--out", str(tmp_path), "--jobs", "1",
        ])
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert out == "matches=2 mismatches=2 aborted=0"
        report = (tmp_path / "report.csv").read_text().splitlines()
        assert report[0].startswith("family,n,quantity")
        assert len(report) == 5
        assert not (tmp_path / "report.json").exists()  # csv only

    def test_strict_flags_mismatches(self, tmp_path, capsys):
        args = [
            "verify", "--families", "helm", "--n-max", "3",
            "--quantities", "b_sum_min", "--out", str(tmp_path), "--jobs", "1",
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--strict"]) == 3

    def test_budget_exhaustion_exit(self, tmp_path, capsys):
        code = main([
            "verify", "--families", "helm", "--n-min", "4", "--n-max", "4",
            "--quantities", "b_sum_min", "--out", str(tmp_path), "--jobs", "1",
            "--budget-nodes", "1",
        ])
        assert code == 2
        assert "aborted=1" in capsys.readouterr().out

    def test_cache_env_override(self, tmp_path, capsys, monkeypatch):
        cache_path = tmp_path / "elsewhere" / "mycache.json"
        monkeypatch.setenv("CHROMASUM_CACHE", str(cache_path))
        code = main([
            "verify", "--families", "sunlet", "--n-max", "3",
            "--quantities", "b_sum_min", "--out", str(tmp_path / "out"), "--jobs", "1",
        ])
        assert code == 0
        assert cache_path.exists()
        assert not (tmp_path / "out" / "cache").exists()

    def test_cache_path_that_is_a_directory_is_an_error(self, tmp_path, capsys, monkeypatch):
        # the cache could never be saved at a directory or under a file: one
        # error line before any search, and no output directory
        (tmp_path / "file").write_text("a file, not a directory\n")
        for cache_path in (tmp_path, tmp_path / "file" / "results.json"):
            monkeypatch.setenv("CHROMASUM_CACHE", str(cache_path))
            out = tmp_path / "out"
            code = main(["verify", "--families", "sunlet", "--n-max", "3", "--out", str(out), "--jobs", "1"])
            assert code == 1, cache_path
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1 and "directory" in err, err
            assert not out.exists(), cache_path

    def test_repeat_runs_byte_identical(self, tmp_path, capsys):
        args = [
            "verify", "--families", "web", "--n-max", "3", "--quantities",
            "b_chromatic,b_sum_min", "--out", str(tmp_path), "--jobs", "1",
        ]
        assert main(args) == 0
        first = (tmp_path / "report.csv").read_bytes()
        assert main(args) == 0
        assert (tmp_path / "report.csv").read_bytes() == first

    def test_unknown_family_rejected_before_work(self, tmp_path, capsys):
        code = main(["verify", "--families", "gear", "--out", str(tmp_path)])
        assert code == 1
        assert not (tmp_path / "report.csv").exists()

    def test_out_that_is_a_file_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("a file, not a directory\n")
        code = main(["verify", "--families", "sunlet", "--n-max", "3", "--out", str(out), "--jobs", "1"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_uncovered_family_is_an_empty_plan(self, tmp_path, capsys):
        # no formula covers the wheel: nothing is audited, so nothing passes
        out = tmp_path / "out"
        assert main(["verify", "--families", "wheel", "--out", str(out), "--jobs", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: nothing to audit") and "wheel" in err
        assert not out.exists()

    def test_uncovered_quantity_is_an_empty_plan(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["verify", "--quantities", "chi", "--out", str(out), "--jobs", "1", "--strict"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: nothing to audit") and "quantities chi " in err
        assert not out.exists()

    def test_jobs_below_one_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        for jobs in ("0", "-5"):
            assert main(["verify", "--families", "sunlet", "--n-max", "3", "--out", str(out), "--jobs", jobs]) == 1
            assert capsys.readouterr().err.startswith("error: jobs must be >= 1")
        assert not out.exists()

    def test_jobs_default_counts_the_usable_cpus(self, monkeypatch):
        # the CPUs of this process's affinity mask, not every CPU of the host;
        # where the OS keeps no mask, the CPU count, or 1 if it is unknown
        jobs = lambda: cli._build_parser().parse_args(["verify"]).jobs
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
        assert jobs() == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        assert jobs() == 8
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert jobs() == 1

    def test_unknown_quantity_rejected(self, tmp_path, capsys):
        code = main([
            "verify", "--families", "helm", "--quantities", "sparkle",
            "--out", str(tmp_path),
        ])
        assert code == 1


class TestUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
