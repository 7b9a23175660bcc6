"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  The full suite solves every desk-scale instance exactly and takes
a few minutes single-threaded.
"""

import random
import time
from collections import Counter
from contextlib import contextmanager

import pytest
from helpers import FAMILY_CLOSED_FORMS, degree, exhaustive_labeling_extremum, is_colouring, is_connected, oracle_value

from chromasum.cli import main
from chromasum.coloring import coloring_sum, optimal_labeling
from chromasum.families import FAMILY_KINDS, make
from chromasum.formulas import predict
from chromasum.solvers import QUANTITIES, m_bound, solve
from chromasum.verification import (
    DESK_CAPS,
    ResultsCache,
    run_campaign,
    validate_witness,
    write_reports,
)

SMALL_GRID = (
    [("double_wheel", n) for n in (3, 4, 5)]
    + [("helm", n) for n in (3, 4, 5)]
    + [("closed_helm", n) for n in (3, 4, 5)]
    + [("sunlet", n) for n in (3, 4, 5, 6)]
    + [("web", n) for n in (3, 4)]
)

DESK_EXTRAS = [
    ("double_wheel", 6), ("double_wheel", 7), ("helm", 6), ("helm", 7),
    ("closed_helm", 6), ("closed_helm", 7), ("sunlet", 7), ("sunlet", 8), ("web", 5),
]


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE CRITERION {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE CRITERION {number} ({label}): PASS")


@pytest.fixture(scope="module")
def small_grid_results():
    out = {}
    for kind, n in SMALL_GRID:
        g = make(kind, n)
        out[(kind, n)] = {q: solve(g, q) for q in QUANTITIES}
    return out


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("campaign")
    cache = ResultsCache(out_dir / "cache" / "results.json")
    rows = run_campaign(
        list(DESK_CAPS), 3, dict(DESK_CAPS), QUANTITIES,
        out_dir=out_dir, cache=cache,
    )
    write_reports(rows, out_dir)
    return rows, out_dir


def test_criterion_1_formula_fidelity():
    with criterion(1, "formula fidelity"):
        start = time.perf_counter()
        assert predict("double_wheel", "b_sum_min", 4) == 15
        assert predict("double_wheel", "b_sum_max", 4) == 21
        assert [predict("helm", "b_sum_min", n) for n in (3, 4, 5, 6)] == [14, 25, 21, 30]
        assert [predict("helm", "b_sum_max", n) for n in (3, 4, 5, 6)] == [21, 29, 34, 48]
        assert [predict("closed_helm", "b_sum_min", n) for n in (3, 4, 5, 6)] == [16, 25, 22, 32]
        assert [predict("closed_helm", "b_sum_max", n) for n in (3, 4, 5, 6)] == [19, 29, 33, 47]
        assert [predict("sunlet", "b_sum_min", n) for n in (3, 4, 5)] == [10, 20, 17]
        assert [predict("sunlet", "b_sum_max", n) for n in (3, 4, 5)] == [14, 20, 23]
        assert [predict("web", "b_sum_min", n) for n in (3, 4, 5)] == [18, 25, 45]
        assert [predict("web", "b_sum_max", n) for n in (3, 4, 5)] == [27, 35, 45]
        assert [predict("web", "b_chromatic", n) for n in (3, 4, 5)] == [4, 4, 5]
        assert time.perf_counter() - start < 1.0


def test_criterion_2_oracle_agreement(small_grid_results):
    with criterion(2, "oracle agreement"):
        start = time.perf_counter()
        for (kind, n), results in small_grid_results.items():
            g = make(kind, n)
            assert g.n <= 12
            for quantity in QUANTITIES:
                assert results[quantity].value == oracle_value(kind, n, quantity), (kind, n, quantity)
        assert time.perf_counter() - start < 600.0


def test_criterion_3_desk_scale_reproduction(campaign):
    with criterion(3, "desk-scale reproduction"):
        rows, out_dir = campaign
        assert rows, "campaign produced no rows"
        assert all(r.status in ("match", "mismatch") for r in rows)
        assert not any(r.status == "aborted" for r in rows)
        for row in rows:
            assert row.witness_path
            if row.status == "mismatch":
                assert validate_witness(row, out_dir), (row.family, row.n, row.quantity)
        # the audited families and ranges are all present
        seen = {(r.family, r.n) for r in rows}
        for family, cap in DESK_CAPS.items():
            for n in range(3, cap + 1):
                assert (family, n) in seen


def test_criterion_4_labeling_exchange():
    with criterion(4, "labeling exchange"):
        rng = random.Random(1729)
        for _ in range(1000):
            n = rng.randint(1, 8)
            k = rng.randint(1, n)
            assign = list(range(k)) + [rng.randrange(k) for _ in range(n - k)]
            rng.shuffle(assign)
            sizes = [assign.count(c) for c in range(k)]
            for direction in ("min", "max"):
                got = coloring_sum(optimal_labeling(assign, direction))
                assert got == exhaustive_labeling_extremum(sizes, direction)


def test_criterion_5_invariant_suite(small_grid_results):
    with criterion(5, "invariant suite"):
        instances = dict(small_grid_results)
        for kind, n in DESK_EXTRAS:
            g = make(kind, n)
            instances[(kind, n)] = {q: solve(g, q) for q in QUANTITIES}
        for (kind, n), results in instances.items():
            g = make(kind, n)
            assert results["chi_sum_min"].value <= results["chi_sum_max"].value
            assert results["b_sum_min"].value <= results["b_sum_max"].value
            chi = results["chi"].value
            phi = results["b_chromatic"].value
            assert chi <= phi <= m_bound(g) <= g.max_degree() + 1
            for quantity, result in results.items():
                witness = result.witness
                assert is_colouring(g, witness), (kind, n, quantity)
                if quantity.startswith("b_"):
                    assert is_colouring(g, witness, b=True), (kind, n, quantity)
                if quantity in ("chi", "b_chromatic"):
                    assert witness.k == result.value
                else:
                    assert coloring_sum(witness) == result.value


def test_criterion_6_generator_counts():
    with criterion(6, "generator counts"):
        for kind in FAMILY_KINDS:
            for n in range(3, 13):
                g = make(kind, n)
                vertices, edges, degree_counts = FAMILY_CLOSED_FORMS[kind](n)
                assert g.n == vertices
                assert g.m == edges
                want = Counter()
                for deg, count in degree_counts:
                    want[deg] += count
                assert Counter(degree(g, v) for v in range(g.n)) == want
                assert is_connected(g)


def test_criterion_7_determinism(tmp_path):
    with criterion(7, "determinism"):
        args = [
            "verify", "--families", "helm,sunlet", "--n-max", "5",
            "--quantities", ",".join(QUANTITIES), "--format", "csv",
            "--out", str(tmp_path), "--jobs", "1",
        ]
        assert main(args) == 0  # cold cache
        cold = (tmp_path / "report.csv").read_bytes()
        assert main(args) == 0  # warm cache
        warm = (tmp_path / "report.csv").read_bytes()
        assert cold == warm
        # helm and sunlet cover 4 quantities each over n=3..5
        assert cold.decode().count("\n") == 1 + 2 * 3 * 4
