import dataclasses
import inspect
import json
import pickle
import sys

import pytest
from helpers import complete_graph, cycle, empty_graph, is_colouring, star

import chromasum
from chromasum import solvers, verification
from chromasum.coloring import coloring_sum
from chromasum.families import make
from chromasum.graphs import Graph
from chromasum.oracle import brute_force_oracle
from chromasum.solvers import (
    QUANTITIES,
    BudgetExhausted,
    SearchBudget,
    _partition,
    _Tracker,
    b_chromatic_number,
    b_sum,
    chi_sum,
    chromatic_number,
    m_bound,
    solve,
)


class TestChromaticNumber:
    @pytest.mark.parametrize(
        "g,expected",
        [
            (make("double_wheel", 6), 3),
            (make("double_wheel", 5), 4),
            (make("sunlet", 4), 2),
            (make("wheel", 5), 4),
            (make("helm", 3), 4),
            (make("web", 4), 2),
            (complete_graph(5), 5),
            (cycle(7), 3),
        ],
    )
    def test_values(self, g, expected):
        r = chromatic_number(g)
        assert r.value == expected
        assert r.witness.k == expected
        assert is_colouring(g, r.witness)

    def test_empty_graph_rejected(self):
        g = empty_graph(0)
        for call in (
            lambda: chromatic_number(g),
            lambda: b_chromatic_number(g),
            lambda: chi_sum(g, "min"),
            lambda: b_sum(g, "min"),
        ):
            with pytest.raises(ValueError, match="empty graph"):
                call()

    def test_edgeless(self):
        assert chromatic_number(empty_graph(4)).value == 1

    def test_graph_deeper_than_the_recursion_limit(self):
        # the search recurses once per vertex, and sunlet:600 has 1,200
        g = make("sunlet", 600)
        limit = sys.getrecursionlimit()
        with pytest.raises(BudgetExhausted):
            chromatic_number(g, SearchBudget(max_nodes=10))
        assert sys.getrecursionlimit() == limit
        r = chromatic_number(g)
        assert (r.value, r.nodes_explored) == (2, 1203)
        assert is_colouring(g, r.witness)
        assert sys.getrecursionlimit() == limit


class TestChiSum:
    def test_double_wheel_even_min(self):
        assert chi_sum(make("double_wheel", 6), "min").value == 21

    def test_double_wheel_odd_max(self):
        assert chi_sum(make("double_wheel", 5), "max").value == 33

    def test_cycle4_min(self):
        assert chi_sum(cycle(4), "min").value == 6

    def test_helm3_beats_published_construction(self):
        # hub + all three pendants form an independent class, giving
        # theta=(4,1,1,1) and sum 13; oracle-confirmed
        assert chi_sum(make("helm", 3), "min").value == 13

    def test_even_web_forced_bipartition(self):
        # connected bipartite graph: the 2-colouring is unique, so min = max
        lo = chi_sum(make("web", 4), "min")
        hi = chi_sum(make("web", 4), "max")
        assert lo.value == hi.value == 18

    def test_witness_contract(self):
        for direction in ("min", "max"):
            r = chi_sum(make("helm", 4), direction)
            assert is_colouring(make("helm", 4), r.witness)
            assert coloring_sum(r.witness) == r.value

    def test_chi_parameter_shortcut(self):
        assert chi_sum(cycle(6), "min").value == 9

    def test_direction_validated(self):
        with pytest.raises(ValueError):
            chi_sum(cycle(3), "upward")


class TestMBound:
    def test_complete(self):
        assert m_bound(complete_graph(4)) == 4

    def test_star(self):
        assert m_bound(star(5)) == 2

    def test_web5(self):
        assert m_bound(make("web", 5)) == 5

    def test_cycle(self):
        assert m_bound(cycle(5)) == 3


class TestBChromatic:
    @pytest.mark.parametrize(
        "g,expected",
        [
            (make("web", 3), 4),
            (make("web", 5), 5),
            (complete_graph(4), 4),
            (cycle(4), 2),
            (cycle(5), 3),
            (make("helm", 6), 5),
            (make("sunlet", 5), 3),
        ],
    )
    def test_values(self, g, expected):
        r = b_chromatic_number(g)
        assert r.value == expected
        assert r.witness.k == expected
        assert is_colouring(g, r.witness, b=True)

    def test_bounded_by_m(self):
        for g in (make("web", 4), make("helm", 5), make("double_wheel", 4)):
            r = b_chromatic_number(g)
            assert chromatic_number(g).value <= r.value <= m_bound(g)


class TestBSum:
    def test_helm3(self):
        # the published 14/21 values are beaten by the hub+pendants class;
        # 13 and 22 are oracle-confirmed exact
        assert b_sum(make("helm", 3), "min").value == 13
        assert b_sum(make("helm", 3), "max").value == 22

    def test_sunlet5(self):
        assert b_sum(make("sunlet", 5), "min").value == 16
        assert b_sum(make("sunlet", 5), "max").value == 24

    def test_double_wheel4_matches_published(self):
        assert b_sum(make("double_wheel", 4), "min").value == 15
        assert b_sum(make("double_wheel", 4), "max").value == 21

    def test_witness_contract(self):
        g = make("web", 3)
        for direction in ("min", "max"):
            r = b_sum(g, direction)
            assert is_colouring(g, r.witness, b=True)
            assert coloring_sum(r.witness) == r.value

    def test_phi_parameter_shortcut(self):
        assert b_sum(make("web", 3), "min").value == 18


class TestInvariants:
    GRID = [("double_wheel", 4), ("helm", 4), ("closed_helm", 3), ("sunlet", 5), ("web", 3)]

    def test_order_relations(self):
        for kind, n in self.GRID:
            g = make(kind, n)
            chi = chromatic_number(g).value
            phi = b_chromatic_number(g).value
            assert chi_sum(g, "min").value <= chi_sum(g, "max").value
            assert b_sum(g, "min").value <= b_sum(g, "max").value
            assert chi <= phi <= m_bound(g) <= g.max_degree() + 1

    def test_sum_lower_bound(self):
        for kind, n in self.GRID:
            g = make(kind, n)
            assert chi_sum(g, "min").value >= g.n


class TestDeterminism:
    @pytest.mark.parametrize("quantity", QUANTITIES)
    def test_identical_witness_across_runs(self, quantity):
        g = make("helm", 4)
        first = solve(g, quantity)
        second = solve(g, quantity)
        assert first.value == second.value
        assert first.witness == second.witness


class TestBudget:
    def test_node_budget(self):
        with pytest.raises(BudgetExhausted) as info:
            chi_sum(make("helm", 5), "min", budget=SearchBudget(max_nodes=5))
        assert info.value.nodes_explored >= 5

    def test_rejects_nan_time(self):
        with pytest.raises(ValueError, match="nan"):
            SearchBudget(max_time=float("nan"))
        assert SearchBudget(max_time=float("inf")).max_time == float("inf")
        for negative in ({"max_nodes": -5}, {"max_time": -0.5}):
            with pytest.raises(ValueError, match=">= 0"):
                SearchBudget(**negative)
        # 0 aborts every search, so a run serves only its cached rows
        assert SearchBudget(max_nodes=0, max_time=0.0).max_nodes == 0

    def test_node_budget_must_be_an_int(self):
        # the search checks its budgets only when its count meets the next
        # check, so past 100.5 it would never check them again; a bool or an
        # integral float is no node count either
        for bad in (100.5, 1e6, True):
            with pytest.raises(ValueError, match="int"):
                SearchBudget(max_nodes=bad)
        with pytest.raises(BudgetExhausted, match="node budget exhausted") as info:
            b_sum(make("web", 7), "min", budget=SearchBudget(max_nodes=100))
        assert info.value.nodes_explored == 101

    def test_graph_too_deep_restores_the_recursion_limit(self, monkeypatch):
        # the RecursionError is turned into a ValueError once the stack has
        # unwound, and the limit `_scan` raised is set back
        monkeypatch.setattr(solvers, "_MAX_HEADROOM", 0)
        limit = sys.getrecursionlimit()
        lowered = len(inspect.stack(0)) + 100
        sys.setrecursionlimit(lowered)
        try:
            with pytest.raises(ValueError, match="300 vertices is too deep"):
                chromatic_number(make("sunlet", 150))
            after = sys.getrecursionlimit()
        finally:
            sys.setrecursionlimit(limit)
        assert after == lowered
        assert chromatic_number(make("sunlet", 150)).value == 2

    def test_time_budget(self):
        with pytest.raises(BudgetExhausted):
            b_sum(make("sunlet", 10), "min", budget=SearchBudget(max_time=0.0))

    def test_budget_covers_nested_phases(self):
        # chi is computed inside chi_sum and must burn the same budget
        with pytest.raises(BudgetExhausted):
            chi_sum(make("double_wheel", 5), "min", budget=SearchBudget(max_nodes=10))

    def test_search_under_1024_nodes_reads_its_deadline(self):
        # the deadline is read at a search's first node, not only at every
        # 1,024th, so a small search cannot outrun a spent budget
        assert b_sum(make("helm", 7), "min").nodes_explored < 1_024
        with pytest.raises(BudgetExhausted, match="time budget exhausted") as info:
            b_sum(make("helm", 7), "min", budget=SearchBudget(max_time=0.0))
        assert info.value.nodes_explored == 1

    def test_abort_carries_tracker_millis(self, monkeypatch):
        # a clock one second on per reading: the tracker starts at 0, its
        # deadline check at the search's first node reads 1, and the abort
        # reads 2
        clock = iter(range(100))
        monkeypatch.setattr(solvers.time, "monotonic", lambda: next(clock))
        with pytest.raises(BudgetExhausted) as info:
            b_sum(make("sunlet", 10), "min", budget=SearchBudget(max_time=0.0))
        assert (info.value.nodes_explored, info.value.elapsed_ms) == (1, 2_000)

    def test_deadline_read_again_at_node_1024(self, monkeypatch):
        # the same clock under a 1.5 s budget: the first node's check reads
        # 1, the next check at node 1,024 reads 2, and the abort reads 3;
        # sunlet:10 is one search of 9,349 nodes at k = m(G) = phi = 4
        clock = iter(range(100))
        monkeypatch.setattr(solvers.time, "monotonic", lambda: next(clock))
        with pytest.raises(BudgetExhausted) as info:
            b_sum(make("sunlet", 10), "min", budget=SearchBudget(max_time=1.5))
        assert (info.value.nodes_explored, info.value.elapsed_ms) == (1_024, 3_000)

    def test_table_build_is_bounded_work(self, monkeypatch):
        # the independence numbers are built before the first node's budget
        # check; on a graph with no ring layout and no low-degree vertex to
        # reduce, their memo limit bounds the calls, not the graph's size
        n = 150
        edges = [(u, v) for u in range(n) for v in (u + 1, u + 2, u + 5) if v < n]
        edges += [(u, (u * 37 + 11) % n) for u in range(n) if (u * 37 + 11) % n != u]
        g = Graph(n, edges)
        calls = 0
        alpha = solvers._alpha

        def counted(*args):
            nonlocal calls
            calls += 1
            # each call stores a mask or reads one, and at most n are open
            assert calls <= 2 * (solvers._ALPHA_MEMO_LIMIT + n) + 1
            return alpha(*args)

        monkeypatch.setattr(solvers, "_alpha", counted)
        with pytest.raises(BudgetExhausted, match="time budget exhausted") as info:
            chi_sum(g, "min", budget=SearchBudget(max_time=0.0))
        assert info.value.nodes_explored == 1
        table = solvers._alpha_table(g)
        # past the limit each longer suffix is bounded by one more vertex
        assert table[0] > table[n // 2] >= table[n] == 0

    def test_lex_leader_table_is_bounded(self):
        # sunlet:2000's 4,000 images of 2,000 vertices each would take
        # hundreds of MB before the first node; past the limit the ring is
        # searched without the cut, to the same value
        assert solvers._lex_leader_cut(make("sunlet", 2000)) == (-1, [])
        result = chromatic_number(make("sunlet", 2000), SearchBudget(max_time=60.0))
        assert (result.value, result.nodes_explored) == (2, 4_003)
        # the largest frontier graph keeps its cut
        depth, images = solvers._lex_leader_cut(make("double_wheel", 89))
        assert (depth, len(images)) == (90, 2 * 89 - 1)


class TestPickle:
    """Campaign rows cross the process pool as these objects."""

    def test_sum_result(self):
        result = dataclasses.replace(solve(make("helm", 4), "b_sum_min"), elapsed_ms=17)
        assert pickle.loads(pickle.dumps(result)) == result  # value, witness, nodes, millis

    def test_budget_exhausted(self):
        with pytest.raises(BudgetExhausted) as info:
            b_sum(make("helm", 5), "min", budget=SearchBudget(max_nodes=41 - 11 + 1))
        back = pickle.loads(pickle.dumps(info.value))
        assert (str(back), back.nodes_explored, back.elapsed_ms) == (
            "node budget exhausted", 32, info.value.elapsed_ms,
        )
        back = pickle.loads(pickle.dumps(BudgetExhausted("time budget exhausted", 5, 17)))
        assert (back.nodes_explored, back.elapsed_ms) == (5, 17)


class TestNodeCounts:
    """Nodes of whole searches on family graphs, scan included, with the
    lex-leader cut on the graphs' dihedral groups; a sum's scan ends with
    its min search, so no k is searched twice.  Node counts are
    deterministic, so a change to the pruning or to the order of the search
    shows here."""

    CASES = [
        (b_sum, "sunlet", 8, 1_728),
        (b_sum, "web", 6, 1_650),
        (b_sum, "closed_helm", 8, 1_960),
        (b_sum, "helm", 8, 3_375),
        (b_sum, "web", 7, 16_247),
        (b_sum, "double_wheel", 9, 175),
        (chi_sum, "double_wheel", 9, 190),
    ]

    # ids name the search, not its count, so a re-pin keeps the test ids
    @pytest.mark.parametrize(
        "solver,kind,n,nodes", CASES, ids=[f"{s.__name__}-{kind}-{n}" for s, kind, n, _ in CASES]
    )
    def test_min_search_nodes(self, solver, kind, n, nodes):
        assert solver(make(kind, n), "min").nodes_explored == nodes


class TestCapacityBound:
    def test_unopened_class_holds_one_more_than_the_spare_vertices(self):
        # the least 3-class partition of this forest puts every vertex from
        # 2 on in one class, which opens after 0 and 1 as singletons
        # (oracle-confirmed, sum 10): a class not yet opened can end with one
        # vertex more than the spare ones
        g = Graph(7, [(0, 2), (0, 3), (1, 3), (1, 5)])
        labels = _partition(g, 3, _Tracker(SearchBudget()), require_b=False, first=False)
        assert labels == [0, 1, 2, 2, 2, 2, 2]

    def test_only_min_searches_build_the_alpha_table(self, monkeypatch):
        # chi and b_chromatic hold no incumbent, so they never read the cap's
        # independence numbers; the min searches of a graph share one table
        built = []
        real = solvers._suffix_alpha
        monkeypatch.setattr(solvers, "_suffix_alpha", lambda g: built.append(g) or real(g))
        g = make("web", 5)
        chromatic_number(g)
        b_chromatic_number(g)
        assert built == []
        chi_sum(g, "min")
        b_sum(g, "min")
        assert built == [g]


class TestDistinctBVertexCount:
    def test_two_classes_cannot_share_their_last_candidate(self):
        # the 4-cycle 0-1-3-4 with pendants 2 on 0 and 5 on 4, k = 3.  At the
        # prefix {0, 3}, {1}, {2}, vertex 1 sees only class 0 and has no
        # unassigned neighbour, and 2 has degree 1, so classes {1} and {2}
        # both take their b-vertex from 4 and 5.  Only 4 has degree >= 2; it
        # sees neither class, so each class alone passes, but it can serve
        # one of them: the count cuts there.  No b-colouring with 3 colours
        # exists (oracle-confirmed), and the search visits 11 nodes, 15
        # without the count
        g = Graph(6, [(0, 1), (0, 2), (0, 4), (1, 3), (3, 4), (4, 5)])
        tracker = _Tracker(SearchBudget())
        assert _partition(g, 3, tracker, require_b=True, first=True) is None
        assert tracker.nodes == 11
        assert brute_force_oracle(g, "b_chromatic").value == 2


class TestSolveDispatcher:
    def test_one_public_solve(self):
        # the package and the CLI reach the solvers through solvers.solve;
        # the campaign has no solve of its own
        assert chromasum.solve is solvers.solve
        assert not hasattr(verification, "solve")

    def test_matches_direct_calls(self):
        g = make("sunlet", 4)
        assert solve(g, "chi").value == chromatic_number(g).value
        assert solve(g, "chi_sum_min").value == chi_sum(g, "min").value
        assert solve(g, "b_sum_max").value == b_sum(g, "max").value

    def test_unknown_quantity(self):
        with pytest.raises(ValueError):
            solve(cycle(3), "rainbow")

    def test_result_to_json(self):
        r = solve(cycle(5), "chi_sum_min")
        assert json.loads(json.dumps(r.to_json())) == {
            "quantity": "chi_sum_min", "value": r.value, "witness": r.witness.to_json(),
            "nodes": r.nodes_explored, "millis": r.elapsed_ms,
        }
        assert r.value == coloring_sum(r.witness) == 9
