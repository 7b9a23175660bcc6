import hashlib
import json

import pytest
from helpers import complete_graph, cycle, is_colouring, oracle_value

from chromasum.coloring import coloring_sum
from chromasum.families import FAMILY_KINDS, MIN_N, make
from chromasum.graphs import Graph
from chromasum.oracle import brute_force_oracle
from chromasum.solvers import QUANTITIES, BudgetExhausted, SearchBudget, solve


class TestKnownValues:
    def test_cycle5_chi_sum(self):
        # partitions of C_5 into 3 classes bottom out at sizes (2,2,1)
        assert brute_force_oracle(cycle(5), "chi_sum_min", k=3).value == 9

    def test_triangle_b_sum(self):
        assert brute_force_oracle(complete_graph(3), "b_sum_min", k=3).value == 6

    def test_wheel4_chi_sum(self):
        # hub alone, rim split 2/2
        assert brute_force_oracle(make("wheel", 4), "chi_sum_min", k=3).value == 9

    def test_chi_scan(self):
        assert brute_force_oracle(make("wheel", 5), "chi").value == 4
        assert brute_force_oracle(cycle(6), "chi").value == 2

    def test_b_chromatic_scan(self):
        assert brute_force_oracle(make("sunlet", 5), "b_chromatic").value == 3

    def test_k_defaults_to_own_scan(self):
        assert brute_force_oracle(make("sunlet", 5), "b_sum_min").value == 16


class TestAgainstSolver:
    # every family instance with at most 12 vertices: 24 of them
    GRID = [(kind, n) for kind in FAMILY_KINDS for n in range(MIN_N, 13) if make(kind, n).n <= 12]

    @pytest.mark.parametrize("quantity", QUANTITIES)
    def test_agreement(self, quantity):
        for kind, n in self.GRID:
            assert solve(make(kind, n), quantity).value == oracle_value(kind, n, quantity), (kind, n)


class TestWitnesses:
    def test_witness_validates(self):
        g = make("helm", 3)
        for quantity in QUANTITIES:
            r = brute_force_oracle(g, quantity)
            assert is_colouring(g, r.witness)
            if quantity.startswith("b_"):
                assert is_colouring(g, r.witness, b=True)
            if "sum" in quantity:
                assert coloring_sum(r.witness) == r.value
            else:
                assert r.witness.k == r.value


def test_unknown_quantity():
    with pytest.raises(ValueError):
        brute_force_oracle(cycle(3), "nope")


def test_empty_graph_rejected_as_the_solver_rejects_it():
    for quantity in ("chi", "b_sum_min"):
        with pytest.raises(ValueError, match="empty graph are undefined"):
            brute_force_oracle(Graph(0, []), quantity)


@pytest.mark.parametrize(
    "quantity, k",
    [
        ("chi_sum_min", 0), ("chi_sum_max", 11), ("b_sum_min", True), ("b_sum_min", 4),
        ("chi", 2), ("b_chromatic", 3), ("b_chromatic", 11),
    ],
    ids=["zero", "n-plus-one", "bool", "above-phi", "chi", "b-chromatic", "b-chromatic-n-plus-one"],
)
def test_caller_k_without_a_partition_is_a_usage_error(quantity, k):
    # sunlet:5 has 10 vertices and phi 3, so it has no b-partition into 4
    # classes; chi and b_chromatic are scans, so no k is theirs to take
    with pytest.raises(ValueError, match=f"k = {k}|got {k}"):
        brute_force_oracle(make("sunlet", 5), quantity, k=k)


# sha256 over (kind, n, quantity, value, witness colours, nodes) of the oracle
# on every family instance with at most 12 vertices, one line per call
ORACLE_DIGEST = "a24e567099cad8a59769246b31b96363f93829ad97b4275dcfb638bad458ac4c"


def test_outputs_pinned():
    # the tie break picks the lex-first extremal string, and a scan stops at
    # its first partition: a change to either moves a witness or a node count
    digest = hashlib.sha256()
    for kind, n in TestAgainstSolver.GRID:
        for quantity in QUANTITIES:
            r = brute_force_oracle(make(kind, n), quantity)
            line = [kind, n, quantity, r.value, r.witness.colors, r.nodes_explored]
            digest.update(json.dumps(line).encode() + b"\n")
    assert len(TestAgainstSolver.GRID) * len(QUANTITIES) == 144
    assert digest.hexdigest() == ORACLE_DIGEST


def test_budget_exhaustion():
    with pytest.raises(BudgetExhausted) as info:
        brute_force_oracle(make("helm", 5), "b_sum_min", budget=SearchBudget(max_nodes=10))
    assert info.value.nodes_explored == 11


def test_time_budget_read_at_the_first_node():
    # helm:3 takes 141 nodes, fewer than the 1,024 between deadline reads:
    # a spent time budget still aborts it at its first node, as in `solve`
    with pytest.raises(BudgetExhausted, match="time budget") as info:
        brute_force_oracle(make("helm", 3), "b_sum_min", budget=SearchBudget(max_time=0.0))
    assert info.value.nodes_explored == 1
