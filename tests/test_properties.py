"""Property tests on random graphs with at most 10 vertices: the solvers
against the brute-force oracle, determinism of the chi witness, the
min/max duality of the sums, and the incremental partition enumerator
against its loop version."""

from hypothesis import given, settings
from hypothesis import strategies as st

from chromasum.coloring import is_proper
from chromasum.graphs import Graph
from chromasum.oracle import brute_force_oracle
from chromasum.solvers import (
    SearchBudget,
    _partition,
    _Tracker,
    b_chromatic_number,
    b_sum,
    chi_sum,
    chromatic_number,
    max_twin,
)
from helpers import reference_partition


@st.composite
def graphs(draw, max_n: int = 10) -> Graph:
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    return Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def classes(result) -> set[frozenset[int]]:
    return {frozenset(c) for c in result.witness.classes()}


def check_sum_pair(g: Graph, solver, base: str):
    lo, hi = solver(g, "min"), solver(g, "max")
    for result in (lo, hi):
        assert result.value == brute_force_oracle(g, result.quantity).value
    k = lo.witness.k
    assert hi.witness.k == k
    assert lo.value + hi.value == (k + 1) * g.n
    assert classes(hi) == classes(lo)
    twin = max_twin(lo)
    assert (twin.quantity, twin.value, twin.witness) == (f"{base}_max", hi.value, hi.witness)
    assert twin.nodes_explored == hi.nodes_explored


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_chi(g):
    result = chromatic_number(g)
    assert result.value == brute_force_oracle(g, "chi").value
    assert result.witness.k == result.value
    assert is_proper(g, result.witness)
    assert chromatic_number(g).witness == result.witness


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_chi_sum_pair(g):
    check_sum_pair(g, chi_sum, "chi_sum")


@settings(max_examples=30, deadline=None)
@given(graphs())
def test_b_sum_pair_and_phi(g):
    assert b_chromatic_number(g).value == brute_force_oracle(g, "b_chromatic").value
    check_sum_pair(g, b_sum, "b_sum")


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_partition_matches_reference(g):
    # same pruning decisions as the loop version: same classes, same nodes
    for k in range(1, g.n + 1):
        for require_b in (False, True):
            for first in (False, True):
                runs = []
                for enumerate_partitions in (_partition, reference_partition):
                    tracker = _Tracker(SearchBudget())
                    runs.append((enumerate_partitions(g, k, tracker, require_b, first), tracker.nodes))
                assert runs[0] == runs[1], (k, require_b, first)
