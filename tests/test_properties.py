"""Property tests on random graphs with at most 10 vertices: the solvers
against the brute-force oracle, determinism of the chi witness, the
min/max duality of the sums, the incremental partition enumerator
against its loop version, the min scan against the first-partition
scan, the suffix independence numbers against a brute force, and the
witness check's chi and phi certificates against the oracle; and on
random ring graphs with their ring layout, the enumerator's lex-leader
cut against the loop version, which has no cut, and phi and the b min
sum against the oracle; on random graphs and colourings, the one-pass
colouring checks against their definitions; on random colourings of at
most 14 vertices, the labelling against its definition; and on random
report rows, report.json against json's indent=2 layout."""

import json
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from chromasum import solvers, verification
from chromasum.coloring import Coloring, coloring_sum, colours, optimal_labeling
from chromasum.graphs import Graph
from chromasum.oracle import brute_force_oracle
from chromasum.solvers import (
    SearchBudget,
    _lex_leader_cut,
    _partition,
    _scan,
    _suffix_alpha,
    _Tracker,
    b_chromatic_number,
    b_sum,
    chi_sum,
    chromatic_number,
    max_twin,
)
from chromasum.verification import VerificationRow, render_report
from helpers import brute_suffix_alpha, is_b_vertex, is_colouring, neighbours, reference_partition


@st.composite
def graphs(draw, max_n: int = 10) -> Graph:
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    return Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


@st.composite
def ring_graphs(draw) -> Graph:
    """A random column of 1-3 vertices repeated around a ring of n columns,
    with an optional hub, laid out as the families are (hub 0, then the
    vertices of column position a in ring order, position after position),
    and carrying that layout, whose symmetry is the dihedral group of the
    ring index with the hub fixed.
    Edges inside a column, spokes from the hub, and edges between
    neighbouring columns are drawn once for every column; an edge from
    position a to position b of the next column comes with its mirror, b to
    a, so the reflections are automorphisms too."""
    t = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=3, max_value=12 // t))
    hub = draw(st.integers(min_value=0, max_value=1))
    positions = range(t)
    pairs = [(a, b) for a in positions for b in positions if a < b]
    inside = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    across = draw(st.sets(st.sampled_from([(a, b) for a in positions for b in positions if a <= b])))
    spokes = draw(st.sets(st.sampled_from(positions))) if hub else set()

    def at(a: int, i: int) -> int:
        return hub + a * n + i % n

    edges = [(at(a, i), at(b, i)) for a, b in inside for i in range(n)]
    edges += [e for a, b in across for i in range(n) for e in ((at(a, i), at(b, i + 1)), (at(b, i), at(a, i + 1)))]
    edges += [(0, at(a, i)) for a in spokes for i in range(n)]
    return Graph(hub + t * n, edges, rings=(hub, n))


@st.composite
def coloured_graphs(draw) -> tuple[Graph, Coloring]:
    """A random graph and a random colouring that uses every one of its
    colours: either any map to colours, or a greedy colouring in a random
    vertex order, which is proper and often a b-colouring."""
    g = draw(graphs())
    if draw(st.booleans()):
        raw = draw(st.lists(st.integers(1, g.n), min_size=g.n, max_size=g.n))
    else:
        raw = [0] * g.n
        for v in draw(st.permutations(range(g.n))):
            taken = {raw[u] for u in neighbours(g, v)}
            raw[v] = next(c for c in range(1, g.n + 1) if c not in taken)
    dense = {c: i for i, c in enumerate(sorted(set(raw)), start=1)}
    return g, Coloring(len(dense), [dense[c] for c in raw])


def classes(coloring: Coloring) -> list[list[int]]:
    """The vertices of each colour 1..k, in colour order."""
    return [[v for v, c in enumerate(coloring.colors) if c == colour] for colour in range(1, coloring.k + 1)]


def check_sum_pair(g: Graph, solver, base: str):
    lo, hi = solver(g, "min"), solver(g, "max")
    for result in (lo, hi):
        assert result.value == brute_force_oracle(g, result.quantity).value
    k = lo.witness.k
    assert hi.witness.k == k
    assert lo.value + hi.value == (k + 1) * g.n
    assert sorted(classes(hi.witness)) == sorted(classes(lo.witness))
    twin = max_twin(lo)
    assert (twin.quantity, twin.value, twin.witness) == (f"{base}_max", hi.value, hi.witness)
    assert twin.nodes_explored == hi.nodes_explored


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_chi(g):
    result = chromatic_number(g)
    assert result.value == brute_force_oracle(g, "chi").value
    assert result.witness.k == result.value
    assert is_colouring(g, result.witness)
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


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_suffix_alpha(g):
    # the capacity cap's table against a largest independent set of each
    # suffix found by trying every vertex subset
    assert _suffix_alpha(g) == brute_suffix_alpha(g)


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=9))
def test_k_certificates_against_oracle(g):
    # an edge, an odd cycle or an odd wheel never proves more colours than
    # chi, and m(G) never falls below phi, so the witness check never takes
    # a wrong k for chi(G) or phi(G)
    chi = brute_force_oracle(g, "chi").value
    assert all(k <= chi for k in range(1, 6) if verification._chi_at_least(g.edges, k))
    assert verification._m(g.edges) >= brute_force_oracle(g, "b_chromatic").value


@settings(max_examples=100, deadline=None)
@given(graphs(), st.integers(min_value=1, max_value=64))
def test_suffix_alpha_past_memo_limit(g, limit):
    # a memo too small for the exact table still yields upper bounds, which
    # is all the capacity cap needs to stay sound
    exact = brute_suffix_alpha(g)
    with mock.patch.object(solvers, "_ALPHA_MEMO_LIMIT", limit):
        alpha = _suffix_alpha(g)
    assert alpha[g.n] == 0
    assert all(a >= e for a, e in zip(alpha, exact))
    assert all(alpha[v] <= alpha[v + 1] + 1 for v in range(g.n))


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_min_scan_is_first_scan_ending_in_min_search(g):
    # no partition exists at the k a scan passes, so there the min search
    # walks the first-partition search's tree: both scans stop at the same
    # k, and the min scan costs the first scan's nodes with its last search
    # swapped for the min search at that k, whose classes it returns
    def nodes_and(run):
        tracker = _Tracker(SearchBudget())
        return run(tracker), tracker.nodes

    for require_b in (False, True):
        first, first_nodes = nodes_and(lambda t: _scan(g, t, require_b, True))
        least, least_nodes = nodes_and(lambda t: _scan(g, t, require_b, False))
        k = max(first) + 1
        assert max(least) + 1 == k
        fresh, fresh_nodes = nodes_and(lambda t: _partition(g, k, t, require_b, False))
        assert least == fresh
        last_first_nodes = nodes_and(lambda t: _partition(g, k, t, require_b, True))[1]
        assert least_nodes == first_nodes - last_first_nodes + fresh_nodes


@settings(max_examples=100, deadline=None)
@given(ring_graphs())
def test_lex_leader_cut_keeps_partitions(g):
    # the cut never removes the partition the search returns: the same
    # classes as the loop version, which searches every image
    assert _lex_leader_cut(g)[0] > 0
    for k in range(1, g.n + 1):
        for require_b in (False, True):
            for first in (False, True):
                runs = []
                for enumerate_partitions in (_partition, reference_partition):
                    tracker = _Tracker(SearchBudget())
                    runs.append(enumerate_partitions(g, k, tracker, require_b, first))
                assert runs[0] == runs[1], (k, require_b, first)


@settings(max_examples=40, deadline=None)
@given(ring_graphs())
def test_b_quantities_on_ring_graphs(g):
    # the distinct b-vertex count and the lex-leader cut together, against
    # the oracle, which has neither
    phi = brute_force_oracle(g, "b_chromatic").value
    assert b_chromatic_number(g).value == phi
    assert b_sum(g, "min").value == brute_force_oracle(g, "b_sum_min", k=phi).value


@settings(max_examples=300, deadline=None)
@given(coloured_graphs())
def test_colouring_checks_match_definitions(gc):
    # the one-pass check against a check of every vertex pair, and against
    # the b-colouring's definition: proper, and a b-vertex in every class
    g, coloring = gc
    cols = coloring.colors
    pairwise = all(cols[u] != cols[v] for u in range(g.n) for v in range(u + 1, g.n) if g.adj[u] >> v & 1)
    assert colours(g.edges, coloring) == pairwise
    definition = pairwise and all(any(is_b_vertex(g, coloring, v) for v in c) for c in classes(coloring))
    assert colours(g.edges, coloring, b=True) == definition


@st.composite
def colourings(draw, max_n: int = 14) -> Coloring:
    """Any colouring of at most max_n vertices that uses each of its colours."""
    raw = draw(st.lists(st.integers(1, max_n), min_size=1, max_size=max_n))
    dense = {c: i for i, c in enumerate(sorted(set(raw)), start=1)}
    return Coloring(len(dense), [dense[c] for c in raw])


@settings(max_examples=300, deadline=None)
@given(colourings(), st.permutations(range(-7, 7)))
def test_labeling_depends_only_on_the_classes(coloring, ids):
    # any renaming of the class ids gives the colouring that numbers the
    # classes by size, ties on their smallest vertex; the min and max
    # labellings reverse the size order, so their sums add up to
    # (k+1)*|V|; and a max twin is its witness's max labelling
    k, n = coloring.k, len(coloring.colors)
    renamed = [ids[c - 1] for c in coloring.colors]
    labelled = {}
    for direction, sign in (("min", -1), ("max", 1)):
        want = [0] * n
        for colour, members in enumerate(sorted(classes(coloring), key=lambda c: (sign * len(c), c[0])), start=1):
            for v in members:
                want[v] = colour
        labelled[direction] = optimal_labeling(renamed, direction)
        assert labelled[direction] == Coloring(k, want), direction
    assert coloring_sum(labelled["min"]) + coloring_sum(labelled["max"]) == (k + 1) * n
    # sum(i * theta_i) adds colour i once per vertex of class i
    assert coloring_sum(coloring) == sum(i * coloring.colors.count(i) for i in range(1, k + 1))
    twin = max_twin(solvers.SumResult("chi_sum_min", 0, coloring, 7, 3))
    assert twin.witness == optimal_labeling(coloring.colors, "max")


@st.composite
def report_rows(draw) -> VerificationRow:
    """A report row of any shape: aborted (no value, no witness) or solved,
    with counts far past the desk's and text with quotes, commas, newlines
    and non-ASCII characters."""
    text = st.text(alphabet=st.sampled_from('ab"\\,\n: {}[]\u00e9\u2603'), max_size=8)
    count = st.integers(min_value=0, max_value=10**30)
    if draw(st.booleans()):
        computed, status, witness = None, "aborted", ""
    else:
        computed, status, witness = draw(count), draw(st.sampled_from(["match", "mismatch"])), draw(text)
    return VerificationRow(
        draw(text), draw(count), draw(text), draw(count), computed, status, witness, draw(count), draw(count)
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(report_rows(), max_size=4))
def test_json_report_matches_indented_dumps(rows):
    # report.json is built from json's C encoder in the indent=2 layout
    statuses = [r.status for r in rows]
    summary = {"matches": statuses.count("match"), "mismatches": statuses.count("mismatch"),
               "aborted": statuses.count("aborted")}
    payload = {"rows": [r.to_json() for r in rows], "summary": summary}
    assert render_report(rows, "json") == json.dumps(payload, sort_keys=True, indent=2) + "\n"
