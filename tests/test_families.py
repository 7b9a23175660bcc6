from collections import Counter

import pytest
from helpers import bfs_two_colorable, degree, is_connected

from chromasum.families import FAMILY_KINDS, Family, build, make, parse_family
from chromasum.graphs import HUB, INNER_CYCLE, OUTER_CYCLE, PENDANT, VertexRole

# (vertices, edges, [(degree, count), ...]) closed forms per family; degree
# values can coincide at small n, so counts are kept as pairs
EXPECTED = {
    "wheel": lambda n: (n + 1, 2 * n, [(n, 1), (3, n)]),
    "double_wheel": lambda n: (2 * n + 1, 4 * n, [(2 * n, 1), (3, 2 * n)]),
    "helm": lambda n: (2 * n + 1, 3 * n, [(n, 1), (4, n), (1, n)]),
    "closed_helm": lambda n: (2 * n + 1, 4 * n, [(n, 1), (4, n), (3, n)]),
    "sunlet": lambda n: (2 * n, 2 * n, [(3, n), (1, n)]),
    "web": lambda n: (3 * n, 4 * n, [(3, n), (4, n), (1, n)]),
}


@pytest.mark.parametrize("kind", FAMILY_KINDS)
@pytest.mark.parametrize("n", range(3, 13))
def test_counts_degrees_connectivity(kind, n):
    g = make(kind, n)
    vertices, edges, degrees = EXPECTED[kind](n)
    assert g.n == vertices
    assert g.m == edges
    want = Counter()
    for deg, count in degrees:
        want[deg] += count
    assert Counter(degree(g, v) for v in range(g.n)) == want
    assert is_connected(g)
    assert g.family == (kind, n)


@pytest.mark.parametrize("kind", FAMILY_KINDS)
@pytest.mark.parametrize("n", range(3, 13))
def test_roles_round_trip(kind, n):
    g = make(kind, n)
    assert g.roles is not None and len(g.roles) == g.n
    inner = [v for v in range(g.n) if g.roles[v].kind == INNER_CYCLE]
    assert len(inner) == n
    # the subgraph induced by the inner-cycle roles is a cycle of length n
    inner_set = set(inner)
    for v in inner:
        assert sum(1 for u in g.neighbors(v) if u in inner_set) == 2
    for v in range(g.n):
        role = g.roles[v]
        if role.kind == PENDANT:
            assert degree(g, v) == 1
        if role.kind == HUB:
            assert role.index == 0
        else:
            assert 1 <= role.index <= n


@pytest.mark.parametrize("kind", FAMILY_KINDS)
@pytest.mark.parametrize("n", range(3, 13))
def test_dihedral_group_is_automorphisms(kind, n):
    # the solver's lex-leader cut is sound only if every element maps the
    # graph onto itself
    g = make(kind, n)
    group = set(g.automorphisms)
    assert len(group) == len(g.automorphisms) == 2 * n
    assert tuple(range(g.n)) in group
    edges = set(g.edges)
    for p in g.automorphisms:
        assert sorted(p) == list(range(g.n))
        assert {(min(p[u], p[v]), max(p[u], p[v])) for u, v in g.edges} == edges
        assert all(g.roles[p[v]].kind == g.roles[v].kind for v in range(g.n))
        assert all(tuple(p[q[v]] for v in range(g.n)) in group for q in g.automorphisms)


def test_role_counts():
    assert Counter(r.kind for r in make("wheel", 5).roles) == {HUB: 1, INNER_CYCLE: 5}
    assert Counter(r.kind for r in make("double_wheel", 5).roles) == {HUB: 1, INNER_CYCLE: 5, OUTER_CYCLE: 5}
    assert Counter(r.kind for r in make("helm", 5).roles) == {HUB: 1, INNER_CYCLE: 5, PENDANT: 5}
    assert Counter(r.kind for r in make("closed_helm", 5).roles) == {HUB: 1, INNER_CYCLE: 5, OUTER_CYCLE: 5}
    assert Counter(r.kind for r in make("sunlet", 5).roles) == {INNER_CYCLE: 5, PENDANT: 5}
    assert Counter(r.kind for r in make("web", 5).roles) == {INNER_CYCLE: 5, OUTER_CYCLE: 5, PENDANT: 5}


def test_closed_helm_outer_ring_is_cycle():
    g = make("closed_helm", 6)
    outer = [v for v in range(g.n) if g.roles[v].kind == OUTER_CYCLE]
    outer_set = set(outer)
    for v in outer:
        assert sum(1 for u in g.neighbors(v) if u in outer_set) == 2
        assert degree(g, v) == 3


def test_spot_shapes():
    assert (make("double_wheel", 4).n, make("double_wheel", 4).m) == (9, 16)
    assert degree(make("double_wheel", 3), 0) == 6  # hub joins all six cycle vertices
    assert (make("helm", 3).n, make("helm", 3).m) == (7, 9)
    assert sum(1 for v in range(make("helm", 4).n) if degree(make("helm", 4), v) == 1) == 4
    assert (make("closed_helm", 3).n, make("closed_helm", 3).m) == (7, 12)
    assert make("closed_helm", 4).n == make("helm", 4).n
    assert (make("sunlet", 3).n, make("sunlet", 3).m) == (6, 6)
    assert (make("web", 3).n, make("web", 3).m) == (9, 12)
    assert make("web", 4).max_degree() == 4
    assert (make("wheel", 4).n, make("wheel", 4).m) == (5, 8)


def test_closed_helm_degree_sequence():
    g = make("closed_helm", 5)
    assert degree(g, 0) == 5
    assert sorted(degree(g, v) for v in range(1, 6)) == [4] * 5
    assert sorted(degree(g, v) for v in range(6, 11)) == [3] * 5


def test_wheel_3_is_complete():
    g = make("wheel", 3)
    assert g.m == 6 and all(degree(g, v) == 3 for v in range(4))


def test_bipartite_even_families():
    assert bfs_two_colorable(make("sunlet", 4))
    assert bfs_two_colorable(make("web", 4))
    assert not bfs_two_colorable(make("sunlet", 5))


# Witness files list colours by vertex id, so the id layout is pinned:
# (kind, n) -> (roles as role letter + ring index, edges).
LAYOUT = {
    ("wheel", 4): (
        "H0 I1 I2 I3 I4",
        ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3), (3, 4)),
    ),
    ("wheel", 5): (
        "H0 I1 I2 I3 I4 I5",
        ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 5), (2, 3), (3, 4), (4, 5)),
    ),
    ("double_wheel", 4): (
        "H0 I1 I2 I3 I4 O1 O2 O3 O4",
        ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8), (1, 2), (1, 4), (2, 3),
         (3, 4), (5, 6), (5, 8), (6, 7), (7, 8)),
    ),
    ("double_wheel", 5): (
        "H0 I1 I2 I3 I4 I5 O1 O2 O3 O4 O5",
        ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8), (0, 9), (0, 10), (1, 2),
         (1, 5), (2, 3), (3, 4), (4, 5), (6, 7), (6, 10), (7, 8), (8, 9), (9, 10)),
    ),
    ("helm", 4): (
        "H0 I1 I2 I3 I4 P1 P2 P3 P4",
        ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (1, 5), (2, 3), (2, 6), (3, 4), (3, 7),
         (4, 8)),
    ),
    ("helm", 5): (
        "H0 I1 I2 I3 I4 I5 P1 P2 P3 P4 P5",
        ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 5), (1, 6), (2, 3), (2, 7), (3, 4),
         (3, 8), (4, 5), (4, 9), (5, 10)),
    ),
    ("closed_helm", 4): (
        "H0 I1 I2 I3 I4 O1 O2 O3 O4",
        ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (1, 5), (2, 3), (2, 6), (3, 4), (3, 7),
         (4, 8), (5, 6), (5, 8), (6, 7), (7, 8)),
    ),
    ("closed_helm", 5): (
        "H0 I1 I2 I3 I4 I5 O1 O2 O3 O4 O5",
        ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 5), (1, 6), (2, 3), (2, 7), (3, 4),
         (3, 8), (4, 5), (4, 9), (5, 10), (6, 7), (6, 10), (7, 8), (8, 9), (9, 10)),
    ),
    ("sunlet", 4): (
        "I1 I2 I3 I4 P1 P2 P3 P4",
        ((0, 1), (0, 3), (0, 4), (1, 2), (1, 5), (2, 3), (2, 6), (3, 7)),
    ),
    ("sunlet", 5): (
        "I1 I2 I3 I4 I5 P1 P2 P3 P4 P5",
        ((0, 1), (0, 4), (0, 5), (1, 2), (1, 6), (2, 3), (2, 7), (3, 4), (3, 8), (4, 9)),
    ),
    ("web", 4): (
        "I1 I2 I3 I4 O1 O2 O3 O4 P1 P2 P3 P4",
        ((0, 1), (0, 3), (0, 4), (1, 2), (1, 5), (2, 3), (2, 6), (3, 7), (4, 5), (4, 7), (4, 8),
         (5, 6), (5, 9), (6, 7), (6, 10), (7, 11)),
    ),
    ("web", 5): (
        "I1 I2 I3 I4 I5 O1 O2 O3 O4 O5 P1 P2 P3 P4 P5",
        ((0, 1), (0, 4), (0, 5), (1, 2), (1, 6), (2, 3), (2, 7), (3, 4), (3, 8), (4, 9), (5, 6),
         (5, 9), (5, 10), (6, 7), (6, 11), (7, 8), (7, 12), (8, 9), (8, 13), (9, 14)),
    ),
}
_ROLE_LETTERS = {"H": HUB, "I": INNER_CYCLE, "O": OUTER_CYCLE, "P": PENDANT}


@pytest.mark.parametrize("kind, n", sorted(LAYOUT))
def test_vertex_layout_pinned(kind, n):
    roles, edges = LAYOUT[kind, n]
    g = make(kind, n)
    assert g.edges == edges
    assert g.roles == tuple(VertexRole(_ROLE_LETTERS[r[0]], int(r[1:])) for r in roles.split())


def test_parse_family():
    fam = parse_family("helm:7")
    assert fam == Family("helm", 7)
    assert str(fam) == "helm:7"
    assert build(fam).family == ("helm", 7)


@pytest.mark.parametrize("bad", ["helm", "helm:x", "gear:4", "helm:2", "web:-1"])
def test_parse_family_rejects(bad):
    with pytest.raises(ValueError):
        parse_family(bad)


def test_generator_rejects_small_n():
    for kind in FAMILY_KINDS:
        with pytest.raises(ValueError):
            make(kind, 2)
