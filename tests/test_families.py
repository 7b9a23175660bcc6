from collections import Counter

import pytest
from helpers import FAMILY_CLOSED_FORMS, bfs_two_colorable, degree, is_connected

from chromasum.families import FAMILY_KINDS, RINGS, make, parse_family


@pytest.mark.parametrize("kind", FAMILY_KINDS)
@pytest.mark.parametrize("n", range(3, 13))
def test_counts_degrees_connectivity(kind, n):
    g = make(kind, n)
    vertices, edges, degrees = FAMILY_CLOSED_FORMS[kind](n)
    assert g.n == vertices
    assert len(g.edges) == edges
    want = Counter()
    for deg, count in degrees:
        want[deg] += count
    assert Counter(degree(g, v) for v in range(g.n)) == want
    assert is_connected(g)


def ring_blocks(kind, n):
    """(hub count, [(ring ids, is pendant ring)]): vertex i of ring r is
    hub + r*n + i."""
    rings, pendants, spokes, _ = RINGS[kind]
    hub = 1 if spokes else 0
    return hub, [(range(hub + r * n, hub + (r + 1) * n), r in pendants) for r in range(rings)]


@pytest.mark.parametrize("kind", FAMILY_KINDS)
@pytest.mark.parametrize("n", range(3, 13))
def test_roles_round_trip(kind, n):
    # each ring of a RINGS row plays the role the row gives it: a cycle
    # ring's block of ids induces C_n in id order, a pendant ring's
    # vertices have degree 1
    g = make(kind, n)
    hub, blocks = ring_blocks(kind, n)
    assert g.n == hub + sum(len(ids) for ids, _ in blocks)
    for ids, pendant in blocks:
        if pendant:
            assert all(degree(g, v) == 1 for v in ids)
            continue
        induced = {(u, v) for u, v in g.edges if u in ids and v in ids}
        assert induced == {tuple(sorted((ids[i], ids[(i + 1) % n]))) for i in range(n)}


@pytest.mark.parametrize("kind", FAMILY_KINDS)
@pytest.mark.parametrize("n", range(3, 13))
def test_dihedral_group_is_automorphisms(kind, n):
    # the solver's lex-leader cut is sound only if every element of the
    # layout's group maps the graph onto itself; Graph checks only the two
    # generators, so the whole group is enumerated here: i -> s + i and
    # i -> s - i (mod n) on every ring, the hub fixed
    g = make(kind, n)
    hub, blocks = ring_blocks(kind, n)
    assert g.rings == (hub, n)
    group = {
        tuple(range(hub)) + tuple(ids[(s + sign * i) % n] for ids, _ in blocks for i in range(n))
        for s in range(n)
        for sign in (1, -1)
    }
    assert len(group) == 2 * n
    assert tuple(range(g.n)) in group
    edges = set(g.edges)
    for p in group:
        assert sorted(p) == list(range(g.n))
        assert {(min(p[u], p[v]), max(p[u], p[v])) for u, v in g.edges} == edges
        assert all(tuple(p[q[v]] for v in range(g.n)) in group for q in group)


def test_spot_shapes():
    assert (make("double_wheel", 4).n, len(make("double_wheel", 4).edges)) == (9, 16)
    assert degree(make("double_wheel", 3), 0) == 6  # hub joins all six cycle vertices
    assert (make("helm", 3).n, len(make("helm", 3).edges)) == (7, 9)
    assert sum(1 for v in range(make("helm", 4).n) if degree(make("helm", 4), v) == 1) == 4
    assert (make("closed_helm", 3).n, len(make("closed_helm", 3).edges)) == (7, 12)
    assert make("closed_helm", 4).n == make("helm", 4).n
    assert (make("sunlet", 3).n, len(make("sunlet", 3).edges)) == (6, 6)
    assert (make("web", 3).n, len(make("web", 3).edges)) == (9, 12)
    assert make("web", 4).max_degree() == 4
    assert (make("wheel", 4).n, len(make("wheel", 4).edges)) == (5, 8)


def test_closed_helm_degree_sequence():
    g = make("closed_helm", 5)
    assert degree(g, 0) == 5
    assert sorted(degree(g, v) for v in range(1, 6)) == [4] * 5
    assert sorted(degree(g, v) for v in range(6, 11)) == [3] * 5


def test_wheel_3_is_complete():
    g = make("wheel", 3)
    assert len(g.edges) == 6 and all(degree(g, v) == 3 for v in range(4))


def test_bipartite_even_families():
    assert bfs_two_colorable(make("sunlet", 4))
    assert bfs_two_colorable(make("web", 4))
    assert not bfs_two_colorable(make("sunlet", 5))


# Witness files list colours by vertex id, so the id layout is pinned:
# (kind, n) -> edges.
LAYOUT = {
    ("wheel", 4): ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3), (3, 4)),
    ("wheel", 5): ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 5), (2, 3), (3, 4), (4, 5)),
    ("double_wheel", 4): (
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8), (1, 2), (1, 4), (2, 3),
        (3, 4), (5, 6), (5, 8), (6, 7), (7, 8),
    ),
    ("double_wheel", 5): (
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8), (0, 9), (0, 10), (1, 2),
        (1, 5), (2, 3), (3, 4), (4, 5), (6, 7), (6, 10), (7, 8), (8, 9), (9, 10),
    ),
    ("helm", 4): (
        (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (1, 5), (2, 3), (2, 6), (3, 4), (3, 7),
        (4, 8),
    ),
    ("helm", 5): (
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 5), (1, 6), (2, 3), (2, 7), (3, 4),
        (3, 8), (4, 5), (4, 9), (5, 10),
    ),
    ("closed_helm", 4): (
        (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (1, 5), (2, 3), (2, 6), (3, 4), (3, 7),
        (4, 8), (5, 6), (5, 8), (6, 7), (7, 8),
    ),
    ("closed_helm", 5): (
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 5), (1, 6), (2, 3), (2, 7), (3, 4),
        (3, 8), (4, 5), (4, 9), (5, 10), (6, 7), (6, 10), (7, 8), (8, 9), (9, 10),
    ),
    ("sunlet", 4): ((0, 1), (0, 3), (0, 4), (1, 2), (1, 5), (2, 3), (2, 6), (3, 7)),
    ("sunlet", 5): ((0, 1), (0, 4), (0, 5), (1, 2), (1, 6), (2, 3), (2, 7), (3, 4), (3, 8), (4, 9)),
    ("web", 4): (
        (0, 1), (0, 3), (0, 4), (1, 2), (1, 5), (2, 3), (2, 6), (3, 7), (4, 5), (4, 7), (4, 8),
        (5, 6), (5, 9), (6, 7), (6, 10), (7, 11),
    ),
    ("web", 5): (
        (0, 1), (0, 4), (0, 5), (1, 2), (1, 6), (2, 3), (2, 7), (3, 4), (3, 8), (4, 9), (5, 6),
        (5, 9), (5, 10), (6, 7), (6, 11), (7, 8), (7, 12), (8, 9), (8, 13), (9, 14),
    ),
}


@pytest.mark.parametrize("kind, n", sorted(LAYOUT))
def test_vertex_layout_pinned(kind, n):
    assert make(kind, n).edges == LAYOUT[kind, n]


def test_parse_family():
    assert parse_family("helm:7") == ("helm", 7)


@pytest.mark.parametrize("bad", [
    "helm", "helm:x", "gear:4", "helm:2", "web:-1",
    # int() takes these, but a spec's n is ASCII digits only
    "helm:1_0", "helm:+7", "helm: 7", "helm:7\n", "helm:\u0667",
])
def test_parse_family_rejects(bad):
    with pytest.raises(ValueError):
        parse_family(bad)


def test_generator_rejects_small_n():
    for kind in FAMILY_KINDS:
        with pytest.raises(ValueError):
            make(kind, 2)
