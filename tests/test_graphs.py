import pytest
from helpers import bfs_two_colorable, cycle, degree, empty_graph, is_connected

from chromasum.families import make
from chromasum.graphs import Graph, to_dot, to_edgelist
from chromasum.oracle import brute_force_oracle
from chromasum.solvers import chi_sum


class TestConstruction:
    def test_dedupes_and_sorts_edges(self):
        g = Graph(3, [(1, 0), (0, 1), (1, 2)])
        assert g.edges == ((0, 1), (1, 2))
        assert g.m == 2

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, [(0, 2)])

    def test_immutable(self):
        g = cycle(3)
        with pytest.raises(AttributeError):
            g.n = 5

    def test_rejects_non_automorphism(self):
        # swapping 1 and 2 does not preserve these edges; the search cut with
        # it found chi_sum min 13 where the oracle finds 12
        edges = [(0, 1), (0, 3), (0, 7), (1, 5), (2, 6), (3, 4), (4, 6), (4, 7)]
        swap = (0, 2, 1, 3, 4, 5, 6, 7)
        with pytest.raises(ValueError, match="edges"):
            Graph(8, edges, automorphisms=(tuple(range(8)), swap))
        g = Graph(8, edges)
        assert chi_sum(g, "min").value == brute_force_oracle(g, "chi_sum_min").value == 12

    @pytest.mark.parametrize("p", [(0, 0, 1), (0, 1), (0, 1, 2, 3), (0, 1, 3)])
    def test_rejects_non_permutation(self, p):
        with pytest.raises(ValueError, match="permutation"):
            Graph(3, [(0, 1)], automorphisms=(tuple(range(3)), p))

    def test_adjacency_symmetry(self):
        g = make("helm", 5)
        for u in range(g.n):
            for v in range(g.n):
                assert bool(g.adj[u] >> v & 1) == bool(g.adj[v] >> u & 1)


class TestCycle:
    def test_triangle(self):
        g = cycle(3)
        assert (g.n, g.m) == (3, 3)

    def test_square_degrees(self):
        g = cycle(4)
        assert [degree(g, v) for v in range(g.n)] == [2, 2, 2, 2]

    def test_even_cycle_bipartite(self):
        assert bfs_two_colorable(cycle(6))
        assert not bfs_two_colorable(cycle(5))

    def test_two_regular_connected(self):
        for n in range(3, 10):
            g = cycle(n)
            assert [degree(g, v) for v in range(g.n)] == [2] * n
            assert is_connected(g)


class TestQueries:
    def test_max_degree_wheel(self):
        assert make("wheel", 6).max_degree() == 6

    def test_disconnected(self):
        two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert not is_connected(two_triangles)

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            degree(cycle(3), 3)


class TestFormats:
    def test_edgelist_header_and_lines(self):
        text = to_edgelist(make("sunlet", 3))
        lines = text.splitlines()
        assert lines[0] == "6 6"
        assert len(lines) == 7
        assert lines[1] == "0 1"

    def test_dot_output(self):
        text = to_dot(cycle(3))
        assert text.startswith("graph G {")
        assert "  0 -- 1;" in text
        assert text.rstrip().endswith("}")

    def test_dot_isolated_vertices(self):
        text = to_dot(empty_graph(2))
        assert "  0;" in text and "  1;" in text
