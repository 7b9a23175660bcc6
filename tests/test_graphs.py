import pytest
from helpers import bfs_two_colorable, cycle, degree, is_connected

from chromasum.cli import main
from chromasum.families import make
from chromasum.graphs import Graph
from chromasum.oracle import brute_force_oracle
from chromasum.solvers import chi_sum


class TestConstruction:
    def test_dedupes_and_sorts_edges(self):
        g = Graph(3, [(1, 0), (0, 1), (1, 2)])
        assert g.edges == ((0, 1), (1, 2))
        assert len(g.edges) == 2

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
        # rotating the rings of (2, 3) does not preserve these edges; the
        # search cut by that layout found chi_sum min 13 where the oracle
        # finds 12
        edges = [(0, 1), (0, 3), (0, 7), (1, 5), (2, 6), (3, 4), (4, 6), (4, 7)]
        with pytest.raises(ValueError, match="edges"):
            Graph(8, edges, rings=(2, 3))
        g = Graph(8, edges)
        assert g.rings is None
        assert chi_sum(g, "min").value == brute_force_oracle(g, "chi_sum_min").value == 12
        # a path is not a ring: i -> i+1 moves its edge (2, 3) to (3, 0)
        with pytest.raises(ValueError, match=r"i -> i\+1 does not map the edges"):
            Graph(4, [(0, 1), (1, 2), (2, 3)], rings=(0, 4))

    def test_checks_the_reflection(self):
        # edges (i, 4 + (i+1) % 4) between two 4-rings: i -> i+1 keeps them,
        # i -> -i maps (0, 5) to (0, 7), which is not an edge
        twist = [(i, 4 + (i + 1) % 4) for i in range(4)]
        with pytest.raises(ValueError, match="i -> -i does not map the edges"):
            Graph(8, twist, rings=(0, 4))

    @pytest.mark.parametrize("n, rings", [(4, (0, 3)), (7, (1, 4)), (4, (4, 4)), (4, (5, 1)), (4, (-1, 5)), (4, (0, 0))])
    def test_rejects_layout_that_does_not_tile(self, n, rings):
        with pytest.raises(ValueError, match="tile"):
            Graph(n, [], rings=rings)

    def test_keeps_ring_layout(self):
        g = Graph(7, [(0, v) for v in range(1, 7)] + [(v, v + 3) for v in range(1, 4)], rings=(1, 3))
        assert g.rings == (1, 3)
        assert Graph(3, [], rings=(0, 1)).rings == (0, 1)

    def test_adjacency_symmetry(self):
        g = make("helm", 5)
        for u in range(g.n):
            for v in range(g.n):
                assert bool(g.adj[u] >> v & 1) == bool(g.adj[v] >> u & 1)


class TestCycle:
    def test_triangle(self):
        g = cycle(3)
        assert (g.n, len(g.edges)) == (3, 3)

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


class TestFormats:
    def test_edgelist_header_and_lines(self, capsys):
        assert main(["generate", "sunlet:3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "6 6"
        assert len(lines) == 7
        assert lines[1] == "0 1"

    def test_dot_output(self, capsys):
        assert main(["generate", "sunlet:3", "--dot"]) == 0
        text = capsys.readouterr().out
        assert text.startswith("graph sunlet_3 {")
        assert "  0 -- 1;" in text
        assert text.rstrip().endswith("}")
