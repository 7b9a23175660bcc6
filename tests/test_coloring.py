import json
import random

import pytest
from helpers import complete_graph, cycle, exhaustive_labeling_extremum, is_b_vertex, is_colouring

from chromasum.coloring import Coloring, coloring_sum, optimal_labeling
from chromasum.families import make


class TestColoringType:
    def test_rejects_unused_colour(self):
        with pytest.raises(ValueError, match="unused"):
            Coloring(3, [1, 2, 1])
        # k beyond the vertex count is rejected before anything is built per
        # colour, so a decoded k costs no memory of its own
        with pytest.raises(ValueError, match="unused"):
            Coloring.from_json({"k": 10**12, "colors": [1]})

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Coloring(2, [1, 3])

    def test_json_roundtrip(self):
        c = Coloring(3, [1, 2, 3, 1])
        assert Coloring.from_json(json.loads(json.dumps(c.to_json()))) == c

    @pytest.mark.parametrize("data", [
        {"k": "2", "colors": [1, 2, 1]},
        {"k": 2, "colors": "121"},
        {"k": 2, "colors": [1.9, 2.9, 1.9]},
        {"k": 2.0, "colors": [1, 2, 1]},
        {"k": 2, "colors": [True, 2, True]},
        {"k": 2, "colors": (1, 2, 1)},
    ], ids=["string-k", "string-colours", "float-colours", "float-k", "bool-colours", "tuple-colours"])
    def test_from_json_converts_nothing(self, data):
        with pytest.raises(ValueError):
            Coloring.from_json(data)


class TestPartitionType:
    """optimal_labeling takes a partition as its colour list: vertex v in
    class labels[v]."""

    def test_valid(self):
        assert optimal_labeling([0, 0, 1], "min").k == 2


class TestSums:
    @pytest.mark.parametrize("n", [4, 6, 10])
    def test_two_big_one_singleton(self, n):
        # theta = (n, n, 1) weighs to 3(n+1)
        colors = [1] * n + [2] * n + [3]
        assert coloring_sum(Coloring(3, colors)) == 3 * (n + 1)

    def test_single_vertex(self):
        assert coloring_sum(Coloring(1, [1])) == 1

    def test_5321(self):
        colors = [1] * 5 + [2] * 3 + [3] * 2 + [4]
        c = Coloring(4, colors)
        assert [c.colors.count(i) for i in range(1, 5)] == [5, 3, 2, 1]
        assert coloring_sum(c) == 21

    def test_sum_at_least_n(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(1, 9)
            k = rng.randint(1, n)
            colors = list(range(1, k + 1)) + [rng.randint(1, k) for _ in range(n - k)]
            c = Coloring(k, colors)
            s = coloring_sum(c)
            assert s >= n
            assert (s == n) == (k == 1)


class TestOptimalLabeling:
    def test_sizes_144(self):
        labels = [0, 1, 1, 1, 1, 2, 2, 2, 2]
        lo = optimal_labeling(labels, "min")
        hi = optimal_labeling(labels, "max")
        assert coloring_sum(lo) == 15
        assert coloring_sum(hi) == 21

    def test_single_class(self):
        labels = [0, 0, 0]
        assert optimal_labeling(labels, "min") == optimal_labeling(labels, "max")

    def test_tie_break_smallest_vertex(self):
        coloring = optimal_labeling([1, 1, 0, 0], "min")
        assert coloring.colors == (1, 1, 2, 2)
        coloring = optimal_labeling([1, 1, 0, 0], "max")
        assert coloring.colors == (1, 1, 2, 2)

    def test_min_sizes_nonincreasing_max_nondecreasing(self):
        labels = [0, 1, 1, 2, 2, 2, 3]
        lo = optimal_labeling(labels, "min")
        hi = optimal_labeling(labels, "max")
        sizes = lambda c: [c.colors.count(i) for i in range(1, c.k + 1)]
        assert sizes(lo) == sorted(sizes(lo), reverse=True)
        assert sizes(hi) == sorted(sizes(hi))

    def test_direction_validated(self):
        with pytest.raises(ValueError):
            optimal_labeling([0], "down")

    def test_matches_exhaustive_permutations(self):
        rng = random.Random(20240817)
        for _ in range(150):
            n = rng.randint(1, 8)
            k = rng.randint(1, n)
            assign = list(range(k)) + [rng.randrange(k) for _ in range(n - k)]
            rng.shuffle(assign)
            sizes = [assign.count(c) for c in range(k)]
            for direction in ("min", "max"):
                got = coloring_sum(optimal_labeling(assign, direction))
                assert got == exhaustive_labeling_extremum(sizes, direction)


class TestPropriety:
    def test_alternating_cycle(self):
        assert is_colouring(cycle(4), Coloring(2, [1, 2, 1, 2]))

    def test_monochrome_edge(self):
        assert not is_colouring(cycle(3), Coloring(2, [1, 1, 2]))

    def test_published_helm3_classes(self):
        # hub=0, rim v_i=1..3, pendants u_i=4..6; classes
        # {v1,u2,u3}, {v2,u1}, {v3}, {v}
        g = make("helm", 3)
        coloring = optimal_labeling([3, 0, 1, 2, 1, 0, 0], "min")
        assert is_colouring(g, coloring)
        assert coloring_sum(coloring) == 14


class TestBPredicates:
    def test_wheel_hub_is_b_vertex(self):
        g = make("wheel", 4)
        c = Coloring(3, [3, 1, 2, 1, 2])  # hub=0 coloured 3
        assert is_colouring(g, c)
        assert is_b_vertex(g, c, 0)

    def test_helm_pendant_never_b_vertex(self):
        g = make("helm", 3)
        c = optimal_labeling([3, 0, 1, 2, 1, 0, 0], "min")
        for pendant in (4, 5, 6):
            assert not is_b_vertex(g, c, pendant)  # degree 1 < k-1

    def test_web3_published_colouring(self):
        # inner v=0..2, outer u=3..5, pendants w=6..8
        g = make("web", 3)
        c = Coloring(4, [1, 2, 3, 4, 3, 2, 1, 1, 1])
        assert is_colouring(g, c)
        assert is_b_vertex(g, c, 0)  # v1 sees colours 2,3,4
        assert is_colouring(g, c, b=True)
        assert coloring_sum(c) == 18

    def test_complete_graph_all_b(self):
        g = complete_graph(3)
        assert is_colouring(g, Coloring(3, [1, 2, 3]), b=True)

    def test_even_cycle_two_colours(self):
        assert is_colouring(cycle(4), Coloring(2, [1, 2, 1, 2]), b=True)

    def test_published_helm4_five_colouring(self):
        # classes {v1,u3},{v2,u4},{v3,u1},{v4,u2},{v}
        g = make("helm", 4)
        c = optimal_labeling([4, 0, 1, 2, 3, 2, 3, 0, 1], "min")
        assert is_colouring(g, c, b=True)

    def test_improper_is_not_b(self):
        assert not is_colouring(cycle(3), Coloring(2, [1, 1, 2]), b=True)


def test_sum_invariant_under_automorphism():
    g = cycle(6)
    c = Coloring(3, [1, 2, 3, 1, 2, 3])
    assert is_colouring(g, c)
    for shift in range(6):
        rotated = Coloring(3, [c.colors[(v + shift) % 6] for v in range(6)])
        assert is_colouring(g, rotated)
        assert coloring_sum(rotated) == coloring_sum(c)
