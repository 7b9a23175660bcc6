import pytest

from chromasum.families import MIN_N, make
from chromasum.formulas import (
    _ENTRIES,
    COVERED_FAMILIES,
    FormulaEntry,
    NoPublishedFormula,
    entry_for,
    is_covered,
    predict,
)
from chromasum.solvers import QUANTITIES, b_chromatic_number, chromatic_number
from chromasum.verification import DESK_CAPS

VERTICES = {
    "double_wheel": lambda n: 2 * n + 1,
    "helm": lambda n: 2 * n + 1,
    "closed_helm": lambda n: 2 * n + 1,
    "sunlet": lambda n: 2 * n,
    "web": lambda n: 3 * n,
}


class TestPublishedValues:
    """Freeze every printed closed-form value, and each formula at n = 100
    and 101, far past its small-n values, so no slope or intercept can
    change unseen."""

    @pytest.mark.parametrize(
        "n,expected",
        [(3, 16), (4, 15), (5, 22), (6, 21), (7, 28), (8, 27), (100, 303), (101, 310)],
    )
    def test_double_wheel_chi_min(self, n, expected):
        assert predict("double_wheel", "chi_sum_min", n) == expected

    @pytest.mark.parametrize(
        "n,expected",
        [(3, 19), (4, 21), (5, 33), (6, 31), (100, 501), (101, 705)],
    )
    def test_double_wheel_chi_max(self, n, expected):
        assert predict("double_wheel", "chi_sum_max", n) == expected

    @pytest.mark.parametrize(
        "n,expected",
        [(3, 16), (4, 15), (5, 22), (6, 28), (7, 28), (8, 34), (100, 310), (101, 310)],
    )
    def test_double_wheel_b_min(self, n, expected):
        assert predict("double_wheel", "b_sum_min", n) == expected

    @pytest.mark.parametrize(
        "n,expected",
        [(3, 19), (4, 21), (5, 33), (6, 37), (7, 47), (100, 695), (101, 705)],
    )
    def test_double_wheel_b_max(self, n, expected):
        assert predict("double_wheel", "b_sum_max", n) == expected

    @pytest.mark.parametrize(
        "n,expected",
        [(3, 16), (4, 15), (5, 22), (6, 21), (100, 303), (101, 310)],
    )
    def test_helm_chi_min(self, n, expected):
        assert predict("helm", "chi_sum_min", n) == expected

    @pytest.mark.parametrize(
        "n,expected",
        [(3, 19), (4, 21), (5, 33), (6, 31), (100, 501), (101, 705)],
    )
    def test_helm_chi_max(self, n, expected):
        assert predict("helm", "chi_sum_max", n) == expected

    @pytest.mark.parametrize(
        "n,expected",
        [(3, 14), (4, 25), (5, 21), (6, 30), (7, 34), (8, 37), (9, 40), (100, 313), (101, 316)],
    )
    def test_helm_b_min(self, n, expected):
        assert predict("helm", "b_sum_min", n) == expected

    @pytest.mark.parametrize(
        "n,expected",
        [(3, 21), (4, 29), (5, 34), (6, 48), (7, 56), (8, 65), (100, 893), (101, 902)],
    )
    def test_helm_b_max(self, n, expected):
        assert predict("helm", "b_sum_max", n) == expected

    @pytest.mark.parametrize(
        "n,expected",
        [(3, 16), (4, 15), (5, 22), (6, 21), (100, 303), (101, 310)],
    )
    def test_closed_helm_chi_min(self, n, expected):
        assert predict("closed_helm", "chi_sum_min", n) == expected

    @pytest.mark.parametrize(
        "n,expected",
        [(3, 19), (4, 21), (5, 33), (6, 31), (100, 501), (101, 705)],
    )
    def test_closed_helm_chi_max(self, n, expected):
        assert predict("closed_helm", "chi_sum_max", n) == expected

    @pytest.mark.parametrize(
        "n,expected",
        [(3, 16), (4, 25), (5, 22), (6, 32), (7, 37), (8, 39), (9, 43), (10, 45),
         (100, 315), (101, 319)],
    )
    def test_closed_helm_b_min(self, n, expected):
        assert predict("closed_helm", "b_sum_min", n) == expected

    @pytest.mark.parametrize(
        "n,expected",
        [(3, 19), (4, 29), (5, 33), (6, 47), (7, 53), (8, 63), (9, 71), (100, 891), (101, 899)],
    )
    def test_closed_helm_b_max(self, n, expected):
        assert predict("closed_helm", "b_sum_max", n) == expected

    @pytest.mark.parametrize(
        "n,expected",
        [(3, 12), (4, 12), (5, 18), (6, 18), (7, 24), (100, 300), (101, 306)],
    )
    def test_sunlet_chi_min(self, n, expected):
        assert predict("sunlet", "chi_sum_min", n) == expected

    @pytest.mark.parametrize(
        "n,expected",
        [(3, 12), (4, 12), (5, 22), (6, 18), (7, 32), (100, 300), (101, 502)],
    )
    def test_sunlet_chi_max(self, n, expected):
        assert predict("sunlet", "chi_sum_max", n) == expected

    @pytest.mark.parametrize(
        "n,expected",
        [(3, 10), (4, 20), (5, 17), (6, 26), (7, 29), (8, 32), (100, 308), (101, 311)],
    )
    def test_sunlet_b_min(self, n, expected):
        assert predict("sunlet", "b_sum_min", n) == expected

    @pytest.mark.parametrize(
        "n,expected",
        [(3, 14), (4, 20), (5, 23), (6, 34), (7, 41), (8, 48), (100, 692), (101, 699)],
    )
    def test_sunlet_b_max(self, n, expected):
        assert predict("sunlet", "b_sum_max", n) == expected

    @pytest.mark.parametrize(
        "n,expected",
        [(3, 18), (4, 14), (5, 27), (6, 21), (7, 36), (100, 350), (101, 459)],
    )
    def test_web_chi_min(self, n, expected):
        assert predict("web", "chi_sum_min", n) == expected

    @pytest.mark.parametrize(
        "n,expected",
        [(3, 18), (4, 14), (5, 33), (6, 21), (7, 48), (100, 350), (101, 753)],
    )
    def test_web_chi_max(self, n, expected):
        assert predict("web", "chi_sum_max", n) == expected

    @pytest.mark.parametrize(
        "n,expected",
        [(3, 4), (4, 4), (5, 5), (6, 5), (9, 5), (100, 5), (101, 5)],
    )
    def test_web_b_chromatic(self, n, expected):
        assert predict("web", "b_chromatic", n) == expected

    @pytest.mark.parametrize(
        "n,expected",
        [(3, 18), (4, 25), (5, 45), (6, 51), (7, 53), (8, 61), (100, 521), (101, 523)],
    )
    def test_web_b_min(self, n, expected):
        assert predict("web", "b_sum_min", n) == expected

    @pytest.mark.parametrize(
        "n,expected",
        [(3, 27), (4, 35), (5, 45), (6, 57), (7, 73), (8, 83), (100, 1279), (101, 1295)],
    )
    def test_web_b_max(self, n, expected):
        assert predict("web", "b_sum_max", n) == expected


class TestStructure:
    def test_parity_branches_are_affine(self):
        # past the small-n specials, predict(n) and predict(n+2) determine
        # predict(n+4) linearly within each parity class
        for entry in _ENTRIES:
            for start in (10, 11):
                a = entry.predict(start)
                b = entry.predict(start + 2)
                c = entry.predict(start + 4)
                assert c - b == b - a, (entry.family, entry.quantity, start)

    def test_specials_shadow_general_branch(self):
        assert predict("double_wheel", "b_sum_min", 4) == 15 != 3 * 4 + 10
        assert predict("helm", "b_sum_min", 5) == 21 != 3 * 5 + 13
        assert predict("sunlet", "b_sum_max", 5) == 23 != 7 * 5 - 8
        assert predict("web", "b_sum_min", 5) == 45 != 5 * 5 + 18

    def test_predictions_cover_vertex_count(self):
        # a sum assigns every vertex a weight >= 1; colour counts (the one
        # b_chromatic entry) are merely positive
        for entry in _ENTRIES:
            vertices = VERTICES[entry.family]
            for n in range(3, 31):
                value = entry.predict(n)
                assert isinstance(value, int)
                if entry.quantity.endswith(("_min", "_max")):
                    assert value >= vertices(n)
                else:
                    assert value > 0

    def test_web_halved_branches_are_integral(self):
        for n in range(3, 21, 2):
            assert 2 * predict("web", "chi_sum_min", n) == 9 * n + 9
            assert 2 * predict("web", "chi_sum_max", n) == 15 * n - 9
        # every branch of every entry with a divisor divides exactly, so the
        # floor division in predict never truncates
        halved = [e for e in _ENTRIES if e.divisor > 1]
        assert [(e.family, e.quantity) for e in halved] == [
            ("web", "chi_sum_min"),
            ("web", "chi_sum_max"),
        ]
        for entry in halved:
            for n in range(MIN_N, 41):
                a, b = entry.odd if n % 2 else entry.even
                assert (a * n + b) % entry.divisor == 0, (entry.quantity, n)


class TestCoverage:
    def test_entry_count(self):
        assert len(_ENTRIES) == 21

    def test_every_entry_well_formed(self):
        for entry in _ENTRIES:
            assert isinstance(entry, FormulaEntry)
            assert entry.family in COVERED_FAMILIES
            assert entry.source

    def test_spot_citations(self):
        assert entry_for("double_wheel", "chi_sum_min").source == "Proposition 2.1"
        assert entry_for("web", "b_chromatic").source == "Theorem 2.19"
        assert entry_for("closed_helm", "b_sum_min").note  # ambiguity is flagged

    def test_uncovered_pairs(self):
        assert not is_covered("sunlet", "b_chromatic")
        assert not is_covered("wheel", "chi_sum_min")
        assert not is_covered("helm", "chi")
        with pytest.raises(NoPublishedFormula):
            predict("sunlet", "b_chromatic", 5)
        # a usage error as well as a failed lookup
        assert issubclass(NoPublishedFormula, ValueError) and issubclass(NoPublishedFormula, LookupError)

    def test_table_order_stable(self):
        # report order: family order, then quantity order within a family
        order = [(COVERED_FAMILIES.index(e.family), QUANTITIES.index(e.quantity)) for e in _ENTRIES]
        assert order == sorted(order)
        assert _ENTRIES[0].family == "double_wheel"

    def test_below_family_minimum(self):
        with pytest.raises(ValueError):
            predict("helm", "b_sum_min", 2)


class TestMinMaxPairs:
    def test_published_pairs_against_duality(self):
        # A partition into k classes has min + max labelled sums equal to
        # (k+1)*|V|, so a published min/max pair must add up to that; only
        # the formulas are compared here, no sum is searched.
        violators = set()
        for family in COVERED_FAMILIES:
            for base, k_solver in (("chi_sum", chromatic_number), ("b_sum", b_chromatic_number)):
                if not (is_covered(family, f"{base}_min") and is_covered(family, f"{base}_max")):
                    continue
                for n in range(MIN_N, DESK_CAPS[family] + 1):
                    g = make(family, n)
                    k = k_solver(g).value
                    published = predict(family, f"{base}_min", n) + predict(family, f"{base}_max", n)
                    if published != (k + 1) * g.n:
                        violators.add((family, base, n))
        # closed_helm n=6: 32 + 47 != 6 * 13; web n=4: 14 + 14 != 3 * 12
        assert violators == {("closed_helm", "b_sum", 6), ("web", "chi_sum", 4)}
