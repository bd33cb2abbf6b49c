import copy
import gc
import itertools
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nchopf import setpartitions
from nchopf.limits import PRIME_BOUND, BoundExceededError
from nchopf.setpartitions import (
    Arc,
    LabeledSetPartition,
    SetComposition,
    SetPartition,
    all_set_partitions,
    arc_encoding,
    coarsenings,
    common_refinement,
    concat,
    concat_set_partitions,
    count_labeled_partitions,
    crossing_statistic,
    enumerate_labeled_partitions,
    partition_mobius,
    refinements,
    set_partitions_of,
    straighten,
    underlying_set_partition,
    unstraighten,
)


def bell(n):
    # independent computation via the Bell triangle
    row = [1]
    for _ in range(n):
        new = [row[-1]]
        for value in row:
            new.append(new[-1] + value)
        row = new
    return row[0]


def lsp(text):
    return LabeledSetPartition.from_text(text)


def sp(text):
    return SetPartition.from_text(text)


@st.composite
def labeled_partitions(draw, max_n=6, q=3):
    n = draw(st.integers(min_value=0, max_value=max_n))
    positions = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    draw_order = draw(st.permutations(positions)) if positions else []
    arcs = []
    lefts, rights = set(), set()
    for (i, j) in draw_order:
        if i in lefts or j in rights:
            continue
        if draw(st.booleans()):
            arcs.append((i, j, draw(st.integers(min_value=1, max_value=q - 1))))
            lefts.add(i)
            rights.add(j)
    return LabeledSetPartition(n, arcs)


class TestTypes:
    def test_arc_validation(self):
        with pytest.raises(ValueError):
            Arc(3, 2, 1)
        with pytest.raises(ValueError):
            Arc(1, 2, 0)

    def test_distinct_endpoints_enforced(self):
        with pytest.raises(ValueError):
            LabeledSetPartition(3, [(1, 2, 1), (1, 3, 1)])
        with pytest.raises(ValueError):
            LabeledSetPartition(3, [(1, 3, 1), (2, 3, 1)])

    def test_equality_and_hash_from_sorted_arcs(self):
        a = LabeledSetPartition(4, [(2, 3, 1), (1, 4, 1)])
        b = LabeledSetPartition(4, [(1, 4, 1), (2, 3, 1)])
        assert a == b
        assert hash(a) == hash(b)

    def test_text_roundtrip(self):
        text = "5; 1-1-2, 3-2-5"
        assert lsp(text).to_text() == text
        assert LabeledSetPartition.from_text("3;").arcs == ()

    def test_json_roundtrip(self):
        lam = lsp("5; 1-1-2, 3-2-5")
        assert LabeledSetPartition.from_json(lam.to_json()) == lam
        assert lam.to_json() == {"n": 5, "arcs": [[1, 2, 1], [3, 5, 2]]}

    def test_set_partition_validation(self):
        with pytest.raises(ValueError):
            SetPartition(3, [[1, 2]])
        with pytest.raises(ValueError):
            SetPartition(3, [[1, 2], [2, 3]])

    def test_set_partition_text(self):
        sp = SetPartition.from_text("135|24")
        assert sp.blocks == ((1, 3, 5), (2, 4))
        assert sp.to_text() == "135|24"

    def test_set_composition_order_matters(self):
        a = SetComposition.from_text("14|3|256")
        b = SetComposition.from_text("3|14|256")
        assert a != b
        assert a.parts == ((1, 4), (3,), (2, 5, 6))


class TestPrimeTest:
    # psi_k: the least strong pseudoprime to all of the first k prime bases
    # (k = 1, 2, 3, 4, 5, 6, 7, 9, 12); psi_13 is limits.PRIME_BOUND
    PSEUDOPRIMES = {
        2047: 1,
        1373653: 2,
        25326001: 3,
        3215031751: 4,
        2152302898747: 5,
        3474749660383: 6,
        341550071728321: 7,
        3825123056546413051: 9,
        318665857834031151167461: 12,
    }

    def test_miller_rabin_agrees_with_trial_division_below_ten_to_the_five(self):
        for q in range(-2, 10**5):
            assert setpartitions._miller_rabin(q) == setpartitions._trial_division(q), q

    def test_strong_pseudoprimes_are_found_composite(self):
        bases = setpartitions._WITNESSES
        for q, k in self.PSEUDOPRIMES.items():
            # the first k bases are fooled, so these are real test cases
            assert all(setpartitions._strong_probable_prime(q, a) for a in bases[:k])
            assert not setpartitions._miller_rabin(q)
            assert not setpartitions.is_prime(q)
        assert all(setpartitions._strong_probable_prime(PRIME_BOUND, a) for a in bases)

    def test_large_primes_and_composites(self):
        for q in (131071, 1000003, 1000000007, 2**61 - 1, 10**18 + 3, 10**24 + 7):
            assert setpartitions.is_prime(q)
        for q in (131071 * 131, 1000000007 * 1000000009, 2**61 + 1, 10**18 + 1):
            assert not setpartitions.is_prime(q)

    def test_a_q_over_the_prime_bound_is_refused_unless_a_base_divides_it(self):
        bases = setpartitions._WITNESSES
        coprime = next(q for q in itertools.count(PRIME_BOUND + 1) if all(q % a for a in bases))
        for q in (PRIME_BOUND, coprime, 2**89 - 1):
            with pytest.raises(BoundExceededError):
                setpartitions.check_prime(q)
        for q in (PRIME_BOUND + 1, 41 * PRIME_BOUND, 10**30):
            with pytest.raises(ValueError):
                setpartitions.check_prime(q)


class TestEnumeration:
    def test_n3_q2_has_five_elements(self):
        assert len(enumerate_labeled_partitions(3, 2)) == 5

    def test_empty_ground_set(self):
        assert enumerate_labeled_partitions(0, 2) == [LabeledSetPartition(0)]

    def test_n3_q3_count_matches_pattern_formula(self):
        # one pattern with no arcs, three single-arc patterns, one double
        q = 3
        assert len(enumerate_labeled_partitions(3, q)) == 1 + 3 * (q - 1) + (q - 1) ** 2

    @pytest.mark.parametrize("n", range(6))
    def test_q2_counts_are_bell_numbers(self, n):
        assert len(enumerate_labeled_partitions(n, 2)) == bell(n)

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            enumerate_labeled_partitions(2, 4)
        with pytest.raises(ValueError):
            enumerate_labeled_partitions(2, 1)

    def test_deterministic_graded_order(self):
        out = enumerate_labeled_partitions(3, 2)
        assert out[0] == LabeledSetPartition(3)
        counts = [len(lam.arcs) for lam in out]
        assert counts == sorted(counts)

    def test_no_duplicates(self):
        out = enumerate_labeled_partitions(4, 3)
        assert len(out) == len(set(out))


class TestUnderlying:
    def test_components_become_blocks(self):
        lam = LabeledSetPartition(4, [(1, 3, 1), (3, 4, 1)])
        assert underlying_set_partition(lam) == SetPartition(4, [[1, 3, 4], [2]])

    def test_empty_partition_gives_singletons(self):
        assert underlying_set_partition(LabeledSetPartition(3)) == SetPartition(
            3, [[1], [2], [3]]
        )

    def test_chain_gives_one_block(self):
        lam = LabeledSetPartition(3, [(1, 2, 1), (2, 3, 1)])
        assert underlying_set_partition(lam) == SetPartition(3, [[1, 2, 3]])

    @settings(max_examples=200)
    @given(labeled_partitions(max_n=6, q=2))
    def test_arc_encoding_inverts_underlying(self, lam):
        assert arc_encoding(underlying_set_partition(lam)) == lam


def backtracking_enumeration(n, q):
    """S_n(q) by a search over arc positions: every set of positions
    i < j with distinct lefts and distinct rights, each with every label
    vector, in the canonical order."""
    positions = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    patterns = []

    def extend(start, chosen, lefts, rights):
        patterns.append(tuple(chosen))
        for idx in range(start, len(positions)):
            i, j = positions[idx]
            if i in lefts or j in rights:
                continue
            chosen.append((i, j))
            lefts.add(i)
            rights.add(j)
            extend(idx + 1, chosen, lefts, rights)
            chosen.pop()
            lefts.discard(i)
            rights.discard(j)

    extend(0, [], set(), set())
    result = [
        LabeledSetPartition(n, [(i, j, a) for (i, j), a in zip(pattern, labels)])
        for pattern in patterns
        for labels in itertools.product(range(1, q), repeat=len(pattern))
    ]
    result.sort(key=LabeledSetPartition.sort_key)
    return result


def union_find_blocks(lam):
    """The connected components of lam's arc diagram, by union-find."""
    parent = {i: i for i in range(1, lam.n + 1)}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a in lam.arcs:
        parent[find(a.left)] = find(a.right)
    components = {}
    for i in range(1, lam.n + 1):
        components.setdefault(find(i), []).append(i)
    return SetPartition(lam.n, components.values())


# every (n, q) up to (6, 2), (5, 3), (4, 5) and (3, 7)
REFERENCE_SIZES = [(n, q) for q, top in ((2, 6), (3, 5), (5, 4), (7, 3)) for n in range(top + 1)]


class TestChainConstruction:
    """The chain construction of S_n(q) and of the blocks, against a search
    over arc positions and a union-find over the arc diagram."""

    @pytest.mark.parametrize("n,q", REFERENCE_SIZES)
    def test_enumeration_equals_the_backtracking_search(self, n, q):
        out, reference = enumerate_labeled_partitions(n, q), backtracking_enumeration(n, q)
        assert len(out) == len(reference) == count_labeled_partitions(n, q)
        assert all(a is b for a, b in zip(out, reference))

    @pytest.mark.parametrize("n,q", REFERENCE_SIZES)
    def test_blocks_equal_union_find_components(self, n, q):
        for lam in enumerate_labeled_partitions(n, q):
            assert underlying_set_partition(lam) is union_find_blocks(lam)

    @settings(max_examples=200)
    @given(labeled_partitions(max_n=6, q=5))
    def test_blocks_equal_union_find_components_on_random_partitions(self, lam):
        assert underlying_set_partition(lam) is union_find_blocks(lam)


class TestConcat:
    def test_shifts_second_argument(self):
        lam = LabeledSetPartition(2, [(1, 2, 1)])
        mu = LabeledSetPartition(3, [(1, 3, 2)])
        assert concat(lam, mu) == LabeledSetPartition(5, [(1, 2, 1), (3, 5, 2)])

    def test_empty_is_unit(self):
        lam = lsp("3; 1-1-3")
        assert concat(LabeledSetPartition(0), lam) == lam
        assert concat(lam, LabeledSetPartition(0)) == lam

    def test_set_partition_shadow(self):
        a = SetPartition.from_text("1|2")
        b = SetPartition.from_text("123")
        assert concat_set_partitions(a, b) == SetPartition.from_text("1|2|345")

    @settings(max_examples=100)
    @given(labeled_partitions(max_n=4), labeled_partitions(max_n=4))
    def test_underlying_commutes_with_concat(self, lam, mu):
        assert underlying_set_partition(concat(lam, mu)) == concat_set_partitions(
            underlying_set_partition(lam), underlying_set_partition(mu)
        )


class TestStraightening:
    def test_displayed_example(self):
        lam = LabeledSetPartition(6, [(1, 4, 1), (2, 6, 2)])
        J = SetComposition.from_text("14|3|256")
        parts = straighten(lam, J)
        assert parts == [
            LabeledSetPartition(2, [(1, 2, 1)]),
            LabeledSetPartition(1),
            LabeledSetPartition(3, [(1, 3, 2)]),
        ]

    def test_empty_partition(self):
        parts = straighten(LabeledSetPartition(4), SetComposition.from_text("13|24"))
        assert parts == [LabeledSetPartition(2), LabeledSetPartition(2)]

    def test_initial_segment_split(self):
        lam = LabeledSetPartition(3, [(2, 3, 1)])
        parts = straighten(lam, SetComposition.from_text("1|23"))
        assert parts == [LabeledSetPartition(1), LabeledSetPartition(2, [(1, 2, 1)])]

    def test_straddling_arc_rejected(self):
        lam = LabeledSetPartition(3, [(1, 3, 1)])
        with pytest.raises(ValueError):
            straighten(lam, SetComposition.from_text("12|3"))

    def test_unstraighten_examples(self):
        mu = LabeledSetPartition(2, [(1, 2, 1)])
        assert unstraighten(mu, {2, 5}, 5) == LabeledSetPartition(5, [(2, 5, 1)])
        assert unstraighten(LabeledSetPartition(0), (), 4) == LabeledSetPartition(4)

    def test_unstraighten_size_mismatch(self):
        with pytest.raises(ValueError):
            unstraighten(LabeledSetPartition(2, [(1, 2, 1)]), {1}, 4)

    @pytest.mark.parametrize("mu", [LabeledSetPartition(2), LabeledSetPartition(2, [(1, 2, 1)])])
    def test_unstraighten_refuses_a_repeated_position(self, mu):
        # without the check the first gave LabeledSetPartition('3;') and the
        # second blamed the arc (2, 2) it built
        with pytest.raises(ValueError, match=r"subset \[2, 2\] repeats position 2"):
            unstraighten(mu, [2, 2], 3)

    @settings(max_examples=150, deadline=None)
    @given(labeled_partitions(max_n=4), st.data())
    def test_unstraighten_then_straighten_roundtrip(self, mu, data):
        n = data.draw(st.integers(min_value=max(mu.n, 1), max_value=mu.n + 3))
        subset = tuple(
            sorted(data.draw(st.permutations(list(range(1, n + 1))))[: mu.n])
        )
        embedded = unstraighten(mu, subset, n)
        complement = [i for i in range(1, n + 1) if i not in subset]
        parts = [p for p in (list(subset), complement) if p]
        pieces = straighten(embedded, SetComposition(parts))
        if subset:
            assert pieces[0] == mu
        else:
            assert pieces == [LabeledSetPartition(n)]


class TestIntervalRecovery:
    @settings(max_examples=100, deadline=None)
    @given(labeled_partitions(max_n=5, q=3), st.data())
    def test_straighten_then_concat_recovers_interval_splits(self, lam, data):
        # when J's parts are consecutive intervals in order, splitting and
        # re-concatenating is the identity on partitions without straddlers
        if lam.n == 0:
            return
        cut = data.draw(st.integers(min_value=0, max_value=lam.n))
        if any(a.left <= cut < a.right for a in lam.arcs):
            return
        parts = [p for p in (list(range(1, cut + 1)), list(range(cut + 1, lam.n + 1))) if p]
        pieces = straighten(lam, SetComposition(parts))
        rebuilt = LabeledSetPartition(0)
        for piece in pieces:
            rebuilt = concat(rebuilt, piece)
        assert rebuilt == lam


class TestRefinementLattice:
    def test_common_refinement_example(self):
        a = SetPartition.from_text("135|24")
        b = SetPartition.from_text("12|345")
        assert common_refinement(a, b) == SetPartition.from_text("1|35|2|4")

    @pytest.mark.parametrize("n", range(9))
    def test_all_set_partitions_are_the_validated_ones(self, n):
        # the validating constructor is the reference for the unchecked build
        reference = [SetPartition(n, blocks) for blocks in set_partitions_of(range(1, n + 1))]
        reference.sort(key=lambda sp: (sp.num_blocks(), sp.blocks))
        built = all_set_partitions(n)
        assert len(built) == len(reference) == bell(n)
        assert all(a is b for a, b in zip(built, reference))

    @pytest.mark.parametrize("n", range(7))
    def test_set_partitions_of_orders_blocks_by_their_minima(self, n):
        for blocks in set_partitions_of(range(1, n + 1)):
            assert all(block == sorted(block) for block in blocks)
            assert [block[0] for block in blocks] == sorted(block[0] for block in blocks)

    def test_idempotent(self):
        for sp in all_set_partitions(4):
            assert common_refinement(sp, sp) == sp

    def test_finest_absorbs(self):
        finest = SetPartition(4, [[1], [2], [3], [4]])
        for sp in all_set_partitions(4):
            assert common_refinement(sp, finest) == finest

    def test_commutative_associative(self):
        partitions = all_set_partitions(4)
        for a, b in itertools.combinations(partitions, 2):
            assert common_refinement(a, b) == common_refinement(b, a)
        for a, b, c in itertools.islice(itertools.combinations(partitions, 3), 200):
            assert common_refinement(a, common_refinement(b, c)) == common_refinement(
                common_refinement(a, b), c
            )

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            common_refinement(SetPartition(2, [[1], [2]]), SetPartition(3, [[1, 2, 3]]))

    def test_coarsenings_examples(self):
        two = coarsenings(SetPartition.from_text("1|2"))
        assert set(two) == {SetPartition.from_text("1|2"), SetPartition.from_text("12")}
        assert set(coarsenings(SetPartition.from_text("12|3"))) == {
            SetPartition.from_text("12|3"),
            SetPartition.from_text("123"),
        }
        assert len(coarsenings(SetPartition.from_text("1|2|3"))) == bell(3)

    @pytest.mark.parametrize("n", range(6))
    def test_coarsenings_of_finest_count_is_bell(self, n):
        finest = SetPartition(n, [[i] for i in range(1, n + 1)])
        assert len(coarsenings(finest)) == bell(n)

    def test_refinements_inverse_of_coarsenings(self):
        for sp in all_set_partitions(4):
            for other in all_set_partitions(4):
                assert (sp in refinements(other)) == (other in coarsenings(sp))

    @pytest.mark.parametrize("n", range(6))
    def test_mobius_sums_to_delta_over_every_interval(self, n):
        # the defining identity: sum of mu(sigma, nu) over sigma <= nu <= pi
        for sigma in all_set_partitions(n):
            above = set(coarsenings(sigma))
            for pi in above:
                interval = [nu for nu in refinements(pi) if nu in above]
                total = sum(partition_mobius(sigma, nu) for nu in interval)
                assert total == (1 if sigma == pi else 0), (sigma, pi)

    def test_mobius_values(self):
        finest = SetPartition.from_text("1|2|3|4")
        assert partition_mobius(finest, SetPartition.from_text("1234")) == -6
        assert partition_mobius(finest, SetPartition.from_text("12|34")) == 1
        assert partition_mobius(SetPartition.from_text("12|3"), SetPartition.from_text("123")) == -1
        with pytest.raises(ValueError):
            partition_mobius(SetPartition.from_text("12|3"), SetPartition.from_text("13|2"))


class TestCrossings:
    def test_examples(self):
        assert crossing_statistic(LabeledSetPartition(4, [(1, 3, 1), (2, 4, 1)])) == 1
        assert crossing_statistic(LabeledSetPartition(3)) == 0
        assert crossing_statistic(LabeledSetPartition(3, [(1, 3, 1)])) == 0

    def test_nesting_is_not_a_crossing(self):
        assert crossing_statistic(LabeledSetPartition(4, [(1, 4, 1), (2, 3, 1)])) == 0

    def test_three_way(self):
        lam = LabeledSetPartition(6, [(1, 4, 1), (2, 5, 1), (3, 6, 1)])
        assert crossing_statistic(lam) == 3


class TestCounting:
    @pytest.mark.parametrize("n, q", [(n, q) for q in (2, 3, 5) for n in range(7 if q < 5 else 6)])
    def test_count_matches_enumeration(self, n, q):
        assert count_labeled_partitions(n, q) == len(enumerate_labeled_partitions(n, q))

    def test_q2_counts_are_bell_numbers(self):
        assert [count_labeled_partitions(n, 2) for n in range(10)] == [bell(n) for n in range(10)]

    @pytest.mark.parametrize("n, q", [(-1, 3), (-2, 2), (-1, 5)])
    def test_count_refuses_a_negative_n(self, n, q):
        # the Stirling row of S(0, 0) = 1 summed to (q - 1)^n: 0.5 at (-1, 3)
        with pytest.raises(ValueError, match=f"n must be nonnegative, got {n}"):
            count_labeled_partitions(n, q)


class TestHashConsing:
    def test_constructor_and_enumeration_share_one_object(self):
        built = LabeledSetPartition(3, [(2, 3, 1), (1, 2, 1)])
        assert built is LabeledSetPartition.from_text("3; 1-1-2, 2-1-3")
        enumerated = {lam: lam for lam in enumerate_labeled_partitions(3, 2)}
        assert enumerated[built] is built
        assert concat(lsp("1;"), lsp("2; 1-1-2")) is lsp("3; 2-1-3")

    def test_equality_and_hash_stay_value_based(self):
        lam = lsp("4; 1-2-3")
        assert lam == LabeledSetPartition(4, [Arc(1, 3, 2)])
        assert hash(lam) == hash((4, (Arc(1, 3, 2),)))
        assert lam != lsp("4; 1-1-3")

    def test_pool_entry_is_freed_with_its_last_reference(self):
        lam = LabeledSetPartition(9, [(1, 9, 4), (2, 8, 3)])
        key = (9, lam.arcs)
        assert setpartitions._PARTITIONS.get(key) is lam
        del lam
        gc.collect()
        assert setpartitions._PARTITIONS.get(key) is None

    def test_validation_still_applies(self):
        with pytest.raises(ValueError):
            LabeledSetPartition(2, [(1, 2, 1), (1, 2, 2)])
        with pytest.raises(ValueError):
            LabeledSetPartition(2, [(1, 3, 1)])

    def test_derived_partitions_skip_the_constructor_but_join_the_pool(self):
        lam = lsp("5; 1-2-3, 2-1-4")
        assert lam.shift(2) is lsp("7; 3-2-5, 4-1-6")
        left, right = straighten(lam, SetComposition.from_text("13|245"))
        assert left is lsp("2; 1-2-2") and right is lsp("3; 1-1-2")
        assert arc_encoding(sp("14|235")) is lsp("5; 1-1-4, 2-1-3, 3-1-5")
        enumerated = enumerate_labeled_partitions(4, 3)
        assert all(lam is LabeledSetPartition(lam.n, lam.arcs) for lam in enumerated)

    def test_largest_label_and_underlying_partition_are_kept(self):
        lam = LabeledSetPartition(6, [(1, 4, 3), (4, 6, 2), (2, 5, 4)])
        assert lam.max_label() == 4 and LabeledSetPartition(3).max_label() == 1
        blocks = underlying_set_partition(lam)
        assert blocks == sp("146|25|3")
        assert underlying_set_partition(lam) is blocks

    def test_arcs_and_partitions_pickle_and_copy_to_the_pooled_instance(self):
        lam = lsp("4; 1-2-3, 2-1-4")
        arc = lam.arcs[0]
        for clone in (copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
            assert clone(lam) is lam
            assert clone(arc) == arc and type(clone(arc)) is Arc


class TestSetPartitionPool:
    def test_equal_partitions_built_by_different_routes_are_one_object(self):
        first = SetPartition(5, [[4, 1], [5, 3, 2]])
        assert sp("14|235") is first
        assert sp("235|14") is first
        assert underlying_set_partition(lsp("5; 1-1-4, 2-1-3, 3-2-5")) is first
        assert concat_set_partitions(sp("1"), sp("134|2")) is sp("1|245|3")
        assert first in coarsenings(sp("1|4|235")) and first in refinements(sp("12345"))
        assert hash(first) == hash((5, ((1, 4), (2, 3, 5))))

    def test_pool_entry_is_freed_with_its_last_reference(self):
        blocks = ((1, 9), (2, 3, 8), (4, 5, 6, 7))
        first = SetPartition(9, blocks)
        assert setpartitions._SET_PARTITIONS.get((9, blocks)) is first
        del first
        gc.collect()
        assert setpartitions._SET_PARTITIONS.get((9, blocks)) is None

    def test_validation_still_applies(self):
        for n, blocks in ((3, [[1, 2]]), (2, [[1, 2], [2]]), (1, [[1], []]), (2, [[0, 1, 2]])):
            with pytest.raises(ValueError):
                SetPartition(n, blocks)
        with pytest.raises(AttributeError):
            sp("12").n = 3

    def test_pickle_and_copy_return_the_pooled_instance(self):
        first = sp("13|2")
        assert pickle.loads(pickle.dumps(first)) is first
        assert copy.deepcopy(first) is first

    def test_threads_building_the_same_partitions_agree(self):
        barrier = threading.Barrier(4)
        results, errors = [None] * 4, []

        def build(slot):
            try:
                barrier.wait()
                built = []
                for lam in enumerate_labeled_partitions(5, 2):
                    blocks = underlying_set_partition(lam)
                    built.append((blocks, SetPartition(blocks.n, reversed(blocks.blocks))))
                results[slot] = built
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=build, args=(slot,)) for slot in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert all(built == results[0] for built in results)
        # a lost race leaves an equal twin outside the pool, never a wrong partition
        assert all(hash(a) == hash(b) for built in results for a, b in built)
