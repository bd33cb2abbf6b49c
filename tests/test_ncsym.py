import copy
import gc
import pickle
import sys
import threading
from collections import Counter

import pytest

from nchopf import elements, ncsym

from nchopf.cyclotomic import CycRational
from nchopf.elements import (
    AlgebraElement,
    BasisIndex,
    TensorElement,
    antipode,
    coproduct,
    counit,
    product,
)
from nchopf.ncsym import (
    ColoredIndex,
    ch,
    collect_k,
    discrete_log_table,
    expand_k_in_colored_m,
    expand_monomials_truncated,
    k_element,
    m_element,
    m_to_p,
    p_element,
    p_to_m,
    primitive_root,
    via_colored_m,
)
from nchopf.setpartitions import (
    LabeledSetPartition,
    SetPartition,
    all_set_partitions,
    arc_encoding,
    concat_set_partitions,
    enumerate_labeled_partitions,
    underlying_set_partition,
)
from nchopf.superfunctions import kappa_element


def sp(text):
    return SetPartition.from_text(text)


def m_support(element):
    return {underlying_set_partition(idx.partition): c for idx, c in element.terms.items()}


class TestMonomialBasis:
    def test_product_of_singletons(self):
        result = product(m_element(2, sp("1")), m_element(2, sp("1")))
        assert m_support(result) == {
            sp("1|2"): CycRational.one(2),
            sp("12"): CycRational.one(2),
        }

    def test_unit(self):
        x = m_element(2, sp("13|2"))
        assert product(AlgebraElement.unit(2, "m"), x) == x

    def test_structure_constants_are_zero_or_one(self):
        one = CycRational.one(2)
        for a in all_set_partitions(3):
            for b in all_set_partitions(2):
                result = product(m_element(2, a), m_element(2, b))
                assert all(c == one for c in result.terms.values())

    def test_displayed_coproduct(self):
        t = coproduct(m_element(2, sp("14|2|3")))
        groups = Counter()
        for (l, r), c in t.terms.items():
            groups[
                (
                    underlying_set_partition(l.partition).to_text(),
                    underlying_set_partition(r.partition).to_text(),
                )
            ] += int(c.rational_value())
        assert groups == Counter(
            {
                ("14|2|3", "/"): 1,
                ("13|2", "1"): 2,
                ("12", "1|2"): 1,
                ("1|2", "12"): 1,
                ("1", "13|2"): 2,
                ("/", "14|2|3"): 1,
            }
        )

    def test_coproduct_of_unit(self):
        t = coproduct(AlgebraElement.unit(2, "m"))
        assert len(t.terms) == 1

    def test_cocommutative(self):
        for n in range(5):
            for partition in all_set_partitions(n):
                t = coproduct(m_element(2, partition))
                assert t.swap() == t

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_words_oracle_for_product(self, q):
        # expand both sides over a finite alphabet and compare word multisets,
        # for every pair of total grade <= 5: m's product is kappa's at q = 2
        # at every q, so every term has coefficient 1 and every arc label 1
        pairs = [
            (a, b)
            for total in range(6)
            for grade in range(total + 1)
            for a in all_set_partitions(grade)
            for b in all_set_partitions(total - grade)
        ]
        for a, b in pairs:
            variables = a.num_blocks() + b.num_blocks() + 1
            left_words = expand_monomials_truncated(a, variables)
            right_words = expand_monomials_truncated(b, variables)
            concatenated = Counter(u + v for u in left_words for v in right_words)
            expanded = Counter()
            for idx, coeff in product(m_element(q, a), m_element(q, b)).terms.items():
                assert coeff == CycRational.one(q)
                assert idx.partition.max_label() == 1
                for word in expand_monomials_truncated(
                    underlying_set_partition(idx.partition), variables
                ):
                    expanded[word] += 1
            assert concatenated == expanded


class TestPowerBasis:
    def test_product_concatenates(self):
        result = product(p_element(2, sp("1|2")), p_element(2, sp("1")))
        assert m_support(result) == {sp("1|2|3"): CycRational.one(2)}

    def test_product_is_set_partition_concatenation(self):
        # every pair of total grade <= 5, against the concatenation of the
        # set partitions themselves
        for total in range(6):
            for a in range(total + 1):
                for lam in all_set_partitions(a):
                    for mu in all_set_partitions(total - a):
                        merged = arc_encoding(concat_set_partitions(lam, mu))
                        expected = AlgebraElement(2, "p", {BasisIndex("p", total, merged): 1})
                        assert product(p_element(2, lam), p_element(2, mu)) == expected

    def test_expansion_by_coarsenings(self):
        expanded = p_to_m(p_element(2, sp("1|2")))
        assert m_support(expanded) == {
            sp("1|2"): CycRational.one(2),
            sp("12"): CycRational.one(2),
        }

    @pytest.mark.parametrize("n", range(6))
    def test_roundtrip(self, n):
        for partition in all_set_partitions(n):
            x = m_element(2, partition)
            assert p_to_m(m_to_p(x)) == x
            y = p_element(2, partition)
            assert m_to_p(p_to_m(y)) == y

    def test_coproduct_splits_blocks(self):
        t = coproduct(p_element(2, sp("12|3")))
        assert len(t.terms) == 4


class TestColoredExpansion:
    def test_primitive_roots(self):
        assert primitive_root(2) == 1
        assert primitive_root(3) == 2
        assert primitive_root(5) == 2
        assert primitive_root(7) == 3

    def test_dlog_identifies_labels_with_colors(self):
        table = discrete_log_table(3)
        assert table == {1: 0, 2: 1}

    def test_root_tables_are_computed_once_and_read_only(self):
        table = discrete_log_table(7)
        assert discrete_log_table(7) is table
        assert dict(table) == {1: 0, 3: 1, 2: 2, 6: 3, 4: 4, 5: 5}
        with pytest.raises(TypeError):
            table[1] = 5
        assert discrete_log_table(7)[1] == 0
        assert primitive_root.cache_info().currsize >= 1
        with pytest.raises(ValueError):
            primitive_root(9)
        with pytest.raises(ValueError):
            discrete_log_table(1)

    def test_q2_single_term(self):
        lam = LabeledSetPartition(3, [(1, 2, 1)])
        expansion = expand_k_in_colored_m(lam, 2)
        assert len(expansion.terms) == 1
        (idx,) = expansion.terms
        assert idx.partition.partition == underlying_set_partition(lam)
        assert idx.partition.colors == (0, 0, 0)

    def test_q3_unit_label_arc(self):
        lam = LabeledSetPartition(2, [(1, 2, 1)])
        expansion = expand_k_in_colored_m(lam, 3)
        colors = {idx.partition.colors for idx in expansion.terms}
        assert colors == {(0, 0), (1, 1)}

    def test_q3_nonunit_label_arc(self):
        lam = LabeledSetPartition(2, [(1, 2, 2)])
        expansion = expand_k_in_colored_m(lam, 3)
        colors = {idx.partition.colors for idx in expansion.terms}
        assert colors == {(0, 1), (1, 0)}

    def test_term_count_is_r_to_the_blocks(self):
        q = 3
        for n in range(5):
            for lam in enumerate_labeled_partitions(n, q):
                blocks = underlying_set_partition(lam).num_blocks()
                expansion = expand_k_in_colored_m(lam, q)
                assert len(expansion.terms) == (q - 1) ** blocks

    def test_collect_inverts_expand(self):
        q = 3
        for n in range(4):
            for lam in enumerate_labeled_partitions(n, q):
                collected = collect_k(expand_k_in_colored_m(lam, q), q)
                assert collected == k_element(q, lam)

    def test_colored_counit_and_unit_agree_across_color_groups(self):
        from nchopf.elements import counit
        from nchopf.ncsym import colored_element

        q = 3
        idx = ColoredIndex(SetPartition(2, [[1, 2]]), (0, 1), 2)
        x = colored_element(q, idx)
        t = coproduct(x)
        # the grade-0 factors produced by restriction must match the unit index
        unit = AlgebraElement.unit(q, "m_colored")
        (unit_idx,) = unit.terms
        assert any(l == unit_idx for (l, r) in t.terms)
        assert counit(product(unit, x)) == counit(x)

    def test_elements_need_the_colors_of_their_prime(self):
        from nchopf.ncsym import colored_element

        idx = ColoredIndex(SetPartition(2, [[1, 2]]), (0, 1), 4)
        with pytest.raises(ValueError):
            AlgebraElement(3, "m_colored", {BasisIndex("m_colored", 2, idx): 1})
        with pytest.raises(ValueError):
            colored_element(3, idx)
        assert AlgebraElement(5, "m_colored", {BasisIndex("m_colored", 2, idx): 1})
        assert AlgebraElement.unit(3, "m_colored")

    def test_collect_checks_the_prime(self):
        x = expand_k_in_colored_m(LabeledSetPartition(2, [(1, 2, 1)]), 3)
        with pytest.raises(ValueError):
            collect_k(x, 5)

    def test_collect_rejects_off_span(self):
        q = 3
        partition = SetPartition(2, [[1, 2]])
        stray = AlgebraElement(
            q, "m_colored", {BasisIndex("m_colored", 2, ColoredIndex(partition, (0, 0), 2)): 1}
        )
        lam, mu = LabeledSetPartition(2, [(1, 2, 2)]), LabeledSetPartition(1)
        k_span = TensorElement.tensor(expand_k_in_colored_m(lam, q), expand_k_in_colored_m(mu, q))
        assert collect_k(k_span, q) == TensorElement.tensor(k_element(q, lam), k_element(q, mu))
        for x in (stray, TensorElement.tensor(expand_k_in_colored_m(mu, q), stray)):
            with pytest.raises(ValueError):
                collect_k(x, q)


class TestLabeledBasis:
    def test_structure_constants_match_superclass_functions(self):
        q = 3
        for total in range(4):
            for a in range(total + 1):
                for mu in enumerate_labeled_partitions(a, q):
                    for nu in enumerate_labeled_partitions(total - a, q):
                        left = product(k_element(q, mu), k_element(q, nu))
                        right = product(kappa_element(q, mu), kappa_element(q, nu))
                        assert {
                            (i.grade, i.partition): c for i, c in left.terms.items()
                        } == {(i.grade, i.partition): c for i, c in right.terms.items()}

    def test_coproducts_match_superclass_functions(self):
        q = 3
        for n in range(4):
            for lam in enumerate_labeled_partitions(n, q):
                left = coproduct(k_element(q, lam))
                right = coproduct(kappa_element(q, lam))
                assert {
                    ((l.grade, l.partition), (r.grade, r.partition)): c
                    for (l, r), c in left.terms.items()
                } == {
                    ((l.grade, l.partition), (r.grade, r.partition)): c
                    for (l, r), c in right.terms.items()
                }


def _k_basis(q, top):
    return [k_element(q, lam) for g in range(top + 1) for lam in enumerate_labeled_partitions(g, q)]


def _grade(x):
    return next(iter(x.terms)).grade


def _assert_colored_route(basis, top):
    for x in basis:
        assert coproduct(x) == via_colored_m(coproduct, x)
        assert antipode(x) == via_colored_m(antipode, x)
    for x in basis:
        for y in basis:
            if _grade(x) + _grade(y) <= top:
                assert product(x, y) == via_colored_m(product, x, y)


class TestLabeledBasisReference:
    """k carries kappa's rules, and m kappa's rules at q = 2; the colored route
    (expand, operate on colored monomials, collect) is the reference they
    must match term for term."""

    @pytest.mark.parametrize("q, top", [(2, 4), (3, 4), (5, 3), (7, 2)])
    def test_structure_maps_equal_the_colored_route(self, q, top):
        _assert_colored_route(_k_basis(q, top), top)

    def test_m_structure_maps_equal_the_colored_route_at_q2(self):
        # m carries kappa's coproduct rule and its product at q = 2; the
        # colored route is the reference for both, and for the antipode
        basis = [m_element(2, s) for g in range(6) for s in all_set_partitions(g)]
        _assert_colored_route(basis, 5)

    def test_runtime_maps_never_expand(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a k structure map went through colored monomials")

        monkeypatch.setattr(ncsym, "expand_k_in_colored_m", refuse)
        monkeypatch.setattr(ncsym, "_collect_k", refuse)
        monkeypatch.setattr(elements, "_ANTIPODE_CACHE", {})  # so the recursion runs
        monkeypatch.setattr(elements, "_COPRODUCT_CACHE", {})  # so the rules run
        basis = _k_basis(3, 3)
        for x in basis:
            assert coproduct(x).basis == antipode(x).basis == "k_colored"
            for y in basis:
                if _grade(x) + _grade(y) <= 3:
                    assert product(x, y).basis == "k_colored"


class TestCharacteristicMap:
    def test_unit_and_chain(self):
        assert ch(AlgebraElement.unit(2, "kappa")) == AlgebraElement.unit(2, "m")
        chain = LabeledSetPartition(3, [(1, 2, 1), (2, 3, 1)])
        assert ch(kappa_element(2, chain)) == m_element(2, sp("123"))

    def test_bijective_on_bases(self):
        for n in range(5):
            indices = enumerate_labeled_partitions(n, 2)
            images = {next(iter(ch(kappa_element(2, lam)).terms)) for lam in indices}
            assert len(images) == len(indices)

    @pytest.mark.parametrize("q", [2, 3])
    def test_morphism_on_small_pairs(self, q):
        for a in enumerate_labeled_partitions(2, q):
            for b in enumerate_labeled_partitions(1, q):
                x, y = kappa_element(q, a), kappa_element(q, b)
                assert ch(product(x, y)) == product(ch(x), ch(y))

    @pytest.mark.parametrize("q", [2, 3])
    def test_commutes_with_antipode(self, q):
        for lam in enumerate_labeled_partitions(3, q):
            x = kappa_element(q, lam)
            assert ch(antipode(x)) == antipode(ch(x))

    def test_preserves_counit(self):
        x = AlgebraElement.unit(2, "kappa").scale(5)
        assert counit(ch(x)) == counit(x)


class TestDimensions:
    def test_monomial_dimension_is_bell(self):
        bell = [1, 1, 2, 5, 15, 52]
        for n in range(6):
            assert len(all_set_partitions(n)) == bell[n]

    def test_labeled_dimension_matches_index_set(self):
        for q in (2, 3):
            for n in range(5):
                indices = enumerate_labeled_partitions(n, q)
                images = {
                    next(iter(ch(kappa_element(q, lam)).terms)) for lam in indices
                }
                assert len(images) == len(indices)


class TestColoredIndexPool:
    def test_equal_indices_built_by_different_routes_are_one_object(self):
        first = ColoredIndex(SetPartition(3, [[1, 3], [2]]), (0, 1, 0), 2)
        assert ColoredIndex(SetPartition(3, [[2], [3, 1]]), [2, -1, 4], 2) is first
        assert ColoredIndex.from_json(first.to_json()) is first
        lam = LabeledSetPartition(3, [(1, 3, 1)])
        assert first in {idx.partition for idx in expand_k_in_colored_m(lam, 3).terms}
        # the empty index is shared by every color group
        empty = ColoredIndex(SetPartition(0, []), (), 1)
        assert ColoredIndex(SetPartition(0, []), (), 4) is empty
        assert ColoredIndex(SetPartition(0, []), (), 4).r == 1
        assert expand_k_in_colored_m(LabeledSetPartition(0), 5).terms.keys() == {
            BasisIndex("m_colored", 0, empty)
        }

    def test_pool_entry_is_freed_with_its_last_reference(self):
        partition = SetPartition(7, [[1, 7], [2, 3, 4, 5, 6]])
        key = (partition, (5, 1, 2, 3, 4, 5, 6), 10)
        idx = ColoredIndex(partition, key[1], 10)
        assert ncsym._COLORED.get(key) is idx
        del idx
        gc.collect()
        assert ncsym._COLORED.get(key) is None

    def test_validation_still_applies(self):
        with pytest.raises(ValueError):
            ColoredIndex(SetPartition(2, [[1, 2]]), (0,), 2)
        with pytest.raises(ValueError):
            ColoredIndex(SetPartition(2, [[1, 2]]), (0, 1), 0)
        with pytest.raises(AttributeError):
            ColoredIndex(SetPartition(1, [[1]]), (0,), 2).r = 3

    def test_pickle_and_copy_return_the_pooled_instance(self):
        idx = ColoredIndex(SetPartition(3, [[1, 2], [3]]), (1, 0, 1), 2)
        assert pickle.loads(pickle.dumps(idx)) is idx
        assert copy.deepcopy(idx) is idx

    def test_threads_building_the_same_indices_agree(self):
        barrier = threading.Barrier(4)
        results, errors = [None] * 4, []

        def build(slot):
            try:
                barrier.wait()
                results[slot] = [
                    idx.partition
                    for lam in enumerate_labeled_partitions(4, 3)
                    for idx in expand_k_in_colored_m(lam, 3).terms
                ]
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
        # a lost race leaves an equal twin outside the pool, never a wrong index
        for built in results:
            for idx, first in zip(built, results[0]):
                assert hash(idx) == hash(first) and idx.colors == first.colors
