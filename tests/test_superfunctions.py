import itertools
from fractions import Fraction

import pytest

from nchopf.cyclotomic import CycRational, invert_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from nchopf.elements import (
    AlgebraElement,
    BasisIndex,
    TensorElement,
    antipode,
    coproduct,
    counit,
    product,
)
from nchopf.limits import BoundExceededError
from nchopf.setpartitions import (
    LabeledSetPartition,
    concat,
    crossing_statistic,
    enumerate_labeled_partitions,
)
from nchopf.superfunctions import (
    SupercharTable,
    chi_element,
    chi_to_kappa,
    filtration_membership,
    group_order,
    inner_product,
    interval_chain,
    is_linear_index,
    kappa_element,
    kappa_to_chi,
    supercharacter_degree,
    supercharacter_table,
    supercharacter_value,
)


def lsp(text):
    return LabeledSetPartition.from_text(text)


def kappa(q, text):
    return kappa_element(q, lsp(text))


class TestKappaProduct:
    def test_displayed_two_times_three(self):
        # empty 2x2 block times the chain on [3]: one free crossing slot
        result = product(kappa_element(3, LabeledSetPartition(2)), kappa(3, "3; 1-1-2, 2-2-3"))
        expected_indices = {lsp("5; 3-1-4, 4-2-5")}
        for c in (1, 2):
            expected_indices.add(lsp(f"5; 1-{c}-3, 3-1-4, 4-2-5"))
            expected_indices.add(lsp(f"5; 2-{c}-3, 3-1-4, 4-2-5"))
        assert {idx.partition for idx in result.terms} == expected_indices
        assert all(c == 1 for c in result.terms.values())

    def test_unit(self):
        lam = kappa(2, "3; 1-1-3")
        unit = AlgebraElement.unit(2, "kappa")
        assert product(unit, lam) == lam
        assert product(lam, unit) == lam

    def test_q2_single_arcs(self):
        result = product(kappa(2, "2; 1-1-2"), kappa(2, "2; 1-1-2"))
        assert {idx.partition for idx in result.terms} == {
            lsp("4; 1-1-2, 3-1-4"),
            lsp("4; 1-1-2, 2-1-3, 3-1-4"),
        }

    def test_term_count_formula(self):
        # free lefts {2,3} and free rights {4,6} give 1 + 4(q-1) + 2(q-1)^2 terms
        q = 3
        result = product(kappa(q, "3; 1-1-3"), kappa(q, "4; 1-1-2, 2-2-4"))
        assert len(result.terms) == 1 + 4 * (q - 1) + 2 * (q - 1) ** 2

    def test_displayed_three_times_four(self):
        # a long arc against a two-arc chain: every crossing set uses lefts
        # from {2, 3} and rights from {4, 6}
        q = 3
        result = product(kappa(q, "3; 1-1-3"), kappa(q, "4; 1-1-2, 2-2-4"))
        expected = {lsp("7; 1-1-3, 4-1-5, 5-2-7")}
        for d in (1, 2):
            for left, right in ((3, 4), (2, 4), (3, 6), (2, 6)):
                expected.add(lsp(f"7; 1-1-3, {left}-{d}-{right}, 4-1-5, 5-2-7"))
            for e in (1, 2):
                expected.add(lsp(f"7; 1-1-3, 2-{d}-6, 3-{e}-4, 4-1-5, 5-2-7"))
                expected.add(lsp(f"7; 1-1-3, 2-{d}-4, 3-{e}-6, 4-1-5, 5-2-7"))
        assert {idx.partition for idx in result.terms} == expected

    def test_works_at_q5(self):
        q = 5
        result = product(kappa(q, "2; 1-3-2"), kappa(q, "1;"))
        # crossing arcs 2 -> 3 with any of the four labels, or none
        assert len(result.terms) == 1 + (q - 1)
        table = supercharacter_table(2, 5)
        assert sum(table.class_sizes) == 5


class TestKappaCoproduct:
    def test_displayed_four_term_example(self):
        lam = lsp("4; 1-2-4, 2-1-3")
        t = coproduct(kappa_element(3, lam))
        one = CycRational.one(3)
        expected = {
            (BasisIndex("kappa", 4, lam), BasisIndex("kappa", 0, LabeledSetPartition(0))): one,
            (BasisIndex("kappa", 0, LabeledSetPartition(0)), BasisIndex("kappa", 4, lam)): one,
            (BasisIndex("kappa", 2, lsp("2; 1-1-2")), BasisIndex("kappa", 2, lsp("2; 1-2-2"))): one,
            (BasisIndex("kappa", 2, lsp("2; 1-2-2")), BasisIndex("kappa", 2, lsp("2; 1-1-2"))): one,
        }
        assert t.terms == expected

    def test_unit_coproduct(self):
        unit = AlgebraElement.unit(2, "kappa")
        assert coproduct(unit) == TensorElement.tensor(unit, unit)

    def test_single_arc_is_primitive(self):
        lam = lsp("2; 1-1-2")
        t = coproduct(kappa_element(2, lam))
        empty = BasisIndex("kappa", 0, LabeledSetPartition(0))
        arc = BasisIndex("kappa", 2, lam)
        assert set(t.terms) == {(arc, empty), (empty, arc)}

    def test_free_points_split_both_ways(self):
        t = coproduct(kappa_element(2, LabeledSetPartition(2)))
        # subsets of two free points: 4 splits, aggregated by size
        coeffs = {
            (l.grade, r.grade): int(c.rational_value()) for (l, r), c in t.terms.items()
        }
        assert coeffs == {(0, 2): 1, (1, 1): 2, (2, 0): 1}

    def test_cocommutative(self):
        for lam in enumerate_labeled_partitions(4, 2):
            t = coproduct(kappa_element(2, lam))
            assert t.swap() == t


class TestCounitAntipode:
    def test_counit_values(self):
        assert counit(AlgebraElement.unit(2, "kappa")) == 1
        assert counit(kappa(2, "2; 1-1-2")) == 0
        x = AlgebraElement.unit(2, "kappa").scale(3) + kappa(2, "2; 1-1-2").scale(2)
        assert counit(x) == 3

    def test_antipode_unit(self):
        unit = AlgebraElement.unit(2, "kappa")
        assert antipode(unit) == unit

    def test_antipode_primitive(self):
        x = kappa(2, "2; 1-1-2")
        assert antipode(x) == -x

    def test_antipode_identity_on_chain(self):
        x = kappa(2, "3; 1-1-2, 2-1-3")
        t = coproduct(x)
        acc = AlgebraElement.zero(2, "kappa")
        for (l, r), c in t.terms.items():
            acc = acc + product(
                antipode(AlgebraElement(2, "kappa", {l: 1})),
                AlgebraElement(2, "kappa", {r: 1}),
            ).scale(c)
        assert acc == AlgebraElement.unit(2, "kappa").scale(counit(x))


class TestSupercharacterValues:
    def test_degree_at_identity(self):
        assert supercharacter_value(lsp("3; 1-1-3"), LabeledSetPartition(3), 2) == 2
        for q in (2, 3):
            for lam in enumerate_labeled_partitions(4, q):
                value = supercharacter_value(lam, LabeledSetPartition(4), q)
                assert value == supercharacter_degree(lam, q)

    def test_trivial_character(self):
        for mu in enumerate_labeled_partitions(3, 2):
            assert supercharacter_value(LabeledSetPartition(3), mu, 2) == 1

    def test_vanishing_case(self):
        assert supercharacter_value(lsp("3; 1-1-3"), lsp("3; 2-1-3"), 2).is_zero()
        assert supercharacter_value(lsp("3; 1-1-3"), lsp("3; 1-1-2"), 2).is_zero()

    def test_coincident_arc_contributes_character_value(self):
        value = supercharacter_value(lsp("3; 1-1-3"), lsp("3; 1-1-3"), 2)
        assert value == CycRational.from_rational(2, -2)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            supercharacter_value(lsp("3; 1-1-3"), lsp("2; 1-1-2"), 2)

    def test_values_are_q_powers_times_roots(self):
        # the nesting discount never exceeds the cover count
        for q in (2, 3):
            for lam in enumerate_labeled_partitions(4, q):
                for mu in enumerate_labeled_partitions(4, q):
                    supercharacter_value(lam, mu, q)  # raises on a negative exponent


class TestTables:
    def test_n0_and_n1(self):
        t0 = supercharacter_table(0, 2)
        assert len(t0.order) == 1 and t0.class_sizes == (1,)
        t1 = supercharacter_table(1, 3)
        assert t1.values == ((CycRational.one(3),),)
        assert t1.class_sizes == (1,)

    def test_n2_q2(self):
        t = supercharacter_table(2, 2)
        one = CycRational.one(2)
        assert t.values == ((one, one), (one, -one))
        assert t.class_sizes == (1, 1)

    def test_n3_q2_values_and_sizes(self):
        t = supercharacter_table(3, 2)
        assert sum(t.class_sizes) == 8
        assert t.class_size(lsp("3;")) == 1
        assert t.class_size(lsp("3; 1-1-2")) == 2
        assert t.class_size(lsp("3; 2-1-3")) == 2
        assert t.class_size(lsp("3; 1-1-3")) == 1
        assert t.class_size(lsp("3; 1-1-2, 2-1-3")) == 2
        assert t.value(lsp("3; 1-1-3"), lsp("3;")) == 2
        assert t.value(lsp("3; 1-1-3"), lsp("3; 1-1-3")) == -2
        assert t.value(lsp("3; 1-1-3"), lsp("3; 1-1-2")).is_zero()

    def test_weighted_row_orthogonality(self):
        for n, q in ((3, 2), (3, 3), (4, 2)):
            t = supercharacter_table(n, q)
            total = group_order(n, q)
            for i, lam in enumerate(t.order):
                for j, nu in enumerate(t.order):
                    acc = CycRational.zero(q)
                    for k in range(len(t.order)):
                        acc = acc + t.values[i][k] * t.values[j][k].conj() * t.class_sizes[k]
                    if i == j:
                        assert acc == total * q ** crossing_statistic(lam)
                    else:
                        assert acc.is_zero()

    def test_bound_enforced(self):
        with pytest.raises(BoundExceededError):
            supercharacter_table(8, 2)
        with pytest.raises(BoundExceededError):
            supercharacter_table(5, 2, bound=4)
        # within the grade bound but over the size bound: (4, 7) has 505 indices
        with pytest.raises(BoundExceededError):
            supercharacter_table(4, 7)

    def test_disk_cache_roundtrip(self, tmp_path):
        from nchopf import superfunctions

        superfunctions.clear_table_cache()
        t = supercharacter_table(3, 2, cache_dir=tmp_path)
        files = list(tmp_path.iterdir())
        assert len(files) == 1
        superfunctions.clear_table_cache()
        again = supercharacter_table(3, 2, cache_dir=tmp_path)
        assert again.values == t.values and again.class_sizes == t.class_sizes
        superfunctions.clear_table_cache()

    def _load_from_bad_cache(self, tmp_path, data):
        """Write data as the cached (3, 2) table, load it, and check that the
        right table comes back and replaces the file."""
        import json

        from nchopf import superfunctions

        path = superfunctions._table_path(3, 2, tmp_path)
        path.write_text(json.dumps(data))
        superfunctions.clear_table_cache()
        try:
            loaded = supercharacter_table(3, 2, cache_dir=tmp_path)
        finally:
            superfunctions.clear_table_cache()
        expected = superfunctions._compute_table(3, 2)
        assert loaded.order == expected.order
        assert loaded.values == expected.values
        assert loaded.class_sizes == expected.class_sizes
        assert json.loads(path.read_text()) == expected.to_json()

    def test_disk_cache_with_null_order_is_recomputed(self, tmp_path):
        from nchopf import superfunctions

        data = superfunctions._compute_table(3, 2).to_json()
        data["order"] = None
        self._load_from_bad_cache(tmp_path, data)

    def test_disk_cache_with_values_over_another_field_is_recomputed(self, tmp_path):
        from nchopf import superfunctions

        data = superfunctions._compute_table(3, 2).to_json()
        for row in data["values"]:
            for value in row:
                value["p"] = 3
                value["coeffs"].append("0")
        self._load_from_bad_cache(tmp_path, data)

    def test_disk_cache_with_wrong_table_is_recomputed(self, tmp_path):
        # well formed, with the right degree and class-size sum, but 1x1
        one = CycRational.one(2).to_json()
        data = {
            "format": 1,
            "n": 3,
            "q": 2,
            "order": [{"n": 3, "arcs": []}],
            "values": [[one]],
            "class_sizes": [8],
        }
        self._load_from_bad_cache(tmp_path, data)

    def test_disk_cache_with_swapped_class_sizes_is_recomputed(self, tmp_path):
        # the right sum and degrees, so only orthogonality tells it apart
        from nchopf import superfunctions

        data = superfunctions._compute_table(3, 2).to_json()
        assert data["class_sizes"] == [1, 2, 1, 2, 2]
        data["class_sizes"] = [2, 1, 1, 2, 2]
        self._load_from_bad_cache(tmp_path, data)


# every table up to (5, 2), (4, 3) and (3, 5)
TABLE_SIZES = [(n, 2) for n in range(6)] + [(n, 3) for n in range(5)] + [(n, 5) for n in range(4)]


class TestClosedFormInverse:
    """The inverse table from orthogonality, against Gauss-Jordan."""

    @pytest.mark.parametrize("n,q", TABLE_SIZES)
    def test_inverse_equals_gauss_jordan(self, n, q):
        table = supercharacter_table(n, q)
        reference = tuple(tuple(row) for row in invert_matrix(table.values))
        assert table.inverse() == reference

    @pytest.mark.parametrize("n,q", TABLE_SIZES)
    def test_inverse_row_does_not_depend_on_build_order(self, n, q):
        table = supercharacter_table(n, q)

        def fresh():
            return SupercharTable(n, q, table.order, table.values, table.class_sizes)

        in_order = fresh()
        rows = [in_order.inverse_row(i) for i in range(len(table.order))]
        for i in range(len(table.order)):
            first = fresh()
            assert first.inverse_row(i) == rows[i]
            assert first.inverse() == tuple(rows)
            assert first.inverse_row(i) is first.inverse_row(i)

    def test_inverse_rows_under_thread_races(self):
        # four threads fill one fresh table's rows in different orders; a
        # race may build a row twice but every thread sees the same rows
        import sys
        import threading

        table = supercharacter_table(4, 3)
        shared = SupercharTable(4, 3, table.order, table.values, table.class_sizes)
        size = len(table.order)
        barrier = threading.Barrier(4)
        results, errors = [None] * 4, []

        def build(slot):
            try:
                barrier.wait()
                order = range(size) if slot % 2 == 0 else reversed(range(size))
                rows = {i: shared.inverse_row(i) for i in order}
                results[slot] = tuple(rows[i] for i in range(size))
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
        assert all(rows == table.inverse() for rows in results)

    def test_kappa_to_chi_reads_only_the_rows_it_needs(self, monkeypatch):
        from nchopf import superfunctions

        superfunctions.clear_table_cache()
        read = []
        inverse_row = SupercharTable.inverse_row

        def counted(self, i):
            read.append((self.n, i))
            return inverse_row(self, i)

        def whole(self):
            raise AssertionError("kappa_to_chi built the whole inverse")

        monkeypatch.setattr(SupercharTable, "inverse_row", counted)
        monkeypatch.setattr(SupercharTable, "inverse", whole)
        try:
            lams = enumerate_labeled_partitions(4, 3)[5:8] + enumerate_labeled_partitions(2, 3)[:1]
            x = AlgebraElement.zero(3, "kappa")
            for lam in lams:
                x = x + kappa_element(3, lam)
            kappa_to_chi(x)
        finally:
            superfunctions.clear_table_cache()
        assert sorted(read) == [(2, 0), (4, 5), (4, 6), (4, 7)]


class TestBasisChange:
    def test_trivial_chi_is_kappa_unit(self):
        assert chi_to_kappa(AlgebraElement.unit(2, "chi")) == AlgebraElement.unit(2, "kappa")

    def test_n2_expansion(self):
        x = chi_to_kappa(chi_element(2, lsp("2; 1-1-2")))
        assert x == kappa_element(2, LabeledSetPartition(2)) - kappa(2, "2; 1-1-2")

    @pytest.mark.parametrize("q", [2, 3])
    def test_roundtrip(self, q):
        for n in range(4):
            for lam in enumerate_labeled_partitions(n, q):
                x = chi_element(q, lam)
                assert kappa_to_chi(chi_to_kappa(x)) == x
                y = kappa_element(q, lam)
                assert chi_to_kappa(kappa_to_chi(y)) == y

    def test_chi_product_is_concatenation(self):
        # the product of supercharacters is the supercharacter of the
        # concatenated index, for any labels and primes
        for q in (2, 3):
            for a in enumerate_labeled_partitions(2, q):
                for b in enumerate_labeled_partitions(2, q):
                    prod = product(chi_element(q, a), chi_element(q, b))
                    assert prod == chi_element(q, concat(a, b))


class TestInnerProduct:
    def test_unit_pairing(self):
        unit = AlgebraElement.unit(2, "kappa")
        assert inner_product(unit, unit) == 1

    def test_kappa_self_pairing(self):
        x = kappa(2, "2; 1-1-2")
        assert inner_product(x, x) == CycRational.from_rational(2, Fraction(1, 2))

    @pytest.mark.parametrize("q", [2, 3])
    def test_supercharacters_orthogonal(self, q):
        for n in range(4):
            for lam in enumerate_labeled_partitions(n, q):
                for nu in enumerate_labeled_partitions(n, q):
                    value = inner_product(chi_element(q, lam), chi_element(q, nu))
                    if lam == nu:
                        assert value == q ** crossing_statistic(lam)
                    else:
                        assert value.is_zero()

    def test_cross_grade_is_zero(self):
        x = kappa_element(2, LabeledSetPartition(1))
        y = kappa_element(2, LabeledSetPartition(2))
        assert inner_product(x, y).is_zero()


class TestFiltration:
    def test_membership(self):
        assert filtration_membership(lsp("3; 1-1-2, 2-1-3"), 1)
        assert not filtration_membership(lsp("3; 1-1-3"), 1)
        assert is_linear_index(lsp("3; 1-1-2, 2-1-3"))
        assert not is_linear_index(lsp("3; 1-1-3"))

    @pytest.mark.parametrize("k", [1, 2])
    def test_closure_under_product_and_coproduct(self, k):
        # the filtration subspace is spanned by supercharacters with short
        # arcs; closure is membership of products/coproducts in that span
        q = 2
        members = [
            lam
            for n in range(4)
            for lam in enumerate_labeled_partitions(n, q)
            if filtration_membership(lam, k)
        ]
        for a in members:
            for b in members:
                if a.n + b.n > 4:
                    continue
                prod = product(chi_element(q, a), chi_element(q, b))
                assert all(filtration_membership(i.partition, k) for i in prod.terms)
        for a in members:
            t = coproduct(chi_element(q, a))
            assert all(
                filtration_membership(l.partition, k) and filtration_membership(r.partition, k)
                for (l, r) in t.terms
            )

    def test_linear_span_dimension(self):
        for q in (2, 3):
            for n in range(1, 5):
                count = sum(
                    1 for lam in enumerate_labeled_partitions(n, q) if is_linear_index(lam)
                )
                assert count == q ** (n - 1)

    def test_interval_chain_products_span_the_linear_subspace(self):
        # the products over compositions of n land in the span of the
        # short-arc supercharacters, are linearly independent, and their
        # count matches the dimension of that span
        q = 2
        for n in range(1, 5):
            compositions = []
            for cuts in itertools.product((0, 1), repeat=n - 1):
                sizes = []
                run = 1
                for cut in cuts:
                    if cut:
                        sizes.append(run)
                        run = 1
                    else:
                        run += 1
                sizes.append(run)
                compositions.append(tuple(sizes))
            linear = [
                lam for lam in enumerate_labeled_partitions(n, q) if is_linear_index(lam)
            ]
            index_of = {lam: i for i, lam in enumerate(linear)}
            rows = []
            for sizes in compositions:
                element = AlgebraElement.unit(q, "kappa")
                for size in sizes:
                    element = product(element, kappa_element(q, interval_chain(size)))
                expanded = kappa_to_chi(element)
                row = [Fraction(0)] * len(linear)
                for idx, coeff in expanded.terms.items():
                    assert is_linear_index(idx.partition)
                    row[index_of[idx.partition]] = coeff.rational_value()
                rows.append(row)
            assert len(rows) == len(linear)
            assert _rank(rows) == len(linear)


def _rank(rows):
    matrix = [row[:] for row in rows]
    rank = 0
    cols = len(matrix[0]) if matrix else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = 1 / matrix[rank][col]
        matrix[rank] = [v * inv for v in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col]:
                factor = matrix[r][col]
                matrix[r] = [v - factor * w for v, w in zip(matrix[r], matrix[rank])]
        rank += 1
    return rank


@st.composite
def kappa_combinations(draw, q, max_grade=3, max_terms=3):
    pool = [
        BasisIndex("kappa", n, lam)
        for n in range(max_grade + 1)
        for lam in enumerate_labeled_partitions(n, q)
    ]
    size = draw(st.integers(min_value=1, max_value=max_terms))
    chosen = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size, unique=True))
    terms = {idx: draw(st.integers(min_value=-4, max_value=4).filter(bool)) for idx in chosen}
    return AlgebraElement(q, "kappa", terms)


class TestRandomizedHopfProperties:
    @settings(max_examples=40, deadline=None)
    @given(kappa_combinations(q=2))
    def test_antipode_identity_on_random_combinations(self, x):
        t = coproduct(x)
        acc = AlgebraElement.zero(x.q, x.basis)
        for (l, r), c in t.terms.items():
            acc = acc + product(
                antipode(AlgebraElement(x.q, x.basis, {l: 1})),
                AlgebraElement(x.q, x.basis, {r: 1}),
            ).scale(c)
        assert acc == AlgebraElement.unit(x.q, x.basis).scale(counit(x))

    @settings(max_examples=40, deadline=None)
    @given(kappa_combinations(q=3, max_grade=2), kappa_combinations(q=3, max_grade=2))
    def test_bialgebra_compatibility_on_random_pairs(self, x, y):
        from nchopf.verify import is_bialgebra_pair

        assert is_bialgebra_pair(x, y)


class TestChiBasisAxioms:
    def test_chi_coassociativity_small(self):
        from nchopf.verify import is_coassociative, satisfies_counit_law

        for q in (2, 3):
            for n in range(4):
                for lam in enumerate_labeled_partitions(n, q):
                    x = chi_element(q, lam)
                    assert is_coassociative(x)
                    assert satisfies_counit_law(x)

    def test_chi_antipode_identity_small(self):
        from nchopf.verify import satisfies_antipode_identity

        for lam in enumerate_labeled_partitions(3, 2):
            assert satisfies_antipode_identity(chi_element(2, lam))

    def test_chi_cocommutative(self):
        for lam in enumerate_labeled_partitions(3, 3):
            t = coproduct(chi_element(3, lam))
            assert t.swap() == t
