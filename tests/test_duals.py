import itertools
from fractions import Fraction

import pytest

from nchopf.cyclotomic import CycRational, invert_matrix
from nchopf.elements import (
    AlgebraElement,
    BasisIndex,
    TensorElement,
    coproduct,
    product,
)
from nchopf.duals import (
    M_element,
    Permutation,
    U_element,
    V_element,
    V_from_U,
    chi_star_element,
    chi_star_to_kappa_star,
    csupp,
    dual_ch,
    duality_pairing,
    duality_pairing_tensor,
    evaluate_M_element,
    evaluate_M_truncated,
    kappa_star_element,
    kappa_star_to_chi_star,
    multiply_truncated,
    product_M,
    product_U,
    u_to_v,
    v_to_u,
    z_scalar,
)
from nchopf.setpartitions import (
    LabeledSetPartition,
    SetPartition,
    all_set_partitions,
    crossing_statistic,
    enumerate_labeled_partitions,
    underlying_set_partition,
)
from nchopf.superfunctions import kappa_element, supercharacter_table
from nchopf import unitriangular as oracle


def lsp(text):
    return LabeledSetPartition.from_text(text)


def sp(text):
    return SetPartition.from_text(text)


# every table up to (5, 2), (4, 3) and (3, 5)
TABLE_SIZES = [(n, 2) for n in range(6)] + [(n, 3) for n in range(5)] + [(n, 5) for n in range(4)]


class TestKappaStarProduct:
    def test_displayed_ten_terms(self):
        # one arc labeled a on [2] against one arc labeled b on [3], with
        # distinct labels so that the ten embeddings stay distinct
        f = kappa_star_element(3, lsp("2; 1-1-2"))
        g = kappa_star_element(3, lsp("3; 1-2-3"))
        result = product(f, g)
        expected = {
            lsp("5; 1-1-2, 3-2-5"),
            lsp("5; 1-1-3, 2-2-5"),
            lsp("5; 1-1-4, 2-2-5"),
            lsp("5; 1-1-5, 2-2-4"),
            lsp("5; 2-1-3, 1-2-5"),
            lsp("5; 2-1-4, 1-2-5"),
            lsp("5; 2-1-5, 1-2-4"),
            lsp("5; 3-1-4, 1-2-5"),
            lsp("5; 3-1-5, 1-2-4"),
            lsp("5; 4-1-5, 1-2-3"),
        }
        assert {idx.partition for idx in result.terms} == expected
        assert all(c == CycRational.one(3) for c in result.terms.values())

    def test_unit(self):
        x = kappa_star_element(2, lsp("3; 1-1-3"))
        assert product(AlgebraElement.unit(2, "kappa_star"), x) == x

    def test_empty_times_empty_counts_embeddings(self):
        f = kappa_star_element(2, LabeledSetPartition(1))
        result = product(f, f)
        (coeff,) = result.terms.values()
        assert coeff == 2

    @pytest.mark.parametrize("q", [2, 3])
    def test_commutative(self, q):
        for total in range(5):
            for a in range(total + 1):
                for mu in enumerate_labeled_partitions(a, q):
                    for nu in enumerate_labeled_partitions(total - a, q):
                        f = kappa_star_element(q, mu)
                        g = kappa_star_element(q, nu)
                        assert product(f, g) == product(g, f)


class TestKappaStarCoproduct:
    def test_displayed_five_terms(self):
        lam = lsp("4; 1-1-2, 2-2-4")
        t = coproduct(kappa_star_element(3, lam))
        pairs = {
            (l.partition, r.partition): int(c.rational_value())
            for (l, r), c in t.terms.items()
        }
        assert pairs == {
            (lsp("0;"), lam): 1,
            (lsp("1;"), lsp("3; 1-2-3")): 1,
            (lsp("2; 1-1-2"), lsp("2;")): 1,
            (lsp("3; 1-1-2"), lsp("1;")): 1,
            (lam, lsp("0;")): 1,
        }

    def test_unit_coproduct(self):
        t = coproduct(AlgebraElement.unit(2, "kappa_star"))
        assert len(t.terms) == 1

    def test_not_cocommutative(self):
        t = coproduct(kappa_star_element(2, lsp("3; 1-1-2")))
        assert t.swap() != t


class TestDualityPairing:
    def test_kronecker(self):
        lam = lsp("2; 1-1-2")
        assert duality_pairing(kappa_star_element(2, lam), kappa_element(2, lam)) == 1

    def test_cross_grade_vanishes(self):
        f = kappa_star_element(2, LabeledSetPartition(1))
        x = kappa_element(2, LabeledSetPartition(2))
        assert duality_pairing(f, x).is_zero()

    @pytest.mark.parametrize("q", [2, 3])
    def test_adjointness_small(self, q):
        total = 3
        for a in range(total + 1):
            for alpha in enumerate_labeled_partitions(a, q):
                for beta in enumerate_labeled_partitions(total - a, q):
                    f = kappa_star_element(q, alpha)
                    g = kappa_star_element(q, beta)
                    fg = product(f, g)
                    for lam in enumerate_labeled_partitions(total, q):
                        lhs = duality_pairing(fg, kappa_element(q, lam))
                        rhs = duality_pairing_tensor(
                            TensorElement.tensor(f, g),
                            coproduct(kappa_element(q, lam)),
                        )
                        assert lhs == rhs

    def test_z_scalar_matches_oracle_orbit_sizes(self):
        for q in (2, 3):
            for n in range(4):
                group = oracle.get_group(n, q)
                for mu in enumerate_labeled_partitions(n, q):
                    orbit = group.superclass_orbit(mu)
                    assert z_scalar(mu, q) == group.order // len(orbit)

    def test_chi_star_conversion_roundtrip(self):
        for n, q in TABLE_SIZES:
            for lam in enumerate_labeled_partitions(n, q):
                f = chi_star_element(q, lam)
                assert kappa_star_to_chi_star(chi_star_to_kappa_star(f)) == f

    @pytest.mark.parametrize("n,q", TABLE_SIZES)
    def test_kappa_star_to_chi_star_matches_the_inverse_table(self, n, q):
        # the conjugated column against the old formula on the Gauss-Jordan
        # inverse: kappa_star_mu = sum_lam T^-1[mu][lam] |G|/|K_mu| q^crs(lam) chi_star_lam
        table = supercharacter_table(n, q)
        inverse = invert_matrix(table.values)
        for i, mu in enumerate(table.order):
            z = Fraction(table.group_order, table.class_sizes[i])
            expected = AlgebraElement.zero(q, "chi_star")
            for lam, v in zip(table.order, inverse[i]):
                expected = expected + chi_star_element(q, lam, v * (z * q ** crossing_statistic(lam)))
            assert kappa_star_to_chi_star(kappa_star_element(q, mu)) == expected

    def test_chi_star_is_dual_to_chi(self):
        from nchopf.superfunctions import chi_element

        q = 2
        for lam in enumerate_labeled_partitions(3, q):
            for nu in enumerate_labeled_partitions(3, q):
                value = duality_pairing(chi_star_element(q, lam), chi_element(q, nu))
                assert value == (1 if lam == nu else 0)


class TestPermutations:
    def test_validation(self):
        with pytest.raises(ValueError):
            Permutation([1, 3])

    def test_cycles_include_fixed_points(self):
        sigma = Permutation([3, 2, 1])
        assert sigma.cycles() == ((1, 3), (2,))

    def test_from_cycles(self):
        assert Permutation.from_cycles(5, [(5, 1)]) == Permutation([5, 2, 3, 4, 1])

    def test_pickle_and_copy_round_trip(self):
        import copy
        import pickle

        sigma = Permutation([3, 1, 2])
        assert sigma.cycles() == ((1, 3, 2),)
        for clone in (copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
            copied = clone(sigma)
            assert copied == sigma and hash(copied) == hash(sigma)
            assert copied.cycles() == sigma.cycles()

    def test_csupp_examples(self):
        assert csupp(Permutation([3, 2, 1])) == sp("13|2")
        assert csupp(Permutation([1, 2, 3])) == sp("1|2|3")
        assert csupp(Permutation([2, 3, 1])) == sp("123")


class TestMBasis:
    def test_displayed_coefficient(self):
        alpha = Permutation([1, 2])
        beta = Permutation([3, 2, 1])
        result = product_M(alpha, beta)
        gamma = Permutation([5, 2, 3, 4, 1])
        assert result.terms[BasisIndex("M", 5, gamma)] == 3

    def test_unit(self):
        x = M_element(2, Permutation([2, 1]))
        assert product(AlgebraElement.unit(2, "M"), x) == x

    def test_total_mass_is_binomial(self):
        alpha = Permutation([1, 2])
        beta = Permutation([3, 2, 1])
        result = product_M(alpha, beta)
        assert sum(int(c.rational_value()) for c in result.terms.values()) == 10

    def test_commutative(self):
        for wa in itertools.permutations(range(1, 3)):
            for wb in itertools.permutations(range(1, 4)):
                a, b = Permutation(wa), Permutation(wb)
                assert product_M(a, b) == product_M(b, a)


def permutations_with_support(partition):
    """All permutations whose cycle supports are exactly the given blocks."""
    per_block = []
    for block in partition.blocks:
        if len(block) == 1:
            per_block.append([tuple(block)])
        else:
            first, rest = block[0], block[1:]
            per_block.append([(first,) + tail for tail in itertools.permutations(rest)])
    out = []
    for cycles in itertools.product(*per_block):
        out.append(Permutation.from_cycles(partition.n, cycles))
    return out


class TestUBasis:
    def test_displayed_example(self):
        result = product_U(sp("124|3"), sp("1"))
        support = {
            underlying_set_partition(idx.partition): int(c.rational_value())
            for idx, c in result.terms.items()
        }
        assert support == {
            sp("124|3|5"): 1,
            sp("125|3|4"): 2,
            sp("135|2|4"): 1,
            sp("235|1|4"): 1,
        }

    def test_unit(self):
        x = U_element(2, sp("12"))
        assert product(AlgebraElement.unit(2, "U"), x) == x

    def test_aggregates_the_permutation_products(self):
        # summing M products over all permutations with the given cycle
        # supports must reproduce the U coefficients blockwise
        for mu in all_set_partitions(2):
            for nu in all_set_partitions(2):
                total = {}
                for a in permutations_with_support(mu):
                    for b in permutations_with_support(nu):
                        for idx, c in product_M(a, b).terms.items():
                            key = csupp(idx.partition)
                            total[key] = total.get(key, 0) + int(c.rational_value())
                expected = {}
                for idx, c in product_U(mu, nu).terms.items():
                    lam = underlying_set_partition(idx.partition)
                    count = len(permutations_with_support(lam))
                    expected[lam] = int(c.rational_value()) * count
                assert total == expected

    def test_coefficients_count_block_splittings(self):
        # dual description: the coefficient of U_lambda counts the ways of
        # splitting lambda's blocks into two groups standardizing to the
        # factors
        def standardize(blocks, n):
            ground = sorted(i for b in blocks for i in b)
            relabel = {pos: r + 1 for r, pos in enumerate(ground)}
            return SetPartition(len(ground), [[relabel[i] for i in b] for b in blocks])

        for mu in all_set_partitions(2):
            for nu in all_set_partitions(2):
                result = product_U(mu, nu)
                for idx, coeff in result.terms.items():
                    lam = underlying_set_partition(idx.partition)
                    count = 0
                    for size in range(len(lam.blocks) + 1):
                        for chosen in itertools.combinations(range(len(lam.blocks)), size):
                            chosen_set = set(chosen)
                            first = [lam.blocks[i] for i in chosen]
                            second = [
                                lam.blocks[i]
                                for i in range(len(lam.blocks))
                                if i not in chosen_set
                            ]
                            if (
                                standardize(first, lam.n) == mu
                                and standardize(second, lam.n) == nu
                            ):
                                count += 1
                    assert int(coeff.rational_value()) == count

    def test_coproduct_uses_clean_cuts_only(self):
        t = coproduct(U_element(2, sp("13|2")))
        pairs = {
            (
                underlying_set_partition(l.partition).to_text(),
                underlying_set_partition(r.partition).to_text(),
            )
            for (l, r) in t.terms
        }
        assert pairs == {("/", "13|2"), ("13|2", "/")}
        t = coproduct(U_element(2, sp("1|23")))
        pairs = {
            (
                underlying_set_partition(l.partition).to_text(),
                underlying_set_partition(r.partition).to_text(),
            )
            for (l, r) in t.terms
        }
        assert pairs == {("/", "1|23"), ("1", "12"), ("1|23", "/")}


class TestVBasis:
    def test_finest_partition(self):
        finest = sp("1|2|3")
        assert V_from_U(finest) == U_element(2, finest)

    def test_two_block_expansion(self):
        assert V_from_U(sp("12")) == U_element(2, sp("12")) + U_element(2, sp("1|2"))

    @pytest.mark.parametrize("n", range(6))
    def test_uv_roundtrip(self, n):
        for partition in all_set_partitions(n):
            x = U_element(2, partition)
            assert v_to_u(u_to_v(x)) == x
            y = V_element(2, partition)
            assert u_to_v(v_to_u(y)) == y

    def test_dual_ch_requires_q2(self):
        with pytest.raises(ValueError):
            dual_ch(kappa_star_element(3, lsp("2; 1-2-2")))

    def test_dual_ch_morphism_small(self):
        q = 2
        for total in range(4):
            for a in range(total + 1):
                for mu in enumerate_labeled_partitions(a, q):
                    for nu in enumerate_labeled_partitions(total - a, q):
                        f = kappa_star_element(q, mu)
                        g = kappa_star_element(q, nu)
                        assert dual_ch(product(f, g)) == product(dual_ch(f), dual_ch(g))


class TestTruncatedRealization:
    def test_identity_of_one(self):
        out = evaluate_M_truncated(Permutation([1]), 2)
        assert out == {frozenset({(1, 1)}): 1, frozenset({(2, 2)}): 1}

    def test_transposition(self):
        out = evaluate_M_truncated(Permutation([2, 1]), 2)
        assert out == {frozenset({(1, 2), (2, 1)}): 1}

    def test_limit_too_small_gives_empty_sum(self):
        assert evaluate_M_truncated(Permutation([2, 1, 3]), 2) == {}

    def test_relations_kill_repeated_rows_and_columns(self):
        left = {frozenset({(1, 2)}): 1}
        assert multiply_truncated(left, {frozenset({(1, 3)}): 1}) == {}
        assert multiply_truncated(left, {frozenset({(3, 2)}): 1}) == {}
        assert multiply_truncated(left, left) == {}

    def test_product_crosscheck(self):
        for m in range(3):
            for n in range(3):
                if m + n == 0 or m + n > 4:
                    continue
                limit = m + n + 1
                for wa in itertools.permutations(range(1, m + 1)):
                    for wb in itertools.permutations(range(1, n + 1)):
                        alpha, beta = Permutation(wa), Permutation(wb)
                        direct = multiply_truncated(
                            evaluate_M_truncated(alpha, limit),
                            evaluate_M_truncated(beta, limit),
                        )
                        via_rule = {
                            mono: int(c.rational_value())
                            for mono, c in evaluate_M_element(
                                product_M(alpha, beta), limit
                            ).items()
                        }
                        assert direct == via_rule
