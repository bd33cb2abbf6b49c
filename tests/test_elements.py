import functools
import gc
import itertools
import sys
import threading

import pytest

from nchopf import cyclotomic, elements, ncsym, setpartitions, verify

from nchopf.cyclotomic import CycRational
from nchopf.duals import Permutation, V_element, u_to_v, v_to_u
from nchopf.elements import (
    AlgebraElement,
    BasisIndex,
    LinearCombination,
    TensorElement,
    linear_combination,
    linear_map,
    map_tensor,
    retag,
)
from nchopf.ncsym import ColoredIndex, p_element, p_to_m
from nchopf.setpartitions import (
    LabeledSetPartition,
    SetPartition,
    all_set_partitions,
    arc_encoding,
    common_refinement,
    enumerate_labeled_partitions,
)
from nchopf.superfunctions import chi_to_kappa


def lsp(text):
    return LabeledSetPartition.from_text(text)


def idx(tag, text):
    lam = lsp(text)
    return BasisIndex(tag, lam.n, lam)


A, B, C = idx("kappa", "1;"), idx("kappa", "2;"), idx("kappa", "2; 1-1-2")


class TestLinearCombination:
    def test_sums_duplicate_keys_and_drops_cancelled_terms(self):
        assert linear_combination([(2, {"a": 1, "b": 3}), (3, {"a": 4, "b": -2})]) == {"a": 14}

    def test_linear_map_sums_images(self):
        x = AlgebraElement(2, "kappa", {A: 1, B: 2})
        images = {A: {C: 1, B: 1}, B: {C: 1, B: CycRational.from_rational(2, -1)}}
        result = linear_map(x, "kappa", images.__getitem__)
        assert result == AlgebraElement(2, "kappa", {C: 3, B: -1})

    def test_linear_map_drops_terms_that_cancel(self):
        x = AlgebraElement(2, "kappa", {A: 1, B: 1})
        result = linear_map(x, "kappa", {A: {C: 1}, B: {C: -1}}.__getitem__)
        assert not result and result.basis == "kappa"

    def test_linear_map_checks_the_source_basis(self):
        x = AlgebraElement(2, "kappa", {A: 1})
        with pytest.raises(ValueError):
            linear_map(x, "chi", lambda key: {}, source="chi")
        with pytest.raises(ValueError):
            chi_to_kappa(x)
        with pytest.raises(ValueError):
            u_to_v(x)

    def test_linear_map_keeps_the_shape_of_a_tensor(self):
        t = TensorElement(2, "kappa", {(A, B): 2})
        result = linear_map(t, "kappa", lambda key: {key[::-1]: 1})
        assert result == TensorElement(2, "kappa", {(B, A): 2})

    def test_a_single_unit_term_maps_to_its_image_without_a_copy(self):
        one = CycRational.one(3)
        image = {B: one, C: CycRational.zeta_power(3, 1)}
        x = AlgebraElement(3, "kappa", {A: 1})
        first, second = (linear_map(x, "kappa", {A: image}.__getitem__) for _ in range(2))
        assert first == second == AlgebraElement(3, "kappa", image)
        assert first.terms is image and second.terms is image
        t = TensorElement(3, "kappa", {(A, B): 1})
        pair = {(B, A): one}
        assert linear_map(t, "kappa", {(A, B): pair}.__getitem__).terms is pair

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_every_input_shape_matches_the_general_path(self, q):
        # coefficient 1 takes the copy-free path; any other coefficient, more
        # than one term, and tensors (through map_tensor) must agree with the
        # one summing pass of linear_combination
        lams = enumerate_labeled_partitions(3, q)[:4]
        keys = [BasisIndex("chi", 3, lam) for lam in lams]
        image = lambda key: chi_to_kappa(AlgebraElement._trusted(q, "chi", {key: 1})).terms

        def general(x):
            terms = linear_combination((c, image(key)) for key, c in x.terms.items())
            return AlgebraElement._trusted(q, "kappa", terms)

        coefficients = [1, 2, -1, CycRational.zeta_power(q, 1)]
        inputs = [AlgebraElement(q, "chi", {key: c}) for key in keys for c in coefficients]
        inputs += [AlgebraElement(q, "chi", dict(zip(keys, coefficients)))]
        inputs += [AlgebraElement(q, "chi", {keys[0]: 1, keys[1]: -1})]
        for x in inputs:
            assert linear_map(x, "kappa", image, source="chi") == general(x)
            assert linear_map(x, "kappa", image) == chi_to_kappa(x)
        for c in coefficients:
            t = TensorElement(q, "chi", {(keys[0], keys[1]): c, (keys[2], keys[2]): 1})
            single = TensorElement(q, "chi", {(keys[1], keys[3]): c})
            for tensor in (t, single):
                pairs = (
                    (c, {(a, b): ca * cb for a, ca in image(l).items() for b, cb in image(r).items()})
                    for (l, r), c in tensor.terms.items()
                )
                expected = TensorElement._trusted(q, "kappa", linear_combination(pairs))
                assert map_tensor(tensor, chi_to_kappa) == expected


class TestTensorElement:
    def test_map_tensor_of_zero_lands_in_the_basis_of_f(self):
        zero = TensorElement.zero(2, "chi")
        image = map_tensor(zero, chi_to_kappa)
        assert not image and image.basis == "kappa"

    def test_tensor_key_with_label_outside_the_field_is_rejected(self):
        big = idx("kappa", "2; 1-2-2")
        with pytest.raises(ValueError):
            TensorElement(2, "kappa", {(big, A): 1})
        with pytest.raises(ValueError):
            TensorElement(2, "kappa", {(A, big): 1})
        assert TensorElement(3, "kappa", {(big, A): 1})

    def test_tensor_key_in_another_basis_is_rejected(self):
        with pytest.raises(ValueError):
            TensorElement(2, "kappa", {(A, idx("chi", "1;")): 1})

    def test_tensor_is_not_an_algebra_element(self):
        assert not issubclass(TensorElement, AlgebraElement)
        assert issubclass(TensorElement, LinearCombination)
        assert issubclass(AlgebraElement, LinearCombination)

    def test_linear_structure_is_shared(self):
        for name in ("__add__", "__neg__", "__sub__", "scale", "__eq__", "__hash__"):
            assert name not in vars(TensorElement)
            assert name not in vars(AlgebraElement)

    def test_tensor_arithmetic(self):
        s = TensorElement(2, "kappa", {(A, B): 1, (B, A): 2})
        t = TensorElement(2, "kappa", {(A, B): -1})
        assert s + t == TensorElement(2, "kappa", {(B, A): 2})
        assert s - s == TensorElement.zero(2, "kappa")
        assert s.scale(3) == 3 * s
        assert s.coefficient((B, A)) == 2
        assert s.coefficient((A, A)) == 0
        assert hash(s + t) == hash(TensorElement(2, "kappa", {(B, A): 2}))

    def test_element_and_tensor_never_compare_equal_or_add(self):
        x = AlgebraElement.zero(2, "kappa")
        t = TensorElement.zero(2, "kappa")
        assert x != t
        with pytest.raises(TypeError):
            x + t


def _sum_over(tag, partitions):
    return AlgebraElement(2, tag, {BasisIndex(tag, sp.n, arc_encoding(sp)): 1 for sp in partitions})


class TestLatticeChanges:
    """The two weight-1 set-partition basis changes against the partial order
    itself: pi refines sigma exactly when their common refinement is pi.
    ``tests/test_ncsym.py::TestPowerBasis::test_roundtrip`` and
    ``tests/test_duals.py::TestVBasis::test_uv_roundtrip`` check that m_to_p
    and u_to_v invert them on every basis element, so a swapped interval or
    weight in the shared kernel shows in both pairs of bases."""

    @pytest.mark.parametrize("n", range(6))
    def test_p_to_m_sums_m_over_the_partitions_that_pi_refines(self, n):
        partitions = all_set_partitions(n)
        for pi in partitions:
            coarser = [sigma for sigma in partitions if common_refinement(pi, sigma) == pi]
            assert p_to_m(p_element(2, pi)) == _sum_over("m", coarser)

    @pytest.mark.parametrize("n", range(6))
    def test_v_to_u_sums_u_over_the_partitions_that_refine_pi(self, n):
        partitions = all_set_partitions(n)
        for pi in partitions:
            finer = [sigma for sigma in partitions if common_refinement(sigma, pi) == sigma]
            assert v_to_u(V_element(2, pi)) == _sum_over("U", finer)


class TestRetag:
    def test_moves_every_index_of_an_element_or_a_tensor_to_the_tag(self):
        z = CycRational.zeta_power(3, 1)
        x = AlgebraElement(3, "kappa", {A: 2, C: z})
        moved = retag(x, "kappa_star")
        assert moved == AlgebraElement(
            3, "kappa_star", {BasisIndex("kappa_star", i.grade, i.partition): c for i, c in x.items()}
        )
        assert retag(moved, "kappa") == x
        t = TensorElement.tensor(x, x)
        assert retag(t, "kappa_star") == TensorElement.tensor(moved, moved)
        assert retag(AlgebraElement.zero(3, "kappa"), "chi") == AlgebraElement.zero(3, "chi")


class TestBasisIndexPool:
    def test_equal_indices_are_one_object(self):
        lam = lsp("3; 1-1-3")
        first = BasisIndex("kappa", 3, lam)
        assert BasisIndex("kappa", 3, LabeledSetPartition(3, [(1, 3, 1)])) is first
        assert idx("kappa", "3; 1-1-3") is first
        assert BasisIndex("chi", 3, lam) is not first
        assert BasisIndex("chi", 3, lam) != first
        assert hash(first) == hash(("kappa", 3, lam))

    def test_pool_entry_is_freed_with_its_last_reference(self):
        key = ("kappa", 8, lsp("8; 1-1-8, 2-1-7"))
        index = BasisIndex(*key)
        assert elements._INDICES.get(key) is index
        del index
        gc.collect()
        assert elements._INDICES.get(key) is None

    def test_validation_still_applies(self):
        with pytest.raises(ValueError):
            BasisIndex("kappa", 2, lsp("3;"))
        with pytest.raises(ValueError):
            BasisIndex("m", 2, lsp("2; 1-2-2"))
        # the indexing object must have the type its basis registers
        colored = ColoredIndex(SetPartition(2, [[1, 2]]), (0, 0), 1)
        wrong = [
            ("kappa", Permutation((2, 1))),
            ("m", colored),
            ("M", lsp("2; 1-1-2")),
            ("m_colored", lsp("2;")),
            ("no-such-basis", lsp("2;")),
        ]
        for basis, index in wrong:
            with pytest.raises(ValueError):
                BasisIndex(basis, 2, index)
        assert BasisIndex("M", 2, Permutation((2, 1))).partition == Permutation((2, 1))
        assert BasisIndex("m_colored", 2, colored).partition is colored

    def test_threads_building_the_same_indices_agree(self):
        barrier = threading.Barrier(4)
        results, errors = [None] * 4, []

        def build(slot):
            try:
                barrier.wait()
                results[slot] = [
                    BasisIndex(tag, lam.n, lam)
                    for tag in ("kappa", "chi", "kappa_star")
                    for lam in enumerate_labeled_partitions(4, 3)
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
        assert all(keys == results[0] for keys in results)


def _fresh_values():
    """For each weak pool, a builder of one value no other test builds."""
    partition = SetPartition(9, [[1, 9], [2, 3], [4], [5, 6, 7, 8]])
    return {
        "scalars": (cyclotomic._POOL, lambda: CycRational(5, [3, 1, 4, 1])),
        "labeled": (setpartitions._PARTITIONS, lambda: lsp("9; 1-4-9, 2-3-8")),
        "set-partitions": (
            setpartitions._SET_PARTITIONS,
            lambda: SetPartition(9, [[1, 9], [2, 8, 3], [4, 5, 6, 7]]),
        ),
        "colored": (
            ncsym._COLORED,
            lambda: ColoredIndex(partition, (0, 1, 2, 3, 0, 1, 2, 3, 0), 4),
        ),
        "indices": (elements._INDICES, lambda: BasisIndex("kappa_star", 9, lsp("9; 1-2-9, 3-3-4"))),
    }


@pytest.mark.parametrize("pool_name", sorted(_fresh_values()))
def test_a_dead_reference_pending_while_its_pool_is_iterated_reads_as_a_miss(pool_name):
    # While a WeakValueDictionary is iterated, the entry of a freed value
    # stays in its dict of weak references, dead, until the iteration ends.
    # A pool hit reads that dict directly, so a dead entry must read as a
    # miss and the value must come back as a fresh, equal instance.
    pool, build = _fresh_values()[pool_name]
    value = build()
    text = repr(value)
    walk = pool.keys()  # holds the key it yielded, not the value
    next(walk)
    try:
        del value
        gc.collect()
        assert pool._pending_removals  # a dead reference is waiting in the pool
        again = build()
        assert repr(again) == text and again == build()
        assert build() is again
    finally:
        walk.close()
    assert build() is again


# ---------------------------------------------------------------------------
# every coproduct is a sum of restrictions


def _relabeled(lam, part):
    """The arcs of lam inside ``part`` (sorted positions), moved onto
    [1, len(part)] by the position of each endpoint in ``part``."""
    arcs = [(part.index(l) + 1, part.index(r) + 1, c) for l, r, c in lam.arcs if l in part and r in part]
    return LabeledSetPartition(len(part), arcs)


def _position_subset_coproduct(q, a):
    """Every subset of the 2^n positions that splits no arc, each side
    relabeled onto an initial segment: the rule of kappa, k, m and p before
    the restriction kernel."""
    lam, n = a.partition, a.grade
    terms = {}
    for size in range(n + 1):
        for subset in itertools.combinations(range(1, n + 1), size):
            if any((l in subset) != (r in subset) for l, r, _ in lam.arcs):
                continue
            rest = tuple(i for i in range(1, n + 1) if i not in subset)
            key = tuple(BasisIndex(a.basis, len(part), _relabeled(lam, part)) for part in (subset, rest))
            terms[key] = terms.get(key, 0) + 1
    return TensorElement(q, a.basis, terms)


def _prefix_shift_coproduct(q, a, clean):
    """The arcs left of each cut k and those right of it shifted down by k:
    every cut, dropping the arcs that span it (kappa_star and V), or with
    ``clean`` only the cuts no arc spans (chi_star and U)."""
    lam, n = a.partition, a.grade
    terms = {}
    for k in range(n + 1):
        if clean and any(l <= k < r for l, r, _ in lam.arcs):
            continue
        left = LabeledSetPartition(k, [arc for arc in lam.arcs if arc[1] <= k])
        right = LabeledSetPartition(n - k, [(l - k, r - k, c) for l, r, c in lam.arcs if l > k])
        terms[BasisIndex(a.basis, k, left), BasisIndex(a.basis, n - k, right)] = 1
    return TensorElement(q, a.basis, terms)


_REPLACED_COPRODUCTS = {
    "kappa": _position_subset_coproduct,
    "k_colored": _position_subset_coproduct,
    "m": _position_subset_coproduct,
    "p": _position_subset_coproduct,
    "kappa_star": functools.partial(_prefix_shift_coproduct, clean=False),
    "V": functools.partial(_prefix_shift_coproduct, clean=False),
    "chi_star": functools.partial(_prefix_shift_coproduct, clean=True),
    "U": functools.partial(_prefix_shift_coproduct, clean=True),
}


@pytest.mark.parametrize("tag", sorted(_REPLACED_COPRODUCTS))
@pytest.mark.parametrize("q, top", [(2, 5), (3, 4), (5, 3)])
def test_every_restriction_coproduct_equals_the_path_it_replaced(tag, q, top):
    for grade in range(top + 1):
        for index in verify.basis_indices(q, tag, grade):
            assert elements.basis_coproduct(q, index) == _REPLACED_COPRODUCTS[tag](q, index), index
