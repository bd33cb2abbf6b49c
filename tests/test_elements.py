import pytest

from nchopf.cyclotomic import CycRational
from nchopf.duals import u_to_v
from nchopf.elements import (
    AlgebraElement,
    BasisIndex,
    LinearCombination,
    TensorElement,
    linear_combination,
    linear_map,
    map_tensor,
)
from nchopf.setpartitions import LabeledSetPartition
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
