"""Every immutable value type: copies and pickles through its public
constructor, refuses assignment, carries no instance dict, and equals only
values of its own type."""

import copy
import pickle
from fractions import Fraction
from types import SimpleNamespace

import pytest

from nchopf.cyclotomic import CycRational
from nchopf.duals import Permutation
from nchopf.elements import AlgebraElement, BasisIndex, LinearCombination, TensorElement
from nchopf.ncsym import ColoredIndex
from nchopf.setpartitions import Arc, LabeledSetPartition, SetComposition, SetPartition
from nchopf.unitriangular import ClassFunctionRaw, get_group


def lsp(text):
    return LabeledSetPartition.from_text(text)


def algebra_element():
    z = CycRational.zeta_power(3, 1)
    terms = {BasisIndex("kappa", 2, lsp("2; 1-2-2")): z, BasisIndex("kappa", 0, lsp("0;")): -1}
    return AlgebraElement(3, "kappa", terms)


def many_valued_function():
    # 343 distinct values: the codes are an array('I'), not bytes
    values = [CycRational.from_rational(7, Fraction(k, 3)) for k in range(get_group(3, 7).order)]
    return ClassFunctionRaw((3,), 7, values)


# name -> (build, the constructor's arguments as attributes, hash-consed)
CASES = {
    "CycRational": (lambda: CycRational(3, [1, Fraction(-1, 2)]), ("p", "coeffs"), True),
    "LabeledSetPartition": (lambda: lsp("4; 1-2-3, 2-1-4"), ("n", "arcs"), True),
    "SetPartition": (lambda: SetPartition.from_text("13|24"), ("n", "blocks"), True),
    "SetComposition": (lambda: SetComposition.from_text("13|2"), ("parts",), False),
    "Permutation": (lambda: Permutation([2, 3, 1]), ("word",), False),
    "ColoredIndex": (
        lambda: ColoredIndex(SetPartition.from_text("13|24"), [0, 1, 1, 0], 2),
        ("partition", "colors", "r"),
        True,
    ),
    "BasisIndex": (
        lambda: BasisIndex("kappa", 4, lsp("4; 1-2-3, 2-1-4")),
        ("basis", "grade", "partition"),
        True,
    ),
    "LinearCombination": (lambda: LinearCombination(3, "kappa"), ("q", "basis", "terms"), False),
    "AlgebraElement": (algebra_element, ("q", "basis", "terms"), False),
    "TensorElement": (
        lambda: TensorElement.tensor(algebra_element(), algebra_element()),
        ("q", "basis", "terms"),
        False,
    ),
    "ClassFunctionRaw": (
        lambda: get_group(3, 2).supercharacter_raw(lsp("3; 1-1-3")),
        ("ns", "q", "values"),
        False,
    ),
    "ClassFunctionRaw-array": (many_valued_function, ("ns", "q", "values"), False),
}


@pytest.fixture(params=list(CASES), ids=list(CASES))
def case(request):
    build, fields, pooled = CASES[request.param]
    return build(), fields, pooled


@pytest.mark.parametrize(
    "clone",
    [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_copies_are_equal_with_equal_hashes(case, clone):
    x, _, pooled = case
    y = clone(x)
    assert type(y) is type(x) and y == x and hash(y) == hash(x)
    if pooled:
        assert y is x


def test_assignment_is_refused(case):
    x, fields, _ = case
    for name in (fields[0], "extra"):
        with pytest.raises(AttributeError, match=f"{type(x).__name__} is immutable"):
            setattr(x, name, None)


def test_no_instance_dict(case):
    x, _, _ = case
    assert not hasattr(x, "__dict__")


def test_unequal_to_another_type_with_the_same_fields(case):
    x, fields, _ = case
    impostor = SimpleNamespace(**{name: getattr(x, name) for name in fields})
    assert x != impostor and impostor != x


def test_linear_combinations_of_different_types_are_unequal():
    zero = LinearCombination(3, "kappa")
    assert zero != AlgebraElement(3, "kappa") and zero != TensorElement(3, "kappa")
    assert AlgebraElement(3, "kappa") != TensorElement(3, "kappa")


#: The value types with a ``sort_key``, which ``_Value.__lt__`` orders by.
ORDERED = ("LabeledSetPartition", "SetPartition", "Permutation", "ColoredIndex", "BasisIndex")


@pytest.mark.parametrize("other", [5, "x", None, 2.5], ids=["int", "str", "None", "float"])
@pytest.mark.parametrize("name", ORDERED)
def test_ordering_against_another_type_is_a_type_error(name, other):
    x = CASES[name][0]()
    with pytest.raises(TypeError):
        x < other
    with pytest.raises(TypeError):
        other < x


@pytest.mark.parametrize(
    "left, right",
    [
        (lambda: LabeledSetPartition(2), lambda: SetPartition(2, [[1], [2]])),
        (lambda: CycRational.from_rational(3, 1), lambda: CycRational.from_rational(3, 2)),
        (lambda: SetComposition([[1]]), lambda: SetComposition([[1], [2]])),
    ],
    ids=["lsp-sp", "cyc-cyc", "comp-comp"],
)
def test_values_without_a_shared_sort_key_do_not_order(left, right):
    with pytest.raises(TypeError):
        left() < right()


def test_ordered_values_compare_by_their_sort_key():
    partitions = [SetPartition.from_text(t) for t in ("12", "1|2", "/", "13|2", "1|23", "123")]
    assert sorted(partitions) == sorted(partitions, key=lambda sp: (sp.n, sp.blocks))
    words = [Permutation(w) for w in ([2, 1], [1], [1, 2], [], [3, 1, 2])]
    assert sorted(words) == sorted(words, key=Permutation.sort_key)
    assert LabeledSetPartition(2) < LabeledSetPartition(2, [(1, 2, 1)]) < LabeledSetPartition(3)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Arc(1, 2, True),
        lambda: Arc(1.0, 2, 1),
        lambda: LabeledSetPartition(3, [(1, 2.5, 1)]),
        lambda: LabeledSetPartition(2.0),
        lambda: LabeledSetPartition(True),
        lambda: SetPartition(2, [[1.0, 2.0]]),
        lambda: SetPartition(2.0, [[1, 2]]),
        lambda: SetPartition(1, [[True]]),
        lambda: SetPartition(2, [[1, "2"]]),
        lambda: SetComposition([[1.0], [2]]),
        lambda: SetComposition([[True]]),
        lambda: SetComposition([[1, "2"]]),
        lambda: Permutation([2.9, 1.2]),
        lambda: Permutation([True]),
        lambda: ColoredIndex(SetPartition(2, [[1, 2]]), [0.7, 1.2], 2),
        lambda: ColoredIndex(SetPartition(2, [[1, 2]]), [0, False], 2),
        lambda: ColoredIndex(SetPartition(2, [[1, 2]]), [0, 1], 2.0),
    ],
    ids=[
        "arc-bool-label", "arc-float-left", "lsp-float-arc", "lsp-float-n", "lsp-bool-n",
        "sp-float-members", "sp-float-n", "sp-bool-member", "sp-str-member", "comp-float",
        "comp-bool", "comp-str-member",
        "perm-float", "perm-bool", "colored-float-colors", "colored-bool-color", "colored-float-r",
    ],
)
def test_a_non_int_position_label_color_or_size_is_refused(build):
    with pytest.raises(ValueError, match="must be an integer"):
        build()
