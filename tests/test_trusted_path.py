"""Results built without re-checking their indices equal their checked copies.

Structure maps, basis changes and the antipode build their results through
``LinearCombination._trusted``, which skips the checks the public
constructor makes.  Each result here is rebuilt through the public
constructor, which re-validates every index and coefficient, and must come
out equal, with every coefficient a nonzero scalar of conductor q.
"""

import copy
import itertools
import pickle

import pytest

from nchopf import cli
from nchopf.cyclotomic import CycRational
from nchopf.duals import Permutation
from nchopf.elements import (
    _PRODUCT_RULES,
    AlgebraElement,
    BasisIndex,
    TensorElement,
    antipode,
    coproduct,
    product,
)
from nchopf.ncsym import ColoredIndex, ch
from nchopf.setpartitions import all_set_partitions, arc_encoding, enumerate_labeled_partitions

TOP_GRADE = {2: 4, 3: 4, 5: 3}
SET_PARTITION_BASES = ("m", "p", "U", "V")


def indices(q, basis, grade):
    if basis in SET_PARTITION_BASES:
        return [BasisIndex(basis, grade, arc_encoding(sp)) for sp in all_set_partitions(grade)]
    if basis == "M":
        words = itertools.permutations(range(1, grade + 1))
        return [BasisIndex("M", grade, Permutation(w)) for w in words]
    if basis == "m_colored":
        r = q - 1
        return [
            BasisIndex("m_colored", grade, ColoredIndex(sp, colors, r))
            for sp in all_set_partitions(grade)
            for colors in itertools.product(range(r), repeat=grade)
        ]
    return [BasisIndex(basis, grade, lam) for lam in enumerate_labeled_partitions(grade, q)]


def monomials(q, basis, top):
    return [
        AlgebraElement(q, basis, {idx: 1}) for g in range(top + 1) for idx in indices(q, basis, g)
    ]


def assert_checked(result, q):
    assert result == type(result)(result.q, result.basis, dict(result.terms))
    assert result.q == q
    for c in result.terms.values():
        assert type(c) is CycRational and c.p == q and c


def cases():
    for q, top in TOP_GRADE.items():
        for basis in sorted(_PRODUCT_RULES):
            yield q, basis, top


@pytest.mark.parametrize("q, basis, top", list(cases()))
def test_structure_maps_build_checked_results(q, basis, top):
    elements = monomials(q, basis, top)
    grade = {id(x): next(iter(x.terms)).grade for x in elements}
    for x in elements:
        for y in elements:
            if grade[id(x)] + grade[id(y)] <= top:
                assert_checked(product(x, y), q)
    if basis == "M":
        return  # the permutation basis has a product only
    for x in elements:
        assert_checked(coproduct(x), q)
        assert_checked(antipode(x), q)


CONVERSIONS = dict(cli.CONVERSIONS)
CONVERSIONS[("kappa", "ch")] = ch


# the dual identification between kappa_star and V is defined at q = 2 only
@pytest.mark.parametrize(
    "q, source, target",
    [
        (q, source, target)
        for q in sorted(TOP_GRADE)
        for source, target in sorted(CONVERSIONS)
        if q == 2 or {source, target} != {"kappa_star", "V"}
    ],
)
def test_basis_changes_build_checked_results(q, source, target):
    for x in monomials(q, source, TOP_GRADE[q]):
        assert_checked(CONVERSIONS[source, target](x), q)


def test_sums_and_scaling_drop_cancelled_terms():
    a, b = (AlgebraElement(3, "kappa", {idx: 1}) for idx in indices(3, "kappa", 2)[:2])
    t = TensorElement.tensor(a, b)
    for result in (a + b, a - a, (a + b) - b, a.scale(0), -a, t + t, t - t, t.swap()):
        assert_checked(result, 3)
    assert not (a - a).terms and not a.scale(0).terms


@pytest.mark.parametrize("basis", sorted(_PRODUCT_RULES))
@pytest.mark.parametrize("clone", [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))])
def test_elements_of_every_basis_pickle_and_copy(basis, clone):
    q = 3
    x = monomials(q, basis, 3)[-1].scale(CycRational(q, [1, -2]))
    copied = clone(x)
    assert copied == x and hash(copied) == hash(x)
    ((idx, _),) = x.terms.items()
    ((other, _),) = copied.terms.items()
    # the indexing objects come back through their pooled constructors
    assert other is idx and other.partition is idx.partition
    if basis != "M":
        t = coproduct(x)
        assert clone(t) == t
