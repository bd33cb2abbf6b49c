"""The antipode of a transported basis (chi, chi_star) is the base basis's
antipode conjugated by the two basis changes.

The recursion that every basis with its own structure maps uses,
S(a) = -a - sum S(b) c over the middle terms b (x) c of Delta(a), is kept
here as the reference, run through the routed product and coproduct.
"""

import hashlib
import io

import pytest

from nchopf import elements
from nchopf.cli import run
from nchopf.elements import AlgebraElement, BasisIndex, antipode, coproduct
from nchopf.serialize import canonical_dumps, element_to_json
from nchopf.setpartitions import (
    LabeledSetPartition,
    all_set_partitions,
    arc_encoding,
    enumerate_labeled_partitions,
)
from nchopf.verify import satisfies_antipode_identity

TRANSPORTED = ("chi", "chi_star")


def indices(q, basis, grade):
    if basis == "V":
        return [BasisIndex("V", grade, arc_encoding(sp)) for sp in all_set_partitions(grade)]
    return [BasisIndex(basis, grade, lam) for lam in enumerate_labeled_partitions(grade, q)]


def single(q, idx):
    return AlgebraElement(q, idx.basis, {idx: 1})


def reference_antipode(q, idx, memo):
    """S(a) = -a - sum_j S(b_j) c_j over the middle terms of Delta(a)."""
    if idx not in memo:
        a = single(q, idx)
        result = a if idx.grade == 0 else -a
        for (left, right), c in coproduct(a).terms.items():
            if left.grade and right.grade:
                result = result - (reference_antipode(q, left, memo) * single(q, right)).scale(c)
        memo[idx] = result
    return memo[idx]


@pytest.mark.parametrize("basis", TRANSPORTED)
@pytest.mark.parametrize("q, top", [(2, 4), (3, 3), (5, 2)])
def test_transported_antipode_equals_the_recursion(basis, q, top):
    memo = {}
    for grade in range(top + 1):
        for idx in indices(q, basis, grade):
            assert antipode(single(q, idx)) == reference_antipode(q, idx, memo)


def test_transported_antipode_calls_the_registered_basis_changes(monkeypatch):
    # the two basis changes are read from the registry when the antipode is
    # solved, so a wrapper bound there (as the benchmark's tracer does) sees them
    calls = []
    for registry in (elements._TO_BASE, elements._FROM_BASE):
        change = registry["chi_star"]
        monkeypatch.setitem(
            registry, "chi_star", lambda x, change=change: calls.append(x) or change(x)
        )
    monkeypatch.setattr(elements, "_ANTIPODE_CACHE", {})
    idx = indices(2, "chi_star", 3)[-1]
    result = antipode(single(2, idx))
    assert [x.basis for x in calls] == ["chi_star", "kappa_star"]
    # cached per index: a second call changes no basis
    assert antipode(single(2, idx)) is result and len(calls) == 2
    assert result == reference_antipode(2, idx, {})


# The identity goes through routed products, about a second per chi index of
# grade 4 at q = 3, so each routed grade newly reached by the antipode checks
# three indices: the first, a middle one and the last.
@pytest.mark.parametrize(
    "basis, q, grade",
    [("chi", 3, 4), ("chi_star", 3, 4), ("chi", 5, 3), ("chi_star", 5, 3)],
)
def test_antipode_identity_at_the_top_routed_grades(basis, q, grade):
    chosen = indices(q, basis, grade)
    for idx in (chosen[0], chosen[len(chosen) // 2], chosen[-1]):
        assert satisfies_antipode_identity(single(q, idx))


@pytest.mark.parametrize("q, grade", [(2, 4), (3, 4), (5, 3)])
def test_antipode_identity_on_every_v_index(q, grade):
    for idx in indices(q, "V", grade):
        assert satisfies_antipode_identity(single(q, idx))


def _grade_five(basis, terms):
    partitions = ((LabeledSetPartition.from_text(text), c) for text, c in terms)
    return AlgebraElement(2, basis, {BasisIndex(basis, 5, lam): c for lam, c in partitions})


#: sha256 of ``nchopf antipode`` stdout on one grade-5 element of chi,
#: chi_star and V at q = 2, as printed by the recursion through routed
#: products (for V, products routed through U).
PINNED = [
    (
        _grade_five("chi", [("5; 1-1-3, 2-1-5", 1), ("5; 1-1-2, 3-1-4", -2)]),
        "03fcb9dc02fce5a6c860b5d1060507a91879e47dc1743eba6f92d8edb5886289",
    ),
    (
        _grade_five("chi_star", [("5; 1-1-4, 2-1-3", 1), ("5; 2-1-5", 3)]),
        "89cd01b10e8b18677caabd850933eb6c71ab18b66031aa49b0af5bb0429c844a",
    ),
    (
        _grade_five("V", [("5; 1-1-3, 3-1-5, 2-1-4", 1), ("5; 1-1-2", -1)]),
        "ea6f00ee1781c6ea7eb8b6b1a466c6c404e03fe171eac20e65edf0642423e406",
    ),
]


@pytest.mark.parametrize("x, digest", PINNED, ids=[x.basis for x, _ in PINNED])
def test_cli_antipode_stdout_is_pinned(x, digest):
    stdin = io.StringIO(canonical_dumps(element_to_json(x)))
    out, err = io.StringIO(), io.StringIO()
    code = run(["antipode"], stdin=stdin, stdout=out, stderr=err)
    assert code == 0 and not err.getvalue()
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
