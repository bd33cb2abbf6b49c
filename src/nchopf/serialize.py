"""JSON forms for elements and tensors.

One term per basis index; the index payload depends on the basis:
arc bases carry {"n", "arcs"}, the permutation basis carries {"n", "word"},
colored monomials carry {"blocks", "colors", "r"}.  Term lists are kept in
the canonical index order so that serialization is deterministic.
"""

from __future__ import annotations

import json

from .cyclotomic import CycRational
from .duals import Permutation
from .elements import ARC_BASES, AlgebraElement, BasisIndex, TensorElement, linear_combination
from .ncsym import ColoredIndex
from .setpartitions import LabeledSetPartition, check_prime


def _index_payload(idx: BasisIndex) -> dict:
    if idx.basis in ARC_BASES:
        return idx.partition.to_json()
    if idx.basis == "M":
        return {"n": idx.grade, **idx.partition.to_json()}
    if idx.basis == "m_colored":
        return {"n": idx.grade, **idx.partition.to_json()}
    raise ValueError(f"no JSON form for basis {idx.basis!r}")


def _index_from_payload(basis: str, data: dict) -> BasisIndex:
    if basis == "M":
        partition = Permutation.from_json(data)
    elif basis == "m_colored":
        partition = ColoredIndex.from_json(data)
    else:
        partition = LabeledSetPartition.from_json(data)
    return BasisIndex(basis, partition.n, partition)


def _from_json(cls, data: dict, index_of):
    """Read an element or tensor: q and the basis tag are checked before any
    term is, and repeated indices are summed."""
    q = int(data["q"])
    check_prime(q)
    basis = data["basis"]
    if basis not in ARC_BASES | {"M", "m_colored"}:
        raise ValueError(f"no JSON form for basis {basis!r}")
    pieces = (
        (CycRational.from_json(item["coeff"]), {index_of(basis, item): 1})
        for item in data["terms"]
    )
    return cls(q, basis, linear_combination(pieces))


def element_to_json(x: AlgebraElement) -> dict:
    terms = []
    for idx in sorted(x.terms, key=BasisIndex.sort_key):
        payload = _index_payload(idx)
        payload["coeff"] = x.terms[idx].to_json()
        terms.append(payload)
    return {"q": x.q, "basis": x.basis, "terms": terms}


def element_from_json(data: dict) -> AlgebraElement:
    return _from_json(AlgebraElement, data, _index_from_payload)


def tensor_to_json(t: TensorElement) -> dict:
    terms = []
    ordered = sorted(t.terms, key=lambda pair: (pair[0].sort_key(), pair[1].sort_key()))
    for left, right in ordered:
        terms.append(
            {
                "left": _index_payload(left),
                "right": _index_payload(right),
                "coeff": t.terms[(left, right)].to_json(),
            }
        )
    return {"q": t.q, "basis": t.basis, "terms": terms}


def tensor_from_json(data: dict) -> TensorElement:
    def pair_of(basis: str, item: dict) -> tuple[BasisIndex, BasisIndex]:
        return _index_from_payload(basis, item["left"]), _index_from_payload(basis, item["right"])

    return _from_json(TensorElement, data, pair_of)


def canonical_dumps(data) -> str:
    """Deterministic text form: sorted keys, no insignificant whitespace."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))
