"""Sparse linear combinations over the graded bases.

An ``AlgebraElement`` is a finite map from basis indices to exact cyclotomic
scalars, with all indices sharing one basis tag and one prime q (the scalar
conductor equals q).  Mixed grades are allowed; every operation extends
bilinearly.  ``TensorElement`` is the same with ordered pairs of indices.

Each basis registers its structure maps (product and coproduct on basis
indices) in a module-level registry; the generic product, coproduct, counit,
and antipode dispatch through it.  A basis that is a change of basis away
from another one (chi from kappa, chi_star from kappa_star, V from U)
registers through ``register_transported`` instead: its maps are the base
basis's maps conjugated by the two basis changes.

The antipode is computed grade by grade from the coproduct: for a basis
element a of grade n >= 1 with
Delta(a) = a (x) 1 + 1 (x) a + sum_j b_j (x) c_j (middle terms),

    S(a) = -a - sum_j S(b_j) * c_j,

which holds in any connected graded bialgebra.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping

from .cyclotomic import CycRational
from .setpartitions import LabeledSetPartition

#: Bases indexed by labeled set partitions.  For the set-partition bases
#: (m, p, U, V) the labels are forced to 1, i.e. the q=2 arc encoding.
ARC_BASES = frozenset(
    {"kappa", "chi", "k_colored", "kappa_star", "chi_star", "m", "p", "U", "V"}
)
SET_PARTITION_BASES = frozenset({"m", "p", "U", "V"})


class UnsupportedBasisError(KeyError):
    """Raised when an operation has no rule registered for a basis tag."""


class BasisIndex:
    """A basis tag, a grade, and the indexing object of that grade.

    The indexing object is a ``LabeledSetPartition`` for the arc bases, a
    ``Permutation`` for the "M" basis, and a ``ColoredIndex`` for the colored
    monomial basis "m_colored".
    """

    __slots__ = ("basis", "grade", "partition", "_hash")

    def __init__(self, basis: str, grade: int, partition):
        if getattr(partition, "n", None) != grade:
            raise ValueError(f"index {partition!r} does not have grade {grade}")
        if basis in SET_PARTITION_BASES and partition.max_label() != 1:
            raise ValueError(f"basis {basis!r} is indexed by unlabeled set partitions")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "grade", grade)
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "_hash", hash((basis, grade, partition)))

    def __setattr__(self, name, value):
        raise AttributeError("BasisIndex is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BasisIndex)
            and self.basis == other.basis
            and self.grade == other.grade
            and self.partition == other.partition
        )

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "BasisIndex") -> bool:
        return self.sort_key() < other.sort_key()

    def sort_key(self) -> tuple:
        return (self.grade, self.partition.sort_key(), self.basis)

    def __repr__(self) -> str:
        return f"BasisIndex({self.basis}, {self.partition!r})"


# ---------------------------------------------------------------------------
# basis registry

ProductRule = Callable[[int, BasisIndex, BasisIndex], "AlgebraElement"]
CoproductRule = Callable[[int, BasisIndex], "TensorElement"]

_PRODUCT_RULES: dict[str, ProductRule] = {}
_COPRODUCT_RULES: dict[str, CoproductRule] = {}
_UNIT_KEYS: dict[str, Callable[[], object]] = {}


def register_basis(
    tag: str,
    *,
    product: ProductRule | None = None,
    coproduct: CoproductRule | None = None,
    unit_key: Callable[[], object] | None = None,
) -> None:
    if product is not None:
        _PRODUCT_RULES[tag] = product
    if coproduct is not None:
        _COPRODUCT_RULES[tag] = coproduct
    if unit_key is not None:
        _UNIT_KEYS[tag] = unit_key


_TO_BASE: dict[str, Callable[["AlgebraElement"], "AlgebraElement"]] = {}
_FROM_BASE: dict[str, Callable[["AlgebraElement"], "AlgebraElement"]] = {}


def register_transported(
    tag: str,
    to_base: Callable[["AlgebraElement"], "AlgebraElement"],
    from_base: Callable[["AlgebraElement"], "AlgebraElement"],
) -> None:
    """Give a basis the structure maps carried over from another basis.

    ``to_base`` changes an element of ``tag`` into the base basis and
    ``from_base`` changes back; both must be linear and mutually inverse.
    Products and coproducts are computed in the base basis and changed back,
    so the result is the same algebra written in the basis ``tag``.  The two
    maps are looked up in the registry at call time, so a wrapper bound over
    them there (as the perfbench tracer does) sees every call.
    """
    _TO_BASE[tag] = to_base
    _FROM_BASE[tag] = from_base
    register_basis(tag, product=_transported_product, coproduct=_transported_coproduct)


def _transported_product(q: int, a: BasisIndex, b: BasisIndex) -> "AlgebraElement":
    to_base = _TO_BASE[a.basis]
    left = to_base(AlgebraElement(q, a.basis, {a: 1}))
    right = to_base(AlgebraElement(q, a.basis, {b: 1}))
    return _FROM_BASE[a.basis](product(left, right))


def _transported_coproduct(q: int, a: BasisIndex) -> "TensorElement":
    inner = coproduct(_TO_BASE[a.basis](AlgebraElement(q, a.basis, {a: 1})))
    return map_tensor(inner, _FROM_BASE[a.basis])


def unit_index(basis: str) -> BasisIndex:
    factory = _UNIT_KEYS.get(basis, lambda: LabeledSetPartition(0))
    return BasisIndex(basis, 0, factory())


# ---------------------------------------------------------------------------
# elements


def _normalize_terms(q: int, basis: str, terms: Mapping) -> dict[BasisIndex, CycRational]:
    out: dict[BasisIndex, CycRational] = {}
    for idx, coeff in terms.items():
        if idx.basis != basis:
            raise ValueError(f"index {idx!r} does not belong to basis {basis!r}")
        if basis in ARC_BASES and idx.partition.max_label() >= q:
            raise ValueError(f"index {idx!r} carries labels outside F_{q}^x")
        value = CycRational.coerce(q, coeff)
        if value:
            out[idx] = value
    return out


class AlgebraElement:
    """A finite linear combination of basis indices over Q(zeta_q)."""

    __slots__ = ("q", "basis", "terms")

    def __init__(self, q: int, basis: str, terms: Mapping | None = None):
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "terms", _normalize_terms(q, basis, terms or {}))

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable; build a new one")

    # -- constructors

    @classmethod
    def zero(cls, q: int, basis: str) -> "AlgebraElement":
        return cls(q, basis)

    @classmethod
    def unit(cls, q: int, basis: str) -> "AlgebraElement":
        return cls(q, basis, {unit_index(basis): 1})

    @classmethod
    def monomial(cls, q: int, basis: str, partition, coeff=1) -> "AlgebraElement":
        return cls(q, basis, {BasisIndex(basis, partition.n, partition): coeff})

    # -- inspection

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, idx: BasisIndex) -> CycRational:
        return self.terms.get(idx, CycRational.zero(self.q))

    def items(self):
        return self.terms.items()

    def grades(self) -> set[int]:
        return {idx.grade for idx in self.terms}

    def graded_component(self, n: int) -> "AlgebraElement":
        return AlgebraElement(
            self.q, self.basis, {idx: c for idx, c in self.terms.items() if idx.grade == n}
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and self.q == other.q
            and self.basis == other.basis
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.q, self.basis, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return f"<0 in {self.basis}, q={self.q}>"
        bits = [
            f"({coeff})*{self.basis}[{idx.partition!r}]"
            for idx, coeff in sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())
        ]
        return " + ".join(bits)

    # -- linear structure

    def _check_compatible(self, other: "AlgebraElement") -> None:
        if self.q != other.q:
            raise ValueError(f"q mismatch: {self.q} vs {other.q}")
        if self.basis != other.basis:
            raise ValueError(f"basis mismatch: {self.basis} vs {other.basis}")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_compatible(other)
        terms = dict(self.terms)
        for idx, c in other.terms.items():
            terms[idx] = terms[idx] + c if idx in terms else c
        return AlgebraElement(self.q, self.basis, terms)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.q, self.basis, {idx: -c for idx, c in self.terms.items()})

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def scale(self, scalar) -> "AlgebraElement":
        scalar = CycRational.coerce(self.q, scalar)
        return AlgebraElement(
            self.q, self.basis, {idx: c * scalar for idx, c in self.terms.items()}
        )

    def __rmul__(self, scalar) -> "AlgebraElement":
        if isinstance(scalar, (int, Fraction, CycRational)):
            return self.scale(scalar)
        return NotImplemented

    def __mul__(self, other) -> "AlgebraElement":
        if isinstance(other, AlgebraElement):
            return product(self, other)
        if isinstance(other, (int, Fraction, CycRational)):
            return self.scale(other)
        return NotImplemented


class TensorElement:
    """A finite linear combination of ordered pairs of basis indices."""

    __slots__ = ("q", "basis", "terms")

    def __init__(self, q: int, basis: str, terms: Mapping | None = None):
        out: dict[tuple[BasisIndex, BasisIndex], CycRational] = {}
        for (left, right), coeff in (terms or {}).items():
            if left.basis != basis or right.basis != basis:
                raise ValueError(f"tensor factors must live in basis {basis!r}")
            value = CycRational.coerce(q, coeff)
            if value:
                out[(left, right)] = value
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "terms", out)

    def __setattr__(self, name, value):
        raise AttributeError("TensorElement is immutable; build a new one")

    @classmethod
    def zero(cls, q: int, basis: str) -> "TensorElement":
        return cls(q, basis)

    @classmethod
    def tensor(cls, x: AlgebraElement, y: AlgebraElement) -> "TensorElement":
        if x.q != y.q or x.basis != y.basis:
            raise ValueError("tensor factors must share q and basis")
        terms = {}
        for li, lc in x.terms.items():
            for ri, rc in y.terms.items():
                terms[(li, ri)] = lc * rc
        return cls(x.q, x.basis, terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def items(self):
        return self.terms.items()

    def coefficient(self, left: BasisIndex, right: BasisIndex) -> CycRational:
        return self.terms.get((left, right), CycRational.zero(self.q))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TensorElement)
            and self.q == other.q
            and self.basis == other.basis
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.q, self.basis, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return f"<0 in {self.basis} (x) {self.basis}, q={self.q}>"
        bits = [
            f"({coeff})*{l.partition!r} (x) {r.partition!r}"
            for (l, r), coeff in sorted(
                self.terms.items(), key=lambda kv: (kv[0][0].sort_key(), kv[0][1].sort_key())
            )
        ]
        return " + ".join(bits)

    def _check_compatible(self, other: "TensorElement") -> None:
        if self.q != other.q or self.basis != other.basis:
            raise ValueError("tensor elements are not compatible")

    def __add__(self, other: "TensorElement") -> "TensorElement":
        self._check_compatible(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms[key] + c if key in terms else c
        return TensorElement(self.q, self.basis, terms)

    def __neg__(self) -> "TensorElement":
        return TensorElement(self.q, self.basis, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        return self + (-other)

    def scale(self, scalar) -> "TensorElement":
        scalar = CycRational.coerce(self.q, scalar)
        return TensorElement(self.q, self.basis, {k: c * scalar for k, c in self.terms.items()})

    def __rmul__(self, scalar) -> "TensorElement":
        if isinstance(scalar, (int, Fraction, CycRational)):
            return self.scale(scalar)
        return NotImplemented

    def swap(self) -> "TensorElement":
        return TensorElement(
            self.q, self.basis, {(r, l): c for (l, r), c in self.terms.items()}
        )

    def componentwise_product(self, other: "TensorElement") -> "TensorElement":
        """(a (x) b)(c (x) d) = ac (x) bd, extended bilinearly."""
        self._check_compatible(other)
        acc: dict[tuple[BasisIndex, BasisIndex], CycRational] = {}
        for (l1, r1), c1 in self.terms.items():
            for (l2, r2), c2 in other.terms.items():
                scalar = c1 * c2
                left = basis_product(self.q, l1, l2)
                right = basis_product(self.q, r1, r2)
                for li, lc in left.terms.items():
                    for ri, rc in right.terms.items():
                        key = (li, ri)
                        value = lc * rc * scalar
                        acc[key] = acc[key] + value if key in acc else value
        return TensorElement(self.q, self.basis, acc)


# ---------------------------------------------------------------------------
# generic Hopf operations


def basis_product(q: int, a: BasisIndex, b: BasisIndex) -> AlgebraElement:
    rule = _PRODUCT_RULES.get(a.basis)
    if rule is None:
        raise UnsupportedBasisError(f"no product rule registered for basis {a.basis!r}")
    return rule(q, a, b)


def basis_coproduct(q: int, a: BasisIndex) -> TensorElement:
    rule = _COPRODUCT_RULES.get(a.basis)
    if rule is None:
        raise UnsupportedBasisError(f"no coproduct rule registered for basis {a.basis!r}")
    return rule(q, a)


def product(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Bilinear extension of the registered basis product."""
    x._check_compatible(y)
    acc: dict[BasisIndex, CycRational] = {}
    for ix, cx in x.terms.items():
        for iy, cy in y.terms.items():
            scalar = cx * cy
            for idx, c in basis_product(x.q, ix, iy).terms.items():
                value = c * scalar
                acc[idx] = acc[idx] + value if idx in acc else value
    return AlgebraElement(x.q, x.basis, acc)


def coproduct(x: AlgebraElement) -> TensorElement:
    """Linear extension of the registered basis coproduct."""
    acc: dict[tuple[BasisIndex, BasisIndex], CycRational] = {}
    for idx, c in x.terms.items():
        for key, d in basis_coproduct(x.q, idx).terms.items():
            value = c * d
            acc[key] = acc[key] + value if key in acc else value
    return TensorElement(x.q, x.basis, acc)


def map_tensor(
    t: TensorElement, f: Callable[[AlgebraElement], AlgebraElement]
) -> TensorElement:
    """(f (x) f)(t) for a linear map f, applied one basis index at a time."""
    out = None
    for (left, right), c in t.terms.items():
        piece = TensorElement.tensor(
            f(AlgebraElement(t.q, t.basis, {left: 1})),
            f(AlgebraElement(t.q, t.basis, {right: 1})),
        ).scale(c)
        out = piece if out is None else out + piece
    if out is None:
        return TensorElement.zero(t.q, f(AlgebraElement.zero(t.q, t.basis)).basis)
    return out


def counit(x: AlgebraElement) -> CycRational:
    """The coefficient of the grade-0 basis element."""
    return x.coefficient(unit_index(x.basis))


_ANTIPODE_CACHE: dict[tuple[int, str], dict[BasisIndex, AlgebraElement]] = {}


def antipode(x: AlgebraElement) -> AlgebraElement:
    """The Hopf inversion, solved grade by grade from the coproduct."""
    out = AlgebraElement.zero(x.q, x.basis)
    for idx, c in x.terms.items():
        out = out + _antipode_basis(x.q, idx).scale(c)
    return out


def _antipode_basis(q: int, idx: BasisIndex) -> AlgebraElement:
    cache = _ANTIPODE_CACHE.setdefault((q, idx.basis), {})
    cached = cache.get(idx)
    if cached is not None:
        return cached
    if idx.grade == 0:
        result = AlgebraElement(q, idx.basis, {idx: 1})
    else:
        result = -AlgebraElement(q, idx.basis, {idx: 1})
        for (left, right), c in basis_coproduct(q, idx).terms.items():
            if left.grade == 0 or right.grade == 0:
                continue
            middle = product(
                _antipode_basis(q, left), AlgebraElement(q, idx.basis, {right: 1})
            )
            result = result - middle.scale(c)
    cache[idx] = result
    return result
