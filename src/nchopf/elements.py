"""Sparse linear combinations over the graded bases.

An ``AlgebraElement`` is a finite map from basis indices to exact cyclotomic
scalars, with all indices sharing one basis tag and one prime q (the scalar
conductor equals q).  Mixed grades are allowed; every operation extends
bilinearly.  ``TensorElement`` is the same with ordered pairs of indices.
Both are ``LinearCombination``s, which own term validation, sums, scaling,
equality and hashing.  Every sum of images, sum_i c_i * image(key_i), is one
dict pass in ``linear_combination``; ``linear_map`` applies it to an element
or a tensor, and every basis change, the antipode and ``map_tensor`` are
linear maps.

Each basis registers its structure maps (product and coproduct on basis
indices) in a module-level registry; the generic product, coproduct, counit,
and antipode dispatch through it.  A basis that is a change of basis away
from another one (chi from kappa, chi_star from kappa_star, V from U)
registers through ``register_transported`` instead: its product, coproduct
and antipode are the base basis's maps conjugated by the two basis changes.

In a basis with its own structure maps the antipode is computed grade by
grade from the coproduct: for a basis element a of grade n >= 1 with
Delta(a) = a (x) 1 + 1 (x) a + sum_j b_j (x) c_j (middle terms),

    S(a) = -a - sum_j S(b_j) * c_j,

which holds in any connected graded bialgebra.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .cyclotomic import CycRational, _integer
from .setpartitions import LabeledSetPartition, _no_ref

#: Bases indexed by labeled set partitions.  For the set-partition bases
#: (m, p, U, V) the labels are forced to 1, i.e. the q=2 arc encoding.
ARC_BASES = frozenset(
    {"kappa", "chi", "k_colored", "kappa_star", "chi_star", "m", "p", "U", "V"}
)
SET_PARTITION_BASES = frozenset({"m", "p", "U", "V"})


class UnsupportedBasisError(KeyError):
    """Raised when an operation has no rule registered for a basis tag."""


_INDICES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_INDEX_REFS = _INDICES.data


class BasisIndex:
    """A basis tag, a grade, and the indexing object of that grade.

    The indexing object is a ``LabeledSetPartition`` for the arc bases, a
    ``Permutation`` for the "M" basis, and a ``ColoredIndex`` for the colored
    monomial basis "m_colored": the type each basis registers.  Hash-consed
    like the partitions: the constructor returns the instance held under
    (basis, grade, partition) in a weak pool, validating only when it builds
    a new one.
    """

    __slots__ = ("basis", "grade", "partition", "_hash", "__weakref__")

    def __new__(cls, basis: str, grade: int, partition):
        key = (basis, grade, partition)
        idx = _INDEX_REFS.get(key, _no_ref)()
        if idx is not None:
            return idx
        if not isinstance(partition, _INDEX_TYPES.get(basis, ())):
            raise ValueError(f"{partition!r} is not an index of basis {basis!r}")
        if partition.n != grade:
            raise ValueError(f"index {partition!r} does not have grade {grade}")
        if basis in SET_PARTITION_BASES and partition.max_label() != 1:
            raise ValueError(f"basis {basis!r} is indexed by unlabeled set partitions")
        idx = object.__new__(cls)
        object.__setattr__(idx, "basis", basis)
        object.__setattr__(idx, "grade", grade)
        object.__setattr__(idx, "partition", partition)
        object.__setattr__(idx, "_hash", hash(key))
        return _INDICES.setdefault(key, idx)

    def __reduce__(self):
        return BasisIndex, (self.basis, self.grade, self.partition)

    def __setattr__(self, name, value):
        raise AttributeError("BasisIndex is immutable")

    def __eq__(self, other) -> bool:
        return self is other or (
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
#: The type of a basis's indexing objects; the arc bases share one.
_INDEX_TYPES: dict[str, type] = dict.fromkeys(ARC_BASES, LabeledSetPartition)


def register_basis(
    tag: str,
    *,
    product: ProductRule | None = None,
    coproduct: CoproductRule | None = None,
    unit_key: Callable[[], object] | None = None,
    index_type: type | None = None,
) -> None:
    if product is not None:
        _PRODUCT_RULES[tag] = product
    if coproduct is not None:
        _COPRODUCT_RULES[tag] = coproduct
    if unit_key is not None:
        _UNIT_KEYS[tag] = unit_key
    if index_type is not None:
        _INDEX_TYPES[tag] = index_type


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
    Products, coproducts and antipodes are computed in the base basis and
    changed back, so the result is the same Hopf algebra written in the basis
    ``tag``.  The two maps are looked up in the registry at call time, so a
    wrapper bound over them there (as the perfbench tracer does) sees every
    call.
    """
    _TO_BASE[tag] = to_base
    _FROM_BASE[tag] = from_base
    register_basis(tag, product=_transported_product, coproduct=_transported_coproduct)


def _transported_product(q: int, a: BasisIndex, b: BasisIndex) -> "AlgebraElement":
    to_base = _TO_BASE[a.basis]
    left = to_base(AlgebraElement._trusted(q, a.basis, {a: 1}))
    right = to_base(AlgebraElement._trusted(q, a.basis, {b: 1}))
    return _FROM_BASE[a.basis](product(left, right))


def _transported_coproduct(q: int, a: BasisIndex) -> "TensorElement":
    inner = coproduct(_TO_BASE[a.basis](AlgebraElement._trusted(q, a.basis, {a: 1})))
    return map_tensor(inner, _FROM_BASE[a.basis])


def unit_index(basis: str) -> BasisIndex:
    factory = _UNIT_KEYS.get(basis, lambda: LabeledSetPartition(0))
    return BasisIndex(basis, 0, factory())


# ---------------------------------------------------------------------------
# elements


def linear_combination(pieces: Iterable[tuple[object, Mapping]]) -> dict:
    """sum_i c_i * image_i over pairs (c_i, image_i), each image a map from
    keys to scalars, summed in one dict pass; terms that cancel are dropped."""
    acc: dict = {}
    for c, image in pieces:
        for key, d in image.items():
            value = c * d
            acc[key] = acc[key] + value if key in acc else value
    return {key: value for key, value in acc.items() if value}


def _pair_terms(left: Mapping, right: Mapping) -> dict:
    """Terms of the tensor product of two term maps."""
    return {(a, b): ca * cb for a, ca in left.items() for b, cb in right.items()}


class LinearCombination:
    """A finite map from keys to nonzero scalars in Q(zeta_q), every basis
    index in the keys carrying one basis tag; the arc bases also need labels
    below q, and colored monomials of positive grade need q - 1 colors.
    Subclasses say which indices a key holds.

    The constructor checks all of this.  Results the package computes from
    terms it already holds go through ``_trusted`` instead."""

    __slots__ = ("q", "basis", "terms")

    def __init__(self, q: int, basis: str, terms: Mapping | None = None):
        arc_basis = basis in ARC_BASES
        colored = basis == "m_colored"
        out = {}
        for key, coeff in (terms or {}).items():
            for idx in self._indices(key):
                if idx.basis != basis:
                    raise ValueError(f"index {idx!r} does not belong to basis {basis!r}")
                if arc_basis and idx.partition.max_label() >= q:
                    raise ValueError(f"index {idx!r} carries labels outside F_{q}^x")
                if colored and idx.grade and idx.partition.r != q - 1:
                    raise ValueError(f"index {idx!r} does not carry the {q - 1} colors of q = {q}")
            value = CycRational.coerce(q, coeff)
            if value:
                out[key] = value
        _SET_Q(self, q)
        _SET_BASIS(self, basis)
        _SET_TERMS(self, out)

    @classmethod
    def _trusted(cls, q: int, basis: str, terms: dict):
        """The combination with these terms, built without checks: for the
        results of structure maps and basis changes, whose indices were
        checked where they entered the program.  The caller guarantees that
        q is prime, that every index in the keys is a valid index of
        ``basis`` at q, and that every value is nonzero: a ``CycRational`` of
        conductor q, or an int, which is coerced here through the scalar
        pool.  Takes ownership of ``terms``."""
        if type(terms) is not dict:
            terms = dict(terms)
        for key, c in terms.items():
            if type(c) is not CycRational:
                terms[key] = _integer(q, c) if type(c) is int else CycRational.coerce(q, c)
        x = object.__new__(cls)
        _SET_Q(x, q)
        _SET_BASIS(x, basis)
        _SET_TERMS(x, terms)
        return x

    def __reduce__(self):
        return type(self), (self.q, self.basis, self.terms)

    @staticmethod
    def _indices(key) -> tuple[BasisIndex, ...]:
        raise NotImplementedError

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; build a new one")

    @classmethod
    def zero(cls, q: int, basis: str):
        return cls(q, basis)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def items(self):
        return self.terms.items()

    def coefficient(self, key) -> CycRational:
        return self.terms.get(key, CycRational.zero(self.q))

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.q == other.q
            and self.basis == other.basis
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.q, self.basis, frozenset(self.terms.items())))

    def _check_compatible(self, other: "LinearCombination") -> None:
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.q != other.q:
            raise ValueError(f"q mismatch: {self.q} vs {other.q}")
        if self.basis != other.basis:
            raise ValueError(f"basis mismatch: {self.basis} vs {other.basis}")

    def __add__(self, other):
        self._check_compatible(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms[key] + c if key in terms else c
        return self._trusted(self.q, self.basis, {key: c for key, c in terms.items() if c})

    def __neg__(self):
        return self._trusted(self.q, self.basis, {key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        scalar = CycRational.coerce(self.q, scalar)
        if scalar == 1:
            return self
        if not scalar:
            return self.zero(self.q, self.basis)
        return self._trusted(self.q, self.basis, {key: c * scalar for key, c in self.terms.items()})

    def __rmul__(self, scalar):
        if isinstance(scalar, (int, Fraction, CycRational)):
            return self.scale(scalar)
        return NotImplemented


# The slot setters, bypassing the immutability guard.
_SET_Q, _SET_BASIS, _SET_TERMS = (
    LinearCombination.__dict__[name].__set__ for name in ("q", "basis", "terms")
)


class AlgebraElement(LinearCombination):
    """A finite linear combination of basis indices over Q(zeta_q)."""

    __slots__ = ()

    @staticmethod
    def _indices(key: BasisIndex) -> tuple[BasisIndex]:
        return (key,)

    @classmethod
    def unit(cls, q: int, basis: str) -> "AlgebraElement":
        return cls(q, basis, {unit_index(basis): 1})

    @classmethod
    def monomial(cls, q: int, basis: str, partition, coeff=1) -> "AlgebraElement":
        return cls(q, basis, {BasisIndex(basis, partition.n, partition): coeff})

    def grades(self) -> set[int]:
        return {idx.grade for idx in self.terms}

    def __repr__(self) -> str:
        if not self.terms:
            return f"<0 in {self.basis}, q={self.q}>"
        bits = [
            f"({coeff})*{self.basis}[{idx.partition!r}]"
            for idx, coeff in sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())
        ]
        return " + ".join(bits)

    def __mul__(self, other) -> "AlgebraElement":
        if isinstance(other, AlgebraElement):
            return product(self, other)
        if isinstance(other, (int, Fraction, CycRational)):
            return self.scale(other)
        return NotImplemented


class TensorElement(LinearCombination):
    """A finite linear combination of ordered pairs of basis indices."""

    __slots__ = ()

    @staticmethod
    def _indices(key: tuple[BasisIndex, BasisIndex]) -> tuple[BasisIndex, BasisIndex]:
        left, right = key
        return left, right

    @classmethod
    def tensor(cls, x: AlgebraElement, y: AlgebraElement) -> "TensorElement":
        x._check_compatible(y)
        return cls._trusted(x.q, x.basis, _pair_terms(x.terms, y.terms))

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

    def swap(self) -> "TensorElement":
        return TensorElement._trusted(
            self.q, self.basis, {(r, l): c for (l, r), c in self.terms.items()}
        )

    def componentwise_product(self, other: "TensorElement") -> "TensorElement":
        """(a (x) b)(c (x) d) = ac (x) bd, extended bilinearly."""
        self._check_compatible(other)
        q = self.q
        pieces = (
            (c1 * c2, _pair_terms(basis_product(q, l1, l2).terms, basis_product(q, r1, r2).terms))
            for (l1, r1), c1 in self.terms.items()
            for (l2, r2), c2 in other.terms.items()
        )
        return TensorElement._trusted(q, self.basis, linear_combination(pieces))


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
    pieces = (
        (cx * cy, basis_product(x.q, ix, iy).terms)
        for ix, cx in x.terms.items()
        for iy, cy in y.terms.items()
    )
    return AlgebraElement._trusted(x.q, x.basis, linear_combination(pieces))


def coproduct(x: AlgebraElement) -> TensorElement:
    """Linear extension of the registered basis coproduct."""
    pieces = ((c, basis_coproduct(x.q, idx).terms) for idx, c in x.terms.items())
    return TensorElement._trusted(x.q, x.basis, linear_combination(pieces))


def linear_map(x: LinearCombination, target: str, image, source: str | None = None):
    """The linear map sending each key of x to ``image(key)``, a map from
    valid keys of basis ``target`` to scalars, applied to x.  The result has
    the shape of x (element or tensor) and is built without re-checking the
    keys.  With ``source`` given, x must live in that basis.

    An image holds no zero values.  A single term with coefficient 1 maps to
    ``image(key)`` itself, with no copy, so an image the caller caches (the
    table basis changes do) is shared by every result built from it, like a
    cached antipode: such an image holds only ``CycRational`` values and is
    never mutated."""
    if source is not None and x.basis != source:
        raise ValueError(f"expected an element of basis {source!r}, got {x.basis!r}")
    if len(x.terms) == 1:
        ((key, c),) = x.terms.items()
        if c == 1:
            return type(x)._trusted(x.q, target, image(key))
    terms = linear_combination((c, image(key)) for key, c in x.terms.items())
    return type(x)._trusted(x.q, target, terms)


def map_tensor(
    t: TensorElement, f: Callable[[AlgebraElement], AlgebraElement]
) -> TensorElement:
    """(f (x) f)(t) for a linear map f, applied one basis index at a time."""

    def image(key):
        return _pair_terms(
            *(f(AlgebraElement._trusted(t.q, t.basis, {idx: 1})).terms for idx in key)
        )

    return linear_map(t, f(AlgebraElement.zero(t.q, t.basis)).basis, image)


def counit(x: AlgebraElement) -> CycRational:
    """The coefficient of the grade-0 basis element."""
    return x.coefficient(unit_index(x.basis))


_ANTIPODE_CACHE: dict[tuple[int, str], dict[BasisIndex, AlgebraElement]] = {}


def antipode(x: AlgebraElement) -> AlgebraElement:
    """The Hopf inversion, solved grade by grade from the coproduct, or
    conjugated from the base basis of a transported basis.  The antipode of
    a basis element is its cached solution itself."""
    if len(x.terms) == 1:
        ((idx, c),) = x.terms.items()
        return _antipode_basis(x.q, idx).scale(c)
    return linear_map(x, x.basis, lambda idx: _antipode_basis(x.q, idx).terms)


def _antipode_basis(q: int, idx: BasisIndex) -> AlgebraElement:
    cache = _ANTIPODE_CACHE.setdefault((q, idx.basis), {})
    cached = cache.get(idx)
    if cached is not None:
        return cached
    if idx.grade == 0:
        result = AlgebraElement._trusted(q, idx.basis, {idx: 1})
    elif idx.basis in _TO_BASE:
        # The antipode is unique, so a basis change conjugates it.
        a = AlgebraElement._trusted(q, idx.basis, {idx: 1})
        result = _FROM_BASE[idx.basis](antipode(_TO_BASE[idx.basis](a)))
    else:
        middle = (
            (
                -c,
                product(
                    _antipode_basis(q, left), AlgebraElement._trusted(q, idx.basis, {right: 1})
                ).terms,
            )
            for (left, right), c in basis_coproduct(q, idx).terms.items()
            if left.grade and right.grade
        )
        terms = linear_combination([(-1, {idx: 1}), *middle])
        result = AlgebraElement._trusted(q, idx.basis, terms)
    cache[idx] = result
    return result
