"""Symmetric functions in noncommuting variables, plain and colored.

Three layers:

* the monomial basis m (tag "m") and the coarsening-sum basis p (tag "p"),
  both indexed by set partitions (stored in the labels-1 arc encoding);
* the colored monomial basis (tag "m_colored"), indexed by a set partition
  plus one color per position from a cyclic group of order r;
* the labeled basis k (tag "k_colored"), indexed by labeled set partitions:
  k of a labeled partition is the sum of colored monomials on its underlying
  partition whose color differences along arcs match the arc labels through
  a fixed identification of the nonzero field residues with the color group
  (smallest primitive root mod q as generator, r = q - 1).

The k product and coproduct are computed by expanding into colored monomials,
operating there, and collecting back; closure of the k-span is checked at
collection time.  The map ``ch`` identifies the superclass-function algebra
with this picture: kappa indices map to m (q = 2) or k (q > 2) indices.
"""

from __future__ import annotations

import functools
import itertools
import types
import weakref
from collections import Counter
from typing import Iterable, Mapping

from .cyclotomic import CycRational
from .elements import (
    AlgebraElement,
    BasisIndex,
    TensorElement,
    coproduct,
    linear_map,
    product,
    register_basis,
)
from .setpartitions import (
    LabeledSetPartition,
    SetPartition,
    _labeled,
    _set_partition,
    arc_encoding,
    check_prime,
    coarsenings,
    concat_set_partitions,
    partition_mobius,
    underlying_set_partition,
)


# ---------------------------------------------------------------------------
# colored indices and the field/color identification


_COLORED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _colored_index(partition: SetPartition, colors: tuple[int, ...], r: int) -> "ColoredIndex":
    """The shared colored index, built without checks: for indices derived
    from valid ones.  The caller guarantees one color in [0, r) per position
    of the partition; the empty index is normalized to r = 1 here."""
    if not colors:
        r = 1
    key = (partition, colors, r)
    idx = _COLORED.get(key)
    if idx is None:
        idx = object.__new__(ColoredIndex)
        object.__setattr__(idx, "partition", partition)
        object.__setattr__(idx, "colors", colors)
        object.__setattr__(idx, "r", r)
        object.__setattr__(idx, "_hash", hash(key))
        idx = _COLORED.setdefault(key, idx)
    return idx


class ColoredIndex:
    """A set partition of [n] with one color (an exponent mod r) per position.

    Hash-consed: the constructor reduces the colors mod r (the empty index
    takes r = 1, shared by every color group), checks their number, and
    returns the instance held under (partition, colors, r) in a weak pool.
    """

    __slots__ = ("partition", "colors", "r", "_hash", "__weakref__")

    def __new__(cls, partition: SetPartition, colors: Iterable[int], r: int):
        if r < 1:
            raise ValueError(f"color group order must be >= 1, got {r}")
        colors = tuple(int(c) % r for c in colors)
        if len(colors) != partition.n:
            raise ValueError(f"expected {partition.n} colors, got {len(colors)}")
        return _colored_index(partition, colors, r)

    def __reduce__(self):
        return ColoredIndex, (self.partition, self.colors, self.r)

    def __setattr__(self, name, value):
        raise AttributeError("ColoredIndex is immutable")

    @property
    def n(self) -> int:
        return self.partition.n

    def max_label(self) -> int:
        return 1

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, ColoredIndex)
            and self.partition == other.partition
            and self.colors == other.colors
            and self.r == other.r
        )

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "ColoredIndex") -> bool:
        return self.sort_key() < other.sort_key()

    def sort_key(self) -> tuple:
        return (self.partition.n, self.partition.blocks, self.colors)

    def __repr__(self) -> str:
        return f"ColoredIndex({self.partition.to_text()!r}, colors={list(self.colors)}, r={self.r})"

    def to_json(self) -> dict:
        return {
            "blocks": [list(b) for b in self.partition.blocks],
            "colors": list(self.colors),
            "r": self.r,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ColoredIndex":
        blocks = [tuple(b) for b in data["blocks"]]
        n = sum(len(b) for b in blocks)
        return cls(SetPartition(n, blocks), data["colors"], int(data["r"]))


@functools.cache
def primitive_root(q: int) -> int:
    """The smallest generator of the multiplicative group mod q, computed
    once per prime."""
    check_prime(q)
    if q == 2:
        return 1
    for g in range(2, q):
        seen = set()
        x = 1
        for _ in range(q - 1):
            x = (x * g) % q
            seen.add(x)
        if len(seen) == q - 1:
            return g
    raise AssertionError(f"no primitive root found for prime {q}")


@functools.cache
def discrete_log_table(q: int) -> Mapping[int, int]:
    """Exponents identifying the nonzero residues mod q with Z/(q-1),
    computed once per prime and shared as a read-only mapping."""
    g = primitive_root(q)
    table = {}
    x = 1
    for e in range(q - 1):
        table[x] = e
        x = (x * g) % q
    return types.MappingProxyType(table)


# ---------------------------------------------------------------------------
# the m and p bases (set partitions, labels-1 arc encoding)


def _partition_of(idx: BasisIndex) -> SetPartition:
    return underlying_set_partition(idx.partition)


def m_element(q: int, sp: SetPartition, coeff=1) -> AlgebraElement:
    return AlgebraElement.monomial(q, "m", arc_encoding(sp), coeff)


def p_element(q: int, sp: SetPartition, coeff=1) -> AlgebraElement:
    return AlgebraElement.monomial(q, "p", arc_encoding(sp), coeff)


def _merged_partitions(lam: SetPartition, mu: SetPartition):
    """Partitions of [lam.n + mu.n] whose restriction to the two intervals is
    exactly lam | mu: one per partial matching of lam-blocks with mu-blocks."""
    shifted = [tuple(i + lam.n for i in block) for block in mu.blocks]
    la, lb = len(lam.blocks), len(shifted)
    n = lam.n + mu.n
    for s in range(min(la, lb) + 1):
        for chosen in itertools.combinations(range(la), s):
            for targets in itertools.permutations(range(lb), s):
                match = dict(zip(chosen, targets))
                # lam's blocks keep their order and precede the unmatched
                # shifted blocks, whose minima all exceed lam.n
                blocks = tuple(
                    block + shifted[match[i]] if i in match else block
                    for i, block in enumerate(lam.blocks)
                ) + tuple(b for j, b in enumerate(shifted) if j not in targets)
                yield _set_partition(n, blocks)


def _m_product(q: int, a: BasisIndex, b: BasisIndex) -> AlgebraElement:
    terms = {}
    for nu in _merged_partitions(_partition_of(a), _partition_of(b)):
        idx = BasisIndex("m", nu.n, arc_encoding(nu))
        if idx in terms:
            raise AssertionError(f"monomial product produced {idx!r} twice")
        terms[idx] = 1
    return AlgebraElement._trusted(q, "m", terms)


def _block_subset_splits(sp: SetPartition):
    """All splits of the blocks into (selected, complement), each side
    relabeled onto an initial segment and paired with its source positions."""
    blocks = sp.blocks
    for size in range(len(blocks) + 1):
        for chosen in itertools.combinations(range(len(blocks)), size):
            chosen_set = set(chosen)
            yield (
                _standardize_blocks([blocks[i] for i in chosen]),
                _standardize_blocks(
                    [blocks[i] for i in range(len(blocks)) if i not in chosen_set]
                ),
            )


def _standardize_blocks(blocks: list[tuple[int, ...]]) -> tuple[SetPartition, list[int]]:
    """The blocks relabeled onto [1, k] in order, and the sorted positions
    they came from."""
    ground = sorted(i for block in blocks for i in block)
    relabel = {pos: r + 1 for r, pos in enumerate(ground)}
    # relabeling is increasing, so blocks stay increasing and ordered by minima
    relabeled = tuple(tuple(relabel[i] for i in block) for block in blocks)
    return _set_partition(len(ground), relabeled), ground


def _split_coproduct(q: int, a: BasisIndex, tag: str) -> TensorElement:
    terms = Counter(
        (BasisIndex(tag, left.n, arc_encoding(left)), BasisIndex(tag, right.n, arc_encoding(right)))
        for (left, _), (right, _) in _block_subset_splits(_partition_of(a))
    )
    return TensorElement._trusted(q, tag, terms)


def _p_product(q: int, a: BasisIndex, b: BasisIndex) -> AlgebraElement:
    merged = concat_set_partitions(_partition_of(a), _partition_of(b))
    return AlgebraElement._trusted(q, "p", {BasisIndex("p", merged.n, arc_encoding(merged)): 1})


register_basis("m", product=_m_product, coproduct=lambda q, a: _split_coproduct(q, a, "m"))
register_basis("p", product=_p_product, coproduct=lambda q, a: _split_coproduct(q, a, "p"))


def m_to_p(x: AlgebraElement) -> AlgebraElement:
    """Moebius inversion of p_to_m: m of a partition is the sum over its
    coarsenings of mu(partition, coarsening) times p."""

    def image(idx):
        sp = _partition_of(idx)
        return {
            BasisIndex("p", sp.n, arc_encoding(coarser)): partition_mobius(sp, coarser)
            for coarser in coarsenings(sp)
        }

    return linear_map(x, "p", image, source="m")


def p_to_m(x: AlgebraElement) -> AlgebraElement:
    """p of a partition is the sum of m over all its coarsenings."""

    def image(idx):
        return {
            BasisIndex("m", idx.grade, arc_encoding(coarser)): 1
            for coarser in coarsenings(_partition_of(idx))
        }

    return linear_map(x, "m", image, source="p")


def product_m(lam: SetPartition, mu: SetPartition, q: int = 2) -> AlgebraElement:
    return product(m_element(q, lam), m_element(q, mu))


def coproduct_m(lam: SetPartition, q: int = 2) -> TensorElement:
    return coproduct(m_element(q, lam))


def product_p(lam: SetPartition, mu: SetPartition, q: int = 2) -> AlgebraElement:
    return product(p_element(q, lam), p_element(q, mu))


def coproduct_p(lam: SetPartition, q: int = 2) -> TensorElement:
    return coproduct(p_element(q, lam))


# ---------------------------------------------------------------------------
# colored monomials


def colored_element(q: int, idx: ColoredIndex, coeff=1) -> AlgebraElement:
    return AlgebraElement(q, "m_colored", {BasisIndex("m_colored", idx.n, idx): coeff})


def _colored_product(q: int, a: BasisIndex, b: BasisIndex) -> AlgebraElement:
    ia: ColoredIndex = a.partition
    ib: ColoredIndex = b.partition
    colors = ia.colors + ib.colors
    r = q - 1
    terms = {}
    for nu in _merged_partitions(ia.partition, ib.partition):
        idx = BasisIndex("m_colored", nu.n, _colored_index(nu, colors, r))
        terms[idx] = 1
    return AlgebraElement._trusted(q, "m_colored", terms)


def _colored_coproduct(q: int, a: BasisIndex) -> TensorElement:
    colors, r = a.partition.colors, a.partition.r
    terms = Counter(
        tuple(
            BasisIndex(
                "m_colored", sp.n, _colored_index(sp, tuple(colors[i - 1] for i in ground), r)
            )
            for sp, ground in sides
        )
        for sides in _block_subset_splits(a.partition.partition)
    )
    return TensorElement._trusted(q, "m_colored", terms)


register_basis("m_colored", product=_colored_product, coproduct=_colored_coproduct,
               unit_key=lambda: ColoredIndex(SetPartition(0, []), (), 1))


# ---------------------------------------------------------------------------
# the k basis: expansion, collection, structure maps


def expand_k_in_colored_m(lam: LabeledSetPartition, q: int) -> AlgebraElement:
    """One colored monomial per admissible coloring: along every arc the color
    difference equals the discrete log of the label; one free color per block,
    so a partition with t blocks expands into (q-1)^t terms."""
    dlog = discrete_log_table(q)  # checks that q is prime
    r = q - 1
    n = lam.n
    sp = underlying_set_partition(lam)
    offset = [0] * (n + 1)
    for left, right, label in lam.arcs:  # sorted by left: offsets propagate along each block
        offset[right] = (offset[left] + dlog[label]) % r
    terms = {}
    for base_colors in itertools.product(range(r), repeat=len(sp.blocks)):
        colors = [0] * n
        for block, base in zip(sp.blocks, base_colors):
            for member in block:
                colors[member - 1] = (base + offset[member]) % r
        terms[BasisIndex("m_colored", n, _colored_index(sp, tuple(colors), r))] = 1
    return AlgebraElement._trusted(q, "m_colored", terms)


def _labeled_from_colored(idx: ColoredIndex, q: int) -> LabeledSetPartition:
    """The unique labeled partition whose expansion contains this colored
    monomial: labels are exponentials of color differences along the blocks."""
    g = primitive_root(q)
    r = q - 1
    colors = idx.colors
    arcs = [
        (a, b, pow(g, (colors[b - 1] - colors[a - 1]) % r, q) if q > 2 else 1)
        for block in idx.partition.blocks
        for a, b in zip(block, block[1:])
    ]
    return _labeled(idx.n, tuple(sorted(arcs)))


def collect_k(x: AlgebraElement, q: int) -> AlgebraElement:
    """Rewrite a colored-monomial element on the k basis, verifying membership."""
    if x.basis != "m_colored" or x.q != q:
        raise ValueError(
            f"expected a colored-monomial element at q = {q}, got basis {x.basis!r} at q = {x.q}"
        )
    groups: dict[LabeledSetPartition, dict[BasisIndex, CycRational]] = {}
    for idx, coeff in x.terms.items():
        lam = _labeled_from_colored(idx.partition, q)
        groups.setdefault(lam, {})[idx] = coeff
    terms = {}
    for lam, present in groups.items():
        expected = expand_k_in_colored_m(lam, q).terms.keys()
        coeffs = set(present.values())
        if present.keys() != expected or len(coeffs) != 1:
            raise ValueError(f"element is not in the span of the labeled basis near {lam!r}")
        terms[BasisIndex("k_colored", lam.n, lam)] = coeffs.pop()
    return AlgebraElement._trusted(q, "k_colored", terms)


def collect_k_tensor(t: TensorElement, q: int) -> TensorElement:
    if t.basis != "m_colored" or t.q != q:
        raise ValueError(
            f"expected a colored-monomial tensor at q = {q}, got basis {t.basis!r} at q = {t.q}"
        )
    groups: dict[tuple, dict[tuple, CycRational]] = {}
    for (li, ri), coeff in t.terms.items():
        pair = (_labeled_from_colored(li.partition, q), _labeled_from_colored(ri.partition, q))
        groups.setdefault(pair, {})[(li, ri)] = coeff
    terms = {}
    for (lam_l, lam_r), present in groups.items():
        expected = {
            (el, er)
            for el in expand_k_in_colored_m(lam_l, q).terms
            for er in expand_k_in_colored_m(lam_r, q).terms
        }
        coeffs = set(present.values())
        if present.keys() != expected or len(coeffs) != 1:
            raise ValueError(
                f"tensor is not in the span of the labeled basis near {lam_l!r} (x) {lam_r!r}"
            )
        key = (
            BasisIndex("k_colored", lam_l.n, lam_l),
            BasisIndex("k_colored", lam_r.n, lam_r),
        )
        terms[key] = coeffs.pop()
    return TensorElement._trusted(q, "k_colored", terms)


def _k_product(q: int, a: BasisIndex, b: BasisIndex) -> AlgebraElement:
    expanded = product(
        expand_k_in_colored_m(a.partition, q), expand_k_in_colored_m(b.partition, q)
    )
    return collect_k(expanded, q)


def _k_coproduct(q: int, a: BasisIndex) -> TensorElement:
    return collect_k_tensor(coproduct(expand_k_in_colored_m(a.partition, q)), q)


register_basis("k_colored", product=_k_product, coproduct=_k_coproduct)


def k_element(q: int, lam: LabeledSetPartition, coeff=1) -> AlgebraElement:
    return AlgebraElement.monomial(q, "k_colored", lam, coeff)


def product_k(mu: LabeledSetPartition, nu: LabeledSetPartition, q: int) -> AlgebraElement:
    return product(k_element(q, mu), k_element(q, nu))


def coproduct_k(lam: LabeledSetPartition, q: int) -> TensorElement:
    return coproduct(k_element(q, lam))


# ---------------------------------------------------------------------------
# the characteristic map out of the superclass-function algebra


def ch(x: AlgebraElement) -> AlgebraElement:
    """Send each kappa index to the m index of its underlying partition when
    q = 2, and to the k index with the same labeled partition when q > 2."""
    if x.basis != "kappa":
        raise ValueError(f"ch is defined on kappa elements, got basis {x.basis!r}")
    if x.q == 2:
        terms = {
            BasisIndex("m", idx.grade, arc_encoding(underlying_set_partition(idx.partition))): c
            for idx, c in x.terms.items()
        }
        return AlgebraElement._trusted(x.q, "m", terms)
    terms = {BasisIndex("k_colored", idx.grade, idx.partition): c for idx, c in x.terms.items()}
    return AlgebraElement._trusted(x.q, "k_colored", terms)


# ---------------------------------------------------------------------------
# truncated word expansion (test utility for the monomial product)


def expand_monomials_truncated(sp: SetPartition, num_variables: int) -> set[tuple[int, ...]]:
    """All words in the given number of noncommuting variables whose
    letter-equality pattern is exactly sp (distinct blocks, distinct letters)."""
    blocks = sp.blocks
    words = set()
    for letters in itertools.permutations(range(num_variables), len(blocks)):
        word = [0] * sp.n
        for block, letter in zip(blocks, letters):
            for member in block:
                word[member - 1] = letter
        words.add(tuple(word))
    return words
