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

The map ``ch`` identifies the superclass-function algebra with this picture:
kappa indices map to m (q = 2) or k (q > 2) indices with the same labeled
partition (``elements.retag``), and it is a Hopf isomorphism onto the span
of m or k (the paper's main theorem).  m <-> p is Moebius inversion over
the coarsenings, one ``elements.lattice_change`` each way.  So the k
basis carries kappa's product and coproduct rules, and its antipode follows
from them.  Every coproduct of m, p and k is kappa's: restriction to every
union of blocks (``superfunctions._kappa_coproduct``).  m's product is
kappa's at q = 2, where the only label is 1, with its coefficients read at
the element's q: the arc from the last member of a block of the first factor
to the first member of a block of the second merges the two blocks.  p's
product is concatenation.  Expanding into colored monomials, operating there
and collecting back (``via_colored_m``) is the reference that the tests and
the iso suite compare k, and m at q = 2, against: the colored monomials keep
rules of their own (``_merged_partitions`` and ``_block_subset_splits``), so
``ch`` is never checked against kappa's rules themselves.  Closure of the
k-span is checked at collection time.
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
    lattice_change,
    linear_map,
    register_basis,
    retag,
)
from .setpartitions import (
    LabeledSetPartition,
    SetPartition,
    _Value,
    _labeled,
    _no_ref,
    _set_partition,
    arc_encoding,
    check_ints,
    check_prime,
    coarsenings,
    concat,
    json_int,
    json_list,
    partition_mobius,
    underlying_set_partition,
)
from .superfunctions import _kappa_coproduct, _kappa_product


# ---------------------------------------------------------------------------
# colored indices and the field/color identification


_COLORED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_COLORED_REFS = _COLORED.data


def _colored_index(partition: SetPartition, colors: tuple[int, ...], r: int) -> "ColoredIndex":
    """The shared colored index, built without checks: for indices derived
    from valid ones.  The caller guarantees one color in [0, r) per position
    of the partition; the empty index is normalized to r = 1 here."""
    if not colors:
        r = 1
    key = (partition, colors, r)
    idx = _COLORED_REFS.get(key, _no_ref)()
    if idx is None:
        idx = object.__new__(ColoredIndex)
        object.__setattr__(idx, "partition", partition)
        object.__setattr__(idx, "colors", colors)
        object.__setattr__(idx, "r", r)
        object.__setattr__(idx, "_hash", hash(key))
        idx = _COLORED.setdefault(key, idx)
    return idx


class ColoredIndex(_Value):
    """A set partition of [n] with one color (an exponent mod r) per position.

    Hash-consed: the constructor reduces the colors mod r (the empty index
    takes r = 1, shared by every color group), checks their number, and
    returns the instance held under (partition, colors, r) in a weak pool.
    """

    __slots__ = ("partition", "colors", "r", "_hash", "__weakref__")
    _fields = ("partition", "colors", "r")

    def __new__(cls, partition: SetPartition, colors: Iterable[int], r: int):
        colors = tuple(colors)
        check_ints("a color or the color group order", (*colors, r))
        if r < 1:
            raise ValueError(f"color group order must be >= 1, got {r}")
        colors = tuple(c % r for c in colors)
        if len(colors) != partition.n:
            raise ValueError(f"expected {partition.n} colors, got {len(colors)}")
        return _colored_index(partition, colors, r)

    @property
    def n(self) -> int:
        return self.partition.n

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
        blocks = [json_list(b, "a block") for b in json_list(data["blocks"], "blocks")]
        blocks = [tuple(json_int(i, "a block member") for i in b) for b in blocks]
        colors = [json_int(c, "a color") for c in json_list(data["colors"], "colors")]
        n = sum(len(b) for b in blocks)
        return cls(SetPartition(n, blocks), colors, json_int(data["r"], "r"))


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
    """kappa's product at q = 2, where the only label is 1 and adding an arc
    from a block of a to a block of b merges the two; the coefficients are
    read at q."""
    return AlgebraElement._trusted(q, "m", dict.fromkeys(_kappa_product(2, a, b).terms, 1))


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


def _concat_product(q: int, a: BasisIndex, b: BasisIndex) -> AlgebraElement:
    """Concatenation: b's arcs placed to the right of a's, in the tag of a."""
    lam = concat(a.partition, b.partition)
    return AlgebraElement._trusted(q, a.basis, {BasisIndex(a.basis, lam.n, lam): 1})


# kappa's restriction rule, with the keys in the m and p tags (see the
# module docstring)
register_basis("m", product=_m_product, coproduct=_kappa_coproduct)
register_basis("p", product=_concat_product, coproduct=_kappa_coproduct)


def m_to_p(x: AlgebraElement) -> AlgebraElement:
    """Moebius inversion of p_to_m: m of a partition is the sum over its
    coarsenings of mu(partition, coarsening) times p."""
    return lattice_change(x, "m", "p", coarsenings, partition_mobius)


def p_to_m(x: AlgebraElement) -> AlgebraElement:
    """p of a partition is the sum of m over all its coarsenings."""
    return lattice_change(x, "p", "m", coarsenings, lambda finer, coarser: 1)


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
               unit_key=lambda: ColoredIndex(SetPartition(0, []), (), 1), index_type=ColoredIndex)


# ---------------------------------------------------------------------------
# the k basis: structure maps, and the colored expansion as their reference


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


def collect_k(x: AlgebraElement | TensorElement, q: int) -> AlgebraElement | TensorElement:
    """Rewrite a colored-monomial element or tensor on the k basis,
    verifying membership in the span of k (or of k (x) k)."""
    if x.basis != "m_colored" or x.q != q:
        raise ValueError(
            f"expected colored monomials at q = {q}, got basis {x.basis!r} at q = {x.q}"
        )
    return _collect_k(x, q, "k_colored")


def _collect_k(
    x: AlgebraElement | TensorElement, q: int, tag: str
) -> AlgebraElement | TensorElement:
    """``collect_k`` on an input already known to be colored monomials at q,
    with the keys written in ``tag``.  Keys are handled as tuples of indices
    (one for an element, two for a tensor): they are grouped by their tuple
    of labeled partitions, and each group must be exactly that tuple's
    expansion, with one coefficient."""
    tensor = isinstance(x, TensorElement)
    groups: dict[tuple, dict[tuple, CycRational]] = {}
    for key, coeff in x.terms.items():
        indices = key if tensor else (key,)
        lams = tuple(_labeled_from_colored(idx.partition, q) for idx in indices)
        groups.setdefault(lams, {})[indices] = coeff
    terms = {}
    for lams, present in groups.items():
        expected = itertools.product(*(expand_k_in_colored_m(lam, q).terms for lam in lams))
        coeffs = set(present.values())
        if present.keys() != set(expected) or len(coeffs) != 1:
            near = " (x) ".join(repr(lam) for lam in lams)
            raise ValueError(f"{type(x).__name__} is not in the span of the labeled basis near {near}")
        key = tuple(BasisIndex(tag, lam.n, lam) for lam in lams)
        terms[key if tensor else key[0]] = coeffs.pop()
    return type(x)._trusted(q, tag, terms)


def via_colored_m(op, *xs: AlgebraElement) -> AlgebraElement | TensorElement:
    """The reference for a structure map of k, and at q = 2 of m: ``op``
    (product, coproduct or antipode) applied to the colored-monomial
    expansions of xs, and the result collected back into their tag.  At
    q = 2 every label is 1, so an m index expands as the k index of the same
    arc encoding, into the one colored monomial of its partition."""
    q, tag = xs[0].q, xs[0].basis

    def image(idx: BasisIndex) -> dict:
        return expand_k_in_colored_m(idx.partition, q).terms

    return _collect_k(op(*(linear_map(x, "m_colored", image, source=tag) for x in xs)), q, tag)


# kappa's rules, with the keys in the k tag (see the module docstring)
register_basis("k_colored", product=_kappa_product, coproduct=_kappa_coproduct)


def k_element(q: int, lam: LabeledSetPartition, coeff=1) -> AlgebraElement:
    return AlgebraElement.monomial(q, "k_colored", lam, coeff)


# ---------------------------------------------------------------------------
# the characteristic map out of the superclass-function algebra


def ch(x: AlgebraElement) -> AlgebraElement:
    """Send each kappa index to the m index of its underlying partition when
    q = 2, and to the k index with the same labeled partition when q > 2."""
    if x.basis != "kappa":
        raise ValueError(f"ch is defined on kappa elements, got basis {x.basis!r}")
    # at q = 2 every label is 1, so a kappa index is its own arc encoding
    return retag(x, "m" if x.q == 2 else "k_colored")


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
