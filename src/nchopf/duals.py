"""Graded duals: the dual superclass-function algebra and its realization.

Bases:

* "kappa_star": dual to the superclass indicators under the Kronecker
  pairing.  The product embeds the two factors into every split of the new
  ground set; the coproduct restricts to each prefix [1, k] and its
  complement, discarding arcs that straddle the cut.  Commutative, not
  cocommutative.
* "chi_star": duals of the supercharacters.  The coproduct deconcatenates:
  it restricts to the prefixes no arc spans; the product and the antipode
  are converted through kappa_star.
* "M": polynomials in commuting variables x_ij subject to
  x_ij x_ik = 0 = x_ik x_jk, one basis element per permutation; the product
  relabels the cycles of the two factors into complementary subsets.
* "U": sums of M over permutations with a fixed partition of cycle supports;
  spans the dual of the noncommuting-variables algebra.
* "V": the image of kappa_star in the U realization,
  V of a partition = sum of U over its refinements.  U <-> V is Moebius
  inversion over the refinements, one ``elements.lattice_change`` each
  way, and ``dual_ch`` and its inverse ``_dual_ch_inverse`` (the CLI's
  V -> kappa_star) keep the index and change the tag (``elements.retag``),
  as the Kronecker pairings do when they read kappa_star's keys in the
  kappa tag.

The kappa_star and chi_star coproducts are sums of restrictions
(``elements.restriction_coproduct``), each over its family of prefixes.
U and V are indexed by the arc encodings of set partitions, on which the
embedding and restriction rules read the blocks as they read arcs.  So both
register kappa_star's product; U registers chi_star's deconcatenation (a
cut splits every block cleanly exactly when no arc spans it) and V
kappa_star's coproduct, since ``dual_ch`` matches V with kappa_star index
for index.  The shared rules build their keys in the tag of their
argument.  Expanding into U, operating there and changing back
(``via_U``) is the reference that the tests and the iso suite compare V
against.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterable

from .cyclotomic import CycRational
from .elements import (
    AlgebraElement,
    BasisIndex,
    TensorElement,
    lattice_change,
    linear_combination,
    map_tensor,
    product,
    register_basis,
    register_transported,
    restriction_coproduct,
    retag,
)
from .setpartitions import (
    LabeledSetPartition,
    SetPartition,
    _Value,
    _labeled,
    _set_partition,
    arc_encoding,
    check_ints,
    json_int,
    json_list,
    partition_mobius,
    refinements,
)
from .superfunctions import _table_change, chi_to_kappa, group_order, supercharacter_table


# ---------------------------------------------------------------------------
# permutations


class Permutation(_Value):
    """A permutation of [n] in one-line notation; cycles derived on demand."""

    __slots__ = ("word", "_hash")
    _fields = ("word",)

    def __init__(self, word: Iterable[int]):
        word = tuple(word)
        check_ints("a permutation entry", word)
        if sorted(word) != list(range(1, len(word) + 1)):
            raise ValueError(f"{word} is not a permutation of [1, {len(word)}]")
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "_hash", hash(word))

    @property
    def n(self) -> int:
        return len(self.word)

    def __call__(self, i: int) -> int:
        return self.word[i - 1]

    def sort_key(self) -> tuple:
        return (len(self.word), self.word)

    def __repr__(self) -> str:
        cycles = "".join(
            "(" + " ".join(str(i) for i in cycle) + ")" for cycle in self.cycles()
        )
        return f"Permutation({cycles or '()'})"

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles (fixed points included), each starting at its
        minimum, sorted by minimum."""
        seen = set()
        cycles = []
        for start in range(1, self.n + 1):
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            nxt = self(start)
            while nxt != start:
                cycle.append(nxt)
                seen.add(nxt)
                nxt = self(nxt)
            cycles.append(tuple(cycle))
        return tuple(cycles)

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Iterable[int]]) -> "Permutation":
        word = list(range(1, n + 1))
        for cycle in cycles:
            cycle = list(cycle)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                word[a - 1] = b
        return cls(word)

    def to_json(self) -> dict:
        return {"word": list(self.word)}

    @classmethod
    def from_json(cls, data: dict) -> "Permutation":
        return cls(json_int(x, "a permutation entry") for x in json_list(data["word"], "word"))


def csupp(sigma: Permutation) -> SetPartition:
    """The partition of [n] whose blocks are the supports of sigma's cycles."""
    # cycles start at their minima and come sorted by them
    return _set_partition(sigma.n, tuple(tuple(sorted(cycle)) for cycle in sigma.cycles()))


# ---------------------------------------------------------------------------
# kappa_star


def kappa_star_element(q: int, lam: LabeledSetPartition, coeff=1) -> AlgebraElement:
    return AlgebraElement.monomial(q, "kappa_star", lam, coeff)


def _kappa_star_product(q: int, a: BasisIndex, b: BasisIndex) -> AlgebraElement:
    """mu embedded along every subset of the joint ground set of its size
    and nu along the complement; the keys carry a's tag."""
    mu, nu = a.partition, b.partition
    n = mu.n + nu.n
    terms: Counter = Counter()
    for subset in itertools.combinations(range(1, n + 1), mu.n):
        members = set(subset)
        complement = tuple(i for i in range(1, n + 1) if i not in members)
        # mu embedded along subset and nu along its complement
        arcs = [(subset[l - 1], subset[r - 1], c) for l, r, c in mu.arcs]
        arcs += [(complement[l - 1], complement[r - 1], c) for l, r, c in nu.arcs]
        terms[BasisIndex(a.basis, n, _labeled(n, tuple(sorted(arcs))))] += 1
    return AlgebraElement._trusted(q, a.basis, terms)


def _prefixes(lam: LabeledSetPartition):
    """Every prefix [1, k] of the ground set, k = 0, ..., n."""
    return (tuple(range(1, k + 1)) for k in range(lam.n + 1))


def _clean_prefixes(lam: LabeledSetPartition):
    """The prefixes [1, k] that no arc of lam spans (l <= k < r)."""
    return (A for A in _prefixes(lam) if not any(l <= len(A) < r for l, r, _ in lam.arcs))


#: Restriction to every prefix: lam<=k (x) lam>k, the arcs that span the cut
#: dropped.  The keys carry the argument's tag, as do those of the two rules
#: below.
_kappa_star_coproduct = restriction_coproduct(_prefixes)

register_basis("kappa_star", product=_kappa_star_product, coproduct=_kappa_star_coproduct)


# ---------------------------------------------------------------------------
# duality pairing


def _kronecker(f: AlgebraElement | TensorElement, x: AlgebraElement | TensorElement) -> CycRational:
    """The sum over the keys that f, read in the kappa tag, shares with x of
    the products of their coefficients: kappa_star_lam pairs to 1 with
    kappa_lam alone."""
    shared = (c * x.terms[k] for k, c in retag(f, "kappa").terms.items() if k in x.terms)
    return sum(shared, CycRational.zero(x.q))


def duality_pairing(f: AlgebraElement, x: AlgebraElement) -> CycRational:
    """Bilinear extension of the Kronecker pairing of kappa_star against kappa."""
    if f.q != x.q:
        raise ValueError(f"q mismatch: {f.q} vs {x.q}")
    if f.basis not in ("kappa_star", "chi_star") or x.basis not in ("kappa", "chi"):
        raise ValueError(f"cannot pair {f.basis!r} against {x.basis!r}")
    if f.basis == "chi_star":
        f = chi_star_to_kappa_star(f)
    if x.basis == "chi":
        x = chi_to_kappa(x)
    return _kronecker(f, x)


def duality_pairing_tensor(f: TensorElement, x: TensorElement) -> CycRational:
    """Pairing of kappa_star (x) kappa_star against kappa (x) kappa."""
    if f.q != x.q or f.basis != "kappa_star" or x.basis != "kappa":
        raise ValueError("tensor pairing needs kappa_star against kappa at equal q")
    return _kronecker(f, x)


def z_scalar(mu: LabeledSetPartition, q: int) -> int:
    """Group order over superclass size: kappa_star is this multiple of kappa
    under the class-function inner product."""
    table = supercharacter_table(mu.n, q)
    return group_order(mu.n, q) // table.class_size(mu)


def chi_star_element(q: int, lam: LabeledSetPartition, coeff=1) -> AlgebraElement:
    return AlgebraElement.monomial(q, "chi_star", lam, coeff)


def chi_star_to_kappa_star(x: AlgebraElement) -> AlgebraElement:
    """Dual basis change: the dual of a supercharacter expands on kappa_star
    with the table row rescaled by superclass size times the table weight
    1 / (group order * q^crs)."""
    return _table_change(x, "chi_star")


def kappa_star_to_chi_star(x: AlgebraElement) -> AlgebraElement:
    """kappa_star_mu = sum_lam conj(chi^lam(mu)) chi_star_lam: the inverse of
    chi_star_to_kappa_star is the conjugated table column, by orthogonality."""
    return _table_change(x, "kappa_star")


#: Deconcatenation, dual to the concatenation product of the
#: supercharacters: chi_star_lam restricts to each prefix that no arc of lam
#: spans, so no arc is dropped.
_chi_star_coproduct = restriction_coproduct(_clean_prefixes)


# The product and the antipode stay transported from kappa_star; the
# coproduct is deconcatenation, with the transported one as its reference.
register_transported("chi_star", chi_star_to_kappa_star, kappa_star_to_chi_star)
register_basis("chi_star", coproduct=_chi_star_coproduct)


# ---------------------------------------------------------------------------
# the M basis


def M_element(q: int, sigma: Permutation, coeff=1) -> AlgebraElement:
    return AlgebraElement(q, "M", {BasisIndex("M", sigma.n, sigma): coeff})


def _M_product(q: int, a: BasisIndex, b: BasisIndex) -> AlgebraElement:
    alpha: Permutation = a.partition
    beta: Permutation = b.partition
    m, n = alpha.n, beta.n
    terms: Counter = Counter()
    for subset in itertools.combinations(range(1, m + n + 1), m):
        members = set(subset)
        complement = tuple(i for i in range(1, m + n + 1) if i not in members)
        word = [0] * (m + n)
        for i in range(1, m + 1):
            word[subset[i - 1] - 1] = subset[alpha(i) - 1]
        for i in range(1, n + 1):
            word[complement[i - 1] - 1] = complement[beta(i) - 1]
        terms[BasisIndex("M", m + n, Permutation(word))] += 1
    return AlgebraElement._trusted(q, "M", terms)


register_basis("M", product=_M_product, unit_key=lambda: Permutation(()), index_type=Permutation)


def product_M(alpha: Permutation, beta: Permutation, q: int = 2) -> AlgebraElement:
    return product(M_element(q, alpha), M_element(q, beta))


# ---------------------------------------------------------------------------
# the U and V bases


def U_element(q: int, sp: SetPartition, coeff=1) -> AlgebraElement:
    return AlgebraElement.monomial(q, "U", arc_encoding(sp), coeff)


def V_element(q: int, sp: SetPartition, coeff=1) -> AlgebraElement:
    return AlgebraElement.monomial(q, "V", arc_encoding(sp), coeff)


# the rules of kappa_star and chi_star, with the keys in the U and V tags
# (see the module docstring)
register_basis("U", product=_kappa_star_product, coproduct=_chi_star_coproduct)
register_basis("V", product=_kappa_star_product, coproduct=_kappa_star_coproduct)


def V_from_U(mu: SetPartition, q: int = 2) -> AlgebraElement:
    """V of a partition expands as the sum of U over all its refinements."""
    return v_to_u(V_element(q, mu))


def u_to_v(x: AlgebraElement) -> AlgebraElement:
    """Moebius inversion of v_to_u: U of a partition is the sum over its
    refinements of mu(refinement, partition) times V."""
    return lattice_change(x, "U", "V", refinements, lambda sp, finer: partition_mobius(finer, sp))


def v_to_u(x: AlgebraElement) -> AlgebraElement:
    """V of a partition is the sum of U over all its refinements."""
    return lattice_change(x, "V", "U", refinements, lambda coarser, finer: 1)


def via_U(op, *xs: AlgebraElement) -> AlgebraElement | TensorElement:
    """The reference for a structure map of V: ``op`` (product, coproduct or
    antipode) applied to the U expansions of the V elements xs, and the
    result changed back to V."""
    out = op(*map(v_to_u, xs))
    return map_tensor(out, u_to_v) if isinstance(out, TensorElement) else u_to_v(out)


def dual_ch(x: AlgebraElement) -> AlgebraElement:
    """The dual identification at q = 2: each kappa_star index maps to the V
    index of its underlying partition."""
    if x.basis != "kappa_star":
        raise ValueError(f"dual_ch is defined on kappa_star elements, got {x.basis!r}")
    if x.q != 2:
        raise ValueError("the dual identification is implemented for q = 2 only")
    # at q = 2 every label is 1, so a kappa_star index is its own arc encoding
    return retag(x, "V")


def _dual_ch_inverse(x: AlgebraElement) -> AlgebraElement:
    """The inverse of ``dual_ch``: each V index maps to the kappa_star index
    of its arc encoding, at q = 2."""
    if x.basis != "V" or x.q != 2:
        raise ValueError("conversion V -> kappa_star is defined at q = 2")
    return retag(x, "kappa_star")


# ---------------------------------------------------------------------------
# truncated realization in the x_ij variables

#: A monomial in the x_ij: a set of index pairs with pairwise distinct first
#: and pairwise distinct second coordinates (anything else is killed by the
#: defining relations, squares included).
Monomial = frozenset


def evaluate_M_truncated(sigma: Permutation, limit: int) -> dict[Monomial, int]:
    """Expand one M basis element over increasing index tuples bounded by the
    limit.  A limit below the permutation size yields the empty sum."""
    n = sigma.n
    out: dict[Monomial, int] = {}
    for rows in itertools.combinations(range(1, limit + 1), n):
        pairs = frozenset((rows[i - 1], rows[sigma(i) - 1]) for i in range(1, n + 1))
        out[pairs] = out.get(pairs, 0) + 1
    return out


def multiply_truncated(
    left: dict[Monomial, int], right: dict[Monomial, int]
) -> dict[Monomial, int]:
    """Multiply two expansions, applying the row/column vanishing relations."""
    out: dict[Monomial, int] = {}
    for mono1, c1 in left.items():
        rows1 = {i for i, _ in mono1}
        cols1 = {j for _, j in mono1}
        for mono2, c2 in right.items():
            if any(i in rows1 for i, _ in mono2) or any(j in cols1 for _, j in mono2):
                continue
            merged = mono1 | mono2
            out[merged] = out.get(merged, 0) + c1 * c2
    return {mono: c for mono, c in out.items() if c}


def evaluate_M_element(x: AlgebraElement, limit: int) -> dict[Monomial, CycRational]:
    """Evaluate a whole M element; used to cross-check the product rule."""
    if x.basis != "M":
        raise ValueError(f"expected an M element, got basis {x.basis!r}")
    return linear_combination(
        (coeff, evaluate_M_truncated(idx.partition, limit)) for idx, coeff in x.terms.items()
    )
