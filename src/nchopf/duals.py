"""Graded duals: the dual superclass-function algebra and its realization.

Bases:

* "kappa_star": dual to the superclass indicators under the Kronecker
  pairing.  The product embeds the two factors into every split of the new
  ground set; the coproduct cuts the ground set at each prefix, discarding
  arcs that straddle the cut.  Commutative, not cocommutative.
* "chi_star": duals of the supercharacters, converted through kappa_star.
* "M": polynomials in commuting variables x_ij subject to
  x_ij x_ik = 0 = x_ik x_jk, one basis element per permutation; the product
  relabels the cycles of the two factors into complementary subsets.
* "U": sums of M over permutations with a fixed partition of cycle supports;
  spans the dual of the noncommuting-variables algebra.
* "V": the image of kappa_star in the U realization,
  V of a partition = sum of U over its refinements.
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
    linear_combination,
    linear_map,
    product,
    register_basis,
    register_transported,
)
from .setpartitions import (
    LabeledSetPartition,
    SetPartition,
    _labeled,
    _set_partition,
    arc_encoding,
    partition_mobius,
    refinements,
    underlying_set_partition,
)
from .superfunctions import chi_to_kappa, group_order, supercharacter_table


# ---------------------------------------------------------------------------
# permutations


class Permutation:
    """A permutation of [n] in one-line notation; cycles derived on demand."""

    __slots__ = ("word", "_hash", "_cycles")

    def __init__(self, word: Iterable[int]):
        word = tuple(int(x) for x in word)
        if sorted(word) != list(range(1, len(word) + 1)):
            raise ValueError(f"{word} is not a permutation of [1, {len(word)}]")
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "_hash", hash(word))
        object.__setattr__(self, "_cycles", None)

    def __reduce__(self):
        return Permutation, (self.word,)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @property
    def n(self) -> int:
        return len(self.word)

    def __call__(self, i: int) -> int:
        return self.word[i - 1]

    def max_label(self) -> int:
        return 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.word == other.word

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Permutation") -> bool:
        return self.sort_key() < other.sort_key()

    def sort_key(self) -> tuple:
        return (len(self.word), self.word)

    def __repr__(self) -> str:
        cycles = "".join(
            "(" + " ".join(str(i) for i in cycle) + ")" for cycle in self.cycles()
        )
        return f"Permutation({cycles or '()'})"

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles (fixed points included), each starting at its
        minimum, sorted by minimum; cached."""
        if self._cycles is None:
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
            object.__setattr__(self, "_cycles", tuple(cycles))
        return self._cycles

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
        return cls(data["word"])


def csupp(sigma: Permutation) -> SetPartition:
    """The partition of [n] whose blocks are the supports of sigma's cycles."""
    # cycles start at their minima and come sorted by them
    return _set_partition(sigma.n, tuple(tuple(sorted(cycle)) for cycle in sigma.cycles()))


# ---------------------------------------------------------------------------
# kappa_star


def kappa_star_element(q: int, lam: LabeledSetPartition, coeff=1) -> AlgebraElement:
    return AlgebraElement.monomial(q, "kappa_star", lam, coeff)


def _kappa_star_product(q: int, a: BasisIndex, b: BasisIndex) -> AlgebraElement:
    mu, nu = a.partition, b.partition
    n = mu.n + nu.n
    terms: Counter = Counter()
    for subset in itertools.combinations(range(1, n + 1), mu.n):
        members = set(subset)
        complement = tuple(i for i in range(1, n + 1) if i not in members)
        # mu embedded along subset and nu along its complement
        arcs = [(subset[l - 1], subset[r - 1], c) for l, r, c in mu.arcs]
        arcs += [(complement[l - 1], complement[r - 1], c) for l, r, c in nu.arcs]
        terms[BasisIndex("kappa_star", n, _labeled(n, tuple(sorted(arcs))))] += 1
    return AlgebraElement._trusted(q, "kappa_star", terms)


def _kappa_star_coproduct(q: int, a: BasisIndex) -> TensorElement:
    lam = a.partition
    n = lam.n
    terms: Counter = Counter()
    for k in range(n + 1):
        left = _labeled(k, tuple(arc for arc in lam.arcs if arc[1] <= k))
        right = _labeled(n - k, tuple((l - k, r - k, c) for l, r, c in lam.arcs if l > k))
        terms[BasisIndex("kappa_star", k, left), BasisIndex("kappa_star", n - k, right)] += 1
    return TensorElement._trusted(q, "kappa_star", terms)


register_basis("kappa_star", product=_kappa_star_product, coproduct=_kappa_star_coproduct)


# ---------------------------------------------------------------------------
# duality pairing


def duality_pairing(f: AlgebraElement, x: AlgebraElement) -> CycRational:
    """Bilinear extension of the Kronecker pairing of kappa_star against kappa."""
    if f.q != x.q:
        raise ValueError(f"q mismatch: {f.q} vs {x.q}")
    if f.basis == "chi_star":
        f = chi_star_to_kappa_star(f)
    if x.basis == "chi":
        x = chi_to_kappa(x)
    if f.basis != "kappa_star" or x.basis != "kappa":
        raise ValueError(f"cannot pair {f.basis!r} against {x.basis!r}")
    total = CycRational.zero(f.q)
    for idx, coeff in f.terms.items():
        partner = BasisIndex("kappa", idx.grade, idx.partition)
        other = x.terms.get(partner)
        if other is not None:
            total = total + coeff * other
    return total


def duality_pairing_tensor(f: TensorElement, x: TensorElement) -> CycRational:
    """Pairing of kappa_star (x) kappa_star against kappa (x) kappa."""
    if f.q != x.q or f.basis != "kappa_star" or x.basis != "kappa":
        raise ValueError("tensor pairing needs kappa_star against kappa at equal q")
    total = CycRational.zero(f.q)
    for (fl, fr), cf in f.terms.items():
        partner = (
            BasisIndex("kappa", fl.grade, fl.partition),
            BasisIndex("kappa", fr.grade, fr.partition),
        )
        other = x.terms.get(partner)
        if other is not None:
            total = total + cf * other
    return total


def z_scalar(mu: LabeledSetPartition, q: int, **table_options) -> int:
    """Group order over superclass size: kappa_star is this multiple of kappa
    under the class-function inner product."""
    table = supercharacter_table(mu.n, q, **table_options)
    return group_order(mu.n, q) // table.class_size(mu)


def chi_star_element(q: int, lam: LabeledSetPartition, coeff=1) -> AlgebraElement:
    return AlgebraElement.monomial(q, "chi_star", lam, coeff)


def chi_star_to_kappa_star(x: AlgebraElement, **table_options) -> AlgebraElement:
    """Dual basis change: the dual of a supercharacter expands on kappa_star
    with the table row rescaled by superclass size times the table weight
    1 / (group order * q^crs)."""

    def image(idx):
        table = supercharacter_table(idx.grade, x.q, **table_options)
        i = table.index(idx.partition)
        row = table.values[i]
        scale = table.weights()[i]
        return {
            key: v * (scale * size)
            for key, v, size in zip(table.indices("kappa_star"), row, table.class_sizes)
            if v
        }

    return linear_map(x, "kappa_star", image, source="chi_star")


def kappa_star_to_chi_star(x: AlgebraElement, **table_options) -> AlgebraElement:
    """kappa_star_mu = sum_lam conj(chi^lam(mu)) chi_star_lam: the inverse of
    chi_star_to_kappa_star is the conjugated table column, by orthogonality."""

    def image(idx):
        table = supercharacter_table(idx.grade, x.q, **table_options)
        i = table.index(idx.partition)
        return {
            key: row[i].conj()
            for key, row in zip(table.indices("chi_star"), table.values)
            if row[i]
        }

    return linear_map(x, "chi_star", image, source="kappa_star")


register_transported("chi_star", chi_star_to_kappa_star, kappa_star_to_chi_star)


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
        complement = tuple(i for i in range(1, m + n + 1) if i not in set(subset))
        word = [0] * (m + n)
        for i in range(1, m + 1):
            word[subset[i - 1] - 1] = subset[alpha(i) - 1]
        for i in range(1, n + 1):
            word[complement[i - 1] - 1] = complement[beta(i) - 1]
        terms[BasisIndex("M", m + n, Permutation(word))] += 1
    return AlgebraElement._trusted(q, "M", terms)


register_basis("M", product=_M_product, unit_key=lambda: Permutation(()))


def product_M(alpha: Permutation, beta: Permutation, q: int = 2) -> AlgebraElement:
    return product(M_element(q, alpha), M_element(q, beta))


# ---------------------------------------------------------------------------
# the U and V bases


def U_element(q: int, sp: SetPartition, coeff=1) -> AlgebraElement:
    return AlgebraElement.monomial(q, "U", arc_encoding(sp), coeff)


def V_element(q: int, sp: SetPartition, coeff=1) -> AlgebraElement:
    return AlgebraElement.monomial(q, "V", arc_encoding(sp), coeff)


def _sp_of(idx: BasisIndex) -> SetPartition:
    return underlying_set_partition(idx.partition)


def _U_product(q: int, a: BasisIndex, b: BasisIndex) -> AlgebraElement:
    """Same splitting process as the kappa_star product, on block structures:
    the coefficient of U_lambda counts the splittings of lambda's blocks into
    two groups standardizing to the two factors."""
    mu, nu = _sp_of(a), _sp_of(b)
    n = mu.n + nu.n
    terms: Counter = Counter()
    for subset in itertools.combinations(range(1, n + 1), mu.n):
        members = set(subset)
        complement = [i for i in range(1, n + 1) if i not in members]
        # embedding along subset and complement keeps each block increasing
        blocks = [tuple(subset[i - 1] for i in block) for block in mu.blocks] + [
            tuple(complement[i - 1] for i in block) for block in nu.blocks
        ]
        sp = _set_partition(n, tuple(sorted(blocks)))
        terms[BasisIndex("U", n, arc_encoding(sp))] += 1
    return AlgebraElement._trusted(q, "U", terms)


def _U_coproduct(q: int, a: BasisIndex) -> TensorElement:
    """Dual to the concatenation product: only cuts that split every block
    cleanly contribute."""
    sp = _sp_of(a)
    n = sp.n
    terms: Counter = Counter()
    for k in range(n + 1):
        left_blocks = tuple(b for b in sp.blocks if b[-1] <= k)
        right_blocks = tuple(tuple(i - k for i in b) for b in sp.blocks if b[0] > k)
        if sum(len(b) for b in left_blocks) != k:
            continue
        key = (
            BasisIndex("U", k, arc_encoding(_set_partition(k, left_blocks))),
            BasisIndex("U", n - k, arc_encoding(_set_partition(n - k, right_blocks))),
        )
        terms[key] += 1
    return TensorElement._trusted(q, "U", terms)


register_basis("U", product=_U_product, coproduct=_U_coproduct)


def product_U(mu: SetPartition, nu: SetPartition, q: int = 2) -> AlgebraElement:
    return product(U_element(q, mu), U_element(q, nu))


def V_from_U(mu: SetPartition, q: int = 2) -> AlgebraElement:
    """V of a partition expands as the sum of U over all its refinements."""
    terms = {BasisIndex("U", mu.n, arc_encoding(finer)): 1 for finer in refinements(mu)}
    return AlgebraElement(q, "U", terms)


def u_to_v(x: AlgebraElement) -> AlgebraElement:
    """Moebius inversion of v_to_u: U of a partition is the sum over its
    refinements of mu(refinement, partition) times V."""

    def image(idx):
        sp = _sp_of(idx)
        return {
            BasisIndex("V", sp.n, arc_encoding(finer)): partition_mobius(finer, sp)
            for finer in refinements(sp)
        }

    return linear_map(x, "V", image, source="U")


def v_to_u(x: AlgebraElement) -> AlgebraElement:
    return linear_map(x, "U", lambda idx: V_from_U(_sp_of(idx), x.q).terms, source="V")


register_transported("V", v_to_u, u_to_v)


def dual_ch(x: AlgebraElement) -> AlgebraElement:
    """The dual identification at q = 2: each kappa_star index maps to the V
    index of its underlying partition."""
    if x.basis != "kappa_star":
        raise ValueError(f"dual_ch is defined on kappa_star elements, got {x.basis!r}")
    if x.q != 2:
        raise ValueError("the dual identification is implemented for q = 2 only")
    terms = {
        BasisIndex("V", idx.grade, arc_encoding(underlying_set_partition(idx.partition))): c
        for idx, c in x.terms.items()
    }
    return AlgebraElement._trusted(x.q, "V", terms)


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
