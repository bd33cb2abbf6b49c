"""Brute-force computations in the unitriangular groups UT_n(q).

Ground truth for everything the combinatorial layer computes by formula:
group elements are enumerated explicitly, superclasses are two-sided orbits
of u - 1 under row and column operations, supercharacter values are traces of
the orbit modules over the dual space, and restriction / superinduction /
inflation / deflation act literally on functions on group elements.
Every exact sum first counts how often each distinct term occurs and then
builds the sum once (``cyclotomic.weighted_sum``); every element is still
visited.

Elements, nilpotent matrices, and linear functionals all share one dense
layout: a tuple of residues indexed by the strictly-upper positions (i, j),
i < j, in lexicographic order.  A group element u is its entry tuple, which
is also the tuple of u - 1.  A function on UT_{n_1}(q) x ... x UT_{n_l}(q)
has one value per element of the product, in the order of itertools.product
over the factors' elements(); it stores its distinct values once each (its
palette) and one small int code per element, so tallies count ints.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from array import array
from collections import Counter
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .cyclotomic import CycRational, weighted_sum
from .limits import DEFAULT_GROUP_BOUND, BoundExceededError
from .setpartitions import (
    LabeledSetPartition,
    SetComposition,
    _Value,
    check_size,
    enumerate_labeled_partitions,
)
from .superfunctions import SupercharTable, check_table_size


@functools.cache
def positions(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


@functools.cache
def _position_index(n: int) -> dict[tuple[int, int], int]:
    return {pos: k for k, pos in enumerate(positions(n))}


def _closure(start: tuple[int, ...], moves) -> set[tuple[int, ...]]:
    """Every tuple reachable from start, where moves(t) yields the tuples
    one step from t."""
    seen = {start}
    frontier = [start]
    while frontier:
        for step in moves(frontier.pop()):
            if step not in seen:
                seen.add(step)
                frontier.append(step)
    return seen


def _root_sum(q: int, counts: Iterable[int]) -> CycRational:
    """sum_e counts[e] zeta^e over e = 0, ..., q - 1: on the power basis,
    zeta^(q-1) = -(1 + zeta + ... + zeta^(q-2))."""
    *low, top = counts
    return CycRational(q, [c - top for c in low])


def nilpotent_of(lam: LabeledSetPartition, q: int) -> tuple[int, ...]:
    """The distinguished superclass representative minus the identity."""
    index = _position_index(lam.n)
    out = [0] * (lam.n * (lam.n - 1) // 2)
    for arc in lam.arcs:
        out[index[(arc.left, arc.right)]] = arc.label % q
    return tuple(out)


class UTGroup:
    """Computation context for one (n, q): caches elements, orbits, traces."""

    def __init__(self, n: int, q: int):
        check_size(n, q)
        self.n = n
        self.q = q
        self.num_positions = n * (n - 1) // 2
        self.order = q**self.num_positions
        self.positions = positions(n)
        self.index = _position_index(n)
        self._elements: tuple[tuple[int, ...], ...] | None = None
        self._superclasses: dict[LabeledSetPartition, frozenset[tuple[int, ...]]] | None = None
        self._functional_orbits: dict[LabeledSetPartition, tuple[tuple[int, ...], ...]] = {}
        self._raw_characters: dict[LabeledSetPartition, "ClassFunctionRaw"] = {}
        self._conjugacy_classes: list[frozenset[tuple[int, ...]]] | None = None
        self._sandwich_counts: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}

    def _check_bound(self) -> None:
        if self.order > DEFAULT_GROUP_BOUND:
            raise BoundExceededError(
                f"UT_{self.n}({self.q}) has {self.order} elements, over the bound"
                f" {DEFAULT_GROUP_BOUND}"
            )

    # -- raw tuple arithmetic

    def inv(self, a: tuple[int, ...]) -> tuple[int, ...]:
        """(1 + A)^-1 = 1 + V with V = -(A + A V), solved from the last row up."""
        q, index = self.q, self.index
        out = [0] * self.num_positions
        for i, j in reversed(self.positions):
            total = a[index[(i, j)]]
            for k in range(i + 1, j):
                total += a[index[(i, k)]] * out[index[(k, j)]]
            out[index[(i, j)]] = -total % q
        return tuple(out)

    def sandwich(self, x: tuple[int, ...], mid: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
        """x * mid * y with x, y group elements and mid nilpotent."""
        q, index = self.q, self.index
        first = []
        for i, j in self.positions:
            total = mid[index[(i, j)]]
            for k in range(i + 1, j):
                total += x[index[(i, k)]] * mid[index[(k, j)]]
            first.append(total % q)
        out = []
        for i, j in self.positions:
            total = first[index[(i, j)]]
            for k in range(i + 1, j):
                total += first[index[(i, k)]] * y[index[(k, j)]]
            out.append(total % q)
        return tuple(out)

    # -- enumeration

    def elements(self) -> tuple[tuple[int, ...], ...]:
        self._check_bound()
        if self._elements is None:
            self._elements = tuple(itertools.product(range(self.q), repeat=self.num_positions))
        return self._elements

    def code(self, u: tuple[int, ...]) -> int:
        """The place of u in elements(): its entries read as base-q digits.
        A tuple that is not the entry tuple of a group element is refused."""
        if len(u) != self.num_positions or not all(x in range(self.q) for x in u):
            raise ValueError(f"{u!r} is not the entry tuple of an element of UT_{self.n}({self.q})")
        return _code(self.q, u)

    def _elementary_positions(self):
        for pos in self.positions:
            for c in range(1, self.q):
                yield pos, c

    # -- superclasses: two-sided orbits on u - 1

    def superclass_orbit(self, lam: LabeledSetPartition) -> frozenset[tuple[int, ...]]:
        self._check_bound()
        index, q, n = self.index, self.q, self.n

        def moves(current):
            for (r, s), c in self._elementary_positions():
                # row operation: add c * (row s) to row r
                left = list(current)
                for j in range(s + 1, n + 1):
                    left[index[(r, j)]] = (left[index[(r, j)]] + c * current[index[(s, j)]]) % q
                yield tuple(left)
                # column operation: add c * (column r) to column s
                right = list(current)
                for i in range(1, r):
                    right[index[(i, s)]] = (right[index[(i, s)]] + c * current[index[(i, r)]]) % q
                yield tuple(right)

        return frozenset(_closure(nilpotent_of(lam, q), moves))

    def superclasses(self) -> dict[LabeledSetPartition, frozenset[tuple[int, ...]]]:
        """Orbit of every labeled set partition; together they partition the group."""
        if self._superclasses is None:
            out = {}
            covered = 0
            seen: set[tuple[int, ...]] = set()
            for lam in enumerate_labeled_partitions(self.n, self.q):
                orbit = self.superclass_orbit(lam)
                if orbit & seen:
                    raise AssertionError(f"superclass of {lam!r} overlaps a previous orbit")
                seen |= orbit
                covered += len(orbit)
                out[lam] = orbit
            if covered != self.order:
                raise AssertionError(
                    f"superclasses cover {covered} of {self.order} group elements"
                )
            self._superclasses = out
        return self._superclasses

    # -- supercharacters as module traces

    def functional_orbit(self, lam: LabeledSetPartition) -> tuple[tuple[int, ...], ...]:
        """The left orbit of minus the tautological functional of lam."""
        cached = self._functional_orbits.get(lam)
        if cached is not None:
            return cached
        if lam.n != self.n or any(arc.label >= self.q for arc in lam.arcs):
            raise ValueError(f"{lam!r} does not index a supercharacter of UT_{self.n}({self.q})")
        self._check_bound()
        index, q, n = self.index, self.q, self.n

        def moves(current):
            for (r, s), c in self._elementary_positions():
                # left action of 1 + c e_rs: row s picks up -c times row r
                moved = list(current)
                for j in range(s + 1, n + 1):
                    moved[index[(s, j)]] = (moved[index[(s, j)]] - c * current[index[(r, j)]]) % q
                yield tuple(moved)

        orbit = tuple(sorted(_closure(tuple(-c % q for c in nilpotent_of(lam, q)), moves)))
        self._functional_orbits[lam] = orbit
        return orbit

    def supercharacter_raw(self, lam: LabeledSetPartition) -> "ClassFunctionRaw":
        """The trace of every group element on the orbit module of lam."""
        if not self._raw_characters:
            self._raw_characters = self._all_supercharacters()
        if lam not in self._raw_characters:
            raise ValueError(f"{lam!r} does not index a supercharacter of UT_{self.n}({self.q})")
        return self._raw_characters[lam]

    def _all_supercharacters(self) -> dict[LabeledSetPartition, "ClassFunctionRaw"]:
        """Every supercharacter in one pass over the group: each character
        codes an element by its count tuple, and each distinct count tuple
        is traced once."""
        lams = enumerate_labeled_partitions(self.n, self.q)
        codes: list[list[int]] = [[] for _ in lams]
        code_of: dict[tuple[int, ...], int] = {}
        for counts in self._fixed_counts(self.elements()):
            for function, count in zip(codes, counts):
                function.append(code_of.setdefault(count, len(code_of)))
        traces = [_root_sum(self.q, count) for count in code_of]
        return {lam: _function((self.n,), self.q, traces, f) for lam, f in zip(lams, codes)}

    def _fixed_counts(self, us: Iterable[tuple[int, ...]]):
        """For each element u of us, one count tuple per supercharacter, in
        enumeration order: how many functionals mu of its orbit u fixes, per
        value of mu(u^-1 - 1).  The trace of u on the orbit module is
        ``_root_sum`` of that tuple.

        The element with inverse entries v fixes mu when mu(v X) = 0 for
        every X, that is when column j of mu, m, has sum_{k<i} m_k v_ki = 0
        for every i < j.  Column j's conditions are column j - 1's and one
        more, and its last entry is free, so the fixed functionals are built
        column by column, keeping only those whose first columns begin a
        member of one of the orbits; each is sorted into its orbit.  This
        costs about the sum of the stabilizer orders."""
        q, index = self.q, self.index
        lams = enumerate_labeled_partitions(self.n, q)
        by_column = [index[(k, j)] for j in range(2, self.n + 1) for k in range(1, j)]
        orbit_of = {
            tuple(mu[k] for k in by_column): number
            for number, lam in enumerate(lams)
            for mu in self.functional_orbit(lam)
        }
        # prefixes[j - 2]: columns 2..j of the members, j(j - 1)/2 entries
        prefixes = [{mu[: j * (j - 1) // 2] for mu in orbit_of} for j in range(2, self.n + 1)]
        for v in map(self.inv, us):
            # fixed: (mu's first columns, mu(v) on them); kernel: the columns
            # that meet the conditions so far, before the free last entry.
            fixed, kernel = [((), 0)], [()]
            for j, members in zip(range(2, self.n + 1), prefixes):
                column = [v[index[(k, j)]] for k in range(1, j)]
                kernel = [m + (x,) for m in kernel for x in range(q)]
                pieces = [(m, sum(map(operator.mul, m, column)) % q) for m in kernel]
                fixed = [
                    (mu, e + f)
                    for head, e in fixed
                    for m, f in pieces
                    if (mu := head + m) in members
                ]
                kernel = [m for m, f in pieces if f == 0]
            counts = [[0] * q for _ in lams]
            for mu, e in fixed:
                counts[orbit_of[mu]][e % q] += 1
            yield tuple(map(tuple, counts))

    def oracle_table(self) -> SupercharTable:
        """The supercharacter table from the orbit-module traces at the
        superclass representatives, sizes from orbit sizes.  Refused, like
        the formula table, over the table size bound."""
        check_table_size(self.n, self.q)
        order = enumerate_labeled_partitions(self.n, self.q)
        classes = self.superclasses()
        reps = [nilpotent_of(mu, self.q) for mu in order]
        rows = zip(*self._fixed_counts(reps))  # one row per supercharacter
        values = [[_root_sum(self.q, count) for count in row] for row in rows]
        sizes = [len(classes[mu]) for mu in order]
        return SupercharTable(self.n, self.q, order, values, sizes)

    # -- conjugacy classes

    def conjugacy_classes(self) -> list[frozenset[tuple[int, ...]]]:
        if self._conjugacy_classes is None:
            self._check_bound()
            generators = []
            for (r, s), c in self._elementary_positions():
                g = [0] * self.num_positions
                g[self.index[(r, s)]] = c
                g = tuple(g)
                generators.append((g, self.inv(g)))

            def moves(u):
                # g u g^-1 = 1 + g (u - 1) g^-1
                return (self.sandwich(g, u, ginv) for g, ginv in generators)

            classes = []
            visited: set[tuple[int, ...]] = set()
            for u in self.elements():
                if u not in visited:
                    members = _closure(u, moves)
                    visited |= members
                    classes.append(frozenset(members))
            self._conjugacy_classes = classes
        return self._conjugacy_classes

    # -- cached two-sided sandwich counts (for superinduction)

    def sandwich_counts(self, u: tuple[int, ...]) -> dict[tuple[int, ...], int]:
        """Multiset of x (u - 1) y over all pairs (x, y) of group elements."""
        cached = self._sandwich_counts.get(u)
        if cached is not None:
            return cached
        self.code(u)  # refuses a tuple outside the group, before it is cached
        self._check_bound()
        counts: dict[tuple[int, ...], int] = {}
        members = self.elements()
        for x in members:
            for y in members:
                z = self.sandwich(x, u, y)
                counts[z] = counts.get(z, 0) + 1
        self._sandwich_counts[u] = counts
        return counts


_GROUPS: dict[tuple[int, int], UTGroup] = {}


def get_group(n: int, q: int) -> UTGroup:
    key = (n, q)
    group = _GROUPS.get(key)
    if group is None:
        group = _GROUPS[key] = UTGroup(n, q)
    return group


def oracle_supercharacter_table(n: int, q: int) -> SupercharTable:
    """The oracle's table of UT_n(q), refused over the table bounds before
    the group is built."""
    check_table_size(n, q)
    return get_group(n, q).oracle_table()


# ---------------------------------------------------------------------------
# raw class functions and the four function-level operations


class ClassFunctionRaw(_Value):
    """A function on UT_{n_1}(q) x ... x UT_{n_l}(q), ns = (n_1, ..., n_l),
    dense, with exact values, one per element of the product in the order of
    itertools.product over the factors' elements().  A function on UT_n(q)
    has ns == (n,).

    It is stored as its palette, its distinct values once each in order of
    first occurrence, and its codes, one int per element that indexes the
    palette: bytes when at most 256 values are distinct, array('I') beyond.
    That form is canonical, so equality and the hash depend on ns, q and the
    values only, whichever operation built the function."""

    __slots__ = ("ns", "q", "palette", "codes")
    _fields = ("ns", "q", "values")

    def __new__(cls, ns: Iterable[int], q: int, values: Iterable) -> "ClassFunctionRaw":
        """The function with the given values, exact scalars of Q(zeta_q), one
        per element of the product."""
        ns = tuple(ns)
        size = math.prod(get_group(n, q).order for n in ns)
        values = [CycRational.coerce(q, v) for v in values]
        if len(values) != size:
            raise ValueError(f"{len(values)} values for a function on {size} elements")
        return _function(ns, q, values, range(size))

    @property
    def values(self) -> tuple[CycRational, ...]:
        """Every value, in element order."""
        return tuple(map(self.palette.__getitem__, self.codes))

    def __call__(self, *us: tuple[int, ...]) -> CycRational:
        """The value at (u_1, ..., u_l), one entry tuple per factor."""
        if len(us) != len(self.ns):
            raise ValueError(f"{len(us)} arguments for a function on {len(self.ns)} factors")
        k = 0
        for n, u in zip(self.ns, us):
            group = get_group(n, self.q)
            k = k * group.order + group.code(u)
        return self.palette[self.codes[k]]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClassFunctionRaw):
            return NotImplemented
        return (self.ns, self.q, self.palette, self.codes) == (
            other.ns, other.q, other.palette, other.codes
        )

    def __hash__(self) -> int:
        return hash((self.ns, self.q, self.palette, bytes(self.codes)))

    def __repr__(self) -> str:
        return f"ClassFunctionRaw({self.ns!r}, {self.q!r}, {self.values!r})"


def _function(ns: tuple[int, ...], q: int, palette, codes: Sequence[int]) -> ClassFunctionRaw:
    """The function on ns with value palette[codes[k]] at place k, brought to
    the canonical form: palette values that no code uses are dropped, equal
    ones merged, and the rest numbered in order of first occurrence."""
    renumber = dict.fromkeys(codes)  # the codes in use, in order of first occurrence
    distinct: dict[CycRational, int] = {}
    for c in renumber:
        renumber[c] = distinct.setdefault(palette[c], len(distinct))
    codes = list(map(renumber.__getitem__, codes))
    codes = bytes(codes) if len(distinct) <= 256 else array("I", codes)
    f = object.__new__(ClassFunctionRaw)
    for name, value in zip(ClassFunctionRaw.__slots__, (ns, q, tuple(distinct), codes)):
        object.__setattr__(f, name, value)
    return f


def _tallied(
    ns: tuple[int, ...], f: ClassFunctionRaw, tallies, scale: Fraction
) -> ClassFunctionRaw:
    """The function on ns whose value at place k is scale times the sum of
    count * f.palette[code] over the (code, count) items of tallies[k]: one
    weighted_sum per distinct tally."""
    code_of: dict[tuple[tuple[int, int], ...], int] = {}
    codes = [code_of.setdefault(tuple(sorted(t.items())), len(code_of)) for t in tallies]
    sums = [weighted_sum(f.q, ((f.palette[c], n) for c, n in key)) * scale for key in code_of]
    return _function(ns, f.q, sums, codes)


def outer_product(functions: list[ClassFunctionRaw]) -> ClassFunctionRaw:
    """psi(u_1, ..., u_l) = f_1(u_1) ... f_l(u_l).  The palettes are
    multiplied, and an element's code is its factors' codes in mixed radix."""
    if not functions:
        raise ValueError("an outer product needs at least one function")
    q = functions[0].q
    if any(f.q != q for f in functions):
        qs = [f.q for f in functions]
        raise ValueError(f"an outer product needs functions over one q, not {qs}")
    palette, codes = [CycRational.one(q)], [0]
    for f in functions:
        palette = [a * b for a in palette for b in f.palette]
        codes = [c * len(f.palette) + d for c in codes for d in f.codes]
    return _function(tuple(n for f in functions for n in f.ns), q, palette, codes)


def _part_sizes(J: SetComposition) -> tuple[int, ...]:
    return tuple(len(part) for part in J.parts)


def _code(q: int, digits: Iterable[int]) -> int:
    """The number with base-q digits `digits`, most significant first.  An
    entry tuple's code is its place in elements(); the entry tuples of a
    product's factors, laid end to end, give its place in product order."""
    k = 0
    for x in digits:
        k = k * q + x
    return k


def _split(J: SetComposition) -> tuple[list[int], list[int]]:
    """The places in an entry tuple of UT_{J.n} that hold the straightened
    subgroup's entries, part by part in each part's own order, and the
    places that straddle two parts."""
    index = _position_index(J.n)
    inside = [
        index[(part[a - 1], part[b - 1])] for part in J.parts for a, b in positions(len(part))
    ]
    return inside, sorted(set(index.values()) - set(inside))


def embed_parts(us: tuple[tuple[int, ...], ...], J: SetComposition) -> tuple[int, ...]:
    """Inverse straightening: place block matrices at the positions of J's
    parts.  us must hold one entry tuple per part, of that part's length."""
    sizes = _part_sizes(J)
    if len(us) != len(sizes) or any(len(u) != s * (s - 1) // 2 for u, s in zip(us, sizes)):
        raise ValueError(f"{us!r} is not one entry tuple per part of {J!r}")
    entries = [0] * (J.n * (J.n - 1) // 2)
    for k, value in zip(_split(J)[0], itertools.chain(*us)):
        entries[k] = value
    return tuple(entries)


def res_J(f: ClassFunctionRaw, J: SetComposition) -> ClassFunctionRaw:
    """Restriction along J, straightened onto a product of smaller groups."""
    if f.ns != (J.n,):
        raise ValueError(f"function on {f.ns} does not match composition {J!r}")
    sizes = _part_sizes(J)
    group = get_group(J.n, f.q)
    factors = itertools.product(*(get_group(size, f.q).elements() for size in sizes))
    codes = [f.codes[group.code(embed_parts(us, J))] for us in factors]
    return _function(sizes, f.q, f.palette, codes)


def sind_J(psi: ClassFunctionRaw, J: SetComposition) -> ClassFunctionRaw:
    """Superinduction: average the two-sided sandwich values landing in the
    straightened subgroup.  The result can have non-integral values.

    The average is over all |G|^2 sandwich pairs with the Frobenius-adjoint
    normalization 1/(|G| |H|), the unique one for which
    <SInd psi, chi> = <psi, Res chi> holds exactly.
    """
    if _part_sizes(J) != psi.ns:
        raise ValueError(f"function on {psi.ns} does not match composition {J!r}")
    q = psi.q
    group = get_group(J.n, q)
    inside, cross = _split(J)
    tallies = []
    for u in group.elements():
        tally: Counter[int] = Counter()
        for z, count in group.sandwich_counts(u).items():
            if not any(z[k] for k in cross):
                tally[psi.codes[_code(q, (z[k] for k in inside))]] += count
        tallies.append(tally)
    return _tallied((J.n,), psi, tallies, Fraction(1, group.order * len(psi.codes)))


def inf_parts(psi: ClassFunctionRaw, sizes: tuple[int, ...]) -> ClassFunctionRaw:
    """Inflation along an integer composition: the value at u is psi at u's
    diagonal blocks, every entry outside them zeroed."""
    if tuple(sizes) != psi.ns:
        raise ValueError(f"function on {psi.ns} does not match composition {sizes}")
    J = SetComposition.from_interval_sizes(tuple(sizes))
    inside, _ = _split(J)
    codes = [
        psi.codes[_code(psi.q, (u[k] for k in inside))] for u in get_group(J.n, psi.q).elements()
    ]
    return _function((J.n,), psi.q, psi.palette, codes)


def def_parts(f: ClassFunctionRaw, sizes: tuple[int, ...]) -> ClassFunctionRaw:
    """Deflation: average over the fibers of the block-truncation map."""
    if (sum(sizes),) != f.ns:
        raise ValueError(f"function on {f.ns} does not match composition {sizes}")
    q = f.q
    inside, cross = _split(SetComposition.from_interval_sizes(tuple(sizes)))
    fibers: list[Counter[int]] = [Counter() for _ in range(q ** len(inside))]
    for u, c in zip(get_group(sum(sizes), q).elements(), f.codes):
        fibers[_code(q, (u[k] for k in inside))][c] += 1
    return _tallied(tuple(sizes), f, fibers, Fraction(1, q ** len(cross)))


def _mean_product(f: ClassFunctionRaw, g: ClassFunctionRaw) -> CycRational:
    """(1/|G|) sum over the group G of f * conj(g): the pairs of codes are
    counted, and each distinct pair costs one exact product."""
    if (f.ns, f.q) != (g.ns, g.q):
        raise ValueError("inner product needs functions on the same group")
    conj = [b.conj() for b in g.palette]
    pairs = Counter(zip(f.codes, g.codes))
    total = weighted_sum(f.q, ((f.palette[a] * conj[b], n) for (a, b), n in pairs.items()))
    return total * Fraction(1, len(f.codes))


def raw_inner_product(f: ClassFunctionRaw, g: ClassFunctionRaw) -> CycRational:
    """The inner product of two functions on UT_n(q)."""
    return _mean_product(f, g)


def product_inner_product(f: ClassFunctionRaw, g: ClassFunctionRaw) -> CycRational:
    """The inner product of two functions on a product of groups."""
    return _mean_product(f, g)
