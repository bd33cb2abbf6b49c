"""Brute-force computations in the unitriangular groups UT_n(q).

Ground truth for everything the combinatorial layer computes by formula:
group elements are enumerated explicitly, superclasses are two-sided orbits
of u - 1 under row and column operations, supercharacter values are traces of
the orbit modules over the dual space, and restriction / superinduction /
inflation / deflation act literally on functions on group elements.
Every exact sum first counts how often each distinct term occurs and then
does one exact multiply-add per distinct term; every element is still
visited.

Elements, nilpotent matrices, and linear functionals all share one dense
layout: a tuple of residues indexed by the strictly-upper positions (i, j),
i < j, in lexicographic order.  A group element u is its entry tuple, which
is also the tuple of u - 1; class functions are keyed by these tuples.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter
from collections.abc import ItemsView, Iterable, Mapping
from fractions import Fraction
from typing import NamedTuple

from .cyclotomic import CycRational
from .limits import DEFAULT_GROUP_BOUND, BoundExceededError
from .setpartitions import (
    LabeledSetPartition,
    SetComposition,
    check_prime,
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


def _tallied_sum(q: int, terms: Iterable[tuple[CycRational, int]]) -> CycRational:
    """The sum of value * count over (value, count) terms.  The counts of
    equal values are added as integers first, so the exact arithmetic runs
    once per distinct value."""
    tally: Counter[CycRational] = Counter()
    for value, count in terms:
        tally[value] += count
    total = CycRational.zero(q)
    for value, count in tally.items():
        total = total + value * count
    return total


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
        check_prime(q)
        if n < 0:
            raise ValueError(f"n must be nonnegative, got {n}")
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

    def _act_left(self, uinv: tuple[int, ...], mu: tuple[int, ...]) -> tuple[int, ...]:
        """(u . mu)(X) = mu(u^-1 X), written against the inverse's entries."""
        index, q = self.index, self.q
        out = []
        for i, j in self.positions:
            total = mu[index[(i, j)]]
            for k in range(1, i):
                total += uinv[index[(k, i)]] * mu[index[(k, j)]]
            out.append(total % q)
        return tuple(out)

    def _trace(self, orbit: tuple[tuple[int, ...], ...], uinv: tuple[int, ...]) -> CycRational:
        """Trace on an orbit module of the element with inverse entries uinv:
        the orbit functionals mu it fixes contribute theta(mu(u^-1 - 1))."""
        counts = [0] * self.q
        for mu in orbit:
            if self._act_left(uinv, mu) == mu:
                counts[sum(map(operator.mul, mu, uinv)) % self.q] += 1
        return _root_sum(self.q, counts)

    def trace_supercharacter(self, lam: LabeledSetPartition, u: tuple[int, ...]) -> CycRational:
        """Trace of the group element with entry tuple u on the orbit module of lam."""
        if len(u) != self.num_positions or not all(x in range(self.q) for x in u):
            raise ValueError(f"{u!r} is not the entry tuple of an element of UT_{self.n}({self.q})")
        return self._trace(self.functional_orbit(lam), self.inv(u))

    def supercharacter_raw(self, lam: LabeledSetPartition) -> "ClassFunctionRaw":
        """The trace of every group element on the orbit module of lam."""
        if not self._raw_characters:
            self._raw_characters = self._all_supercharacters()
        if lam not in self._raw_characters:
            raise ValueError(f"{lam!r} does not index a supercharacter of UT_{self.n}({self.q})")
        return self._raw_characters[lam]

    def _all_supercharacters(self) -> dict[LabeledSetPartition, "ClassFunctionRaw"]:
        """Every supercharacter in one pass over the group.

        The element with inverse entries v fixes mu when mu(v X) = 0 for
        every X, that is when column j of mu, m, has sum_{k<i} m_k v_ki = 0
        for every i < j.  Column j's conditions are column j - 1's and one
        more, and its last entry is free, so the fixed functionals are built
        column by column, keeping only those whose first columns begin a
        member of one of the chosen orbits; each is sorted into its orbit.
        This costs about the sum of the stabilizer orders, where tracing each
        orbit module separately costs |G| times the orbit size."""
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
        values: list[list[CycRational]] = [[] for _ in lams]
        trace = functools.cache(functools.partial(_root_sum, q))

        for v in map(self.inv, self.elements()):
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
            for function, count in zip(values, counts):
                function.append(trace(tuple(count)))
        position = {u: k for k, u in enumerate(self.elements())}
        return {
            lam: ClassFunctionRaw(self.n, q, Tabulated(position, function))
            for lam, function in zip(lams, values)
        }

    def oracle_table(self) -> SupercharTable:
        """The supercharacter table from orbit traces, sizes from orbit sizes.
        Refused, like the formula table, over the table size bound."""
        check_table_size(self.n, self.q)
        order = enumerate_labeled_partitions(self.n, self.q)
        classes = self.superclasses()
        reps = [nilpotent_of(mu, self.q) for mu in order]
        values = [
            [self.trace_supercharacter(lam, rep) for rep in reps] for lam in order
        ]
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
    return get_group(n, q).oracle_table()


# ---------------------------------------------------------------------------
# raw class functions and the four function-level operations


class _TabulatedItems(ItemsView):
    """The items of a ``Tabulated``, iterated from its key index and value
    list side by side rather than by one lookup per key."""

    def __iter__(self):
        return zip(self._mapping._index, self._mapping._values)


class Tabulated(Mapping):
    """A function on a group, as the list of its values in the order of the
    group's elements(); the functions on one group share one key index, so
    each costs a list where a dict would cost a hash table."""

    def __init__(self, index: dict[tuple[int, ...], int], values: list[CycRational]):
        self._index, self._values = index, values

    def __getitem__(self, u: tuple[int, ...]) -> CycRational:
        return self._values[self._index[u]]

    def __iter__(self):
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._values)

    def items(self) -> _TabulatedItems:
        return _TabulatedItems(self)


class ClassFunctionRaw(NamedTuple):
    """A function on all of UT_n(q), dense, with exact values, keyed by
    entry tuples."""

    n: int
    q: int
    values: Mapping[tuple[int, ...], CycRational]

    def __call__(self, u: tuple[int, ...]) -> CycRational:
        return self.values[u]


class ProductClassFunction(NamedTuple):
    """A function on a product UT_{n_1}(q) x ... x UT_{n_l}(q), keyed by
    tuples of entry tuples."""

    ns: tuple[int, ...]
    q: int
    values: dict[tuple[tuple[int, ...], ...], CycRational]

    def __call__(self, us: tuple[tuple[int, ...], ...]) -> CycRational:
        return self.values[us]


def outer_product(functions: list[ClassFunctionRaw]) -> ProductClassFunction:
    ns = tuple(f.n for f in functions)
    q = functions[0].q
    values: dict[tuple[tuple[int, ...], ...], CycRational] = {}
    for combo in itertools.product(*(list(f.values.items()) for f in functions)):
        keys = tuple(k for k, _ in combo)
        value = combo[0][1]
        for _, v in combo[1:]:
            value = value * v
        values[keys] = value
    return ProductClassFunction(ns, q, values)


def _part_sizes(J: SetComposition) -> tuple[int, ...]:
    return tuple(len(part) for part in J.parts)


def embed_parts(us: tuple[tuple[int, ...], ...], J: SetComposition) -> tuple[int, ...]:
    """Inverse straightening: place block matrices at the positions of J's parts."""
    index = _position_index(J.n)
    entries = [0] * len(index)
    for part, u in zip(J.parts, us):
        for (a, b), value in zip(positions(len(part)), u):
            entries[index[(part[a - 1], part[b - 1])]] = value
    return tuple(entries)


def project_parts(u: tuple[int, ...], J: SetComposition) -> tuple[tuple[int, ...], ...] | None:
    """Straighten an element of the parabolic-like subgroup determined by J;
    None when some nonzero entry straddles two parts."""
    part_of = {i: k for k, part in enumerate(J.parts) for i in part}
    for (i, j), value in zip(positions(J.n), u):
        if value and part_of[i] != part_of[j]:
            return None
    index = _position_index(J.n)
    return tuple(
        tuple(u[index[(part[a - 1], part[b - 1])]] for a, b in positions(len(part)))
        for part in J.parts
    )


def res_J(f: ClassFunctionRaw, J: SetComposition) -> ProductClassFunction:
    """Restriction along J, straightened onto a product of smaller groups."""
    if J.n != f.n:
        raise ValueError(f"composition of [{J.n}] does not match functions on UT_{f.n}")
    q = f.q
    groups = [get_group(size, q) for size in _part_sizes(J)]
    values = {}
    for us in itertools.product(*(g.elements() for g in groups)):
        values[us] = f.values[embed_parts(us, J)]
    return ProductClassFunction(_part_sizes(J), q, values)


def sind_J(psi: ProductClassFunction, J: SetComposition) -> ClassFunctionRaw:
    """Superinduction: average the two-sided sandwich values landing in the
    straightened subgroup.  The result can have non-integral values.

    The average is over all |G|^2 sandwich pairs with the Frobenius-adjoint
    normalization 1/(|G| |H|), the unique one for which
    <SInd psi, chi> = <psi, Res chi> holds exactly.
    """
    if _part_sizes(J) != psi.ns:
        raise ValueError(f"function on {psi.ns} does not match composition {J!r}")
    q = psi.q
    n = J.n
    group = get_group(n, q)
    subgroup_order = q ** sum(size * (size - 1) // 2 for size in psi.ns)
    normalizer = CycRational.from_rational(q, Fraction(1, group.order * subgroup_order))
    values = {}
    for u in group.elements():
        landed = (
            (psi.values[parts], count)
            for z, count in group.sandwich_counts(u).items()
            if (parts := project_parts(z, J)) is not None
        )
        values[u] = _tallied_sum(q, landed) * normalizer
    return ClassFunctionRaw(n, q, values)


def inf_parts(psi: ProductClassFunction, sizes: tuple[int, ...]) -> ClassFunctionRaw:
    """Inflation along an integer composition: evaluate after zeroing every
    entry outside the diagonal blocks."""
    if tuple(sizes) != psi.ns:
        raise ValueError(f"function on {psi.ns} does not match composition {sizes}")
    q = psi.q
    n = sum(sizes)
    J = SetComposition.from_interval_sizes(tuple(sizes))
    part_of = {i: k for k, part in enumerate(J.parts) for i in part}
    values = {}
    for u in get_group(n, q).elements():
        truncated = tuple(
            value if part_of[i] == part_of[j] else 0
            for (i, j), value in zip(positions(n), u)
        )
        values[u] = psi.values[project_parts(truncated, J)]
    return ClassFunctionRaw(n, q, values)


def def_parts(f: ClassFunctionRaw, sizes: tuple[int, ...]) -> ProductClassFunction:
    """Deflation: average over the fibers of the block-truncation map."""
    if sum(sizes) != f.n:
        raise ValueError(f"composition {sizes} does not sum to {f.n}")
    q = f.q
    n = f.n
    J = SetComposition.from_interval_sizes(tuple(sizes))
    part_of = {i: k for k, part in enumerate(J.parts) for i in part}
    cross = [k for k, (i, j) in enumerate(positions(n)) if part_of[i] != part_of[j]]
    kernel_size = q ** len(cross)
    normalizer = CycRational.from_rational(q, Fraction(1, kernel_size))
    groups = [get_group(size, q) for size in sizes]
    values = {}
    for us in itertools.product(*(g.elements() for g in groups)):
        fiber = list(embed_parts(us, J))
        over_fiber = Counter()
        for assignment in itertools.product(range(q), repeat=len(cross)):
            for k, value in zip(cross, assignment):
                fiber[k] = value
            over_fiber[f.values[tuple(fiber)]] += 1
        values[us] = _tallied_sum(q, over_fiber.items()) * normalizer
    return ProductClassFunction(tuple(sizes), q, values)


def _mean_product(q: int, order: int, f: Mapping, g: Mapping) -> CycRational:
    """(1/order) sum over the keys of f of f * conj(g), one exact product
    per distinct pair of values."""
    if type(f) is type(g) is Tabulated and f._index is g._index:
        pairs = Counter(zip(f._values, g._values))
    else:
        pairs = Counter((value, g[key]) for key, value in f.items())
    total = _tallied_sum(q, ((a * b.conj(), count) for (a, b), count in pairs.items()))
    return total * CycRational.from_rational(q, Fraction(1, order))


def raw_inner_product(f: ClassFunctionRaw, g: ClassFunctionRaw) -> CycRational:
    """(1/|G|) sum over the group of f * conj(g)."""
    if (f.n, f.q) != (g.n, g.q):
        raise ValueError("inner product needs functions on the same group")
    return _mean_product(f.q, f.q ** (f.n * (f.n - 1) // 2), f.values, g.values)


def product_inner_product(f: ProductClassFunction, g: ProductClassFunction) -> CycRational:
    if (f.ns, f.q) != (g.ns, g.q):
        raise ValueError("inner product needs functions on the same product group")
    order = f.q ** sum(size * (size - 1) // 2 for size in f.ns)
    return _mean_product(f.q, order, f.values, g.values)
