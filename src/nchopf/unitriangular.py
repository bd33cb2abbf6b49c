"""Brute-force computations in the unitriangular groups UT_n(q).

Ground truth for everything the combinatorial layer computes by formula:
group elements are enumerated explicitly, superclasses are two-sided orbits
of u - 1 under row and column operations, supercharacter values are traces of
the orbit modules over the dual space, and restriction / superinduction /
inflation / deflation act literally on functions on group elements.

Elements, nilpotent matrices, and linear functionals all share one dense
layout: a tuple of residues indexed by the strictly-upper positions (i, j),
i < j, in lexicographic order.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

from .cyclotomic import CycRational, theta
from .limits import DEFAULT_GROUP_BOUND, BoundExceededError
from .setpartitions import (
    LabeledSetPartition,
    SetComposition,
    check_prime,
    enumerate_labeled_partitions,
)
from .superfunctions import SupercharTable, check_table_size


class UTElement:
    """A unitriangular matrix: ones on the diagonal, residues mod q above it."""

    __slots__ = ("n", "q", "entries", "_hash")

    def __init__(self, n: int, q: int, entries: tuple[int, ...]):
        if len(entries) != n * (n - 1) // 2:
            raise ValueError(f"expected {n * (n - 1) // 2} entries, got {len(entries)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "entries", tuple(int(e) % q for e in entries))
        object.__setattr__(self, "_hash", hash((n, q, self.entries)))

    def __setattr__(self, name, value):
        raise AttributeError("UTElement is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UTElement)
            and self.n == other.n
            and self.q == other.q
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        pos = positions(self.n)
        nonzero = [f"({i},{j})={e}" for (i, j), e in zip(pos, self.entries) if e]
        return f"UTElement(n={self.n}, q={self.q}, {' '.join(nonzero) or '1'})"

    @classmethod
    def identity(cls, n: int, q: int) -> "UTElement":
        return cls(n, q, (0,) * (n * (n - 1) // 2))

    def entry(self, i: int, j: int) -> int:
        if i == j:
            return 1
        if i > j:
            return 0
        return self.entries[_position_index(self.n)[(i, j)]]


_POSITIONS: dict[int, tuple[tuple[int, int], ...]] = {}
_POSITION_INDEX: dict[int, dict[tuple[int, int], int]] = {}


def positions(n: int) -> tuple[tuple[int, int], ...]:
    if n not in _POSITIONS:
        _POSITIONS[n] = tuple(
            (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
        )
    return _POSITIONS[n]


def _position_index(n: int) -> dict[tuple[int, int], int]:
    if n not in _POSITION_INDEX:
        _POSITION_INDEX[n] = {pos: k for k, pos in enumerate(positions(n))}
    return _POSITION_INDEX[n]


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
        self._elements: tuple[UTElement, ...] | None = None
        self._inverses: tuple[tuple[int, ...], ...] | None = None
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

    def mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        q, index = self.q, self.index
        out = []
        for i, j in self.positions:
            total = a[index[(i, j)]] + b[index[(i, j)]]
            for k in range(i + 1, j):
                total += a[index[(i, k)]] * b[index[(k, j)]]
            out.append(total % q)
        return tuple(out)

    def nil_mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        q, index = self.q, self.index
        out = []
        for i, j in self.positions:
            total = 0
            for k in range(i + 1, j):
                total += a[index[(i, k)]] * b[index[(k, j)]]
            out.append(total % q)
        return tuple(out)

    def inv(self, a: tuple[int, ...]) -> tuple[int, ...]:
        # (1 + N)^-1 = 1 - N + N^2 - ... with N nilpotent.
        out = tuple(-x % self.q for x in a)
        power = a
        sign = -1
        for _ in range(2, self.n):
            power = self.nil_mul(power, a)
            if not any(power):
                break
            sign = -sign
            out = tuple((x + sign * y) % self.q for x, y in zip(out, power))
        return out

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

    def wrap(self, entries: tuple[int, ...]) -> UTElement:
        return UTElement(self.n, self.q, entries)

    # -- enumeration

    def elements(self) -> tuple[UTElement, ...]:
        self._check_bound()
        if self._elements is None:
            self._elements = tuple(
                self.wrap(entries)
                for entries in itertools.product(range(self.q), repeat=self.num_positions)
            )
        return self._elements

    def _elementary_positions(self):
        for pos in self.positions:
            for c in range(1, self.q):
                yield pos, c

    # -- superclasses: two-sided orbits on u - 1

    def superclass_orbit(self, lam: LabeledSetPartition) -> frozenset[tuple[int, ...]]:
        self._check_bound()
        start = nilpotent_of(lam, self.q)
        seen = {start}
        frontier = [start]
        index, q = self.index, self.q
        while frontier:
            current = frontier.pop()
            for (r, s), c in self._elementary_positions():
                # row operation: add c * (row s) to row r
                left = list(current)
                for j in range(s + 1, self.n + 1):
                    left[index[(r, j)]] = (left[index[(r, j)]] + c * current[index[(s, j)]]) % q
                left_t = tuple(left)
                if left_t not in seen:
                    seen.add(left_t)
                    frontier.append(left_t)
                # column operation: add c * (column r) to column s
                right = list(current)
                for i in range(1, r):
                    right[index[(i, s)]] = (right[index[(i, s)]] + c * current[index[(i, r)]]) % q
                right_t = tuple(right)
                if right_t not in seen:
                    seen.add(right_t)
                    frontier.append(right_t)
        return frozenset(seen)

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
        self._check_bound()
        index, q, n = self.index, self.q, self.n
        start = tuple(-c % q for c in nilpotent_of(lam, q))
        seen = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for (r, s), c in self._elementary_positions():
                # left action of 1 + c e_rs: row s picks up -c times row r
                moved = list(current)
                for j in range(s + 1, n + 1):
                    moved[index[(s, j)]] = (moved[index[(s, j)]] - c * current[index[(r, j)]]) % q
                moved_t = tuple(moved)
                if moved_t not in seen:
                    seen.add(moved_t)
                    frontier.append(moved_t)
        orbit = tuple(sorted(seen))
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
        total = CycRational.zero(self.q)
        for mu in orbit:
            if self._act_left(uinv, mu) == mu:
                total = total + theta(self.q, sum(c * x for c, x in zip(mu, uinv)) % self.q)
        return total

    def trace_supercharacter(self, lam: LabeledSetPartition, u: UTElement) -> CycRational:
        """Trace of u on the orbit module of lam."""
        if (u.n, u.q) != (self.n, self.q):
            raise ValueError("group element does not belong to this group")
        return self._trace(self.functional_orbit(lam), self.inv(u.entries))

    def inverses(self) -> tuple[tuple[int, ...], ...]:
        """Entry tuples of the inverses, aligned with ``elements()``; cached."""
        if self._inverses is None:
            self._inverses = tuple(self.inv(u.entries) for u in self.elements())
        return self._inverses

    def supercharacter_raw(self, lam: LabeledSetPartition) -> "ClassFunctionRaw":
        cached = self._raw_characters.get(lam)
        if cached is not None:
            return cached
        orbit = self.functional_orbit(lam)
        values = {u: self._trace(orbit, uinv) for u, uinv in zip(self.elements(), self.inverses())}
        result = ClassFunctionRaw(self.n, self.q, values)
        self._raw_characters[lam] = result
        return result

    def oracle_table(self) -> SupercharTable:
        """The supercharacter table from orbit traces, sizes from orbit sizes.
        Refused, like the formula table, over the table size bound."""
        check_table_size(self.n, self.q)
        order = enumerate_labeled_partitions(self.n, self.q)
        classes = self.superclasses()
        reps = [self.wrap(nilpotent_of(mu, self.q)) for mu in order]
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
            classes = []
            visited: set[tuple[int, ...]] = set()
            for u in self.elements():
                if u.entries in visited:
                    continue
                seen = {u.entries}
                frontier = [u.entries]
                while frontier:
                    current = frontier.pop()
                    for g, ginv in generators:
                        conj = self.mul(self.mul(g, current), ginv)
                        if conj not in seen:
                            seen.add(conj)
                            frontier.append(conj)
                visited |= seen
                classes.append(frozenset(seen))
            self._conjugacy_classes = classes
        return self._conjugacy_classes

    # -- cached two-sided sandwich counts (for superinduction)

    def sandwich_counts(self, u: UTElement) -> dict[tuple[int, ...], int]:
        """Multiset of x (u - 1) y over all pairs (x, y) of group elements."""
        cached = self._sandwich_counts.get(u.entries)
        if cached is not None:
            return cached
        self._check_bound()
        mid = u.entries
        counts: dict[tuple[int, ...], int] = {}
        members = [e.entries for e in self.elements()]
        for x in members:
            for y in members:
                z = self.sandwich(x, mid, y)
                counts[z] = counts.get(z, 0) + 1
        self._sandwich_counts[u.entries] = counts
        return counts


_GROUPS: dict[tuple[int, int], UTGroup] = {}


def get_group(n: int, q: int) -> UTGroup:
    key = (n, q)
    group = _GROUPS.get(key)
    if group is None:
        group = _GROUPS[key] = UTGroup(n, q)
    return group


def enumerate_group(n: int, q: int) -> list[UTElement]:
    return list(get_group(n, q).elements())


def superclass_of(lam: LabeledSetPartition, q: int) -> frozenset[UTElement]:
    group = get_group(lam.n, q)
    return frozenset(group.wrap(x) for x in group.superclass_orbit(lam))


def trace_supercharacter(lam: LabeledSetPartition, u: UTElement) -> CycRational:
    return get_group(u.n, u.q).trace_supercharacter(lam, u)


def oracle_supercharacter_table(n: int, q: int) -> SupercharTable:
    return get_group(n, q).oracle_table()


# ---------------------------------------------------------------------------
# raw class functions and the four function-level operations


class ClassFunctionRaw(NamedTuple):
    """A function on all of UT_n(q), dense, with exact values."""

    n: int
    q: int
    values: dict[UTElement, CycRational]

    def __call__(self, u: UTElement) -> CycRational:
        return self.values[u]


class ProductClassFunction(NamedTuple):
    """A function on a product UT_{n_1}(q) x ... x UT_{n_l}(q)."""

    ns: tuple[int, ...]
    q: int
    values: dict[tuple[UTElement, ...], CycRational]

    def __call__(self, us: tuple[UTElement, ...]) -> CycRational:
        return self.values[us]


def outer_product(functions: list[ClassFunctionRaw]) -> ProductClassFunction:
    ns = tuple(f.n for f in functions)
    q = functions[0].q
    values: dict[tuple[UTElement, ...], CycRational] = {}
    for combo in itertools.product(*(list(f.values.items()) for f in functions)):
        keys = tuple(k for k, _ in combo)
        value = combo[0][1]
        for _, v in combo[1:]:
            value = value * v
        values[keys] = value
    return ProductClassFunction(ns, q, values)


def _part_sizes(J: SetComposition) -> tuple[int, ...]:
    return tuple(len(part) for part in J.parts)


def embed_parts(us: tuple[UTElement, ...], J: SetComposition, q: int) -> UTElement:
    """Inverse straightening: place block matrices at the positions of J's parts."""
    n = J.n
    index = _position_index(n)
    entries = [0] * (n * (n - 1) // 2)
    for part, u in zip(J.parts, us):
        for a in range(1, len(part) + 1):
            for b in range(a + 1, len(part) + 1):
                entries[index[(part[a - 1], part[b - 1])]] = u.entry(a, b)
    return UTElement(n, q, entries)


def project_parts(u: UTElement, J: SetComposition) -> tuple[UTElement, ...] | None:
    """Straighten an element of the parabolic-like subgroup determined by J;
    None when some nonzero entry straddles two parts."""
    part_of = {i: k for k, part in enumerate(J.parts) for i in part}
    for (i, j), value in zip(positions(u.n), u.entries):
        if value and part_of[i] != part_of[j]:
            return None
    out = []
    for part in J.parts:
        size = len(part)
        entries = [
            u.entry(part[a - 1], part[b - 1])
            for a in range(1, size + 1)
            for b in range(a + 1, size + 1)
        ]
        out.append(UTElement(size, u.q, tuple(entries)))
    return tuple(out)


def _as_product(psi) -> ProductClassFunction:
    if isinstance(psi, ProductClassFunction):
        return psi
    return outer_product(list(psi))


def res_J(f: ClassFunctionRaw, J: SetComposition) -> ProductClassFunction:
    """Restriction along J, straightened onto a product of smaller groups."""
    if J.n != f.n:
        raise ValueError(f"composition of [{J.n}] does not match functions on UT_{f.n}")
    q = f.q
    groups = [get_group(size, q) for size in _part_sizes(J)]
    values = {}
    for us in itertools.product(*(g.elements() for g in groups)):
        values[us] = f.values[embed_parts(us, J, q)]
    return ProductClassFunction(_part_sizes(J), q, values)


def sind_J(psi, J: SetComposition) -> ClassFunctionRaw:
    """Superinduction: average the two-sided sandwich values landing in the
    straightened subgroup.  The result can have non-integral values.

    Accepts a function on the product group or a list of per-part functions.
    The average is over all |G|^2 sandwich pairs with the Frobenius-adjoint
    normalization 1/(|G| |H|), the unique one for which
    <SInd psi, chi> = <psi, Res chi> holds exactly.
    """
    psi = _as_product(psi)
    if _part_sizes(J) != psi.ns:
        raise ValueError(f"function on {psi.ns} does not match composition {J!r}")
    q = psi.q
    n = J.n
    group = get_group(n, q)
    subgroup_order = q ** sum(size * (size - 1) // 2 for size in psi.ns)
    normalizer = CycRational.from_rational(q, Fraction(1, group.order * subgroup_order))
    values = {}
    for u in group.elements():
        counts = group.sandwich_counts(u)
        total = CycRational.zero(q)
        for z, count in counts.items():
            parts = project_parts(group.wrap(z), J)
            if parts is not None:
                total = total + psi.values[parts] * count
        values[u] = total * normalizer
    return ClassFunctionRaw(n, q, values)


def _interval_composition(sizes: tuple[int, ...]) -> SetComposition:
    return SetComposition.from_interval_sizes(sizes)


def inf_parts(psi, sizes: tuple[int, ...]) -> ClassFunctionRaw:
    """Inflation along an integer composition: evaluate after zeroing every
    entry outside the diagonal blocks.  Accepts a function on the product
    group or a list of per-part functions."""
    psi = _as_product(psi)
    if tuple(sizes) != psi.ns:
        raise ValueError(f"function on {psi.ns} does not match composition {sizes}")
    q = psi.q
    n = sum(sizes)
    J = _interval_composition(tuple(sizes))
    part_of = {i: k for k, part in enumerate(J.parts) for i in part}
    group = get_group(n, q)
    values = {}
    for u in group.elements():
        truncated = tuple(
            value if part_of[i] == part_of[j] else 0
            for (i, j), value in zip(positions(n), u.entries)
        )
        parts = project_parts(group.wrap(truncated), J)
        values[u] = psi.values[parts]
    return ClassFunctionRaw(n, q, values)


def def_parts(f: ClassFunctionRaw, sizes: tuple[int, ...]) -> ProductClassFunction:
    """Deflation: average over the fibers of the block-truncation map."""
    if sum(sizes) != f.n:
        raise ValueError(f"composition {sizes} does not sum to {f.n}")
    q = f.q
    n = f.n
    J = _interval_composition(tuple(sizes))
    part_of = {i: k for k, part in enumerate(J.parts) for i in part}
    cross = [k for k, (i, j) in enumerate(positions(n)) if part_of[i] != part_of[j]]
    kernel_size = q ** len(cross)
    normalizer = CycRational.from_rational(q, Fraction(1, kernel_size))
    groups = [get_group(size, q) for size in sizes]
    values = {}
    for us in itertools.product(*(g.elements() for g in groups)):
        base = list(embed_parts(us, J, q).entries)
        total = CycRational.zero(q)
        for assignment in itertools.product(range(q), repeat=len(cross)):
            fiber = list(base)
            for k, value in zip(cross, assignment):
                fiber[k] = value
            total = total + f.values[UTElement(n, q, tuple(fiber))]
        values[us] = total * normalizer
    return ProductClassFunction(tuple(sizes), q, values)


def _mean_product(q: int, order: int, f: dict, g: dict) -> CycRational:
    """(1/order) sum over the keys of f of f * conj(g)."""
    total = CycRational.zero(q)
    for key, value in f.items():
        total = total + value * g[key].conj()
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
