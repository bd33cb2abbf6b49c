"""Labeled set partitions, set partitions, and set compositions.

These are the index sets for every basis in the package.  A *labeled set
partition* of [n] = {1, ..., n} is a set of arcs i -(a)-> j with i < j and a
nonzero label a, such that no two arcs share a left endpoint and no two arcs
share a right endpoint.  Equivalently: a strictly upper-triangular matrix with
at most one nonzero entry in each row and each column.  Forgetting the labels,
the connected components of the arc diagram are the blocks of an ordinary set
partition of [n]; with all labels equal to 1 this is a bijection.

Positions are 1-based throughout.
"""

from __future__ import annotations

import itertools
import math
import weakref
from typing import Iterable, Iterator, Sequence


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def check_prime(q: int) -> None:
    if not is_prime(q):
        raise ValueError(f"q must be a prime >= 2, got {q}")


class Arc(tuple):
    """An arc left -(label)-> right with 1 <= left < right and label >= 1."""

    __slots__ = ()

    def __new__(cls, left: int, right: int, label: int):
        if not (1 <= left < right):
            raise ValueError(f"arc endpoints must satisfy 1 <= left < right, got ({left}, {right})")
        if label < 1:
            raise ValueError(f"arc label must be a nonzero field residue >= 1, got {label}")
        return tuple.__new__(cls, (left, right, label))

    def __getnewargs__(self):
        return tuple(self)

    @property
    def left(self) -> int:
        return self[0]

    @property
    def right(self) -> int:
        return self[1]

    @property
    def label(self) -> int:
        return self[2]

    def __repr__(self) -> str:
        return f"{self.left}-{self.label}-{self.right}"


_PARTITIONS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _labeled(n: int, arcs: tuple) -> "LabeledSetPartition":
    """The shared instance of the labeled set partition of [n] with these
    arcs, built without checks: for arcs derived from partitions that are
    already valid.  The caller guarantees a tuple of (left, right, label)
    triples, plain or ``Arc``, sorted by left endpoint, with
    1 <= left < right <= n, label >= 1, and no left or right endpoint
    repeated.  Plain triples are looked up as they are (a triple equals and
    hashes like its ``Arc``) and made into arcs only when the pool misses."""
    lam = _PARTITIONS.get((n, arcs))
    if lam is None:
        arcs = tuple(a if type(a) is Arc else tuple.__new__(Arc, a) for a in arcs)
        lam = object.__new__(LabeledSetPartition)
        object.__setattr__(lam, "n", n)
        object.__setattr__(lam, "arcs", arcs)
        object.__setattr__(lam, "_hash", hash((n, arcs)))
        object.__setattr__(lam, "_max_label", max((a[2] for a in arcs), default=1))
        object.__setattr__(lam, "_underlying", None)
        lam = _PARTITIONS.setdefault((n, arcs), lam)
    return lam


class LabeledSetPartition:
    """An element of S_n(q): arcs with distinct lefts and distinct rights.

    Immutable and hash-consed: the constructor validates and sorts the arcs,
    then returns the instance held under (n, arcs) in a weak pool, so equal
    partitions built by different routes are one object while any reference
    to it is alive.  Partitions derived from valid ones inside the package
    skip the checks through ``_labeled``.  Equality and hashing are still
    determined by (n, sorted arcs), with arcs kept in (left, right)
    lexicographic order.  The largest label and the underlying set partition
    are computed once per pooled instance.
    """

    __slots__ = ("n", "arcs", "_hash", "_max_label", "_underlying", "__weakref__")

    def __new__(cls, n: int, arcs: Iterable[Arc | tuple[int, int, int]] = ()):
        if n < 0:
            raise ValueError(f"size must be nonnegative, got {n}")
        normalized = tuple(sorted(Arc(*a) for a in arcs))
        lefts = [a.left for a in normalized]
        rights = [a.right for a in normalized]
        for a in normalized:
            if a.right > n:
                raise ValueError(f"arc {a!r} exceeds ground set [1, {n}]")
        if len(set(lefts)) != len(lefts):
            raise ValueError(f"arcs share a left endpoint: {list(normalized)}")
        if len(set(rights)) != len(rights):
            raise ValueError(f"arcs share a right endpoint: {list(normalized)}")
        return _labeled(n, normalized)

    def __init__(self, n: int, arcs: Iterable[Arc | tuple[int, int, int]] = ()):
        """Nothing to do: ``__new__`` built or found the shared instance.
        Defined so the constructor stays an ordinary, wrappable method."""

    def __reduce__(self):
        return LabeledSetPartition, (self.n, self.arcs)

    def __setattr__(self, name, value):
        raise AttributeError("LabeledSetPartition is immutable")

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, LabeledSetPartition)
            and self.n == other.n
            and self.arcs == other.arcs
        )

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "LabeledSetPartition") -> bool:
        return self.sort_key() < other.sort_key()

    def sort_key(self) -> tuple:
        return (self.n, len(self.arcs), self.arcs)

    def __repr__(self) -> str:
        return f"LabeledSetPartition({self.to_text()!r})"

    def lefts(self) -> frozenset[int]:
        return frozenset(a.left for a in self.arcs)

    def rights(self) -> frozenset[int]:
        return frozenset(a.right for a in self.arcs)

    def max_label(self) -> int:
        return self._max_label

    def shift(self, k: int) -> "LabeledSetPartition":
        """Translate all positions by +k, enlarging the ground set to [n + k]."""
        return _labeled(self.n + k, tuple((l + k, r + k, a) for l, r, a in self.arcs))

    def to_text(self) -> str:
        arcs = ", ".join(f"{a.left}-{a.label}-{a.right}" for a in self.arcs)
        return f"{self.n}; {arcs}" if arcs else f"{self.n};"

    @classmethod
    def from_text(cls, text: str) -> "LabeledSetPartition":
        """Parse the "n; i-a-j, i-a-j" form, e.g. "5; 1-1-2, 3-2-5"."""
        head, _, tail = text.partition(";")
        n = int(head.strip())
        arcs = []
        for chunk in tail.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            left, label, right = (int(part) for part in chunk.split("-"))
            arcs.append((left, right, label))
        return cls(n, arcs)

    def to_json(self) -> dict:
        return {"n": self.n, "arcs": [[a.left, a.right, a.label] for a in self.arcs]}

    @classmethod
    def from_json(cls, data: dict) -> "LabeledSetPartition":
        return cls(int(data["n"]), [tuple(arc) for arc in data["arcs"]])


_SET_PARTITIONS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _set_partition(n: int, blocks: tuple) -> "SetPartition":
    """The shared instance of the set partition of [n] with these blocks,
    built without checks: for blocks derived from partitions that are
    already valid.  The caller guarantees a tuple of nonempty increasing
    tuples, ordered by their minima, that partition [n]."""
    sp = _SET_PARTITIONS.get((n, blocks))
    if sp is None:
        sp = object.__new__(SetPartition)
        object.__setattr__(sp, "n", n)
        object.__setattr__(sp, "blocks", blocks)
        object.__setattr__(sp, "_hash", hash((n, blocks)))
        sp = _SET_PARTITIONS.setdefault((n, blocks), sp)
    return sp


class SetPartition:
    """A partition of [n] into disjoint nonempty blocks covering [n].

    Blocks are stored sorted internally and ordered by their minima.
    Hash-consed like ``LabeledSetPartition``: the constructor validates, then
    returns the instance held under (n, blocks) in a weak pool; partitions
    derived from valid ones inside the package skip the checks through
    ``_set_partition``.
    """

    __slots__ = ("n", "blocks", "_hash", "__weakref__")

    def __new__(cls, n: int, blocks: Iterable[Iterable[int]]):
        normalized = tuple(
            sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0] if b else 0)
        )
        seen: list[int] = []
        for block in normalized:
            if not block:
                raise ValueError("blocks must be nonempty")
            seen.extend(block)
        if sorted(seen) != list(range(1, n + 1)):
            raise ValueError(f"blocks {normalized} do not partition [1, {n}]")
        return _set_partition(n, normalized)

    def __reduce__(self):
        return SetPartition, (self.n, self.blocks)

    def __setattr__(self, name, value):
        raise AttributeError("SetPartition is immutable")

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, SetPartition)
            and self.n == other.n
            and self.blocks == other.blocks
        )

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "SetPartition") -> bool:
        return (self.n, self.blocks) < (other.n, other.blocks)

    def __repr__(self) -> str:
        return f"SetPartition({self.to_text()!r})"

    def num_blocks(self) -> int:
        return len(self.blocks)

    def to_text(self) -> str:
        if self.n == 0:
            return "/"
        if self.n <= 9:
            return "|".join("".join(str(i) for i in b) for b in self.blocks)
        return "|".join(",".join(str(i) for i in b) for b in self.blocks)

    @classmethod
    def from_text(cls, text: str) -> "SetPartition":
        """Parse "135|24" (digits) or "1,3,5|2,4" (comma-separated) forms."""
        text = text.strip()
        if text in ("", "/"):
            return cls(0, [])
        blocks = []
        for part in text.split("|"):
            part = part.strip()
            if "," in part:
                block = [int(x) for x in part.split(",")]
            else:
                block = [int(ch) for ch in part]
            blocks.append(block)
        n = sum(len(b) for b in blocks)
        return cls(n, blocks)


class SetComposition:
    """An ordered list of disjoint nonempty subsets covering [n]."""

    __slots__ = ("n", "parts", "_hash")

    def __init__(self, parts: Iterable[Iterable[int]]):
        normalized = tuple(tuple(sorted(p)) for p in parts)
        seen: list[int] = []
        for part in normalized:
            if not part:
                raise ValueError("parts must be nonempty")
            seen.extend(part)
        n = len(seen)
        if sorted(seen) != list(range(1, n + 1)):
            raise ValueError(f"parts {normalized} do not partition an interval [1, n]")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "parts", normalized)
        object.__setattr__(self, "_hash", hash(normalized))

    def __setattr__(self, name, value):
        raise AttributeError("SetComposition is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, SetComposition) and self.parts == other.parts

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"SetComposition({self.to_text()!r})"

    def to_text(self) -> str:
        if self.n == 0:
            return "/"
        if self.n <= 9:
            return "|".join("".join(str(i) for i in p) for p in self.parts)
        return "|".join(",".join(str(i) for i in p) for p in self.parts)

    @classmethod
    def from_text(cls, text: str) -> "SetComposition":
        text = text.strip()
        if text in ("", "/"):
            return cls([])
        parts = []
        for part in text.split("|"):
            part = part.strip()
            if "," in part:
                parts.append([int(x) for x in part.split(",")])
            else:
                parts.append([int(ch) for ch in part])
        return cls(parts)

    @classmethod
    def from_interval_sizes(cls, sizes: Sequence[int]) -> "SetComposition":
        """The composition whose parts are consecutive intervals of the given sizes."""
        parts = []
        start = 1
        for size in sizes:
            parts.append(range(start, start + size))
            start += size
        return cls(parts)


# ---------------------------------------------------------------------------
# operations


def enumerate_labeled_partitions(n: int, q: int) -> list[LabeledSetPartition]:
    """All of S_n(q) in the canonical order: by arc count, then arc list.

    The count is the Bell number B_n for q = 2 and, in general, the sum of
    (q-1)^(#arcs) over all arc-position patterns.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    check_prime(q)
    positions = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    patterns: list[tuple[tuple[int, int], ...]] = []

    def extend(start: int, chosen: list[tuple[int, int]], lefts: set[int], rights: set[int]):
        patterns.append(tuple(chosen))
        for idx in range(start, len(positions)):
            i, j = positions[idx]
            if i in lefts or j in rights:
                continue
            chosen.append((i, j))
            lefts.add(i)
            rights.add(j)
            extend(idx + 1, chosen, lefts, rights)
            chosen.pop()
            lefts.discard(i)
            rights.discard(j)

    extend(0, [], set(), set())
    result = []
    for pattern in patterns:  # each pattern lists its positions in increasing order
        for labels in itertools.product(range(1, q), repeat=len(pattern)):
            result.append(_labeled(n, tuple((i, j, a) for (i, j), a in zip(pattern, labels))))
    result.sort(key=LabeledSetPartition.sort_key)
    return result


def count_labeled_partitions(n: int, q: int) -> int:
    """|S_n(q)| without enumerating it: a set partition of [n] into b blocks
    is the underlying partition of labeled ones with n - b arcs, each arc
    carrying one of q - 1 labels, so the count is sum_b S(n, b) (q-1)^(n-b),
    with S(n, b) the Stirling numbers of the second kind."""
    row = [1]  # S(m, b) for b = 0..m, from m = 0 up to n
    for m in range(1, n + 1):
        row = [0] + [b * (row[b] if b < m else 0) + row[b - 1] for b in range(1, m + 1)]
    return sum(s * (q - 1) ** (n - b) for b, s in enumerate(row))


def underlying_set_partition(lam: LabeledSetPartition) -> SetPartition:
    """Blocks are the connected components of the arc diagram, labels ignored.
    Computed once per pooled partition and kept with it."""
    sp = lam._underlying
    if sp is None:
        sp = _components(lam)
        object.__setattr__(lam, "_underlying", sp)
    return sp


def _components(lam: LabeledSetPartition) -> SetPartition:
    parent = {i: i for i in range(1, lam.n + 1)}

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a in lam.arcs:
        parent[find(a.left)] = find(a.right)
    components: dict[int, list[int]] = {}
    for i in range(1, lam.n + 1):  # blocks come out increasing, in order of their minima
        components.setdefault(find(i), []).append(i)
    return _set_partition(lam.n, tuple(tuple(block) for block in components.values()))


def arc_encoding(sp: SetPartition) -> LabeledSetPartition:
    """The inverse of ``underlying_set_partition`` on S_n(2): consecutive block
    members joined by arcs labeled 1."""
    arcs = [(a, b, 1) for block in sp.blocks for a, b in zip(block, block[1:])]
    return _labeled(sp.n, tuple(sorted(arcs)))


def concat(lam: LabeledSetPartition, mu: LabeledSetPartition) -> LabeledSetPartition:
    """Place mu to the right of lam: mu's positions are shifted by lam.n."""
    return _labeled(lam.n + mu.n, lam.arcs + mu.shift(lam.n).arcs)


def concat_set_partitions(lam: SetPartition, mu: SetPartition) -> SetPartition:
    shifted = tuple(tuple(i + lam.n for i in block) for block in mu.blocks)
    return _set_partition(lam.n + mu.n, lam.blocks + shifted)


def straighten(lam: LabeledSetPartition, J: SetComposition) -> list[LabeledSetPartition]:
    """Split lam along the parts of J, relabeling each part onto an initial segment.

    Every arc must have both endpoints inside a single part of J; an arc
    straddling two parts is an error.
    """
    if J.n != lam.n:
        raise ValueError(f"composition of [{J.n}] does not match partition of [{lam.n}]")
    part_index = {i: k for k, part in enumerate(J.parts) for i in part}
    split: list[list[tuple[int, int, int]]] = [[] for _ in J.parts]
    for a in lam.arcs:
        if part_index[a.left] != part_index[a.right]:
            raise ValueError(f"arc {a!r} straddles two parts of {J!r}")
        split[part_index[a.left]].append(a)
    out = []
    for part, arcs in zip(J.parts, split):
        # relabeling is increasing, so the arcs stay sorted
        relabel = {pos: idx + 1 for idx, pos in enumerate(part)}
        out.append(_labeled(len(part), tuple((relabel[l], relabel[r], a) for l, r, a in arcs)))
    return out


def unstraighten(mu: LabeledSetPartition, A: Iterable[int], n: int) -> LabeledSetPartition:
    """Embed mu into [n] along the order-preserving bijection [|A|] -> A."""
    positions = sorted(A)
    if len(positions) != mu.n:
        raise ValueError(f"subset of size {len(positions)} cannot carry a partition of [{mu.n}]")
    if positions and not (1 <= positions[0] and positions[-1] <= n):
        raise ValueError(f"subset {positions} not contained in [1, {n}]")
    return LabeledSetPartition(
        n, ((positions[a.left - 1], positions[a.right - 1], a.label) for a in mu.arcs)
    )


def restrict_arcs(lam: LabeledSetPartition, A: Iterable[int]) -> LabeledSetPartition:
    """Keep exactly the arcs with both endpoints in A; positions unchanged."""
    members = set(A)
    return _labeled(lam.n, tuple(a for a in lam.arcs if a.left in members and a.right in members))


def common_refinement(rho: SetPartition, sigma: SetPartition) -> SetPartition:
    """Blockwise intersection: the finest partition coarsened by both arguments."""
    if rho.n != sigma.n:
        raise ValueError(f"size mismatch: {rho.n} vs {sigma.n}")
    blocks = []
    for b1 in rho.blocks:
        s1 = set(b1)
        for b2 in sigma.blocks:
            inter = s1.intersection(b2)
            if inter:
                blocks.append(inter)
    return SetPartition(rho.n, blocks)


def set_partitions_of(items: Sequence) -> Iterator[list[list]]:
    """All partitions of the given items into nonempty blocks."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in set_partitions_of(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
        yield [[first]] + sub


def all_set_partitions(n: int) -> list[SetPartition]:
    out = [SetPartition(n, blocks) for blocks in set_partitions_of(range(1, n + 1))]
    out.sort(key=lambda sp: (sp.num_blocks(), sp.blocks))
    return out


def coarsenings(lam: SetPartition) -> list[SetPartition]:
    """Every partition obtained by merging blocks of lam, including lam itself."""
    out = set()
    for grouping in set_partitions_of(range(len(lam.blocks))):
        merged = []
        for group in grouping:
            block: list[int] = []
            for idx in group:
                block.extend(lam.blocks[idx])
            merged.append(block)
        out.add(SetPartition(lam.n, merged))
    return sorted(out, key=lambda sp: (sp.num_blocks(), sp.blocks))


def refinements(lam: SetPartition) -> list[SetPartition]:
    """Every partition whose blocks subdivide the blocks of lam."""
    per_block = [list(set_partitions_of(block)) for block in lam.blocks]
    out = []
    for choice in itertools.product(*per_block):
        blocks: list[list[int]] = []
        for sub in choice:
            blocks.extend(sub)
        out.append(SetPartition(lam.n, blocks))
    return sorted(set(out), key=lambda sp: (sp.num_blocks(), sp.blocks))


def partition_mobius(finer: SetPartition, coarser: SetPartition) -> int:
    """The Moebius function mu(finer, coarser) of the lattice of set partitions.

    The interval [finer, coarser] is a product of full partition lattices,
    one per block of coarser, so mu is the product over those blocks of
    (-1)^(k-1) (k-1)!, where k is the number of finer blocks the block merges
    (Rota, On the foundations of combinatorial theory I, 1964).
    """
    if finer.n != coarser.n:
        raise ValueError(f"size mismatch: {finer.n} vs {coarser.n}")
    location = {i: b for b, block in enumerate(coarser.blocks) for i in block}
    merged = [0] * len(coarser.blocks)
    for block in finer.blocks:
        homes = {location[i] for i in block}
        if len(homes) != 1:
            raise ValueError(f"{finer!r} does not refine {coarser!r}")
        merged[homes.pop()] += 1
    value = 1
    for k in merged:
        value *= (-1) ** (k - 1) * math.factorial(k - 1)
    return value


def crossing_statistic(lam: LabeledSetPartition) -> int:
    """Number of crossing arc pairs: i -> k and j -> l with i < j < k < l."""
    count = 0
    for a, b in itertools.combinations(lam.arcs, 2):
        i, k = a.left, a.right
        j, l = b.left, b.right
        if i < j < k < l or j < i < l < k:
            count += 1
    return count
