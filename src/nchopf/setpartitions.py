"""Labeled set partitions, set partitions, and set compositions.

These are the index sets for every basis in the package.  A *labeled set
partition* of [n] = {1, ..., n} is a set of arcs i -(a)-> j with i < j and a
nonzero label a, such that no two arcs share a left endpoint and no two arcs
share a right endpoint.  Equivalently: a strictly upper-triangular matrix with
at most one nonzero entry in each row and each column.  Forgetting the labels,
the connected components of the arc diagram are increasing chains
i_1 -> i_2 -> ..., the blocks of an ordinary set partition of [n]; with all
labels equal to 1 this is a bijection.

Positions are 1-based throughout.
"""

from __future__ import annotations

import itertools
import math
import weakref
from typing import Iterable, Iterator, Sequence

from .limits import PRIME_BOUND, BoundExceededError

#: Below this, ``is_prime`` is trial division, faster than Miller-Rabin there
#: (about 26 us against 36 us at q = 65,521 on a 2-vCPU VM); every table
#: value and scalar checks its small prime on the hot paths.
_TRIAL_DIVISION_LIMIT = 1 << 17

#: The bases of the Miller-Rabin test: the primes up to 41.  Together they
#: decide primality exactly for every q below ``limits.PRIME_BOUND``.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(q: int) -> bool:
    """Trial division for small q; above ``_TRIAL_DIVISION_LIMIT`` a
    deterministic Miller-Rabin test.  A q at or over ``PRIME_BOUND`` that no
    base divides raises ``BoundExceededError``: the test is not proved
    exact there."""
    if q < _TRIAL_DIVISION_LIMIT:
        return _trial_division(q)
    if any(q % a == 0 for a in _WITNESSES):
        return False
    if q >= PRIME_BOUND:
        raise BoundExceededError(
            f"q={q} is over the configured bound {PRIME_BOUND} of the prime test"
        )
    return _miller_rabin(q)


def _trial_division(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def _miller_rabin(q: int) -> bool:
    """Whether q passes the strong probable-prime test to every base in
    ``_WITNESSES``: exact for 2 <= q < ``PRIME_BOUND``."""
    if q < 2 or q % 2 == 0:
        return q == 2
    return all(a % q == 0 or _strong_probable_prime(q, a) for a in _WITNESSES)


def _strong_probable_prime(q: int, a: int) -> bool:
    """One Miller-Rabin round: with q - 1 = d 2^s and d odd, a^d = 1 or
    a^(d 2^r) = -1 mod q for some r < s.  Every odd prime q not dividing a
    passes."""
    d, s = q - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, q)
    if x == 1 or x == q - 1:
        return True
    for _ in range(s - 1):
        x = x * x % q
        if x == q - 1:
            return True
    return False


def check_prime(q: int) -> None:
    if not is_prime(q):
        raise ValueError(f"q must be a prime >= 2, got {q}")


def check_size(n: int, q: int) -> None:
    """Refuse a size (n, q) that names no group UT_n(q) and no S_n(q): q not a
    prime, then n negative, each with ValueError."""
    check_prime(q)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")


def check_ints(what: str, values: Iterable, kind: str = "an integer") -> None:
    """Refuse, with ValueError, a value that is not an ``int`` or is a
    ``bool``: the one integer test.  Every public constructor reads its
    positions, labels, colors and sizes through this, so that 2.5, 1.0 and
    True are refused instead of compared as numbers."""
    for value in values:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{what} must be {kind}, got {value!r}")


def json_int(value, what: str) -> int:
    """An integer field of parsed JSON: an ``int`` that is not a ``bool``.
    Every ``from_json`` reads its integers through this, so that 2.5, 1e400
    (parsed as a float) and true are refused instead of truncated."""
    check_ints(what, (value,), "a JSON integer")
    return value


def json_list(value, what: str) -> list:
    """An array field of parsed JSON: a ``list``.  Every ``from_json`` reads
    its arrays through this, so that a string or an object is refused
    instead of iterated."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON array, got {value!r}")
    return value


class Arc(tuple):
    """An arc left -(label)-> right with 1 <= left < right and label >= 1."""

    __slots__ = ()

    def __new__(cls, left: int, right: int, label: int):
        check_ints("an arc endpoint or label", (left, right, label))
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


class _Value:
    """The base of every immutable value type: a slotted class whose
    ``_fields`` name the public constructor's arguments in order, each
    readable as an attribute.

    It refuses attribute assignment (constructors fill the slots through
    ``object.__setattr__`` or the slot descriptors), pickles and copies
    through the public constructor, so a hash-consed value comes back as the
    pooled instance, and compares field by field with values of exactly its
    own type.  The hash is the ``_hash`` slot the subclass fills; a subclass
    that equals other types or computes its hash overrides ``__eq__`` or
    ``__hash__``.  A subclass with a ``sort_key`` orders its values by it;
    ``<`` against any other type, or on a type without one, is a TypeError."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other) -> bool:
        return self is other or (
            type(other) is type(self)
            and all(getattr(self, name) == getattr(other, name) for name in self._fields)
        )

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other) -> bool:
        if type(other) is not type(self) or not hasattr(self, "sort_key"):
            return NotImplemented
        return self.sort_key() < other.sort_key()


def _no_ref() -> None:
    """Stands in for the weak reference of a key a pool does not hold.

    Each pool is a ``WeakValueDictionary``; a hit reads its dict of weak
    references directly, ``refs.get(key, _no_ref)()``, one C-level lookup
    and one call instead of the pure-Python ``get``.  An absent key and a
    dead reference (one whose removal is still pending while the pool is
    iterated) both read as None, a miss, and misses go through the pool's
    ``setdefault``."""
    return None


_PARTITIONS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_PARTITION_REFS = _PARTITIONS.data


def _labeled(n: int, arcs: tuple) -> "LabeledSetPartition":
    """The shared instance of the labeled set partition of [n] with these
    arcs, built without checks: for arcs derived from partitions that are
    already valid.  The caller guarantees a tuple of (left, right, label)
    triples, plain or ``Arc``, sorted by left endpoint, with
    1 <= left < right <= n, label >= 1, and no left or right endpoint
    repeated.  Plain triples are looked up as they are (a triple equals and
    hashes like its ``Arc``) and made into arcs only when the pool misses."""
    lam = _PARTITION_REFS.get((n, arcs), _no_ref)()
    if lam is None:
        arcs = tuple(a if type(a) is Arc else tuple.__new__(Arc, a) for a in arcs)
        lam = object.__new__(LabeledSetPartition)
        object.__setattr__(lam, "n", n)
        object.__setattr__(lam, "arcs", arcs)
        object.__setattr__(lam, "_hash", hash((n, arcs)))
        object.__setattr__(lam, "_max_label", max((a[2] for a in arcs), default=1))
        lam = _PARTITIONS.setdefault((n, arcs), lam)
    return lam


class LabeledSetPartition(_Value):
    """An element of S_n(q): arcs with distinct lefts and distinct rights.

    Immutable and hash-consed: the constructor validates and sorts the arcs,
    then returns the instance held under (n, arcs) in a weak pool, so equal
    partitions built by different routes are one object while any reference
    to it is alive.  Partitions derived from valid ones inside the package
    skip the checks through ``_labeled``.  Equality and hashing are still
    determined by (n, sorted arcs), with arcs kept in (left, right)
    lexicographic order.  The largest label is computed once per pooled
    instance.
    """

    __slots__ = ("n", "arcs", "_hash", "_max_label", "__weakref__")
    _fields = ("n", "arcs")

    def __new__(cls, n: int, arcs: Iterable[Arc | tuple[int, int, int]] = ()):
        check_ints("the size", (n,))
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
        arcs = [json_list(arc, "an arc") for arc in json_list(data["arcs"], "arcs")]
        arcs = [tuple(json_int(x, "an arc entry") for x in arc) for arc in arcs]
        return cls(json_int(data["n"], "n"), arcs)


_SET_PARTITIONS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_SET_PARTITION_REFS = _SET_PARTITIONS.data


def _set_partition(n: int, blocks: tuple) -> "SetPartition":
    """The shared instance of the set partition of [n] with these blocks,
    built without checks: for blocks derived from partitions that are
    already valid.  The caller guarantees a tuple of nonempty increasing
    tuples, ordered by their minima, that partition [n]."""
    sp = _SET_PARTITION_REFS.get((n, blocks), _no_ref)()
    if sp is None:
        sp = object.__new__(SetPartition)
        object.__setattr__(sp, "n", n)
        object.__setattr__(sp, "blocks", blocks)
        object.__setattr__(sp, "_hash", hash((n, blocks)))
        sp = _SET_PARTITIONS.setdefault((n, blocks), sp)
    return sp


class SetPartition(_Value):
    """A partition of [n] into disjoint nonempty blocks covering [n].

    Blocks are stored sorted internally and ordered by their minima.
    Hash-consed like ``LabeledSetPartition``: the constructor validates, then
    returns the instance held under (n, blocks) in a weak pool; partitions
    derived from valid ones inside the package skip the checks through
    ``_set_partition``.
    """

    __slots__ = ("n", "blocks", "_hash", "__weakref__")
    _fields = ("n", "blocks")

    def __new__(cls, n: int, blocks: Iterable[Iterable[int]]):
        blocks = [tuple(b) for b in blocks]
        check_ints("a size or block member", itertools.chain((n,), *blocks))
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

    def sort_key(self) -> tuple:
        return (self.n, self.blocks)

    def __repr__(self) -> str:
        return f"SetPartition({self.to_text()!r})"

    def num_blocks(self) -> int:
        return len(self.blocks)

    def to_text(self) -> str:
        return _blocks_to_text(self.n, self.blocks)

    @classmethod
    def from_text(cls, text: str) -> "SetPartition":
        """Parse "135|24" (digits) or "1,3,5|2,4" (comma-separated) forms."""
        blocks = _blocks_from_text(text)
        return cls(sum(len(b) for b in blocks), blocks)


def _blocks_to_text(n: int, blocks: Iterable[Iterable[int]]) -> str:
    """The text form of a list of blocks of [n]: "/" when n = 0, "135|24"
    when every member is one digit, "1,3,5|2,4" otherwise."""
    if n == 0:
        return "/"
    sep = "" if n <= 9 else ","
    return "|".join(sep.join(str(i) for i in block) for block in blocks)


def _blocks_from_text(text: str) -> list[list[int]]:
    """The blocks of a ``_blocks_to_text`` string, in their written order; a
    block with a comma is read as comma-separated, one without as digits."""
    text = text.strip()
    if text in ("", "/"):
        return []
    blocks = []
    for part in text.split("|"):
        part = part.strip()
        blocks.append([int(x) for x in (part.split(",") if "," in part else part)])
    return blocks


class SetComposition(_Value):
    """An ordered list of disjoint nonempty subsets covering [n]."""

    __slots__ = ("n", "parts", "_hash")
    _fields = ("parts",)

    def __init__(self, parts: Iterable[Iterable[int]]):
        parts = [tuple(p) for p in parts]
        check_ints("a part member", itertools.chain(*parts))
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

    def __repr__(self) -> str:
        return f"SetComposition({self.to_text()!r})"

    def to_text(self) -> str:
        return _blocks_to_text(self.n, self.parts)

    @classmethod
    def from_text(cls, text: str) -> "SetComposition":
        return cls(_blocks_from_text(text))

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

    Each is a set partition of [n] with its blocks read as chains
    i_1 -> i_2 -> ..., its ``arc_encoding``, and one label in F_q^x on each
    arc; so the count is the sum of (q-1)^(#arcs) over set partitions, the
    Bell number B_n for q = 2.
    """
    check_size(n, q)
    result = [
        _labeled(n, tuple((i, j, a) for (i, j, _), a in zip(arcs, labels)))
        for arcs in (arc_encoding(sp).arcs for sp in all_set_partitions(n))
        for labels in itertools.product(range(1, q), repeat=len(arcs))
    ]
    result.sort(key=LabeledSetPartition.sort_key)
    return result


def count_labeled_partitions(n: int, q: int) -> int:
    """|S_n(q)| without enumerating it: a set partition of [n] into b blocks
    is the underlying partition of labeled ones with n - b arcs, each arc
    carrying one of q - 1 labels, so the count is sum_b S(n, b) (q-1)^(n-b),
    with S(n, b) the Stirling numbers of the second kind."""
    check_size(n, q)
    row = [1]  # S(m, b) for b = 0..m, from m = 0 up to n
    for m in range(1, n + 1):
        row = [0] + [b * (row[b] if b < m else 0) + row[b - 1] for b in range(1, m + 1)]
    return sum(s * (q - 1) ** (n - b) for b, s in enumerate(row))


def underlying_set_partition(lam: LabeledSetPartition) -> SetPartition:
    """Forget the labels: each block is the chain i_1 -> i_2 -> ... of arcs
    that starts at a position no arc enters."""
    following = {l: r for l, r, _ in lam.arcs}
    entered = set(following.values())
    blocks = []
    for start in range(1, lam.n + 1):  # blocks come out in order of their minima
        if start not in entered:
            block = [start]
            while block[-1] in following:
                block.append(following[block[-1]])
            blocks.append(tuple(block))
    return _set_partition(lam.n, tuple(blocks))


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


def _restrict(lam: LabeledSetPartition, A: Sequence[int]) -> LabeledSetPartition:
    """lam|_A: the arcs with both ends in A, relabeled along the increasing
    bijection A -> [1, |A|]; every arc that leaves A is dropped.  A lists
    increasing positions of [lam.n].  The relabeling is increasing, so the
    arcs stay sorted."""
    rank = {pos: r for r, pos in enumerate(A, 1)}
    return _labeled(
        len(A), tuple((rank[l], rank[r], c) for l, r, c in lam.arcs if l in rank and r in rank)
    )


def straighten(lam: LabeledSetPartition, J: SetComposition) -> list[LabeledSetPartition]:
    """Split lam along the parts of J, relabeling each part onto an initial segment.

    Every arc must have both endpoints inside a single part of J; an arc
    straddling two parts is an error.
    """
    if J.n != lam.n:
        raise ValueError(f"composition of [{J.n}] does not match partition of [{lam.n}]")
    part_index = {i: k for k, part in enumerate(J.parts) for i in part}
    for a in lam.arcs:
        if part_index[a.left] != part_index[a.right]:
            raise ValueError(f"arc {a!r} straddles two parts of {J!r}")
    return [_restrict(lam, part) for part in J.parts]


def unstraighten(mu: LabeledSetPartition, A: Iterable[int], n: int) -> LabeledSetPartition:
    """Embed mu into [n] along the order-preserving bijection [|A|] -> A."""
    positions = sorted(A)
    for a, b in zip(positions, positions[1:]):
        if a == b:
            raise ValueError(f"subset {positions} repeats position {a}")
    if len(positions) != mu.n:
        raise ValueError(f"subset of size {len(positions)} cannot carry a partition of [{mu.n}]")
    if positions and not (1 <= positions[0] and positions[-1] <= n):
        raise ValueError(f"subset {positions} not contained in [1, {n}]")
    return LabeledSetPartition(
        n, ((positions[a.left - 1], positions[a.right - 1], a.label) for a in mu.arcs)
    )


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
    """All partitions of the given items into nonempty blocks.  Each block
    keeps the order of the items, and the blocks come in the order of their
    first items, so increasing items give blocks ordered by their minima."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in set_partitions_of(rest):
        for i in range(len(sub)):
            yield [[first] + sub[i]] + sub[:i] + sub[i + 1 :]
        yield [[first]] + sub


def all_set_partitions(n: int) -> list[SetPartition]:
    out = [_set_partition(n, tuple(map(tuple, b))) for b in set_partitions_of(range(1, n + 1))]
    out.sort(key=lambda sp: (sp.num_blocks(), sp.blocks))
    return out


def coarsenings(lam: SetPartition) -> list[SetPartition]:
    """Every partition obtained by merging blocks of lam, including lam itself."""
    out = []
    for grouping in set_partitions_of(range(len(lam.blocks))):
        merged = []
        for group in grouping:
            block: list[int] = []
            for idx in group:
                block.extend(lam.blocks[idx])
            merged.append(block)
        out.append(SetPartition(lam.n, merged))
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
    return sorted(out, key=lambda sp: (sp.num_blocks(), sp.blocks))


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
