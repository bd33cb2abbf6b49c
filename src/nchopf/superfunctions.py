"""The Hopf algebra of superclass functions of the unitriangular groups.

Superclass functions of UT_n(q) for all n at once, on two bases indexed by
labeled set partitions: the superclass indicator functions (basis tag
"kappa") and the supercharacters (basis tag "chi").  The kappa basis carries
the combinatorial product and coproduct; the chi basis routes through kappa
by the supercharacter table, one table per grade, and back by its inverse,
which the orthogonality of supercharacters gives in closed form.

Products concatenate ground sets and coproducts split them:

* kappa product: all ways of adding connecting arcs from the first block of
  positions to the second, keeping left and right endpoints distinct;
* kappa coproduct: all two-colorings of the positions such that no arc is
  split, each side relabeled onto an initial segment.
"""

from __future__ import annotations

import itertools
import json
import os
import tempfile
import threading
from collections import Counter
from fractions import Fraction
from pathlib import Path

from .cyclotomic import CycRational, solve_linear_system, theta
from .elements import (
    AlgebraElement,
    BasisIndex,
    TensorElement,
    linear_map,
    product,  # noqa: F401  (public alias: callers read superfunctions.product)
    register_basis,
    register_transported,
)
from .limits import DEFAULT_TABLE_BOUND, TABLE_SIZE_BOUND, BoundExceededError
from .setpartitions import (
    LabeledSetPartition,
    _labeled,
    check_prime,
    count_labeled_partitions,
    crossing_statistic,
    enumerate_labeled_partitions,
)

TABLE_FORMAT_VERSION = 1


def group_order(n: int, q: int) -> int:
    return q ** (n * (n - 1) // 2)


# ---------------------------------------------------------------------------
# kappa basis structure maps


def kappa_element(q: int, lam: LabeledSetPartition, coeff=1) -> AlgebraElement:
    return AlgebraElement.monomial(q, "kappa", lam, coeff)


def chi_element(q: int, lam: LabeledSetPartition, coeff=1) -> AlgebraElement:
    return AlgebraElement.monomial(q, "chi", lam, coeff)


def _kappa_product(q: int, a: BasisIndex, b: BasisIndex) -> AlgebraElement:
    return AlgebraElement._trusted(q, "kappa", connecting_arc_sums(q, a.partition, b.partition))


def connecting_arc_sums(
    q: int, mu: LabeledSetPartition, nu: LabeledSetPartition
) -> dict[BasisIndex, int]:
    """Indices of the kappa product: mu, nu placed side by side plus every
    admissible set of labeled arcs crossing from [k] to [k+1, k+m]."""
    k = mu.n
    n = k + nu.n
    shifted = nu.shift(k)
    free_lefts = [i for i in range(1, k + 1) if i not in mu.lefts()]
    free_rights = [j for j in range(k + 1, n + 1) if j not in shifted.rights()]
    terms: dict[BasisIndex, int] = {}
    for s in range(0, min(len(free_lefts), len(free_rights)) + 1):
        for lefts in itertools.combinations(free_lefts, s):
            for rights in itertools.permutations(free_rights, s):
                for labels in itertools.product(range(1, q), repeat=s):
                    # every left endpoint in [k] precedes the shifted arcs of nu
                    arcs = tuple(sorted(mu.arcs + tuple(zip(lefts, rights, labels))))
                    lam = _labeled(n, arcs + shifted.arcs)
                    terms[BasisIndex("kappa", n, lam)] = 1
    return terms


def _straighten_pair(
    lam: LabeledSetPartition, subset: tuple[int, ...]
) -> tuple[LabeledSetPartition, LabeledSetPartition]:
    members = set(subset)
    complement = tuple(i for i in range(1, lam.n + 1) if i not in members)
    left_map = {pos: r + 1 for r, pos in enumerate(subset)}
    right_map = {pos: r + 1 for r, pos in enumerate(complement)}
    left_arcs, right_arcs = [], []
    for left, right, label in lam.arcs:  # the relabelings are increasing: arcs stay sorted
        if left in members:
            left_arcs.append((left_map[left], left_map[right], label))
        else:
            right_arcs.append((right_map[left], right_map[right], label))
    return _labeled(len(subset), tuple(left_arcs)), _labeled(len(complement), tuple(right_arcs))


def kappa_coproduct_terms(q: int, lam: LabeledSetPartition) -> TensorElement:
    n = lam.n
    terms: Counter = Counter()
    for size in range(n + 1):
        for subset in itertools.combinations(range(1, n + 1), size):
            members = set(subset)
            if any((arc.left in members) != (arc.right in members) for arc in lam.arcs):
                continue
            left, right = _straighten_pair(lam, subset)
            terms[BasisIndex("kappa", size, left), BasisIndex("kappa", n - size, right)] += 1
    return TensorElement._trusted(q, "kappa", terms)


# ---------------------------------------------------------------------------
# supercharacter values and tables


def supercharacter_degree(lam: LabeledSetPartition, q: int) -> int:
    """Value at the identity: the product of q^(right - left - 1) over arcs."""
    exponent = sum(a.right - a.left - 1 for a in lam.arcs)
    return q**exponent


def supercharacter_value(
    lam: LabeledSetPartition, mu: LabeledSetPartition, q: int
) -> CycRational:
    """The value of the supercharacter of lam on the superclass of mu.

    Zero whenever some arc i -> k of lam has a mu-arc leaving i or entering k
    strictly inside (i, k).  Otherwise an integer power of q (positions
    strictly under lam's arcs, discounted by mu-arcs nested strictly inside
    lam-arcs) times a product of character values over coincident arcs.
    """
    if lam.n != mu.n:
        raise ValueError(f"size mismatch: {lam.n} vs {mu.n}")
    check_prime(q)
    mu_arcs = mu.arcs
    for a in lam.arcs:
        for b in mu_arcs:
            if b.left == a.left and a.left < b.right < a.right:
                return CycRational.zero(q)
            if b.right == a.right and a.left < b.left < a.right:
                return CycRational.zero(q)
    under = sum(a.right - a.left - 1 for a in lam.arcs)
    nested = sum(
        1
        for a in lam.arcs
        for b in mu_arcs
        if a.left < b.left and b.right < a.right
    )
    exponent = under - nested
    if exponent < 0:
        raise AssertionError(
            f"negative q-exponent {exponent} for {lam!r}, {mu!r}: nesting exceeds cover count"
        )
    value = CycRational.from_rational(q, q**exponent)
    for a in lam.arcs:
        for b in mu_arcs:
            if a.left == b.left and a.right == b.right:
                value = value * theta(q, (a.label * b.label) % q)
    return value


class SupercharTable:
    """The full supercharacter table of UT_n(q) plus superclass sizes.

    Rows are supercharacters, columns superclasses, both in the canonical
    enumeration order of the index set.
    """

    def __init__(self, n, q, order, values, class_sizes):
        self.n = n
        self.q = q
        self.order = tuple(order)
        self.values = tuple(tuple(row) for row in values)
        self.class_sizes = tuple(int(s) for s in class_sizes)
        self._index = {lam: i for i, lam in enumerate(self.order)}
        self._keys: dict[str, tuple[BasisIndex, ...]] = {}
        self._weights: tuple[Fraction, ...] | None = None
        self._inverse_rows: list[tuple[CycRational, ...] | None] = [None] * len(self.order)
        if len(self.values) != len(self.order) or any(
            len(row) != len(self.order) for row in self.values
        ):
            raise ValueError("table shape does not match index order")
        if len(self.class_sizes) != len(self.order):
            raise ValueError("class size vector does not match index order")

    @property
    def group_order(self) -> int:
        return group_order(self.n, self.q)

    def index(self, lam: LabeledSetPartition) -> int:
        return self._index[lam]

    def value(self, lam: LabeledSetPartition, mu: LabeledSetPartition) -> CycRational:
        return self.values[self._index[lam]][self._index[mu]]

    def class_size(self, mu: LabeledSetPartition) -> int:
        return self.class_sizes[self._index[mu]]

    def indices(self, basis: str) -> tuple[BasisIndex, ...]:
        """The index order as basis indices of the given tag, built once per
        tag and kept with the table for the basis changes."""
        keys = self._keys.get(basis)
        if keys is None:
            keys = self._keys[basis] = tuple(BasisIndex(basis, self.n, lam) for lam in self.order)
        return keys

    def weights(self) -> tuple[Fraction, ...]:
        """w_lam = 1 / (|G| q^crs(lam)) in index order, built once per table:
        supercharacters are orthogonal with <chi^lam, chi^lam> = q^crs(lam)."""
        weights = self._weights
        if weights is None:
            order = self.group_order
            weights = self._weights = tuple(
                Fraction(1, order * self.q ** crossing_statistic(lam)) for lam in self.order
            )
        return weights

    def inverse_row(self, i: int) -> tuple[CycRational, ...]:
        """Row mu = order[i] of the inverse table, by orthogonality:
        T^-1[mu][lam] = |K_mu| conj(T[lam][mu]) w_lam.  Cached per row; a
        thread race only computes a row twice."""
        row = self._inverse_rows[i]
        if row is None:
            size = self.class_sizes[i]
            column = (values[i] for values in self.values)
            row = self._inverse_rows[i] = tuple(
                v.conj() * (size * w) if v else v for v, w in zip(column, self.weights())
            )
        return row

    def inverse(self) -> tuple[tuple[CycRational, ...], ...]:
        """The exact inverse of the value matrix, as the tuple of its rows."""
        return tuple(self.inverse_row(i) for i in range(len(self.order)))

    def validate_basic(self) -> None:
        if self.order and self.order[0].arcs:
            raise ValueError("canonical order must start with the empty partition")
        if sum(self.class_sizes) != self.group_order:
            raise ValueError("superclass sizes do not sum to the group order")
        for i, lam in enumerate(self.order):
            expected = supercharacter_degree(lam, self.q)
            if self.values[i][0] != expected:
                raise ValueError(f"degree of row {lam!r} is not {expected}")

    def to_json(self) -> dict:
        return {
            "format": TABLE_FORMAT_VERSION,
            "n": self.n,
            "q": self.q,
            "order": [lam.to_json() for lam in self.order],
            "values": [[v.to_json() for v in row] for row in self.values],
            "class_sizes": list(self.class_sizes),
        }

    @classmethod
    def from_json(cls, data: dict) -> "SupercharTable":
        return cls(
            int(data["n"]),
            int(data["q"]),
            [LabeledSetPartition.from_json(item) for item in data["order"]],
            [[CycRational.from_json(v) for v in row] for row in data["values"]],
            data["class_sizes"],
        )


_TABLE_CACHE: dict[tuple[int, int], SupercharTable] = {}
_TABLE_LOCK = threading.Lock()


def default_cache_dir() -> Path:
    env = os.environ.get("NCHOPF_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "nchopf"


def _table_path(n: int, q: int, cache_dir: Path) -> Path:
    return cache_dir / f"supercharacter-table-v{TABLE_FORMAT_VERSION}-n{n}-q{q}.json"


def _compute_table(n: int, q: int) -> SupercharTable:
    order = enumerate_labeled_partitions(n, q)
    values = [
        [supercharacter_value(lam, mu, q) for mu in order] for lam in order
    ]
    # Weighted orthogonality against the trivial character pins the sizes:
    # sum_mu size(mu) * chi^lam(mu) = |G| * delta(lam, empty).
    size = len(order)
    total = group_order(n, q)
    rhs = [CycRational.zero(q)] * size
    rhs[0] = CycRational.from_rational(q, total)
    solved = solve_linear_system(values, rhs)
    sizes = []
    for lam, value in zip(order, solved):
        rational = value.rational_value()
        if rational.denominator != 1 or rational <= 0:
            raise AssertionError(f"superclass size for {lam!r} is not a positive integer: {rational}")
        sizes.append(int(rational))
    table = SupercharTable(n, q, order, values, sizes)
    table.validate_basic()
    return table


def supercharacter_table(
    n: int,
    q: int,
    *,
    bound: int = DEFAULT_TABLE_BOUND,
    cache_dir: str | os.PathLike | None = None,
    use_disk_cache: bool = True,
) -> SupercharTable:
    """The supercharacter table of UT_n(q), cached in memory and on disk."""
    check_prime(q)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n > bound:
        raise BoundExceededError(f"table for n={n} exceeds the configured bound {bound}")
    key = (n, q)
    with _TABLE_LOCK:
        if key in _TABLE_CACHE:
            return _TABLE_CACHE[key]
    size = count_labeled_partitions(n, q)
    if size > TABLE_SIZE_BOUND:
        raise BoundExceededError(
            f"table for n={n}, q={q} has {size} indices, over the configured bound"
            f" {TABLE_SIZE_BOUND}"
        )
    directory = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    path = _table_path(n, q, directory)
    table = None
    if use_disk_cache and path.is_file():
        try:
            table = _load_table(path, n, q)
        except (ValueError, KeyError, TypeError):
            table = None  # stale or corrupt cache entry; recompute and overwrite
    if table is None:
        table = _compute_table(n, q)
        if use_disk_cache:
            _write_atomically(path, json.dumps(table.to_json()))
    with _TABLE_LOCK:
        _TABLE_CACHE.setdefault(key, table)
        return _TABLE_CACHE[key]


def _load_table(path: Path, n: int, q: int) -> SupercharTable:
    """Read a cached table, raising ValueError unless it is the table of
    UT_n(q): same (n, q), the canonical index order, values over Q(zeta_q),
    the degree and size-sum checks of ``validate_basic``, and the weighted
    orthogonality the sizes are solved from."""
    table = SupercharTable.from_json(json.loads(path.read_text()))
    if (table.n, table.q) != (n, q):
        raise ValueError(f"cache file holds the table for n={table.n}, q={table.q}")
    if list(table.order) != enumerate_labeled_partitions(n, q):
        raise ValueError("cache file index order is not the canonical one")
    if any(v.p != q for row in table.values for v in row):
        raise ValueError(f"cache file values are not over Q(zeta_{q})")
    table.validate_basic()
    # sum_mu |K_mu| chi^lam(mu) = |G| delta(lam, empty) for every lam; the
    # table is invertible, so this pins every class size.
    zero = CycRational.zero(q)
    for i, row in enumerate(table.values):
        total = sum((v * size for v, size in zip(row, table.class_sizes) if v), zero)
        if total != (table.group_order if i == 0 else 0):
            raise ValueError(f"cache file class sizes fail orthogonality at {table.order[i]!r}")
    return table


def _write_atomically(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        "w", dir=path.parent, prefix=path.name, suffix=".tmp", delete=False
    )
    try:
        handle.write(text)
        handle.close()
        os.replace(handle.name, path)
    except BaseException:
        handle.close()
        if os.path.exists(handle.name):
            os.unlink(handle.name)
        raise


def clear_table_cache() -> None:
    with _TABLE_LOCK:
        _TABLE_CACHE.clear()


# ---------------------------------------------------------------------------
# basis change and inner product


def chi_to_kappa(x: AlgebraElement, **table_options) -> AlgebraElement:
    """chi^lam = sum_mu table[lam][mu] kappa_mu, per grade."""

    def image(idx):
        table = supercharacter_table(idx.grade, x.q, **table_options)
        row = table.values[table.index(idx.partition)]
        return {key: v for key, v in zip(table.indices("kappa"), row) if v}

    return linear_map(x, "kappa", image, source="chi")


def kappa_to_chi(x: AlgebraElement, **table_options) -> AlgebraElement:
    """kappa_mu = sum_lam T^-1[mu][lam] chi^lam, per grade, reading only the
    inverse rows of the indices in x."""

    def image(idx):
        table = supercharacter_table(idx.grade, x.q, **table_options)
        row = table.inverse_row(table.index(idx.partition))
        return {key: v for key, v in zip(table.indices("chi"), row) if v}

    return linear_map(x, "chi", image, source="kappa")


def inner_product(x: AlgebraElement, y: AlgebraElement, **table_options) -> CycRational:
    """The class-function inner product, conjugate-linear in its second slot.

    Computed per grade as (1/|G|) sum over superclasses of
    size * x(superclass) * conj(y(superclass)); cross-grade pairs give 0.
    """
    if x.q != y.q:
        raise ValueError(f"q mismatch: {x.q} vs {y.q}")
    q = x.q
    if x.basis == "chi":
        x = chi_to_kappa(x, **table_options)
    if y.basis == "chi":
        y = chi_to_kappa(y, **table_options)
    if x.basis != "kappa" or y.basis != "kappa":
        raise ValueError("inner products are defined for kappa/chi elements")
    total = CycRational.zero(q)
    for n in sorted(x.grades() & y.grades()):
        table = supercharacter_table(n, q, **table_options)
        scale = Fraction(1, table.group_order)
        for j, idx in enumerate(table.indices("kappa")):
            cx = x.terms.get(idx)
            cy = y.terms.get(idx)
            if cx is None or cy is None:
                continue
            total = total + cx * cy.conj() * (scale * table.class_sizes[j])
    return total


# ---------------------------------------------------------------------------
# filtration by arc length


def filtration_membership(lam: LabeledSetPartition, k: int) -> bool:
    """True when every arc has length right - left at most k."""
    return all(a.right - a.left <= k for a in lam.arcs)


def is_linear_index(lam: LabeledSetPartition) -> bool:
    """True when every arc joins adjacent positions (length exactly 1)."""
    return all(a.right - a.left == 1 for a in lam.arcs)


def interval_chain(k: int) -> LabeledSetPartition:
    """The chain 1 -> 2 -> ... -> k with unit labels, on ground set [k]."""
    return LabeledSetPartition(k, ((i, i + 1, 1) for i in range(1, k)))


register_basis("kappa", product=_kappa_product, coproduct=lambda q, a: kappa_coproduct_terms(q, a.partition))
register_transported("chi", chi_to_kappa, kappa_to_chi)
