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
* kappa coproduct: restriction to U_A x U_{A^c}, summed over the sets A
  that are unions of blocks (those no arc leaves), each side relabeled onto
  an initial segment (``elements.restriction_coproduct``).
"""

from __future__ import annotations

import itertools
import json
import os
import tempfile
import threading
from fractions import Fraction
from pathlib import Path

from .cyclotomic import CycRational, solve_linear_system, theta
from .elements import (
    AlgebraElement,
    BasisIndex,
    linear_map,
    product,  # noqa: F401  (public alias: callers read superfunctions.product)
    register_basis,
    register_transported,
    restriction_coproduct,
)
from .limits import check_grade, check_work
from .setpartitions import (
    LabeledSetPartition,
    _labeled,
    check_prime,
    check_size,
    count_labeled_partitions,
    crossing_statistic,
    enumerate_labeled_partitions,
    json_int,
    json_list,
    underlying_set_partition,
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
    """The two indices side by side plus every admissible set of labeled
    arcs crossing from [k] to [k+1, k+m].  The keys carry a's tag: the k
    basis of colored NCSym registers this rule too, since ``ch`` sends kappa
    to k index for index and is a Hopf isomorphism, and m's product is this
    rule at q = 2 (``ncsym._m_product``)."""
    mu, nu = a.partition, b.partition
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
                    terms[BasisIndex(a.basis, n, lam)] = 1
    return AlgebraElement._trusted(q, a.basis, terms)


def _block_unions(lam: LabeledSetPartition):
    """Every union of blocks of lam's underlying set partition, as
    increasing positions: exactly the sets A that no arc of lam leaves."""
    blocks = underlying_set_partition(lam).blocks
    for size in range(len(blocks) + 1):
        for chosen in itertools.combinations(blocks, size):
            yield tuple(sorted(itertools.chain.from_iterable(chosen)))


#: Restriction to every union of blocks.  The keys carry the argument's tag,
#: as in ``_kappa_product``: k registers this rule, and so do m and p, whose
#: arc-encoded blocks split exactly as kappa's do.
_kappa_coproduct = restriction_coproduct(_block_unions)


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
    if lam.max_label() >= q or mu.max_label() >= q:
        bad = lam if lam.max_label() >= q else mu
        raise ValueError(f"{bad!r} is not in S_{bad.n}({q}): it has a label >= q")
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


#: The four table basis changes, by source tag: (target tag, whether the
#: change reads S = diag(w) T diag(|K|) rather than the table T, whether it
#: reads the conjugate of column i rather than row i).  Orthogonality gives
#: T^-1 = S*, and the two dual changes are the transposes of the primal ones.
_CHANGES = {
    "chi": ("kappa", False, False),
    "kappa": ("chi", True, True),
    "chi_star": ("kappa_star", True, False),
    "kappa_star": ("chi_star", False, True),
}


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
        self._images: dict[str, list[dict | None]] = {}
        if len(self.values) != len(self.order) or any(
            len(row) != len(self.order) for row in self.values
        ):
            raise ValueError("table shape does not match index order")
        if len(self.class_sizes) != len(self.order):
            raise ValueError("class size vector does not match index order")
        # w_lam = 1 / (|G| q^crs(lam)) in index order: supercharacters are
        # orthogonal with <chi^lam, chi^lam> = q^crs(lam)
        g = group_order(n, q)
        self.weights = tuple(Fraction(1, g * q ** crossing_statistic(lam)) for lam in self.order)

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

    def image(self, source: str, i: int) -> dict:
        """The sparse image of index order[i] of the basis ``source`` under
        its table basis change (``_CHANGES``): a map from basis indices of
        the target to nonzero ``CycRational`` values, built on first use and
        cached per index; a thread race only builds an entry twice.  Every
        caller shares the cached map, so none may mutate it."""
        images = self._images.get(source)
        if images is None:
            images = self._images.setdefault(source, [None] * len(self.order))
        image = images[i]
        if image is None:
            image = images[i] = self._build_image(source, i)
        return image

    def _build_image(self, source: str, i: int) -> dict:
        target, scaled, column = _CHANGES[source]
        if column:
            entries = [(j, row[i].conj()) for j, row in enumerate(self.values) if row[i]]
        else:
            entries = [(j, v) for j, v in enumerate(self.values[i]) if v]
        keys = self.indices(target)
        if not scaled:
            return {keys[j]: v for j, v in entries}
        # S[lam][mu] = w_lam |K_mu| T[lam][mu]; lam runs down a column
        w, sizes = self.weights, self.class_sizes
        return {keys[j]: v * (w[j] * sizes[i] if column else w[i] * sizes[j]) for j, v in entries}

    def inverse(self) -> tuple[tuple[CycRational, ...], ...]:
        """The exact inverse of the value matrix, as the tuple of its rows:
        the dense view of the ``kappa`` images."""
        zero, keys = CycRational.zero(self.q), self.indices("chi")
        images = (self.image("kappa", i) for i in range(len(keys)))
        return tuple(tuple(image.get(key, zero) for key in keys) for image in images)

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
        rows = json_list(data["values"], "values")
        return cls(
            json_int(data["n"], "n"),
            json_int(data["q"], "q"),
            [LabeledSetPartition.from_json(item) for item in json_list(data["order"], "order")],
            [[CycRational.from_json(v) for v in json_list(row, "a table row")] for row in rows],
            [json_int(s, "a class size") for s in json_list(data["class_sizes"], "class sizes")],
        )


_TABLE_CACHE: dict[tuple[int, int], SupercharTable] = {}
_TABLE_LOCK = threading.Lock()


def default_cache_dir() -> Path:
    """NCHOPF_CACHE_DIR unless it is empty, else nchopf under XDG_CACHE_HOME
    if that is an absolute path (the XDG Base Directory spec ignores a
    relative one), else ~/.cache/nchopf."""
    env = os.environ.get("NCHOPF_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME", "")
    base = Path(xdg) if os.path.isabs(xdg) else Path.home() / ".cache"
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


def table_work(n: int, q: int) -> int:
    """The cost of a full table of UT_n(q), estimated without building it:
    N^3 (q - 1)^2 for its N indices, since the class-size solve is cubic in N
    and each value is a cyclotomic of degree q - 1.  The solve's pivot steps
    touch only the columns from the pivot on, about N^3 / 2 updates, and
    the oracle's table is not a solve at all; the one unit cost in
    ``limits.UNIT_COST_NS["table"]`` covers both."""
    return count_labeled_partitions(n, q) ** 3 * (q - 1) ** 2


def check_table_size(n: int, q: int) -> None:
    """Refuse, before any work, a full table of UT_n(q), the formula table
    or the oracle's: q not a prime or n negative (ValueError), then n over
    the grade bound or ``table_work`` over the work budget, in the order
    ``supercharacter_table`` checks them before it reads its memory cache."""
    check_size(n, q)
    check_grade(n, "table for n=")
    work = table_work(n, q)
    check_work("table", work, f"table for n={n}, q={q} has work estimate {work}")


def supercharacter_table(
    n: int,
    q: int,
    *,
    cache_dir: str | os.PathLike | None = None,
    use_disk_cache: bool = True,
) -> SupercharTable:
    """The supercharacter table of UT_n(q), cached in memory and on disk, in
    cache_dir or, when that is None or empty, in ``default_cache_dir()``."""
    check_size(n, q)
    check_grade(n, "table for n=")
    key = (n, q)
    with _TABLE_LOCK:
        if key in _TABLE_CACHE:
            return _TABLE_CACHE[key]
    check_table_size(n, q)
    directory = Path(cache_dir) if cache_dir else default_cache_dir()
    path = _table_path(n, q, directory)
    table = None
    if use_disk_cache and path.is_file():
        try:
            table = _load_table(path, n, q)
        except (ValueError, KeyError, TypeError, RecursionError):
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


def _table_change(x: AlgebraElement, source: str) -> AlgebraElement:
    """The table basis change of ``_CHANGES`` from ``source``, per grade,
    reading only the images of the indices in x."""

    def image(idx):
        table = supercharacter_table(idx.grade, x.q)
        return table.image(source, table.index(idx.partition))

    return linear_map(x, _CHANGES[source][0], image, source=source)


def chi_to_kappa(x: AlgebraElement) -> AlgebraElement:
    """chi^lam = sum_mu T[lam][mu] kappa_mu: row lam of the table."""
    return _table_change(x, "chi")


def kappa_to_chi(x: AlgebraElement) -> AlgebraElement:
    """kappa_mu = sum_lam T^-1[mu][lam] chi^lam, with
    T^-1[mu][lam] = |K_mu| conj(T[lam][mu]) w_lam by orthogonality."""
    return _table_change(x, "kappa")


def inner_product(x: AlgebraElement, y: AlgebraElement) -> CycRational:
    """The class-function inner product, conjugate-linear in its second slot.

    The sum over the terms of x that y shares of
    (|K_mu| / |G|) x(mu) conj(y(mu)), the group UT_n(q) and superclass sizes
    read at each term's grade; cross-grade pairs give 0.
    """
    if x.q != y.q:
        raise ValueError(f"q mismatch: {x.q} vs {y.q}")
    q = x.q
    if x.basis not in ("kappa", "chi") or y.basis not in ("kappa", "chi"):
        raise ValueError(
            f"inner products are defined for kappa/chi elements, not {x.basis!r} and {y.basis!r}"
        )
    if x.basis == "chi":
        x = chi_to_kappa(x)
    if y.basis == "chi":
        y = chi_to_kappa(y)
    total = CycRational.zero(q)
    for idx, cx in x.terms.items():
        cy = y.terms.get(idx)
        if cy is not None:
            table = supercharacter_table(idx.grade, q)
            share = Fraction(table.class_size(idx.partition), table.group_order)
            total = total + cx * cy.conj() * share
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


register_basis("kappa", product=_kappa_product, coproduct=_kappa_coproduct)
register_transported("chi", chi_to_kappa, kappa_to_chi)
