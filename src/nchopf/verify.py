"""Property suites: Hopf axioms, isomorphism checks, oracle equivalence,
supercharacter-theory axioms, and duality adjointness.

Each suite returns a report of named checks; the CLI prints it and the test
suite asserts on it.  All checks are exact, and the random ones are
deterministic in (suite, n, q, seed).
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import NamedTuple

from .elements import (
    ARC_BASES,
    SET_PARTITION_BASES,
    AlgebraElement,
    BasisIndex,
    TensorElement,
    antipode,
    basis_coproduct,
    coproduct,
    counit,
    linear_combination,
    map_tensor,
    product,
    unit_index,
)
from .ncsym import ch, via_colored_m
from .duals import dual_ch, duality_pairing, duality_pairing_tensor, via_U
from .setpartitions import (
    LabeledSetPartition,
    SetComposition,
    check_size,
    count_labeled_partitions,
    enumerate_labeled_partitions,
)
from .limits import SIND_ADJOINTNESS_BOUND, check_grade, check_work, degree_weighted
from .superfunctions import supercharacter_table
from . import unitriangular as oracle


class CheckResult(NamedTuple):
    """One named check.  A skipped check was not run: it neither passes nor
    fails the report, and its detail says why it was skipped."""

    name: str
    passed: bool
    detail: str | None = None
    skipped: bool = False

    def to_json(self) -> dict:
        out = {"name": self.name, "passed": self.passed}
        if self.skipped:
            out["skipped"] = True
        if self.detail is not None:
            out["detail"] = self.detail
        return out


class SuiteReport(NamedTuple):
    suite: str
    n: int
    q: int
    seed: int | None
    checks: tuple[CheckResult, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not (c.passed or c.skipped)]

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "n": self.n,
            "q": self.q,
            "seed": self.seed,
            "passed": self.passed,
            "num_checks": len(self.checks),
            "num_failed": len(self.failures),
            "checks": [c.to_json() for c in self.checks],
        }


# ---------------------------------------------------------------------------
# index enumeration and random elements

COCOMMUTATIVE_BASES = ("kappa", "m", "p", "k_colored")
#: Random elements per basis in each of the hopf suite's two random checks.
HOPF_SAMPLES = 100
COMMUTATIVE_BASES = ("kappa_star", "U")


def hopf_bases(q: int) -> list[str]:
    if q == 2:
        return ["kappa", "m", "p", "kappa_star", "U"]
    return ["kappa", "k_colored", "kappa_star"]


def basis_indices(q: int, tag: str, grade: int) -> list[BasisIndex]:
    """The basis indices of one grade: S_grade(q), or S_grade(2) for the
    set-partition bases m, p, U and V."""
    if tag not in ARC_BASES:
        raise ValueError(f"no index enumeration for basis {tag!r}")
    labels = 2 if tag in SET_PARTITION_BASES else q
    return [BasisIndex(tag, grade, lam) for lam in enumerate_labeled_partitions(grade, labels)]


def hopf_work(n: int, q: int) -> int:
    """What ``suite_hopf`` checks, counted without building it: every basis
    element up to grade n, every pair of them with grades summing to at most
    n, and for the random checks ``HOPF_SAMPLES`` elements, over all the
    suite's bases, each weighed by the scalar degree (``limits.UNIT_DEGREE``).
    The k basis carries kappa's structure maps, so its indices weigh what
    kappa's do."""
    check_size(n, q)
    total = 0
    for tag in hopf_bases(q):
        labels = 2 if tag in SET_PARTITION_BASES else q
        counts = [count_labeled_partitions(g, labels) for g in range(n + 1)]
        total += sum(counts) + sum(counts[a] * counts[b] for a in range(n + 1) for b in range(n + 1 - a))
        total += HOPF_SAMPLES
    return degree_weighted("hopf", total, q)


def axioms_work(n: int, q: int) -> int:
    """What ``suite_axioms`` enumerates, counted without building it: the
    N = |S_n(q)| supercharacters, each traced over the q^(n(n-1)/2) elements
    of UT_n(q)."""
    check_size(n, q)
    return count_labeled_partitions(n, q) * q ** (n * (n - 1) // 2)


#: The |G|^2 sandwiches x (u - 1) y of each element u of G = UT_n(q) that
#: SInd/Res adjointness enumerates weigh one ``oracle_work`` unit per this
#: many: one took 2.6 us at (3, 5) and 5.5 us at (4, 2), against the 1 ms of
#: a unit (``limits.UNIT_COST_NS["oracle"]``).
SANDWICHES_PER_UNIT = 200


def oracle_work(n: int, q: int) -> int:
    """What ``suite_oracle`` enumerates, counted without building it: what
    ``axioms_work`` counts and, where the suite runs SInd/Res adjointness
    (n >= 2 and |G|^3 within ``SIND_ADJOINTNESS_BOUND``), the |G|^2
    sandwiches of each of the |G| group elements."""
    work = axioms_work(n, q)
    cube = q ** (3 * (n * (n - 1) // 2))
    if n >= 2 and cube <= SIND_ADJOINTNESS_BOUND:
        work += cube // SANDWICHES_PER_UNIT
    return work


#: What one kappa basis product weighs in ``iso_work``, in colored monomials:
#: fitted to timings of ``suite_iso``, where the two terms ran 0.09-0.18 ms
#: per unit together from (6, 2) to (2, 47).
ISO_PRODUCT_WEIGHT = 50


def iso_work(n: int, q: int) -> int:
    """What ``suite_iso`` checks, counted without building it: every pair
    of kappa basis elements with grades summing to at most n, each of weight
    ``ISO_PRODUCT_WEIGHT``, and the image side counted as in ``hopf_work``:
    its elements and pairs, an element of grade g weighing the Bell(g)
    (q-1)^g colored monomials that the kappa elements of grade g expand
    into, at every q (one per m element at q = 2).  The dual_ch checks at
    q = 2 are not counted apart: at (6, 2) the whole suite took 8.9-9.6 s
    on a 2-vCPU VM, against the 25 s this estimates."""
    check_size(n, q)
    counts = [count_labeled_partitions(g, q) for g in range(n + 1)]
    sizes = [count_labeled_partitions(g, 2) * (q - 1) ** g for g in range(n + 1)]
    pairs = [(a, b) for a in range(n + 1) for b in range(n + 1 - a)]
    return sum(sizes) + sum(
        ISO_PRODUCT_WEIGHT * counts[a] * counts[b] + sizes[a] * sizes[b] for a, b in pairs
    )


def duality_work(n: int, q: int) -> int:
    """What ``suite_duality`` compares, counted without building it: for
    each of its two checks, every pair of basis elements with grades summing
    to at most n, paired with every basis element of that total grade."""
    check_size(n, q)
    counts = [count_labeled_partitions(g, q) for g in range(n + 1)]
    return 2 * sum(
        counts[a] * counts[b] * counts[a + b] for a in range(n + 1) for b in range(n + 1 - a)
    )


def random_element(rng: random.Random, q: int, tag: str, max_grade: int) -> AlgebraElement:
    """One to three distinct basis elements of grade at most max_grade, with
    small nonzero integer coefficients."""
    pool = [idx for g in range(max_grade + 1) for idx in basis_indices(q, tag, g)]
    chosen = rng.sample(pool, k=min(len(pool), rng.randint(1, 3)))
    return AlgebraElement(q, tag, {idx: rng.choice([-3, -2, -1, 1, 2, 3]) for idx in chosen})


# ---------------------------------------------------------------------------
# Hopf-axiom building blocks


def _single(q: int, idx: BasisIndex) -> AlgebraElement:
    return AlgebraElement._trusted(q, idx.basis, {idx: 1})


def _coproduct_on_factor(t: TensorElement, side: int) -> dict:
    """(Delta (x) id)(t) for side 0 and (id (x) Delta)(t) for side 1, as a
    map from index triples to coefficients."""

    def image(key):
        split = basis_coproduct(t.q, key[side]).terms
        return {key[:side] + pair + key[side + 1:]: d for pair, d in split.items()}

    return linear_combination((c, image(key)) for key, c in t.terms.items())


def is_coassociative(x: AlgebraElement) -> bool:
    t = coproduct(x)
    return _coproduct_on_factor(t, 0) == _coproduct_on_factor(t, 1)


def satisfies_counit_law(x: AlgebraElement) -> bool:
    unit = unit_index(x.basis)
    t = coproduct(x).terms
    left = AlgebraElement._trusted(x.q, x.basis, {r: c for (l, r), c in t.items() if l == unit})
    right = AlgebraElement._trusted(x.q, x.basis, {l: c for (l, r), c in t.items() if r == unit})
    return left == x and right == x


def satisfies_antipode_identity(x: AlgebraElement) -> bool:
    """m(S (x) id)Delta = unit . counit = m(id (x) S)Delta, exactly."""
    t = coproduct(x).terms
    expected = AlgebraElement.unit(x.q, x.basis).scale(counit(x))
    left = linear_combination(
        (c, product(antipode(_single(x.q, l)), _single(x.q, r)).terms) for (l, r), c in t.items()
    )
    right = linear_combination(
        (c, product(_single(x.q, l), antipode(_single(x.q, r))).terms) for (l, r), c in t.items()
    )
    return all(AlgebraElement._trusted(x.q, x.basis, side) == expected for side in (left, right))


def is_bialgebra_pair(x: AlgebraElement, y: AlgebraElement) -> bool:
    return coproduct(product(x, y)) == coproduct(x).componentwise_product(coproduct(y))


def respects_grading(a: BasisIndex, b: BasisIndex, q: int) -> bool:
    prod = product(_single(q, a), _single(q, b))
    if not all(idx.grade == a.grade + b.grade for idx in prod.terms):
        return False
    t = basis_coproduct(q, a)
    return all(l.grade + r.grade == a.grade for (l, r) in t.terms)


# ---------------------------------------------------------------------------
# the suites


def _check(name: str, cases, holds, witness=None) -> CheckResult:
    """One named check: ``holds`` runs over ``cases`` in order and the check
    stops at the first case where it is false; ``witness(case)`` of that case,
    if given, becomes the detail.  Cases may be a generator, so nothing past
    the failing case is built.  A check that saw no cases fails: it would
    otherwise pass vacuously."""
    seen = False
    for case in cases:
        if not holds(case):
            return CheckResult(name, False, witness(case) if witness else None)
        seen = True
    return CheckResult(name, seen, None if seen else "no cases")


def _index(x: AlgebraElement) -> BasisIndex:
    return next(iter(x.terms))


def _basis_elements(q: int, tag: str, n: int) -> list[AlgebraElement]:
    """The basis elements of grade at most n, grade by grade."""
    return [_single(q, idx) for g in range(n + 1) for idx in basis_indices(q, tag, g)]


def _pairs_up_to(elements: list[AlgebraElement], n: int) -> list[tuple]:
    """The pairs of basis elements whose grades sum to at most n."""
    return [(x, y) for x in elements for y in elements if _index(x).grade + _index(y).grade <= n]


def suite_hopf(n: int, q: int, seed: int = 0) -> SuiteReport:
    """Coassociativity, counit, bialgebra compatibility, (co)commutativity,
    and the antipode identity on all basis elements up to grade n and on
    random combinations, per basis."""
    rng = random.Random(seed)
    checks = [check for tag in hopf_bases(q) for check in _hopf_checks(tag, n, q, rng)]
    return SuiteReport("hopf", n, q, seed, tuple(checks))


def _hopf_checks(tag: str, n: int, q: int, rng: random.Random) -> list[CheckResult]:
    def commute(pair) -> bool:
        return tag not in COMMUTATIVE_BASES or product(*pair) == product(*reversed(pair))

    def cocommute(x: AlgebraElement) -> bool:
        return coproduct(x).swap() == coproduct(x)

    def unary(x: AlgebraElement) -> bool:
        return is_coassociative(x) and satisfies_counit_law(x) and satisfies_antipode_identity(x)

    def bialgebra(pair) -> bool:
        return is_bialgebra_pair(*pair) and commute(pair)

    elements = _basis_elements(q, tag, n)
    pairs = _pairs_up_to(elements, n)
    checks = [
        _check(f"{tag}:coassociativity:basis", elements, is_coassociative),
        _check(f"{tag}:counit-law:basis", elements, satisfies_counit_law),
        _check(f"{tag}:antipode-identity:basis", elements, satisfies_antipode_identity),
        _check(f"{tag}:bialgebra-compatibility:basis", pairs, lambda p: is_bialgebra_pair(*p)),
        _check(f"{tag}:grading:basis", pairs, lambda p: respects_grading(*map(_index, p), q)),
    ]
    if tag in COCOMMUTATIVE_BASES:
        checks.append(_check(f"{tag}:cocommutativity:basis", elements, cocommute))
    if tag in COMMUTATIVE_BASES:
        checks.append(_check(f"{tag}:commutativity:basis", pairs, commute))
    # drawn lazily, so a failing sample stops the draws of its check
    samples = (random_element(rng, q, tag, max_grade=min(n, 3)) for _ in range(HOPF_SAMPLES))
    halves = (n // 2, n - n // 2)
    sample_pairs = (
        tuple(random_element(rng, q, tag, max_grade=g) for g in halves) for _ in range(HOPF_SAMPLES)
    )
    return checks + [
        _check(f"{tag}:unary-axioms:random", samples, unary),
        _check(f"{tag}:bialgebra:random", sample_pairs, bialgebra),
    ]


def _morphism_checks(
    name: str, f, elements: list[AlgebraElement], n: int, mul, comul, anti
) -> list[CheckResult]:
    """f(x y) = mul(f(x), f(y)) on the basis pairs up to total grade n, and
    (f (x) f) Delta = comul f, counit f = counit and f S = anti f on the
    basis elements, where mul, comul and anti are the structure maps of the
    image side."""

    def multiplicative(pair) -> bool:
        return f(product(*pair)) == mul(*map(f, pair))

    def comultiplicative(x: AlgebraElement) -> bool:
        return map_tensor(coproduct(x), f) == comul(f(x))

    return [
        _check(f"{name}:multiplicative", _pairs_up_to(elements, n), multiplicative),
        _check(f"{name}:comultiplicative", elements, comultiplicative),
        _check(f"{name}:counit", elements, lambda x: counit(f(x)) == counit(x)),
        _check(f"{name}:antipode", elements, lambda x: f(antipode(x)) == anti(f(x))),
    ]


def suite_iso(n: int, q: int) -> SuiteReport:
    """The characteristic map (and at q = 2 its dual) commutes with product,
    coproduct, counit, and antipode on all basis pairs up to total grade n.

    ch lands in m (q = 2) or k (q > 2), which carry kappa's product and
    coproduct rules, so the image side is computed the reference way
    (``ncsym.via_colored_m``): in colored monomials, collected back into m
    or k.  dual_ch lands in V, which carries kappa_star's rules, so its
    image side goes through U (``duals.via_U``)."""
    maps = (product, coproduct, antipode)
    kappas = _basis_elements(q, "kappa", n)
    grades = [[x for x in kappas if _index(x).grade == g] for g in range(n + 1)]
    checks = _morphism_checks(
        "ch", ch, kappas, n, *(functools.partial(via_colored_m, op) for op in maps)
    ) + [
        _check("ch:bijective-on-bases", grades, lambda g: len({_index(ch(x)) for x in g}) == len(g)),
    ]
    if q == 2:  # dual_ch is defined at q = 2 only
        stars = _basis_elements(q, "kappa_star", n)
        checks += _morphism_checks(
            "dual_ch", dual_ch, stars, n, *(functools.partial(via_U, op) for op in maps)
        )
    return SuiteReport("iso", n, q, None, tuple(checks))


def suite_oracle(n: int, q: int) -> SuiteReport:
    """Formula-vs-group equivalence at one (n, q): tables, sizes, counts,
    axioms, and (when the group is small enough) functor adjointness."""
    group = oracle.get_group(n, q)
    formula = supercharacter_table(n, q)
    direct = group.oracle_table()
    failed = [c.name for c in _axiom_checks(n, q) if not c.passed]
    count = len(enumerate_labeled_partitions(n, q))
    checks = [
        _check("tables-entrywise-equal", [formula], lambda t: t.values == direct.values),
        _check(
            "orthogonality-sizes-equal-orbit-sizes",
            [formula],
            lambda t: t.class_sizes == direct.class_sizes,
        ),
        _check("superclass-count", [group], lambda g: len(g.superclasses()) == count),
        _check("supercharacter-theory-axioms", [failed], lambda names: not names, "; ".join),
    ]
    # Both adjointness checks run over the two-part compositions of n; below
    # n = 2 there are none, so they are reported skipped rather than failed.
    if n < 2:
        reason = f"skipped: n = {n} has no two-part composition"
        checks.append(CheckResult("sind-res-adjointness", False, reason, skipped=True))
        checks.append(CheckResult("inf-def-adjointness", False, reason, skipped=True))
        return SuiteReport("oracle", n, q, None, tuple(checks))
    cube = group.order**3
    if cube <= SIND_ADJOINTNESS_BOUND:
        points = range(1, n + 1)
        shapes = [
            (SetComposition([list(part), [i for i in points if i not in part]]), (k, n - k))
            for k in range(1, n)
            for part in itertools.combinations(points, k)
        ]
        checks.append(_adjointness("sind-res-adjointness", n, q, shapes, oracle.sind_J, oracle.res_J))
    else:
        reason = (
            f"skipped: |G|^3 = {cube} exceeds {SIND_ADJOINTNESS_BOUND}, "
            "the work bound for brute-force superinduction"
        )
        checks.append(CheckResult("sind-res-adjointness", False, reason, skipped=True))
    shapes = [((k, n - k), (k, n - k)) for k in range(1, n)]
    checks.append(_adjointness("inf-def-adjointness", n, q, shapes, oracle.inf_parts, oracle.def_parts))
    return SuiteReport("oracle", n, q, None, tuple(checks))


def _adjointness(name: str, n: int, q: int, shapes, up, down) -> CheckResult:
    """<up(psi), chi> = <psi, down(chi)> for every (shape, part sizes) in
    shapes, every product psi of supercharacters on the two parts and every
    supercharacter chi of UT_n(q): SInd/Res over the two-part set
    compositions of n, Inf/Def over its two-part integer compositions."""
    raw = _supercharacters(n, q)

    def cases():
        for shape, sizes in shapes:
            lowered = [down(chi, shape) for chi in raw]
            first, second = (_supercharacters(k, q) for k in sizes)
            for f1 in first:
                for f2 in second:
                    psi = oracle.outer_product([f1, f2])
                    raised = up(psi, shape)
                    yield from ((raised, chi, psi, low) for chi, low in zip(raw, lowered))

    def holds(case) -> bool:
        raised, chi, psi, lowered = case
        return oracle.raw_inner_product(raised, chi) == oracle.product_inner_product(psi, lowered)

    return _check(name, cases(), holds)


def _supercharacters(n: int, q: int) -> list:
    group = oracle.get_group(n, q)
    return [group.supercharacter_raw(lam) for lam in enumerate_labeled_partitions(n, q)]


def suite_axioms(n: int, q: int) -> SuiteReport:
    """The four supercharacter-theory axioms, checked by direct enumeration."""
    return SuiteReport("axioms", n, q, None, tuple(_axiom_checks(n, q)))


def _axiom_checks(n: int, q: int) -> list[CheckResult]:
    """Check the four compatibility axioms by direct enumeration:

    (a) each superclass is a union of conjugacy classes;
    (b) the identity forms its own superclass and the empty index gives the
        trivial character;
    (c) every supercharacter is constant on every superclass;
    (d) the number of superclasses equals the number of supercharacters,
        both indexed by the labeled set partitions.
    """
    group = oracle.get_group(n, q)
    superclasses = group.superclasses()
    classes = group.conjugacy_classes()
    class_of = {member: i for i, members in enumerate(classes) for member in members}
    empty = LabeledSetPartition(n)
    identity = (0,) * (n * (n - 1) // 2)
    trivial = group.supercharacter_raw(empty).palette
    characters = ((lam, group.supercharacter_raw(lam)) for lam in superclasses)
    # each superclass's members as places in element order: codes are
    # canonical, so a character is constant there when its codes are
    places = {mu: [group.code(member) for member in orbit] for mu, orbit in superclasses.items()}
    expected = len(enumerate_labeled_partitions(n, q))

    def union_of_classes(item) -> bool:
        orbit = item[1]
        return sum(len(classes[i]) for i in {class_of[member] for member in orbit}) == len(orbit)

    def constant(case) -> bool:
        _, function, _, members = case
        return len({function.codes[k] for k in members}) == 1

    return [
        _check(
            "superclasses-union-of-conjugacy-classes",
            superclasses.items(),
            union_of_classes,
            lambda item: f"superclass of {item[0].to_text()} cuts a conjugacy class",
        ),
        _check(
            "identity-superclass-and-trivial-character",
            [superclasses[empty] == {identity}, *(value == 1 for value in trivial)],
            bool,
            lambda _: "identity orbit or trivial character mismatch",
        ),
        _check(
            "supercharacters-constant-on-superclasses",
            ((lam, f, mu, members) for lam, f in characters for mu, members in places.items()),
            constant,
            lambda c: f"character of {c[0].to_text()} varies on the superclass of {c[2].to_text()}",
        ),
        _check(
            "superclass-and-supercharacter-counts-match",
            [len(superclasses)],
            lambda count: count == expected,
            lambda count: f"{count} superclasses, {expected} indices",
        ),
    ]


def suite_duality(n: int, q: int) -> SuiteReport:
    """Product-coproduct adjointness under the Kronecker pairing, exhaustive
    over basis tuples with total grade at most n."""

    def cases(factors: str, paired: str):
        """For every pair x, y of factors-basis elements and every
        paired-basis element z of their total grade, the two pairings that
        adjointness makes equal: of z with x y and of Delta z with x (x) y,
        each written kappa_star side first.  Products are built once per
        pair."""
        zs = _basis_elements(q, paired, n)
        for x, y in _pairs_up_to(_basis_elements(q, factors, n), n):
            xy, xy_tensor = product(x, y), TensorElement.tensor(x, y)
            grade = _index(x).grade + _index(y).grade
            for z in zs:
                if _index(z).grade == grade:
                    pairings = ((z, xy), (coproduct(z), xy_tensor))
                    yield pairings if paired == "kappa_star" else tuple(p[::-1] for p in pairings)

    def adjoint(pairings) -> bool:
        (f, x), (f_tensor, x_tensor) = pairings
        return duality_pairing(f, x) == duality_pairing_tensor(f_tensor, x_tensor)

    checks = (
        _check("pairing:product-vs-coproduct", cases("kappa_star", "kappa"), adjoint),
        _check("pairing:coproduct-vs-product", cases("kappa", "kappa_star"), adjoint),
    )
    return SuiteReport("duality", n, q, None, checks)


SUITES = {
    "hopf": suite_hopf,
    "iso": suite_iso,
    "oracle": suite_oracle,
    "axioms": suite_axioms,
    "duality": suite_duality,
}


#: The work-budget row and the estimate of each suite: the grade bound alone
#: caps none of them at large q.  The oracle suite builds the formula table
#: first, which checks its own estimate.
SUITE_WORK = {
    "hopf": ("hopf", hopf_work),
    "iso": ("iso", iso_work),
    "duality": ("duality", duality_work),
    "axioms": ("oracle", axioms_work),
    "oracle": ("oracle", oracle_work),
}


def run_suite(name: str, n: int, q: int, seed: int = 0) -> SuiteReport:
    """One suite, after the grade bound and the suite's work estimate
    (``SUITE_WORK``) are checked, before any enumeration."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    check_grade(n)
    entry, estimate = SUITE_WORK[name]
    work = estimate(n, q)
    check_work(entry, work, f"the {name} suite at n={n}, q={q} has work estimate {work}")
    return suite_hopf(n, q, seed=seed) if name == "hopf" else SUITES[name](n, q)
