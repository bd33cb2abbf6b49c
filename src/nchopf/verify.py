"""Property suites: Hopf axioms, isomorphism checks, oracle equivalence,
supercharacter-theory axioms, and duality adjointness.

Each suite returns a report of named checks; the CLI prints it and the test
suite asserts on it.  All checks are exact, and the random ones are
deterministic in (suite, n, q, seed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

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
from .ncsym import ch
from .duals import (
    dual_ch,
    duality_pairing,
    duality_pairing_tensor,
    kappa_star_element,
)
from .setpartitions import (
    SetComposition,
    all_set_partitions,
    arc_encoding,
    check_prime,
    count_labeled_partitions,
    enumerate_labeled_partitions,
)
from .superfunctions import kappa_element, supercharacter_table
from . import unitriangular as oracle


@dataclass(frozen=True)
class CheckResult:
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


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    n: int
    q: int
    seed: int | None
    checks: tuple[CheckResult, ...] = field(default_factory=tuple)

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
    if tag in ("m", "p", "U", "V"):
        return [
            BasisIndex(tag, grade, arc_encoding(sp)) for sp in all_set_partitions(grade)
        ]
    if tag in ARC_BASES:
        return [
            BasisIndex(tag, grade, lam) for lam in enumerate_labeled_partitions(grade, q)
        ]
    raise ValueError(f"no index enumeration for basis {tag!r}")


def hopf_work(n: int, q: int) -> int:
    """What ``suite_hopf`` checks, counted without building it: every basis
    element up to grade n, every pair of them with grades summing to at most
    n, and for the random checks ``HOPF_SAMPLES`` average elements of the
    pool they draw from, over all the suite's bases.  The k basis works on
    colored-monomial expansions, so its indices of grade g count as the
    Bell(g) (q-1)^g colored monomials they expand into."""
    check_prime(q)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    total = 0
    pool = min(n, 3) + 1
    for tag in hopf_bases(q):
        labels = 2 if tag in SET_PARTITION_BASES else q
        counts = [count_labeled_partitions(g, labels) for g in range(n + 1)]
        sizes = counts
        if tag == "k_colored":
            sizes = [count_labeled_partitions(g, 2) * (q - 1) ** g for g in range(n + 1)]
        total += sum(sizes) + sum(sizes[a] * sizes[b] for a in range(n + 1) for b in range(n + 1 - a))
        total += HOPF_SAMPLES * sum(sizes[:pool]) // sum(counts[:pool])
    return total


def random_element(
    rng: random.Random, q: int, tag: str, max_grade: int, max_terms: int = 3
) -> AlgebraElement:
    pool = [idx for g in range(max_grade + 1) for idx in basis_indices(q, tag, g)]
    terms = {}
    for idx in rng.sample(pool, k=min(len(pool), rng.randint(1, max_terms))):
        terms[idx] = rng.choice([-3, -2, -1, 1, 2, 3])
    return AlgebraElement(q, tag, terms)


# ---------------------------------------------------------------------------
# Hopf-axiom building blocks


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

    def single(idx: BasisIndex) -> AlgebraElement:
        return AlgebraElement._trusted(x.q, x.basis, {idx: 1})

    left = linear_combination(
        (c, product(antipode(single(l)), single(r)).terms) for (l, r), c in t.items()
    )
    right = linear_combination(
        (c, product(single(l), antipode(single(r))).terms) for (l, r), c in t.items()
    )
    return all(AlgebraElement._trusted(x.q, x.basis, side) == expected for side in (left, right))


def is_bialgebra_pair(x: AlgebraElement, y: AlgebraElement) -> bool:
    return coproduct(product(x, y)) == coproduct(x).componentwise_product(coproduct(y))


def respects_grading(a: BasisIndex, b: BasisIndex, q: int) -> bool:
    prod = product(
        AlgebraElement._trusted(q, a.basis, {a: 1}), AlgebraElement._trusted(q, b.basis, {b: 1})
    )
    if not all(idx.grade == a.grade + b.grade for idx in prod.terms):
        return False
    t = basis_coproduct(q, a)
    return all(l.grade + r.grade == a.grade for (l, r) in t.terms)


# ---------------------------------------------------------------------------
# the suites


def suite_hopf(n: int, q: int, seed: int = 0, samples: int = HOPF_SAMPLES) -> SuiteReport:
    """Coassociativity, counit, bialgebra compatibility, (co)commutativity,
    and the antipode identity on all basis elements up to grade n and on
    random combinations, per basis."""
    rng = random.Random(seed)
    checks = []
    for tag in hopf_bases(q):
        elements = [
            AlgebraElement(q, tag, {idx: 1})
            for g in range(n + 1)
            for idx in basis_indices(q, tag, g)
        ]
        ok = all(is_coassociative(x) for x in elements)
        checks.append(CheckResult(f"{tag}:coassociativity:basis", ok))
        ok = all(satisfies_counit_law(x) for x in elements)
        checks.append(CheckResult(f"{tag}:counit-law:basis", ok))
        ok = all(satisfies_antipode_identity(x) for x in elements)
        checks.append(CheckResult(f"{tag}:antipode-identity:basis", ok))

        pairs = [
            (x, y)
            for x in elements
            for y in elements
            if next(iter(x.terms)).grade + next(iter(y.terms)).grade <= n
        ]
        ok = all(is_bialgebra_pair(x, y) for (x, y) in pairs)
        checks.append(CheckResult(f"{tag}:bialgebra-compatibility:basis", ok))
        ok = all(
            respects_grading(next(iter(x.terms)), next(iter(y.terms)), q)
            for (x, y) in pairs
        )
        checks.append(CheckResult(f"{tag}:grading:basis", ok))

        if tag in COCOMMUTATIVE_BASES:
            ok = all(coproduct(x).swap() == coproduct(x) for x in elements)
            checks.append(CheckResult(f"{tag}:cocommutativity:basis", ok))
        if tag in COMMUTATIVE_BASES:
            ok = all(product(x, y) == product(y, x) for (x, y) in pairs)
            checks.append(CheckResult(f"{tag}:commutativity:basis", ok))

        ok = True
        for _ in range(samples):
            x = random_element(rng, q, tag, max_grade=min(n, 3))
            if not (
                is_coassociative(x)
                and satisfies_counit_law(x)
                and satisfies_antipode_identity(x)
            ):
                ok = False
                break
        checks.append(CheckResult(f"{tag}:unary-axioms:random", ok))

        ok = True
        for _ in range(samples):
            x = random_element(rng, q, tag, max_grade=n // 2)
            y = random_element(rng, q, tag, max_grade=n - n // 2)
            if not is_bialgebra_pair(x, y):
                ok = False
                break
            if tag in COMMUTATIVE_BASES and product(x, y) != product(y, x):
                ok = False
                break
        checks.append(CheckResult(f"{tag}:bialgebra:random", ok))
    return SuiteReport("hopf", n, q, seed, tuple(checks))


def suite_iso(n: int, q: int) -> SuiteReport:
    """The characteristic map (and at q = 2 its dual) commutes with product,
    coproduct, counit, and antipode on all basis pairs up to total grade n."""
    checks = []
    indices = [lam for g in range(n + 1) for lam in enumerate_labeled_partitions(g, q)]

    ok_prod = True
    for lam in indices:
        for mu in indices:
            if lam.n + mu.n > n:
                continue
            x, y = kappa_element(q, lam), kappa_element(q, mu)
            if ch(product(x, y)) != product(ch(x), ch(y)):
                ok_prod = False
    checks.append(CheckResult("ch:multiplicative", ok_prod))

    ok_cop = all(
        map_tensor(coproduct(kappa_element(q, lam)), ch) == coproduct(ch(kappa_element(q, lam)))
        for lam in indices
    )
    checks.append(CheckResult("ch:comultiplicative", ok_cop))

    ok_counit = all(
        counit(ch(kappa_element(q, lam))) == counit(kappa_element(q, lam)) for lam in indices
    )
    checks.append(CheckResult("ch:counit", ok_counit))

    ok_antipode = all(
        ch(antipode(kappa_element(q, lam))) == antipode(ch(kappa_element(q, lam)))
        for lam in indices
    )
    checks.append(CheckResult("ch:antipode", ok_antipode))

    ok_bijective = True
    for g in range(n + 1):
        images = {next(iter(ch(kappa_element(q, lam)).terms)) for lam in enumerate_labeled_partitions(g, q)}
        if len(images) != len(enumerate_labeled_partitions(g, q)):
            ok_bijective = False
    checks.append(CheckResult("ch:bijective-on-bases", ok_bijective))

    if q == 2:
        ok_dprod = True
        for lam in indices:
            for mu in indices:
                if lam.n + mu.n > n:
                    continue
                f, g = kappa_star_element(q, lam), kappa_star_element(q, mu)
                if dual_ch(product(f, g)) != product(dual_ch(f), dual_ch(g)):
                    ok_dprod = False
        checks.append(CheckResult("dual_ch:multiplicative", ok_dprod))
        ok_dcop = all(
            map_tensor(coproduct(kappa_star_element(q, lam)), dual_ch)
            == coproduct(dual_ch(kappa_star_element(q, lam)))
            for lam in indices
        )
        checks.append(CheckResult("dual_ch:comultiplicative", ok_dcop))
    return SuiteReport("iso", n, q, None, tuple(checks))


#: Brute-force superinduction sums over |G|^2 sandwiches per group element,
#: so suite_oracle runs SInd/Res adjointness only while |G|^3 stays below this.
SIND_ADJOINTNESS_BOUND = 2_000_000


def suite_oracle(n: int, q: int) -> SuiteReport:
    """Formula-vs-group equivalence at one (n, q): tables, sizes, counts,
    axioms, and (when the group is small enough) functor adjointness."""
    checks = []
    group = oracle.get_group(n, q)
    formula = supercharacter_table(n, q)
    direct = group.oracle_table()

    checks.append(
        CheckResult("tables-entrywise-equal", formula.values == direct.values)
    )
    checks.append(
        CheckResult(
            "orthogonality-sizes-equal-orbit-sizes",
            formula.class_sizes == direct.class_sizes,
        )
    )
    expected_count = len(enumerate_labeled_partitions(n, q))
    checks.append(
        CheckResult("superclass-count", len(group.superclasses()) == expected_count)
    )
    report = oracle.verify_supercharacter_axioms(n, q)
    checks.append(
        CheckResult(
            "supercharacter-theory-axioms",
            report.passed,
            None if report.passed else "; ".join(c.name for c in report.checks if not c.passed),
        )
    )
    # Both adjointness checks run over the two-part compositions of n; below
    # n = 2 there are none, and a check over no cases would pass vacuously.
    if n < 2:
        reason = f"skipped: n = {n} has no two-part composition"
        checks.append(CheckResult("sind-res-adjointness", False, reason, skipped=True))
        checks.append(CheckResult("inf-def-adjointness", False, reason, skipped=True))
        return SuiteReport("oracle", n, q, None, tuple(checks))
    cube = group.order**3
    if cube <= SIND_ADJOINTNESS_BOUND:
        checks.append(CheckResult("sind-res-adjointness", _check_sind_adjointness(n, q)))
    else:
        reason = (
            f"skipped: |G|^3 = {cube} exceeds {SIND_ADJOINTNESS_BOUND}, "
            "the work bound for brute-force superinduction"
        )
        checks.append(CheckResult("sind-res-adjointness", False, reason, skipped=True))
    checks.append(CheckResult("inf-def-adjointness", _check_inf_adjointness(n, q)))
    return SuiteReport("oracle", n, q, None, tuple(checks))


def _two_part_set_compositions(n: int) -> list[SetComposition]:
    import itertools

    out = []
    for size in range(1, n):
        for subset in itertools.combinations(range(1, n + 1), size):
            complement = [i for i in range(1, n + 1) if i not in set(subset)]
            out.append(SetComposition([list(subset), complement]))
    return out


def _check_sind_adjointness(n: int, q: int) -> bool:
    """<SInd psi, chi> = <psi, Res chi> over every two-part set composition
    and every pair of supercharacters on the parts."""
    group = oracle.get_group(n, q)
    raw = {lam: group.supercharacter_raw(lam) for lam in enumerate_labeled_partitions(n, q)}
    for J in _two_part_set_compositions(n):
        a, b = (len(part) for part in J.parts)
        part_chars = [
            [oracle.get_group(size, q).supercharacter_raw(lam) for lam in enumerate_labeled_partitions(size, q)]
            for size in (a, b)
        ]
        restrictions = {lam: oracle.res_J(raw[lam], J) for lam in raw}
        for f1 in part_chars[0]:
            for f2 in part_chars[1]:
                psi = oracle.outer_product([f1, f2])
                sind = oracle.sind_J(psi, J)
                for lam, chi_raw in raw.items():
                    lhs = oracle.raw_inner_product(sind, chi_raw)
                    rhs = oracle.product_inner_product(psi, restrictions[lam])
                    if lhs != rhs:
                        return False
    return True


def _check_inf_adjointness(n: int, q: int) -> bool:
    """<Inf psi, chi> = <psi, Def chi> over every two-part integer composition."""
    group = oracle.get_group(n, q)
    raw = {lam: group.supercharacter_raw(lam) for lam in enumerate_labeled_partitions(n, q)}
    for k in range(1, n):
        sizes = (k, n - k)
        deflations = {lam: oracle.def_parts(raw[lam], sizes) for lam in raw}
        part_chars = [
            [oracle.get_group(size, q).supercharacter_raw(lam) for lam in enumerate_labeled_partitions(size, q)]
            for size in sizes
        ]
        for f1 in part_chars[0]:
            for f2 in part_chars[1]:
                psi = oracle.outer_product([f1, f2])
                inflated = oracle.inf_parts(psi, sizes)
                for lam, chi_raw in raw.items():
                    lhs = oracle.raw_inner_product(inflated, chi_raw)
                    rhs = oracle.product_inner_product(psi, deflations[lam])
                    if lhs != rhs:
                        return False
    return True


def suite_axioms(n: int, q: int) -> SuiteReport:
    report = oracle.verify_supercharacter_axioms(n, q)
    checks = tuple(
        CheckResult(check.name, check.passed, check.witness) for check in report.checks
    )
    return SuiteReport("axioms", n, q, None, checks)


def suite_duality(n: int, q: int) -> SuiteReport:
    """Product-coproduct adjointness under the Kronecker pairing, exhaustive
    over basis tuples with total grade at most n."""
    checks = []
    ok_product_side = True
    ok_coproduct_side = True
    for total in range(n + 1):
        lambdas = enumerate_labeled_partitions(total, q)
        coproducts = {lam: coproduct(kappa_element(q, lam)) for lam in lambdas}
        star_coproducts = {lam: coproduct(kappa_star_element(q, lam)) for lam in lambdas}
        for a in range(total + 1):
            for alpha in enumerate_labeled_partitions(a, q):
                for beta in enumerate_labeled_partitions(total - a, q):
                    f, g = kappa_star_element(q, alpha), kappa_star_element(q, beta)
                    fg = product(f, g)
                    fg_tensor = TensorElement.tensor(f, g)
                    x = kappa_element(q, alpha)
                    y_beta = kappa_element(q, beta)
                    xy = product(x, y_beta)
                    xy_tensor = TensorElement.tensor(x, y_beta)
                    for lam in lambdas:
                        if duality_pairing(fg, kappa_element(q, lam)) != duality_pairing_tensor(
                            fg_tensor, coproducts[lam]
                        ):
                            ok_product_side = False
                        if duality_pairing_tensor(
                            star_coproducts[lam], xy_tensor
                        ) != duality_pairing(kappa_star_element(q, lam), xy):
                            ok_coproduct_side = False
    checks.append(CheckResult("pairing:product-vs-coproduct", ok_product_side))
    checks.append(CheckResult("pairing:coproduct-vs-product", ok_coproduct_side))
    return SuiteReport("duality", n, q, None, tuple(checks))


SUITES = {
    "hopf": suite_hopf,
    "iso": suite_iso,
    "oracle": suite_oracle,
    "axioms": suite_axioms,
    "duality": suite_duality,
}


def run_suite(name: str, n: int, q: int, seed: int = 0) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if name == "hopf":
        return suite_hopf(n, q, seed=seed)
    return SUITES[name](n, q)
