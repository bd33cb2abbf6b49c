"""Acceptance criteria, one test per criterion, all exact (zero tolerance).

Each test prints one line: ACCEPTANCE <id>: PASS/FAIL (elapsed).
Run with ``pytest -s tests/test_acceptance.py`` to see the lines live.
"""

import itertools
import time
from contextlib import contextmanager
from fractions import Fraction

from nchopf.cyclotomic import CycRational
from nchopf.elements import (
    AlgebraElement,
    BasisIndex,
    coproduct,
    product,
)
from nchopf.duals import (
    Permutation,
    kappa_star_element,
    product_M,
    product_U,
)
from nchopf.ncsym import coproduct_m
from nchopf.setpartitions import (
    LabeledSetPartition,
    SetComposition,
    SetPartition,
    crossing_statistic,
    enumerate_labeled_partitions,
    straighten,
    underlying_set_partition,
)
from nchopf.superfunctions import (
    chi_element,
    filtration_membership,
    interval_chain,
    is_linear_index,
    kappa_element,
    kappa_to_chi,
)
from nchopf import unitriangular as oracle
from nchopf.verify import (
    suite_duality,
    suite_hopf,
    suite_iso,
    suite_oracle,
)


def lsp(text):
    return LabeledSetPartition.from_text(text)


def sp(text):
    return SetPartition.from_text(text)


@contextmanager
def criterion(name, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s)")
    assert elapsed < limit_seconds, f"{name} exceeded its {limit_seconds}s budget"


def compositions(n):
    out = []
    for cuts in itertools.product((0, 1), repeat=max(n - 1, 0)):
        sizes = []
        run = 1
        for cut in cuts:
            if cut:
                sizes.append(run)
                run = 1
            else:
                run += 1
        sizes.append(run)
        out.append(tuple(sizes))
    return out if n else [()]


def test_criterion_1_worked_examples():
    with criterion("1-worked-examples", 1.0):
        q = 3
        # indicator-function product: empty 2x2 block against the labeled
        # chain a, b on [3]; one connecting slot from {1, 2} to {3}
        result = product(
            kappa_element(q, LabeledSetPartition(2)), kappa_element(q, lsp("3; 1-1-2, 2-2-3"))
        )
        expected = {lsp("5; 3-1-4, 4-2-5")}
        for c in (1, 2):
            expected.add(lsp(f"5; 1-{c}-3, 3-1-4, 4-2-5"))
            expected.add(lsp(f"5; 2-{c}-3, 3-1-4, 4-2-5"))
        assert {i.partition for i in result.terms} == expected
        assert all(c == CycRational.one(q) for c in result.terms.values())

        # indicator-function coproduct of arcs 1-b-4, 2-a-3 (b=2, a=1)
        lam = lsp("4; 1-2-4, 2-1-3")
        t = coproduct(kappa_element(q, lam))
        one = CycRational.one(q)
        empty = BasisIndex("kappa", 0, LabeledSetPartition(0))
        assert t.terms == {
            (BasisIndex("kappa", 4, lam), empty): one,
            (empty, BasisIndex("kappa", 4, lam)): one,
            (
                BasisIndex("kappa", 2, lsp("2; 1-1-2")),
                BasisIndex("kappa", 2, lsp("2; 1-2-2")),
            ): one,
            (
                BasisIndex("kappa", 2, lsp("2; 1-2-2")),
                BasisIndex("kappa", 2, lsp("2; 1-1-2")),
            ): one,
        }

        # monomial coproduct of 14|2|3 with multiplicities 1,2,1,1,2,1
        groups = {}
        for (l, r), c in coproduct_m(sp("14|2|3")).terms.items():
            key = (
                underlying_set_partition(l.partition).to_text(),
                underlying_set_partition(r.partition).to_text(),
            )
            groups[key] = int(c.rational_value())
        assert groups == {
            ("14|2|3", "/"): 1,
            ("13|2", "1"): 2,
            ("12", "1|2"): 1,
            ("1|2", "12"): 1,
            ("1", "13|2"): 2,
            ("/", "14|2|3"): 1,
        }

        # straightening of arcs 1-a-4, 2-b-6 along 14|3|256
        parts = straighten(
            LabeledSetPartition(6, [(1, 4, 1), (2, 6, 2)]), SetComposition.from_text("14|3|256")
        )
        assert parts == [lsp("2; 1-1-2"), lsp("1;"), lsp("3; 1-2-3")]

        # dual product: ten embeddings of one a-arc and one b-arc into [5]
        prod = product(
            kappa_star_element(q, lsp("2; 1-1-2")), kappa_star_element(q, lsp("3; 1-2-3"))
        )
        assert {i.partition for i in prod.terms} == {
            lsp("5; 1-1-2, 3-2-5"),
            lsp("5; 1-1-3, 2-2-5"),
            lsp("5; 1-1-4, 2-2-5"),
            lsp("5; 1-1-5, 2-2-4"),
            lsp("5; 2-1-3, 1-2-5"),
            lsp("5; 2-1-4, 1-2-5"),
            lsp("5; 2-1-5, 1-2-4"),
            lsp("5; 3-1-4, 1-2-5"),
            lsp("5; 3-1-5, 1-2-4"),
            lsp("5; 4-1-5, 1-2-3"),
        }
        assert all(c == one for c in prod.terms.values())

        # dual coproduct: five prefix cuts of arcs 1-a-2, 2-b-4
        lam = lsp("4; 1-1-2, 2-2-4")
        t = coproduct(kappa_star_element(q, lam))
        pairs = {(l.partition, r.partition): c for (l, r), c in t.terms.items()}
        assert pairs == {
            (lsp("0;"), lam): one,
            (lsp("1;"), lsp("3; 1-2-3")): one,
            (lsp("2; 1-1-2"), lsp("2;")): one,
            (lsp("3; 1-1-2"), lsp("1;")): one,
            (lam, lsp("0;")): one,
        }

        # block-splitting product on the cycle-support basis
        u_prod = product_U(sp("124|3"), sp("1"))
        support = {
            underlying_set_partition(i.partition): int(c.rational_value())
            for i, c in u_prod.terms.items()
        }
        assert support == {
            sp("124|3|5"): 1,
            sp("125|3|4"): 2,
            sp("135|2|4"): 1,
            sp("235|1|4"): 1,
        }

        # permutation-basis structure constant
        m_prod = product_M(Permutation([1, 2]), Permutation([3, 2, 1]))
        coeff = m_prod.terms[BasisIndex("M", 5, Permutation([5, 2, 3, 4, 1]))]
        assert coeff == 3


def test_criterion_2_hopf_axiom_suites():
    with criterion("2-hopf-axioms", 60.0):
        for q in (2, 3):
            report = suite_hopf(4, q, seed=20240809, samples=100)
            assert report.passed, [c.name for c in report.failures]


def test_criterion_3_isomorphism_theorems():
    with criterion("3-isomorphisms", 120.0):
        report = suite_iso(5, 2)
        assert report.passed, [c.name for c in report.failures]
        report = suite_iso(4, 3)
        assert report.passed, [c.name for c in report.failures]


def test_criterion_4_oracle_equivalence():
    with criterion("4-oracle-equivalence", 600.0):
        bell = {0: 1, 1: 1, 2: 2, 3: 5, 4: 15}
        for q in (2, 3):
            for n in range(5):
                report = suite_oracle(n, q)
                assert report.passed, (n, q, [c.name for c in report.failures])
                # SInd/Res adjointness is skipped, with its reason, exactly
                # where |G|^3 exceeds the work bound, e.g. at (4, 3)
                sind = [c for c in report.checks if c.name == "sind-res-adjointness"]
                assert len(sind) == 1, (n, q)
                big = oracle.get_group(n, q).order ** 3 > 2_000_000
                assert sind[0].skipped == big, (n, q)
                if big:
                    assert not sind[0].passed and "skipped" in sind[0].detail
                    assert sind[0].to_json()["skipped"] is True
                if q == 2:
                    assert len(oracle.get_group(n, q).superclasses()) == bell[n]
        # the adjointness half of the criterion is pinned at q = 2 for all
        # n <= 4; suite_oracle already ran it wherever the group is small
        # enough, which covers every (n, 2) with n <= 4
        for n in range(5):
            assert oracle.get_group(n, 2).order ** 3 <= 2_000_000


def test_criterion_5_inner_products_pin_the_crossing_count():
    with criterion("5-inner-products", 600.0):
        for q in (2, 3):
            for n in range(5):
                group = oracle.get_group(n, q)
                order = group.order
                lambdas = enumerate_labeled_partitions(n, q)
                raw = {lam: group.supercharacter_raw(lam) for lam in lambdas}
                for i, lam in enumerate(lambdas):
                    for nu in lambdas[i:]:
                        total = CycRational.zero(q)
                        for u, value in raw[lam].values.items():
                            total = total + value * raw[nu].values[u].conj()
                        total = total * CycRational.from_rational(q, Fraction(1, order))
                        if lam == nu:
                            assert total == q ** crossing_statistic(lam), (lam, total)
                        else:
                            assert total.is_zero(), (lam, nu, total)


def test_criterion_6_subalgebra_structure():
    with criterion("6-subalgebras", 600.0):
        q = 2
        # arc-length filtration: the span of short-arc supercharacters is
        # closed under product and coproduct
        for k in (1, 2):
            members = [
                lam
                for n in range(6)
                for lam in enumerate_labeled_partitions(n, q)
                if filtration_membership(lam, k)
            ]
            for a in members:
                for b in members:
                    if a.n + b.n > 5:
                        continue
                    prod = product(chi_element(q, a), chi_element(q, b))
                    assert all(filtration_membership(i.partition, k) for i in prod.terms)
            for a in members:
                t = coproduct(chi_element(q, a))
                assert all(
                    filtration_membership(l.partition, k)
                    and filtration_membership(r.partition, k)
                    for (l, r) in t.terms
                )
        # linear layer: dimension count and independence of chain products
        for prime in (2, 3):
            for n in range(1, 6):
                linear_count = sum(
                    1
                    for lam in enumerate_labeled_partitions(n, prime)
                    if is_linear_index(lam)
                )
                assert linear_count == prime ** (n - 1)
        for n in range(1, 6):
            linear = [
                lam for lam in enumerate_labeled_partitions(n, q) if is_linear_index(lam)
            ]
            index_of = {lam: i for i, lam in enumerate(linear)}
            rows = []
            for sizes in compositions(n):
                element = AlgebraElement.unit(q, "kappa")
                for size in sizes:
                    element = product(element, kappa_element(q, interval_chain(size)))
                expanded = kappa_to_chi(element)
                row = [Fraction(0)] * len(linear)
                for idx, coeff in expanded.terms.items():
                    assert is_linear_index(idx.partition)
                    row[index_of[idx.partition]] = coeff.rational_value()
                rows.append(row)
            assert len(rows) == len(linear) == 2 ** (n - 1)
            assert _rank(rows) == len(linear)


def test_criterion_7_duality_adjointness():
    with criterion("7-duality", 600.0):
        for q in (2, 3):
            report = suite_duality(4, q)
            assert report.passed, [c.name for c in report.failures]


def test_criterion_8_truncated_realization():
    with criterion("8-truncated-realization", 600.0):
        from nchopf.duals import evaluate_M_element, evaluate_M_truncated, multiply_truncated

        for m in range(5):
            for n in range(5 - m):
                if m + n == 0 or m + n > 4:
                    continue
                limit = m + n + 1
                for wa in itertools.permutations(range(1, m + 1)):
                    for wb in itertools.permutations(range(1, n + 1)):
                        alpha, beta = Permutation(wa), Permutation(wb)
                        direct = multiply_truncated(
                            evaluate_M_truncated(alpha, limit),
                            evaluate_M_truncated(beta, limit),
                        )
                        via_rule = {
                            mono: int(c.rational_value())
                            for mono, c in evaluate_M_element(
                                product_M(alpha, beta), limit
                            ).items()
                        }
                        assert direct == via_rule, (alpha, beta)


def _rank(rows):
    matrix = [row[:] for row in rows]
    rank = 0
    cols = len(matrix[0]) if matrix else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = 1 / matrix[rank][col]
        matrix[rank] = [v * inv for v in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col]:
                factor = matrix[r][col]
                matrix[r] = [v - factor * w for v, w in zip(matrix[r], matrix[rank])]
        rank += 1
    return rank
