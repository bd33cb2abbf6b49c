"""Computation bounds shared by the table builder, the group oracle, the
verify suites and the command line: structural limits, and one work budget
with a per-unit cost for each entry point.  The checks read them when they
run, so one monkeypatch here moves every entry point."""

from __future__ import annotations

#: Largest grade for which supercharacter tables are computed.
DEFAULT_TABLE_BOUND = 7

#: The prime test (``setpartitions.is_prime``) is a deterministic
#: Miller-Rabin test with the prime bases up to 41, exact below this number
#: (the least strong pseudoprime to all of those bases), so a larger q that
#: none of them divides is refused.
PRIME_BOUND = 3_317_044_064_679_887_385_961_981

#: Largest group order the brute-force oracle will enumerate.
DEFAULT_GROUP_BOUND = 10**6

#: Brute-force superinduction sums over |G|^2 sandwiches per group element,
#: so ``verify.suite_oracle`` runs SInd/Res adjointness only while |G|^3
#: stays below this.
SIND_ADJOINTNESS_BOUND = 2_000_000

#: Seconds of work, on the reference host, that an entry point may set out
#: to do.  The reference host is a 2-vCPU VM whose speed drifts by 20-40%.
WORK_BUDGET_S = 60

#: Nanoseconds per unit of each entry's work estimate on the reference host.
#: Each cost keeps every measured case that the bounds admit or refuse on
#: its side of ``WORK_BUDGET_S``; "us/unit" is the measured time per unit.
UNIT_COST_NS = {
    # superfunctions.table_work, N^3 (q - 1)^2 for the N indices: the
    # class-size solve is cubic in N and each value has degree q - 1.
    # supercharacter_table and UTGroup.oracle_table.  `nchopf table` as a
    # subprocess, two runs each: admitted (6, 2) at 8.4e6 units took
    # 2.9-3.6 s (0.35-0.43 us/unit), (5, 3) at 6.8e7 7.4-10.6 s (0.11-0.16),
    # (4, 5) at 1.3e8 7.3-8.0 s (0.06), (3, 7) at 6.0e6 0.6 s; oracle tables
    # 1.4 s at (6, 2), 2.3 s at (5, 3), 0.8 s at (4, 5), less per unit than
    # the formula tables.  Refused: (2, 47) at 2.2e8 took 9.3 s, (3, 11) at
    # 2.2e8 7.9 s, (3, 13) at 8.5e8 23-25 s; (2, 101) at 1.0e10 ran past
    # 60 s.  The row stays at 400 ns so that no case changes side; a re-fit
    # belongs with the closed-form class sizes that replace the solve.
    "table": 400,
    # verify.hopf_work, per basis element, pair and random sample, degree
    # weighted.  Admitted: (6, 2) at 5,970 units took 34 s (5.7 ms/unit),
    # (5, 3) at 3,801 12.0 s, (4, 7) at 5,940 11.4 s, (3, 23) at 5,622
    # 9.2 s, (2, 373) at 6,835 31.9 s and (1, 4441) at 6,993 10.1 s
    # (1.4-4.7 ms).  Refused: (2, 379) at 7,047, (2, 739) ran 98 s
    # unweighted.  The cost admits up to 7,000 units.
    "hopf": 8_571_428,
    # verify.iso_work, per weighted kappa pair and colored monomial.
    # Admitted: (6, 2) at 41,844 units took 6.8 s (8.9-9.6 s since the
    # dual_ch counit and antipode checks), (5, 3) at 49,974 5.8 s,
    # (4, 5) at 44,796 6.0 s and (3, 13) at 54,778 6.2 s (0.11-0.16
    # ms/unit).  Refused: (4, 7) at 146,390 took 27 s (0.18 ms); (7, 2) at
    # 171,139 and (5, 5) at 456,040 ran past 60 s.
    "iso": 600_000,
    # verify.duality_work, per pairing compared.  Admitted: (6, 2) at
    # 259,072 units took 4.9 s and (5, 3) at 361,798 7.0 s (19 us/unit).
    # Refused: (4, 7) at 1,194,546 took 23 s; (7, 2) at 4,675,644 ran past
    # 20 s.
    "duality": 100_000,
    # verify.axioms_work, supercharacters times group elements, and
    # verify.oracle_work, which adds the SInd/Res sandwiches where the
    # oracle suite runs that check.  `verify --suite oracle` as a
    # subprocess, four runs each: admitted (5, 2) at 53,248 units took
    # 5.5-7.6 s (0.10-0.14 ms/unit), (4, 3) at 35,721 2.3-3.7 s (0.07-0.10),
    # (3, 5) at 13,390 6.1-10.4 s (0.45-0.78) and (4, 2) at 2,270 2.3-3.8 s
    # (1.0-1.7); the last two are mostly the SInd sandwiches, which are not
    # tallied.  The axioms suite took 2.4 s at (5, 2) and 1.1 s at (4, 3);
    # (2, 101) is admitted at 10,201 units (axioms) and 15,352 (oracle).
    # Refused: (4, 5) at 3.1e6, (6, 2) at 6.7e6 and (5, 3) at 1.5e7 ran
    # past 45 s.  The cost stays at 1 ms, so no case changes side.
    "oracle": 1_000_000,
    # setpartitions.count_labeled_partitions, per listed partition of
    # ``nchopf enumerate``.  Admitted: (7, 5) at 170,389 took 5.3 s
    # (31 us/unit).  Refused: (7, 7) at 1,007,407 and (5, 101).
    "enumerate": 300_000,
    # cli.element_work for ``nchopf antipode``: indices reached, degree
    # weighted.  Admitted, kappa's empty partition: (7, 3) at 10,299 units
    # took 0.6-1.5 s, (7, 5) at 170,389 14.9 s, (4, 53) at 159,849 16-18 s,
    # (3, 181) at 59,293 5.8-7.2 s and (2, 1009) at 10,170 1.1-1.2 s
    # (58-146 us/unit).  Refused: (6, 11) at 506,651, (7, 7), (5, 31) and
    # (4, 101) ran past 20 s; (3, 443) at 869,374 took 76 s.
    "antipode": 300_000,
    # cli.element_work for ``nchopf mul``: indices reached per pair of
    # terms, degree weighted.  The kappa product of the empty partitions of
    # grades 3 and 4 at q = 11, 27,721 units, took 1.0 s (36 us/unit).
    # Refused: the same at q = 31, 680,761, took 29.6 s; the k product of
    # grades 2 and 3 at q = 181, 351,865, took 36 s (102 us/unit).
    "mul": 300_000,
    # cli.element_work for ``nchopf comul``: the 2^n subsets split over,
    # degree weighted.  Kappa's empty partition of grade 7 took 0.15 s at
    # q = 10,007 (12,807 units), 1.2 s at q = 100,003 (128,002), 1.6-2.0 s
    # at q = 156,253 (200,002) and 13.7 s at q = 1,000,003 (1,280,002):
    # 8-12 us/unit, most of it the q - 1 numerators of each coefficient.
    "comul": 10_000,
}

#: Past this scalar degree a unit of an entry's estimate weighs
#: (q - 1) / degree, because every scalar carries q - 1 numerators.  Below
#: it other costs dominate: ``suite_hopf`` ran 2-6 ms per unweighted unit
#: from (6, 2) to (2, 101) but 15 ms at (1, 1999) and 62 ms at (1, 10007);
#: the antipode of kappa's empty partition 98-130 us at (4, 31) to
#: (3, 101) but 400 us at (3, 443) and 845 us at (2, 1009).
UNIT_DEGREE = {"hopf": 200, "antipode": 100, "mul": 100, "comul": 100}


class BoundExceededError(RuntimeError):
    """Raised when a requested computation exceeds its configured bound."""


def degree_weighted(entry: str, units: int, q: int) -> int:
    """``units`` of ``entry``'s work on scalars of degree q - 1."""
    degree = UNIT_DEGREE[entry]
    return units * max(q - 1, degree) // degree


def check_grade(n: int, what: str = "n=") -> None:
    """Refuse a grade over ``DEFAULT_TABLE_BOUND``: tables, enumeration, the
    suites and the structure maps grow like Bell(n) or 2^n."""
    if n > DEFAULT_TABLE_BOUND:
        raise BoundExceededError(f"{what}{n} exceeds the configured bound {DEFAULT_TABLE_BOUND}")


def check_work(entry: str, units: int, what: str) -> None:
    """Refuse, before any of it is done, work whose estimate is over the
    budget: ``units`` at ``UNIT_COST_NS[entry]`` each against
    ``WORK_BUDGET_S``, compared exactly."""
    cost_ns = units * UNIT_COST_NS[entry]
    if cost_ns > WORK_BUDGET_S * 10**9:
        seconds = cost_ns / 10**9 if cost_ns < 10**300 else float("inf")
        raise BoundExceededError(
            f"{what}: an estimated {seconds:.3g} s, over the work budget of {WORK_BUDGET_S} s"
        )
