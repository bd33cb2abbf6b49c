"""Computation bounds shared by the table builder, the group oracle, the
verify suites and the command line.  They are constants, not per-call options: each module reads
its copy when it is called, so a test can monkeypatch it there."""

from __future__ import annotations

#: Largest grade for which supercharacter tables are computed.
DEFAULT_TABLE_BOUND = 7

#: Largest table work estimate (``superfunctions.table_work``: N^3 (q-1)^2
#: for the N = ``count_labeled_partitions(n, q)`` indices, since the
#: class-size solve is cubic in N and each value has degree q - 1) that
#: ``supercharacter_table`` and the oracle's ``UTGroup.oracle_table`` build
#: (one check, ``superfunctions.check_table_size``).  On a 2-vCPU VM the
#: admitted (6, 2) at 8.4e6 took 7.6 s, (5, 3) at 6.8e7 took 24.7 s, (4, 5) at
#: 1.3e8 took 19.1 s and (3, 7) at 6.0e6 took 1.2 s; the refused (2, 47) at
#: 2.2e8 took 14.6 s, (3, 11) at 2.2e8 17.0 s, (2, 53) at 4.0e8 28.2 s,
#: (3, 13) at 8.5e8 49 s, and (2, 101) at 1.0e10 had not finished after
#: 60 s.  (7, 2), (4, 7) and (5, 5) are refused too.  The largest admitted
#: oracle tables took 2.8 s at (4, 5), 11.6 s at (5, 3) and 9.1 s at (6, 2)
#: on the same VM (``nchopf table --oracle``).
TABLE_WORK_BOUND = 150_000_000

#: The prime test (``setpartitions.is_prime``) is a deterministic
#: Miller-Rabin test with the prime bases up to 41, exact below this number
#: (the least strong pseudoprime to all of those bases), so a larger q that
#: none of them divides is refused.
PRIME_BOUND = 3_317_044_064_679_887_385_961_981

#: Largest group order the brute-force oracle will enumerate.
DEFAULT_GROUP_BOUND = 10**6

#: Largest work estimate (``verify.hopf_work``: basis elements, element
#: pairs and random samples, weighed by the scalar degree past
#: ``verify.HOPF_UNIT_DEGREE``) that ``nchopf verify --suite hopf`` accepts,
#: about 50 s of checking.  On a 2-vCPU VM the suite ran 2-6 ms per unit:
#: (6, 2) at 5,970 units in 34 s, and, with k on kappa's maps, (5, 3) at
#: 3,801 in 12.0 s, (4, 7) at 5,940 in 11.4 s, (3, 23) at 5,622 in 9.2 s,
#: (2, 373) at 6,835 in 31.9 s and (1, 4441) at 6,993 in 10.1 s.
HOPF_WORK_BOUND = 7000

#: Largest work estimate (``verify.iso_work``: pairs of kappa basis
#: elements, weighted, and the colored monomials of the image side) that
#: ``nchopf verify --suite iso`` accepts.  On a 2-vCPU VM the suite ran
#: 0.09-0.18 ms per unit: the admitted (6, 2) at 41,844 units took 6.8 s,
#: (5, 3) at 49,974 5.8 s, (4, 5) at 44,796 6.0 s and (3, 13) at 54,778
#: 6.2 s; the refused (4, 7) at 146,390 took 27 s, and (7, 2) at 171,139 and
#: (5, 5) at 456,040 had not finished after 60 s.
ISO_WORK_BOUND = 100_000

#: Largest work estimate (``verify.duality_work``: pairs of basis elements
#: times the basis elements of their total grade, for both checks) that
#: ``nchopf verify --suite duality`` accepts.  On a 2-vCPU VM the suite ran
#: about 20 us per unit: the admitted (6, 2) at 259,072 units took 4.9 s and
#: (5, 3) at 361,798 7.0 s; the refused (4, 7) at 1,194,546 took 23 s, and
#: (7, 2) at 4,675,644 had not finished after 20 s.
DUALITY_WORK_BOUND = 600_000

#: Largest work estimate (``cli.element_work``: for each term of the input,
#: or each pair of terms of a product, the basis indices the command can
#: reach, weighed by the scalar degree past ``cli.ELEMENT_UNIT_DEGREE``)
#: that ``nchopf mul``, ``comul`` and ``antipode`` accept; ``convert`` and
#: ``pair`` go through the table bound.  On a 2-vCPU VM the antipode of
#: kappa's empty partition ran 50-130 us per unit: (7, 3) at 10,299 units
#: took 0.6-1.5 s, (6, 5) at 15,821 0.8-1.7 s, (7, 5) at 170,389 14.9 s,
#: (4, 53) at 159,849 16-18 s, (3, 181) at 59,293 5.8-7.2 s and (2, 1009)
#: at 10,170 1.1-1.2 s; the refused (6, 11) at 506,651, (7, 7) at
#: 1,007,407, (5, 31) at 1,237,801 and (4, 101) at 1,070,601 had not
#: finished after 20 s, and (3, 443) at 869,374 took 76 s.  The kappa
#: product of the empty partitions of grades 3 and 4 reaches 27,721 indices
#: at q = 11 (1.0 s) and 680,761 at q = 31 (29.6 s); the k product of
#: those of grades 2 and 3 at q = 181, 351,865, took 36 s.
ELEMENT_WORK_BOUND = 200_000

#: Largest work estimate (``verify.oracle_work``: N supercharacters, each
#: traced over the |UT_n(q)| = q^(n(n-1)/2) group elements) that
#: ``nchopf verify --suite axioms`` and ``--suite oracle`` accept.  On a
#: 2-vCPU VM the admitted (5, 2), at 53,248 units, took 2.4 s (axioms) and
#: 17.8 s (oracle), (4, 3) at 35,721 took 1.1 s and 11.9 s, and (3, 5) at
#: 3,625 took 0.3 s and 8.8 s.  The refused (4, 5) at 3,140,625, (6, 2) at
#: 6,651,904 and (5, 3) at 15,175,593 had not finished the axioms suite
#: after 45 s.
ORACLE_WORK_BOUND = 60_000

#: Brute-force superinduction sums over |G|^2 sandwiches per group element,
#: so ``verify.suite_oracle`` runs SInd/Res adjointness only while |G|^3
#: stays below this.
SIND_ADJOINTNESS_BOUND = 2_000_000

#: Largest listing, in labeled set partitions (``count_labeled_partitions(n,
#: q)``), that ``nchopf enumerate`` prints.  It admits (7, 5) at 170,389,
#: which took 5.3 s on a 2-vCPU VM, and refuses (7, 7) at 1,007,407 and
#: (5, 101) at 115,251,001.
ENUMERATE_SIZE_BOUND = 200_000


class BoundExceededError(RuntimeError):
    """Raised when a requested computation exceeds its configured bound."""
