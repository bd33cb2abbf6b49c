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
#: pairs and random samples) that ``nchopf verify --suite hopf`` accepts,
#: about 50 s of checking: on a 2-vCPU VM the suite ran 2-7 ms per unit,
#: e.g. (6, 2) at 5,970 units in 34 s, (3, 7) at 6,798 in 33 s, and (2, 23),
#: refused at 7,770, in 54 s.
HOPF_WORK_BOUND = 7000

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
