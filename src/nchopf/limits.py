"""Computation bounds shared by the table builder, the group oracle and the
command line."""

from __future__ import annotations

#: Largest grade for which supercharacter tables are computed by default.
DEFAULT_TABLE_BOUND = 7

#: Largest table, in indices (``count_labeled_partitions(n, q)``), that
#: ``supercharacter_table`` builds.  The class-size solve is O(N^3): on a
#: 2-vCPU VM it took 7.6 s at (6, 2), N = 203, and 24.7 s at (5, 3),
#: N = 257, so this bound stands near 40 s; (7, 2) at N = 877, (4, 7) at
#: N = 505 and (5, 5) at N = 1657 are refused.
TABLE_SIZE_BOUND = 300

#: Largest group order the brute-force oracle will enumerate by default.
DEFAULT_GROUP_BOUND = 10**6

#: Largest work estimate (``verify.hopf_work``: basis elements, element
#: pairs and random samples) that ``nchopf verify --suite hopf`` accepts,
#: about 50 s of checking: on a 2-vCPU VM the suite ran 2-7 ms per unit,
#: e.g. (6, 2) at 5,970 units in 34 s, (3, 7) at 6,798 in 33 s, and (2, 23),
#: refused at 7,770, in 54 s.
HOPF_WORK_BOUND = 7000


class BoundExceededError(RuntimeError):
    """Raised when a requested computation exceeds its configured bound."""
