"""Computation bounds shared by the table builder, the group oracle and the
command line."""

from __future__ import annotations

#: Largest grade for which supercharacter tables are computed by default.
DEFAULT_TABLE_BOUND = 7

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
