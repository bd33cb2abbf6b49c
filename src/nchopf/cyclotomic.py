"""Exact arithmetic in the cyclotomic field Q(zeta_p) for a prime p.

Elements are stored on the power basis 1, zeta, ..., zeta^(p-2) as integer
numerators over one positive denominator, with the gcd of the denominator
and all numerators equal to 1 (zero is 0/1).  The relation
1 + zeta + ... + zeta^(p-1) = 0 is used as a rewrite rule, so equality of
canonical forms is coefficient-wise.  For p = 2 this degenerates to a single
rational (zeta_2 = -1 is folded in).

Values are hash-consed: every construction ends in ``_intern``, which hands
back the instance held for (p, numerators, denominator) in a weak pool, so
equal values built by different routes are one object while any reference to
it is alive, and the pool frees an entry with its last reference.  Equality
and hashing stay value-based: an instance that missed the pool (two threads
building the same new value at once) still equals its twin.

Inputs are validated where they come from outside: the constructor, the
classmethods, ``coerce`` and ``from_json``.  Arithmetic on two
``CycRational`` values trusts both and never re-validates.
"""

from __future__ import annotations

import math
import re
import sys
import weakref
from fractions import Fraction
from typing import Iterable, Sequence

from .setpartitions import _Value, _no_ref, check_prime, json_int, json_list


class ConductorMismatchError(ValueError):
    """Raised when combining scalars over different cyclotomic fields."""


class SingularMatrixError(ArithmeticError):
    """Raised when a linear solve meets a singular coefficient matrix."""


_POOL: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_POOL_REFS = _POOL.data

#: A JSON coefficient string that ``from_json`` reads as an int.
_INTEGER_TEXT = re.compile("-?[0-9]+")

#: The digits after the point and the decimal exponent of a coefficient
#: string, in the syntax ``Fraction`` reads.
_EXPONENT_TEXT = re.compile(r"(?:\.(\d*(?:_\d+)*))?[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _intern(p: int, nums: tuple[int, ...], den: int) -> "CycRational":
    """The shared instance of sum_i nums[i] zeta^i / den.  The caller
    guarantees den > 0 and gcd(den, *nums) == 1."""
    key = (p, nums, den)
    x = _POOL_REFS.get(key, _no_ref)()
    if x is None:
        x = object.__new__(CycRational)
        _SET_P(x, p)
        _SET_NUMS(x, nums)
        _SET_DEN(x, den)
        x = _POOL.setdefault(key, x)
    return x


def _integer(p: int, k: int) -> "CycRational":
    """The shared instance of the integer k.  The caller guarantees p prime."""
    return _intern(p, (k,) + (0,) * (p - 2), 1)


def _reduced(p: int, nums: tuple[int, ...], den: int) -> "CycRational":
    """``_intern`` after dividing out the common gcd (den > 0)."""
    g = math.gcd(den, *nums)
    if g != 1:
        nums = tuple(a // g for a in nums)
        den //= g
    return _intern(p, nums, den)


class CycRational(_Value):
    """An element of Q(zeta_p), exact, in canonical form."""

    __slots__ = ("p", "nums", "den", "__weakref__")
    _fields = ("p", "coeffs")

    def __new__(cls, p: int, coeffs: Sequence[Fraction | int]):
        check_prime(p)
        if len(coeffs) != p - 1:
            raise ValueError(f"expected {p - 1} coefficients for conductor {p}, got {len(coeffs)}")
        if all(type(c) is int for c in coeffs):
            return _reduced(p, tuple(coeffs), 1)
        fractions = [Fraction(c) for c in coeffs]
        den = math.lcm(*(f.denominator for f in fractions))
        return _reduced(p, tuple(f.numerator * (den // f.denominator) for f in fractions), den)

    # -- constructors

    @classmethod
    def zero(cls, p: int) -> "CycRational":
        check_prime(p)
        return _intern(p, (0,) * (p - 1), 1)

    @classmethod
    def one(cls, p: int) -> "CycRational":
        return cls.from_rational(p, 1)

    @classmethod
    def from_rational(cls, p: int, value: Fraction | int) -> "CycRational":
        check_prime(p)
        if not isinstance(value, int):
            value = Fraction(value)
            return _intern(p, (value.numerator,) + (0,) * (p - 2), value.denominator)
        return _integer(p, int(value))

    @classmethod
    def zeta_power(cls, p: int, e: int) -> "CycRational":
        check_prime(p)
        e %= p
        if e == p - 1:
            # zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))
            return _intern(p, (-1,) * (p - 1), 1)
        nums = [0] * (p - 1)
        nums[e] = 1
        return _intern(p, tuple(nums), 1)

    @classmethod
    def coerce(cls, p: int, value) -> "CycRational":
        if isinstance(value, CycRational):
            if value.p != p:
                raise ConductorMismatchError(f"conductor mismatch: {value.p} vs {p}")
            return value
        if isinstance(value, (int, Fraction)):
            return cls.from_rational(p, value)
        raise TypeError(f"cannot interpret {value!r} as an element of Q(zeta_{p})")

    # -- structure

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coefficients as fractions."""
        return tuple(Fraction(a, self.den) for a in self.nums)

    def __bool__(self) -> bool:
        return any(self.nums)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.nums[0], self.den)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if isinstance(other, CycRational):
            return self.p == other.p and self.den == other.den and self.nums == other.nums
        # A rational value is nums[0] / den in lowest terms, as is a Fraction.
        if isinstance(other, int):
            nums = self.nums
            return self.den == 1 and nums[0] == other and not any(nums[1:])
        if isinstance(other, Fraction):
            nums = self.nums
            return (
                self.den == other.denominator
                and nums[0] == other.numerator
                and not any(nums[1:])
            )
        return False

    def __hash__(self) -> int:
        # A rational value equals the int or Fraction it holds, so it must
        # hash like that number.
        nums, den = self.nums, self.den
        if not any(nums[1:]):
            return hash(nums[0]) if den == 1 else hash(Fraction(nums[0], den))
        return hash((self.p, nums, den))

    # -- ring operations

    def _other(self, other) -> "CycRational":
        if type(other) is CycRational and other.p == self.p:
            return other
        return CycRational.coerce(self.p, other)

    def __add__(self, other) -> "CycRational":
        other = self._other(other)
        return _sum(self.p, self.nums, self.den, other.nums, other.den)

    __radd__ = __add__

    def __neg__(self) -> "CycRational":
        return _intern(self.p, tuple(-a for a in self.nums), self.den)

    def __sub__(self, other) -> "CycRational":
        other = self._other(other)
        return _sum(self.p, self.nums, self.den, tuple(-b for b in other.nums), other.den)

    def __rsub__(self, other) -> "CycRational":
        return self._other(other) - self

    def __mul__(self, other) -> "CycRational":
        p = self.p
        if type(other) is int:
            # Scaling by a multiplicity, most often 1.
            if other == 1:
                return self
            return _reduced(p, tuple(a * other for a in self.nums), self.den)
        if type(other) is Fraction:
            num = other.numerator
            return _reduced(p, tuple(a * num for a in self.nums), self.den * other.denominator)
        other = self._other(other)
        a, b = self.nums, other.nums
        den = self.den * other.den
        if p == 2:
            return _reduced(2, (a[0] * b[0],), den)
        if not any(b[1:]):
            return _reduced(p, tuple(x * b[0] for x in a), den)
        if not any(a[1:]):
            return _reduced(p, tuple(a[0] * y for y in b), den)
        # Schoolbook product; zeta^(p+k) folds onto zeta^k, then the
        # coefficient of zeta^(p-1) is rewritten away.
        acc = [0] * (2 * p - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        acc[i + j] += x * y
        top = acc[p - 1]
        return _reduced(p, tuple(acc[k] + acc[k + p] - top for k in range(p - 1)), den)

    __rmul__ = __mul__

    def conj(self) -> "CycRational":
        """Complex conjugation: zeta -> zeta^(p-1)."""
        return self if self.p == 2 else self._galois(self.p - 1)

    def _galois(self, k: int) -> "CycRational":
        """The field automorphism zeta -> zeta^k (k prime to p).  It permutes
        the integral basis up to the rewrite, so no gcd can appear."""
        p = self.p
        acc = [0] * p
        for i, a in enumerate(self.nums):
            acc[i * k % p] += a
        top = acc[p - 1]
        return _intern(p, tuple(acc[j] - top for j in range(p - 1)), self.den)

    def inverse(self) -> "CycRational":
        if self.is_zero():
            raise ZeroDivisionError(f"zero has no inverse in Q(zeta_{self.p})")
        p, nums = self.p, self.nums
        if not any(nums[1:]):
            sign = -1 if nums[0] < 0 else 1
            return _intern(p, (sign * self.den,) + nums[1:], sign * nums[0])
        # The product of the other Galois conjugates over the norm, which is
        # the (rational) product of all p - 1 conjugates.
        cofactor = self._galois(2)
        for k in range(3, p):
            cofactor = cofactor * self._galois(k)
        return cofactor * (self * cofactor).inverse()

    def __truediv__(self, other) -> "CycRational":
        return self * self._other(other).inverse()

    def __rtruediv__(self, other) -> "CycRational":
        return self._other(other) * self.inverse()

    # -- formatting

    def __repr__(self) -> str:
        return f"CycRational(p={self.p}, {self})"

    def __str__(self) -> str:
        parts = []
        for e, c in enumerate(self.coeffs):
            if not c:
                continue
            if e == 0:
                parts.append(str(c))
            else:
                z = "z" if e == 1 else f"z^{e}"
                if c == 1:
                    parts.append(z)
                elif c == -1:
                    parts.append(f"-{z}")
                else:
                    parts.append(f"{c}*{z}")
        if not parts:
            return "0"
        out = parts[0]
        for part in parts[1:]:
            out += f" + {part}" if not part.startswith("-") else f" - {part[1:]}"
        return out

    def to_json(self) -> dict:
        if self.den == 1:
            return {"p": self.p, "coeffs": list(map(str, self.nums))}
        return {"p": self.p, "coeffs": [_ratio_text(a, self.den) for a in self.nums]}

    @classmethod
    def from_json(cls, data: dict) -> "CycRational":
        """Read {"p", "coeffs"}: p a JSON integer, each coefficient an exact
        rational given as a string ("-3/4") or a JSON integer; a float is
        refused, since it holds no exact rational.  Integers, and strings of
        ASCII digits with an optional minus sign, are read as ints; every other
        string is read by ``_fraction``, which accepts or refuses it."""
        p = json_int(data["p"], "p")
        texts = json_list(data["coeffs"], "coeffs")
        for s in texts:
            if isinstance(s, bool) or not isinstance(s, (str, int)):
                raise ValueError(f"a coefficient must be a string or a JSON integer, got {s!r}")
        try:
            coeffs = [
                s if type(s) is int else int(s) if _INTEGER_TEXT.fullmatch(s) else _fraction(s)
                for s in texts
            ]
        except (ZeroDivisionError, OverflowError) as exc:
            raise ValueError(f"invalid scalar {data!r}: {exc}") from exc
        return cls(p, coeffs)


def _fraction(text: str) -> Fraction:
    """``Fraction(text)``, refusing first a decimal exponent that would make
    the numerator or denominator longer than the interpreter's int-string
    limit: ``Fraction`` builds 10^e in full, and took 10.8 s on "1e10000000"
    on a 2-vCPU VM."""
    match = _EXPONENT_TEXT.search(text)
    limit = sys.get_int_max_str_digits()
    if match and limit:
        decimals, exponent = match.groups()
        shift = int(exponent) - len((decimals or "").replace("_", ""))
        if abs(shift) >= limit:
            raise ValueError(f"a decimal exponent of {shift} is past the {limit}-digit int limit")
    return Fraction(text)


# The slot setters, bypassing the immutability guard in ``_intern``.
_SET_P, _SET_NUMS, _SET_DEN = (CycRational.__dict__[name].__set__ for name in ("p", "nums", "den"))


def _sum(p: int, a: tuple[int, ...], da: int, b: tuple[int, ...], db: int) -> CycRational:
    """a/da + b/db on the power basis."""
    if da == db:
        nums = tuple(x + y for x, y in zip(a, b))
        return _intern(p, nums, 1) if da == 1 else _reduced(p, nums, da)
    return _reduced(p, tuple(x * db + y * da for x, y in zip(a, b)), da * db)


def weighted_sum(p: int, terms: Iterable[tuple[CycRational, int]]) -> CycRational:
    """sum count * value over the (value, count) terms, in one construction:
    the integer numerators are added over a running lcm of the denominators,
    and the total is reduced once at the end.  No terms give 0."""
    check_prime(p)
    nums, den = [0] * (p - 1), 1
    for value, count in terms:
        if value.p != p:
            raise ConductorMismatchError(f"conductor mismatch: {value.p} vs {p}")
        if den % value.den:
            scale = value.den // math.gcd(den, value.den)
            nums = [a * scale for a in nums]
            den *= scale
        count *= den // value.den
        nums = [a + count * b for a, b in zip(nums, value.nums)]
    return _reduced(p, tuple(nums), den)


def _ratio_text(num: int, den: int) -> str:
    g = math.gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"


def theta(p: int, x: int) -> CycRational:
    """The fixed nontrivial additive character of F_p: x -> zeta_p^x."""
    check_prime(p)
    if not 0 <= x < p:
        raise ValueError(f"argument must lie in [0, {p}), got {x}")
    return CycRational.zeta_power(p, x)


# ---------------------------------------------------------------------------
# exact linear algebra


def _check_square(matrix: Sequence[Sequence[CycRational]]) -> int:
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError(f"matrix is not square: {n} rows, row of length {len(row)}")
    return n


def solve_linear_system(
    matrix: Sequence[Sequence[CycRational]], rhs: Sequence[CycRational]
) -> list[CycRational]:
    """Solve A x = b exactly over Q(zeta_p) by Gaussian elimination.

    Raises ValueError on dimension mismatch and SingularMatrixError when no
    pivot can be found.
    """
    n = _check_square(matrix)
    if len(rhs) != n:
        raise ValueError(f"vector length {len(rhs)} does not match matrix size {n}")
    aug = _gauss_jordan([list(row) + [rhs[i]] for i, row in enumerate(matrix)], n)
    return [row[n] for row in aug]


def invert_matrix(matrix: Sequence[Sequence[CycRational]]) -> list[list[CycRational]]:
    """Exact inverse via Gauss-Jordan elimination on an augmented identity."""
    n = _check_square(matrix)
    if n == 0:
        return []
    p = matrix[0][0].p
    zero, one = CycRational.zero(p), CycRational.one(p)
    aug = _gauss_jordan(
        [list(row) + [one if i == j else zero for j in range(n)] for i, row in enumerate(matrix)],
        n,
    )
    return [row[n:] for row in aug]


def _gauss_jordan(aug: list[list[CycRational]], n: int) -> list[list[CycRational]]:
    """Reduce the n x n block on the left of the augmented rows ``aug`` to the
    identity, in place, carrying the columns to its right along.

    Each pivot step touches only the columns ``col`` onward. Every earlier
    column has already been cleared from all rows but its own pivot row, so
    the pivot row is zero left of ``col``: normalizing it there, or
    subtracting a multiple of it there, would leave every value unchanged."""
    for col in range(n):
        pivot = next((r for r in range(col, n) if not aug[r][col].is_zero()), None)
        if pivot is None:
            raise SingularMatrixError(f"singular matrix (no pivot in column {col})")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col].inverse()
        active = aug[col][col:] = [v * inv for v in aug[col][col:]]
        for r in range(n):
            if r != col and not aug[r][col].is_zero():
                factor = aug[r][col]
                aug[r][col:] = [v - factor * w for v, w in zip(aug[r][col:], active)]
    return aug
