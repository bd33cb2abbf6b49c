"""Exact arithmetic in the cyclotomic field Q(zeta_p) for a prime p.

Elements are stored on the power basis 1, zeta, ..., zeta^(p-2) with rational
coefficients; the relation 1 + zeta + ... + zeta^(p-1) = 0 is used as a
rewrite rule, so equality of canonical forms is coefficient-wise.  For p = 2
this degenerates to a single rational (zeta_2 = -1 is folded in).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .setpartitions import check_prime


class ConductorMismatchError(ValueError):
    """Raised when combining scalars over different cyclotomic fields."""


class SingularMatrixError(ArithmeticError):
    """Raised when a linear solve meets a singular coefficient matrix."""


class CycRational:
    """An element of Q(zeta_p), exact, in canonical form."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: Sequence[Fraction | int]):
        check_prime(p)
        if len(coeffs) != p - 1:
            raise ValueError(f"expected {p - 1} coefficients for conductor {p}, got {len(coeffs)}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("CycRational is immutable")

    # -- constructors

    @classmethod
    def zero(cls, p: int) -> "CycRational":
        return cls(p, (0,) * (p - 1))

    @classmethod
    def one(cls, p: int) -> "CycRational":
        return cls.from_rational(p, 1)

    @classmethod
    def from_rational(cls, p: int, value: Fraction | int) -> "CycRational":
        coeffs = [Fraction(value)] + [Fraction(0)] * (p - 2)
        return cls(p, coeffs)

    @classmethod
    def zeta_power(cls, p: int, e: int) -> "CycRational":
        e %= p
        if e == p - 1:
            # zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))
            return cls(p, (-1,) * (p - 1))
        coeffs = [Fraction(0)] * (p - 1)
        coeffs[e] = Fraction(1)
        return cls(p, coeffs)

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

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        return (
            isinstance(other, CycRational)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        # A rational value equals the int or Fraction it holds, so it must
        # hash like that number.
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.p, self.coeffs))

    # -- ring operations

    def _other(self, other) -> "CycRational":
        return CycRational.coerce(self.p, other)

    def __add__(self, other) -> "CycRational":
        other = self._other(other)
        return CycRational(self.p, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> "CycRational":
        return CycRational(self.p, tuple(-a for a in self.coeffs))

    def __sub__(self, other) -> "CycRational":
        return self + (-self._other(other))

    def __rsub__(self, other) -> "CycRational":
        return self._other(other) - self

    def __mul__(self, other) -> "CycRational":
        other = self._other(other)
        p = self.p
        acc = [Fraction(0)] * p
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    acc[(i + j) % p] += a * b
        top = acc[p - 1]
        return CycRational(p, tuple(acc[i] - top for i in range(p - 1)))

    __rmul__ = __mul__

    def conj(self) -> "CycRational":
        """Complex conjugation: zeta -> zeta^(p-1)."""
        p = self.p
        acc = [Fraction(0)] * p
        for i, a in enumerate(self.coeffs):
            acc[(p - i) % p] += a
        top = acc[p - 1]
        return CycRational(p, tuple(acc[i] - top for i in range(p - 1)))

    def inverse(self) -> "CycRational":
        if self.is_zero():
            raise ZeroDivisionError(f"zero has no inverse in Q(zeta_{self.p})")
        p = self.p
        if self.is_rational():
            return CycRational.from_rational(p, 1 / self.coeffs[0])
        # Solve (self * x) = 1 on the power basis: columns of the coefficient
        # matrix are the canonical coordinates of self * zeta^j.
        cols = [(self * CycRational.zeta_power(p, j)).coeffs for j in range(p - 1)]
        matrix = [[cols[j][i] for j in range(p - 1)] for i in range(p - 1)]
        rhs = [Fraction(1)] + [Fraction(0)] * (p - 2)
        return CycRational(p, _solve_rational(matrix, rhs))

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
        return {"p": self.p, "coeffs": [_fraction_to_str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, data: dict) -> "CycRational":
        return cls(int(data["p"]), [Fraction(s) for s in data["coeffs"]])


def _fraction_to_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def theta(p: int, x: int) -> CycRational:
    """The fixed nontrivial additive character of F_p: x -> zeta_p^x."""
    check_prime(p)
    if not 0 <= x < p:
        raise ValueError(f"argument must lie in [0, {p}), got {x}")
    return CycRational.zeta_power(p, x)


# ---------------------------------------------------------------------------
# exact linear algebra


def _solve_rational(matrix: list[list[Fraction]], rhs: list[Fraction]) -> tuple[Fraction, ...]:
    n = len(matrix)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise SingularMatrixError("singular rational matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return tuple(aug[i][n] for i in range(n))


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
    if n == 0:
        return []
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not aug[r][col].is_zero()), None)
        if pivot is None:
            raise SingularMatrixError(f"singular matrix (no pivot in column {col})")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col].inverse()
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and not aug[r][col].is_zero():
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def invert_matrix(matrix: Sequence[Sequence[CycRational]]) -> list[list[CycRational]]:
    """Exact inverse via Gauss-Jordan elimination on an augmented identity."""
    n = _check_square(matrix)
    if n == 0:
        return []
    p = matrix[0][0].p
    zero, one = CycRational.zero(p), CycRational.one(p)
    aug = [
        list(row) + [one if i == j else zero for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not aug[r][col].is_zero()), None)
        if pivot is None:
            raise SingularMatrixError(f"singular matrix (no pivot in column {col})")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col].inverse()
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and not aug[r][col].is_zero():
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]
