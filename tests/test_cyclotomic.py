import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nchopf.cyclotomic import (
    ConductorMismatchError,
    CycRational,
    SingularMatrixError,
    invert_matrix,
    solve_linear_system,
    theta,
)


def random_cyc(rng, p):
    return CycRational(
        p, [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(p - 1)]
    )


@st.composite
def cyc_elements(draw, p):
    coeffs = [
        Fraction(draw(st.integers(-8, 8)), draw(st.integers(1, 5)))
        for _ in range(p - 1)
    ]
    return CycRational(p, coeffs)


class TestCanonicalForm:
    def test_p2_degenerates_to_rationals(self):
        x = theta(2, 1)
        assert x == CycRational.from_rational(2, -1)
        assert x.rational_value() == -1

    def test_zeta_power_wraps(self):
        assert CycRational.zeta_power(3, 3) == CycRational.one(3)
        assert CycRational.zeta_power(3, 2) == CycRational(3, [-1, -1])

    def test_root_of_unity_sum_vanishes(self):
        for p in (2, 3, 5, 7):
            total = CycRational.zero(p)
            for x in range(p):
                total = total + theta(p, x)
            assert total.is_zero()

    def test_cyclotomic_identity(self):
        # (1 + z)(1 + z^2) = 1 at p = 3 since 1 + z + z^2 = 0
        p = 3
        a = CycRational(p, [1, 1])
        b = CycRational.one(p) + CycRational.zeta_power(p, 2)
        assert a * b == CycRational.one(p)

    def test_equality_is_canonical(self):
        p = 5
        # z^4 must equal -(1 + z + z^2 + z^3)
        direct = CycRational.zeta_power(p, 4)
        rewritten = -(
            CycRational.one(p)
            + CycRational.zeta_power(p, 1)
            + CycRational.zeta_power(p, 2)
            + CycRational.zeta_power(p, 3)
        )
        assert direct == rewritten

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_rational_values_hash_like_the_number(self, p):
        for value in (0, 1, -3, Fraction(2, 7)):
            x = CycRational.from_rational(p, value)
            assert x == value
            assert hash(x) == hash(value)
            assert len({x, value}) == 1
        assert len({CycRational(2, [1]), 1}) == 1


class TestTheta:
    def test_trivial_value(self):
        for p in (2, 3, 5):
            assert theta(p, 0) == CycRational.one(p)

    def test_homomorphism_exhaustive(self):
        for p in (2, 3, 5, 7):
            for x in range(p):
                for y in range(p):
                    assert theta(p, x) * theta(p, y) == theta(p, (x + y) % p)

    def test_inverse_pair(self):
        assert theta(3, 1) * theta(3, 2) == CycRational.one(3)

    def test_range_check(self):
        with pytest.raises(ValueError):
            theta(3, 3)
        with pytest.raises(ValueError):
            theta(3, -1)


class TestFieldAxioms:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_randomized_field_axioms(self, p):
        rng = random.Random(1000 + p)
        one = CycRational.one(p)
        for _ in range(1000):
            a, b, c = (random_cyc(rng, p) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a
            assert a - a == CycRational.zero(p)
            if not a.is_zero():
                assert a * a.inverse() == one

    @settings(max_examples=150)
    @given(cyc_elements(3), cyc_elements(3))
    def test_conjugation_is_a_ring_map(self, a, b):
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a + b).conj() == a.conj() + b.conj()
        assert a.conj().conj() == a

    def test_conj_of_theta(self):
        for p in (2, 3, 5):
            for x in range(p):
                assert theta(p, x).conj() == theta(p, (p - x) % p)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            CycRational.zero(3).inverse()

    def test_conductor_mismatch(self):
        with pytest.raises(ConductorMismatchError):
            CycRational.one(2) + CycRational.one(3)


class TestLinearAlgebra:
    def test_identity_system(self):
        p = 3
        one, zero = CycRational.one(p), CycRational.zero(p)
        matrix = [[one, zero], [zero, one]]
        rhs = [theta(p, 1), theta(p, 2)]
        assert solve_linear_system(matrix, rhs) == rhs

    def test_single_equation_roundtrip(self):
        p = 3
        matrix = [[theta(p, 1)]]
        rhs = [CycRational.one(p)]
        (x,) = solve_linear_system(matrix, rhs)
        assert theta(p, 1) * x == CycRational.one(p)

    def test_random_solve_roundtrip(self):
        rng = random.Random(7)
        p = 3
        for _ in range(25):
            size = rng.randint(1, 4)
            matrix = [[random_cyc(rng, p) for _ in range(size)] for _ in range(size)]
            rhs = [random_cyc(rng, p) for _ in range(size)]
            try:
                solution = solve_linear_system(matrix, rhs)
            except SingularMatrixError:
                continue
            for i in range(size):
                acc = CycRational.zero(p)
                for j in range(size):
                    acc = acc + matrix[i][j] * solution[j]
                assert acc == rhs[i]

    def test_invert_matrix_roundtrip(self):
        p = 2
        matrix = [
            [CycRational.from_rational(p, 1), CycRational.from_rational(p, 1)],
            [CycRational.from_rational(p, 1), CycRational.from_rational(p, -1)],
        ]
        inverse = invert_matrix(matrix)
        for i in range(2):
            for j in range(2):
                acc = CycRational.zero(p)
                for k in range(2):
                    acc = acc + matrix[i][k] * inverse[k][j]
                assert acc == (CycRational.one(p) if i == j else CycRational.zero(p))

    def test_singular_vs_dimension_errors(self):
        p = 2
        one = CycRational.one(p)
        zero = CycRational.zero(p)
        with pytest.raises(SingularMatrixError):
            solve_linear_system([[one, one], [one, one]], [one, zero])
        with pytest.raises(ValueError):
            solve_linear_system([[one, one]], [one])
        with pytest.raises(ValueError):
            solve_linear_system([[one]], [one, zero])

    def test_json_roundtrip(self):
        x = CycRational(3, [Fraction(1, 2), Fraction(-2)])
        data = x.to_json()
        assert data == {"p": 3, "coeffs": ["1/2", "-2"]}
        assert CycRational.from_json(data) == x
