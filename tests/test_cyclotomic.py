import gc
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nchopf import cyclotomic
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

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_comparison_with_a_number_agrees_with_fraction_equality(self, p):
        numbers = (0, 1, -1, 2, Fraction(-3, 4), Fraction(3, 4), Fraction(4, 1), True, False)
        values = [CycRational.from_rational(p, v) for v in numbers]
        if p > 2:
            values += [CycRational.zeta_power(p, 1), CycRational(p, [1] + [2] * (p - 2))]
        for x in values:
            for number in numbers:
                expected = x.is_rational() and x.rational_value() == Fraction(number)
                assert (x == number) is expected and (number == x) is expected
                assert (x != number) is not expected
                if expected:
                    assert hash(x) == hash(number)


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


# ---------------------------------------------------------------------------
# The Fraction-coefficient representation the integer one replaced, kept as
# the reference: coefficient tuples of length p - 1 on the power basis.


def ref_canonical(p, acc):
    top = acc[p - 1]
    return tuple(acc[i] - top for i in range(p - 1))


def ref_mul(p, a, b):
    acc = [Fraction(0)] * p
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            acc[(i + j) % p] += x * y
    return ref_canonical(p, acc)


def ref_conj(p, a):
    acc = [Fraction(0)] * p
    for i, x in enumerate(a):
        acc[(p - i) % p] += x
    return ref_canonical(p, acc)


def ref_inverse(p, a):
    """Solve a * x = 1 by Gauss-Jordan elimination on the power basis."""
    n = p - 1
    unit = [tuple(Fraction(int(i == j)) for i in range(n)) for j in range(n)]
    cols = [ref_mul(p, a, unit[j]) for j in range(n)]
    aug = [[cols[j][i] for j in range(n)] + [Fraction(int(i == 0))] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return tuple(aug[i][n] for i in range(n))


def ref_json(p, a):
    text = [str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}" for c in a]
    return {"p": p, "coeffs": text}


@st.composite
def coefficient_pairs(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    coefficient = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
    vector = st.lists(coefficient, min_size=p - 1, max_size=p - 1).map(tuple)
    return p, draw(vector), draw(vector)


class TestAgainstFractionReference:
    @settings(max_examples=300, deadline=None)
    @given(coefficient_pairs())
    def test_ring_operations_match(self, case):
        p, a, b = case
        x, y = CycRational(p, a), CycRational(p, b)
        assert (x + y).coeffs == tuple(u + v for u, v in zip(a, b))
        assert (x - y).coeffs == tuple(u - v for u, v in zip(a, b))
        assert (x * y).coeffs == ref_mul(p, a, b)
        assert x.conj().coeffs == ref_conj(p, a)
        assert x.to_json() == ref_json(p, a)
        assert (x * y).to_json() == ref_json(p, ref_mul(p, a, b))
        if any(a):
            assert x.inverse().coeffs == ref_inverse(p, a)
            assert x.inverse().to_json() == ref_json(p, ref_inverse(p, a))

    @settings(max_examples=100, deadline=None)
    @given(coefficient_pairs())
    def test_integer_and_fraction_scaling_match(self, case):
        p, a, b = case
        x = CycRational(p, a)
        for scalar in (0, 1, -1, 3, b[0]):
            assert (x * scalar).coeffs == tuple(u * scalar for u in a)
            assert (scalar * x) == x * CycRational.from_rational(p, scalar)


class TestHashConsing:
    def test_equal_values_built_by_different_routes_are_one_object(self):
        x = CycRational.from_rational(3, 2)
        assert CycRational(3, [2, 0]) is x
        assert 2 * CycRational.one(3) is x
        assert CycRational.one(3) + CycRational.one(3) is x
        assert CycRational.from_json({"p": 3, "coeffs": ["4/2", "0"]}) is x
        # Equality and hashing still compare values.
        assert x == 2 and x == Fraction(2) and hash(x) == hash(2)
        assert x != CycRational.from_rational(5, 2)

    def test_pool_entry_is_freed_with_its_last_reference(self):
        x = CycRational(5, [Fraction(12347, 9871), -3, 0, 1])
        key = (5, x.nums, x.den)
        assert cyclotomic._POOL.get(key) is x
        del x
        gc.collect()
        assert cyclotomic._POOL.get(key) is None

    def test_denominator_is_positive_and_gcd_normalized(self):
        x = CycRational(3, [Fraction(2, 6), Fraction(-4, 6)])
        assert (x.nums, x.den) == ((1, -2), 3)
        zero = x - x
        assert (zero.nums, zero.den) == ((0, 0), 1)
        assert (x.inverse() * x).den == 1

    def test_threads_building_the_same_values_agree(self):
        barrier = threading.Barrier(4)
        results, errors = [None] * 4, []

        def build(slot):
            try:
                barrier.wait()
                values = []
                for k in range(300):
                    a = CycRational(5, [Fraction(k, 7), 1, -k, Fraction(1, k + 1)])
                    values.append(a * a.conj() + CycRational.from_rational(5, k))
                results[slot] = values
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=build, args=(slot,)) for slot in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert all(values == results[0] for values in results)
        assert all(hash(a) == hash(b) for values in results for a, b in zip(values, results[0]))

    def test_public_constructors_validate(self):
        with pytest.raises(ValueError):
            CycRational(4, [1, 0, 0])
        with pytest.raises(ValueError):
            CycRational(3, [1])
        with pytest.raises(ValueError):
            CycRational.from_json({"p": 6, "coeffs": ["1"] * 5})
        with pytest.raises(TypeError):
            CycRational.coerce(3, "1/2")

    @pytest.mark.parametrize(
        "data",
        [
            {"p": 2, "coeffs": ["1/0"]},
            {"p": 3, "coeffs": [float("inf"), "0"]},
            {"p": float("inf"), "coeffs": ["1"]},
        ],
        ids=["zero-denominator", "infinite-coefficient", "infinite-prime"],
    )
    def test_from_json_refuses_unrepresentable_numbers_with_value_error(self, data):
        with pytest.raises(ValueError):
            CycRational.from_json(data)

    def test_immutable_and_picklable(self):
        import pickle

        x = CycRational(3, [Fraction(1, 2), 5])
        with pytest.raises(AttributeError):
            x.p = 5
        assert pickle.loads(pickle.dumps(x)) is x
