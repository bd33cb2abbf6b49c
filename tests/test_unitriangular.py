import itertools
import random
from array import array
from fractions import Fraction

import pytest

from nchopf import unitriangular
from nchopf.cyclotomic import CycRational, theta
from nchopf.limits import BoundExceededError
from nchopf.setpartitions import (
    LabeledSetPartition,
    SetComposition,
    concat,
    enumerate_labeled_partitions,
)
from nchopf.superfunctions import (
    supercharacter_degree,
    supercharacter_table,
    supercharacter_value,
)
from nchopf.unitriangular import (
    ClassFunctionRaw,
    UTGroup,
    def_parts,
    embed_parts,
    get_group,
    inf_parts,
    nilpotent_of,
    oracle_supercharacter_table,
    outer_product,
    positions,
    product_inner_product,
    raw_inner_product,
    res_J,
    sind_J,
)
from nchopf.verify import suite_axioms


def lsp(text):
    return LabeledSetPartition.from_text(text)


def mul(group, a, b):
    """The reference group product: multiply the full unitriangular
    matrices with entry tuples a and b, mod q."""
    n = group.n

    def matrix(u):
        rows = [[int(i == j) for j in range(n + 1)] for i in range(n + 1)]
        for (i, j), value in zip(positions(n), u):
            rows[i][j] = value
        return rows

    x, y = matrix(a), matrix(b)
    return tuple(
        sum(x[i][k] * y[k][j] for k in range(1, n + 1)) % group.q for i, j in positions(n)
    )


def project_parts(u, J):
    """The reference straightening: the blocks of u on J's parts, as entry
    tuples of the smaller groups; None when some nonzero entry straddles two
    parts."""
    part_of = {i: k for k, part in enumerate(J.parts) for i in part}
    for (i, j), value in zip(positions(J.n), u):
        if value and part_of[i] != part_of[j]:
            return None
    entry = dict(zip(positions(J.n), u))
    return tuple(
        tuple(entry[(part[a - 1], part[b - 1])] for a, b in positions(len(part)))
        for part in J.parts
    )


class TestGroupArithmetic:
    @pytest.mark.parametrize(
        "n,q,size", [(2, 2, 2), (3, 2, 8), (4, 3, 729), (1, 5, 1), (0, 2, 1)]
    )
    def test_enumeration_counts(self, n, q, size):
        assert len(get_group(n, q).elements()) == size

    def test_bound(self, monkeypatch):
        with pytest.raises(BoundExceededError):
            get_group(10, 3).elements()
        monkeypatch.setattr(unitriangular, "DEFAULT_GROUP_BOUND", 7)
        with pytest.raises(BoundExceededError):
            get_group(3, 2).elements()

    def test_inverses(self):
        for group in (get_group(3, 3), get_group(4, 2), get_group(3, 5)):
            identity = (0,) * group.num_positions
            for u in group.elements():
                assert mul(group, u, group.inv(u)) == identity
                assert mul(group, group.inv(u), u) == identity

    def test_multiplication_is_associative(self):
        group = get_group(3, 2)
        members = group.elements()
        for a in members:
            for b in members:
                for c in members:
                    assert mul(group, mul(group, a, b), c) == mul(group, a, mul(group, b, c))

    def test_sandwich_matches_explicit_products(self):
        group = get_group(3, 3)
        members = group.elements()
        mid = (1, 2, 0)  # e12 + 2 e13
        for x in members[:9]:
            for y in members[:9]:
                # x (mid) y computed through group products on 1 + mid
                direct = group.sandwich(x, mid, y)
                via_group = mul(group, mul(group, x, mid), y)
                # mul treats operands as unipotent (implicit 1s); correct by
                # subtracting the parts contributed by x*y itself
                xy = mul(group, x, y)
                expected = tuple(
                    (v - w) % 3 for v, w in zip(via_group, xy)
                )
                assert direct == expected

    @pytest.mark.parametrize("n,q,count", [(3, 2, 5), (3, 3, 11), (4, 2, 16), (4, 3, 57)])
    def test_conjugacy_classes_are_closed_and_partition_the_group(self, n, q, count):
        # k(UT_3(q)) = q^2 + q - 1 and k(UT_4(q)) = 2q^3 + q^2 - 2q.  The
        # elementary matrices 1 + c e_rs generate the group, so a class closed
        # under conjugation by each of them is closed under every g.  (4, 3)
        # is the only size here at which taking g for g^-1 changes the classes.
        group = get_group(n, q)
        classes = group.conjugacy_classes()
        assert len(classes) == count
        assert sorted(u for members in classes for u in members) == sorted(group.elements())
        elementary = [g for g in group.elements() if sum(map(bool, g)) == 1]
        for members in classes:
            for g in elementary:
                ginv = group.inv(g)
                assert {mul(group, mul(group, g, u), ginv) for u in members} == members


class TestSuperclasses:
    def test_long_arc_is_fixed(self):
        orbit = get_group(3, 2).superclass_orbit(lsp("3; 1-1-3"))
        assert orbit == frozenset({(0, 1, 0)})

    def test_identity_superclass(self):
        orbit = get_group(3, 2).superclass_orbit(LabeledSetPartition(3))
        assert orbit == frozenset({(0, 0, 0)})

    def test_short_arc_orbit(self):
        orbit = get_group(3, 2).superclass_orbit(lsp("3; 1-1-2"))
        assert orbit == frozenset({(1, 0, 0), (1, 1, 0)})

    @pytest.mark.parametrize("n,q", [(3, 2), (4, 2), (3, 3)])
    def test_orbits_partition_the_group(self, n, q):
        group = get_group(n, q)
        classes = group.superclasses()
        assert len(classes) == len(enumerate_labeled_partitions(n, q))
        assert sum(len(o) for o in classes.values()) == group.order


class TestTraces:
    def test_identity_gives_degree(self):
        for q in (2, 3):
            group = get_group(3, q)
            for lam in enumerate_labeled_partitions(3, q):
                value = group.supercharacter_raw(lam)((0, 0, 0))
                assert value == supercharacter_degree(lam, q)

    def test_trivial_character(self):
        group = get_group(3, 2)
        for u in group.elements():
            assert group.supercharacter_raw(LabeledSetPartition(3))(u) == 1

    @pytest.mark.parametrize("u", [(0, 0), (0, 0, 0, 0), (0, 3, 0), (0, -1, 0), ()])
    def test_trace_refuses_a_tuple_outside_the_group(self, u):
        with pytest.raises(ValueError, match="not the entry tuple"):
            get_group(3, 3).supercharacter_raw(LabeledSetPartition(3))(u)

    @pytest.mark.parametrize("n,q", [(0, 2), (1, 3), (3, 2), (4, 2), (3, 3), (3, 5)])
    def test_supercharacters_are_the_orbit_module_traces(self, n, q):
        # supercharacter_raw sorts every element's fixed functionals into
        # orbits; literal_trace tests each functional of one orbit.
        group = get_group(n, q)
        for lam in enumerate_labeled_partitions(n, q):
            function = group.supercharacter_raw(lam)
            assert function.ns == (n,)
            assert function.values == tuple(literal_trace(group, lam, u) for u in group.elements())

    @pytest.mark.parametrize("text", ["2; 1-1-2", "4; 1-1-4", "3; 1-2-3", "3; 1-3-2"])
    def test_an_index_of_another_group_is_refused(self, text):
        group = get_group(3, 2)
        with pytest.raises(ValueError, match="does not index"):
            group.supercharacter_raw(lsp(text))
        with pytest.raises(ValueError, match="does not index"):
            group.functional_orbit(lsp(text))

    @pytest.mark.parametrize("n,q", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 3), (3, 5)])
    def test_traces_match_formula_on_representatives(self, n, q):
        group = get_group(n, q)
        order = enumerate_labeled_partitions(n, q)
        table = group.oracle_table()
        assert list(table.order) == order
        for lam, row in zip(order, table.values):
            for mu, value in zip(order, row):
                rep = nilpotent_of(mu, q)
                assert value == supercharacter_value(lam, mu, q)
                assert value == group.supercharacter_raw(lam)(rep)
                if (n, q) in ((4, 3), (3, 5)):
                    assert value == literal_trace(group, lam, rep)

    @pytest.mark.parametrize("n,q", [(3, 2), (3, 3), (4, 3), (5, 2), (3, 5), (3, 7)])
    def test_oracle_table_matches_formula_table(self, n, q):
        assert oracle_supercharacter_table(n, q).values == supercharacter_table(n, q).values

    @pytest.mark.parametrize("n,q", [(3, 2), (3, 3), (4, 3), (5, 2), (3, 5), (3, 7)])
    def test_oracle_sizes_match_solved_sizes(self, n, q):
        assert (
            oracle_supercharacter_table(n, q).class_sizes
            == supercharacter_table(n, q).class_sizes
        )

    def test_constant_on_superclasses(self):
        group = get_group(3, 3)
        for lam in enumerate_labeled_partitions(3, 3):
            function = group.supercharacter_raw(lam)
            for orbit in group.superclasses().values():
                values = {function(member) for member in orbit}
                assert len(values) == 1


class TestAxioms:
    def test_n1_trivial(self):
        report = suite_axioms(1, 2)
        assert report.passed
        assert len(get_group(1, 2).superclasses()) == 1

    def test_n3_q2(self):
        report = suite_axioms(3, 2)
        assert report.passed
        assert len(get_group(3, 2).superclasses()) == 5

    def test_n3_q3(self):
        report = suite_axioms(3, 3)
        assert report.passed
        assert len(get_group(3, 3).superclasses()) == 11

    def test_report_serializes(self):
        report = suite_axioms(2, 2)
        data = report.to_json()
        assert data["passed"] is True
        assert len(data["checks"]) == 4


class TestTableCacheConcurrency:
    def test_concurrent_reads_agree(self, tmp_path):
        import threading

        from nchopf import superfunctions

        superfunctions.clear_table_cache()
        results = []
        errors = []

        def worker():
            try:
                results.append(supercharacter_table(3, 3, cache_dir=tmp_path))
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert all(r.values == results[0].values for r in results)
        superfunctions.clear_table_cache()


class TestEmbedding:
    def test_embed_project_roundtrip(self):
        q = 2
        J = SetComposition.from_text("14|3|256")
        groups = [get_group(2, q), get_group(1, q), get_group(3, q)]
        for us in itertools.product(*(g.elements() for g in groups)):
            embedded = embed_parts(us, J)
            assert project_parts(embedded, J) == us

    def test_project_rejects_straddlers(self):
        J = SetComposition.from_text("12|3")
        u = (0, 1, 0)  # nonzero at (1, 3), straddling
        assert project_parts(u, J) is None

    @pytest.mark.parametrize("us", [((1, 1, 1), ()), ((1,),), ((1,), (), ()), ((), (1,)), ()])
    def test_embed_refuses_a_wrong_count_or_length_of_factors(self, us):
        J = SetComposition.from_text("13|2")
        assert embed_parts(((1,), ()), J) == (0, 1, 0)
        with pytest.raises(ValueError, match="not one entry tuple per part"):
            embed_parts(us, J)


class TestFunctors:
    def test_restriction_of_constant_function(self):
        group = get_group(3, 2)
        one = CycRational.one(2)
        f = group.supercharacter_raw(LabeledSetPartition(3))
        restricted = res_J(f, SetComposition.from_text("13|2"))
        assert all(v == one for v in restricted.values)

    def test_inflation_is_concatenation_on_supercharacters(self):
        q = 2
        for n1, n2 in ((1, 1), (1, 2), (2, 1), (2, 2)):
            for lam1 in enumerate_labeled_partitions(n1, q):
                for lam2 in enumerate_labeled_partitions(n2, q):
                    psi = outer_product(
                        [
                            get_group(n1, q).supercharacter_raw(lam1),
                            get_group(n2, q).supercharacter_raw(lam2),
                        ]
                    )
                    inflated = inf_parts(psi, (n1, n2))
                    target = get_group(n1 + n2, q).supercharacter_raw(concat(lam1, lam2))
                    assert inflated == target and hash(inflated) == hash(target)

    def test_sind_res_adjoint_small(self):
        q = 2
        n = 3
        group = get_group(n, q)
        J = SetComposition.from_text("12|3")
        for lam1 in enumerate_labeled_partitions(2, q):
            for lam2 in enumerate_labeled_partitions(1, q):
                psi = outer_product(
                    [
                        get_group(2, q).supercharacter_raw(lam1),
                        get_group(1, q).supercharacter_raw(lam2),
                    ]
                )
                induced = sind_J(psi, J)
                for lam in enumerate_labeled_partitions(n, q):
                    chi = group.supercharacter_raw(lam)
                    assert raw_inner_product(induced, chi) == product_inner_product(
                        psi, res_J(chi, J)
                    )

    def test_inf_def_adjoint_small(self):
        q = 2
        n = 3
        group = get_group(n, q)
        for sizes in ((1, 2), (2, 1)):
            for lam1 in enumerate_labeled_partitions(sizes[0], q):
                for lam2 in enumerate_labeled_partitions(sizes[1], q):
                    psi = outer_product(
                        [
                            get_group(sizes[0], q).supercharacter_raw(lam1),
                            get_group(sizes[1], q).supercharacter_raw(lam2),
                        ]
                    )
                    inflated = inf_parts(psi, sizes)
                    for lam in enumerate_labeled_partitions(n, q):
                        chi = group.supercharacter_raw(lam)
                        assert raw_inner_product(inflated, chi) == product_inner_product(
                            psi, def_parts(chi, sizes)
                        )


# ---------------------------------------------------------------------------
# The literal running sums: one exact multiply-add per group element (or per
# sandwich, fiber member or fixed functional).  The module tallies equal
# terms first; these are the reference it must match exactly.  Each reference
# reads its arguments through calls and returns a dict from argument tuples
# (u_1, ..., u_l), one entry tuple per factor, to values.


def arguments(ns, q):
    """The elements of UT_{n_1}(q) x ... x UT_{n_l}(q) as argument tuples,
    in the order of itertools.product over the factors' elements()."""
    return list(itertools.product(*(get_group(n, q).elements() for n in ns)))


def table_of(f):
    """f's values keyed by the argument tuple at their place in f.values."""
    return dict(zip(arguments(f.ns, f.q), f.values))


def literal_inner_product(f, g):
    args = arguments(f.ns, f.q)
    total = CycRational.zero(f.q)
    for us in args:
        total = total + f(*us) * g(*us).conj()
    return total * CycRational.from_rational(f.q, Fraction(1, len(args)))


def literal_res_J(f, J):
    sizes = tuple(len(part) for part in J.parts)
    return {us: f(embed_parts(us, J)) for us in arguments(sizes, f.q)}


def literal_sind_J(psi, J):
    q, n = psi.q, J.n
    group = get_group(n, q)
    subgroup_order = q ** sum(size * (size - 1) // 2 for size in psi.ns)
    normalizer = CycRational.from_rational(q, Fraction(1, group.order * subgroup_order))
    values = {}
    for u in group.elements():
        total = CycRational.zero(q)
        for z, count in group.sandwich_counts(u).items():
            parts = project_parts(z, J)
            if parts is not None:
                total = total + psi(*parts) * count
        values[(u,)] = total * normalizer
    return values


def literal_inf_parts(psi, sizes):
    n = sum(sizes)
    J = SetComposition.from_interval_sizes(tuple(sizes))
    part_of = {i: k for k, part in enumerate(J.parts) for i in part}
    values = {}
    for u in get_group(n, psi.q).elements():
        truncated = tuple(
            value if part_of[i] == part_of[j] else 0 for (i, j), value in zip(positions(n), u)
        )
        values[(u,)] = psi(*project_parts(truncated, J))
    return values


def literal_def_parts(f, sizes):
    q, n = f.q, sum(sizes)
    J = SetComposition.from_interval_sizes(tuple(sizes))
    part_of = {i: k for k, part in enumerate(J.parts) for i in part}
    cross = [k for k, (i, j) in enumerate(positions(n)) if part_of[i] != part_of[j]]
    normalizer = CycRational.from_rational(q, Fraction(1, q ** len(cross)))
    values = {}
    for us in arguments(sizes, q):
        base = embed_parts(us, J)
        total = CycRational.zero(q)
        for assignment in itertools.product(range(q), repeat=len(cross)):
            fiber = list(base)
            for k, value in zip(cross, assignment):
                fiber[k] = value
            total = total + f(tuple(fiber))
        values[us] = total * normalizer
    return values


def literal_outer_product(f1, f2):
    return {
        (u1, u2): f1(u1) * f2(u2) for u1, u2 in arguments(f1.ns + f2.ns, f1.q)
    }


def literal_trace(group, lam, u):
    """The trace of u on the orbit module of lam, one functional at a time:
    u fixes mu when mu(u^-1 X) = mu(X) for every elementary X = e_ij (mu is
    linear, so these X suffice), and a fixed mu adds theta(mu(u^-1 - 1))."""
    q, uinv = group.q, group.inv(u)
    one = (0,) * group.num_positions
    elementary = [tuple(int(k == place) for k in range(len(one))) for place in range(len(one))]
    moved = [(x, group.sandwich(uinv, x, one)) for x in elementary]

    def at(mu, x):
        return sum(c * y for c, y in zip(mu, x)) % q

    total = CycRational.zero(q)
    for mu in group.functional_orbit(lam):
        if all(at(mu, ux) == at(mu, x) for x, ux in moved):
            total = total + theta(q, at(mu, uinv))
    return total


def two_part_compositions(n):
    points = range(1, n + 1)
    for k in range(1, n):
        for part in itertools.combinations(points, k):
            yield SetComposition([list(part), [i for i in points if i not in part]])


def characters(n, q):
    group = get_group(n, q)
    return [group.supercharacter_raw(lam) for lam in enumerate_labeled_partitions(n, q)]


def mixed_values(q, count, rng):
    """count values drawn with repeats from a few rational and non-rational
    elements of Q(zeta_q), zero among them."""
    z = CycRational.zeta_power(q, 1)
    pool = [
        CycRational.zero(q),
        CycRational.one(q),
        CycRational.from_rational(q, Fraction(-2, 3)),
        z,
        z * z - Fraction(1, 2),
        CycRational.zeta_power(q, q - 1) * 3 + 1,
    ]
    return [rng.choice(pool) for _ in range(count)]


class TestLayout:
    """Every function is the tuple of its values, one per element of its
    product group in itertools.product order, and a call reads the value at
    its arguments' place."""

    @staticmethod
    def check(f, ns, reference):
        assert f.ns == ns
        assert type(f.values) is tuple
        assert len(f.values) == len(arguments(ns, f.q))
        assert table_of(f) == reference
        assert all(f(*us) == value for us, value in reference.items())
        # the same values through the public constructor: the same function
        literal = ClassFunctionRaw(ns, f.q, [reference[us] for us in arguments(ns, f.q)])
        assert f == literal and hash(f) == hash(literal)
        assert (f.palette, f.codes) == (literal.palette, literal.codes)

    @pytest.mark.parametrize("n,q", [(3, 2), (3, 3), (4, 2)])
    def test_every_operation_lays_out_its_values_in_product_order(self, n, q):
        group = get_group(n, q)
        raw = characters(n, q)
        for lam, chi in zip(enumerate_labeled_partitions(n, q), raw):
            reference = {(u,): literal_trace(group, lam, u) for u in group.elements()}
            self.check(chi, (n,), reference)
        for J in two_part_compositions(n):
            sizes = tuple(len(part) for part in J.parts)
            for chi in raw:
                self.check(res_J(chi, J), sizes, literal_res_J(chi, J))
                self.check(def_parts(chi, sizes), sizes, literal_def_parts(chi, sizes))
            for f1 in characters(sizes[0], q):
                for f2 in characters(sizes[1], q):
                    psi = outer_product([f1, f2])
                    self.check(psi, sizes, literal_outer_product(f1, f2))
                    self.check(sind_J(psi, J), (n,), literal_sind_J(psi, J))
                    self.check(inf_parts(psi, sizes), (n,), literal_inf_parts(psi, sizes))

    def test_a_call_refuses_a_non_element_or_a_wrong_count(self):
        chi = get_group(3, 3).supercharacter_raw(lsp("3; 1-1-2"))
        for u in [(0, 0), (0, 0, 0, 0), (0, 3, 0), (0, -1, 0), ()]:
            with pytest.raises(ValueError, match="not the entry tuple"):
                chi(u)
        for us in [(), ((0, 0, 0), (0, 0, 0))]:
            with pytest.raises(ValueError, match="arguments for a function on 1 factors"):
                chi(*us)
        psi = outer_product(
            [
                get_group(1, 3).supercharacter_raw(lsp("1")),
                get_group(2, 3).supercharacter_raw(lsp("2; 1-2-2")),
            ]
        )
        assert psi((), (1,)) == psi.values[1]
        # (0,) followed by () lays out the same digits as () followed by (0,)
        for us in [((0,), ()), ((), (3,)), ((), (0, 0))]:
            with pytest.raises(ValueError, match="not the entry tuple"):
                psi(*us)
        for us in [((0,),), ((), (0,), ())]:
            with pytest.raises(ValueError, match="arguments for a function on 2 factors"):
                psi(*us)

    @pytest.mark.parametrize("u", [(5,), (1, 7, 9)])
    def test_sandwich_counts_refuse_a_tuple_outside_the_group(self, u):
        group = UTGroup(2, 3)
        with pytest.raises(ValueError, match="not the entry tuple"):
            group.sandwich_counts(u)
        assert group._sandwich_counts == {}


class TestClassFunctionRaw:
    """The palette-and-codes form is canonical: equal values give equal,
    equally hashed functions, whichever operation built them."""

    def test_palette_is_the_distinct_values_in_order_of_first_occurrence(self):
        one, z = CycRational.one(3), CycRational.zeta_power(3, 1)
        f = ClassFunctionRaw((2,), 3, (z, one, z))
        assert f.palette == (z, one) and f.codes == bytes([0, 1, 0])
        assert f.values == (z, one, z) and f((2,)) == z
        assert ClassFunctionRaw((2,), 3, (1, 1, 1)).palette == (one,)
        assert f != ClassFunctionRaw((2,), 3, (one, z, z))
        assert f != ClassFunctionRaw((1, 2), 3, (z, one, z))

    @pytest.mark.parametrize(
        "ns,q,values",
        [
            ((2,), 3, (1, 2)),
            ((2,), 3, (1, 2, 3, 4)),
            ((1, 2), 2, (1,) * 3),
            ((), 2, ()),
            ((3,), 2, ()),
        ],
    )
    def test_refuses_a_values_count_that_is_not_the_group_order(self, ns, q, values):
        with pytest.raises(ValueError, match="values for a function on"):
            ClassFunctionRaw(ns, q, values)

    def test_refuses_a_value_of_another_field(self):
        with pytest.raises(ValueError):
            ClassFunctionRaw((2,), 3, [CycRational.one(5)] * 3)

    def test_hashable_immutable_and_picklable(self):
        import pickle

        f, g = characters(3, 2)[:2]
        assert len({f, g, res_J(f, SetComposition.from_text("123")), f}) == 2
        with pytest.raises(AttributeError):
            f.q = 3
        assert pickle.loads(pickle.dumps(f)) == f
        assert repr(f).startswith("ClassFunctionRaw((3,), 2, (CycRational(p=2, 1), ")

    @pytest.mark.parametrize("n,q", [(3, 2), (3, 3), (4, 2)])
    def test_equal_values_from_different_operations_are_equal(self, n, q):
        # Res to the whole of [n] and Inf along the one-part composition are
        # the identity; Res of an inflated outer product is the product again.
        one_part = SetComposition.from_interval_sizes((n,))
        for chi in characters(n, q):
            same = [res_J(chi, one_part), inf_parts(res_J(chi, one_part), (n,)),
                    outer_product([chi]), ClassFunctionRaw((n,), q, chi.values)]
            assert all(f == chi and hash(f) == hash(chi) for f in same)
        for J in two_part_compositions(n):
            sizes = tuple(len(part) for part in J.parts)
            interval = SetComposition.from_interval_sizes(sizes)
            for f1 in characters(sizes[0], q):
                for f2 in characters(sizes[1], q):
                    psi = outer_product([f1, f2])
                    back = res_J(inf_parts(psi, sizes), interval)
                    assert back == psi and hash(back) == hash(psi)

    def test_more_than_256_distinct_values(self):
        q = 7
        group = get_group(3, q)
        values = [CycRational.from_rational(q, Fraction(k, 3)) for k in range(group.order)]
        f = ClassFunctionRaw((3,), q, values)
        assert isinstance(f.codes, array) and len(f.palette) == group.order == 343
        assert f.values == tuple(values)
        assert all(f(u) == v for u, v in zip(group.elements(), values))
        g = ClassFunctionRaw((3,), q, values)
        assert f == g and hash(f) == hash(g) and f != ClassFunctionRaw((3,), q, values[::-1])
        assert raw_inner_product(f, g) == literal_inner_product(f, g)
        # Res keeps 49 of the values, Def averages 7 per fiber: back to bytes
        J = SetComposition.from_text("12|3")
        restricted = res_J(f, J)
        assert type(restricted.codes) is bytes and table_of(restricted) == literal_res_J(f, J)
        lowered = def_parts(f, (2, 1))
        assert type(lowered.codes) is bytes
        assert table_of(lowered) == literal_def_parts(f, (2, 1))

    def test_outer_product_refuses_no_factors_or_mixed_q(self):
        with pytest.raises(ValueError, match="at least one function"):
            outer_product([])
        f2, f3 = characters(1, 2)[0], characters(1, 3)[0]
        with pytest.raises(ValueError, match="over one q"):
            outer_product([f2, f3])


class TestTalliedSums:
    """Each tallied sum equals its literal running sum exactly."""

    @pytest.mark.parametrize("n,q", [(3, 2), (3, 3), (4, 2)])
    def test_inner_products_of_raw_characters(self, n, q):
        raw = characters(n, q)
        for f in raw:
            for g in raw:
                assert raw_inner_product(f, g) == literal_inner_product(f, g)

    @pytest.mark.parametrize("n,q", [(3, 2), (3, 3)])
    def test_sind_and_def_of_outer_products(self, n, q):
        raw = characters(n, q)
        for J in two_part_compositions(n):
            sizes = tuple(len(part) for part in J.parts)
            interval = SetComposition.from_interval_sizes(sizes)
            lowered = [table_of(def_parts(chi, sizes)) for chi in raw]
            assert lowered == [literal_def_parts(chi, sizes) for chi in raw]
            for f1 in characters(sizes[0], q):
                for f2 in characters(sizes[1], q):
                    psi = outer_product([f1, f2])
                    induced = sind_J(psi, J)
                    assert table_of(induced) == literal_sind_J(psi, J)
                    # Def of a superinduced function: non-integral values
                    raised = sind_J(psi, interval)
                    assert table_of(def_parts(raised, sizes)) == literal_def_parts(raised, sizes)

    @pytest.mark.parametrize("q", [3, 5])
    def test_repeated_mixed_values(self, q):
        rng = random.Random(q)
        group = get_group(3, q)
        f, g = (
            ClassFunctionRaw((3,), q, tuple(mixed_values(q, group.order, rng))) for _ in range(2)
        )
        want = literal_inner_product(f, g)
        assert not want.is_rational()
        assert raw_inner_product(f, g) == want
        for sizes in ((1, 2), (2, 1)):
            assert table_of(def_parts(f, sizes)) == literal_def_parts(f, sizes)
        psi, phi = (
            ClassFunctionRaw((1, 2), q, tuple(mixed_values(q, q, rng))) for _ in range(2)
        )
        assert product_inner_product(psi, phi) == literal_inner_product(psi, phi)
        if q == 3:
            # SInd enumerates |G|^3 sandwiches: seconds at q = 5
            J = SetComposition.from_text("2|13")
            assert table_of(sind_J(psi, J)) == literal_sind_J(psi, J)


class TestSuperinductionOnSuperclasses:
    """Literal superinduction takes one value on each superclass: the
    multiset of sandwiches x X y is the same for every X of one superclass,
    which a per-superclass SInd would rest on."""

    @pytest.mark.parametrize(
        "n,q,compositions,cases",
        [(3, 2, None, 12), (3, 3, None, 18), (4, 2, ["2|134"], 5)],
    )
    def test_sind_is_constant_on_superclasses(self, n, q, compositions, cases):
        group = get_group(n, q)
        if compositions is None:
            compositions = two_part_compositions(n)
        else:
            compositions = map(SetComposition.from_text, compositions)
        checked = 0
        for J in compositions:
            sizes = tuple(len(part) for part in J.parts)
            for f1 in characters(sizes[0], q):
                for f2 in characters(sizes[1], q):
                    induced = sind_J(outer_product([f1, f2]), J)
                    for lam, orbit in group.superclasses().items():
                        assert len({induced(u) for u in orbit}) == 1, (J, lam)
                    checked += 1
        assert checked == cases
