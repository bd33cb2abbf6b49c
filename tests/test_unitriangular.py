import pytest

from nchopf.cyclotomic import CycRational
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
    UTElement,
    def_parts,
    embed_parts,
    enumerate_group,
    get_group,
    inf_parts,
    oracle_supercharacter_table,
    outer_product,
    product_inner_product,
    project_parts,
    raw_inner_product,
    res_J,
    sind_J,
    superclass_of,
    trace_supercharacter,
    verify_supercharacter_axioms,
)


def lsp(text):
    return LabeledSetPartition.from_text(text)


def element(n, q, entries):
    return UTElement(n, q, tuple(entries))


class TestGroupArithmetic:
    @pytest.mark.parametrize(
        "n,q,size", [(2, 2, 2), (3, 2, 8), (4, 3, 729), (1, 5, 1), (0, 2, 1)]
    )
    def test_enumeration_counts(self, n, q, size):
        assert len(enumerate_group(n, q)) == size

    def test_bound(self):
        with pytest.raises(BoundExceededError):
            enumerate_group(10, 3)
        with pytest.raises(BoundExceededError):
            enumerate_group(3, 2, bound=7)

    def test_inverses(self):
        group = get_group(3, 3)
        identity = UTElement.identity(3, 3).entries
        for u in group.elements():
            assert group.mul(u.entries, group.inv(u.entries)) == identity
            assert group.mul(group.inv(u.entries), u.entries) == identity

    def test_multiplication_is_associative(self):
        group = get_group(3, 2)
        members = [u.entries for u in group.elements()]
        for a in members:
            for b in members:
                for c in members:
                    assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))

    def test_sandwich_matches_explicit_products(self):
        group = get_group(3, 3)
        members = [u.entries for u in group.elements()]
        mid = (1, 2, 0)  # e12 + 2 e13
        for x in members[:9]:
            for y in members[:9]:
                # x (mid) y computed through group products on 1 + mid
                direct = group.sandwich(x, mid, y)
                via_group = group.mul(group.mul(x, mid), y)
                # mul treats operands as unipotent (implicit 1s); correct by
                # subtracting the parts contributed by x*y itself
                xy = group.mul(x, y)
                expected = tuple(
                    (v - w) % 3 for v, w in zip(via_group, xy)
                )
                assert direct == expected


class TestSuperclasses:
    def test_long_arc_is_fixed(self):
        orbit = superclass_of(lsp("3; 1-1-3"), 2)
        assert orbit == frozenset({element(3, 2, (0, 1, 0))})

    def test_identity_superclass(self):
        orbit = superclass_of(LabeledSetPartition(3), 2)
        assert orbit == frozenset({UTElement.identity(3, 2)})

    def test_short_arc_orbit(self):
        orbit = superclass_of(lsp("3; 1-1-2"), 2)
        assert orbit == frozenset(
            {element(3, 2, (1, 0, 0)), element(3, 2, (1, 1, 0))}
        )

    @pytest.mark.parametrize("n,q", [(3, 2), (4, 2), (3, 3)])
    def test_orbits_partition_the_group(self, n, q):
        group = get_group(n, q)
        classes = group.superclasses()
        assert len(classes) == len(enumerate_labeled_partitions(n, q))
        assert sum(len(o) for o in classes.values()) == group.order


class TestTraces:
    def test_identity_gives_degree(self):
        for q in (2, 3):
            for lam in enumerate_labeled_partitions(3, q):
                value = trace_supercharacter(lam, UTElement.identity(3, q))
                assert value == supercharacter_degree(lam, q)

    def test_trivial_character(self):
        for u in enumerate_group(3, 2):
            assert trace_supercharacter(LabeledSetPartition(3), u) == 1

    @pytest.mark.parametrize("n,q", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_traces_match_formula_on_representatives(self, n, q):
        group = get_group(n, q)
        for lam in enumerate_labeled_partitions(n, q):
            for mu in enumerate_labeled_partitions(n, q):
                rep = group.wrap(
                    tuple(
                        (0,) * group.num_positions
                        if not mu.arcs
                        else __import__("nchopf.unitriangular", fromlist=["nilpotent_of"]).nilpotent_of(mu, q)
                    )
                )
                assert group.trace_supercharacter(lam, rep) == supercharacter_value(
                    lam, mu, q
                )

    @pytest.mark.parametrize("n,q", [(3, 2), (3, 3)])
    def test_oracle_table_matches_formula_table(self, n, q):
        assert oracle_supercharacter_table(n, q).values == supercharacter_table(n, q).values

    @pytest.mark.parametrize("n,q", [(3, 2), (3, 3)])
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
                values = {function.values[group.wrap(member)] for member in orbit}
                assert len(values) == 1


class TestAxioms:
    def test_n1_trivial(self):
        report = verify_supercharacter_axioms(1, 2)
        assert report.passed
        assert report.num_superclasses == 1

    def test_n3_q2(self):
        report = verify_supercharacter_axioms(3, 2)
        assert report.passed
        assert report.num_superclasses == 5

    def test_n3_q3(self):
        report = verify_supercharacter_axioms(3, 3)
        assert report.passed
        assert report.num_superclasses == 11

    def test_report_serializes(self):
        report = verify_supercharacter_axioms(2, 2)
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
        import itertools

        for us in itertools.product(*(g.elements() for g in groups)):
            embedded = embed_parts(us, J, q)
            assert project_parts(embedded, J) == us

    def test_project_rejects_straddlers(self):
        J = SetComposition.from_text("12|3")
        u = element(3, 2, (0, 1, 0))  # nonzero at (1, 3), straddling
        assert project_parts(u, J) is None


class TestFunctors:
    def test_restriction_of_constant_function(self):
        group = get_group(3, 2)
        one = CycRational.one(2)
        f = group.supercharacter_raw(LabeledSetPartition(3))
        restricted = res_J(f, SetComposition.from_text("13|2"))
        assert all(v == one for v in restricted.values.values())

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
                    assert inflated.values == target.values

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
