import io
import json
import time

import pytest

from nchopf import cli, superfunctions
from nchopf.cli import EXIT_BOUND, EXIT_INVALID, EXIT_OK, run
from nchopf.cyclotomic import CycRational
from nchopf.duals import Permutation
from nchopf.elements import AlgebraElement, BasisIndex, TensorElement
from nchopf.limits import DEFAULT_TABLE_BOUND, HOPF_WORK_BOUND, TABLE_SIZE_BOUND
from nchopf.ncsym import ColoredIndex
from nchopf.serialize import (
    canonical_dumps,
    element_from_json,
    element_to_json,
    tensor_from_json,
    tensor_to_json,
)
from nchopf.setpartitions import LabeledSetPartition, SetPartition, count_labeled_partitions
from nchopf.superfunctions import kappa_element
from nchopf.verify import hopf_work


def lsp(text):
    return LabeledSetPartition.from_text(text)


def invoke(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


class TestSerialization:
    def test_element_roundtrip(self):
        x = kappa_element(2, lsp("3; 1-1-3")).scale(-2) + AlgebraElement.unit(2, "kappa")
        data = element_to_json(x)
        assert element_from_json(data) == x

    def test_spec_schema_shape(self):
        x = AlgebraElement(
            2, "kappa", {BasisIndex("kappa", 3, lsp("3; 1-1-3")): -2}
        )
        data = element_to_json(x)
        assert data == {
            "q": 2,
            "basis": "kappa",
            "terms": [{"n": 3, "arcs": [[1, 3, 1]], "coeff": {"p": 2, "coeffs": ["-2"]}}],
        }

    def test_permutation_element_roundtrip(self):
        x = AlgebraElement(2, "M", {BasisIndex("M", 3, Permutation([3, 2, 1])): 1})
        assert element_from_json(element_to_json(x)) == x

    def test_colored_element_roundtrip(self):
        idx = ColoredIndex(SetPartition(3, [[1, 3], [2]]), (0, 1, 0), 2)
        x = AlgebraElement(3, "m_colored", {BasisIndex("m_colored", 3, idx): 1})
        assert element_from_json(element_to_json(x)) == x

    def test_tensor_roundtrip(self):
        t = TensorElement.tensor(
            kappa_element(2, lsp("2; 1-1-2")), AlgebraElement.unit(2, "kappa")
        )
        assert tensor_from_json(tensor_to_json(t)) == t

    def test_canonical_output_is_stable(self):
        x = kappa_element(2, lsp("2; 1-1-2")) + kappa_element(2, LabeledSetPartition(2))
        first = canonical_dumps(element_to_json(x))
        second = canonical_dumps(element_to_json(element_from_json(json.loads(first))))
        assert first == second


class TestCliBasics:
    def test_enumerate_lines(self):
        code, out, _ = invoke(["enumerate", "--n", "3", "--q", "2"])
        assert code == EXIT_OK
        assert out.splitlines() == [
            "3;",
            "3; 1-1-2",
            "3; 1-1-3",
            "3; 2-1-3",
            "3; 1-1-2, 2-1-3",
        ]

    def test_enumerate_json(self):
        code, out, _ = invoke(["enumerate", "--n", "2", "--q", "3", "--json"])
        assert code == EXIT_OK
        data = json.loads(out)
        assert len(data) == 3

    def test_invalid_arguments_exit_one(self):
        code, _, err = invoke(["enumerate", "--n", "3"])
        assert code == EXIT_INVALID
        assert err

    def test_invalid_q_exits_one(self):
        code, _, _ = invoke(["enumerate", "--n", "3", "--q", "4"])
        assert code == EXIT_INVALID

    @pytest.mark.parametrize(
        "blocks, colors, r",
        [([[1], []], [0], 2), ([[1, 2]], [0, 1], 4)],
        ids=["empty-block", "colors-of-another-prime"],
    )
    def test_invalid_colored_index_exits_one(self, blocks, colors, r):
        term = {"n": 2, "blocks": blocks, "colors": colors, "r": r}
        term["coeff"] = {"p": 3, "coeffs": ["1", "0"]}
        payload = json.dumps({"q": 3, "basis": "m_colored", "terms": [term]})
        code, out, err = invoke(["antipode"], payload)
        assert code == EXIT_INVALID and not out
        assert err.startswith("nchopf: ") and "Traceback" not in err

    def test_bound_exceeded_exits_two(self):
        code, _, err = invoke(["table", "--n", "9", "--q", "2"])
        assert code == EXIT_BOUND
        assert err

    def test_enumerate_over_the_grade_bound_exits_two(self):
        code, out, err = invoke(["enumerate", "--n", str(DEFAULT_TABLE_BOUND + 1), "--q", "2"])
        assert code == EXIT_BOUND and not out and err

    @pytest.mark.parametrize("suite", ["hopf", "iso", "duality"])
    def test_verify_over_the_grade_bound_exits_two(self, suite):
        argv = ["verify", "--suite", suite, "--n", str(DEFAULT_TABLE_BOUND + 1), "--q", "2"]
        code, out, err = invoke(argv)
        assert code == EXIT_BOUND and not out and err

    def test_unusable_cache_dir_exits_one(self, tmp_path, monkeypatch):
        monkeypatch.setattr(superfunctions, "_TABLE_CACHE", {})
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = ["table", "--n", "3", "--q", "2", "--cache-dir", str(blocker / "x")]
        code, out, err = invoke(argv)
        assert code == EXIT_INVALID and not out
        assert err.startswith("nchopf: ") and "Traceback" not in err


class TestCliWorkBounds:
    BIG = canonical_dumps(element_to_json(kappa_element(2, LabeledSetPartition(30, [(1, 30, 1)]))))

    @pytest.mark.parametrize(
        "argv",
        [["comul"], ["antipode"], ["convert", "--from", "kappa", "--to", "chi"]],
    )
    def test_element_over_the_grade_bound_exits_two_at_once(self, argv):
        start = time.perf_counter()
        code, out, err = invoke(argv, self.BIG)
        assert time.perf_counter() - start < 1
        assert code == EXIT_BOUND and not out
        assert err.startswith("nchopf: ") and "Traceback" not in err

    def test_mul_bounds_the_sum_of_the_grades(self):
        def element(n):
            return element_to_json(kappa_element(2, LabeledSetPartition(n)))

        half = DEFAULT_TABLE_BOUND // 2 + 1
        payload = canonical_dumps({"left": element(half), "right": element(half)})
        code, out, err = invoke(["mul"], payload)
        assert code == EXIT_BOUND and not out and "Traceback" not in err
        payload = canonical_dumps({"left": element(1), "right": element(2)})
        assert invoke(["mul"], payload)[0] == EXIT_OK

    def test_pair_over_the_grade_bound_exits_two(self):
        payload = canonical_dumps({"left": json.loads(self.BIG), "right": json.loads(self.BIG)})
        code, out, err = invoke(["pair", "--mode", "inner"], payload)
        assert code == EXIT_BOUND and not out and "Traceback" not in err

    def test_hopf_suite_runs_up_to_its_work_bound(self, monkeypatch):
        argv = ["verify", "--suite", "hopf", "--n", "2", "--q", "2"]
        monkeypatch.setattr(cli, "HOPF_WORK_BOUND", hopf_work(2, 2))
        assert invoke(argv)[0] == EXIT_OK
        monkeypatch.setattr(cli, "HOPF_WORK_BOUND", hopf_work(2, 2) - 1)
        code, out, err = invoke(argv)
        assert code == EXIT_BOUND and not out and "Traceback" not in err

    @pytest.mark.parametrize("n, q", [(DEFAULT_TABLE_BOUND, 2), (5, 3), (4, 5), (2, 23)])
    def test_hopf_suite_over_the_work_bound_exits_two_at_once(self, n, q):
        assert hopf_work(n, q) > HOPF_WORK_BOUND
        start = time.perf_counter()
        code, out, err = invoke(["verify", "--suite", "hopf", "--n", str(n), "--q", str(q)])
        assert time.perf_counter() - start < 1
        assert code == EXIT_BOUND and not out and "Traceback" not in err

    def test_table_runs_up_to_its_size_bound(self, monkeypatch):
        argv = ["table", "--n", "3", "--q", "3"]
        size = count_labeled_partitions(3, 3)
        monkeypatch.setattr(superfunctions, "_TABLE_CACHE", {})
        monkeypatch.setattr(superfunctions, "TABLE_SIZE_BOUND", size)
        assert invoke(argv)[0] == EXIT_OK
        # refused before the table is enumerated, computed or read from disk
        monkeypatch.setattr(superfunctions, "_TABLE_CACHE", {})
        monkeypatch.setattr(superfunctions, "TABLE_SIZE_BOUND", size - 1)
        code, out, err = invoke(argv)
        assert code == EXIT_BOUND and not out and "Traceback" not in err

    def test_table_size_bound_admits_the_largest_measured_solve(self):
        # (5, 3) was solved in 24.7 s; (4, 7) is the smallest refused table
        # that no other bound catches
        assert count_labeled_partitions(5, 3) == 257 <= TABLE_SIZE_BOUND
        assert count_labeled_partitions(4, 7) == 505 > TABLE_SIZE_BOUND

    @pytest.mark.parametrize("n, q", [(DEFAULT_TABLE_BOUND, 2), (7, 5), (4, 7)])
    def test_table_over_the_size_bound_exits_two_at_once(self, n, q):
        assert count_labeled_partitions(n, q) > TABLE_SIZE_BOUND
        start = time.perf_counter()
        code, out, err = invoke(["table", "--n", str(n), "--q", str(q)])
        assert time.perf_counter() - start < 1
        assert code == EXIT_BOUND and not out and "Traceback" not in err

    def test_convert_needing_an_oversized_table_exits_two_at_once(self):
        payload = canonical_dumps(element_to_json(kappa_element(5, lsp("5; 1-4-5"))))
        start = time.perf_counter()
        code, out, err = invoke(["convert", "--from", "kappa", "--to", "chi"], payload)
        assert time.perf_counter() - start < 1
        assert code == EXIT_BOUND and not out and "Traceback" not in err

    def test_hopf_work_counts_elements_pairs_and_samples(self):
        # q = 2: five bases with 1, 1, 2 indices in grades 0..2; pairs with
        # grades summing to at most 2: 1*1 + 1*1 + 1*2 + 1*1 + 1*1 + 2*1 = 8;
        # the random checks count as 100 elements of weight 1.
        assert hopf_work(2, 2) == 5 * (4 + 8 + 100)
        # q = 3 adds the k basis, whose grade-1 index counts as its 2
        # colored monomials and grade 2 as Bell(2) * 2^2 = 8 of them.
        k_sizes = [1, 2, 8]
        k_work = sum(k_sizes) + 1 * 11 + 2 * 3 + 8 * 1 + 100 * 11 // 5
        assert hopf_work(2, 3) == 2 * (5 + 1 * 5 + 1 * 2 + 3 * 1 + 100) + k_work

    @pytest.mark.parametrize("n, q", [(2, 4), (-1, 2)])
    def test_hopf_work_rejects_invalid_input(self, n, q):
        with pytest.raises(ValueError):
            hopf_work(n, q)
        code, out, err = invoke(["verify", "--suite", "hopf", "--n", str(n), "--q", str(q)])
        assert code == EXIT_INVALID and not out and "Traceback" not in err


class TestCliTable:
    def test_table_json_matches_oracle(self):
        code, formula_out, _ = invoke(["table", "--n", "3", "--q", "2"])
        assert code == EXIT_OK
        code, oracle_out, _ = invoke(["table", "--n", "3", "--q", "2", "--oracle"])
        assert code == EXIT_OK
        formula = json.loads(formula_out)
        direct = json.loads(oracle_out)
        assert formula["values"] == direct["values"]
        assert formula["class_sizes"] == direct["class_sizes"]

    def test_pretty_rendering(self):
        code, out, _ = invoke(["table", "--n", "2", "--q", "2", "--pretty"])
        assert code == EXIT_OK
        assert "class sizes:" in out


class TestCliElementOps:
    def test_mul_from_stdin(self):
        left = element_to_json(kappa_element(2, lsp("2; 1-1-2")))
        right = element_to_json(kappa_element(2, lsp("2; 1-1-2")))
        code, out, _ = invoke(
            ["mul", "--basis", "kappa", "--q", "2"],
            canonical_dumps({"left": left, "right": right}),
        )
        assert code == EXIT_OK
        result = element_from_json(json.loads(out))
        assert {idx.partition for idx in result.terms} == {
            lsp("4; 1-1-2, 3-1-4"),
            lsp("4; 1-1-2, 2-1-3, 3-1-4"),
        }

    def test_mul_rejects_wrong_basis(self):
        left = element_to_json(kappa_element(2, lsp("2; 1-1-2")))
        code, _, err = invoke(
            ["mul", "--basis", "m", "--q", "2"],
            canonical_dumps({"left": left, "right": left}),
        )
        assert code == EXIT_INVALID and "basis" in err

    def test_comul(self):
        payload = canonical_dumps(element_to_json(kappa_element(2, lsp("2; 1-1-2"))))
        code, out, _ = invoke(["comul"], payload)
        assert code == EXIT_OK
        tensor = tensor_from_json(json.loads(out))
        assert len(tensor.terms) == 2

    def test_antipode_fixes_unit(self):
        payload = canonical_dumps(element_to_json(AlgebraElement.unit(2, "kappa")))
        code, out, _ = invoke(["antipode"], payload)
        assert code == EXIT_OK
        assert element_from_json(json.loads(out)) == AlgebraElement.unit(2, "kappa")

    def test_convert_roundtrip(self):
        x = kappa_element(2, lsp("2; 1-1-2"))
        code, out, _ = invoke(
            ["convert", "--from", "kappa", "--to", "chi"],
            canonical_dumps(element_to_json(x)),
        )
        assert code == EXIT_OK
        code, back, _ = invoke(["convert", "--from", "chi", "--to", "kappa"], out)
        assert code == EXIT_OK
        assert element_from_json(json.loads(back)) == x

    def test_convert_unknown_pair(self):
        x = canonical_dumps(element_to_json(kappa_element(2, lsp("2; 1-1-2"))))
        code, _, err = invoke(["convert", "--from", "kappa", "--to", "U"], x)
        assert code == EXIT_INVALID and "conversion" in err

    def test_pair_duality(self):
        from nchopf.duals import kappa_star_element

        f = element_to_json(kappa_star_element(2, lsp("2; 1-1-2")))
        x = element_to_json(kappa_element(2, lsp("2; 1-1-2")))
        code, out, _ = invoke(["pair"], canonical_dumps({"left": f, "right": x}))
        assert code == EXIT_OK
        assert CycRational.from_json(json.loads(out)["value"]) == 1

    def test_pair_inner(self):
        x = element_to_json(kappa_element(2, lsp("2; 1-1-2")))
        code, out, _ = invoke(["pair"], canonical_dumps({"left": x, "right": x}))
        assert code == EXIT_OK
        value = CycRational.from_json(json.loads(out)["value"])
        assert str(value) == "1/2"

    @pytest.mark.parametrize("header", [{"q": 4, "basis": "kappa"}, {"q": 2, "basis": "foo"}])
    def test_empty_element_with_bad_header_exits_one(self, header):
        code, out, err = invoke(["antipode"], json.dumps({**header, "terms": []}))
        assert code == EXIT_INVALID and not out
        assert err.startswith("nchopf: ") and "Traceback" not in err
        with pytest.raises(ValueError):
            tensor_from_json({**header, "terms": []})

    def test_bad_json_exits_one(self):
        code, _, err = invoke(["comul"], "this is not json")
        assert code == EXIT_INVALID and "JSON" in err

    def test_output_roundtrips_byte_identically(self):
        payload = canonical_dumps(element_to_json(kappa_element(2, lsp("2; 1-1-2"))))
        code, out, _ = invoke(["antipode"], payload)
        assert code == EXIT_OK
        reparsed = canonical_dumps(element_to_json(element_from_json(json.loads(out))))
        assert out.strip() == reparsed


class TestCliVerify:
    def test_duality_suite_passes(self):
        code, out, _ = invoke(["verify", "--suite", "duality", "--n", "2", "--q", "2"])
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["passed"] is True

    def test_axioms_suite(self):
        code, out, _ = invoke(["verify", "--suite", "axioms", "--n", "3", "--q", "2"])
        assert code == EXIT_OK

    def test_deterministic_given_seed(self):
        args = ["verify", "--suite", "hopf", "--n", "2", "--q", "2", "--seed", "5"]
        _, first, _ = invoke(args)
        _, second, _ = invoke(args)
        assert first == second

    def test_unknown_suite_exits_one(self):
        code, _, _ = invoke(["verify", "--suite", "nope", "--n", "2", "--q", "2"])
        assert code == EXIT_INVALID
