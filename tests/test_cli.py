import io
import json
import os
import subprocess
import sys
import time
from datetime import timedelta
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nchopf import cli, limits, superfunctions, unitriangular
from nchopf.cli import EXIT_BOUND, EXIT_INVALID, EXIT_OK, run
from nchopf.cyclotomic import CycRational
from nchopf.duals import Permutation
from nchopf.elements import AlgebraElement, BasisIndex, TensorElement
from nchopf.limits import DEFAULT_TABLE_BOUND, PRIME_BOUND, BoundExceededError
from nchopf.ncsym import ColoredIndex, colored_element
from nchopf.serialize import (
    canonical_dumps,
    element_from_json,
    element_to_json,
    tensor_from_json,
    tensor_to_json,
)
from nchopf.setpartitions import (
    LabeledSetPartition,
    SetPartition,
    count_labeled_partitions,
    enumerate_labeled_partitions,
)
from nchopf.superfunctions import kappa_element, table_work
from nchopf.verify import axioms_work, duality_work, hopf_work, iso_work, oracle_work


#: The coefficient 1 at q = 3, as JSON.
ONE_AT_3 = {"p": 3, "coeffs": ["1", "0"]}


def lsp(text):
    return LabeledSetPartition.from_text(text)


def empty(n, q, basis="kappa"):
    """The basis element of the partition of [n] with no arcs."""
    return AlgebraElement(q, basis, {BasisIndex(basis, n, LabeledSetPartition(n)): 1})


def stdin_of(*elements):
    """An element command's input: one element, or the two factors of mul."""
    payloads = [element_to_json(x) for x in elements]
    if len(payloads) == 1:
        return canonical_dumps(payloads[0])
    return canonical_dumps({"left": payloads[0], "right": payloads[1]})


def seconds(entry, units):
    """What ``units`` of ``entry``'s work cost, exactly, in seconds."""
    return Fraction(units * limits.UNIT_COST_NS[entry], 10**9)


def admitted(entry, units):
    """Whether the work budget admits ``units`` of ``entry``'s work."""
    return seconds(entry, units) <= limits.WORK_BUDGET_S


def set_budget(monkeypatch, entry, units, below=False):
    """Set the work budget to the cost of ``units`` of ``entry``'s work, or
    one nanosecond below it."""
    cost_ns = units * limits.UNIT_COST_NS[entry] - (1 if below else 0)
    monkeypatch.setattr(limits, "WORK_BUDGET_S", Fraction(cost_ns, 10**9))


def invoke(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def invoke_subprocess(argv, stdin_text="", cwd=None, env=None):
    """``python -m nchopf.cli`` in a fresh interpreter on this checkout, in
    cwd, with env (default: this process's) as its environment."""
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "nchopf.cli", *argv],
        input=stdin_text, capture_output=True, text=True, timeout=60, cwd=cwd,
        env={**(os.environ if env is None else env), "PYTHONPATH": path},
    )


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
        "payload",
        [
            '{"q": 2, "basis": "kappa", "terms": [{"n": 1, "arcs": [], '
            '"coeff": {"p": 2, "coeffs": ["1/0"]}}]}',
            "[" * 100_000,
        ],
        ids=["zero-denominator", "deeply-nested"],
    )
    def test_malformed_element_json_exits_one(self, payload):
        code, out, err = invoke(["antipode"], payload)
        assert code == EXIT_INVALID and not out
        assert err.startswith("nchopf: ") and "Traceback" not in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "term, q",
        [
            ({"n": 1, "arcs": [], "coeff": {"p": 2.5, "coeffs": ["1"]}}, 2.5),
            ({"n": 2.5, "arcs": [], "coeff": {"p": 2, "coeffs": ["1"]}}, 2),
            ({"n": 2, "arcs": [[1, 2, 1.5]], "coeff": {"p": 3, "coeffs": ["1", "0"]}}, 3),
            ({"n": 2, "arcs": [[1, 2, True]], "coeff": {"p": 3, "coeffs": ["1", "0"]}}, 3),
            ({"n": 1, "arcs": [], "coeff": {"p": 3, "coeffs": [0.1, 0]}}, 3),
            ({"n": 1, "arcs": [], "coeff": {"p": 3.0, "coeffs": ["1", "0"]}}, 3),
        ],
        ids=["float-q", "float-n", "float-label", "bool-label", "float-coefficient", "float-p"],
    )
    def test_json_numbers_that_are_not_integers_exit_one(self, term, q):
        payload = json.dumps({"q": q, "basis": "kappa", "terms": [term]})
        code, out, err = invoke(["comul"], payload)
        assert code == EXIT_INVALID and not out
        assert err.startswith("nchopf: ") and "Traceback" not in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "basis, q, term",
        [
            ("M", 2, {"n": 2, "word": [2.0, 1]}),
            ("m_colored", 3, {"n": 1, "blocks": [[1.0]], "colors": [0], "r": 2}),
            ("m_colored", 3, {"n": 1, "blocks": [[1]], "colors": [0.5], "r": 2}),
            ("m_colored", 3, {"n": 1, "blocks": [[1]], "colors": [0], "r": 2.0}),
        ],
        ids=["permutation-entry", "block-member", "color", "color-group-order"],
    )
    def test_index_fields_that_are_not_integers_exit_one(self, basis, q, term):
        term["coeff"] = CycRational.one(q).to_json()
        element = {"q": q, "basis": basis, "terms": [term]}
        code, out, err = invoke(["mul"], json.dumps({"left": element, "right": element}))
        assert code == EXIT_INVALID and not out
        assert err.startswith("nchopf: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "basis, q, terms",
        [
            ("kappa", 2, [{"n": 1, "arcs": [], "coeff": {"p": 2, "coeffs": "12"}}]),
            ("kappa", 2, [{"n": 1, "arcs": [], "coeff": {"p": 2, "coeffs": {"1": 0, "2": 0}}}]),
            ("kappa", 2, ""),
            ("kappa", 2, {}),
            ("kappa", 2, [{"n": 0, "arcs": "", "coeff": {"p": 2, "coeffs": ["1"]}}]),
            ("M", 2, [{"n": 0, "word": "", "coeff": {"p": 2, "coeffs": ["1"]}}]),
            ("M", 2, [{"n": 7, "word": [1], "coeff": {"p": 2, "coeffs": ["1"]}}]),
            ("m_colored", 3, [{"n": 7, "blocks": [[1]], "colors": [1], "r": 2, "coeff": ONE_AT_3}]),
        ],
        ids=[
            "coeffs-string",
            "coeffs-object",
            "terms-string",
            "terms-object",
            "arcs-string",
            "word-string",
            "permutation-of-another-size",
            "colored-index-of-another-size",
        ],
    )
    def test_json_fields_of_the_wrong_shape_exit_one(self, basis, q, terms):
        # strings and objects were iterated as arrays, and a payload's n
        # was ignored, so each of these read as some other element
        done = invoke_subprocess(["antipode"], json.dumps({"q": q, "basis": basis, "terms": terms}))
        assert done.returncode == EXIT_INVALID and not done.stdout
        assert done.stderr.startswith("nchopf: ") and "Traceback" not in done.stderr
        assert len(done.stderr.splitlines()) == 1

    def test_an_empty_term_array_is_the_zero_element(self):
        done = invoke_subprocess(["antipode"], '{"q": 2, "basis": "kappa", "terms": []}')
        assert done.returncode == EXIT_OK and not done.stderr
        assert json.loads(done.stdout) == {"q": 2, "basis": "kappa", "terms": []}

    def test_a_colored_payload_without_n_is_read(self):
        term = {"blocks": [[1]], "colors": [1], "r": 2, "coeff": ONE_AT_3}
        payload = json.dumps({"q": 3, "basis": "m_colored", "terms": [term]})
        code, out, _ = invoke(["antipode"], payload)
        assert code == EXIT_OK and json.loads(out)["terms"][0]["n"] == 1

    def test_integer_coefficient_entries_are_read_exactly(self):
        term = {"n": 1, "arcs": [], "coeff": {"p": 3, "coeffs": [2, 0]}}
        code, out, _ = invoke(["antipode"], json.dumps({"q": 3, "basis": "kappa", "terms": [term]}))
        assert code == EXIT_OK
        assert json.loads(out)["terms"][0]["coeff"] == {"p": 3, "coeffs": ["-2", "0"]}

    def test_an_overflowing_q_exits_one_without_a_traceback(self):
        # 1e400 parses as an infinite float, which int() cannot convert
        payload = '{"q": 1e400, "basis": "kappa", "terms": []}'
        done = invoke_subprocess(["comul"], payload)
        assert done.returncode == EXIT_INVALID and not done.stdout
        assert "Traceback" not in done.stderr and len(done.stderr.splitlines()) == 1

    @pytest.mark.parametrize("exponent", ["1e100000000", "1e-100000000"])
    def test_a_huge_decimal_exponent_exits_one_at_once(self, exponent):
        # Fraction would build 10^e in full before anything else could fail
        term = {"n": 1, "arcs": [], "coeff": {"p": 2, "coeffs": [exponent]}}
        payload = json.dumps({"q": 2, "basis": "kappa", "terms": [term]})
        start = time.perf_counter()
        done = invoke_subprocess(["antipode"], payload)
        assert time.perf_counter() - start < 5
        assert done.returncode == EXIT_INVALID and not done.stdout
        assert "Traceback" not in done.stderr and len(done.stderr.splitlines()) == 1
        start = time.perf_counter()
        code, out, err = invoke(["antipode"], payload)
        assert time.perf_counter() - start < 1
        assert code == EXIT_INVALID and not out and "decimal exponent" in err
        term["coeff"]["coeffs"] = ["1e3"]
        code, out, _ = invoke(["antipode"], json.dumps({"q": 2, "basis": "kappa", "terms": [term]}))
        assert code == EXIT_OK and json.loads(out)["terms"][0]["coeff"]["coeffs"] == ["-1000"]

    @pytest.mark.parametrize("suite", ["iso", "duality"])
    def test_verify_at_negative_n_exits_one(self, suite):
        # these suites would otherwise run over no cases at all
        code, out, err = invoke(["verify", "--suite", suite, "--n", "-1", "--q", "2"])
        assert code == EXIT_INVALID and not out and "Traceback" not in err

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

    @pytest.mark.parametrize("suite", ["hopf", "iso", "duality", "axioms", "oracle"])
    def test_verify_over_the_grade_bound_exits_two(self, suite):
        argv = ["verify", "--suite", suite, "--n", str(DEFAULT_TABLE_BOUND + 1), "--q", "2"]
        code, out, err = invoke(argv)
        assert code == EXIT_BOUND and not out and err

    def test_deeply_nested_cache_entry_is_recomputed_by_the_cli(self, tmp_path):
        # json.loads raises RecursionError, not ValueError, on this entry
        argv = ["table", "--n", "2", "--q", "2", "--cache-dir"]
        clean = invoke_subprocess([*argv, str(tmp_path / "clean")])
        assert clean.returncode == 0 and clean.stdout
        path = superfunctions._table_path(2, 2, tmp_path)
        path.write_text("[" * 100_000 + "]" * 100_000)
        done = invoke_subprocess([*argv, str(tmp_path)])
        assert done.returncode == 0 and "Traceback" not in done.stderr
        assert done.stdout == clean.stdout
        assert path.read_text() == (tmp_path / "clean" / path.name).read_text()

    def test_unusable_cache_dir_exits_one(self, tmp_path, monkeypatch):
        monkeypatch.setattr(superfunctions, "_TABLE_CACHE", {})
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = ["table", "--n", "3", "--q", "2", "--cache-dir", str(blocker / "x")]
        code, out, err = invoke(argv)
        assert code == EXIT_INVALID and not out
        assert err.startswith("nchopf: ") and "Traceback" not in err

    def test_empty_cache_dir_reads_as_unset(self, tmp_path):
        # --cache-dir "" falls back to NCHOPF_CACHE_DIR, as an empty
        # NCHOPF_CACHE_DIR falls back to the default; neither is the cwd
        work, cache = tmp_path / "work", tmp_path / "cache"
        work.mkdir()
        env = {**os.environ, "NCHOPF_CACHE_DIR": str(cache)}
        done = invoke_subprocess(["table", "--n", "2", "--q", "2", "--cache-dir", ""], cwd=work, env=env)
        assert done.returncode == 0 and done.stdout
        assert not list(work.iterdir())
        assert superfunctions._table_path(2, 2, cache).is_file()

    @pytest.mark.parametrize("nchopf_cache_dir", [None, ""])
    def test_relative_xdg_cache_home_is_ignored(self, tmp_path, nchopf_cache_dir):
        work, home = tmp_path / "work", tmp_path / "home"
        work.mkdir()
        env = {k: v for k, v in os.environ.items() if k != "NCHOPF_CACHE_DIR"}
        env.update(HOME=str(home), XDG_CACHE_HOME="relcache")
        if nchopf_cache_dir is not None:
            env["NCHOPF_CACHE_DIR"] = nchopf_cache_dir
        done = invoke_subprocess(["table", "--n", "2", "--q", "2"], cwd=work, env=env)
        assert done.returncode == 0 and done.stdout
        assert not list(work.iterdir())
        assert superfunctions._table_path(2, 2, home / ".cache" / "nchopf").is_file()

    def test_absolute_xdg_cache_home_is_used(self, tmp_path):
        work, xdg = tmp_path / "work", tmp_path / "xdg"
        work.mkdir()
        env = {k: v for k, v in os.environ.items() if k != "NCHOPF_CACHE_DIR"}
        env.update(HOME=str(tmp_path / "home"), XDG_CACHE_HOME=str(xdg))
        done = invoke_subprocess(["table", "--n", "2", "--q", "2"], cwd=work, env=env)
        assert done.returncode == 0 and done.stdout
        assert not list(work.iterdir())
        assert superfunctions._table_path(2, 2, xdg / "nchopf").is_file()


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
        set_budget(monkeypatch, "hopf", hopf_work(2, 2))
        assert invoke(argv)[0] == EXIT_OK
        set_budget(monkeypatch, "hopf", hopf_work(2, 2), below=True)
        code, out, err = invoke(argv)
        assert code == EXIT_BOUND and not out and "Traceback" not in err

    @pytest.mark.parametrize(
        "n, q", [(6, 2), (5, 3), (4, 5), (4, 7), (3, 23), (2, 23), (2, 373), (1, 4441), (0, 4567)]
    )
    def test_hopf_work_bound_admits_the_measured_suites(self, n, q):
        # with k on kappa's maps, the suite ran as a subprocess in 12.0 s at
        # (5, 3), 6.3 s at (4, 5), 11.4 s at (4, 7), 9.2 s at (3, 23), 1.2 s
        # at (2, 23), 31.9 s at (2, 373), 10.1 s at (1, 4441) and 4.7 s at
        # (0, 4567); (6, 2) took 34 s before
        assert admitted("hopf", hopf_work(n, q))

    def test_hopf_work_bound_refuses_the_measured_slow_suites(self):
        # in process, (2, 739) took 98 s and (1, 10007) 20 s unweighted;
        # (0, 100003) had not finished after 60 s
        for n, q in ((2, 739), (1, 10007), (0, 100003)):
            assert not admitted("hopf", hopf_work(n, q))

    @pytest.mark.parametrize(
        "n, q", [(DEFAULT_TABLE_BOUND, 2), (6, 3), (5, 5), (4, 11), (3, 29), (2, 379), (0, 100003)]
    )
    def test_hopf_suite_over_the_work_bound_exits_two_at_once(self, n, q):
        assert not admitted("hopf", hopf_work(n, q))
        start = time.perf_counter()
        code, out, err = invoke(["verify", "--suite", "hopf", "--n", str(n), "--q", str(q)])
        assert time.perf_counter() - start < 1
        assert code == EXIT_BOUND and not out and "Traceback" not in err

    def test_oracle_work_counts_characters_times_group_elements(self):
        assert axioms_work(3, 2) == 5 * 2**3
        assert axioms_work(5, 2) == oracle_work(5, 2) == 53_248 and admitted("oracle", 53_248)
        assert axioms_work(4, 3) == oracle_work(4, 3) == 35_721 and axioms_work(3, 5) == 3_625
        assert oracle_work(4, 5) == 3_140_625 and not admitted("oracle", 3_140_625)
        # plus the 125^3 SInd sandwiches at (3, 5), 200 to a unit: 13.4 s
        # estimated against the 8.7-10.9 s it took
        assert oracle_work(3, 5) == 3_625 + 125**3 // 200 and admitted("oracle", 13_390)
        for estimate in (axioms_work, oracle_work):
            for n, q in [(2, 4), (-1, 2)]:
                with pytest.raises(ValueError):
                    estimate(n, q)

    @pytest.mark.parametrize("suite", ["axioms", "oracle"])
    def test_oracle_suites_run_up_to_their_work_bound(self, suite, monkeypatch):
        argv = ["verify", "--suite", suite, "--n", "3", "--q", "2"]
        estimate = {"axioms": axioms_work, "oracle": oracle_work}[suite]
        set_budget(monkeypatch, "oracle", estimate(3, 2))
        assert invoke(argv)[0] == EXIT_OK
        set_budget(monkeypatch, "oracle", estimate(3, 2), below=True)
        code, out, err = invoke(argv)
        assert code == EXIT_BOUND and not out and "Traceback" not in err

    @pytest.mark.parametrize("suite", ["axioms", "oracle"])
    @pytest.mark.parametrize("n, q", [(6, 2), (4, 5), (5, 3), (7, 10**18 + 3)])
    def test_oracle_suites_over_the_work_bound_exit_two_at_once(self, suite, n, q):
        start = time.perf_counter()
        code, out, err = invoke(["verify", "--suite", suite, "--n", str(n), "--q", str(q)])
        assert time.perf_counter() - start < 1
        assert code == EXIT_BOUND and not out and "Traceback" not in err

    def test_oracle_suite_needing_an_oversized_table_exits_two_at_once(self, monkeypatch):
        # (2, 101) checks only 10,201 values, but its formula table is refused
        assert admitted("oracle", oracle_work(2, 101))
        assert not admitted("table", table_work(2, 101))
        start = time.perf_counter()
        code, out, err = invoke(["verify", "--suite", "oracle", "--n", "2", "--q", "101"])
        assert time.perf_counter() - start < 1
        assert code == EXIT_BOUND and not out and "Traceback" not in err
        assert "table" in err
        # the table's cost is read when the command runs
        argv = ["verify", "--suite", "oracle", "--n", "2", "--q", "3"]
        over = limits.WORK_BUDGET_S * 10**9 // table_work(2, 3) + 1
        monkeypatch.setitem(limits.UNIT_COST_NS, "table", over)
        code, out, err = invoke(argv)
        assert code == EXIT_BOUND and not out and "table" in err

    @pytest.mark.parametrize("command", ["enumerate", "table"])
    def test_a_huge_prime_exits_two_at_once(self, command):
        # 10^18 + 3 is prime: the prime test takes well under a second and the
        # size bounds then refuse it; a composite of the same size is invalid
        for q, exit_code in (
            (10**18 + 3, EXIT_BOUND),
            (PRIME_BOUND, EXIT_BOUND),
            (1000000007 * 1000000009, EXIT_INVALID),
        ):
            start = time.perf_counter()
            code, out, err = invoke([command, "--n", "2", "--q", str(q)])
            assert time.perf_counter() - start < 1
            assert code == exit_code and not out and "Traceback" not in err

    def test_enumerate_runs_up_to_its_size_bound(self, monkeypatch):
        argv = ["enumerate", "--n", "3", "--q", "3"]
        set_budget(monkeypatch, "enumerate", count_labeled_partitions(3, 3))
        assert invoke(argv)[0] == EXIT_OK
        set_budget(monkeypatch, "enumerate", count_labeled_partitions(3, 3), below=True)
        code, out, err = invoke(argv)
        assert code == EXIT_BOUND and not out and "Traceback" not in err

    def test_enumerate_size_bound_admits_the_largest_measured_listing(self):
        assert count_labeled_partitions(7, 5) == 170_389 and admitted("enumerate", 170_389)

    def test_enumerate_over_the_size_bound_exits_two_at_once(self):
        start = time.perf_counter()
        code, out, err = invoke(["enumerate", "--n", "5", "--q", "101"])
        assert time.perf_counter() - start < 1
        assert code == EXIT_BOUND and not out and "Traceback" not in err
        # the prime is checked first: a non-prime q is invalid input
        assert invoke(["enumerate", "--n", "5", "--q", "100"])[0] == EXIT_INVALID

    def test_table_runs_up_to_its_size_bound(self, monkeypatch):
        work = table_work(3, 3)
        for oracle in ([], ["--oracle"]):
            argv = ["table", *oracle, "--n", "3", "--q", "3"]
            monkeypatch.setattr(superfunctions, "_TABLE_CACHE", {})
            set_budget(monkeypatch, "table", work)
            assert invoke(argv)[0] == EXIT_OK
            # refused before the table is enumerated, computed or read from disk
            monkeypatch.setattr(superfunctions, "_TABLE_CACHE", {})
            set_budget(monkeypatch, "table", work, below=True)
            code, out, err = invoke(argv)
            assert code == EXIT_BOUND and not out and "Traceback" not in err

    def test_table_work_weighs_the_cube_of_the_size_by_the_squared_degree(self):
        assert table_work(3, 3) == count_labeled_partitions(3, 3) ** 3 * 4
        assert table_work(2, 101) == 101**3 * 100**2
        assert table_work(0, 2) == table_work(1, 2) == 1

    def test_table_size_bound_admits_the_largest_measured_solve(self):
        # the largest measured solves, 2.9-3.6 s at (6, 2), 7.4-10.6 s at
        # (5, 3) and 7.3-8.0 s at (4, 5), are admitted; (3, 11) took 7.9 s,
        # (3, 13) 23-25 s, and (2, 101) had not finished after 60 s
        for n, q in ((6, 2), (5, 3), (4, 5), (3, 7)):
            assert admitted("table", table_work(n, q))
        for n, q in ((3, 11), (3, 13), (2, 47), (2, 101), (4, 7), (7, 2)):
            assert not admitted("table", table_work(n, q))

    @pytest.mark.parametrize(
        "n, q",
        [(DEFAULT_TABLE_BOUND, 2), (7, 5), (4, 7), (2, 101), (3, 13), (2, 1000000000000000003)],
    )
    def test_table_over_the_size_bound_exits_two_at_once(self, n, q):
        assert not admitted("table", table_work(n, q))
        for oracle in ([], ["--oracle"]):
            start = time.perf_counter()
            code, out, err = invoke(["table", *oracle, "--n", str(n), "--q", str(q)])
            assert time.perf_counter() - start < 1
            assert code == EXIT_BOUND and not out and "Traceback" not in err

    @pytest.mark.parametrize("n", [DEFAULT_TABLE_BOUND + 1, 1000, 100000])
    def test_table_over_the_grade_bound_exits_two_with_one_message(self, n):
        # the grade is checked before the group, its positions or the
        # index count are built, for the oracle's table as for the formula's
        errors = []
        for oracle in ([], ["--oracle"]):
            start = time.perf_counter()
            code, out, err = invoke(["table", *oracle, "--n", str(n), "--q", "2"])
            assert time.perf_counter() - start < 0.5
            assert code == EXIT_BOUND and not out
            errors.append(err)
        assert errors[0] == errors[1]
        assert f"table for n={n} exceeds the configured bound {DEFAULT_TABLE_BOUND}" in errors[0]

    @pytest.mark.parametrize(
        "argv", [["convert", "--from", "kappa", "--to", "chi"], ["pair", "--mode", "inner"]]
    )
    def test_table_commands_run_up_to_the_table_budget(self, argv, monkeypatch):
        x = empty(3, 3)
        payload = stdin_of(x) if argv[0] == "convert" else stdin_of(x, x)
        for below, exit_code in ((False, EXIT_OK), (True, EXIT_BOUND)):
            monkeypatch.setattr(superfunctions, "_TABLE_CACHE", {})
            set_budget(monkeypatch, "table", table_work(3, 3), below)
            code, out, err = invoke(argv, payload)
            assert code == exit_code and bool(out) != below and "Traceback" not in err

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
        # q = 3: kappa, k and kappa_star with 1, 1, 3 indices in grades
        # 0..2; k carries kappa's maps, so it weighs what kappa does.
        assert hopf_work(2, 3) == 3 * (5 + 1 * 5 + 1 * 2 + 3 * 1 + 100)
        # past degree 200 a unit weighs (q - 1) / 200: the scalars dominate
        assert hopf_work(1, 3) == hopf_work(1, 199) == 3 * (2 + 3 + 100)
        assert hopf_work(1, 401) == 2 * hopf_work(1, 3)

    def test_element_work_counts_the_indices_each_term_reaches(self):
        work = cli.element_work
        # an antipode of kappa, chi or chi_star reaches every labeled set
        # partition of the grade
        assert work("antipode", empty(7, 3)) == count_labeled_partitions(7, 3) == 10_299
        assert work("antipode", empty(3, 5, "chi") + empty(2, 5, "chi") * 2) == 29 + 5
        # kappa_star and the set-partition bases never choose a label
        assert work("antipode", empty(7, 101, "kappa_star")) == 877
        assert work("antipode", empty(4, 101, "V")) == 15
        # a k index carries kappa's maps, so it reaches what kappa's does
        assert work("antipode", empty(3, 11, "k_colored")) == work("antipode", empty(3, 11)) == 131
        assert work("comul", empty(3, 11, "k_colored")) == 8
        assert work("mul", empty(3, 11, "k_colored"), empty(4, 11, "k_colored")) == 27_721
        # a colored monomial's maps permute its colors
        colored = colored_element(101, ColoredIndex(SetPartition.from_text("1|2|3"), (0, 1, 2), 100))
        assert work("antipode", colored) == 5 * 6
        # any other coproduct splits over the subsets of the points
        assert work("comul", empty(4, 101)) == work("comul", colored) * 2 == 16
        # a kappa product adds the connecting arcs, sum_s C(3,s) P(4,s) (q-1)^s
        assert work("mul", empty(3, 11), empty(4, 11)) == 27_721
        assert work("mul", empty(3, 101), empty(4, 101)) == 24_361_201
        # other products reach the grade of the product, per pair of terms
        assert work("mul", empty(1, 3, "chi"), empty(2, 3, "chi") * 2) == 11
        two = empty(1, 3, "kappa_star") + empty(2, 3, "kappa_star")
        assert work("mul", two, two) == 2 + 2 * 5 + 15
        assert work("mul", colored, colored) == count_labeled_partitions(6, 2) == 203
        assert work("antipode", AlgebraElement.zero(3, "kappa")) == 0

    def test_element_work_bound_admits_the_largest_measured_antipodes(self):
        # the antipode of the empty partition took 1.5 s at (7, 3), 1.5 s at
        # (6, 5) and 14.9 s at (7, 5); each refused one ran for over 20 s
        for n, q in ((7, 3), (6, 5), (7, 5)):
            assert admitted("antipode", cli.element_work("antipode", empty(n, q)))
        for n, q in ((7, 7), (6, 11), (5, 31), (4, 101)):
            assert not admitted("antipode", cli.element_work("antipode", empty(n, q)))

    @pytest.mark.parametrize(
        "command, elements",
        [
            ("antipode", [empty(3, 3)]),
            ("comul", [empty(2, 3, "k_colored")]),
            ("mul", [empty(1, 3), empty(2, 3)]),
        ],
    )
    def test_element_commands_run_up_to_their_work_bound(self, command, elements, monkeypatch):
        payload = stdin_of(*elements)
        work = cli.element_work(command, *elements)
        set_budget(monkeypatch, command, work)
        assert invoke([command], payload)[0] == EXIT_OK
        set_budget(monkeypatch, command, work, below=True)
        code, out, err = invoke([command], payload)
        assert code == EXIT_BOUND and not out and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, elements",
        [
            (["comul"], [empty(7, 101)]),
            (["convert", "--from", "kappa_star", "--to", "chi_star"], [empty(1, 101, "kappa_star")]),
            (["pair"], [empty(7, 101, "kappa_star"), empty(7, 101)]),
            (["comul"], [empty(4, 101, "k_colored")]),
        ],
    )
    def test_commands_whose_work_does_not_grow_with_q_are_admitted(self, argv, elements):
        # a kappa or k coproduct splits over subsets, a grade-1 table is one entry
        # and the duality pairing reads one coefficient per term
        start = time.perf_counter()
        assert invoke(argv, stdin_of(*elements))[0] == EXIT_OK
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize(
        "argv, elements",
        [(["antipode"], [empty(n, q)]) for n, q in ((7, 7), (6, 11), (5, 31), (4, 101))]
        + [
            (["mul"], [empty(3, 101), empty(4, 101)]),
            (["antipode"], [empty(4, 101, "k_colored")]),
            (["mul"], [empty(3, 101, "k_colored"), empty(4, 101, "k_colored")]),
            (
                ["antipode"],
                [
                    colored_element(
                        101,
                        ColoredIndex(SetPartition.from_text("1|2|3|4|5|6|7"), tuple(range(7)), 100),
                    )
                ],
            ),
        ],
    )
    def test_element_commands_over_the_work_bound_exit_two_at_once(self, argv, elements):
        # each of these ran for over 20 s before the bound
        payload = stdin_of(*elements)
        start = time.perf_counter()
        code, out, err = invoke(argv, payload)
        assert time.perf_counter() - start < 1
        assert code == EXIT_BOUND and not out and "Traceback" not in err
        assert "basis indices" in err

    def test_element_work_weighs_each_unit_by_the_scalar_degree(self):
        # up to q = 101 a unit weighs 1, past it (q - 1) / 100
        assert limits.UNIT_DEGREE["antipode"] == limits.UNIT_DEGREE["mul"] == 100
        assert limits.UNIT_DEGREE["comul"] == 100
        assert cli.element_work("antipode", empty(3, 101)) == count_labeled_partitions(3, 101)
        assert cli.element_work("antipode", empty(3, 443)) == 196_691 * 442 // 100 == 869_374
        k = [empty(2, 181, "k_colored"), empty(3, 181, "k_colored")]
        assert cli.element_work("mul", *k) == 195_481 * 180 // 100 == 351_865
        # comul has its own row: 10 us per unit, so 12.9 ms here
        work = cli.element_work("comul", empty(7, 1009))
        assert work == 2**7 * 1008 // 100 == 1290
        assert seconds("comul", work) == Fraction(129, 10**4)
        # admitted: 16-18 s at (4, 53), 5.8-7.2 s at (3, 181), 1.1-1.2 s at (2, 1009)
        for n, q in ((4, 53), (3, 181), (2, 1009)):
            assert admitted("antipode", cli.element_work("antipode", empty(n, q)))

    @pytest.mark.parametrize(
        "argv, elements",
        [
            (["antipode"], [empty(3, 443)]),
            (["antipode"], [empty(3, 443, "k_colored")]),
            (["mul"], [empty(2, 181, "k_colored"), empty(3, 181, "k_colored")]),
        ],
        ids=["kappa-antipode-443", "k-antipode-443", "k-mul-181"],
    )
    def test_degree_weight_refuses_the_slow_large_q_commands(self, argv, elements):
        # admitted without the weight, these ran for 76 s, 82 s and 36 s
        start = time.perf_counter()
        code, out, err = invoke(argv, stdin_of(*elements))
        assert time.perf_counter() - start < 1
        assert code == EXIT_BOUND and not out and "Traceback" not in err
        assert "degree-weighted basis indices" in err

    def test_comul_row_admits_the_measured_large_q_coproduct(self):
        # comul of kappa's empty partition of grade 7 took 1.6-2.0 s at
        # q = 156,253 (200,002 units), which the antipode's cost refused
        x = empty(7, 156_253)
        assert cli.element_work("comul", x) == 200_002
        assert admitted("comul", 200_002) and not admitted("antipode", 200_002)
        cli._check_elements("comul", x)
        # a far larger q is still refused: 12,800,023 units, 128 s
        with pytest.raises(BoundExceededError, match="degree-weighted basis indices"):
            cli._check_elements("comul", empty(7, 10_000_019))

    @pytest.mark.parametrize(
        "q, text, cuts",
        [(5, "5;", 6), (5, "5; 1-2-2, 3-4-5", 3), (2, "7; 1-1-3, 4-1-5", 5)],
    )
    def test_chi_star_comul_builds_no_table(self, q, text, cuts):
        # through kappa_star these needed the tables at (5, 5) and (7, 2),
        # refused by the table bound; deconcatenation keeps the cuts that
        # no arc spans
        x = AlgebraElement(q, "chi_star", {BasisIndex("chi_star", lsp(text).n, lsp(text)): 1})
        start = time.perf_counter()
        done = invoke_subprocess(["comul"], stdin_of(x))
        assert time.perf_counter() - start < 1
        assert done.returncode == EXIT_OK, done.stderr
        assert len(tensor_from_json(json.loads(done.stdout)).terms) == cuts

    @pytest.mark.parametrize("suite, estimate", [("iso", iso_work), ("duality", duality_work)])
    def test_suites_run_up_to_their_work_bound(self, suite, estimate, monkeypatch):
        argv = ["verify", "--suite", suite, "--n", "2", "--q", "3"]
        set_budget(monkeypatch, suite, estimate(2, 3))
        assert invoke(argv)[0] == EXIT_OK
        set_budget(monkeypatch, suite, estimate(2, 3), below=True)
        code, out, err = invoke(argv)
        assert code == EXIT_BOUND and not out and "Traceback" not in err

    def test_iso_and_duality_work(self):
        # q = 2: kappa has 1, 1, 2 indices in grades 0..2, as has m; the pairs
        # with grades summing to at most 2 are 1 + 1 + 2 + 1 + 1 + 2 = 8
        assert iso_work(2, 2) == 4 + 50 * 8 + 8
        # q = 3: the image side counts Bell(g) 2^g = 1, 2, 8 colored monomials
        assert iso_work(2, 3) == 11 + 50 * (1 + 1 + 3 + 1 + 1 + 3) + (1 + 2 + 8 + 2 + 4 + 8)
        # each pair of grades (a, b) pairs with the indices of grade a + b:
        # (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)
        assert duality_work(2, 2) == 2 * (1 + 1 + 1 * 2 * 2 + 1 + 1 * 1 * 2 + 2 * 1 * 2)
        # the admitted suites took 5-8 s; the refused (4, 7) took 23-27 s
        for n, q in ((6, 2), (5, 3), (4, 5), (3, 13)):
            assert admitted("iso", iso_work(n, q))
            assert admitted("duality", duality_work(n, q))
        for n, q in ((4, 7), (7, 2), (6, 3), (7, 3), (5, 5)):
            assert not admitted("iso", iso_work(n, q))
            assert not admitted("duality", duality_work(n, q))
        for n, q in [(2, 4), (-1, 2)]:
            for estimate in (iso_work, duality_work):
                with pytest.raises(ValueError):
                    estimate(n, q)

    @pytest.mark.parametrize(
        "suite, n, q",
        [(suite, n, q) for suite in ("iso", "duality") for n, q in ((7, 3), (7, 2), (4, 7))]
        + [("iso", 2, 199), ("duality", 3, 31)],
    )
    def test_suites_over_the_work_bound_exit_two_at_once(self, suite, n, q):
        start = time.perf_counter()
        code, out, err = invoke(["verify", "--suite", suite, "--n", str(n), "--q", str(q)])
        assert time.perf_counter() - start < 1
        assert code == EXIT_BOUND and not out and "Traceback" not in err

    @pytest.mark.parametrize(
        "size",
        [hopf_work, iso_work, duality_work, axioms_work, oracle_work, table_work,
         superfunctions.check_table_size, superfunctions.supercharacter_table,
         unitriangular.UTGroup, count_labeled_partitions, enumerate_labeled_partitions],
    )
    def test_every_size_check_refuses_a_bad_q_and_then_a_negative_n(self, size):
        # one ``setpartitions.check_size`` behind every site, q named first;
        # enumerate_labeled_partitions named n first
        with pytest.raises(ValueError, match="q must be a prime >= 2, got 4"):
            size(-1, 4)
        with pytest.raises(ValueError, match="n must be nonnegative, got -1"):
            size(-1, 3)

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

    @pytest.mark.parametrize("command", ["comul", "antipode"])
    def test_unsupported_basis_is_named_without_quotes(self, command):
        x = AlgebraElement(2, "M", {BasisIndex("M", 2, Permutation([2, 1])): 1})
        code, out, err = invoke([command], canonical_dumps(element_to_json(x)))
        assert code == EXIT_INVALID and not out
        assert err == "nchopf: invalid input: no coproduct rule registered for basis 'M'\n"

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



# Fuzzing the command line: each command is given its required options,
# and its input is most often a valid element and otherwise drawn near the
# valid ones, so that draws get past argument parsing and JSON decoding into
# the commands themselves.
_BASES = st.sampled_from(
    ["kappa", "chi", "kappa_star", "chi_star", "k_colored", "m", "p", "M", "U", "V", "x"]
)
_VALUES = st.fixed_dictionaries(
    {
        "--n": st.integers(-1, 4).map(str),
        "--q": st.sampled_from(["2", "3", "2", "3", "5", "7", "4", "0", "x"]),
        "--suite": st.sampled_from(["hopf", "iso", "oracle", "axioms", "duality", "x"]),
        "--from": _BASES,
        "--to": _BASES,
        "--mode": st.sampled_from(["auto", "dual", "inner", "x"]),
        "--basis": _BASES,
        "--seed": st.integers(-1, 2).map(str),
    }
)
_REQUIRED = {
    "enumerate": ["--n", "--q"],
    "table": ["--n", "--q"],
    "convert": ["--from", "--to"],
    "verify": ["--suite", "--n", "--q"],
}


@st.composite
def _invocation(draw):
    """A command line with its required options, and its standard input.
    Two times in three the input is a valid element (two of one basis for
    mul and pair), and convert then reads from its basis, to a target it has
    if there is one."""
    commands = ["enumerate", "table", "mul", "comul", "antipode", "convert", "pair", "verify", "x"]
    command = draw(st.sampled_from(commands))
    values = draw(_VALUES)
    if draw(st.integers(0, 2)):
        q = draw(st.sampled_from([2, 3, 5, 7]))
        basis = draw(st.sampled_from(_ELEMENT_BASES))
        data = draw(_valid_element(q, basis))
        if command in ("mul", "pair"):
            data = {"left": data, "right": draw(_valid_element(q, basis))}
        stdin_text = json.dumps(data)
        targets = sorted(target for source, target in cli.CONVERSIONS if source == basis)
        values["--from"] = basis
        if targets:
            values["--to"] = draw(st.sampled_from(targets))
    else:
        stdin_text = draw(_STDIN)
    flags = list(_REQUIRED.get(command, []))
    if not draw(st.integers(0, 7)):
        flags.append(draw(st.sampled_from(sorted(values))))
    argv = [command] + [token for flag in flags for token in (flag, values[flag])]
    if not draw(st.integers(0, 7)):
        argv.append(draw(st.sampled_from(["--json", "--oracle", "--pretty", "--x"])))
    return argv, stdin_text


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 7),
    st.floats(),
    st.sampled_from(["1", "-1/2", "1/0", "x", "", "kappa", "chi_star", "M", "m_colored"]),
)
_KEYS = st.sampled_from(
    ["q", "basis", "terms", "n", "arcs", "coeff", "p", "coeffs", "word", "blocks", "colors", "r"]
)
_JSONISH = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=12,
)


@st.composite
def _element(draw):
    q = draw(st.sampled_from([2, 3, 5, 7, 101, 4]))
    coefficient = st.sampled_from(["1", "-2", "1/2", "0"])
    # an arc from left to left + length, most often inside [n]
    arc = st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, q)).map(
        lambda t: [t[0], t[0] + t[1], t[2]]
    )
    terms = []
    for _ in range(draw(st.integers(0, 2))):
        coeffs = st.lists(coefficient, min_size=max(q - 1, 1), max_size=max(q - 1, 1))
        terms.append(
            {
                "n": draw(st.integers(-1, 8)),
                "arcs": draw(st.lists(arc, max_size=2)),
                "coeff": {"p": q, "coeffs": draw(coeffs | st.lists(_SCALARS, max_size=2))},
            }
        )
    return {"q": q, "basis": draw(_BASES), "terms": terms}


_STDIN = st.one_of(
    st.text(max_size=12),
    _JSONISH.map(json.dumps),
    _element().map(json.dumps),
    st.fixed_dictionaries({"left": _element(), "right": _element()}).map(json.dumps),
)


_ELEMENT_BASES = ["kappa", "chi", "kappa_star", "chi_star", "k_colored", "m", "p", "U", "V"]


@st.composite
def _valid_element(draw, q, basis):
    """One or two terms of grade at most 8: each term's arcs join the
    consecutive members of the blocks of a random set partition, with labels
    below q (1 for the set-partition bases)."""
    top = 1 if basis in ("m", "p", "U", "V") else q - 1
    terms = []
    for _ in range(draw(st.integers(1, 2))):
        n = draw(st.sampled_from(range(9)))
        blocks = []
        for point in range(1, n + 1):
            if blocks and draw(st.booleans()):
                draw(st.sampled_from(blocks)).append(point)
            else:
                blocks.append([point])
        arcs = [
            [left, right, draw(st.integers(1, top))]
            for block in blocks
            for left, right in zip(block, block[1:])
        ]
        coeffs = [str(draw(st.integers(-2, 2))) for _ in range(q - 1)]
        terms.append({"n": n, "arcs": arcs, "coeff": {"p": q, "coeffs": coeffs}})
    return {"q": q, "basis": basis, "terms": terms}


@st.composite
def _element_command(draw):
    """An element command and its valid input, at q up to 101."""
    q = draw(st.sampled_from([2, 3, 5, 7, 101]))
    basis = draw(st.sampled_from(_ELEMENT_BASES))
    command = draw(st.sampled_from(["mul", "comul", "antipode", "convert"]))
    element = draw(_valid_element(q, basis))
    if command == "mul":
        return ["mul"], {"left": element, "right": draw(_valid_element(q, basis))}
    if command == "convert":
        targets = sorted(target for source, target in cli.CONVERSIONS if source == basis)
        if targets:
            return ["convert", "--from", basis, "--to", draw(st.sampled_from(targets))], element
        command = "antipode"  # the k basis has no basis change
    return [command], element


#: The fuzz lowers the work budget to a quarter of a second, so that its
#: per-example deadline fails any path whose estimate is far off or missing.
_FUZZ_BUDGET_S = Fraction(1, 4)


class TestCliFuzz:
    @settings(max_examples=300, derandomize=True, deadline=timedelta(seconds=5), database=None)
    @given(invocation=_invocation())
    def test_every_command_exits_with_a_documented_code(self, invocation):
        argv, stdin_text = invocation
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(limits, "WORK_BUDGET_S", _FUZZ_BUDGET_S)
            code, _, err = invoke(argv, stdin_text)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err

    @settings(max_examples=150, derandomize=True, deadline=timedelta(seconds=5), database=None)
    @given(command=_element_command())
    def test_valid_elements_are_computed_or_refused_within_the_deadline(self, command):
        argv, payload = command
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(limits, "WORK_BUDGET_S", _FUZZ_BUDGET_S)
            code, _, err = invoke(argv, json.dumps(payload))
        # V and kappa_star are identified at q = 2 only
        assert code in (EXIT_OK, EXIT_BOUND) or (code == EXIT_INVALID and "q = 2" in err), err
        assert "Traceback" not in err
