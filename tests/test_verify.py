import ast
import hashlib
import importlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nchopf import cli, elements, unitriangular, verify
from nchopf.setpartitions import LabeledSetPartition
from nchopf.superfunctions import SupercharTable
from nchopf.unitriangular import ClassFunctionRaw
from nchopf.verify import CheckResult, suite_oracle


class TestOracleSuite:
    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("q", [2, 3])
    def test_adjointness_is_skipped_without_two_part_compositions(self, n, q):
        # SInd/Res and Inf/Def run over the two-part compositions of n; below
        # n = 2 there are none, so both checks are reported skipped, not passed
        report = suite_oracle(n, q)
        assert report.passed
        checks = {c.name: c for c in report.checks}
        for name in ("sind-res-adjointness", "inf-def-adjointness"):
            check = checks[name]
            assert check.skipped and not check.passed
            assert "two-part composition" in check.detail
            assert check.to_json()["skipped"] is True
        assert all(c.passed for c in report.checks if not c.skipped)

    def test_adjointness_runs_at_n2(self):
        report = suite_oracle(2, 2)
        checks = {c.name: c for c in report.checks}
        for name in ("sind-res-adjointness", "inf-def-adjointness"):
            assert checks[name].passed and not checks[name].skipped

    @pytest.mark.parametrize("lowered", [False, True])
    @pytest.mark.parametrize("n, q", [(1, 2), (2, 2), (3, 2), (3, 3)])
    def test_work_counts_the_sandwiches_exactly_where_sind_runs(self, n, q, lowered, monkeypatch):
        # Lowering the bound below |G|^3 makes the suite skip SInd/Res; the
        # estimate must then drop the term, and add it whenever the check runs.
        cube = q ** (3 * (n * (n - 1) // 2))
        if lowered:
            monkeypatch.setattr(verify, "SIND_ADJOINTNESS_BOUND", cube - 1)
        check = {c.name: c for c in suite_oracle(n, q).checks}["sind-res-adjointness"]
        term = 0 if check.skipped else cube // verify.SANDWICHES_PER_UNIT
        assert verify.oracle_work(n, q) == verify.axioms_work(n, q) + term
        assert check.skipped == (n < 2 or lowered)
        if (n, q) == (3, 3) and not lowered:
            assert term == 98


def test_run_suite_checks_the_work_bound_before_building_a_group(monkeypatch):
    # (6, 2) is over the oracle suite's work budget: refused at once, before
    # the group oracle or the formula table is asked for anything
    from nchopf import superfunctions, unitriangular
    from nchopf.limits import BoundExceededError

    def refuse(*args, **kwargs):
        raise AssertionError("run_suite built a group or a table")

    monkeypatch.setattr(unitriangular, "get_group", refuse)
    monkeypatch.setattr(verify, "supercharacter_table", refuse)
    monkeypatch.setattr(superfunctions, "_compute_table", refuse)
    with pytest.raises(BoundExceededError, match="the oracle suite at n=6, q=2"):
        verify.run_suite("oracle", 6, 2)


def _tracer_targets():
    """TARGETS of the benchmark tracer, read from its source without importing it."""
    source = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    for node in ast.parse(source.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {source}")


def test_every_tracer_target_resolves():
    # The tracer wraps each (module, attribute path) after importing
    # nchopf.cli, reading class attributes from the class's own namespace; a
    # renamed function must fail here rather than in a traced benchmark run.
    importlib.import_module("nchopf.cli")
    targets = _tracer_targets()
    assert targets
    for prefix, module_name, path, _kind in targets:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        found = attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)
        assert found, f"{prefix}: {module_name}.{path} does not resolve"


def test_importing_the_cli_loads_every_tracer_target_module():
    """Pins the benchmark tracer's import contract.

    ``Tracer.install`` imports ``nchopf.cli`` and then reads each target's
    module from ``sys.modules``, so a CLI that imported its modules per
    command would make every traced benchmark run fail with a ``KeyError``.
    The package namespace is lazy, so this import is what still loads every
    module; the test checks it in a fresh interpreter, since this one has
    imported them all.  It can go once the tracer reads an absent target as
    zero calls."""
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, nchopf.cli; print(' '.join(sorted(sys.modules)))"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    missing = {module for _, module, _, _ in _tracer_targets()} - loaded
    assert not missing, f"not loaded by import nchopf.cli: {sorted(missing)}"


class TestCheckRunner:
    def test_no_cases_fails(self):
        result = verify._check("empty", [], lambda case: True)
        assert not result.passed and not result.skipped
        assert result.detail == "no cases"

    def test_all_cases_holding_pass_without_detail(self):
        result = verify._check("small", range(3), lambda i: i < 3, lambda i: f"fails at {i}")
        assert result == CheckResult("small", True)

    def test_stops_at_the_first_failing_case_and_reports_its_witness(self):
        drawn = []

        def cases():
            for i in range(10):
                drawn.append(i)
                yield i

        result = verify._check("first", cases(), lambda i: i < 3, lambda i: f"fails at {i}")
        assert result == CheckResult("first", False, "fails at 3")
        assert drawn == [0, 1, 2, 3]

    def test_iso_stops_at_the_first_failing_multiplicative_pair(self, monkeypatch):
        # ch scaled by 2 is not multiplicative: ch(1 * 1) = 2 but ch(1) ch(1) = 4,
        # so the first pair fails.  Its check calls ch three times; the next
        # check starts with a coproduct, which marks where the first one ended.
        ch_calls = []
        ch_calls_at_first_coproduct = []
        coproduct = verify.coproduct

        def broken_ch(x):
            ch_calls.append(x)
            return x.scale(2)

        def marked_coproduct(x):
            if not ch_calls_at_first_coproduct:
                ch_calls_at_first_coproduct.append(len(ch_calls))
            return coproduct(x)

        monkeypatch.setattr(verify, "ch", broken_ch)
        monkeypatch.setattr(verify, "coproduct", marked_coproduct)
        report = verify.suite_iso(3, 2)
        assert report.checks[0].name == "ch:multiplicative" and not report.checks[0].passed
        assert ch_calls_at_first_coproduct == [3]

    @pytest.mark.parametrize(
        "rules, failing",
        [
            ("_PRODUCT_RULES", {"ch:multiplicative", "ch:antipode"}),
            ("_COPRODUCT_RULES", {"ch:comultiplicative", "ch:antipode"}),
        ],
    )
    def test_iso_sees_a_perturbed_colored_rule(self, rules, failing, monkeypatch):
        # m and k carry kappa's own coproduct rule, and k its product rule too,
        # so the iso suite compares against the colored route at every q; a
        # colored rule scaled by 2 must then fail the checks that go through it.
        registry = getattr(elements, rules)
        rule = registry["m_colored"]
        monkeypatch.setitem(registry, "m_colored", lambda q, *idx: rule(q, *idx).scale(2))
        monkeypatch.setattr(elements, "_ANTIPODE_CACHE", {})  # keep wrong antipodes out of it
        for q in (2, 3):
            report = verify.suite_iso(3, q)
            assert {c.name for c in report.failures} == failing, f"q = {q}"

    def test_hopf_random_checks_draw_only_up_to_the_first_failure(self, monkeypatch):
        # Every bialgebra pair fails, so each basis draws its 100 unary samples
        # and then one pair of random elements, and no more.
        draws = []
        random_element = verify.random_element

        def counted(*args, **kwargs):
            draws.append(args[2])
            return random_element(*args, **kwargs)

        monkeypatch.setattr(verify, "random_element", counted)
        monkeypatch.setattr(verify, "is_bialgebra_pair", lambda x, y: False)
        report = verify.suite_hopf(1, 2)
        bases = verify.hopf_bases(2)
        assert draws == [tag for tag in bases for _ in range(verify.HOPF_SAMPLES + 2)]
        failed = {c.name for c in report.failures}
        for tag in bases:
            assert {f"{tag}:bialgebra-compatibility:basis", f"{tag}:bialgebra:random"} <= failed


class TestOracleChecksCanFail:
    """At (3, 3), one changed value of a supercharacter or of the oracle's
    table fails the check that reads it."""

    @staticmethod
    def changed_at(f, k):
        values = list(f.values)
        values[k] = values[k] + 1
        return ClassFunctionRaw(f.ns, f.q, values)

    def test_a_character_that_varies_on_a_superclass(self, monkeypatch):
        group = unitriangular.get_group(3, 3)
        lam, mu = map(LabeledSetPartition.from_text, ("3; 2-1-3", "3; 1-2-2"))
        member = min(group.superclasses()[mu])
        assert len(group.superclasses()[mu]) > 1
        chi = group.supercharacter_raw(lam)
        monkeypatch.setitem(group._raw_characters, lam, self.changed_at(chi, group.code(member)))
        failures = verify.suite_axioms(3, 3).failures
        assert [c.name for c in failures] == ["supercharacters-constant-on-superclasses"]
        assert failures[0].detail == "character of 3; 2-1-3 varies on the superclass of 3; 1-2-2"

    def test_a_trivial_character_with_a_value_other_than_one(self, monkeypatch):
        group = unitriangular.get_group(3, 3)
        empty = LabeledSetPartition(3)
        trivial = self.changed_at(group.supercharacter_raw(empty), group.order - 1)
        monkeypatch.setitem(group._raw_characters, empty, trivial)
        failed = {c.name for c in verify.suite_axioms(3, 3).failures}
        assert "identity-superclass-and-trivial-character" in failed

    def test_an_oracle_table_with_one_changed_entry(self, monkeypatch):
        group = unitriangular.get_group(3, 3)
        table = group.oracle_table()
        values = [list(row) for row in table.values]
        values[4][7] = values[4][7] + 1
        changed = SupercharTable(3, 3, table.order, values, table.class_sizes)
        monkeypatch.setattr(group, "oracle_table", lambda: changed)
        assert [c.name for c in suite_oracle(3, 3).failures] == ["tables-entrywise-equal"]


# sha256 of ``nchopf verify`` stdout before the suites shared one check
# runner, except ("iso", 4, 2), re-pinned when dual_ch gained its counit and
# antipode checks (9 checks in place of 7).  Every one of these reports
# passes, so the digests pin the check names, their order and their details.
VERIFY_DIGESTS = {
    ("hopf", 3, 2): "b3a5acd2e959172e394b28931f58d7d9a768fa85755b594459e35999d90f9167",
    ("hopf", 1, 3): "f18fc3562be81d3cb9b6d28158caeff52bbf7f4421c02d470dd3f471bee1c587",
    ("iso", 4, 2): "e2162a509ebb1471ef6a484ac980030e6c50a9313b1cd4a0f9919600d3941bcf",
    ("iso", 3, 3): "c687e028769fd8b80eda67a13094129cc228d8e55f2538724341e6e95a6f68c9",
    ("iso", 2, 5): "92139515853051cfc259233fe9f63a023c0a6e7bacea6d6fbf11f0f1793f44a5",
    ("duality", 3, 2): "b00ff35e4dc0fba1904afd4426e4b448ceff91cf0ea15b26dc8a746dab51e9f4",
    ("duality", 2, 3): "15dbab78d18135cd994e4d8d941c48ba96d8702ccba1f7ede20bcc1e7795a801",
    ("duality", 2, 5): "fcc05b3ca9d250f754fd14ddbc67fbb20469e68423b9ebb8f1cb9d794d7d77cd",
    ("axioms", 4, 2): "40e62037a598455756d02557219d5dda4587b27eeaac6c641b6d8d821fb98092",
    ("axioms", 3, 3): "e070749e54a2d60c53899ac0f097eab21fd8de3a801a72dd0cc91e2ef65efafb",
    ("oracle", 1, 2): "3e7457a5172815b6d8fb9f4780b01de3742534290f276d2f2d44fdc4444e20c7",
    ("oracle", 3, 2): "37ec22ddddaf11cc162191d0a63fc71fe413a510f7d4dd45177c50d3277781ba",
    ("oracle", 3, 3): "9e7002e23a6e74f92f4383c53df6152989b2befacb740c7ae12ee0c2bfbf779c",
}


@pytest.mark.parametrize("suite, n, q", sorted(VERIFY_DIGESTS))
def test_verify_stdout_is_pinned(suite, n, q):
    out = io.StringIO()
    code = cli.run(["verify", "--suite", suite, "--n", str(n), "--q", str(q)], stdout=out)
    assert code == cli.EXIT_OK
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == VERIFY_DIGESTS[suite, n, q]
