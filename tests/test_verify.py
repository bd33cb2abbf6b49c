import ast
import importlib
from pathlib import Path

import pytest

from nchopf.verify import suite_oracle


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
