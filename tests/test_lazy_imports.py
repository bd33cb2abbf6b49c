"""The package namespace and the basis modules load on first use.

Every test that says which modules a process loads runs in a fresh
interpreter: this one has imported them all by the time the suite runs, so
an import that is missing would go unnoticed here.
"""

import importlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import nchopf
import nchopf.cli  # noqa: F401  (loads every module: the eager side)
from nchopf import elements, serialize
from nchopf.cyclotomic import CycRational
from nchopf.elements import (
    BASIS_MODULES,
    AlgebraElement,
    TensorElement,
    UnsupportedBasisError,
    antipode,
    coproduct,
    product,
)
from nchopf.setpartitions import LabeledSetPartition

SRC = Path(__file__).resolve().parent.parent / "src"
Q = 3
#: One grade-2 index payload per basis tag, in the form ``serialize`` writes.
PAYLOADS = {
    **dict.fromkeys(
        ("kappa", "chi", "k_colored", "kappa_star", "chi_star"), {"n": 2, "arcs": [[1, 2, 2]]}
    ),
    **dict.fromkeys(("m", "p", "U", "V"), {"n": 2, "arcs": [[1, 2, 1]]}),
    "M": {"n": 2, "word": [2, 1]},
    "m_colored": {"n": 2, "blocks": [[1, 2]], "colors": [0, 1], "r": 2},
}
#: What every process below loads besides the module of the basis it uses.
CORE = {"nchopf", *(f"nchopf.{m}" for m in ("limits", "setpartitions", "cyclotomic", "elements"))}


def run_fresh(code: str, *args: str) -> str:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def loaded_after(statement: str) -> set[str]:
    code = f"import sys\n{statement}\nprint(' '.join(sorted(sys.modules)))"
    return {name for name in run_fresh(code).split() if name.partition(".")[0] == "nchopf"}


def test_importing_the_package_loads_no_module():
    assert loaded_after("import nchopf") == {"nchopf"}


def test_a_table_user_loads_only_what_tables_need():
    assert loaded_after("import nchopf.superfunctions") == CORE | {"nchopf.superfunctions"}


# The product x * x, the coproduct, the antipode and the unit of an element
# x, each as canonical JSON or as the error it raises (M has no coproduct),
# and the nchopf modules loaded once they were computed.  Each script below
# first binds ``x``.
REPORT = """
from nchopf.elements import (
    AlgebraElement, TensorElement, UnsupportedBasisError, antipode, coproduct, product)
results = []
for op, args in ((product, (x, x)), (coproduct, (x,)), (antipode, (x,)),
                 (AlgebraElement.unit, (x.q, x.basis))):
    try:
        results.append(op(*args))
    except UnsupportedBasisError as error:
        results.append(repr(error))
loaded = sorted(name for name in sys.modules if name.partition(".")[0] == "nchopf")
from nchopf import serialize
texts = [r if isinstance(r, str) else serialize.canonical_dumps(
    (serialize.tensor_to_json if isinstance(r, TensorElement) else serialize.element_to_json)(r))
    for r in results]
print(json.dumps({"loaded": loaded, "results": texts}))
"""

# Built through ``elements`` and ``setpartitions`` alone.  The index type of
# M and m_colored lives in the basis's own module, so those two take it from
# the unit index, which is built first.
BUILD = """
import json, sys
from nchopf import elements, setpartitions
tag, payload = sys.argv[1], json.loads(sys.argv[2])
if tag in elements.ARC_BASES:
    index_type = setpartitions.LabeledSetPartition
else:
    index_type = type(elements.unit_index(tag).partition)
partition = index_type.from_json(payload)
x = elements.AlgebraElement(%d, tag, {elements.BasisIndex(tag, partition.n, partition): 1})
""" % Q

# Read through ``serialize`` alone.
READ = """
import json, sys
from nchopf import serialize
x = serialize.element_from_json(json.loads(sys.argv[2]))
"""

# A pickled index, read with nothing of nchopf imported.
UNPICKLE = """
import json, pickle, sys
idx = pickle.loads(bytes.fromhex(sys.argv[2]))
from nchopf.elements import AlgebraElement
x = AlgebraElement(%d, idx.basis, {idx: 1})
""" % Q


def sample(tag: str) -> AlgebraElement:
    terms = [{**PAYLOADS[tag], "coeff": CycRational.coerce(Q, 1).to_json()}]
    return serialize.element_from_json({"q": Q, "basis": tag, "terms": terms})


def eager_results(x: AlgebraElement) -> list[str]:
    """REPORT's results, computed in this process, which loaded every module
    when it imported ``nchopf.cli``."""
    texts = []
    for op, args in ((product, (x, x)), (coproduct, (x,)), (antipode, (x,)),
                     (AlgebraElement.unit, (x.q, x.basis))):
        try:
            result = op(*args)
        except UnsupportedBasisError as error:
            texts.append(repr(error))
            continue
        if isinstance(result, TensorElement):
            texts.append(serialize.canonical_dumps(serialize.tensor_to_json(result)))
        else:
            texts.append(serialize.canonical_dumps(serialize.element_to_json(result)))
    return texts


@pytest.mark.parametrize("mode", ["build", "read", "unpickle"])
@pytest.mark.parametrize("tag", sorted(BASIS_MODULES))
def test_a_process_that_never_imports_a_basis_module_gets_its_rules(tag, mode):
    # Without the tag table a fresh process building a U index through
    # elements alone raised "no product rule registered for basis 'U'".
    x = sample(tag)
    (idx,) = x.terms
    script, arg = {
        "build": (BUILD, json.dumps(PAYLOADS[tag])),
        "read": (READ, serialize.canonical_dumps(serialize.element_to_json(x))),
        "unpickle": (UNPICKLE, pickle.dumps(idx).hex()),
    }[mode]
    out = json.loads(run_fresh(script + REPORT, tag, arg))
    assert out["results"] == eager_results(x)
    expected = CORE | {"nchopf.superfunctions", f"nchopf.{BASIS_MODULES[tag]}"}
    if mode == "read":
        expected.add("nchopf.serialize")
    assert set(out["loaded"]) == expected


class TestNamespace:
    def test_every_exported_name_is_its_modules_object(self):
        for name, module in nchopf._EXPORTS.items():
            defined = getattr(importlib.import_module(f"nchopf.{module}"), name)
            assert getattr(nchopf, name) is defined
        assert nchopf.__all__ == list(nchopf._EXPORTS)

    def test_submodules_resolve_as_attributes(self):
        for name in nchopf._SUBMODULES:
            assert getattr(nchopf, name) is importlib.import_module(f"nchopf.{name}")

    def test_dir_lists_the_exports(self):
        listing = dir(nchopf)
        assert "__all__" in listing and "__version__" in listing
        assert set(nchopf.__all__) <= set(listing)

    def test_an_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            nchopf.no_such_name
        assert not hasattr(nchopf, "_no_such_private")

    def test_star_import_binds_every_exported_name(self):
        namespace: dict = {}
        exec("from nchopf import *", namespace)
        assert set(nchopf.__all__) <= set(namespace)
        assert namespace["product"] is elements.product

    def test_a_name_is_not_cached_in_the_package(self):
        # Each access reads the module again, so a wrapper bound there for a
        # while is not kept after it is unbound.
        assert nchopf.product is elements.product
        assert "product" not in vars(nchopf)


def test_a_deleted_rule_stays_deleted(monkeypatch):
    # A new index imports its basis's module again; the module is loaded, so
    # nothing registers anew and the rule removed here stays missing.
    elements.unit_index("U")
    monkeypatch.delitem(elements._PRODUCT_RULES, "U")
    lam = LabeledSetPartition.from_json({"n": 7, "arcs": [[1, 7, 1], [2, 6, 1]]})
    x = AlgebraElement(2, "U", {elements.BasisIndex("U", 7, lam): 1})
    with pytest.raises(UnsupportedBasisError, match="no product rule registered for basis 'U'"):
        product(x, x)
    elements.unit_index("U")
    assert "U" not in elements._PRODUCT_RULES
