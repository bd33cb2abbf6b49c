"""Per-layer tracing from outside the program.

Wraps public functions and methods of the ``nchopf.*`` modules and records,
per wrapped name, the number of calls, the self time (a span's duration minus
the time its child spans cover) and the busy time (inclusive time of the
outermost call only, so recursion is not counted twice).  Scalar operations
are wrapped as counters: they count calls and inclusive time but are not
spans, so their time stays in the self time of the span that called them.

Times are reported as shares (%) of the wall time the tracer was installed
(``trace.traced_wall_s`` in the result gives the base).  A share compares
across runs on a host whose speed drifts, and a layer the workload never
calls reads 0% rather than a time of zero.

Modules import names directly (``from .elements import product``), so a
wrapper is bound by identity into every ``nchopf.*`` module namespace, into
module-level dicts (the CLI's conversion table, the verify suite table) and,
for methods, under every alias in the class dict (``__rmul__ = __mul__``).
``uninstall`` puts the originals back the same way.

Aggregates stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import sys
import time

# (metric prefix, module, attribute path, kind).  Kind "span" records calls
# and self time (busy time too for verify suites); "counter" records calls
# and busy time without a span.
TARGETS = (
    ("cyclotomic.mul", "nchopf.cyclotomic", "CycRational.__mul__", "counter"),
    ("cyclotomic.add", "nchopf.cyclotomic", "CycRational.__add__", "counter"),
    ("cyclotomic.conj", "nchopf.cyclotomic", "CycRational.conj", "counter"),
    ("cyclotomic.inverse", "nchopf.cyclotomic", "CycRational.inverse", "counter"),
    ("cyclotomic.solve_linear_system", "nchopf.cyclotomic", "solve_linear_system", "span"),
    ("cyclotomic.invert_matrix", "nchopf.cyclotomic", "invert_matrix", "span"),
    ("setpartitions.enumerate_labeled_partitions", "nchopf.setpartitions",
     "enumerate_labeled_partitions", "span"),
    ("setpartitions.underlying_set_partition", "nchopf.setpartitions",
     "underlying_set_partition", "span"),
    ("setpartitions.LabeledSetPartition", "nchopf.setpartitions",
     "LabeledSetPartition.__init__", "counter"),
    ("elements.product", "nchopf.elements", "product", "span"),
    ("elements.coproduct", "nchopf.elements", "coproduct", "span"),
    ("elements.antipode", "nchopf.elements", "antipode", "span"),
    ("elements.basis_product", "nchopf.elements", "basis_product", "span"),
    ("elements.basis_coproduct", "nchopf.elements", "basis_coproduct", "span"),
    ("superfunctions.supercharacter_table", "nchopf.superfunctions",
     "supercharacter_table", "span"),
    ("superfunctions.SupercharTable.inverse", "nchopf.superfunctions",
     "SupercharTable.inverse", "span"),
    ("superfunctions.kappa_to_chi", "nchopf.superfunctions", "kappa_to_chi", "span"),
    ("superfunctions.chi_to_kappa", "nchopf.superfunctions", "chi_to_kappa", "span"),
    ("superfunctions.inner_product", "nchopf.superfunctions", "inner_product", "span"),
    ("superfunctions.supercharacter_value", "nchopf.superfunctions",
     "supercharacter_value", "span"),
    ("ncsym.ch", "nchopf.ncsym", "ch", "span"),
    ("ncsym.m_to_p", "nchopf.ncsym", "m_to_p", "span"),
    ("ncsym.p_to_m", "nchopf.ncsym", "p_to_m", "span"),
    ("ncsym.expand_k_in_colored_m", "nchopf.ncsym", "expand_k_in_colored_m", "span"),
    ("ncsym.collect_k", "nchopf.ncsym", "collect_k", "span"),
    ("duals.dual_ch", "nchopf.duals", "dual_ch", "span"),
    ("duals.duality_pairing", "nchopf.duals", "duality_pairing", "span"),
    ("duals.product_M", "nchopf.duals", "product_M", "span"),
    ("duals.u_to_v", "nchopf.duals", "u_to_v", "span"),
    ("duals.v_to_u", "nchopf.duals", "v_to_u", "span"),
    ("duals.kappa_star_to_chi_star", "nchopf.duals", "kappa_star_to_chi_star", "span"),
    ("unitriangular.UTGroup.elements", "nchopf.unitriangular", "UTGroup.elements", "span"),
    ("unitriangular.UTGroup.superclasses", "nchopf.unitriangular",
     "UTGroup.superclasses", "span"),
    ("unitriangular.UTGroup.functional_orbit", "nchopf.unitriangular",
     "UTGroup.functional_orbit", "span"),
    ("unitriangular.UTGroup.supercharacter_raw", "nchopf.unitriangular",
     "UTGroup.supercharacter_raw", "span"),
    ("unitriangular.UTGroup.oracle_table", "nchopf.unitriangular",
     "UTGroup.oracle_table", "span"),
    ("unitriangular.UTGroup.sandwich_counts", "nchopf.unitriangular",
     "UTGroup.sandwich_counts", "span"),
    ("unitriangular.sind_J", "nchopf.unitriangular", "sind_J", "span"),
    ("unitriangular.inf_parts", "nchopf.unitriangular", "inf_parts", "span"),
    ("unitriangular.def_parts", "nchopf.unitriangular", "def_parts", "span"),
    ("unitriangular.res_J", "nchopf.unitriangular", "res_J", "span"),
    ("unitriangular.raw_inner_product", "nchopf.unitriangular", "raw_inner_product", "span"),
    ("unitriangular.product_inner_product", "nchopf.unitriangular",
     "product_inner_product", "span"),
    ("verify.suite_hopf", "nchopf.verify", "suite_hopf", "span"),
    ("verify.suite_iso", "nchopf.verify", "suite_iso", "span"),
    ("verify.suite_oracle", "nchopf.verify", "suite_oracle", "span"),
    ("verify.suite_axioms", "nchopf.verify", "suite_axioms", "span"),
    ("verify.suite_duality", "nchopf.verify", "suite_duality", "span"),
    ("serialize.element_from_json", "nchopf.serialize", "element_from_json", "span"),
    ("serialize.element_to_json", "nchopf.serialize", "element_to_json", "span"),
    ("serialize.canonical_dumps", "nchopf.serialize", "canonical_dumps", "span"),
)

# Counts that are not plain call counts, recorded by the hooks below.
EXTRA_COUNTS = (
    "elements.basis_product.terms_out",
    "elements.basis_coproduct.terms_out",
    "elements.antipode.recursions",
    "superfunctions.supercharacter_table.computed",
    "unitriangular.elements_enumerated",
    "verify.checks_run",
    "verify.checks_failed",
)


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every metric ``Tracer.metrics`` returns."""
    out = []
    for prefix, _, _, kind in TARGETS:
        out.append((f"{prefix}.calls", "count"))
        if kind == "span":
            out.append((f"{prefix}.self_pct", "%"))
        if kind == "counter" or prefix.startswith("verify."):
            out.append((f"{prefix}.busy_pct", "%"))
    out.extend((name, "count") for name in EXTRA_COUNTS)
    return out


def _resolve(module, path: str):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Aggregated spans and counters for one process."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.busy_s: dict[str, float] = {}
        self.counts: dict[str, int] = {name: 0 for name in EXTRA_COUNTS}
        self._active: dict[str, int] = {}
        self._children = [0.0]  # child-span time of each open span; [0] is the root
        self._installed_at = None
        self.wall_s = 0.0
        self._bindings: list[tuple[object, str, object, object]] = []

    # -- wrappers

    def _span(self, name, fn, after=None):
        calls, self_s, busy_s, active, children = (
            self.calls, self.self_s, self.busy_s, self._active, self._children
        )
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            active[name] += 1
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = children.pop()
                children[-1] += duration
                calls[name] += 1
                self_s[name] += duration - child
                active[name] -= 1
                if not active[name]:
                    busy_s[name] += duration
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        calls, busy_s = self.calls, self.busy_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                busy_s[name] += clock() - start
                calls[name] += 1

        return wrapper

    # -- hooks for the extra counts

    def _hooks(self):
        counts, active = self.counts, self._active

        def terms_out(key):
            def after(args, result):
                counts[key] += len(result.terms)
            return after

        def basis_coproduct_after(args, result):
            counts["elements.basis_coproduct.terms_out"] += len(result.terms)
            if active["elements.antipode"]:
                counts["elements.antipode.recursions"] += 1

        def solve_after(args, result):
            if active["superfunctions.supercharacter_table"]:
                counts["superfunctions.supercharacter_table.computed"] += 1

        def suite_after(args, report):
            counts["verify.checks_run"] += len(report.checks)
            counts["verify.checks_failed"] += len(report.failures)

        return {
            "elements.basis_product": terms_out("elements.basis_product.terms_out"),
            "elements.basis_coproduct": basis_coproduct_after,
            "cyclotomic.solve_linear_system": solve_after,
            "verify.suite_hopf": suite_after,
            "verify.suite_iso": suite_after,
            "verify.suite_oracle": suite_after,
            "verify.suite_axioms": suite_after,
            "verify.suite_duality": suite_after,
        }

    def _enumeration_counter(self, fn):
        """UTGroup.elements: count the elements of each fresh enumeration."""
        counts = self.counts

        def wrapper(group, *args, **kwargs):
            fresh = group._elements is None
            result = fn(group, *args, **kwargs)
            if fresh:
                counts["unitriangular.elements_enumerated"] += len(result)
            return result

        return wrapper

    # -- installation

    def install(self) -> None:
        """Wrap every target and bind the wrappers under every alias."""
        import nchopf.cli  # noqa: F401  (loads every nchopf.* module)

        hooks = self._hooks()
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "nchopf" or n.startswith("nchopf."))]
        for prefix, module_name, path, kind in TARGETS:
            owner, attr = _resolve(sys.modules[module_name], path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self.calls[prefix] = 0
            self.self_s[prefix] = 0.0
            self.busy_s[prefix] = 0.0
            self._active[prefix] = 0
            if kind == "counter":
                wrapper = self._counter(prefix, original)
            else:
                inner = original
                if prefix == "unitriangular.UTGroup.elements":
                    inner = self._enumeration_counter(original)
                wrapper = self._span(prefix, inner, hooks.get(prefix))
            if isinstance(owner, type):
                for name, value in list(vars(owner).items()):
                    if value is original:
                        self._rebind(owner, name, original, wrapper)
            else:
                self._rebind_everywhere(modules, original, wrapper)
        self._installed_at = time.perf_counter()

    def _rebind(self, owner, name, original, wrapper) -> None:
        if isinstance(owner, dict):
            owner[name] = wrapper
        else:
            setattr(owner, name, wrapper)
        self._bindings.append((owner, name, original, wrapper))

    def _rebind_everywhere(self, modules, original, wrapper) -> None:
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._rebind(module, name, original, wrapper)
                elif type(value) is dict and not name.startswith("__"):
                    for key, item in list(value.items()):
                        if item is original:
                            self._rebind(value, key, original, wrapper)

    def uninstall(self) -> None:
        self.wall_s += time.perf_counter() - self._installed_at
        for owner, name, original, _ in reversed(self._bindings):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._bindings.clear()

    # -- output

    def snapshot(self) -> dict:
        """Raw aggregates, mergeable across processes with ``merge``."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "busy_s": dict(self.busy_s), "counts": dict(self.counts),
                "wall_s": {"traced": self.wall_s}}


def merge(total: dict | None, part: dict) -> dict:
    if total is None:
        return {key: dict(value) for key, value in part.items()}
    for key, values in part.items():
        for name, value in values.items():
            total[key][name] = total[key].get(name, 0) + value
    return total


def metrics(snapshot: dict) -> dict[str, float]:
    """Flatten aggregates into ``<module>.<function>.<kind>`` metrics."""
    wall = snapshot["wall_s"]["traced"]
    out: dict[str, float] = {}
    for name, _unit in metric_names():
        prefix, kind = name.rsplit(".", 1)
        if name in EXTRA_COUNTS:
            out[name] = snapshot["counts"][name]
        elif kind == "calls":
            out[name] = snapshot["calls"][prefix]
        else:
            seconds = snapshot["self_s" if kind == "self_pct" else "busy_s"][prefix]
            out[name] = 100.0 * seconds / wall
    return out
