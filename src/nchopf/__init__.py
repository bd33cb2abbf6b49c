"""Exact Hopf-algebra computations for superclass functions of UT_n(q),
symmetric functions in noncommuting variables, and their graded duals,
validated by a brute-force group oracle.

Importing the package loads none of its modules.  Each exported name, and
each submodule, is imported on first use (PEP 562), so a process compiles
only the modules it calls: a supercharacter table never loads NCSym, the
duals or the oracle.  A basis still registers its structure maps when its
module is imported, and ``elements.BASIS_MODULES`` imports that module when
an index of the basis is first built, so an element built or read through
``elements`` or ``serialize`` alone has its rules.
"""

import importlib

__version__ = "0.1.0"

#: The module each exported name is defined in.
_EXPORTS = {
    name: module
    for module, names in {
        "setpartitions": (
            "Arc",
            "LabeledSetPartition",
            "SetComposition",
            "SetPartition",
            "arc_encoding",
            "coarsenings",
            "common_refinement",
            "concat",
            "concat_set_partitions",
            "crossing_statistic",
            "enumerate_labeled_partitions",
            "refinements",
            "straighten",
            "underlying_set_partition",
            "unstraighten",
        ),
        "cyclotomic": (
            "ConductorMismatchError",
            "CycRational",
            "SingularMatrixError",
            "invert_matrix",
            "solve_linear_system",
            "theta",
        ),
        "elements": (
            "AlgebraElement",
            "BasisIndex",
            "TensorElement",
            "UnsupportedBasisError",
            "antipode",
            "coproduct",
            "counit",
            "product",
            "unit_index",
        ),
        "limits": ("BoundExceededError", "DEFAULT_GROUP_BOUND", "DEFAULT_TABLE_BOUND"),
        "superfunctions": (
            "SupercharTable",
            "chi_element",
            "chi_to_kappa",
            "filtration_membership",
            "group_order",
            "inner_product",
            "interval_chain",
            "is_linear_index",
            "kappa_element",
            "kappa_to_chi",
            "supercharacter_degree",
            "supercharacter_table",
            "supercharacter_value",
        ),
        "ncsym": (
            "ColoredIndex",
            "ch",
            "collect_k",
            "expand_k_in_colored_m",
            "k_element",
            "m_element",
            "m_to_p",
            "p_element",
            "p_to_m",
            "primitive_root",
        ),
        "duals": (
            "M_element",
            "Permutation",
            "U_element",
            "V_element",
            "V_from_U",
            "chi_star_element",
            "chi_star_to_kappa_star",
            "csupp",
            "dual_ch",
            "duality_pairing",
            "duality_pairing_tensor",
            "evaluate_M_element",
            "evaluate_M_truncated",
            "kappa_star_element",
            "kappa_star_to_chi_star",
            "multiply_truncated",
            "product_M",
            "u_to_v",
            "v_to_u",
            "z_scalar",
        ),
        "unitriangular": (
            "ClassFunctionRaw",
            "UTGroup",
            "def_parts",
            "get_group",
            "inf_parts",
            "oracle_supercharacter_table",
            "outer_product",
            "product_inner_product",
            "raw_inner_product",
            "res_J",
            "sind_J",
        ),
    }.items()
    for name in names
}
_SUBMODULES = frozenset({*_EXPORTS.values(), "cli", "serialize", "verify"})

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    # The attribute is looked up on every access, never stored here: a
    # wrapper bound into the module for a while (the benchmark tracer's) is
    # then seen only while it is bound.
    module = _EXPORTS.get(name)
    if module is not None:
        return getattr(importlib.import_module(f"{__name__}.{module}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
