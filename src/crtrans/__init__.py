"""Exact computer algebra for truncated power series and formal CR geometry.

Submodules load on first use. ``import crtrans`` registers each one in
``sys.modules`` through ``importlib.util.LazyLoader``, which compiles and runs
a module only when one of its attributes is first read, and the public names
below resolve through their module on first access (PEP 562). A command thus
pays only for the modules it runs.
"""

import importlib.util
import sys

__version__ = "0.1.0"  # the version in pyproject.toml

# every library submodule, with the public names it gives the package; the
# entry points `cli` and `__main__` load when imported, as `python -m` needs,
# `document` runs the document commands of `cli`, and `record` imports its
# private helper `_nested` on first use
_EXPORTS = {
    "scalar": ("GaussianRational",),
    "series": ("Series", "exp_series"),
    "substitution": ("compose",),
    "fracseries": ("FracSeries",),
    "rank": ("GenericRank", "SeriesMatrix", "determinant", "generic_rank"),
    "linalg": (
        "rank_at_point",
        "scalar_determinant",
        "solve_triangular",
        "span_membership",
    ),
    "verdict": ("Status", "Verdict"),
    "errors": (
        "CrtransError",
        "ArityMismatch",
        "TruncationMismatch",
        "NotAUnit",
        "NotPointed",
        "NormalizationRequired",
        "FieldRestriction",
        "DivisionUncertifiable",
        "NotSolvableAtTruncation",
        "InconsistentData",
        "NoWitness",
        "StructureError",
        "GrammarError",
    ),
    "hypersurface": (
        "Convention",
        "NormalHypersurface",
        "TypeClassification",
        "TypeKind",
        "classify_type",
        "is_class_c",
        "is_class_cm",
        "is_holomorphically_nondegenerate",
        "validate",
    ),
    "crmap": (
        "CRMap",
        "InstanceAnalysis",
        "TransversalOrder",
        "compose_maps",
        "identity_map",
        "is_automorphism",
        "is_cr_transversal",
        "is_jacobian_nonzero",
        "is_not_totally_degenerate",
        "is_transversally_flat",
        "jacobian",
        "sends_into",
        "transversal_order",
    ),
    "prolongation": (
        "ProlongationInstance",
        "ProlongationSolution",
        "forward_expand",
        "minimal_ordered_nonzero",
        "prolongation_solve",
    ),
    "models": (
        "blowup_hypersurface",
        "blowup_map",
        "exp_model",
        "heisenberg",
        "hk_map",
        "m_psi",
        "m_psi_map",
        "remark_instance",
        "tk_map",
    ),
    "verify": (
        "SuiteStatus",
        "TheoremSuiteResult",
        "build_registry",
        "suite_easystuff",
        "suite_finite_type",
        "suite_infinite_type",
    ),
    "grammar": ("InputDocument", "parse"),
    "grammar_text": ("GRAMMAR_TEXT",),
    "document": (),
    "multiindex": (),
    "record": (),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def _register(module: str) -> None:
    """The lazy_import recipe of the importlib documentation."""
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    lazy = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = lazy
    spec.loader.exec_module(lazy)
    globals()[module] = lazy


for _module in _EXPORTS:
    _register(_module)
del _module


def __getattr__(name: str):
    try:
        module = _OWNER[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[module], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
