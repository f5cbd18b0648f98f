"""weightlab: desk-scale numerics for matrix-twisted maximal operators.

Exact one-dimensional weight integration, grid functions with exact cube
sums, Young functions with Luxemburg norms, several maximal operator
variants, weight-class constant estimation on finite cube families, a
Calderon-Zygmund laboratory, and CLI verification suites.
"""

from .funcspace import (
    Cube,
    CubeFamily,
    DomainError,
    EXP_ABS,
    GridFunction,
    LEBESGUE,
    Measure,
    Segment,
    SegmentWeight1D,
    SquareMatrix,
    compose_matrix,
    constant_weight,
    load_family,
    load_matrix,
    load_weight,
    power_weight,
    product_averages,
    sample_to_grid,
)
from .young import YoungFn, bp_integral, complementary, holder_defect, luxemburg_norm
from .maximal import (
    dyadic_maximal,
    fractional_maximal,
    hl_maximal,
    hl_maximals,
    matrix_compose,
    orlicz_maximal,
)
from .weightclass import (
    ClassSpec,
    ap_product,
    aap_product,
    class_constant,
    finite_order_reduction,
    interval_products,
    rh_inclusion_check,
    rh_ratio,
    subset_mass_ratio_check,
)
from .czlab import (
    ChainReport,
    CZDecomposition,
    cz_decompose,
    ekj_expansion_check,
    level_sets,
    theorem_chain_check,
    theorem_chain_checks,
)
from .report import SCHEMA, canonical_json, write_report
from .suites import (
    Check,
    SuiteResult,
    run_suites,
    suite_prop41,
    suite_prop42,
    suite_prop43,
    suite_theorems,
)

__version__ = "0.1.0"

__all__ = [
    "Cube", "CubeFamily", "DomainError", "EXP_ABS", "GridFunction", "LEBESGUE",
    "Measure", "Segment", "SegmentWeight1D", "SquareMatrix", "compose_matrix",
    "constant_weight", "load_family", "load_matrix", "load_weight",
    "power_weight", "product_averages", "sample_to_grid",
    "YoungFn", "bp_integral", "complementary", "holder_defect", "luxemburg_norm",
    "dyadic_maximal", "fractional_maximal", "hl_maximal", "hl_maximals",
    "matrix_compose",
    "orlicz_maximal",
    "ClassSpec", "ap_product", "aap_product", "class_constant",
    "finite_order_reduction", "interval_products", "rh_inclusion_check",
    "rh_ratio",
    "subset_mass_ratio_check",
    "ChainReport", "CZDecomposition", "cz_decompose", "ekj_expansion_check",
    "level_sets", "theorem_chain_check", "theorem_chain_checks",
    "SCHEMA", "canonical_json", "write_report",
    "Check", "SuiteResult", "run_suites", "suite_prop41", "suite_prop42",
    "suite_prop43", "suite_theorems",
]
