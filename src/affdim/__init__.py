"""Affinity dimension of self-affine sets, deterministic and graph-driven.

The pipeline, bottom to top:

- :mod:`affdim.exterior_algebra` — blades, wedge products and compound
  matrices in small ambient dimension;
- :mod:`affdim.singular_values` — singular spectra and the interpolated
  singular value function ``phi``;
- :mod:`affdim.fs_checker` — spanning conditions C(m) / C(s), the two-map
  certificate and empirical fullness constants;
- :mod:`affdim.code_tree` — affine families, graph-driven code trees, neck
  levels and streamed partition sums;
- :mod:`affdim.dimension` — pressure curves, the pressure zero s0 and
  box-counting cross-checks;
- :mod:`affdim.io_cli` — the JSON system format and the ``affdim`` CLI.
"""

from .code_tree import (
    AffineMap,
    CodeTreeRealization,
    EnumerationCapExceeded,
    GraphEdge,
    GraphLabel,
    GraphSystem,
    IfsFamily,
    build_code_tree,
    count_full_blocks,
    detect_necks,
    deterministic_tree,
    enumerate_points,
    partition_sum_mc,
    partition_sums,
    sample_graph_sequence,
    shift_first_neck,
)
from .dimension import (
    BoxCountFit,
    DimensionReport,
    HypothesisViolation,
    PressureCurve,
    PressureZeroResult,
    box_dimension,
    dimension_report,
    pressure_curve,
    pressure_zero,
)
from .exterior_algebra import (
    CompoundMatrix,
    ExteriorVector,
    MultiIndex,
    compound_matrix,
    multi_indices,
    wedge,
)
from .fs_checker import (
    CriterionReport,
    FailWitness,
    FullnessEstimate,
    LinearFamily,
    UnsupportedEigenstructure,
    Verdict,
    VerdictKind,
    check_cm,
    check_cs,
    criterion_cscm,
    estimate_fullness,
    iterate_closure,
)
from .io_cli import (
    SystemSpec,
    SystemSpecError,
    bind_translations,
    cli,
    main,
    parse_system,
    serialize_system,
)
from .singular_values import phi, phi_from_singular_values, singular_values

__version__ = "0.1.0"

__all__ = [
    "AffineMap",
    "BoxCountFit",
    "CodeTreeRealization",
    "CompoundMatrix",
    "CriterionReport",
    "DimensionReport",
    "EnumerationCapExceeded",
    "ExteriorVector",
    "FailWitness",
    "FullnessEstimate",
    "GraphEdge",
    "GraphLabel",
    "GraphSystem",
    "HypothesisViolation",
    "IfsFamily",
    "LinearFamily",
    "MultiIndex",
    "PressureCurve",
    "PressureZeroResult",
    "SystemSpec",
    "SystemSpecError",
    "UnsupportedEigenstructure",
    "Verdict",
    "VerdictKind",
    "bind_translations",
    "box_dimension",
    "build_code_tree",
    "check_cm",
    "check_cs",
    "cli",
    "compound_matrix",
    "count_full_blocks",
    "criterion_cscm",
    "detect_necks",
    "deterministic_tree",
    "dimension_report",
    "enumerate_points",
    "estimate_fullness",
    "iterate_closure",
    "main",
    "multi_indices",
    "parse_system",
    "partition_sum_mc",
    "partition_sums",
    "phi",
    "phi_from_singular_values",
    "pressure_curve",
    "pressure_zero",
    "sample_graph_sequence",
    "serialize_system",
    "shift_first_neck",
    "singular_values",
    "wedge",
]
