"""Exact-arithmetic toolkit for cut cones of finite metrics.

Decides membership in the pair-cut cone by a closed form (n >= 5),
tests a sufficient condition for the full cut cone, certifies both
with an exact LP oracle, produces l1 and max-norm embeddings, spans
the kernel of the cut-matrix, and builds sphere-of-influence graphs.
Every verdict is exact: each layer computes in integers over one
common denominator and builds Fractions only for its results; nothing
rounds.
"""

from cutcones.cut_algebra import (
    Cut,
    RationalMatrix,
    cut_metric_vector,
    enumerate_cuts,
    full_cut_matrix,
    incidence_matrix,
    inverse_square_cut_matrix,
    pair_cut,
    projectors,
    square_cut_matrix,
)
from cutcones.embeddings import (
    IsometryReport,
    PointSet,
    induced_metric,
    l1_embedding,
    linf_sig_embedding,
    verify_isometry,
)
from cutcones.fullcut import (
    CertificateReport,
    CutCertificate,
    KernelBasis,
    KernelVector,
    SufficiencyVerdict,
    candidate_solution,
    certificate_from_weights,
    certificate_metric,
    kernel_basis,
    phi_vector,
    psi_vector,
    sufficient_condition,
    verify_cut_certificate,
)
from cutcones.metric import (
    Metric,
    MetricSummary,
    ValidationReport,
    cut_trace,
    num_pairs,
    pair_index,
    summarize,
    validate_metric,
    vertex_pairs,
)
from cutcones.oracle import (
    FeasibilityResult,
    cutcone_membership,
    lp_feasibility,
    paircut_membership_exact,
)
from cutcones.paircut import (
    ConstantStarVerdict,
    NecessaryReport,
    PaircutVerdict,
    constant_star_shortcut,
    necessary_condition,
    paircut_membership,
    paircut_weights,
)
from cutcones.sig import (
    SigReport,
    SimpleGraph,
    StarObstructionReport,
    family,
    graph_metric,
    sig_graph,
    star_graph_obstruction,
    star_metric,
    truncated_metric,
    verify_sig_metric,
)

__all__ = [
    "Cut",
    "CutCertificate",
    "CertificateReport",
    "ConstantStarVerdict",
    "FeasibilityResult",
    "IsometryReport",
    "KernelBasis",
    "KernelVector",
    "Metric",
    "MetricSummary",
    "NecessaryReport",
    "PaircutVerdict",
    "PointSet",
    "RationalMatrix",
    "SigReport",
    "SimpleGraph",
    "StarObstructionReport",
    "SufficiencyVerdict",
    "ValidationReport",
    "candidate_solution",
    "certificate_from_weights",
    "certificate_metric",
    "constant_star_shortcut",
    "cut_metric_vector",
    "cut_trace",
    "cutcone_membership",
    "enumerate_cuts",
    "family",
    "full_cut_matrix",
    "graph_metric",
    "incidence_matrix",
    "induced_metric",
    "inverse_square_cut_matrix",
    "kernel_basis",
    "l1_embedding",
    "linf_sig_embedding",
    "lp_feasibility",
    "necessary_condition",
    "num_pairs",
    "pair_cut",
    "pair_index",
    "paircut_membership",
    "paircut_membership_exact",
    "paircut_weights",
    "phi_vector",
    "projectors",
    "psi_vector",
    "sig_graph",
    "square_cut_matrix",
    "star_graph_obstruction",
    "star_metric",
    "sufficient_condition",
    "summarize",
    "truncated_metric",
    "validate_metric",
    "verify_cut_certificate",
    "verify_isometry",
    "verify_sig_metric",
    "vertex_pairs",
]

__version__ = "0.1.0"
