"""specsplit: spectral splitting of dense complex operators along the
imaginary axis.

The toolkit computes the invariant-subspace projections of an operator whose
spectrum avoids a strip around the imaginary axis, in two independent ways:
vertical-line resolvent contour integrals (the construction under study) and
an ordered Schur decomposition (the oracle).  On top of that it verifies the
algebra the projections must satisfy, fits resolvent decay laws, and measures
how the splitting behaves under perturbations.
"""

from .analysis import (
    SplitResult,
    SweepReport,
    axis_grid,
    multiset_match_distance,
    resolvent_sweep,
    split,
    subspace_angle,
)
from .contour import (
    ContourSpec,
    QuadResult,
    default_contour,
    integrate_A,
    integrate_B,
    pv_axis_integral,
    r_minus,
)
from .corpus import (
    Budget,
    CaseReport,
    CorpusCase,
    case_names,
    corpus_almbisect,
    corpus_mcintosh_yagi,
    corpus_unbproj,
    make_case,
    run_case,
    sylvester_diag_solve,
)
from .errors import (
    NearSpectrumError,
    OperatorError,
    QuadratureError,
    SplittingMismatchError,
    TruncationError,
)
from .operators import (
    Operator,
    ProjectionPair,
    Spectrum,
    build_block_operator,
    dense_operator,
    descriptor_of,
    diag_operator,
    family_names,
    operator_from_descriptor,
    oracle_projection,
    random_gap_operator,
    resolvent,
    resolvent_many,
    resolvent_norms,
    spectral_norm,
    spectrum,
)
from .perturbation import (
    CorollaryVerdict,
    PerturbReport,
    corollary_check,
    hamiltonian_assemble,
    p_subordination_fit,
    perturb_pair_report,
    projection_diff_integral,
    resolvent_diff_decay,
    subordination_curve,
)

__version__ = "0.1.0"
