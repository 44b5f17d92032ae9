"""Numerical tools for block-matrix negativity bounds on tripartite states."""

from .errors import (
    NoConvergenceError,
    QuadratureFailureError,
    RootNotBracketedError,
    StepFailedError,
)
from .matcore import (
    HERM_TOL_FACTOR,
    PSD_TOL_FACTOR,
    TAU_CHECK,
    HermitianEigen,
    InequalityReport,
    as_complex_matrix,
    complex_gaussian,
    hermitian_eig,
    hermitian_eigenvalues,
    jordan_parts,
    load_matrix,
    make_report,
    matrix_from_dict,
    matrix_to_dict,
    negativity,
    psd_sqrt,
    require_hermitian,
    schatten,
)
from .qstate import (
    TAU_NORM,
    TripartiteState,
    amat,
    coeff_matrices,
    density,
    diagonalize_gram,
    gram_matrix,
    partial_trace_B,
    partial_trace_C,
    partial_transpose_A,
    random_state,
    state_from_dict,
    state_to_dict,
)
from .monogamy import (
    build_Z1,
    build_Z2,
    ineq2_report,
    ineq3_report,
    ineq4_report,
    monotonicity_report,
)
from .specialcase import (
    SpecialCaseTrace,
    build_special_Z,
    check_ineqid,
    check_ineqid1,
    check_ineqid2,
    commutator_gap,
    connecting_unitary,
    interlacing_trace,
    pad_square,
)
from .permlemma import (
    D_MAX,
    chain_bound,
    check_commutative,
    commutative_lhs,
    drury_numeric_check,
    holder_half,
    ma_chains,
    max_rearranged_sum,
)
from .imfunc import (
    DEFAULT_QUAD_TOL,
    DEFAULT_THETA,
    IMParams,
    adaptive_simpson,
    alpha,
    beta,
    beta_sign_report,
    g,
    g_prime,
    h,
    h_grid,
    h_s,
    im_pair_check,
    sqrt_plus,
    sup_error_table,
    tail_bound,
    tail_cutoff,
    w,
    w_prime,
)
from .search import (
    TARGETS,
    SearchConfig,
    SearchResult,
    deserialize_instance,
    evaluate_slack,
    local_descend,
    random_instance,
    run_search,
    run_trial,
    serialize_instance,
)
from .acceptance import AcceptanceResult

__version__ = "0.1.0"
