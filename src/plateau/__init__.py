"""Gradient-variance analysis for unitarily embedded MPS ansatze."""

from .linalg import (
    gue_hermitian,
    haar_state,
    haar_unitary,
    hs_norm_sq,
    partial_trace,
    pauli_string,
)
from .twirl import (
    DesignConstants,
    PermLabel,
    diagram_exact,
    diagram_mc,
    mc_twirl,
    o_tree,
    perm_ops,
    second_moment,
    tree_chain,
)
from .ansatz import (
    MpsAnsatz,
    cost,
    cost_statevector,
    grad_fd,
    grad_site,
    site_tensor,
    statevector,
    transfer,
)
from .mc import EnsembleSpec, EstimateResult, estimate, estimate_columns, grad_variance_mps, haar_avg_epsilon_mc
from .costs import (
    ClampWarning,
    CostKind,
    cross_entropy,
    epsilon,
    haar_avg_epsilon_xeb_closed,
    linear_xeb,
    observable_xeb,
    observable_xent,
    p_first_qubit,
    trace_oe_sq,
)
from .analytic import (
    CConstants,
    ConstantEstimate,
    VarianceCase,
    VarianceQuery,
    c4_closed,
    c_constants_mc,
    variance_bound_onsite_minus,
    variance_formula,
    variance_large_n,
)
from .circuit import (
    LayeredCircuit,
    brick_supports,
    circuit_cost,
    circuit_grad,
    circuit_grad_fd,
    circuit_variance_mc,
)

__version__ = "0.1.0"
