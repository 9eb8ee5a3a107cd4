"""Statevector simulator and query-metered benchmark harness for training
perceptrons by version-space search: a counting-based construction of the
"is this hyperplane consistent with every data point" oracle, bounded-error
Grover search over hyperplane candidates, and exact classical baselines."""

from .andor import AndOrInstance, evaluate_direct, evaluate_via_search
from .baselines import brute_force_g, classical_version_space_search, online_train
from .counting import (
    CountEstimate,
    GTildeReadout,
    phase_gap_bound_check,
    g_tilde_readout,
    grover_operator,
    l_bits,
    phase_estimate,
    phase_estimate_inverse,
    quantum_count,
    sim_and,
    sim_and_query_cost,
)
from .oracles import (
    OracleHandle,
    QueryLedger,
    TruthTable,
    apply_bit_oracle,
    apply_controlled_phase_oracle,
    apply_phase_oracle,
    from_perceptron,
)
from .perceptron import (
    DataPoint,
    Dataset,
    Hyperplane,
    classify,
    generate_planted_dataset,
    geometric_margin,
    in_version_space,
    required_sample_count,
    sample_hyperplanes,
)
from .search import (
    BEQConfig,
    SearchOutcome,
    SimAndSearchOracle,
    TrainResult,
    bounded_error_search,
    grover_search_unknown_m,
    multi_criterion_search,
    train_perceptron,
)
from .statevec import (
    RegisterLayout,
    StateVector,
    apply_hadamards,
    apply_inverse_qft,
    apply_open_controlled_z,
    apply_phase_flip_all_zero,
    apply_qft,
    inner_product,
    new_uniform,
)

__version__ = "0.1.0"
