"""Two-agent LOCC protocol laboratory.

A simulator for experiments two separated agents can run over a shared
pair of boundary qubits ``(q_A, q_B)``.  The pair is the only state: every
state is a 4x4 ``DensityMatrix``.  The package holds one-qubit quantum
instruments, whose Kraus operators act on ``q_A`` or ``q_B`` through
``extend_to_pair``, their coarse-grainings, CHSH experiments against the
quantum bound, worlds that deliver the pair either by direct identification
or through an environment of independent qubits, and exact
transcript-distribution comparisons between the two.
"""

from .bell import (
    CHSHConfig,
    CHSHResult,
    OPTIMAL_ANGLES,
    TSIRELSON_BOUND,
    exact_chsh,
    sample_chsh,
)
from .distinguish import (
    OutcomeDistribution,
    SweepRow,
    accessible_distributions,
    channel_size_check,
    frame_misalignment_demo,
    indistinguishability_sweep,
    no_signaling_check,
    total_variation,
)
from .errors import (
    CapacityError,
    ConfigError,
    ContractError,
    EmptyCellError,
    LayoutError,
)
from .instruments import (
    CoarseGrainingPartition,
    InstrumentBranch,
    QuantumInstrument,
    ValidationReport,
    apply_instrument,
    coarse_grain,
    depolarizing_kraus,
    identity_instrument,
    load_instrument,
    measure_angle,
    measure_x,
    measure_z,
    parse_instrument,
    settings_choice_instrument,
    unsharp_z,
    validate_instrument,
)
from .linalg import (
    PAIR_LABELS,
    DensityMatrix,
    extend_to_pair,
    purity,
    trace_distance,
)
from .protocols import (
    ProtocolRound,
    ProtocolScript,
    bundled_corpus,
    bundled_script_names,
    canonical_chsh_script,
    load_bundled_script,
    load_script,
)
from .worlds import epr_pairs, singlet_density

__version__ = "0.1.0"
