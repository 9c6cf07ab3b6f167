"""Mean change point detection for high-dimensional time series under
spatial and temporal dependence."""

from .core import (
    ChangePointSet,
    DependenceWindow,
    DimensionTooSmall,
    EmptySumRange,
    GramSummary,
    HdcpError,
    IndexOutOfRange,
    NonFiniteEntry,
    NonPositiveBaseline,
    RowSummary,
    Segment,
    SegmentRecord,
    SeriesMatrix,
    SingularDesign,
    TestOutcome,
    as_series,
    validate_input,
)
from .engine import (
    DependenceDesign,
    F_matrix,
    TraceTable,
    V_vector,
    VarianceResult,
    b_aggregate,
    b_matrix,
    build_trace_table,
    compute_gram,
    f_vector,
    l_trace,
    trace_product_estimate,
    variance_estimate,
)
from .inference import (
    InferenceConfig,
    binary_segmentation,
    classify_errors,
    estimate_single,
    test_at,
    test_global,
)
from .selector import (
    LagEnergyCurve,
    SelectedOrder,
    default_h_max,
    lag_energy_curve,
    select_m,
)
from .simulator import (
    BoundaryDesign,
    BoundaryResult,
    ElbowDesign,
    ElbowResult,
    LinearProcessSpec,
    MeanProfile,
    MultiCpDesign,
    MultiCpResult,
    OracleModel,
    ProcessParams,
    SizePowerDesign,
    SizePowerResult,
    build_coefficients,
    generate_series,
    mean_matrix,
    null_profile,
    run_boundary_curve,
    run_elbow_curve,
    run_multi_cp,
    run_size_power,
    single_change_profile,
)

__version__ = "0.1.0"
