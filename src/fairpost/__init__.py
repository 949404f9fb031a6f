"""Wasserstein model-bias measurement, attribution and post-processing
mitigation."""

__version__ = "0.1.0"

from .attribution import (
    AttributionTable,
    ImpactList,
    basic_bias_explanations,
    expected_ibe,
    ibe_table,
    select_impactful,
    shapley_bias_game,
)
from .bias import (
    BiasCells,
    BiasReport,
    PartitionSpec,
    bias_cells,
    model_bias,
)
from .calibrate import (
    CalibrationError,
    CalibrationMap,
    auc,
    link_linear_calibrate,
    logistic_refit,
    pava_isotonic,
)
from .empirical import (
    EmpiricalDistribution,
    SignedTransport,
    build_distribution,
    wasserstein1_signed,
)
from .explain import (
    default_background,
    marginal_shapley,
    pdp_explainer,
    pdp_output,
)
from .learn import (
    Dataset,
    GbmConfig,
    SyntheticSpec,
    TrainedModel,
    generate,
    log_loss,
    split_dataset,
    train_gbm,
    train_logistic,
)
from .mitigate import (
    Frontier,
    FrontierPoint,
    SearchSpace,
    best_gamma_at_omega,
    build_calibrated,
    pareto_extract,
    run_algorithm1,
    run_hyperparam_baseline,
    transform_search_space,
)
from .transform import (
    CompressiveParams,
    PostProcessedModel,
    PredictorTransform,
    build_postprocessed,
    focal_point,
    transform_asymmetric,
    transform_global,
    transform_local,
)
