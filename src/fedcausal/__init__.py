"""Federated estimation of target-population average treatment effects."""

__version__ = "0.1.0"

from .density_ratio import (
    BasisSpec,
    MomentSummary,
    TiltCoefficients,
    ratio_weights,
    solve_tilt,
    target_moments,
    truncate_weights,
)
from .errors import FedcausalError, PrivacyViolation, ScenarioError
from .federation import (
    DEFAULT_LAMBDA_GRID,
    EnsembleSolution,
    GlobalReport,
    combine_fixed,
    cross_validate_lambda,
    global_estimate,
)
from .fedruntime import (
    MessageRecord,
    ProtocolConfig,
    audit_ledger,
    dump_ledger,
    run_round,
)
from .nuisance import (
    CandidateSpec,
    FeatureMap,
    MixedModel,
    NuisanceFit,
    fit_nuisances,
    kang_schafer,
    mix_outcome,
    mix_propensity,
)
from .simbench import (
    ScenarioSpec,
    SimulationResult,
    SiteSpec,
    generate_site,
    load_scenario,
    method_config,
    run_scenario,
    sample_skew_normal,
)
from .site_estimator import (
    SiteEstimate,
    SiteFrame,
    SourceSiteReport,
    estimate_source,
    estimate_target,
)

__all__ = [
    "BasisSpec",
    "CandidateSpec",
    "DEFAULT_LAMBDA_GRID",
    "EnsembleSolution",
    "FeatureMap",
    "FedcausalError",
    "GlobalReport",
    "MessageRecord",
    "MixedModel",
    "MomentSummary",
    "NuisanceFit",
    "PrivacyViolation",
    "ProtocolConfig",
    "ScenarioError",
    "ScenarioSpec",
    "SimulationResult",
    "SiteEstimate",
    "SiteFrame",
    "SiteSpec",
    "SourceSiteReport",
    "TiltCoefficients",
    "audit_ledger",
    "combine_fixed",
    "cross_validate_lambda",
    "dump_ledger",
    "estimate_source",
    "estimate_target",
    "fit_nuisances",
    "generate_site",
    "global_estimate",
    "kang_schafer",
    "load_scenario",
    "method_config",
    "mix_outcome",
    "mix_propensity",
    "ratio_weights",
    "run_round",
    "run_scenario",
    "sample_skew_normal",
    "solve_tilt",
    "target_moments",
    "truncate_weights",
]
