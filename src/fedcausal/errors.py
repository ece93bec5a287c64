"""Exception and warning types shared across the package."""


class FedcausalError(Exception):
    """Base class for all fedcausal errors."""


class RankDeficient(FedcausalError):
    """A design has dependent columns or holds a non-finite value."""


class SingularJacobian(FedcausalError):
    """A Newton system is singular: its solve broke down or gave a non-finite step."""


class NoConvergence(FedcausalError):
    """A solver cannot reach its tolerance: no halved step improves it, its
    residual is not finite, its iteration cap is spent, or its result fails
    its optimality check."""


class TooFewUnits(FedcausalError):
    """Too few units, or none of one class, for a fit, a tilt basis or a split."""


class MissingTarget(FedcausalError):
    """No (or more than one) target-site input where exactly one is required."""


class ZeroVariance(FedcausalError):
    """Inverse-variance weighting needs strictly positive site variances."""


class TooManySources(FedcausalError):
    """An adaptive round got more than ``federation.MAX_SOURCES`` sources."""


class MissingColumns(FedcausalError):
    """A site's covariates do not fit what a round asks of them: a candidate
    feature map reads columns the site does not hold, or the site shares a
    different number of covariates than the target's moment summary."""


class PrivacyViolation(FedcausalError):
    """A federation payload carried individual-level data or an unknown field."""


class ScenarioError(FedcausalError):
    """Scenario specification is malformed."""


class PositivityWarning(UserWarning):
    """Propensity clipping was active for at least one unit."""


class ExtremeWeightsWarning(UserWarning):
    """Density-ratio weights are highly concentrated (max/mean over threshold)."""


class CandidateFitWarning(UserWarning):
    """A candidate nuisance model failed to fit and received weight zero."""


class AllSourcesFailedWarning(UserWarning):
    """Every source site failed; the run degraded to target-only estimation."""


class ConvergenceWarning(UserWarning):
    """An iterative fit stopped at its iteration cap and its result is used anyway."""
