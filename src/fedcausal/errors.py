"""Exception and warning types shared across the package."""


class FedcausalError(Exception):
    """Base class for all fedcausal errors."""


class RankDeficient(FedcausalError):
    """Design matrix is numerically rank deficient or holds a non-finite value."""


class MissingClass(FedcausalError):
    """Binary response contains only one class."""


class Separated(FedcausalError):
    """Logistic fit aborted: no halved step raised the log-likelihood, or the
    IRLS system was singular. Despite the name, it does not mean that the data
    are separated."""


class NoConvergence(FedcausalError):
    """Iterative solver did not reach its tolerance within the iteration cap."""


class SingularJacobian(FedcausalError):
    """Newton step failed because the Jacobian solve broke down."""


class EmptySample(FedcausalError):
    """An operation that needs at least one unit got none."""


class TooFewUnits(FedcausalError):
    """A data split left one of the partitions empty or too small."""


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
