"""Single-round simulated federation over in-memory site frames.

The target site acts as coordinator. One round is a transport
(:func:`run_transport`: a moment-summary broadcast from the target, each
source's density-ratio tilt, and every site's cross-validation folds, none of
which depends on a candidate model), a site phase on that transport
(:func:`run_sites`: the config broadcast of the seed and the sources'
candidate models, one summary-level upload per source holding its finished
estimate, and the target's own estimate, which stays at the target), after
which the coordinator forms the global combination (:func:`combine`), whose
one setting is the weighting scheme: it reads fixed-size summaries and the
candidate groups from the site phase, and no seed. So one transport serves
every candidate group, and one site phase every weighting scheme. The scheme
and the target's candidate models stay with the coordinator, and the penalty
grid and the CI level are protocol constants
(:data:`~fedcausal.federation.LAMBDA_GRID`, ``ALPHA``): no message carries
them, and the site phase never reads the scheme. Every cross-site
payload is serialized to JSON at the boundary, and every cross-site message
is logged so the ledger can be audited: only the declared summary-level
schemas may cross sites, never individual rows or any per-unit value. Moment
summaries and source uploads are decoded on the receiving side; the config
broadcast is logged as sent and never decoded, because every site reads the
in-memory config.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
import zlib
from dataclasses import dataclass, field

import numpy as np

from .density_ratio import (MomentSummary, TiltCoefficients, solve_tilt, target_moments,
                            truncate_weights)
from .errors import (
    AllSourcesFailedWarning,
    FedcausalError,
    MissingTarget,
    PrivacyViolation,
)
from .federation import (
    ADAPTIVE_METHODS,
    FIXED_SCHEMES,
    GlobalReport,
    check_adaptive_sources,
    combine_fixed,
    cross_validate_lambda,
    global_estimate,
)
from .nuisance import (MAX_CANDIDATES, MAX_COLUMNS, FeatureMap, NuisanceFit, fit_nuisances,
                       is_candidate_list, is_shared_dimension)
from .site_estimator import (
    CV_SPLITS,
    SiteFrame,
    SourceSiteReport,
    complete_source_estimate,
    estimate_target,
    source_report,
    split_masks,
)

METHODS = FIXED_SCHEMES + ADAPTIVE_METHODS

# Declared shape of every payload key each message kind may carry: a scalar
# ("count", an int that a JSON double holds exactly, in [0, 2**53), or
# "number", a finite float), "maps" (1 to ``MAX_CANDIDATES`` distinct
# candidate feature maps, each subset column below ``MAX_COLUMNS``),
# "[dim]" (a flat list of finite floats whose length is the protocol
# dimension ``dim``), or an object of fixed keys, so no payload has a
# free-text key. The shared dimension q is the length of the moment
# summaries' ``mean_v``, the target's means of its shared covariates, 1 to
# ``MAX_COLUMNS`` (``nuisance.is_shared_dimension``, which ``SiteFrame`` also
# applies), and also the length of a source's one target-influence slope
# vector (``target_coef``); a source upload
# carries its two finished arm means and sums its squared contributions once
# over all its units (``own_sq``) and once per fit half of the protocol's
# fixed ``CV_SPLITS`` (``fit_sq``). No dimension depends on a site's sample
# size, so no per-unit values pass the audit, and no payload names its
# sender: the ledger's ``from_site`` does.
_SCHEMAS = {
    "config": {"seed": "count", "candidates": {"treatment": "maps", "outcome": "maps"}},
    "moment_summary": {"mean_v": "[shared]"},
    "site_estimate": {
        "n_k": "count", "mu0": "number", "mu1": "number",
        "own_sq": "number", "fit_sq": "[cv_splits]", "target_coef": "[shared]",
    },
}


def _is_number(value) -> bool:
    return isinstance(value, float) and math.isfinite(value)


def is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value < 2**53


_SCALARS = {"count": is_count, "number": _is_number}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class MessageRecord:
    """One logged cross-site message with its serialized payload.

    ``payload_digest`` (SHA-256 of the payload text) is fixed when the
    message is logged, i.e. constructed; a record copied with other text
    keeps the logged digest, so :func:`audit_ledger` detects the change.
    """

    from_site: str
    to_site: str
    kind: str
    payload_text: str = field(repr=False)
    payload_digest: str = field(default="", repr=False)

    def __post_init__(self):
        if not self.payload_digest:
            object.__setattr__(self, "payload_digest", _sha256(self.payload_text))

    @property
    def payload_bytes(self) -> int:
        return len(self.payload_text.encode("utf-8"))

    def to_dict(self) -> dict:
        return {
            "from_site": self.from_site,
            "to_site": self.to_site,
            "kind": self.kind,
            "bytes": self.payload_bytes,
            "digest": self.payload_digest,
        }


@dataclass(frozen=True)
class ProtocolConfig:
    """Round configuration set by the coordinator.

    ``candidates`` is ``{"target": group, "source": group}``, keyed by
    :attr:`SiteFrame.role`; a group is ``{"treatment": maps, "outcome": maps}``
    of lists of 1 to ``MAX_CANDIDATES`` distinct feature maps
    (:class:`~fedcausal.nuisance.FeatureMap`), the lists the audit takes. The
    broadcast (:meth:`to_dict`) carries ``seed`` and the source group, all
    that the sources read; the target's group and ``method`` stay with the
    coordinator.
    """

    candidates: dict
    method: str = "mr_l1"
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not is_count(self.seed):
            raise ValueError(f"seed must be an int in [0, 2**53), got {self.seed!r}")
        if {role: set(group) for role, group in self.candidates.items()} != {
                "target": {"treatment", "outcome"}, "source": {"treatment", "outcome"}
        } or not all(is_candidate_list(maps)
                     for group in self.candidates.values() for maps in group.values()):
            raise ValueError('candidates must be {"target", "source"} groups of '
                             '{"treatment", "outcome"} non-empty feature map lists of at '
                             f'most {MAX_CANDIDATES} distinct maps')

    def to_dict(self) -> dict:
        """The config broadcast: what the sources read."""
        return {
            "seed": self.seed,
            "candidates": {role: [fm.to_dict() for fm in maps]
                           for role, maps in self.candidates["source"].items()},
        }


def site_split_seed(seed: int, site_id: str) -> int:
    """Deterministic per-site seed for the train/validation split."""
    return (int(seed) * 1_000_003 + zlib.crc32(site_id.encode("utf-8"))) % (2**31)


def _fit_site(frame: SiteFrame, config: ProtocolConfig) -> NuisanceFit:
    """Fit a site's nuisance models on its own data, with its role's candidates."""
    group = config.candidates[frame.role]
    return fit_nuisances(frame.site_id, frame.X, frame.y, frame.a, group["treatment"],
                         group["outcome"], seed=site_split_seed(config.seed, frame.site_id))


@dataclass(frozen=True)
class SourceTransport:
    """One source's candidate-free work: the moment-summary message it
    received, and the tilt it solved on the decoded summary and its CV folds
    (:func:`~fedcausal.site_estimator.split_masks`), or the error that failed
    its tilt (``tilt`` and ``folds`` are then None)."""

    frame: SiteFrame
    message: MessageRecord
    tilt: TiltCoefficients | None
    folds: np.ndarray | None
    failure: str | None


@dataclass(frozen=True)
class Transport:
    """The site work of one round that no candidate model changes: the target
    frame with its CV folds and its shared covariates centered by the means
    it broadcast (the target's own estimate reads both, and no other site
    does), and one :class:`SourceTransport` per source in frame order,
    every fold set drawn with ``seed``."""

    target: SiteFrame
    target_folds: np.ndarray
    target_centered: np.ndarray
    sources: list
    seed: int


def run_transport(frames: list[SiteFrame], seed: int) -> Transport:
    """Run the candidate-free site work: the target's moment summary, its
    shared covariates centered by those means, and its CV folds, and each
    source's tilt and CV folds, every fold set drawn by
    :func:`~fedcausal.site_estimator.split_masks` with ``seed``. Each
    solved tilt's weights are checked here, once per transport
    (:func:`~fedcausal.density_ratio.truncate_weights`).

    Checks that there is exactly one target frame and that site ids, which
    address the messages and the weights, are distinct. A source whose tilt
    raises is recorded with its error, and every site phase run on the
    transport fails it.
    """
    targets = [f for f in frames if f.role == "target"]
    if len(targets) != 1:
        raise MissingTarget(f"expected exactly one target frame, got {len(targets)}")
    ids = [f.site_id for f in frames]
    repeated = sorted({i for i in ids if ids.count(i) > 1})
    if repeated:
        raise ValueError(f"site ids must be distinct; repeated: {repeated}")
    target = targets[0]
    summary = target_moments(target.V)
    summary_text = summary.to_json()
    sources = []
    for src in (f for f in frames if f.role == "source"):
        message = MessageRecord(from_site=target.site_id, to_site=src.site_id,
                                kind="moment_summary", payload_text=summary_text)
        try:
            tilt = solve_tilt(src.V, MomentSummary.from_json(message.payload_text))
        except FedcausalError as exc:
            sources.append(SourceTransport(src, message, None, None,
                                           f"{type(exc).__name__}: {exc}"))
            continue
        truncate_weights(src.site_id, tilt.weights)
        sources.append(SourceTransport(src, message, tilt,
                                       split_masks(src.n, seed, src.site_id), None))
    return Transport(target=target, target_folds=split_masks(target.n, seed, target.site_id),
                     target_centered=target.V - summary.mean_v, sources=sources, seed=seed)


@dataclass(frozen=True)
class SitePhase:
    """The site work of one round, which no weighting scheme changes.

    ``estimates`` holds the target estimate first, then one estimate per
    source that succeeded, in frame order; the coordinator's weights follow
    the same order; no array they hold grows with a site's sample size.
    ``failures`` maps each failed source to its error. ``ledger`` logs every
    cross-site message of the round, the config broadcast first; the combine
    step sends none, and reads the ``candidates`` of the config the phase ran.
    """

    estimates: list
    ledger: list
    failures: dict
    candidates: dict


def run_sites(transport: Transport, config: ProtocolConfig) -> SitePhase:
    """Run every site's candidate work on ``transport``: config broadcast,
    nuisance fits, source uploads and the target's own estimate, which is
    not a message.

    Reads ``config.seed`` and ``config.candidates``, never the weighting
    scheme, so one site phase serves every scheme, and one transport serves
    every candidate group. The ledger logs the config broadcast, then each
    source's moment summary and upload in frame order. Sources whose tilt
    failed in the transport, or that raise a model-fitting or missing-column
    error here, are recorded in ``failures`` and left out. Raises
    ``ValueError`` if ``config.seed`` is not the seed the transport drew its
    folds with.
    """
    if config.seed != transport.seed:
        raise ValueError(f"config seed {config.seed} differs from the transport seed "
                         f"{transport.seed} the CV folds were drawn with")
    target = transport.target
    ledger: list[MessageRecord] = []
    if transport.sources:
        ledger.append(
            MessageRecord(
                from_site=target.site_id,
                to_site="*",
                kind="config",
                payload_text=json.dumps(config.to_dict()),
            )
        )
    failures: dict[str, str] = {}
    estimates = []

    for src in transport.sources:
        ledger.append(src.message)
        site_id = src.frame.site_id
        if src.failure is not None:
            failures[site_id] = src.failure
            continue
        try:
            report, _ = source_report(src.frame, _fit_site(src.frame, config), src.tilt,
                                      src.folds)
        except FedcausalError as exc:
            failures[site_id] = f"{type(exc).__name__}: {exc}"
            continue
        upload = MessageRecord(
            from_site=site_id,
            to_site=target.site_id,
            kind="site_estimate",
            payload_text=report.to_json(),
        )
        ledger.append(upload)
        estimates.append(complete_source_estimate(
            upload.from_site, SourceSiteReport.from_json(upload.payload_text)))

    tgt_est = estimate_target(target, _fit_site(target, config), transport.target_centered,
                              transport.target_folds)
    return SitePhase(estimates=[tgt_est] + estimates, ledger=ledger, failures=failures,
                     candidates=config.candidates)


def combine(sites: SitePhase, method: str) -> GlobalReport:
    """Coordinator step: weight the site estimates by ``method``.

    Sends no message: the report's ledger is a copy of the site phase's.
    Leaves ``sites`` unchanged, so one site phase can be combined under
    several weighting schemes; reads no seed or per-unit value and draws
    nothing. The report's ``effective_method`` names what ran: a round with
    the target estimate alone uses the target-only weights, with a warning if
    sources were configured and every one failed, and either adaptive name is
    ``aipw_l1`` when every candidate group of ``sites`` holds one feature map
    and ``mr_l1`` otherwise.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    estimates = sites.estimates
    n_sources = len(estimates) - 1 + len(sites.failures)
    if len(estimates) == 1 and n_sources:
        warnings.warn(
            "all source sites failed; falling back to the target-only estimate",
            AllSourcesFailedWarning,
            stacklevel=2,
        )
    effective = "target" if len(estimates) == 1 else method
    if effective in ADAPTIVE_METHODS:
        effective = "aipw_l1" if all(len(maps) == 1 for groups in sites.candidates.values()
                                     for maps in groups.values()) else "mr_l1"
        solution = cross_validate_lambda(estimates)
    else:
        solution = combine_fixed(estimates, effective)

    result = global_estimate(estimates, solution, method)
    result.privacy_ledger = list(sites.ledger)
    result.diagnostics = {
        "n_sites": n_sources + 1,
        "n_sources": n_sources,
        "n_sources_used": len(estimates) - 1,
        "failed_sources": dict(sites.failures),
        "effective_method": effective,
    }
    return result


def run_round(frames: list[SiteFrame], config: ProtocolConfig) -> GlobalReport:
    """Execute one federated round and return the coordinator's report.

    The round is the transport (:func:`run_transport`), the site phase
    (:func:`run_sites`) and the coordinator's combine step (:func:`combine`);
    sources that fail are listed in the report diagnostics. An adaptive round
    over more than ``federation.MAX_SOURCES`` source frames raises
    :class:`TooManySources` before any site work.
    """
    if config.method in ADAPTIVE_METHODS:
        check_adaptive_sources(sum(f.role == "source" for f in frames))
    transport = run_transport(frames, config.seed)
    return combine(run_sites(transport, config), config.method)


def _check_shape(value, spec, dims: dict, where: str) -> None:
    """Raise :class:`PrivacyViolation` unless ``value`` has the declared shape."""
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            raise PrivacyViolation(f"{where} is not an object")
        extra = set(value) - set(spec)
        if extra:
            raise PrivacyViolation(f"undeclared keys {sorted(extra)} in {where}")
        for key, item in value.items():
            _check_shape(item, spec[key], dims, f"{where}.{key}")
    elif spec == "maps":
        try:
            maps = [FeatureMap.from_dict(d) for d in value]
            ok = value == [fm.to_dict() for fm in maps] and is_candidate_list(maps)
        except (KeyError, TypeError, ValueError):
            ok = False
        if not ok:
            raise PrivacyViolation(f"{where} is not a list of candidate feature maps")
    elif spec.startswith("["):
        if not (isinstance(value, list) and all(map(_is_number, value))):
            raise PrivacyViolation(f"{where} is not a flat list of finite numbers")
        size = dims.get(spec[1:-1])
        if len(value) != size:
            raise PrivacyViolation(
                f"{where} has length {len(value)}; its declared {spec} is {size}"
            )
    elif not _SCALARS[spec](value):
        raise PrivacyViolation(f"{where} is not a {spec}")


def _declared_dims(payloads: list) -> dict:
    """Protocol dimensions: the fixed split count, and the shared dimension,
    the length of a round's moment summaries' ``mean_v``, which must be 1 to
    ``MAX_COLUMNS`` (:func:`~fedcausal.nuisance.is_shared_dimension`)."""
    dims = {"cv_splits": CV_SPLITS}
    for kind, payload in payloads:
        if kind != "moment_summary":
            continue
        mean_v = payload.get("mean_v")
        if not (isinstance(mean_v, list) and is_shared_dimension(len(mean_v))):
            raise PrivacyViolation(
                f"moment summary has no list of 1 to {MAX_COLUMNS} shared covariate means")
        if dims.setdefault("shared", len(mean_v)) != len(mean_v):
            raise PrivacyViolation("moment summaries disagree on the shared dimension")
    return dims


def audit_ledger(report: GlobalReport) -> dict:
    """Validate every logged message against the declared payload schemas.

    Raises :class:`PrivacyViolation` on an unknown message kind, a
    digest/size mismatch, an undeclared payload key, or a value whose shape
    differs from its declaration: above all, any numeric list whose length is
    not the declared protocol dimension (so per-unit arrays never pass).
    Otherwise returns a census of message counts and byte totals per kind.
    """
    by_kind: dict[str, dict] = {}
    payloads = []
    for rec in report.privacy_ledger:
        if rec.kind not in _SCHEMAS:
            raise PrivacyViolation(f"unknown message kind {rec.kind!r}")
        if _sha256(rec.payload_text) != rec.payload_digest:
            raise PrivacyViolation(f"payload digest mismatch on a {rec.kind} message")
        try:
            payload = json.loads(rec.payload_text)
        except json.JSONDecodeError as exc:
            raise PrivacyViolation(f"non-JSON payload on a {rec.kind} message") from exc
        if not isinstance(payload, dict):
            raise PrivacyViolation(f"payload of a {rec.kind} message is not an object")
        payloads.append((rec.kind, payload))
        bucket = by_kind.setdefault(rec.kind, {"count": 0, "bytes": 0})
        bucket["count"] += 1
        bucket["bytes"] += rec.payload_bytes
    dims = _declared_dims(payloads)
    for kind, payload in payloads:
        _check_shape(payload, _SCHEMAS[kind], dims, f"a {kind} message")
    return {
        "n_messages": len(report.privacy_ledger),
        "by_kind": by_kind,
    }


def dump_ledger(records: list[MessageRecord], path) -> None:
    """Write one JSON object per message to ``path`` (JSONL)."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_dict()) + "\n")
