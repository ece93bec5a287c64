"""Single-round simulated federation over in-memory site frames.

The target site acts as coordinator. One round is a transport
(:func:`run_transport`: the target's moment summary, logged as one message
to each source, each source's density-ratio tilt, and, when an adaptive
method will combine it, every site's cross-validation folds, none of which
depends on a candidate model), a site phase on that transport
(:func:`run_sites`: the config broadcast of the seed, the transport's split
count and the sources' candidate models, one summary-level upload per source
holding its finished estimate, and the target's own estimate, which stays at
the target), after which the coordinator forms the global combination
(:func:`combine`), whose one setting is the weighting scheme: it reads
fixed-size summaries and the candidate groups from the site phase, and no
seed. So one transport serves every candidate group, and one site phase
every weighting scheme. The scheme and the target's candidate models stay
with the coordinator, and the penalty grid and the CI level are protocol
constants (:data:`~fedcausal.federation.LAMBDA_GRID`, ``ALPHA``): no message
carries them, and the site phase never reads the scheme. Every cross-site
payload is written at the boundary as canonical minimal JSON
(:func:`~fedcausal.wire.wire_text`), the one text of its values, and every
cross-site message is logged so the ledger can be audited: the audit accepts
no other text, and only the declared summary-level schemas may cross sites,
never individual rows or any per-unit value. Every message is decoded on the
receiving side: a source reads the config broadcast by the audit's one rule for
a payload text (:func:`source_upload`), and only its folds from the transport.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
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
    site_split_seed,
    source_report,
    split_masks,
)
from .wire import wire_text

METHODS = FIXED_SCHEMES + ADAPTIVE_METHODS

# Declared shape of every payload key each message kind carries: a scalar
# ("count", an int that a JSON double holds exactly, in [0, 2**53), or
# "number", a finite float), "maps" (1 to ``MAX_CANDIDATES`` distinct
# candidate feature maps, each subset column below ``MAX_COLUMNS``),
# "[dim]" (a flat list of finite floats whose length is the protocol
# dimension ``dim``), or an object of fixed keys, all of them sent, so no
# payload has a free-text key. The shared dimension q is the length of the
# moment summaries' ``mean_v``, the target's means of its shared covariates, 1
# to ``MAX_COLUMNS`` (``nuisance.is_shared_dimension``, which ``SiteFrame``
# applies through ``is_column_list``), and also the length of a source's one
# target-influence slope vector (``target_coef``); a source upload carries its
# two finished arm means and sums its squared contributions once over all its
# units (``own_sq``) and once per fit half of the split count cv_splits the
# config broadcast declares (``fit_sq``): ``CV_SPLITS`` when an adaptive method
# will combine the round, else 0, and no other value. No dimension depends on a
# site's sample size, so no per-unit values pass the audit, and no payload
# names its sender: the ledger's ``from_site`` does.
_SCHEMAS = {
    "config": {"seed": "count", "cv_splits": "count",
               "candidates": {"treatment": "maps", "outcome": "maps"}},
    "moment_summary": {"mean_v": "[shared]"},
    "site_estimate": {
        "n_k": "count", "mu0": "number", "mu1": "number",
        "own_sq": "number", "fit_sq": "[cv_splits]", "target_coef": "[shared]",
    },
}


def _text_bound(spec, dims: dict) -> int:
    """Most characters a canonical text of declared shape ``spec`` can take
    at the protocol dimensions ``dims``: 24 per number (the longest
    shortest-round-trip double, ``-2.2250738585072014e-308``), 16 per count
    (``2**53 - 1``), a map list's ``MAX_CANDIDATES`` maps at the widest
    map's text, and the key and punctuation text."""
    if isinstance(spec, dict):
        return 1 + sum(len(wire_text(key)) + 2 + _text_bound(item, dims)
                       for key, item in spec.items())
    if spec == "maps":
        widest = max(len(wire_text(fm.to_dict())) for fm in (
            FeatureMap("raw"), FeatureMap("kangschafer"),
            FeatureMap("subset", tuple(range(MAX_COLUMNS)))))
        return 1 + MAX_CANDIDATES * (widest + 1)
    if spec.startswith("["):
        return 1 + dims[spec[1:-1]] * 25
    return {"number": 24, "count": 16}[spec]


# Most characters a payload text of each kind can hold, at the largest
# protocol dimensions (``MAX_COLUMNS`` shared covariates, ``CV_SPLITS``
# fit halves): the audit rejects a longer text before it reads it.
TEXT_BOUNDS = {kind: _text_bound(spec, {"shared": MAX_COLUMNS, "cv_splits": CV_SPLITS})
               for kind, spec in _SCHEMAS.items()}


def _is_number(value) -> bool:
    return isinstance(value, float) and math.isfinite(value)


def is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value < 2**53


def is_method_list(methods) -> bool:
    """Whether ``methods`` is a non-empty tuple of distinct names from :data:`METHODS`."""
    return (isinstance(methods, tuple) and all(m in METHODS for m in methods)
            and 0 < len(methods) == len(set(methods)))


_SCALARS = {"count": is_count, "number": _is_number}


@dataclass(frozen=True)
class MessageRecord:
    """One logged cross-site message with its payload text, which the
    sender writes with :func:`~fedcausal.wire.wire_text` and the audit
    accepts in no other form.

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
            object.__setattr__(self, "payload_digest",
                               hashlib.sha256(self.payload_text.encode("utf-8")).hexdigest())

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
    (:class:`~fedcausal.nuisance.FeatureMap`), the lists the audit takes. Its
    part of the broadcast (:meth:`to_dict`) is ``seed`` and the source group,
    all of it that the sources read; the target's group and ``method`` stay
    with the coordinator, and only :func:`run_round` reads ``method``.
    """

    candidates: dict
    method: str = "mr_l1"
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not is_count(self.seed):
            raise ValueError(f"seed must be an int in [0, 2**53), got {self.seed!r}")
        groups = self.candidates
        if not (isinstance(groups, dict) and set(groups) == {"target", "source"}
                and all(isinstance(group, dict) and set(group) == {"treatment", "outcome"}
                        and all(map(is_candidate_list, group.values()))
                        for group in groups.values())):
            raise ValueError('candidates must be {"target", "source"} groups of '
                             '{"treatment", "outcome"} non-empty feature map lists of at '
                             f'most {MAX_CANDIDATES} distinct maps')

    def to_dict(self) -> dict:
        """The config's part of the broadcast: what the sources read of it."""
        return {
            "seed": self.seed,
            "candidates": {role: [fm.to_dict() for fm in maps]
                           for role, maps in self.candidates["source"].items()},
        }


def _fit_site(frame: SiteFrame, group: dict, seed: int) -> NuisanceFit:
    """Fit a site's nuisance models on its own data, with the candidate
    ``group`` and the round's ``seed``."""
    return fit_nuisances(frame.site_id, frame.X, frame.y, frame.a, group["treatment"],
                         group["outcome"], seed=site_split_seed(seed, frame.site_id))


@dataclass(frozen=True)
class SourceTransport:
    """One source's candidate-free work: the moment-summary message it
    received, and the tilt it solved on the decoded summary and its CV folds
    (:func:`~fedcausal.site_estimator.split_masks`, shape (cv_splits, n)), or
    the error that failed its tilt (``tilt`` and ``folds`` are then None)."""

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
    every fold set drawn with ``seed``. Every site holds ``cv_splits`` fold
    masks: ``CV_SPLITS`` if the transport serves an adaptive method, else
    none, so its fold sets have shape (0, n). The folds are the one source
    input not read from a broadcast text: every phase on the transport
    broadcasts its ``seed`` and ``cv_splits``."""

    target: SiteFrame
    target_folds: np.ndarray
    target_centered: np.ndarray
    sources: list
    seed: int

    @property
    def cv_splits(self) -> int:
        return len(self.target_folds)


def run_transport(frames: list[SiteFrame], seed: int, methods=METHODS) -> Transport:
    """Run the candidate-free site work for the weighting ``methods`` that
    will combine it (by default every method): the target's moment summary,
    its shared covariates centered by those means, and each source's tilt.
    Only the adaptive methods read CV folds, so only when ``methods`` holds
    one does every site draw its ``CV_SPLITS`` fold masks, each by
    :func:`~fedcausal.site_estimator.split_masks` with ``seed``; otherwise
    no site draws any. Each solved tilt's weights are checked here, once per
    transport (:func:`~fedcausal.density_ratio.truncate_weights`).

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
    if not is_method_list(tuple(methods)):
        raise ValueError(f"methods must be a non-empty list of distinct names from {METHODS}, "
                         f"got {methods!r}")
    splits = CV_SPLITS if any(m in ADAPTIVE_METHODS for m in methods) else 0

    def folds(frame: SiteFrame) -> np.ndarray:
        return (split_masks(frame.n, seed, frame.site_id) if splits
                else np.zeros((0, frame.n), dtype=bool))

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
        sources.append(SourceTransport(src, message, tilt, folds(src), None))
    return Transport(target=target, target_folds=folds(target),
                     target_centered=target.V - summary.mean_v, sources=sources, seed=seed)


def source_upload(src: SourceTransport, config_text: str) -> str:
    """One source's upload text in a site phase, from its frame, tilt and CV
    folds and the config broadcast text it received, which it reads by the
    audit's own rule (:func:`_read_payload`, the split count and the config
    schema): a text the audit rejects raises :class:`PrivacyViolation` before
    any fit, and the fits take the seed and the feature maps that rule built."""
    payload = _read_payload("config", config_text)
    config = _check_shape(payload, _SCHEMAS["config"], _declared_dims([("config", payload)]),
                          "a config message")
    fit = _fit_site(src.frame, config["candidates"], config["seed"])
    return source_report(src.frame, fit, src.tilt, src.folds)[0].to_json()


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


def run_sites(transport: Transport, candidates: dict) -> SitePhase:
    """Run every site's candidate work on ``transport``: config broadcast,
    nuisance fits, source uploads and the target's own estimate, which is
    not a message.

    ``candidates`` are the ``{"target": group, "source": group}`` groups a
    :class:`ProtocolConfig` takes; the seed is the transport's, the round's
    one seed. No weighting scheme is read, so one site phase serves every
    scheme, and one transport serves every candidate group. The config
    broadcast declares the transport's seed and split count (``cv_splits``),
    so each upload's ``fit_sq`` has that length; each source reads its
    candidates and nuisance seed from that text (:func:`source_upload`). The
    ledger logs the config broadcast, then each source's moment summary and
    upload in frame order.
    Sources whose tilt failed in the transport, or that raise a model-fitting
    or missing-column error here, are recorded in ``failures`` and left out.
    """
    config = ProtocolConfig(candidates, seed=transport.seed)
    target = transport.target
    broadcast = MessageRecord(target.site_id, "*", "config", wire_text(
        {**config.to_dict(), "cv_splits": transport.cv_splits}))
    ledger = [broadcast] if transport.sources else []
    failures: dict[str, str] = {}
    estimates = []

    for src in transport.sources:
        ledger.append(src.message)
        site_id = src.frame.site_id
        if src.failure is not None:
            failures[site_id] = src.failure
            continue
        try:
            upload = MessageRecord(site_id, target.site_id, "site_estimate",
                                   source_upload(src, broadcast.payload_text))
        except FedcausalError as exc:
            failures[site_id] = f"{type(exc).__name__}: {exc}"
            continue
        ledger.append(upload)
        estimates.append(complete_source_estimate(
            site_id, SourceSiteReport.from_json(upload.payload_text)))

    tgt_fit = _fit_site(target, config.candidates["target"], transport.seed)
    tgt_est = estimate_target(target, tgt_fit, transport.target_centered, transport.target_folds)
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
    and ``mr_l1`` otherwise. The adaptive weights read every site's CV
    folds, so weighting the sources of a transport that drew none by an
    adaptive method raises the weight solver's ``ValueError``
    (:func:`~fedcausal.federation.cross_validate_lambda`).
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
    transport = run_transport(frames, config.seed, (config.method,))
    return combine(run_sites(transport, config.candidates), config.method)


def _read_payload(kind: str, text: str, digest: str | None = None) -> dict:
    """The payload of a ``kind`` message whose text is ``text``, by the one
    rule for a payload text, which the audit applies to every logged message
    and a source to the config broadcast it receives; ``digest`` is checked
    when given. The bound (:data:`TEXT_BOUNDS`) is checked before the text is
    hashed or parsed, so no size of text costs more than the bound to reject,
    and only the canonical text of the values (:func:`~fedcausal.wire.wire_text`)
    passes, so no whitespace, digit or escape carries anything they do not."""
    size, bound = len(text), TEXT_BOUNDS[kind]
    if size > bound:
        raise PrivacyViolation(f"payload text of a {kind} message holds {size} "
                               f"characters, over its bound of {bound}")
    try:
        encoded = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise PrivacyViolation(f"payload text of a {kind} message is not UTF-8 encodable") from exc
    if digest is not None and hashlib.sha256(encoded).hexdigest() != digest:
        raise PrivacyViolation(f"payload digest mismatch on a {kind} message")
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise PrivacyViolation(f"non-JSON payload on a {kind} message") from exc
    if text != wire_text(payload):
        raise PrivacyViolation(f"non-canonical payload text on a {kind} message")
    if not isinstance(payload, dict):
        raise PrivacyViolation(f"payload of a {kind} message is not an object")
    return payload


def _check_shape(value, spec, dims: dict, where: str):
    """``value``, each "maps" list as its :class:`~fedcausal.nuisance.FeatureMap`
    list; raise :class:`PrivacyViolation` unless it has the declared shape."""
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            raise PrivacyViolation(f"{where} is not an object")
        extra = set(value) - set(spec)
        if extra:
            raise PrivacyViolation(f"undeclared keys {sorted(extra)} in {where}")
        missing = set(spec) - set(value)
        if missing:
            raise PrivacyViolation(f"missing keys {sorted(missing)} in {where}")
        return {key: _check_shape(item, spec[key], dims, f"{where}.{key}")
                for key, item in value.items()}
    if spec == "maps":
        try:
            maps = [FeatureMap.from_dict(d) for d in value]
            ok = value == [fm.to_dict() for fm in maps] and is_candidate_list(maps)
        except (KeyError, TypeError, ValueError):
            ok = False
        if not ok:
            raise PrivacyViolation(f"{where} is not a list of candidate feature maps")
        return maps
    if spec.startswith("["):
        if not (isinstance(value, list) and all(map(_is_number, value))):
            raise PrivacyViolation(f"{where} is not a flat list of finite numbers")
        size = dims.get(spec[1:-1])
        if len(value) != size:
            raise PrivacyViolation(
                f"{where} has length {len(value)}; its declared {spec} is {size}"
            )
    elif not _SCALARS[spec](value):
        raise PrivacyViolation(f"{where} is not a {spec}")
    return value


def _declared_dims(payloads: list) -> dict:
    """Protocol dimensions: the split count the config broadcast declares,
    0 or ``CV_SPLITS``, and the shared dimension, the length of a round's
    moment summaries' ``mean_v``, which must be 1 to ``MAX_COLUMNS``
    (:func:`~fedcausal.nuisance.is_shared_dimension`)."""
    dims = {}
    for kind, payload in payloads:
        if kind == "config" and "cv_splits" in payload:
            splits = payload["cv_splits"]
            if not (is_count(splits) and splits in (0, CV_SPLITS)):
                raise PrivacyViolation(
                    f"config declares cv_splits {splits!r}; the protocol takes 0 or {CV_SPLITS}")
            if dims.setdefault("cv_splits", splits) != splits:
                raise PrivacyViolation("config broadcasts disagree on the split count")
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

    Raises :class:`PrivacyViolation` on an unknown message kind, a text that
    fails the one rule for a payload text, by which a source also reads the
    config broadcast (:func:`_read_payload`: the bound, UTF-8, the logged
    digest, JSON, canonical text, an object), an undeclared or missing payload
    key, or a value whose shape differs from its declaration: above all, any
    numeric list whose length is not the declared protocol dimension (so
    per-unit arrays never pass), such as an upload whose ``fit_sq`` is not as
    long as the config's ``cv_splits``. Otherwise returns a census of message
    counts and byte totals per kind.
    """
    by_kind: dict[str, dict] = {}
    payloads = []
    for rec in report.privacy_ledger:
        if rec.kind not in _SCHEMAS:
            raise PrivacyViolation(f"unknown message kind {rec.kind!r}")
        payloads.append((rec.kind, _read_payload(rec.kind, rec.payload_text, rec.payload_digest)))
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
