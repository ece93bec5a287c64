"""Single-round simulated federation over in-memory site frames.

The target site acts as coordinator. One round consists of a configuration
broadcast and a site phase (:func:`run_sites`: a moment-summary broadcast from
the target, one summary-level upload per source, and the target's own
estimate), after which the coordinator forms the global combination
(:func:`combine`). The site phase never reads the weighting scheme. Every
cross-site payload is serialized to JSON at the boundary and decoded on the
receiving side, and every message is logged so the ledger can be audited: only
the declared summary-level schemas may cross sites, never individual rows or
any per-unit value.
"""

from __future__ import annotations

import hashlib
import json
import warnings
import zlib
from dataclasses import dataclass, field

from .density_ratio import BasisSpec, MomentSummary, solve_tilt, target_moments
from .errors import (
    AllSourcesFailedWarning,
    FedcausalError,
    MissingTarget,
    PrivacyViolation,
)
from .federation import (
    DEFAULT_LAMBDA_GRID,
    GlobalReport,
    combine_fixed,
    cross_validate_lambda,
    global_estimate,
)
from .nuisance import DEFAULT_CLIP, CandidateSpec, NuisanceFit, fit_nuisances
from .site_estimator import (
    SiteFrame,
    SourceSiteReport,
    complete_source_estimate,
    estimate_target,
    source_report,
)

METHODS = ("target_only", "ss", "ivw", "aipw_l1", "mr_l1")
ADAPTIVE_METHODS = ("aipw_l1", "mr_l1")
MESSAGE_KINDS = ("config", "moment_summary", "site_estimate")

# Declared shape of every payload key each message kind may carry: a scalar
# ("text", "count", "number", "number?" for a nullable number), a nested
# schema, "scalars" (an object of scalars, such as diagnostics), "candidates"
# (the candidate model specs), or "[dim]": a flat numeric list whose length is
# the protocol dimension ``dim``. The lambda grid and n_splits are declared by
# the config broadcast, and the basis dimension by the moment summary, which
# also fixes the number of projection coefficients (one plus the shared
# covariates). No dimension depends on a site's sample size, so no per-unit
# array passes the audit.
_SCHEMAS = {
    "config": {
        "basis": "text", "method": "text", "alpha": "number",
        "lambda_grid": "[lambda_grid]", "n_splits": "count", "seed": "count",
        "train_fraction": "number", "clip": "[clip]", "kappa": "number?",
        "candidates": "candidates",
    },
    "moment_summary": {
        "site_id": "text", "n": "count", "basis": {"kind": "text", "d": "count"},
        "mean_basis": "[basis]",
    },
    "site_estimate": {
        # source upload
        "site_id": "text", "n_k": "count", "mu_own0": "number", "mu_own1": "number",
        "own_sq": "number", "fit_sq": "[n_splits]", "val_sq": "[n_splits]",
        "tau0": "[projection]", "tau1": "[projection]",
        "tilt_sens0": "[basis]", "tilt_sens1": "[basis]",
        "basis_kind": "text", "diagnostics": "scalars",
        # target's own estimate
        "mu0": "number", "mu1": "number", "n_T": "count",
    },
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_SCALARS = {
    "text": lambda v: isinstance(v, str),
    "count": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": _is_number,
    "number?": lambda v: v is None or _is_number(v),
}


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
    round: int
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
            "round": self.round,
            "bytes": self.payload_bytes,
            "digest": self.payload_digest,
        }


@dataclass(frozen=True)
class ProtocolConfig:
    """Round configuration broadcast by the coordinator.

    ``candidates`` maps site id to its treatment and outcome candidate model
    specs; sites absent from the map fall back to the ``"default"`` entry.
    """

    basis: BasisSpec
    candidates: dict
    method: str = "mr_l1"
    alpha: float = 0.05
    lambda_grid: tuple = DEFAULT_LAMBDA_GRID
    n_splits: int = 5
    seed: int = 0
    train_fraction: float = 0.5
    clip: tuple[float, float] = DEFAULT_CLIP
    kappa: float | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")

    def specs_for(self, site_id: str) -> dict:
        if site_id in self.candidates:
            return self.candidates[site_id]
        if "default" in self.candidates:
            return self.candidates["default"]
        raise ValueError(f"no candidate specs for site {site_id!r}")

    def to_dict(self) -> dict:
        return {
            "basis": self.basis.kind,
            "method": self.method,
            "alpha": self.alpha,
            "lambda_grid": list(self.lambda_grid),
            "n_splits": self.n_splits,
            "seed": self.seed,
            "train_fraction": self.train_fraction,
            "clip": list(self.clip),
            "kappa": self.kappa,
            "candidates": {
                site: {
                    role: [spec.to_dict() for spec in specs]
                    for role, specs in groups.items()
                }
                for site, groups in self.candidates.items()
            },
        }

    @staticmethod
    def from_dict(obj: dict) -> "ProtocolConfig":
        return ProtocolConfig(
            basis=BasisSpec(kind=obj["basis"]),
            candidates={
                site: {
                    role: [CandidateSpec.from_dict(d) for d in specs]
                    for role, specs in groups.items()
                }
                for site, groups in obj["candidates"].items()
            },
            method=obj["method"],
            alpha=float(obj["alpha"]),
            lambda_grid=tuple(obj["lambda_grid"]),
            n_splits=int(obj["n_splits"]),
            seed=int(obj["seed"]),
            train_fraction=float(obj["train_fraction"]),
            clip=tuple(obj["clip"]),
            kappa=obj.get("kappa"),
        )


def site_split_seed(seed: int, site_id: str) -> int:
    """Deterministic per-site seed for the train/validation split."""
    return (int(seed) * 1_000_003 + zlib.crc32(site_id.encode("utf-8"))) % (2**31)


def _fit_site(frame: SiteFrame, config: ProtocolConfig) -> NuisanceFit:
    """Fit a site's nuisance models on its own data."""
    specs = config.specs_for(frame.site_id)
    return fit_nuisances(
        frame.X,
        frame.y,
        frame.a,
        specs["treatment"],
        specs["outcome"],
        fraction=config.train_fraction,
        seed=site_split_seed(config.seed, frame.site_id),
        kappa=config.kappa,
        clip=config.clip,
    )


@dataclass(frozen=True)
class SitePhase:
    """The site work of one round, which no weighting scheme changes.

    ``estimates`` holds the target estimate first, then one estimate per
    source that succeeded; ``failures`` maps each failed source to its error.
    ``ledger`` logs the messages of the site phase; the config broadcast names
    the weighting scheme, so :func:`combine` logs it.
    """

    estimates: list
    ledger: list
    failures: dict


def run_sites(frames: list[SiteFrame], config: ProtocolConfig) -> SitePhase:
    """Run every site's local work: moment summary, tilts, nuisance fits,
    source uploads and the target's own estimate.

    Never reads ``config.method``, so one site phase serves every
    weighting scheme. Sources that raise a model-fitting or
    transport error are recorded in ``failures`` and left out.
    """
    targets = [f for f in frames if f.role == "target"]
    if len(targets) != 1:
        raise MissingTarget(f"expected exactly one target frame, got {len(targets)}")
    target = targets[0]
    sources = [f for f in frames if f.role == "source"]
    coordinator = target.site_id

    ledger: list[MessageRecord] = []
    summary_text = target_moments(target.V, config.basis, target.site_id).to_json()
    failures: dict[str, str] = {}
    estimates = []

    for src in sources:
        ledger.append(
            MessageRecord(
                from_site=coordinator,
                to_site=src.site_id,
                kind="moment_summary",
                round=0,
                payload_text=summary_text,
            )
        )
        summary = MomentSummary.from_json(summary_text)
        try:
            tilt = solve_tilt(src.V, summary, config.basis)
            report = source_report(
                src, _fit_site(src, config), tilt, config.seed, config.n_splits
            )
        except FedcausalError as exc:
            failures[src.site_id] = f"{type(exc).__name__}: {exc}"
            continue
        report_text = report.to_json()
        ledger.append(
            MessageRecord(
                from_site=src.site_id,
                to_site=coordinator,
                kind="site_estimate",
                round=0,
                payload_text=report_text,
            )
        )
        estimates.append(
            complete_source_estimate(SourceSiteReport.from_json(report_text), target)
        )

    tgt_est = estimate_target(target, _fit_site(target, config))
    if sources:
        ledger.append(
            MessageRecord(
                from_site=coordinator,
                to_site=coordinator,
                kind="site_estimate",
                round=0,
                payload_text=tgt_est.to_json(),
            )
        )
    return SitePhase(estimates=[tgt_est] + estimates, ledger=ledger, failures=failures)


def combine(sites: SitePhase, config: ProtocolConfig) -> GlobalReport:
    """Coordinator step: weight the site estimates by ``config.method``.

    Leaves ``sites`` unchanged, so one site phase can be combined under
    several weighting schemes. If every source failed the round degrades to
    the target-only estimate with a warning.
    """
    estimates = sites.estimates
    n_sources = len(estimates) - 1 + len(sites.failures)
    method = config.method
    if n_sources and len(estimates) == 1:
        warnings.warn(
            "all source sites failed; falling back to the target-only estimate",
            AllSourcesFailedWarning,
            stacklevel=2,
        )
        method = "target_only"
    if len(estimates) == 1:
        solution = combine_fixed(estimates, "target_only")
    elif method in ADAPTIVE_METHODS:
        solution = cross_validate_lambda(
            estimates, grid=config.lambda_grid, n_splits=config.n_splits, seed=config.seed
        )
    else:
        solution = combine_fixed(estimates, method)

    result = global_estimate(estimates, solution, alpha=config.alpha, method=config.method)
    broadcast = []
    if n_sources:
        broadcast.append(
            MessageRecord(
                from_site=estimates[0].site_id,
                to_site="*",
                kind="config",
                round=0,
                payload_text=json.dumps(config.to_dict()),
            )
        )
    result.privacy_ledger = broadcast + sites.ledger
    result.diagnostics = {
        "n_sites": n_sources + 1,
        "n_sources": n_sources,
        "n_sources_used": len(estimates) - 1,
        "failed_sources": dict(sites.failures),
        "effective_method": method,
    }
    return result


def run_round(frames: list[SiteFrame], config: ProtocolConfig) -> GlobalReport:
    """Execute one federated round and return the coordinator's report.

    The round is the site phase (:func:`run_sites`) followed by the
    coordinator's combine step (:func:`combine`); sources that fail are
    listed in the report diagnostics.
    """
    return combine(run_sites(frames, config), config)


def _check_shape(value, spec, dims: dict, where: str) -> None:
    """Raise :class:`PrivacyViolation` unless ``value`` has the declared shape."""
    if isinstance(spec, dict) or spec == "scalars":
        if not isinstance(value, dict):
            raise PrivacyViolation(f"{where} is not an object")
        extra = set(value) - set(spec) if isinstance(spec, dict) else set()
        if extra:
            raise PrivacyViolation(f"undeclared keys {sorted(extra)} in {where}")
        for key, item in value.items():
            if isinstance(spec, dict):
                _check_shape(item, spec[key], dims, f"{where}.{key}")
            elif isinstance(item, dict):
                _check_shape(item, "scalars", dims, f"{where}.{key}")
            elif not (item is None or isinstance(item, (str, bool)) or _is_number(item)):
                raise PrivacyViolation(f"{where}.{key} is not a scalar")
    elif spec == "candidates":
        try:
            ok = value == {
                site: {
                    role: [CandidateSpec.from_dict(d).to_dict() for d in specs]
                    for role, specs in groups.items()
                }
                for site, groups in value.items()
            }
        except (AttributeError, KeyError, TypeError, ValueError):
            ok = False
        if not ok:
            raise PrivacyViolation(f"{where} is not a map of candidate specs")
    elif spec.startswith("["):
        if not (isinstance(value, list) and all(map(_is_number, value))):
            raise PrivacyViolation(f"{where} is not a flat numeric list")
        size = dims.get(spec[1:-1])
        if len(value) != size:
            raise PrivacyViolation(
                f"{where} has length {len(value)}; its declared {spec} is {size}"
            )
    elif not _SCALARS[spec](value):
        raise PrivacyViolation(f"{where} is not a {spec}")


def _declared_dims(payloads: list) -> dict:
    """Protocol dimensions declared by a round's config and moment summaries."""
    dims = {"clip": 2}
    for kind, payload in payloads:
        if kind == "config":
            grid = payload.get("lambda_grid")
            found = {
                "lambda_grid": len(grid) if isinstance(grid, list) else None,
                "n_splits": payload.get("n_splits"),
            }
        elif kind == "moment_summary":
            try:
                basis = BasisSpec(payload["basis"]["kind"])
                p = payload["basis"]["d"]
                q = (p - 1) // (basis.dimension(1) - 1)
            except (KeyError, TypeError, ValueError) as exc:
                raise PrivacyViolation("moment summary declares no valid basis") from exc
            if q < 1 or basis.dimension(q) != p:
                raise PrivacyViolation(f"basis dimension {p} fits no covariate count")
            found = {"basis": p, "projection": q + 1}
        else:
            continue
        for name, size in found.items():
            if dims.setdefault(name, size) != size:
                raise PrivacyViolation(f"messages disagree on the {name} dimension")
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
        if rec.kind not in MESSAGE_KINDS:
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
