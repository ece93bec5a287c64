"""The wire's one text for a payload value, and the one reader of a payload text.

Every cross-site payload is written by :func:`wire_text`: JSON with sorted
keys, no optional whitespace and Python's shortest round-trip float text.
Each value has exactly one text, so ``json.loads`` gives the value back and a
payload's size is a function of the values it declares. A summary payload is
a dataclass whose field names are its wire keys: :func:`payload_text` writes
it. Every site reads each text it receives, and the ledger audit each logged
text, by one rule, :func:`read_payload`, so no site acts on a text the audit
refuses.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import fields

import numpy as np

from .errors import PrivacyViolation
from .nuisance import (CV_SPLITS, MAX_CANDIDATES, MAX_COLUMNS, FeatureMap, is_candidate_list,
                       is_shared_dimension)

_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)


def wire_text(value) -> str:
    """The canonical minimal JSON text of ``value``."""
    return _ENCODER.encode(value)


def payload_text(payload) -> str:
    """The wire text of the dataclass ``payload``: each field under its own
    name, an array field as a list of floats."""
    values = {f.name: getattr(payload, f.name) for f in fields(payload)}
    return wire_text({key: list(map(float, value)) if isinstance(value, np.ndarray) else value
                      for key, value in values.items()})


def _is_number(value) -> bool:
    return isinstance(value, float) and math.isfinite(value)


def is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value < 2**53


_SCALARS = {"count": is_count, "number": _is_number}

# Declared shape of every payload key each message kind carries: a scalar
# ("count", an int that a JSON double holds exactly, in [0, 2**53), or
# "number", a finite float), "maps" (1 to ``MAX_CANDIDATES`` distinct
# candidate feature maps, each subset column below ``MAX_COLUMNS``),
# "[dim]" (a flat list of finite floats whose length is the protocol
# dimension ``dim``), or an object of fixed keys, all of them sent, so no
# payload has a free-text key. The shared dimension q is the length of the
# moment summaries' ``mean_v``, the target's means of its shared covariates, 1
# to ``MAX_COLUMNS`` (``nuisance.is_shared_dimension``), and also the length
# of a source's one target-influence slope vector (``target_coef``); a source
# upload carries its two finished arm means and sums its squared contributions
# once over all its units (``own_sq``) and once per fit half of the split
# count cv_splits the config broadcast declares (``fit_sq``): ``CV_SPLITS``
# when an adaptive method will combine the round, else 0, and no other value.
# No dimension depends on a site's sample size, so no per-unit values pass the
# audit, and no payload names its sender: the ledger's ``from_site`` does.
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


# Most characters a payload text of each kind can hold, at the largest protocol
# dimensions (``MAX_COLUMNS`` shared covariates, ``CV_SPLITS`` fit halves).
TEXT_BOUNDS = {kind: _text_bound(spec, {"shared": MAX_COLUMNS, "cv_splits": CV_SPLITS})
               for kind, spec in _SCHEMAS.items()}


def read_payload(kind: str, text: str, cls=dict, digest: str | None = None):
    """The payload of a ``kind`` message whose text is ``text``, as
    ``cls(**payload)``, each list of numbers a float array and each "maps"
    list its :class:`~fedcausal.nuisance.FeatureMap` list, by the one rule for
    a payload text, in order: the bound (:data:`TEXT_BOUNDS`), before the text
    is hashed or parsed, so no text costs more than the bound to reject;
    UTF-8; the SHA-256 ``digest`` when given; JSON; the canonical text of its
    values, so no whitespace, digit or escape carries anything they do not; an
    object; the dimensions it declares (:func:`_check_dims`); the declared
    shape. Any other text raises :class:`PrivacyViolation`."""
    if kind not in _SCHEMAS:
        raise PrivacyViolation(f"unknown message kind {kind!r}")
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
    _check_dims(kind, payload)
    return cls(**_check_shape(payload, _SCHEMAS[kind], f"a {kind} message"))


def _check_dims(kind: str, payload: dict) -> None:
    """Raise :class:`PrivacyViolation` unless the protocol takes the
    dimensions a ``kind`` payload declares: a config's ``cv_splits`` or the
    length of ``fit_sq`` is 0 or ``CV_SPLITS``, and the length of ``mean_v``
    or ``target_coef`` is 1 to ``MAX_COLUMNS``. A list that is not there
    declares nothing: the shape check names it."""
    dims = {spec[1:-1]: len(payload[key]) for key, spec in _SCHEMAS[kind].items()
            if spec in ("[shared]", "[cv_splits]") and isinstance(payload.get(key), list)}
    splits = payload.get("cv_splits", 0) if kind == "config" else dims.get("cv_splits", 0)
    if not (is_count(splits) and splits in (0, CV_SPLITS)):
        raise PrivacyViolation(
            f"{kind} declares cv_splits {splits!r}; the protocol takes 0 or {CV_SPLITS}")
    if not is_shared_dimension(dims.get("shared", 1)):
        raise PrivacyViolation(
            f"{kind} has no list of 1 to {MAX_COLUMNS} shared covariate values")


def _check_shape(value, spec, where: str):
    """``value``, each list of numbers as a float array and each "maps" list
    as its :class:`~fedcausal.nuisance.FeatureMap` list; raise
    :class:`PrivacyViolation` unless it has the declared shape."""
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            raise PrivacyViolation(f"{where} is not an object")
        extra = set(value) - set(spec)
        if extra:
            raise PrivacyViolation(f"undeclared keys {sorted(extra)} in {where}")
        missing = set(spec) - set(value)
        if missing:
            raise PrivacyViolation(f"missing keys {sorted(missing)} in {where}")
        return {key: _check_shape(item, spec[key], f"{where}.{key}")
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
        return np.asarray(value, dtype=float)
    if not _SCALARS[spec](value):
        raise PrivacyViolation(f"{where} is not a {spec}")
    return value
