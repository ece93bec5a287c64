"""The wire's one text for a payload value, and the one codec of a payload.

Every cross-site payload is written by :func:`wire_text`: JSON with sorted
keys, no optional whitespace and Python's shortest round-trip float text.
Each value has exactly one text, so ``json.loads`` gives the value back and a
payload's size is a function of the values it declares; the ledger audit
accepts no other text (:func:`~fedcausal.fedruntime.audit_ledger`). A summary
payload is a dataclass whose field names are its wire keys:
:func:`payload_text` writes it and :func:`read_payload` reads it back.
"""

from __future__ import annotations

import json
from dataclasses import fields

import numpy as np

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


def read_payload(cls, text: str):
    """The ``cls`` payload that :func:`payload_text` wrote as ``text``, each
    list read back as a float array; a missing or extra key raises
    :class:`TypeError`."""
    return cls(**{key: np.asarray(value, dtype=float) if isinstance(value, list) else value
                  for key, value in json.loads(text).items()})
