"""The wire's one text for a payload value.

Every cross-site payload is written by :func:`wire_text`: JSON with sorted
keys, no optional whitespace and Python's shortest round-trip float text.
Each value has exactly one text, so ``json.loads`` gives the value back and a
payload's size is a function of the values it declares; the ledger audit
accepts no other text (:func:`~fedcausal.fedruntime.audit_ledger`).
"""

from __future__ import annotations

import json

_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)


def wire_text(value) -> str:
    """The canonical minimal JSON text of ``value``."""
    return _ENCODER.encode(value)
