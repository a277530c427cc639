"""The paranoid-mode switch and mutation hook, as an import leaf.

Mutating methods across the tree (``THFile.insert``,
``DurableFile.put_many``, ``TrieImage.patch``...) call
:func:`maybe_audit` so paranoid runs re-verify the structure at the op
that corrupted it. Those modules sit *below* :mod:`repro.check.framework`
in the import graph (the framework needs ``repro.core.errors``, and the
``repro.check`` package body registers every audit), so the hook lives
here with no imports beyond :mod:`os` — a structure module can import it
at module level in any import order. The framework machinery loads
lazily on the first paranoid hit.

Reentrancy: a ``PARANOID`` audit may re-derive state by replaying
records through a *fresh* structure, whose own mutators call this hook
again. The in-flight guard makes nested calls no-ops, so an audit can
use the very structures it audits without recursing.
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = ["maybe_audit", "paranoid_enabled", "set_paranoid"]

_TRUTHY = ("1", "true", "yes", "on")

#: The dict ``os.environ`` writes through to, and the flag's key in it.
#: A membership test here sees every run-time ``setenv``/``delenv`` and
#: raises nothing, where ``os.environ.get`` raises and catches a
#: ``KeyError`` inside for an unset name (about 1 us per call).
_ENVIRON = os.environ._data
_FLAG = os.environ.encodekey("REPRO_PARANOID")

#: Tri-state programmatic override: None defers to the environment.
_paranoid_override: Optional[bool] = None

#: Non-zero while an audit is running (the reentrancy guard).
_active = 0


def set_paranoid(enabled: Optional[bool]) -> None:
    """Force paranoid mode on/off; ``None`` defers to ``REPRO_PARANOID``."""
    global _paranoid_override
    _paranoid_override = enabled


def paranoid_enabled() -> bool:
    """Is paranoid auditing active (override first, then the env var)?"""
    if _paranoid_override is not None:
        return _paranoid_override
    if _FLAG not in _ENVIRON:
        return False
    return os.environ.get("REPRO_PARANOID", "").strip().lower() in _TRUTHY


def maybe_audit(obj: object, context: str = "", *args: object) -> None:
    """Paranoid hook for mutation sites: audit ``obj`` when enabled.

    No-op unless paranoid mode is on; objects with no registered audit
    are skipped (harnesses can call this on anything they touch), as
    are calls made from inside a running audit.
    Raises :class:`~repro.check.framework.ParanoidAuditError` when the
    audit is not ok, naming the site as ``context % args``: the site
    passes its operands (``maybe_audit(self, "THFile.put(%r)", key)``)
    and the string is built only for a failing audit.
    """
    global _active
    if _active or not paranoid_enabled():
        return
    from . import framework  # deferred: the hook sits below the framework

    fn = framework.find_audit(type(obj))
    if fn is None:
        return
    _active += 1
    try:
        report = framework.audit(obj, framework.AuditLevel.PARANOID)
    finally:
        _active -= 1
    if not report.ok:
        # Black-box the failure site: dump the flight recorder's recent
        # events (with the report attached) before the error surfaces —
        # a no-op unless a forensics directory is configured.
        from ..obs.flight import FLIGHT

        FLIGHT.dump("paranoid-audit", extra=report.as_dict())
        raise framework.ParanoidAuditError(
            report, context=context % args if args else context
        )
