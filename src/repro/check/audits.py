"""The registered audits: every structure ``check()`` behind one API.

Each audit wraps the structure's existing invariant sweep (converting
raised :class:`AssertionError` / :class:`TrieHashingError` into
violations), adds cheap shape checks at ``BASIC`` level, and redundant
cross-verification at ``PARANOID``. Structure imports happen lazily
inside the audit bodies so registering the whole catalogue costs
nothing at import time and creates no package cycles.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from typing import Optional

from ..core.errors import TrieHashingError
from .framework import AuditLevel, Severity, Violation, register_audit

__all__ = ["audit_manifest"]


def _checked(
    fn: Callable[[], object],
    code: str,
    target: str,
    severity: Severity = Severity.CRITICAL,
) -> Optional[Violation]:
    """Run a check callable; a raised invariant error becomes a finding."""
    try:
        fn()
    except (AssertionError, TrieHashingError) as exc:
        return Violation(
            code=code,
            severity=severity,
            message=str(exc) or type(exc).__name__,
            target=target,
        )
    return None


def _emit(v: Optional[Violation]) -> Iterator[Violation]:
    if v is not None:
        yield v


# ----------------------------------------------------------------------
# Core structures
# ----------------------------------------------------------------------
@register_audit("repro.core.trie.Trie")
def audit_trie(obj, level: AuditLevel) -> Iterator[Violation]:
    if obj.cells.live_count() < 1:
        yield Violation(
            "AUD-TRIE-EMPTY",
            Severity.ERROR,
            "trie has no live cells (even an empty file keeps its root)",
            "Trie",
        )
    if level >= AuditLevel.FULL:
        yield from _emit(_checked(obj.check, "AUD-TRIE-STRUCT", "Trie"))


@register_audit("repro.core.compact.CompactTrie")
def audit_compact_trie(obj, level: AuditLevel) -> Iterator[Violation]:
    # Most-specific wins in the registry, so this audit *replaces* the
    # plain Trie audit for compact-backed files — rerun it, then add
    # the column-layout invariants the flat representation introduces.
    yield from audit_trie(obj, level)
    if level >= AuditLevel.FULL:
        yield from _emit(
            _checked(obj.check_columns, "AUD-COMPACT-COLUMNS", "CompactTrie")
        )
    if level >= AuditLevel.PARANOID:
        # Redundant cross-check: the raw column walk must agree with the
        # reference Algorithm A1 descent at every boundary of the
        # realised model (the points where a drifted column would bite).
        model = obj.to_model()
        for probe in [""] + list(model.boundaries):
            if obj.lookup(probe) != obj.search(probe).ptr:
                yield Violation(
                    "AUD-COMPACT-LOOKUP",
                    Severity.CRITICAL,
                    f"column walk maps {probe!r} to {obj.lookup(probe)} "
                    f"but the A1 descent says {obj.search(probe).ptr}",
                    "CompactTrie",
                )
                break


@register_audit("repro.core.boundaries.BoundaryModel")
def audit_boundary_model(obj, level: AuditLevel) -> Iterator[Violation]:
    if len(obj.children) != len(obj.boundaries) + 1:
        yield Violation(
            "AUD-MODEL-ARITY",
            Severity.CRITICAL,
            f"{len(obj.children)} children for {len(obj.boundaries)} boundaries",
            "BoundaryModel",
        )
        return
    if level >= AuditLevel.FULL:
        yield from _emit(
            _checked(obj.check, "AUD-MODEL-STRUCT", "BoundaryModel")
        )


@register_audit("repro.core.file.THFile")
def audit_thfile(obj, level: AuditLevel) -> Iterator[Violation]:
    yield from _audit_thfile_common(obj, level, target="THFile")
    if level >= AuditLevel.PARANOID:
        yield from _thfile_reconstruction_oracle(obj)


def _audit_thfile_common(obj, level: AuditLevel, target: str) -> Iterator[Violation]:
    if len(obj) < 0:  # defensive: a broken counter, not a legal state
        yield Violation(
            "AUD-FILE-SIZE", Severity.ERROR, "negative record count", target
        )
    if obj.bucket_count() < 1:
        yield Violation(
            "AUD-FILE-BUCKETS",
            Severity.ERROR,
            "a file always keeps at least one bucket",
            target,
        )
    if level >= AuditLevel.FULL:
        yield from _emit(_checked(obj.check, "AUD-FILE-STRUCT", target))


def _thfile_reconstruction_oracle(obj) -> Iterator[Violation]:
    """Section-6 cross-check: headers alone must re-derive the mapping."""
    from ..core.reconstruct import reconstruct_model

    try:
        rebuilt = reconstruct_model(obj.store, obj.alphabet)
    except (AssertionError, TrieHashingError) as exc:
        yield Violation(
            "AUD-FILE-RECONSTRUCT",
            Severity.CRITICAL,
            f"bucket headers do not reconstruct: {exc}",
            "THFile",
        )
        return
    model = obj.trie.to_model()
    for address in obj.store.live_addresses():
        for key in obj.store.peek(address).keys:
            if rebuilt.lookup(key) != model.lookup(key):
                yield Violation(
                    "AUD-FILE-RECONSTRUCT",
                    Severity.CRITICAL,
                    f"key {key!r}: reconstructed mapping "
                    f"{rebuilt.lookup(key)} != trie mapping {model.lookup(key)}",
                    "THFile",
                )
                return


@register_audit("repro.core.overflow.OverflowTHFile")
def audit_overflow_file(obj, level: AuditLevel) -> Iterator[Violation]:
    yield from _audit_thfile_common(obj, level, target="OverflowTHFile")
    chains = set(obj._overflow.values())
    if len(chains) != len(obj._overflow):
        yield Violation(
            "AUD-OVF-SHARED",
            Severity.CRITICAL,
            "two primaries share one overflow chain bucket",
            "OverflowTHFile",
        )


@register_audit("repro.core.mlth.MLTHFile")
def audit_mlth(obj, level: AuditLevel) -> Iterator[Violation]:
    if obj.page_capacity < 2:
        yield Violation(
            "AUD-MLTH-CAPACITY",
            Severity.ERROR,
            f"page capacity {obj.page_capacity} cannot hold a split",
            "MLTHFile",
        )
    if level >= AuditLevel.FULL:
        yield from _emit(_checked(obj.check, "AUD-MLTH-STRUCT", "MLTHFile"))
    if level >= AuditLevel.PARANOID:
        for pid in obj._all_page_ids():
            page = obj.page_disk.peek(pid)
            if page.cell_count > obj.page_capacity:
                yield Violation(
                    "AUD-MLTH-PAGE-OVER",
                    Severity.WARNING,
                    f"page {pid} holds {page.cell_count} cells "
                    f"(capacity {obj.page_capacity})",
                    "MLTHFile",
                )


@register_audit("repro.core.image.TrieImage")
def audit_trie_image(obj, level: AuditLevel) -> Iterator[Violation]:
    if len(obj.shards) != len(obj.boundaries) + 1:
        yield Violation(
            "AUD-IMAGE-ARITY",
            Severity.CRITICAL,
            f"{len(obj.shards)} shards for {len(obj.boundaries)} cuts",
            "TrieImage",
        )
        return
    if level >= AuditLevel.FULL:
        yield from _emit(_checked(obj.check, "AUD-IMAGE-STRUCT", "TrieImage"))


@register_audit("repro.multikey.mkfile.MultikeyTHFile")
def audit_multikey(obj, level: AuditLevel) -> Iterator[Violation]:
    if level >= AuditLevel.FULL:
        yield from _emit(
            _checked(obj.check, "AUD-MK-STRUCT", "MultikeyTHFile")
        )


# ----------------------------------------------------------------------
# B+-tree baseline
# ----------------------------------------------------------------------
@register_audit("repro.btree.btree.BPlusTree")
def audit_btree(obj, level: AuditLevel) -> Iterator[Violation]:
    if len(obj) < 0:
        yield Violation(
            "AUD-BTREE-SIZE", Severity.ERROR, "negative record count", "BPlusTree"
        )
    if level >= AuditLevel.FULL:
        yield from _emit(_checked(obj.check, "AUD-BTREE-STRUCT", "BPlusTree"))


# ----------------------------------------------------------------------
# Storage layer
# ----------------------------------------------------------------------
@register_audit("repro.storage.dedup.DedupWindow")
def audit_dedup_window(obj, level: AuditLevel) -> Iterator[Violation]:
    if obj.limit < 1:
        yield Violation(
            "AUD-DEDUP-LIMIT",
            Severity.ERROR,
            f"window limit {obj.limit} below 1",
            "DedupWindow",
        )
    if len(obj) > obj.limit:
        yield Violation(
            "AUD-DEDUP-OVERFULL",
            Severity.ERROR,
            f"{len(obj)} entries exceed the {obj.limit}-entry bound",
            "DedupWindow",
        )
    if level >= AuditLevel.FULL:
        for rid, _ in obj._entries.items():
            if (
                not isinstance(rid, tuple)
                or len(rid) != 2
                or not all(isinstance(part, int) for part in rid)
            ):
                yield Violation(
                    "AUD-DEDUP-RID",
                    Severity.ERROR,
                    f"malformed request id {rid!r}",
                    "DedupWindow",
                )
                break
    if level >= AuditLevel.PARANOID:
        clone = type(obj).from_spec(obj.to_spec(), limit=obj.limit)
        if clone._entries != obj._entries:
            yield Violation(
                "AUD-DEDUP-CODEC",
                Severity.CRITICAL,
                "to_spec/from_spec round-trip changed the window "
                "(checkpointed windows would recover differently)",
                "DedupWindow",
            )


#: Keys every WAL MANIFEST must carry, with their expected types.
_MANIFEST_SCHEMA = (
    ("engine", str),
    ("params", dict),
    ("chain", list),
    ("wal", str),
    ("lsn", int),
    ("next_ckpt", int),
)


def audit_manifest(manifest: object) -> list:
    """Audit a durable-session MANIFEST dict; returns violations.

    Exposed as a function (not a registered class audit) because the
    manifest is a plain dict; :func:`audit` reaches it through the
    :class:`~repro.storage.recovery.DurableFile` audit.
    """
    found = []
    if not isinstance(manifest, dict):
        return [
            Violation(
                "AUD-MANIFEST-TYPE",
                Severity.CRITICAL,
                f"manifest is {type(manifest).__name__}, not dict",
                "MANIFEST",
            )
        ]
    for key, expected in _MANIFEST_SCHEMA:
        if key not in manifest:
            found.append(
                Violation(
                    "AUD-MANIFEST-KEY",
                    Severity.CRITICAL,
                    f"missing required key {key!r}",
                    "MANIFEST",
                )
            )
        elif not isinstance(manifest[key], expected):
            found.append(
                Violation(
                    "AUD-MANIFEST-TYPE",
                    Severity.CRITICAL,
                    f"key {key!r} is {type(manifest[key]).__name__}, "
                    f"expected {expected.__name__}",
                    "MANIFEST",
                )
            )
    if not found:
        for name in manifest["chain"]:
            if not isinstance(name, str):
                found.append(
                    Violation(
                        "AUD-MANIFEST-TYPE",
                        Severity.CRITICAL,
                        f"chain entry {name!r} is not a checkpoint name",
                        "MANIFEST",
                    )
                )
        if manifest["lsn"] < 0:
            found.append(
                Violation(
                    "AUD-MANIFEST-LSN",
                    Severity.CRITICAL,
                    f"negative LSN {manifest['lsn']}",
                    "MANIFEST",
                )
            )
        if manifest["next_ckpt"] < len(manifest["chain"]):
            found.append(
                Violation(
                    "AUD-MANIFEST-CHAIN",
                    Severity.ERROR,
                    f"next_ckpt {manifest['next_ckpt']} below chain "
                    f"length {len(manifest['chain'])}",
                    "MANIFEST",
                )
            )
    return found


@register_audit("repro.storage.recovery.DurableFile")
def audit_durable_file(obj, level: AuditLevel) -> Iterator[Violation]:
    if obj._poisoned:
        yield Violation(
            "AUD-DURABLE-POISONED",
            Severity.WARNING,
            "session poisoned by a mid-operation failure; reopen to recover",
            "DurableFile",
        )
        return  # the in-memory image is not claimed consistent
    yield from audit_manifest(obj.manifest)
    if level == AuditLevel.FULL:
        yield from _emit(
            _checked(obj.check, "AUD-DURABLE-STRUCT", "DurableFile")
        )
    if level >= AuditLevel.PARANOID:
        # Defer to the wrapped engine's own audit (it reruns the full
        # sweep plus its paranoid extras) and cross-check the dedup
        # window that rides the durable state.
        from .framework import find_audit

        inner = find_audit(type(obj.file))
        if inner is not None:
            yield from inner(obj.file, level)
        else:
            yield from _emit(
                _checked(obj.check, "AUD-DURABLE-STRUCT", "DurableFile")
            )
        yield from audit_dedup_window(obj.dedup, level)


# ----------------------------------------------------------------------
# Distributed layer
# ----------------------------------------------------------------------
@register_audit("repro.distributed.coordinator.Coordinator")
def audit_coordinator(obj, level: AuditLevel) -> Iterator[Violation]:
    down = [sid for sid, srv in obj.servers.items() if srv.down]
    if down:
        # A crashed durable server has lost volatile state by design;
        # sweeping its records would read a poisoned session. Surface
        # the skip instead of failing on a legal mid-outage state.
        yield Violation(
            "AUD-DIST-SKIPPED",
            Severity.WARNING,
            f"full sweep skipped: shards {sorted(down)} are down",
            "Coordinator",
        )
        yield from _emit(
            _checked(obj.model.check, "AUD-DIST-IMAGE", "Coordinator")
        )
        return
    if level >= AuditLevel.FULL:
        yield from _emit(_checked(obj.check, "AUD-DIST-STRUCT", "Coordinator"))
    else:
        yield from _emit(
            _checked(obj.model.check, "AUD-DIST-IMAGE", "Coordinator")
        )


@register_audit("repro.distributed.coordinator.Cluster")
def audit_cluster(obj, level: AuditLevel) -> Iterator[Violation]:
    if obj.shard_count() < 1:
        yield Violation(
            "AUD-DIST-EMPTY",
            Severity.CRITICAL,
            "cluster has no shards",
            "Cluster",
        )
        return
    yield from audit_coordinator(obj.coordinator, level)
