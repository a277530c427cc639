"""Checkpoints and crash recovery over the write-ahead log.

This module closes the durability loop opened by :mod:`repro.storage.wal`:

* **Checkpoints** — a sectioned binary image of the file (header, index
  structure, per-bucket records, every section CRC-guarded) written with
  :meth:`~repro.storage.wal.StableStore.write_atomic` temp-file + rename
  semantics, so a checkpoint is never half-visible. Checkpoints are
  *incremental*: only the buckets dirtied since the previous checkpoint
  (the bucket store's :attr:`~repro.storage.buckets.BucketStore.dirty`
  set, which the session installs and drains) are rewritten, and the
  manifest keeps a short *chain* of checkpoint names whose newest-wins
  union reconstitutes every live bucket. Every ``max_chain``-th
  checkpoint is full and resets the chain. The request-dedup window
  rides in each header the same way: whole in a full checkpoint, the
  entries recorded since the previous one in an incremental, and
  recovery folds the chain's windows oldest to newest. An image is
  encoded in one pass (one list of parts, one join) and decoded in
  one pass by offset, with the bytes and the typed failures of the
  earlier stream codec.

* **Recovery** — :func:`DurableFile.open` on a store holding a MANIFEST
  loads the chain newest-to-oldest, re-materialises the file, and
  replays every committed record with LSN beyond the checkpoint straight
  into the engine (logical REDO: the operations are deterministic, so
  re-executing them rebuilds an equivalent structure). A torn or corrupt
  log tail is discarded — those operations were never acknowledged.
  Durable input that parses but does not fit the schema (a MANIFEST
  key of the wrong type, engine params that build no file, a checkpoint
  header of the wrong shape, a TH header whose ``max_address`` no
  16-bit bucket pointer reaches, a logged record body that does not
  decode, a bucket section that does not decode, an unknown record
  type) raises :class:`RecoveryError`. When the checkpoint's *index*
  section (the trie image) is lost or does not decode but the bucket
  sections survive, trie-hashing files fall back to the Section-6
  reconstruction of /TOR83/
  (:func:`~repro.core.reconstruct.reconstruct_model`);
  multilevel files rebuild by re-inserting the surviving records. The
  step after the chain walk (:func:`restore_file`) also loads every
  whole-file image of :mod:`repro.storage.persistence`.

* **The session front-end** — :class:`DurableFile` wraps any of the four
  engines (``th`` on either trie backend, ``thcl`` via its split
  policy, ``mlth``, ``btree``)
  and enforces the ack protocol: encode the operation record's body,
  apply in memory, append the record, fsync, *then* return. Encoding
  first refuses, with :class:`StorageError` and before anything
  changes, a key or value that no record or bucket can hold. An
  operation that returns was durable at the instant it returned; one
  interrupted by a crash may or may not survive, which is exactly the
  contract the crash-point tests assert.

See ``docs/DURABILITY.md`` for the wire formats and the full protocol.
"""

from __future__ import annotations

import dataclasses
import json
import struct
import zlib
from contextlib import nullcontext
from contextvars import ContextVar
from collections.abc import Iterable, Iterator
from typing import Any, Optional

from ..check.hook import maybe_audit
from ..core.alphabet import DEFAULT_ALPHABET, Alphabet
from ..core.compact import DEFAULT_TRIE_BACKEND
from ..core.errors import (
    DuplicateKeyError,
    InvalidKeyError,
    KeyNotFoundError,
    RecoveryError,
    StorageError,
    TrieHashingError,
)
from ..core.policies import SplitPolicy
from ..obs.tracer import TRACER
from .dedup import DedupWindow, RequestId
from .serializer import (
    POINTER_LIMIT,
    deserialize_bucket,
    deserialize_trie,
    serialize_bucket,
    serialize_trie,
)
from .wal import (
    REC_DELETE,
    REC_INSERT,
    REC_PUT,
    StableStore,
    WALWriter,
    encode_body,
    read_records,
)

__all__ = ["DurableFile", "RecoveryReport", "MANIFEST_NAME", "apply_op", "group_commit"]

MANIFEST_NAME = "MANIFEST"
_CKPT_MAGIC = b"THCK1\n"


# ----------------------------------------------------------------------
# Sectioned checkpoint codec
# ----------------------------------------------------------------------
_FRAME = struct.Struct(">II")  # a section's length and CRC32
_BUCKET_FRAME = struct.Struct(">III")  # a bucket's address, then its frame
#: The JSON of checkpoint headers, JSON indexes and MANIFESTs: compact
#: separators, one encoder for every write.
_JSON = json.JSONEncoder(separators=(",", ":"))


def encode_checkpoint(
    header: dict, index: bytes, buckets: list[tuple[int, bytes]]
) -> bytes:
    """Build a checkpoint image: magic, header, index, bucket sections.

    Each section is framed by its length and CRC32, a bucket's frame
    preceded by its address; the parts are joined once.
    """
    head = _JSON.encode(header).encode()
    parts = [
        _CKPT_MAGIC,
        _FRAME.pack(len(head), zlib.crc32(head)),
        head,
        _FRAME.pack(len(index), zlib.crc32(index)),
        index,
    ]
    frame = _BUCKET_FRAME.pack
    crc32 = zlib.crc32
    for address, payload in buckets:
        parts += (frame(address, len(payload), crc32(payload)), payload)
    return b"".join(parts)


def _section_at(data: bytes, offset: int) -> tuple[Optional[bytes], bool, int]:
    """The section framed at ``offset``: ``(payload, crc_ok, end)``, the
    payload ``None`` (and ``end`` the image's) when the image is cut."""
    start = offset + _FRAME.size
    if start > len(data):
        return None, False, len(data)
    length, stored = _FRAME.unpack_from(data, offset)
    end = start + length
    if end > len(data):
        return None, False, len(data)
    payload = data[start:end]
    return payload, zlib.crc32(payload) == stored, end


def decode_checkpoint(
    data: bytes, name: str
) -> tuple[dict, Optional[bytes], dict[int, bytes]]:
    """Parse a checkpoint image, verifying every section CRC.

    The sections are read in one pass by offset. A corrupt header or
    bucket section raises :class:`RecoveryError` (there is no second
    source for either). A corrupt *index* section is survivable — the
    caller falls back to reconstruction — so it comes back as ``None``
    instead.
    """
    if data[: len(_CKPT_MAGIC)] != _CKPT_MAGIC:
        raise RecoveryError(f"{name} is not a checkpoint image")
    raw_header, header_ok, offset = _section_at(data, len(_CKPT_MAGIC))
    if raw_header is None or not header_ok:
        raise RecoveryError(f"corrupt checkpoint header in {name}")
    try:
        header = json.loads(raw_header.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RecoveryError(f"corrupt checkpoint header in {name}: {exc}") from None
    if not _header_ok(header):
        raise RecoveryError(f"malformed checkpoint header in {name}")
    index, index_ok, offset = _section_at(data, offset)
    buckets: dict[int, bytes] = {}
    size = len(data)
    frame = _BUCKET_FRAME.unpack_from
    crc32 = zlib.crc32
    while offset < size:
        if size - offset < _BUCKET_FRAME.size:
            if size - offset < 4:
                raise RecoveryError(f"truncated bucket directory in {name}")
            address = int.from_bytes(data[offset : offset + 4], "big")
            raise RecoveryError(f"corrupt bucket {address} in checkpoint {name}")
        address, length, stored = frame(data, offset)
        start = offset + _BUCKET_FRAME.size
        offset = start + length
        payload = data[start:offset]
        if offset > size or crc32(payload) != stored:
            raise RecoveryError(f"corrupt bucket {address} in checkpoint {name}")
        buckets[address] = payload
    return header, (index if index_ok else None), buckets


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_rid(rid) -> bool:
    return isinstance(rid, list) and len(rid) == 2 and all(map(_is_int, rid))


def _header_ok(header) -> bool:
    """Do the fields recovery reads from a checkpoint header fit?"""
    if not isinstance(header, dict):
        return False
    live, top = header.get("live"), header.get("max_address")
    dedup = header.get("dedup", [])  # absent in headers older than the window
    return (
        _is_int(top)
        and _is_int(header.get("records"))
        and isinstance(live, list)
        and all(_is_int(a) and 0 <= a <= top for a in live)
        and isinstance(dedup, list)
        and all(isinstance(e, list) and len(e) == 3 and _is_rid(e[:2]) for e in dedup)
    )


def _str_values(items: Iterable[tuple[str, Optional[str]]]) -> list:
    """``items`` as a list; a value that is neither str nor None fails typed."""
    pending = list(items)
    if any(value is not None and not isinstance(value, str) for _, value in pending):
        raise StorageError("durable files store str or None values only")
    return pending


def _put_all(file: Any, pending: list) -> None:
    """Upsert ``pending`` through the engine's batch path, if it has one."""
    batched = getattr(file, "put_many", None)
    if batched is not None:
        batched(pending)
    else:
        for key, value in pending:
            apply_op(file, REC_PUT, key, value)


def apply_op(file: Any, rec_type: int, key: str, value: object) -> object:
    """Execute one operation record against an engine.

    The one dispatch of the live path, REDO replay and log shipping.
    """
    if rec_type == REC_INSERT:
        return file.insert(key, value)
    if rec_type == REC_PUT:
        if hasattr(file, "put"):
            return file.put(key, value)
        if file.contains(key):  # engines without native upsert (MLTH)
            file.delete(key)
        return file.insert(key, value)
    if rec_type == REC_DELETE:
        return file.delete(key)
    raise StorageError(f"unknown operation record type {rec_type}")


# ----------------------------------------------------------------------
# Engine adapters
# ----------------------------------------------------------------------
class _THEngine:
    """Adapter for :class:`~repro.core.file.THFile` (TH and THCL, either
    trie backend)."""

    kind = "th"
    uses_buckets = True

    @staticmethod
    def fresh_params(
        capacity: int = 4,
        policy: Optional[SplitPolicy] = None,
        alphabet: Alphabet = DEFAULT_ALPHABET,
        trie_backend: str = DEFAULT_TRIE_BACKEND,
    ) -> dict:
        policy = policy if policy is not None else SplitPolicy()
        return {
            "capacity": capacity,
            "policy": dataclasses.asdict(policy),
            "alphabet": alphabet.digits,
            "trie_backend": trie_backend,
        }

    @staticmethod
    def create(params: dict):
        from ..core.file import THFile

        return THFile(
            bucket_capacity=params["capacity"],
            policy=SplitPolicy(**params["policy"]),
            alphabet=Alphabet(params["alphabet"]),
            # .get(): manifests written before the compact backend
            # existed carry no entry and mean the paper's cells, not
            # today's default.
            trie_backend=params.get("trie_backend", "cells"),
        )

    @classmethod
    def params_of(cls, file) -> dict:
        return cls.fresh_params(
            file.capacity, file.policy, file.alphabet, file.trie_backend
        )

    @staticmethod
    def index_bytes(file) -> bytes:
        return serialize_trie(file.trie)

    @classmethod
    def materialize(
        cls, params: dict, header: dict, index: Optional[bytes], buckets, report
    ):
        from ..core.reconstruct import reconstruct_model

        if header["max_address"] >= POINTER_LIMIT:
            # No index can point there, so no TH file that reached it
            # could checkpoint: refuse before restore allocates up to it.
            raise RecoveryError(
                f"max_address {header['max_address']} is past the 16-bit "
                f"bucket pointers"
            )
        file = _create(cls, params)
        file.store.restore(header["max_address"], header["live"], buckets)
        backend = type(file.trie)
        try:
            trie = None if index is None else deserialize_trie(index, backend)
        except StorageError:
            trie = None
        if trie is None or trie.alphabet != file.alphabet:
            trie = backend.from_model(reconstruct_model(file.store, file.alphabet))
            report.used_fallback = "reconstruct"
        file.trie = trie
        file._size = sum(len(bucket) for bucket in buckets.values())
        return file


class _MLTHEngine:
    """Adapter for :class:`~repro.core.mlth.MLTHFile`."""

    kind = "mlth"
    uses_buckets = True

    @staticmethod
    def fresh_params(
        capacity: int = 4,
        page_capacity: int = 16,
        policy: Optional[SplitPolicy] = None,
        alphabet: Alphabet = DEFAULT_ALPHABET,
        pin_root: bool = True,
        split_node_pick: str = "balanced",
    ) -> dict:
        policy = policy if policy is not None else SplitPolicy(merge="none")
        return {
            "capacity": capacity,
            "page_capacity": page_capacity,
            "policy": dataclasses.asdict(policy),
            "alphabet": alphabet.digits,
            "pin_root": pin_root,
            "split_node_pick": split_node_pick,
        }

    @staticmethod
    def create(params: dict):
        from ..core.mlth import MLTHFile

        return MLTHFile(
            bucket_capacity=params["capacity"],
            page_capacity=params["page_capacity"],
            policy=SplitPolicy(**params["policy"]),
            alphabet=Alphabet(params["alphabet"]),
            pin_root=params["pin_root"],
            split_node_pick=params["split_node_pick"],
        )

    @classmethod
    def params_of(cls, file) -> dict:
        return cls.fresh_params(
            file.capacity,
            file.page_capacity,
            file.policy,
            file.alphabet,
            file.pin_root,
            file.split_node_pick,
        )

    @staticmethod
    def index_bytes(file) -> bytes:
        spec = {
            "root": file.root_id,
            "pages": {
                str(pid): file.page_disk.peek(pid).to_spec()
                for pid in file._all_page_ids()
            },
        }
        return _JSON.encode(spec).encode()

    @classmethod
    def materialize(
        cls, params: dict, header: dict, index: Optional[bytes], buckets, report
    ):
        pages = None if index is None else _page_specs(index)
        file = _create(cls, params)
        if pages is None:
            # The page hierarchy is gone; the buckets still hold every
            # record, so rebuild the file by re-inserting them.
            report.used_fallback = "reinsert"
            for address in sorted(buckets):
                bucket = buckets[address]
                for key, value in zip(bucket.keys, bucket.values):
                    file.insert(key, value)
            return file
        file.restore_pages(*pages)
        file.store.restore(header["max_address"], header["live"], buckets)
        file._size = sum(len(bucket) for bucket in buckets.values())
        return file


def _page_specs(index: bytes) -> Optional[tuple[int, dict]]:
    """``(root, {page id: spec})`` of an MLTH index, or None when it does
    not decode: each spec must have the shape
    :meth:`~repro.core.pages.TriePage.from_spec` reads, each child of an
    upper-level page must be a page one level down, and each sibling
    link a page on the same level."""
    try:
        spec = json.loads(index.decode("utf-8"))
        root, pages = spec["root"], {int(k): v for k, v in spec["pages"].items()}
    except (ValueError, KeyError, TypeError, AttributeError):
        return None  # a decode or JSON error is a ValueError too
    if not all(isinstance(page, dict) for page in pages.values()):
        return None

    def page_at(pid, level) -> bool:
        return _is_int(pid) and pid in pages and pages[pid].get("level") == level

    def fits(page: dict) -> bool:
        level, bounds, kids = page.get("level"), page.get("boundaries"), page.get("children")
        if not (_is_int(level) and level >= 0 and isinstance(kids, list)):
            return False
        if level:
            kids_fit = all(page_at(kid, level - 1) for kid in kids)
        else:
            kids_fit = all(kid is None or (_is_int(kid) and kid >= 0) for kid in kids)
        return (
            kids_fit
            and isinstance(bounds, list)
            and all(isinstance(bound, str) for bound in bounds)
            and len(kids) == len(bounds) + 1
            and all(
                link in page and (page[link] is None or page_at(page[link], level))
                for link in ("next", "prev")
            )
        )

    if _is_int(root) and root in pages and all(map(fits, pages.values())):
        return root, pages
    return None


class _BTreeEngine:
    """Adapter for the :class:`~repro.btree.btree.BPlusTree` baseline.

    A B+-tree has no bucket store, so its checkpoints are always full:
    the index section carries the sorted items and recovery rebuilds the
    tree by insertion. There is no secondary source — an index section
    that fails its CRC or does not decode is unrecoverable and raises
    :class:`RecoveryError`.
    """

    kind = "btree"
    uses_buckets = False

    @staticmethod
    def fresh_params(
        leaf_capacity: int = 4,
        branch_capacity: Optional[int] = None,
        split_fraction: float = 0.5,
        redistribute: bool = False,
        pin_root: bool = True,
    ) -> dict:
        return {
            "leaf_capacity": leaf_capacity,
            "branch_capacity": branch_capacity,
            "split_fraction": split_fraction,
            "redistribute": redistribute,
            "pin_root": pin_root,
        }

    @staticmethod
    def create(params: dict):
        from ..btree.btree import BPlusTree

        return BPlusTree(
            leaf_capacity=params["leaf_capacity"],
            branch_capacity=params["branch_capacity"],
            split_fraction=params["split_fraction"],
            redistribute=params["redistribute"],
            pin_root=params["pin_root"],
        )

    @classmethod
    def params_of(cls, file) -> dict:
        return cls.fresh_params(
            file.leaf_capacity,
            file.branch_capacity,
            file.split_fraction,
            file.redistribute,
            file.pin_root,
        )

    @staticmethod
    def index_bytes(file) -> bytes:
        items = [[key, value] for key, value in _str_values(file.items())]
        return _JSON.encode(items).encode()

    @classmethod
    def materialize(
        cls, params: dict, header: dict, index: Optional[bytes], buckets, report
    ):
        try:
            items = None if index is None else json.loads(index.decode("utf-8"))
        except ValueError:  # a decode or JSON error
            items = None
        if not _items_ok(items):
            raise RecoveryError(
                "b+-tree checkpoint index is corrupt and a b+-tree has no "
                "bucket headers to reconstruct from"
            )
        file = _create(cls, params)
        for key, value in items:
            file.insert(key, value)
        return file


def _items_ok(items) -> bool:
    """Is ``items`` a list of ``[str, str or None]`` pairs, keys ascending?"""
    return (
        isinstance(items, list)
        and all(
            isinstance(item, list)
            and len(item) == 2
            and isinstance(item[0], str)
            and (item[1] is None or isinstance(item[1], str))
            for item in items
        )
        and all(a[0] < b[0] for a, b in zip(items, items[1:]))
    )


_ENGINES = {
    _THEngine.kind: _THEngine,
    _MLTHEngine.kind: _MLTHEngine,
    _BTreeEngine.kind: _BTreeEngine,
}


def engine_named(kind: object) -> Any:
    """The adapter an image or MANIFEST names; an unknown name fails typed."""
    adapter = _ENGINES.get(kind) if isinstance(kind, str) else None
    if adapter is None:
        raise RecoveryError(f"unknown durable engine {kind!r}")
    return adapter


def engine_of(file: Any) -> Any:
    """The adapter of ``file``'s exact type; any other type (a subclass
    such as :class:`~repro.core.overflow.OverflowTHFile`, whose overflow
    chains the trie never sees) raises :class:`StorageError`."""
    from ..btree.btree import BPlusTree
    from ..core.file import THFile
    from ..core.mlth import MLTHFile

    adapters = {THFile: _THEngine, MLTHFile: _MLTHEngine, BPlusTree: _BTreeEngine}
    adapter = adapters.get(type(file))
    if adapter is None:
        raise StorageError(f"no durable image for a {type(file).__name__}")
    return adapter


def _create(adapter, params: dict):
    """Build an engine from its stored ``params``; params that build no
    file (a missing key, a wrong type, a value the engine refuses) fail
    typed."""
    try:
        return adapter.create(params)
    except (KeyError, TypeError, ValueError, TrieHashingError) as exc:
        raise RecoveryError(
            f"params build no {adapter.kind} file: {exc!r}"
        ) from None


def restore_file(
    adapter: Any,
    params: Any,
    header: dict,
    index: Optional[bytes],
    raw_buckets: dict[int, bytes],
    report: RecoveryReport,
) -> Any:
    """Build the engine from one image: the step after the chain walk.

    Shared by recovery and :func:`repro.storage.persistence.load_bytes`.
    The bucket sections must cover exactly the header's live set, each
    must decode, the adapter materializes the file (taking its fallback
    when the index does not decode), and the file must hold the header's
    ``records``. Every failure raises :class:`RecoveryError`.
    """
    extra = set(raw_buckets) ^ set(header["live"])
    if extra:
        raise RecoveryError(
            f"bucket sections and the live set differ at {sorted(extra)}"
        )
    buckets = {}
    for address, payload in raw_buckets.items():
        try:
            buckets[address] = deserialize_bucket(payload)
        except StorageError as exc:
            raise RecoveryError(f"bucket {address}: {exc}") from None
    report.buckets_loaded = len(buckets)
    try:
        file = adapter.materialize(params, header, index, buckets, report)
    except (InvalidKeyError, DuplicateKeyError) as exc:
        raise RecoveryError(
            f"records do not fit a {adapter.kind} file: {exc!r}"
        ) from None
    if len(file) != header["records"]:
        raise RecoveryError(
            f"image promised {header['records']} records, found {len(file)}"
        )
    return file


# ----------------------------------------------------------------------
# Recovery report
# ----------------------------------------------------------------------
class RecoveryReport:
    """What one recovery pass did (attached as ``DurableFile.last_recovery``)."""

    __slots__ = (
        "engine",
        "checkpoints",
        "buckets_loaded",
        "replayed",
        "torn_tail",
        "used_fallback",
        "lsn",
    )

    def __init__(self) -> None:
        self.engine = ""
        self.checkpoints = 0
        self.buckets_loaded = 0
        self.replayed = 0
        self.torn_tail = False
        #: ``None``, ``'reconstruct'`` (Section-6 trie rebuild) or
        #: ``'reinsert'`` (MLTH page hierarchy rebuilt from records).
        self.used_fallback: Optional[str] = None
        self.lsn = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RecoveryReport(engine={self.engine!r}, chain={self.checkpoints}, "
            f"replayed={self.replayed}, torn_tail={self.torn_tail}, "
            f"fallback={self.used_fallback!r})"
        )


# ----------------------------------------------------------------------
# The durable session
# ----------------------------------------------------------------------
#: The files that appended inside this context's open group_commit()
#: block, or None; per context, so tasks and threads never share a group.
_GROUP: ContextVar[Optional[list]] = ContextVar("group_commit", default=None)


class group_commit:
    """Defer the fsync of every durable file written inside the block.

    A :class:`DurableFile` joins the group on its first append in it;
    the outermost exit, an exception exit too, commits each joined file
    once (fsync, WAL taps, then any due checkpoint), last joined first.
    The caller must withhold every acknowledgement until then. The group
    closes first, so a tap that ships to a backup opens the backup's
    own group; a failed fsync poisons its file, and the first failure
    propagates once every joined file has reached its barrier.

    Used as ``with group_commit():``, or held open across calls by
    entering it and calling :meth:`close` (the serving batch does).
    """

    __slots__ = ("_joined", "_token")

    def __enter__(self) -> group_commit:
        if _GROUP.get() is None:
            self._joined: list[DurableFile] = []
            self._token = _GROUP.set(self._joined)
        else:
            self._token = None  # nested: only the outermost block commits
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Commit every joined file: the outermost group's barrier."""
        token, self._token = self._token, None
        if token is None:
            return
        _GROUP.reset(token)
        failure: Optional[BaseException] = None
        for file in reversed(self._joined):
            try:
                file._group_barrier()
            except BaseException as exc:  # repro-lint: disable=TH002 -- fault boundary: every joined file must reach its barrier before the first failure propagates
                if failure is None:
                    failure = exc
        if failure is not None:
            raise failure


class DurableFile:
    """A crash-safe session over one engine and one :class:`StableStore`.

    Use :meth:`open` — it creates a fresh store (no MANIFEST yet) or
    recovers an existing one. Every mutating call follows the ack
    protocol: apply in memory, append the operation record to the WAL,
    fsync, then return. A call that raises a simulated-crash or device
    error leaves the session *poisoned* (every later call raises
    :class:`StorageError`); reopening the store runs recovery.
    """

    MANIFEST = MANIFEST_NAME

    def __init__(self, *args, **kwargs):
        raise TypeError("use DurableFile.open(stable, engine=..., ...)")

    @classmethod
    def _build(cls, stable, adapter, file, wal, manifest, checkpoint_every, max_chain):
        self = object.__new__(cls)
        self.stable = stable
        self.engine = adapter
        self.file = file
        self.wal = wal
        self.manifest = manifest
        self.checkpoint_every = checkpoint_every
        self.max_chain = max_chain
        self._ops_since_checkpoint = 0
        self._poisoned = False
        self._grouped = False  # joined the open group_commit(), not yet committed
        self.last_recovery: Optional[RecoveryReport] = None
        #: Request-dedup window (exactly-once distributed retries). Ids
        #: travel inside WAL op records and checkpoint headers, so the
        #: window survives crashes together with the data it guards.
        self.dedup = DedupWindow()
        # From here on every bucket the engine allocates or writes is
        # dirty; a recovered file's rebuild writes came before, so only
        # its replayed operations reach the next incremental checkpoint.
        if adapter.uses_buckets:
            file.store.dirty = set()
        return self

    # -- opening -------------------------------------------------------
    @classmethod
    def open(
        cls,
        stable: StableStore,
        engine: str = "th",
        checkpoint_every: int = 64,
        max_chain: int = 8,
        records: Iterable[tuple[str, Optional[str]]] = (),
        dedup: Optional[DedupWindow] = None,
        **params,
    ) -> DurableFile:
        """Open (recovering) or create a durable file on ``stable``.

        ``params`` configure a *fresh* file (engine constructor options,
        e.g. ``capacity=4, policy=SplitPolicy(...)``); when a MANIFEST
        exists the stored parameters win and ``params`` must be empty or
        match the stored engine. ``records`` and ``dedup`` fill a fresh
        file unlogged: its genesis checkpoint is their first durable copy.
        """
        if checkpoint_every < 1:
            raise StorageError("checkpoint_every must be at least 1")
        records = list(records)
        for key, value in records:
            encode_body(key, value)  # refuses what no record or bucket holds
        if stable.exists(cls.MANIFEST):
            if records or dedup is not None:
                raise StorageError("only a fresh durable file takes records or dedup")
            return cls._recover(stable, checkpoint_every, max_chain, engine)
        if engine not in _ENGINES:
            raise StorageError(f"unknown durable engine {engine!r}")
        # No MANIFEST means no file: any objects present (a crash before
        # the genesis manifest landed, or a deleted manifest) are orphans
        # that must not leak records into the fresh file.
        for stale in stable.names():
            stable.delete(stale)
        adapter = _ENGINES[engine]
        file = adapter.create(adapter.fresh_params(**params))
        _put_all(file, records)
        wal = WALWriter(stable, "wal-0", next_lsn=1)
        manifest = {
            "engine": adapter.kind,
            "params": adapter.fresh_params(**params),
            "chain": [],
            "wal": "wal-0",
            "lsn": 0,
            "next_ckpt": 0,
        }
        self = cls._build(stable, adapter, file, wal, manifest, checkpoint_every, max_chain)
        if dedup is not None:
            self.dedup.merge(dedup)
        # The genesis checkpoint makes the file durable and writes the
        # first MANIFEST; until it lands, a crash simply yields a store
        # with no file on it.
        self.checkpoint(full=True)
        return self

    @classmethod
    def _recover(cls, stable, checkpoint_every, max_chain, engine_hint):
        from ..check.audits import audit_manifest  # runtime cycle: check -> core

        report = RecoveryReport()
        span = (
            TRACER.span("recovery") if TRACER.enabled else nullcontext()
        )
        with span:
            try:
                manifest = json.loads(stable.read(cls.MANIFEST).decode("utf-8"))
            except StorageError as exc:
                raise RecoveryError("stable store has no MANIFEST") from exc
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise RecoveryError(f"corrupt MANIFEST: {exc}") from None
            problems = audit_manifest(manifest)
            if problems:
                raise RecoveryError(f"malformed MANIFEST: {problems[0].message}")
            adapter = engine_named(manifest["engine"])
            report.engine = adapter.kind
            report.lsn = manifest["lsn"]

            # Chain walk, newest to oldest: the newest checkpoint's
            # header is authoritative for structure and the live set;
            # each live bucket is taken from the newest image holding it.
            chain = list(manifest["chain"])
            if not chain:
                raise RecoveryError("MANIFEST has an empty checkpoint chain")
            newest_header = None
            newest_index = None
            live = set()
            raw_buckets: dict[int, bytes] = {}
            windows = []  # each header's dedup, newest first
            for name in reversed(chain):
                try:
                    data = stable.read(name)
                except StorageError as exc:
                    raise RecoveryError(
                        f"checkpoint {name} is missing"
                    ) from exc
                header, index, ckpt_buckets = decode_checkpoint(data, name)
                if newest_header is None:
                    newest_header = header
                    newest_index = index
                    live = set(header["live"])
                for address, payload in ckpt_buckets.items():
                    if address in live and address not in raw_buckets:
                        raw_buckets[address] = payload
                windows.append(header.get("dedup", []))
                report.checkpoints += 1
            file = restore_file(
                adapter, manifest["params"], newest_header, newest_index,
                raw_buckets, report,
            )

            # REDO: replay committed operations past the checkpoint,
            # straight into the engine — it holds no log, so nothing is
            # re-logged or re-shipped. The session is built first, so the
            # replayed operations mark their buckets dirty: the next
            # incremental checkpoint must include them.
            wal_name = manifest["wal"]
            log_image = stable.read(wal_name) if stable.exists(wal_name) else b""
            records, clean = read_records(log_image)
            report.torn_tail = not clean
            top_lsn = max([manifest["lsn"]] + [r.lsn for r in records])
            wal = WALWriter(stable, wal_name, next_lsn=top_lsn + 1)
            self = cls._build(
                stable, adapter, file, wal, manifest, checkpoint_every, max_chain
            )
            # The dedup window recovers alongside the data it guards:
            # the chain's windows fold oldest to newest (the full
            # checkpoint's whole window, then each incremental's delta;
            # a chain of whole windows folds to its newest), and every
            # replayed record re-records its request id with the
            # re-executed result — so a retry arriving after the crash
            # still hits, and the next incremental carries those ids.
            self.dedup = DedupWindow.from_spec(
                entry for window in reversed(windows) for entry in window
            )
            for record in records:
                if record.lsn <= manifest["lsn"]:
                    continue
                try:
                    out = apply_op(file, record.type, record.key, record.value)
                except TrieHashingError as exc:
                    raise RecoveryError(
                        f"replay of operation LSN {record.lsn} failed: {exc}"
                    ) from exc
                self.dedup.record(record.rid, out)
                report.replayed += 1
            self.last_recovery = report
            if TRACER.enabled:
                TRACER.emit(
                    "recovery_done",
                    engine=report.engine,
                    replayed=report.replayed,
                    torn_tail=report.torn_tail,
                    fallback=report.used_fallback,
                )
            # Start a clean generation: this checkpoint discards the torn
            # tail (a fresh WAL segment replaces the old one) and, after a
            # fallback rebuild, re-bases the chain on the rebuilt file.
            self.checkpoint(full=True if report.used_fallback else None)
        return self

    # -- the ack protocol ---------------------------------------------
    def _check_usable(self) -> None:
        if self._poisoned:
            raise StorageError(
                "durable session poisoned by an earlier mid-operation failure; "
                "reopen the store to recover"
            )

    def _commit_barrier(self) -> None:
        """The fsync barrier — deferred by joining the open :func:`group_commit`."""
        group = _GROUP.get()
        if group is None:
            self.wal.commit()  # the fsync barrier: returning == durable
        elif not self._grouped:
            self._grouped = True
            group.append(self)

    def _group_barrier(self) -> None:
        """Commit this file at the exit of the group it joined."""
        self._grouped = False
        try:
            self.wal.commit()
        except BaseException:  # repro-lint: disable=TH002 -- fault boundary: a failed group fsync leaves WAL state unknown; poison, then re-raise
            self._poisoned = True
            raise
        if self._ops_since_checkpoint >= self.checkpoint_every and not self._poisoned:
            self.checkpoint()

    def apply(
        self,
        rec_type: int,
        key: str,
        value: Optional[str] = None,
        rid: Optional[RequestId] = None,
    ) -> object:
        """Apply one operation of record type ``rec_type`` under the ack
        protocol — the entry point of log shipping; :meth:`insert`,
        :meth:`put` and :meth:`delete` are its named forms."""
        self._check_usable()
        if rec_type not in (REC_INSERT, REC_PUT, REC_DELETE):
            raise StorageError(f"unknown operation record type {rec_type}")
        body = encode_body(key, value, rid)  # a refusal here changes nothing
        try:
            out = apply_op(self.file, rec_type, key, value)
        except (InvalidKeyError, DuplicateKeyError, KeyNotFoundError):
            raise  # rejected before any mutation: nothing to log
        except BaseException:  # repro-lint: disable=TH002 -- fault boundary: any mid-mutation failure (CrashError, device fault) must poison the session before re-raising
            self._poisoned = True
            raise
        try:
            self.wal.append(rec_type, key, value, rid, body)
            self._commit_barrier()
        except BaseException:  # repro-lint: disable=TH002 -- fault boundary: a failure before the fsync ack leaves WAL state unknown; poison, then re-raise
            self._poisoned = True
            raise
        # Only past the fsync barrier may the id enter the window: a
        # recorded id promises the op is durable, and recovery keeps the
        # promise by replaying the id from the logged record. Inside a
        # group the record is made early — the caller promised to hold
        # every acknowledgement until the group barrier, and an early
        # entry is *required* so a duplicate delivery landing in the
        # same group dedup-hits instead of double-applying.
        self.dedup.record(rid, out)
        self._ops_since_checkpoint += 1
        if self._ops_since_checkpoint >= self.checkpoint_every and not self._grouped:
            self.checkpoint()
        maybe_audit(self, "DurableFile op %s (%r)", rec_type, key)
        return out

    def insert(
        self,
        key: str,
        value: Optional[str] = None,
        rid: Optional[RequestId] = None,
    ) -> None:
        """Insert a new key (acknowledged-durable on return)."""
        self.apply(REC_INSERT, key, value, rid=rid)

    def put(
        self,
        key: str,
        value: Optional[str] = None,
        rid: Optional[RequestId] = None,
    ) -> None:
        """Insert or overwrite (acknowledged-durable on return)."""
        self.apply(REC_PUT, key, value, rid=rid)

    def delete(self, key: str, rid: Optional[RequestId] = None) -> object:
        """Delete a key, returning its value (acknowledged on return)."""
        return self.apply(REC_DELETE, key, rid=rid)

    # -- reads (no logging) -------------------------------------------
    def get(self, key: str) -> object:
        self._check_usable()
        return self.file.get(key)

    def contains(self, key: str) -> bool:
        self._check_usable()
        return self.file.contains(key)

    def __contains__(self, key: str) -> bool:
        return self.contains(key)

    def __len__(self) -> int:
        return len(self.file)

    def items(self) -> Iterator[tuple[str, object]]:
        self._check_usable()
        return self.file.items()

    def keys(self) -> Iterator[str]:
        self._check_usable()
        return self.file.keys()

    # -- batched operations -------------------------------------------
    def get_many(self, keys: Iterable[str]) -> dict[str, object]:
        """Batched read (no logging); absent keys are simply omitted."""
        self._check_usable()
        batched = getattr(self.file, "get_many", None)
        if batched is not None:
            return batched(keys)
        out: dict[str, object] = {}
        for key in keys:  # engines without a native batch path (btree)
            if self.file.contains(key):
                out[key] = self.file.get(key)
        return out

    def put_many(
        self,
        items: Iterable[tuple[str, Optional[str]]],
        rid: Optional[RequestId] = None,
    ) -> None:
        """Batched durable upsert: one fsync acknowledges the whole batch.

        The batch is applied through the engine's native ``put_many``
        (sorted key order, last duplicate wins), one operation record per
        surviving pair is appended, and the WAL is committed *once* — the
        group fsync is what batching amortises over per-key :meth:`put`
        calls. The records land in the same sorted order the live path
        applied, so a recovery replay rebuilds the acknowledged structure
        exactly. One request id covers the whole batch: a replayed batch
        re-records it per record, converging on the same ``None`` reply.
        """
        self._check_usable()
        pending = list(items)
        if hasattr(self.file, "put_many"):
            # Canonicalise up front: an invalid key is rejected before
            # any mutation, exactly like the per-key ack protocol.
            validate = self.file.alphabet.validate_key
            last_wins: dict[str, Optional[str]] = {}
            for key, value in pending:
                last_wins[validate(key)] = value
            pending = sorted(last_wins.items())
        bodies = [encode_body(key, value, rid) for key, value in pending]
        if not pending:
            self.dedup.record(rid, None)
            return
        try:
            _put_all(self.file, pending)
        except BaseException:  # repro-lint: disable=TH002 -- fault boundary: a partially applied batch (crash, device fault, per-key reject mid-loop) must poison the session before re-raising
            self._poisoned = True
            raise
        try:
            for (key, value), body in zip(pending, bodies):
                self.wal.append(REC_PUT, key, value, rid, body)
            self._commit_barrier()  # one fsync barrier for the whole batch
        except BaseException:  # repro-lint: disable=TH002 -- fault boundary: a failure before the group fsync leaves WAL state unknown; poison, then re-raise
            self._poisoned = True
            raise
        self.dedup.record(rid, None)
        self._ops_since_checkpoint += len(pending)
        if self._ops_since_checkpoint >= self.checkpoint_every and not self._grouped:
            self.checkpoint()
        maybe_audit(self, "DurableFile.put_many(%d keys)", len(pending))

    def check(self) -> None:
        """Run the engine's structural invariant check."""
        self.file.check()

    # -- checkpointing -------------------------------------------------
    def checkpoint(self, full: Optional[bool] = None) -> str:
        """Write a checkpoint and truncate the WAL; returns its name.

        Incremental by default (only buckets dirtied since the previous
        checkpoint), full when ``full=True``, when the chain has grown to
        ``max_chain`` entries, or for engines without a bucket store. The
        checkpoint image and the MANIFEST are both written atomically; a
        crash between the two leaves the previous generation intact.
        """
        self._check_usable()
        try:
            return self._checkpoint(full)
        except BaseException:  # repro-lint: disable=TH002 -- fault boundary: a torn checkpoint must poison the session; recovery rebuilds from the previous generation
            self._poisoned = True
            raise

    def _checkpoint(self, full: Optional[bool]) -> str:
        adapter = self.engine
        chain = list(self.manifest["chain"])
        if full is None:
            full = (
                not adapter.uses_buckets
                or not chain
                or len(chain) >= self.max_chain
            )
        ckpt_id = self.manifest["next_ckpt"]
        name = f"ckpt-{ckpt_id}"
        live, top, buckets = [], 0, []
        if adapter.uses_buckets:
            store = self.file.store
            dirty, store.dirty = store.dirty, set()
            live, top = store.live_addresses(), store.max_address()
            included = live if full else sorted(set(live) & dirty)
            buckets = [
                (address, serialize_bucket(store.peek(address)))
                for address in included
            ]
        header = {
            "id": ckpt_id,
            "lsn": self.wal.last_lsn,
            "full": bool(full),
            "engine": adapter.kind,
            "records": len(self.file),
            "live": live,
            "max_address": top,
            "dedup": self.dedup.take_spec(full),
        }
        image = encode_checkpoint(header, adapter.index_bytes(self.file), buckets)
        self.stable.write_atomic(name, image)

        new_chain = [name] if full else chain + [name]
        old_wal = self.manifest["wal"]
        new_wal = f"wal-{ckpt_id}"
        manifest = {
            "engine": adapter.kind,
            "params": self.manifest["params"],
            "chain": new_chain,
            "wal": new_wal,
            "lsn": self.wal.last_lsn,
            "next_ckpt": ckpt_id + 1,
        }
        self.stable.write_atomic(self.MANIFEST, _JSON.encode(manifest).encode())
        # The new MANIFEST is durable: everything it no longer references
        # is garbage. A crash inside this cleanup only leaks orphans.
        self.manifest = manifest
        self.wal.name = new_wal
        if old_wal != new_wal and self.stable.exists(old_wal):
            self.stable.delete(old_wal)
        for stale in set(chain) - set(new_chain):
            if self.stable.exists(stale):
                self.stable.delete(stale)
        self._ops_since_checkpoint = 0
        if TRACER.enabled:
            TRACER.emit(
                "checkpoint",
                id=ckpt_id,
                full=bool(full),
                buckets=len(buckets),
                lsn=self.wal.last_lsn,
                chain=len(new_chain),
            )
        return name

    def close(self) -> None:
        """Flush a final checkpoint (a convenience, not required)."""
        self.checkpoint()
