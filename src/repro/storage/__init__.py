"""Simulated disk substrate and the durability layer on top of it.

The paper's performance claims are phrased in *disk accesses per
operation* and *load factors*; its testbed was a Turbo Pascal program on
early-80s PC hardware. This package substitutes a faithful but synthetic
substrate: a block-addressed simulated disk that counts every read and
write, an optional seek/rotation/transfer latency model to turn counts
into simulated time, an LRU buffer pool, and the bucket store used by the
trie-hashing and B-tree files.

On top of the substrate sits crash-safe durability (see
``docs/DURABILITY.md``): a stable store with POSIX crash semantics
(:class:`StableStore`), a checksummed logical write-ahead log of
insert/put/delete records only (:class:`WALWriter`), atomic incremental
checkpoints of the buckets the store marked dirty, with REDO recovery
(:class:`DurableFile`), and the crash-point harness
(:class:`RecordingStableStore`, :class:`CrashingStore`) that kills and
recovers the file at every physical write. The engines never see the
log: only :class:`DurableFile` writes it.
"""

from .buckets import Bucket, BucketStore
from .buffer import BufferPool
from .crashpoints import CrashingStore, CrashPoint, RecordingStableStore
from .disk import DiskStats, SimulatedDisk
from .faults import FaultyDisk
from .latency import LatencyModel
from .layout import Layout
from ..core.errors import CrashError, RecoveryError
from .recovery import DurableFile, RecoveryReport
from .wal import StableStats, StableStore, WALRecord, WALWriter

__all__ = [
    "Bucket",
    "BucketStore",
    "BufferPool",
    "CrashError",
    "CrashPoint",
    "CrashingStore",
    "DiskStats",
    "DurableFile",
    "FaultyDisk",
    "LatencyModel",
    "Layout",
    "RecordingStableStore",
    "RecoveryError",
    "RecoveryReport",
    "SimulatedDisk",
    "StableStats",
    "StableStore",
    "WALRecord",
    "WALWriter",
]
