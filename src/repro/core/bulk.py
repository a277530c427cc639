"""Bottom-up bulk loading of trie-hashing files.

Building a compact file through the insertion algorithm costs a split
per bucket; a bulk load from sorted input can instead cut the key
sequence into buckets directly and synthesise the trie in one pass —
the same shortcut :func:`repro.btree.bulk_load_compact` provides for the
B-tree baseline. The result is indistinguishable from a THCL ``d = 0``
load (same boundaries as deterministic adjacent-pair splits, canonically
balanced shape) at a fraction of the construction cost.

The boundary between consecutive buckets is the shortest prefix
separating the last key of one from the first key of the next (exactly
step 1 of A2 with the adjacent bounding key); missing prefixes are added
with THCL shared leaves to keep the set prefix-closed.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from typing import Optional

from ..storage.buckets import BucketStore
from .alphabet import DEFAULT_ALPHABET, Alphabet
from .boundaries import BoundaryModel
from .compact import DEFAULT_TRIE_BACKEND
from .errors import CapacityError
from .file import THFile
from .keys import split_string
from .policies import SplitPolicy

__all__ = ["bulk_load_th"]


def bulk_load_th(
    records: Iterable[tuple[str, object]],
    bucket_capacity: int = 20,
    fill: float = 1.0,
    policy: Optional[SplitPolicy] = None,
    alphabet: Alphabet = DEFAULT_ALPHABET,
    trie_backend: str = DEFAULT_TRIE_BACKEND,
) -> THFile:
    """Build a THCL file bottom-up from sorted, unique records.

    ``fill`` sets the per-bucket record count (1.0 = the compact file).
    The returned file carries a THCL policy (``thcl_guaranteed_half`` by
    default) so subsequent updates behave sensibly. ``trie_backend``
    picks the in-memory trie representation exactly as on
    :class:`~repro.core.file.THFile`.
    """
    if not 0.0 < fill <= 1.0:
        raise CapacityError("fill must be in (0, 1]")
    # Ceiling, not round(): banker's rounding would under-fill (e.g.
    # fill=0.5, b=5 -> 2-record buckets, a 0.4 load) and break the
    # guaranteed-load contract that every bucket holds >= fill * b.
    # The epsilon keeps float noise just above an integer from bumping
    # the count to the next one.
    per_bucket = min(
        bucket_capacity, max(1, math.ceil(fill * bucket_capacity - 1e-9))
    )
    policy = policy or SplitPolicy.thcl_guaranteed_half()
    if policy.nil_nodes:
        raise CapacityError("bulk loading builds THCL (shared-leaf) files")

    file = THFile(
        bucket_capacity,
        policy,
        alphabet,
        store=BucketStore(),
        trie_backend=trie_backend,
    )
    bucket = file.store.peek(0)
    address = 0
    count = 0
    previous_key: Optional[str] = None
    cuts = []  # (boundary, left bucket address)

    for key, value in records:
        key = alphabet.validate_key(key)
        if previous_key is not None and key <= previous_key:
            raise CapacityError("bulk load requires sorted, unique keys")
        if len(bucket) >= per_bucket:
            boundary = split_string(previous_key, key, alphabet)
            cuts.append((boundary, address))
            file.store.write(address, bucket)
            address = file.store.allocate()
            bucket = file.store.peek(address)
        bucket.insert(key, value)
        previous_key = key
        count += 1
    file.store.write(address, bucket)

    # Assemble the boundary model: the cuts plus prefix-closure fills.
    model = BoundaryModel(alphabet, [], [0])
    for boundary, left in cuts:
        model.insert_boundary(boundary, left, left + 1)
    for boundary, _ in cuts:
        for l in range(1, len(boundary)):
            prefix = boundary[:l]
            if not model.has_boundary(prefix):
                child = model.children[model.gap_for_boundary(prefix)]
                model.insert_boundary(prefix, child, child)
    file.trie = type(file.trie).from_model(model)
    file._size = count

    # Record the right cuts in the bucket headers (reconstruction).
    for boundary, left in cuts:
        file.store.peek(left).header_path = boundary
    file.stats.splits = len(cuts)
    file.stats.nodes_added = file.trie.node_count
    return file
