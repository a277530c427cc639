"""Seeded inputs, the operation mix and the output oracle.

Everything the program sees is generated here from the workload seed:
the preloaded records, the fresh keys later inserted, and the sequence
of operations. The :class:`Oracle` holds every acknowledged write, so
each ``get`` and each scan can be checked against it as the run goes.
"""

from __future__ import annotations

import bisect
import random
from typing import Optional

from repro.workloads.generators import KeyGenerator

GET, PUT, INSERT, SCAN = "get", "put", "insert", "scan"
KINDS = (GET, PUT, INSERT, SCAN)

#: Cumulative shares of the mix: 70% get, 10% put, 15% insert, 5% scan.
_MIX = ((0.70, GET), (0.80, PUT), (0.95, INSERT), (1.0, SCAN))

#: Records one bounded scan covers.
SCAN_RECORDS = 50

#: Long shared prefixes for the ``file`` workload's composite keys: they
#: differ only late, so A1 descents and A2 split strings run deep.
CLUSTER_PREFIXES = ("invoicelinea", "invoicelineb", "invoicelined", "invoicelink")


class Inputs:
    """The preload and the fresh-key pool of one workload and seed."""

    def __init__(self, keys: str, seed: int, records: int, fresh: int):
        gen = KeyGenerator(seed)
        if keys == "clustered":
            def draw(count, salt):
                return gen.clustered(
                    count, prefixes=CLUSTER_PREFIXES, suffix_length=6, salt=salt
                )
        else:
            def draw(count, salt):
                return gen.uniform(count, length=8, salt=salt)
        preload = draw(records, 0)
        taken = set(preload)
        self.preload = [(key, f"v{i:07d}") for i, key in enumerate(preload)]
        self.fresh = [key for key in draw(fresh, 1) if key not in taken]
        self.seed = seed


class Oracle:
    """Every acknowledged write, by key, plus the keys in order."""

    def __init__(self, items: list[tuple[str, str]]):
        self.values = dict(items)
        self.keys = list(self.values)  # draw order for point ops
        self.ordered = sorted(self.values)
        #: Key plus value bytes of the live records.
        self.live_bytes = sum(len(k) + len(v) for k, v in items)

    def put(self, key: str, value: str) -> None:
        self.live_bytes += len(value) - len(self.values[key])
        self.values[key] = value

    def insert(self, key: str, value: str) -> None:
        self.values[key] = value
        self.live_bytes += len(key) + len(value)
        self.keys.append(key)
        bisect.insort(self.ordered, key)

    def expected_range(self, low: str, high: str) -> list[tuple[str, str]]:
        begin = bisect.bisect_left(self.ordered, low)
        end = bisect.bisect_right(self.ordered, high)
        return [(key, self.values[key]) for key in self.ordered[begin:end]]

    def expected_items(self) -> list[tuple[str, str]]:
        return [(key, self.values[key]) for key in self.ordered]


class OpStream:
    """The seeded sequence of operations, drawn against the oracle.

    Draws depend only on the seed and on the oracle's state, which in
    turn depends only on the operations drawn before: the same seed gives
    the same sequence on every run and every system.
    """

    def __init__(self, seed: int, oracle: Oracle, fresh: list[str]):
        self._rng = random.Random(f"perfbench-mix/{seed}")
        self._oracle = oracle
        self._fresh = iter(fresh)

    def next(self, index: int) -> Optional[tuple[str, str, Optional[str]]]:
        """Op ``index`` as ``(kind, key, arg)``; None once fresh keys run out."""
        rng = self._rng
        oracle = self._oracle
        draw = rng.random()
        kind = next(k for share, k in _MIX if draw < share)
        if kind == GET:
            return GET, oracle.keys[rng.randrange(len(oracle.keys))], None
        if kind == PUT:
            key = oracle.keys[rng.randrange(len(oracle.keys))]
            return PUT, key, f"p{index:07d}"
        if kind == INSERT:
            key = next(self._fresh, None)
            return None if key is None else (INSERT, key, f"i{index:07d}")
        ordered = oracle.ordered
        first = rng.randrange(len(ordered) - SCAN_RECORDS + 1)
        return SCAN, ordered[first], ordered[first + SCAN_RECORDS - 1]
