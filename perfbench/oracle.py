"""Correctness oracle: reference outcomes from cache-less engines.

Every packet the OBI forwards during a run is compared, outside the
timed region, with the outcome a cache-less engine
(``build_engine(graph, flow_cache=None)``) built from the deployed graph
gives for the same frame. The deployed graphs of every workload are
stateless (header and payload classifiers, alerts, devices), so a
frame's reference outcome depends only on the graph and the frame
bytes; the oracle memoises it per (graph digest, frame index), which is
what lets a run check every packet without running the slow path for
each one. The memo holds a fingerprint of each outcome, not the outcome
itself: bytes are invisible to the cyclic collector, so the memo does
not lengthen the program's garbage collections.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable

from repro.core.graph import ProcessingGraph, canonical_graph_digest
from repro.net.packet import Packet
from repro.obi.engine import Engine, PacketOutcome
from repro.obi.translation import build_engine

#: Block types whose outcome is a function of the frame alone; the
#: memo is only sound for graphs made of these.
STATELESS_TYPES = frozenset({
    "FromDevice", "ToDevice", "Discard", "Alert", "Log",
    "HeaderClassifier", "RegexClassifier", "HeaderPayloadClassifier",
})


def cacheless_engine(graph: ProcessingGraph) -> Engine:
    """The reference engine: full slow-path traversal for every packet."""
    other = sorted({
        block.type for block in graph.blocks.values()
        if block.type not in STATELESS_TYPES
    })
    if other:
        raise ValueError(f"oracle memo is unsound for block types {other}")
    return build_engine(graph, flow_cache=None)


def fingerprint(outcome: PacketOutcome) -> bytes:
    """Digest of an outcome's externally observable effects."""
    return hashlib.blake2b(
        repr(outcome.effects_key()).encode("utf-8"), digest_size=16
    ).digest()


class Oracle:
    """Memoised reference outcomes for frames of a fixed pool."""

    def __init__(self, frames: list[bytes]) -> None:
        self.frames = frames
        self._engines: dict[str, Callable[[Packet], PacketOutcome]] = {}
        #: graph digest -> frame index -> reference fingerprint.
        self._memo: dict[str, dict[int, bytes]] = {}
        self.checked = 0
        self.mismatches: list[str] = []

    def add_graph(self, graph: ProcessingGraph) -> str:
        """Register the cache-less engine of ``graph``; returns its digest."""
        digest = canonical_graph_digest(graph.to_dict())
        if digest not in self._engines:
            self._engines[digest] = cacheless_engine(graph).process
        return digest

    def forget(self, digest: str) -> None:
        """Drop a graph's engine and memo (the run has moved past it)."""
        self._engines.pop(digest, None)
        self._memo.pop(digest, None)

    def expected(self, digest: str, index: int) -> bytes:
        memo = self._memo.setdefault(digest, {})
        found = memo.get(index)
        if found is None:
            outcome = self._engines[digest](Packet(data=self.frames[index]))
            found = memo[index] = fingerprint(outcome)
        return found

    def prime(self, digest: str, indices: list[int]) -> None:
        for index in indices:
            self.expected(digest, index)

    def check(
        self, digest: str, indices: list[int], outcomes: list[PacketOutcome],
        label: str = "",
    ) -> int:
        """Compare outcomes with the reference; returns mismatches found."""
        found = 0
        for index, outcome in zip(indices, outcomes):
            self.checked += 1
            if fingerprint(outcome) != self.expected(digest, index):
                found += 1
                if len(self.mismatches) < 5:
                    self.mismatches.append(
                        f"{label} frame {index}: outcome differs from the "
                        f"cache-less reference of {digest[:19]}"
                    )
        if len(outcomes) != len(indices):
            found += 1
            self.mismatches.append(
                f"{label}: {len(outcomes)} outcomes for {len(indices)} packets"
            )
        return found


class OutcomeDigest:
    """SHA-256 over the first ``limit`` records fed to it."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.count = 0
        self._hash = hashlib.sha256()

    def add(self, record: Any) -> None:
        if self.count < self.limit:
            self._hash.update(repr(record).encode("utf-8"))
            self.count += 1

    def hexdigest(self) -> str:
        return self._hash.hexdigest()[:16]
