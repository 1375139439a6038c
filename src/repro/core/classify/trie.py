"""Software header classifier: a destination-prefix trie.

This is the "trie in software" implementation the paper contrasts with a
hardware TCAM (§2.1). The trie indexes rules by destination prefix, each
at the node of its prefix. Rules are inserted in priority order, so
every node's list is already sorted and a lookup never sorts:

1. walk the destination address bit by bit and, at each node on the
   path, scan its rules for the first match that outranks the best so
   far;
2. scan the root's rules (destination ANY) only up to that match's
   priority.

The match fields are read from the packet once per lookup. First-match
semantics are identical to :class:`LinearMatcher`; only the cost profile
differs.
"""

from __future__ import annotations

from repro.core.classify.header import HeaderRuleSet
from repro.core.classify.rules import HeaderRule, match_fields
from repro.net.packet import Packet


class _TrieNode:
    __slots__ = ("children", "rules")

    def __init__(self) -> None:
        self.children: list["_TrieNode | None"] = [None, None]
        # (priority, rule) pairs anchored at exactly this prefix, in
        # ascending priority order.
        self.rules: list[tuple[int, HeaderRule]] = []


class TrieMatcher:
    """Binary trie on the destination prefix with per-node rule lists."""

    implementation = "trie"

    def __init__(self, ruleset: HeaderRuleSet) -> None:
        self.ruleset = ruleset
        self._root = _TrieNode()
        for priority, rule in enumerate(ruleset.rules):
            self._insert(priority, rule)

    def _insert(self, priority: int, rule: HeaderRule) -> None:
        node = self._root
        prefix_len = rule.dst.prefix_len
        value = rule.dst.value
        for depth in range(prefix_len):
            bit = (value >> (31 - depth)) & 1
            child = node.children[bit]
            if child is None:
                child = _TrieNode()
                node.children[bit] = child
            node = child
        node.rules.append((priority, rule))

    def match(self, packet: Packet) -> int:
        fields = match_fields(packet)
        best, port = len(self.ruleset.rules), self.ruleset.default_port
        if fields is not None:
            node: _TrieNode | None = self._root
            address = fields[1]
            for shift in range(31, -1, -1):
                node = node.children[(address >> shift) & 1]
                if node is None:
                    break
                for priority, rule in node.rules:
                    if priority >= best:
                        break
                    if rule.matches_fields(fields):
                        best, port = priority, rule.port
                        break
        # The destination-ANY rules that outrank the path match. For a
        # non-IP packet these are the only candidates: only catch-alls
        # match it, and they live at the root.
        for priority, rule in self._root.rules:
            if priority >= best:
                break
            if rule.matches_fields(fields):
                return rule.port
        return port
