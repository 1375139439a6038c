"""HeaderClassifier rule sets and the cross-product merge.

:func:`merge_rulesets` implements the paper's ``mergeWith`` logic
(§2.2.1): it "creates a cross-product of rules from both classifiers,
orders them according to their priority, removes duplicate rules caused by
the cross-product and empty rules caused by priority considerations, and
outputs a new classifier that uses the merged rule set."
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.core.classify.rules import HeaderRule, match_fields
from repro.net.packet import Packet


class HeaderRuleSet:
    """An ordered (priority-descending) list of :class:`HeaderRule`.

    ``default_port`` is where packets matching no rule are emitted.
    """

    def __init__(self, rules: Sequence[HeaderRule], default_port: int = 0) -> None:
        self.rules = list(rules)
        self.default_port = default_port

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    @classmethod
    def from_config(cls, config: dict[str, Any]) -> "HeaderRuleSet":
        """Build from a HeaderClassifier block's config dict."""
        rules = [HeaderRule.from_dict(item) for item in config.get("rules", ())]
        return cls(rules, default_port=int(config.get("default_port", 0)))

    def to_config(self) -> dict[str, Any]:
        return {
            "rules": [rule.to_dict() for rule in self.rules],
            "default_port": self.default_port,
        }

    def classify(self, packet: Packet) -> int:
        """First-match classification; returns the output port."""
        fields = match_fields(packet)
        for rule in self.rules:
            if rule.matches_fields(fields):
                return rule.port
        return self.default_port

    def used_ports(self) -> set[int]:
        ports = {rule.port for rule in self.rules}
        ports.add(self.default_port)
        return ports

    def num_ports(self) -> int:
        return max(self.used_ports()) + 1

    #: Above this size, pairwise coverage pruning (O(n^2)) is skipped and
    #: only O(n) exact-duplicate elimination runs. Pruning is purely an
    #: optimization, so the threshold never affects semantics.
    FULL_PRUNE_LIMIT = 2_000

    def prune_shadowed(self) -> "HeaderRuleSet":
        """Drop rules that can never be the first match.

        Two passes (both semantics-preserving):

        1. exact-duplicate elimination — a rule whose match fields equal
           an earlier rule's never fires, whatever its port ("removes
           duplicate rules caused by the cross-product");
        2. for rule sets up to :data:`FULL_PRUNE_LIMIT`, single-rule
           coverage elimination — a rule fully covered by one earlier
           rule never fires ("empty rules caused by priority
           considerations").
        """
        kept: list[HeaderRule] = []
        seen_matches: set[tuple] = set()
        for rule in self.rules:
            fingerprint = (
                rule.src, rule.dst, rule.src_port, rule.dst_port,
                rule.proto, rule.vlan, rule.dscp,
            )
            if fingerprint in seen_matches:
                continue
            seen_matches.add(fingerprint)
            kept.append(rule)
        if len(kept) <= self.FULL_PRUNE_LIMIT:
            covered: list[HeaderRule] = []
            for rule in kept:
                if any(earlier.covers(rule) for earlier in covered):
                    continue
                covered.append(rule)
            kept = covered
        return HeaderRuleSet(kept, self.default_port)

    def prune_default_tail(self) -> "HeaderRuleSet":
        """Drop trailing rules that map to the default port.

        A suffix of rules whose port equals ``default_port`` is redundant:
        any packet reaching them gets the default port either way.
        """
        rules = list(self.rules)
        while rules and rules[-1].port == self.default_port:
            rules.pop()
        return HeaderRuleSet(rules, self.default_port)


class LinearMatcher:
    """Reference matcher: priority-ordered linear scan."""

    #: Name advertised to the controller as an implementation choice.
    implementation = "linear"

    def __init__(self, ruleset: HeaderRuleSet) -> None:
        self.ruleset = ruleset

    def match(self, packet: Packet) -> int:
        return self.ruleset.classify(packet)


def merge_rulesets(
    first: HeaderRuleSet,
    second: HeaderRuleSet,
    port_map: Callable[[int, int], int],
) -> HeaderRuleSet:
    """Cross-product merge of two classifiers applied in sequence.

    A packet classified to port ``a`` by ``first`` and port ``b`` by
    ``second`` must be classified to ``port_map(a, b)`` by the result.

    Priority is lexicographic ``(i, j)`` over the two input priorities,
    which reproduces sequential first-match semantics: the first matching
    rule of ``first`` decides ``a``, then the first matching rule of
    ``second`` decides ``b``.
    """
    # Materialize the implicit catch-all defaults so the cross product
    # covers the full packet space.
    rules_a = list(first.rules) + [HeaderRule(port=first.default_port)]
    rules_b = list(second.rules) + [HeaderRule(port=second.default_port)]

    merged: list[HeaderRule] = []
    for rule_a in rules_a:
        for rule_b in rules_b:
            combined = rule_a.intersect(rule_b, port_map(rule_a.port, rule_b.port))
            if combined is not None:
                merged.append(combined)

    # The final (catch-all x catch-all) pair becomes the new default.
    default_port = port_map(first.default_port, second.default_port)
    result = HeaderRuleSet(merged, default_port)
    result = result.prune_shadowed()
    return result.prune_default_tail()
