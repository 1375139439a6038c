"""Packet classification engines for OpenBox classifier blocks.

Three header-classification engines implement the same first-match
semantics with different cost profiles (paper §2.1: an abstract block may
have several implementations, e.g. a software trie or a hardware TCAM):

* :class:`~repro.core.classify.header.LinearMatcher` — reference
  implementation, linear scan by priority;
* :class:`~repro.core.classify.trie.TrieMatcher` — destination-prefix trie
  whose per-node rule lists are kept in priority order, so a lookup
  scans the path and the root list without sorting;
* :class:`~repro.core.classify.tcam.TcamMatcher` — simulated TCAM
  (parallel mask/value entries with constant modelled lookup latency).

Payload classification (:class:`~repro.core.classify.regex.RegexRuleSet`)
is one priority-ordered list of C-speed checks: ``bytes`` substring tests
for literals and compiled-``re`` searches for true regexes.
"""

from repro.core.classify.header import (
    HeaderRuleSet,
    LinearMatcher,
    merge_rulesets,
)
from repro.core.classify.regex import RegexPattern, RegexRuleSet
from repro.core.classify.rules import HeaderRule, PortRange, Prefix
from repro.core.classify.tcam import TcamMatcher
from repro.core.classify.trie import TrieMatcher

__all__ = [
    "HeaderRule",
    "HeaderRuleSet",
    "LinearMatcher",
    "PortRange",
    "Prefix",
    "RegexPattern",
    "RegexRuleSet",
    "TcamMatcher",
    "TrieMatcher",
    "merge_rulesets",
]
