"""Payload pattern matching for RegexClassifier blocks.

Snort-style rule sets are dominated by literal ``content`` patterns with
the occasional true regular expression (``pcre``). The IPS splits its
rules into groups by destination port, so a deployed RegexClassifier
holds few patterns (14–18 on the benchmark's IPS), and the rule set is
one priority-ordered list of checks, each run at C speed:

* a literal is a ``bytes`` substring test (``needle in payload``);
* a ``nocase`` literal is a substring test against the lower-cased
  payload, which is lowered at most once per call;
* a true regex is a compiled :mod:`re` ``search``.

The classifier reports the *highest-priority* (lowest index) matching
pattern, which gives deterministic first-match semantics like the header
classifiers. Each check scans the payload once, so the cost grows with
the pattern count: above ~100–150 literals in one block a single-pass
multi-pattern automaton wins, even one written in Python. No benchmark
workload has blocks that large.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Iterator

# Check kinds: case-sensitive literal, ``nocase`` literal, regex.
_LITERAL, _NOCASE, _REGEX = range(3)


@dataclass(frozen=True)
class RegexPattern:
    """A single payload pattern: literal bytes or a regular expression."""

    pattern: str
    port: int = 1
    is_regex: bool = False
    case_sensitive: bool = True

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"pattern": self.pattern, "port": self.port}
        if self.is_regex:
            data["is_regex"] = True
        if not self.case_sensitive:
            data["case_sensitive"] = False
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RegexPattern":
        return cls(
            pattern=data["pattern"],
            port=int(data.get("port", 1)),
            is_regex=bool(data.get("is_regex", False)),
            case_sensitive=bool(data.get("case_sensitive", True)),
        )


class RegexRuleSet:
    """A compiled RegexClassifier configuration.

    Holds one ``(kind, needle)`` check per pattern, in pattern (priority)
    order; ``needle`` is the literal's bytes (lower-cased for ``nocase``)
    or the compiled regex.
    """

    def __init__(self, patterns: list[RegexPattern], default_port: int = 0) -> None:
        self.patterns = list(patterns)
        self.default_port = default_port
        self._checks: list[tuple[int, Any]] = []
        for index, spec in enumerate(self.patterns):
            needle = spec.pattern.encode("latin-1")
            if spec.is_regex:
                flags = 0 if spec.case_sensitive else re.IGNORECASE
                self._checks.append((_REGEX, re.compile(needle, flags)))
            elif not needle:
                # An empty literal occurs in every payload.
                raise ValueError(f"empty literal pattern at index {index}")
            elif spec.case_sensitive:
                self._checks.append((_LITERAL, needle))
            else:
                self._checks.append((_NOCASE, needle.lower()))

    def __len__(self) -> int:
        return len(self.patterns)

    @classmethod
    def from_config(cls, config: dict[str, Any]) -> "RegexRuleSet":
        patterns = [RegexPattern.from_dict(item) for item in config.get("patterns", ())]
        return cls(patterns, default_port=int(config.get("default_port", 0)))

    def to_config(self) -> dict[str, Any]:
        return {
            "patterns": [spec.to_dict() for spec in self.patterns],
            "default_port": self.default_port,
        }

    def _hits(self, payload: bytes) -> Iterator[int]:
        """Indexes of the matching patterns, lowest first, lazily."""
        lowered = None
        for index, (kind, needle) in enumerate(self._checks):
            if kind == _LITERAL:
                hit = needle in payload
            elif kind == _NOCASE:
                if lowered is None:
                    lowered = payload.lower()
                hit = needle in lowered
            else:
                hit = needle.search(payload) is not None
            if hit:
                yield index

    def first_match_index(self, payload: bytes) -> int | None:
        """Index of the highest-priority matching pattern, or None."""
        return next(self._hits(payload), None)

    def match_all(self, payload: bytes) -> set[int]:
        """Indexes of *every* matching pattern."""
        return set(self._hits(payload))

    def classify(self, payload: bytes) -> int:
        """Output port for ``payload`` (default port when nothing matches)."""
        index = self.first_match_index(payload)
        if index is None:
            return self.default_port
        return self.patterns[index].port

    def matching_pattern(self, payload: bytes) -> RegexPattern | None:
        index = self.first_match_index(payload)
        return self.patterns[index] if index is not None else None
