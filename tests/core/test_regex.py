"""RegexRuleSet tests (reference-checked against re)."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classify.regex import RegexPattern, RegexRuleSet


def _literals(*patterns):
    return RegexRuleSet([RegexPattern(pattern=p) for p in patterns])


class TestAhoCorasick:
    """The multi-pattern guarantees of an Aho-Corasick automaton (overlaps,
    lowest index wins wherever it occurs), held by the ordered scan."""

    def test_single_pattern(self):
        ruleset = _literals("abc")
        assert ruleset.first_match_index(b"xxabcxx") == 0
        assert ruleset.first_match_index(b"xxabxx") is None

    def test_overlapping_patterns(self):
        ruleset = _literals("he", "she", "his", "hers")
        assert ruleset.match_all(b"ushers") == {0, 1, 3}  # "he", "she", "hers"
        assert ruleset.first_match_index(b"ushers") == 0

    def test_find_first_returns_lowest_id(self):
        ruleset = _literals("zzz", "aa")
        # Pattern 1 appears first positionally, but no pattern 0 -> 1.
        assert ruleset.first_match_index(b"xaax") == 1
        # Pattern 0 later in the text still wins by index.
        assert ruleset.first_match_index(b"aa...zzz") == 0

    def test_pattern_inside_pattern(self):
        ruleset = _literals("abcd", "bc")
        assert ruleset.match_all(b"abcd") == {0, 1}
        assert ruleset.first_match_index(b"xbcx") == 1

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            _literals("")
        with pytest.raises(ValueError):
            RegexRuleSet([RegexPattern(pattern="", case_sensitive=False)])

    def test_contains_any(self):
        ruleset = _literals("evil")
        assert ruleset.first_match_index(b"such evil bytes") is not None
        assert ruleset.first_match_index(b"innocuous") is None

    def test_repeated_failure_transitions(self):
        ruleset = _literals("aaa", "aaaaaa")
        assert ruleset.match_all(b"aaaaa") == {0}
        assert ruleset.match_all(b"aa") == set()
        assert ruleset.first_match_index(b"baabaaab") == 0

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.builds(
                    lambda text, nocase: RegexPattern(
                        pattern=text, case_sensitive=not nocase),
                    st.text(alphabet="abAB\xe9", min_size=1, max_size=4),
                    st.booleans(),
                ),
                st.builds(
                    lambda text, nocase: RegexPattern(
                        pattern=text, is_regex=True, case_sensitive=not nocase),
                    st.sampled_from(["a+b", "[Bb]a", "a.A", "^b", "ab$"]),
                    st.booleans(),
                ),
            ),
            min_size=1,
            max_size=6,
        ),
        st.text(alphabet="aAbB\xe9 ", max_size=60).map(lambda text: text.encode("latin-1")),
    )
    def test_matches_reference_implementation(self, specs, payload):
        """Both queries agree with a brute-force search of every pattern;
        the first match is the lowest index that occurs."""
        ruleset = RegexRuleSet(specs)
        expected = set()
        for index, spec in enumerate(specs):
            source = spec.pattern.encode("latin-1")
            if not spec.is_regex:
                source = re.escape(source)
            flags = 0 if spec.case_sensitive else re.IGNORECASE
            if re.search(source, payload, flags):
                expected.add(index)
        assert ruleset.match_all(payload) == expected
        assert ruleset.first_match_index(payload) == min(expected, default=None)


class TestRegexRuleSet:
    def _ruleset(self, *patterns, default=0):
        return RegexRuleSet([RegexPattern(**p) for p in patterns], default_port=default)

    def test_literal_first_match(self):
        ruleset = self._ruleset(
            {"pattern": "attack", "port": 1},
            {"pattern": "evil", "port": 2},
        )
        assert ruleset.classify(b"the attack begins") == 1
        assert ruleset.classify(b"pure evil") == 2
        assert ruleset.classify(b"benign") == 0

    def test_priority_when_both_match(self):
        ruleset = self._ruleset(
            {"pattern": "alpha", "port": 1},
            {"pattern": "beta", "port": 2},
        )
        assert ruleset.classify(b"beta then alpha") == 1  # lower index wins

    def test_case_insensitive_literal(self):
        ruleset = self._ruleset(
            {"pattern": "Attack", "case_sensitive": False, "port": 1},
        )
        assert ruleset.classify(b"ATTACK!") == 1
        assert ruleset.classify(b"attack!") == 1

    def test_case_sensitive_literal(self):
        ruleset = self._ruleset({"pattern": "Attack", "port": 1})
        assert ruleset.classify(b"Attack") == 1
        assert ruleset.classify(b"attack") == 0

    def test_regex_pattern(self):
        ruleset = self._ruleset(
            {"pattern": r"union\s+select", "is_regex": True,
             "case_sensitive": False, "port": 3},
        )
        assert ruleset.classify(b"UNION   SELECT *") == 3
        assert ruleset.classify(b"union_select") == 0

    def test_mixed_literal_and_regex_priority(self):
        ruleset = self._ruleset(
            {"pattern": r"a+b", "is_regex": True, "port": 1},
            {"pattern": "aab", "port": 2},
        )
        assert ruleset.classify(b"xxaab") == 1  # regex has lower index

    def test_match_all(self):
        ruleset = self._ruleset(
            {"pattern": "one", "port": 1},
            {"pattern": "TWO", "case_sensitive": False, "port": 2},
            {"pattern": r"thr..", "is_regex": True, "port": 3},
        )
        assert ruleset.match_all(b"one two three") == {0, 1, 2}
        assert ruleset.match_all(b"nothing here... ") == set()

    def test_config_roundtrip(self):
        ruleset = self._ruleset(
            {"pattern": "x", "port": 1},
            {"pattern": "y.z", "is_regex": True, "case_sensitive": False, "port": 2},
            default=5,
        )
        again = RegexRuleSet.from_config(ruleset.to_config())
        assert again.classify(b"x") == 1
        assert again.classify(b"yaz") == 2
        assert again.classify(b"none") == 5

    def test_matching_pattern_object(self):
        ruleset = self._ruleset({"pattern": "hit", "port": 1})
        assert ruleset.matching_pattern(b"a hit!").pattern == "hit"
        assert ruleset.matching_pattern(b"miss") is None

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.text(alphabet="abcXY", min_size=1, max_size=4), min_size=1, max_size=5
        ),
        st.text(alphabet="abcXY ", max_size=40),
    )
    def test_first_match_reference(self, patterns, haystack):
        """Literal classification agrees with a naive loop."""
        specs = [RegexPattern(pattern=p, port=i + 1) for i, p in enumerate(patterns)]
        ruleset = RegexRuleSet(specs)
        payload = haystack.encode("latin-1")
        expected = 0
        for index, pattern in enumerate(patterns):
            if pattern.encode("latin-1") in payload:
                expected = index + 1
                break
        assert ruleset.classify(payload) == expected
