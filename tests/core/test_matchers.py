"""Classifier implementations (linear, trie, TCAM) agree on all packets.

The OpenBox protocol lets one abstract block have several
implementations (paper §2.1); their observable behaviour must be
identical — only cost differs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classify.header import HeaderRuleSet, LinearMatcher
from repro.core.classify.rules import HeaderRule
from repro.core.classify.tcam import TcamMatcher, range_to_prefix_masks
from repro.core.classify.trie import TrieMatcher
from repro.net.builder import make_tcp_packet, make_udp_packet
from repro.net.packet import Packet


def rule_dicts():
    return st.fixed_dictionaries(
        {"port": st.integers(0, 4)},
        optional={
            "src_ip": st.sampled_from(["10.0.0.0/8", "10.128.0.0/9", "44.3.0.0/16"]),
            "dst_ip": st.sampled_from(["192.168.0.0/16", "192.168.128.0/17", "8.8.8.8/32"]),
            "src_port": st.sampled_from([1000, [1000, 2000]]),
            "dst_port": st.sampled_from([22, 80, [440, 450]]),
            "proto": st.sampled_from([6, 17]),
            "vlan": st.just(5),
        },
    )


def packets():
    return st.builds(
        lambda src, dst, sp, dp, udp, vlan: (
            make_udp_packet(src, dst, sp, dp, vlan=vlan)
            if udp else make_tcp_packet(src, dst, sp, dp, vlan=vlan)
        ),
        st.sampled_from(["10.1.1.1", "10.200.0.1", "44.3.9.9", "1.2.3.4"]),
        st.sampled_from(["192.168.5.5", "192.168.200.1", "8.8.8.8", "9.9.9.9"]),
        st.sampled_from([999, 1000, 1500, 2001]),
        st.sampled_from([22, 80, 445, 9999]),
        st.booleans(),
        st.sampled_from([None, 5, 6]),
    )


class TestImplementationAgreement:
    @settings(max_examples=150, deadline=None)
    @given(
        # Enough rules that destination-ANY (root) rules fall on both
        # sides of the trie path's first match.
        st.lists(rule_dicts(), max_size=40),
        st.integers(0, 4),
        st.lists(packets(), min_size=1, max_size=6),
    )
    def test_all_matchers_agree(self, rules, default, trace):
        ruleset = HeaderRuleSet(
            [HeaderRule.from_dict(rule) for rule in rules], default_port=default
        )
        matchers = [LinearMatcher(ruleset), TrieMatcher(ruleset), TcamMatcher(ruleset)]
        for packet in trace:
            results = {matcher.match(packet) for matcher in matchers}
            assert len(results) == 1, (
                f"implementations disagree on {packet.summary()}: "
                f"{[type(m).__name__ for m in matchers]} -> {results}"
            )

    @pytest.mark.parametrize(
        ("rules", "packet", "port"),
        [
            pytest.param(
                [{"proto": 6, "port": 1}, {"dst_ip": "192.168.0.0/16", "port": 2}],
                make_tcp_packet("1.2.3.4", "192.168.5.5", 1000, 80),
                1,
                id="root-rule-outranks-path-match",
            ),
            pytest.param(
                [
                    {"dst_ip": "192.168.128.0/17", "port": 3},
                    {"dst_ip": "192.168.0.0/16", "port": 2},
                    {"proto": 6, "port": 1},
                    {"port": 4},
                ],
                make_tcp_packet("1.2.3.4", "192.168.5.5", 1000, 80),
                2,
                id="path-match-outranks-root-rules",
            ),
            pytest.param(
                [
                    {"proto": 6, "port": 1},
                    {"dst_ip": "0.0.0.0/1", "port": 2},
                    {"dst_port": 80, "port": 3},
                    {"port": 4},
                ],
                Packet(data=b"\x00" * 20),
                4,
                id="non-ip-hits-later-catch-all",
            ),
        ],
    )
    def test_first_match_across_path_and_root(self, rules, packet, port):
        ruleset = HeaderRuleSet(
            [HeaderRule.from_dict(rule) for rule in rules], default_port=0
        )
        for matcher in (LinearMatcher(ruleset), TrieMatcher(ruleset), TcamMatcher(ruleset)):
            assert matcher.match(packet) == port, type(matcher).__name__

    def test_non_ip_packet_handled_by_all(self):
        ruleset = HeaderRuleSet(
            [HeaderRule.from_dict({"port": 1})], default_port=0
        )
        junk = Packet(data=b"\x00" * 20)
        assert LinearMatcher(ruleset).match(junk) == 1  # catch-all matches
        assert TrieMatcher(ruleset).match(junk) == 1
        assert TcamMatcher(ruleset).match(junk) == 1


class TestTcamExpansion:
    def test_range_expansion_covers_exactly(self):
        for lo, hi in [(0, 65535), (80, 80), (1, 6), (1024, 65535), (443, 445)]:
            pairs = range_to_prefix_masks(lo, hi)
            covered = set()
            for value, mask in pairs:
                width_free = (~mask) & 0xFFFF
                # enumerate small blocks only
                block = [value | bits for bits in range(width_free + 1)
                         if (bits & mask) == 0] if width_free < 4096 else None
                if block is None:
                    continue
                covered.update(block)
            if all(((~m) & 0xFFFF) < 4096 for _v, m in pairs):
                assert covered == set(range(lo, hi + 1))

    def test_exact_port_is_single_entry(self):
        assert len(range_to_prefix_masks(80, 80)) == 1

    def test_full_range_is_single_wildcard(self):
        pairs = range_to_prefix_masks(0, 65535)
        assert pairs == [(0, 0)]

    def test_entry_count_reported(self):
        ruleset = HeaderRuleSet(
            [HeaderRule.from_dict({"dst_port": [1, 6], "port": 1})], default_port=0
        )
        matcher = TcamMatcher(ruleset)
        assert matcher.entry_count >= 2  # range expansion

    def test_capacity_enforced(self):
        ruleset = HeaderRuleSet(
            [HeaderRule.from_dict({"dst_port": [1, 30000], "port": 1})],
            default_port=0,
        )
        with pytest.raises(ValueError):
            TcamMatcher(ruleset, capacity=1)

    def test_priority_order_respected(self):
        ruleset = HeaderRuleSet(
            [
                HeaderRule.from_dict({"src_ip": "10.0.0.0/8", "port": 1}),
                HeaderRule.from_dict({"src_ip": "10.1.0.0/16", "port": 2}),
            ],
            default_port=0,
        )
        packet = make_tcp_packet("10.1.2.3", "2.2.2.2", 1, 2)
        assert TcamMatcher(ruleset).match(packet) == 1
