"""Per-ACK work pins: each ACK costs only what it newly acknowledges.

One heavy page load on a lossy in-flight link, counted with wrappers:

* ``RangeSet.add`` calls per QUIC ACK frame. A QUIC ACK frame
  re-reports up to 256 ranges, almost all of them already processed;
  the sender must skip those rather than re-insert each one.
* RTO/PTO timer arms per ACK. An ACK that sends re-arms the timer
  once, in the send path; the ACK handler arms only when pacing kept
  the send path from doing so.

The counts are deterministic, so the bounds are exact gates, not
timings.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.browser.engine import load_page
from repro.netem.engine import EventLoop
from repro.netem.profiles import network_by_name
from repro.transport.config import stack_by_name
from repro.transport.quic import QuicEndpoint
from repro.transport.ranges import RangeSet
from repro.transport.tcp import TcpSender
from repro.web.corpus import build_site


def _count_calls(monkeypatch, counts, cls, name, key):
    original = getattr(cls, name)

    def counted(*args, **kwargs):
        counts[key] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)


def _load(stack):
    """Load nytimes.com over DA2GC at seed 1, counting the ACK path."""
    site = build_site("nytimes.com")
    counts: Counter = Counter()
    with pytest.MonkeyPatch.context() as monkeypatch:
        _count_calls(monkeypatch, counts, RangeSet, "add", "range_adds")
        _count_calls(monkeypatch, counts, QuicEndpoint, "on_ack_frame",
                     "ack_frames")
        _count_calls(monkeypatch, counts, TcpSender, "on_ack", "tcp_acks")
        call_at = EventLoop.call_at

        def counted_call_at(loop, when, callback):
            counts[getattr(callback, "__name__", "")] += 1
            return call_at(loop, when, callback)

        monkeypatch.setattr(EventLoop, "call_at", counted_call_at)
        result = load_page(site, network_by_name("DA2GC"),
                           stack_by_name(stack), seed=1)
    assert result.completed
    return counts


@pytest.fixture(scope="module")
def quic_counts():
    return _load("QUIC")


def test_quic_ack_frame_adds_only_new_ranges(quic_counts):
    assert quic_counts["ack_frames"] > 1000
    # Re-inserting every reported range made 42.2 adds per frame.
    assert quic_counts["range_adds"] <= 6 * quic_counts["ack_frames"]


def test_quic_ack_frame_arms_pto_about_once(quic_counts):
    # Arming before the send and again inside it made 2.06 per frame.
    assert quic_counts["_on_pto"] <= 1.3 * quic_counts["ack_frames"]


def test_tcp_ack_arms_rto_about_once():
    counts = _load("TCP")
    assert counts["tcp_acks"] > 1000
    # Arming before the send and again inside it made 2.15 per ACK.
    assert counts["_on_rto"] <= 1.3 * counts["tcp_acks"]
