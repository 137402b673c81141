"""White-box tests of TCP sender/receiver internals."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netem.engine import EventLoop
from repro.transport.config import TCP, TCP_PLUS
from repro.transport.ranges import RangeSet
from repro.transport.tcp import (
    AUTOTUNE_INITIAL_BYTES,
    DUP_THRESH_BYTES_FACTOR,
    TcpReceiver,
    TcpSegment,
    TcpSender,
)


def make_sender(stack=TCP, sent_log=None):
    loop = EventLoop()
    log = sent_log if sent_log is not None else []

    def send_packet(size, segment):
        log.append((loop.now, size, segment))

    sender = TcpSender(loop, stack, send_packet, "s2c", bdp_hint=75_000)
    return loop, sender, log


def make_receiver(stack=TCP, acks=None, delivered=None, metas=None):
    loop = EventLoop()
    ack_log = acks if acks is not None else []
    data_log = delivered if delivered is not None else []
    receiver = TcpReceiver(
        loop, stack, ack_log.append, "s2c", bdp_hint=75_000,
        on_data=lambda total, ms: data_log.append((total, ms)),
        metas=metas if metas is not None else {},
    )
    return loop, receiver, ack_log, data_log


def ack(sender, cumulative, sack_blocks=(), rwnd=10_000_000):
    sender.on_ack(TcpSegment(kind="ack", direction="s2c", ack=cumulative,
                             sack_blocks=tuple(sack_blocks), rwnd=rwnd))


def data(receiver, seq, length):
    receiver.on_segment(TcpSegment(kind="data", direction="s2c", seq=seq,
                                   length=length))


class TestSenderWindowing:
    def test_initial_window_respected(self):
        loop, sender, log = make_sender(stack=TCP)
        sender.write(1_000_000)
        loop.run(until=0.5)
        sent_bytes = sum(seg.length for _, _, seg in log)
        assert sent_bytes <= TCP.initial_window_segments * TCP.mss

    def test_rwnd_limits_new_data(self):
        loop, sender, log = make_sender(stack=TCP)
        sender._peer_rwnd = 3 * TCP.mss
        sender.write(1_000_000)
        loop.run(until=0.5)
        sent_bytes = sum(seg.length for _, _, seg in log)
        assert sent_bytes <= 3 * TCP.mss

    def test_ack_opens_window(self):
        loop, sender, log = make_sender(stack=TCP)
        sender.write(1_000_000)
        loop.run(until=0.1)
        before = len(log)
        ack(sender, TCP.mss * 4)
        loop.run(until=0.2)
        assert len(log) > before

    def test_backlog_accounting(self):
        loop, sender, log = make_sender()
        sender.write(500_000)
        loop.run(until=0.1)
        assert sender.backlog == 500_000 - sender.snd_nxt

    def test_all_acked(self):
        loop, sender, log = make_sender()
        sender.write(5_000)
        loop.run(until=0.1)
        assert not sender.all_acked
        ack(sender, 5_000)
        assert sender.all_acked


class TestSenderLossDetection:
    def _fill(self, sender, loop, amount=200_000):
        sender.write(amount)
        loop.run(until=0.1)

    def test_sack_hole_marked_lost(self):
        loop, sender, log = make_sender()
        self._fill(sender, loop)
        mss = TCP.mss
        # Hole at [0, mss); 4 segments SACKed above. The hole is marked
        # lost and (window permitting) retransmitted right away.
        ack(sender, 0, sack_blocks=[(mss, 5 * mss)])
        assert sender.stats.fast_retransmits >= 1
        loop.run(until=0.15)
        retx = [seg for _, _, seg in log if seg.is_retransmit]
        assert retx and retx[0].seq == 0

    def test_small_sack_not_enough_for_loss(self):
        loop, sender, log = make_sender()
        self._fill(sender, loop)
        mss = TCP.mss
        ack(sender, 0, sack_blocks=[(mss, 2 * mss)])  # < 3 MSS above hole
        assert sender._lost.covered_bytes() == 0

    def test_retransmission_sent_once_until_timeout(self):
        loop, sender, log = make_sender()
        self._fill(sender, loop)
        mss = TCP.mss
        ack(sender, 0, sack_blocks=[(mss, 5 * mss)])
        loop.run(until=0.15)
        retx = [seg for _, _, seg in log if seg.is_retransmit]
        first_count = len(retx)
        assert first_count >= 1
        # A second identical SACK must not trigger a duplicate resend.
        ack(sender, 0, sack_blocks=[(mss, 5 * mss)])
        loop.run(until=0.16)
        retx_after = [seg for _, _, seg in log if seg.is_retransmit]
        assert len(retx_after) == first_count

    def test_rto_collapses_and_retransmits(self):
        loop, sender, log = make_sender()
        self._fill(sender, loop, amount=30_000)
        loop.run(until=3.0)  # no ACKs ever: RTO must fire
        assert sender.stats.rto_count >= 1
        retx = [seg for _, _, seg in log if seg.is_retransmit]
        assert retx

    def test_cumulative_ack_clears_loss_state(self):
        loop, sender, log = make_sender()
        self._fill(sender, loop)
        mss = TCP.mss
        ack(sender, 0, sack_blocks=[(mss, 5 * mss)])
        ack(sender, 5 * mss)
        assert sender._lost.covered_bytes() == 0
        assert sender._retx_in_flight.covered_bytes() == 0


def per_hole_marks(snd_una, sacked, retx_in_flight, lost, mss):
    """Reference loss marking: sum the bytes SACKed above every hole.

    Returns the ``_lost`` scoreboard after marking, and how many bytes
    the marking newly covered.
    """
    lost = RangeSet(lost)
    before = lost.covered_bytes()
    threshold = DUP_THRESH_BYTES_FACTOR * mss
    for start, end in sacked.missing_within(snd_una, sacked.highest()):
        above = sum(max(0, e - max(s, end)) for s, e in sacked)
        if above < threshold:
            continue
        for sub_start, sub_end in retx_in_flight.missing_within(start, end):
            lost.add(sub_start, sub_end)
    return lost, lost.covered_bytes() - before


_MSS = TCP.mss


@st.composite
def _scoreboards(draw):
    """snd_una plus SACKed, retransmitted and lost ranges, in bytes.

    Offsets come in units of half an MSS, a whole MSS or 1000 bytes, so
    the bytes SACKed above a hole often land exactly on the threshold.
    """
    unit = draw(st.sampled_from([_MSS // 2, _MSS, 1000]))
    spans = st.lists(st.tuples(st.integers(0, 40), st.integers(1, 6)),
                     max_size=12)

    def ranges():
        return RangeSet((s * unit, (s + n) * unit) for s, n in draw(spans))

    snd_una = draw(st.integers(0, 12)) * unit
    sacked = ranges()
    sack_at_una = draw(st.integers(0, 4)) * unit
    if sack_at_una:
        # A SACKed range that starts exactly at snd_una.
        sacked.add(snd_una, snd_una + sack_at_una)
    return snd_una, sacked, ranges(), ranges()


class TestLossDetectionOracle:
    @given(board=_scoreboards(), in_recovery=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_one_pass_scan_matches_per_hole_rule(self, board, in_recovery):
        snd_una, sacked, retx, lost = board
        loop, sender, _ = make_sender()
        sender.snd_una = snd_una
        sender.snd_nxt = max(snd_una, sacked.highest(), retx.highest(),
                             lost.highest())
        sender._sacked = sacked
        sender._retx_in_flight = retx
        sender._lost = RangeSet(lost)
        sender._in_recovery = in_recovery
        expected_lost, newly_lost = per_hole_marks(snd_una, sacked, retx,
                                                   lost, _MSS)

        sender._detect_losses(loop.now)

        assert list(sender._lost) == list(expected_lost)
        assert sender.stats.fast_retransmits == int(newly_lost > 0)
        assert sender.stats.loss_events == int(newly_lost > 0
                                               and not in_recovery)

    def test_hole_marked_lost_at_exact_threshold(self):
        # One hole, exactly 3 MSS SACKed above it: marked lost.
        loop, sender, _ = make_sender()
        sender.snd_nxt = 10 * _MSS
        sender._sacked = RangeSet([(_MSS, 4 * _MSS)])
        sender._detect_losses(loop.now)
        assert list(sender._lost) == [(0, _MSS)]
        assert sender.stats.loss_events == 1


class TestReceiver:
    def test_in_order_delivery(self):
        loop, receiver, acks, delivered = make_receiver()
        data(receiver, 0, 1000)
        data(receiver, 1000, 1000)
        assert delivered[-1][0] == 2000

    def test_out_of_order_buffered(self):
        loop, receiver, acks, delivered = make_receiver()
        data(receiver, 1000, 1000)
        assert not delivered  # nothing contiguous yet
        data(receiver, 0, 1000)
        assert delivered[-1][0] == 2000

    def test_immediate_ack_on_out_of_order(self):
        loop, receiver, acks, delivered = make_receiver()
        data(receiver, 1000, 1000)
        assert acks  # duplicate-ACK behaviour
        assert acks[-1].ack == 0
        assert acks[-1].sack_blocks == ((1000, 2000),)

    def test_ack_every_second_packet(self):
        loop, receiver, acks, delivered = make_receiver()
        data(receiver, 0, 1000)
        assert not acks  # delayed
        data(receiver, 1000, 1000)
        assert len(acks) == 1
        assert acks[0].ack == 2000

    def test_delayed_ack_timer_fires(self):
        loop, receiver, acks, delivered = make_receiver()
        data(receiver, 0, 1000)
        loop.run(until=0.1)
        assert len(acks) == 1

    def test_sack_block_limit(self):
        loop, receiver, acks, delivered = make_receiver()
        # Five separated blocks; TCP advertises only the newest three.
        for start in (2000, 6000, 10_000, 14_000, 18_000):
            data(receiver, start, 1000)
        assert len(acks[-1].sack_blocks) == 3
        assert acks[-1].sack_blocks[0] == (18_000, 19_000)

    def test_meta_dispatch(self):
        metas = {1500: ["first"], 3000: ["second"]}
        loop, receiver, acks, delivered = make_receiver(metas=metas)
        data(receiver, 0, 1500)
        data(receiver, 1500, 1500)
        flat = [m for _, ms in delivered for m in ms]
        assert flat == ["first", "second"]

    def test_autotuning_grows_buffer(self):
        loop, receiver, acks, delivered = make_receiver(stack=TCP)
        assert receiver.buffer_cap == AUTOTUNE_INITIAL_BYTES
        offset = 0
        # Deliver faster than half the initial buffer per RTT window so
        # dynamic right-sizing must kick in.
        for _ in range(100):
            for _ in range(5):
                data(receiver, offset, 1460)
                offset += 1460
            loop.run(until=loop.now + 0.011)
        assert receiver.buffer_cap > AUTOTUNE_INITIAL_BYTES

    def test_tuned_buffer_fixed(self):
        loop, receiver, acks, delivered = make_receiver(stack=TCP_PLUS)
        initial = receiver.buffer_cap
        assert initial >= 256 * 1024
        offset = 0
        for _ in range(50):
            data(receiver, offset, 1460)
            offset += 1460
        assert receiver.buffer_cap == initial


class TestReceiverProperties:
    @given(st.permutations(list(range(10))))
    @settings(max_examples=60, deadline=None)
    def test_any_arrival_order_delivers_everything(self, order):
        loop, receiver, acks, delivered = make_receiver()
        for index in order:
            data(receiver, index * 1000, 1000)
        assert receiver.delivered == 10_000
        totals = [t for t, _ in delivered]
        assert totals == sorted(totals)

    @given(st.lists(st.integers(0, 19), min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_duplicates_are_harmless(self, indices):
        loop, receiver, acks, delivered = make_receiver()
        for index in indices:
            data(receiver, index * 1000, 1000)
        expected = len({i for i in indices if self._contiguous(indices, i)})
        # Delivered watermark equals the longest prefix of received data.
        received = {i for i in indices}
        prefix = 0
        while prefix in received:
            prefix += 1
        assert receiver.delivered == prefix * 1000

    @staticmethod
    def _contiguous(indices, i):
        return all(j in indices for j in range(i))
