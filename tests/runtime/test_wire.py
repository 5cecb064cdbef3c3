"""Unit tests for the wire layer: framing and serialisation safety.

The multiprocess substrate's correctness rests on two contracts this
file pins down: (1) the length-prefixed frame codec survives arbitrary
chunking, partial reads and junk headers; (2) every message class that
crosses a process boundary — envelopes, the identity-compared
``NO_RESPONSE`` sentinel, state checkpoint chunks, chaos fault records
— round-trips through pickle without losing meaning, so a future
``__slots__`` or dataclass refactor cannot silently break the
multiprocess path.
"""

import os
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import fault_from_dict, fault_to_dict
from repro.chaos.plan import CrashTask, KillNode, ScaleUp
from repro.runtime.envelope import (
    INPUT_EDGE,
    NO_RESPONSE,
    ChannelId,
    Envelope,
)
from repro.runtime.envelope import make_envelope as rebuild
from repro.runtime.wire import (
    FRAME_HEADER,
    MAX_FRAME_BYTES,
    MSG_DELIVER,
    MSG_IDLE,
    MSG_STATE,
    FrameBuffer,
    WireError,
    encode_frame,
    encode_run,
    write_frame,
)
from repro.state.base import DeltaChunk, StateChunk

#: Payloads a data frame carries: nested tuples and dicts over None,
#: ints (big ones too), strings and the gather sentinel.
PAYLOADS = st.recursive(
    st.none() | st.integers() | st.integers(2**64, 2**200)
    | st.text(max_size=6) | st.just(NO_RESPONSE),
    lambda inner: (st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=4), inner,
                                     max_size=3)),
    max_leaves=8,
)
OPTIONAL_IDS = st.none() | st.integers(0, 2**40)


def make_envelope(payload="x", ts=7, request_id=None, expected=None,
                  trace_id=None):
    channel = ChannelId(2, "split", 1, "count", 3)
    return Envelope(payload=payload, ts=ts, channel=channel,
                    request_id=request_id, expected_responses=expected,
                    trace_id=trace_id)


def assert_same_envelopes(clones, run):
    """Field by field, and typed: an Envelope equals a plain tuple."""
    assert len(clones) == len(run)
    for clone, envelope in zip(clones, run):
        assert type(clone) is Envelope
        assert type(clone.channel) is ChannelId
        for name in Envelope._fields:
            assert getattr(clone, name) == getattr(envelope, name)


def land(runs):
    """A decoded ``MSG_DELIVER``'s runs as the envelopes
    ``Transport.deliver_run`` rebuilds from them, in frame order."""
    return [rebuild(row) for rows in runs for row in rows]


def read_frames(fd, buffer):
    """The live read path of both roles: one ``os.read`` fed to a
    :class:`FrameBuffer`. Returns ``None`` at end of file."""
    data = os.read(fd, 1 << 16)
    if not data:
        return None
    return list(buffer.feed(data))


class TestFrameCodec:
    def test_encode_decode_round_trip(self):
        message = ("deliver", {"k": [1, 2, 3]})
        frame = encode_frame(message)
        (length,) = FRAME_HEADER.unpack(frame[:FRAME_HEADER.size])
        assert length == len(frame) - FRAME_HEADER.size
        assert pickle.loads(frame[FRAME_HEADER.size:]) == message

    def test_oversized_message_refused(self, monkeypatch):
        import repro.runtime.wire as wire

        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 64)
        with pytest.raises(WireError, match="exceeds"):
            encode_frame(b"x" * 65)

    def test_pipe_round_trip_blocking(self):
        r, w = os.pipe()
        try:
            write_frame(w, ("idle", 3, 4, 5))
            write_frame(w, (MSG_DELIVER, [encode_run([make_envelope()])]))
            idle, (tag, runs) = read_frames(r, FrameBuffer())
            assert idle == ("idle", 3, 4, 5)
            assert tag == MSG_DELIVER
            assert land(runs) == [make_envelope()]
        finally:
            os.close(r)
            os.close(w)

    def test_read_frame_eof_on_closed_pipe(self):
        # A peer that dies mid-frame: the bytes it managed to write stay
        # buffered, no message is made up, and the next read is empty —
        # the end-of-file signal both roles act on.
        r, w = os.pipe()
        frame = encode_frame(("idle", 3, 4, 5))
        os.write(w, frame[:-2])
        os.close(w)
        try:
            buffer = FrameBuffer()
            assert read_frames(r, buffer) == []
            assert len(buffer._buffer) == len(frame) - 2
            assert read_frames(r, buffer) is None
        finally:
            os.close(r)

    def test_read_frame_rejects_corrupt_header(self):
        r, w = os.pipe()
        try:
            os.write(w, FRAME_HEADER.pack(MAX_FRAME_BYTES + 1))
            with pytest.raises(WireError, match="corrupt"):
                read_frames(r, FrameBuffer())
        finally:
            os.close(r)
            os.close(w)

    def test_envelope_run_round_trip(self):
        # What a MSG_DELIVER carries: one run per channel, each through
        # the run codec. Every field survives inside the list, and the
        # identity-compared gather sentinel is still the singleton.
        run = [
            make_envelope(payload=("put", "k1", {"v": 2}), ts=1),
            make_envelope(payload=("get", "k1", None), ts=2,
                          request_id=5, expected=3, trace_id=11),
            make_envelope(payload=NO_RESPONSE, ts=3, request_id=5,
                          expected=3, trace_id=11),
        ]
        (message,) = FrameBuffer().feed(
            encode_frame((MSG_DELIVER, [encode_run(run)])))
        tag, runs = message
        assert tag == MSG_DELIVER
        (rows,) = runs
        assert [type(row) for row in rows] == [tuple] * 3
        clones = land(runs)
        assert clones == run
        assert clones[2].payload is NO_RESPONSE
        assert_same_envelopes(clones, run)

    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(st.tuples(PAYLOADS, st.integers(0, 2**40),
                                   st.integers(0, 2), OPTIONAL_IDS,
                                   OPTIONAL_IDS, OPTIONAL_IDS),
                         max_size=70))
    def test_run_codec_round_trip_property(self, rows):
        # Three interned routes, as a producer's emit routes hold them.
        routes = [ChannelId(edge, "split", edge, "count", 3 - edge)
                  for edge in range(3)]
        sent = [Envelope(payload, ts, routes[route], request_id, expected,
                         trace_id)
                for payload, ts, route, request_id, expected, trace_id
                in rows]
        # One run per channel, as both senders queue them.
        runs = [[e for e in sent if e.channel is route] for route in routes]
        run = [envelope for one in runs for envelope in one]
        (message,) = FrameBuffer().feed(encode_frame(
            (MSG_DELIVER, [encode_run(one) for one in runs if one])))
        assert all(len({row[2] for row in rows}) == 1
                   for rows in message[1])
        clones = land(message[1])
        assert_same_envelopes(clones, run)
        for clone, envelope in zip(clones, run):
            assert ((clone.payload is NO_RESPONSE)
                    == (envelope.payload is NO_RESPONSE))
        # One route, one channel: pickle's memo writes it once a frame.
        for route in routes:
            shared = [clone.channel for clone, envelope in zip(clones, run)
                      if envelope.channel is route]
            assert all(channel == route for channel in shared)
            assert len({id(channel) for channel in shared}) <= 1


class TestFrameBuffer:
    def test_yields_messages_across_arbitrary_chunking(self):
        messages = [("a", i) for i in range(5)]
        stream = b"".join(encode_frame(m) for m in messages)
        for chunk_size in (1, 2, 3, 7, len(stream)):
            buffer = FrameBuffer()
            received = []
            for start in range(0, len(stream), chunk_size):
                received.extend(
                    buffer.feed(stream[start:start + chunk_size])
                )
            assert received == messages
            assert len(buffer._buffer) == 0

    def test_stream_split_at_every_byte(self):
        # Three frames of different kinds, cut in two at every offset
        # (header, payload and frame boundaries included): the same
        # three messages come out, in order, nothing left over.
        messages = [
            ("deliver", [make_envelope(ts=i) for i in range(3)]),
            ("idle", 3, 4, 5, {"results": {"serve": [("k", 1)]}}),
            ("out", [make_envelope(payload=NO_RESPONSE, request_id=9,
                                   expected=2)]),
        ]
        stream = b"".join(encode_frame(m) for m in messages)
        for cut in range(len(stream) + 1):
            buffer = FrameBuffer()
            received = list(buffer.feed(stream[:cut]))
            received.extend(buffer.feed(stream[cut:]))
            assert received == messages, cut
            assert received[2][1][0].payload is NO_RESPONSE
            assert len(buffer._buffer) == 0

    def test_partial_frame_stays_buffered(self):
        frame = encode_frame(("deliver", "payload"))
        buffer = FrameBuffer()
        assert list(buffer.feed(frame[:-1])) == []
        assert len(buffer._buffer) == len(frame) - 1
        assert list(buffer.feed(frame[-1:])) == [("deliver", "payload")]

    def test_corrupt_header_raises(self):
        buffer = FrameBuffer()
        with pytest.raises(WireError, match="corrupt"):
            list(buffer.feed(FRAME_HEADER.pack(MAX_FRAME_BYTES + 1)))


def does_not_unpickle(payload):
    try:
        pickle.loads(payload)
    except Exception:
        return True
    return False


ROUTE = ChannelId(1, "split", 0, "count", 2)
#: What crosses a pipe: data runs, control tuples, a delta chunk.
MESSAGES = st.one_of(
    st.lists(st.tuples(PAYLOADS, st.integers(0, 2**40)), max_size=5).map(
        lambda rows: (MSG_DELIVER, [encode_run(
            [Envelope(payload, ts, ROUTE, None, None, None)
             for payload, ts in rows])])),
    st.tuples(st.sampled_from([MSG_IDLE, MSG_STATE]), st.integers(0, 99),
              st.integers(0, 99), st.tuples(st.integers(0, 99)),
              st.tuples(st.integers(0, 99)),
              st.fixed_dictionaries({"metrics": st.just((None, (1.0,)))})),
    st.builds(lambda items, deleted: DeltaChunk(
        index=0, total=1, items=tuple(items), deleted=tuple(deleted),
        version=2, base_version=1),
        st.lists(st.tuples(st.text(max_size=3), st.integers()), max_size=3),
        st.lists(st.text(max_size=3), max_size=2)),
)
def truncated(message, keep):
    """A strict prefix of ``message``'s pickle (maybe empty)."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    return payload[:keep % len(payload)]


#: Frame payloads no peer could have written: empty, a well-formed
#: pickle cut short, or bytes pickle refuses.
BAD_PAYLOADS = st.one_of(
    st.just(b""),
    st.builds(truncated, MESSAGES, st.integers(0, 2**20)),
    st.binary(min_size=1, max_size=16).filter(does_not_unpickle),
)


class TestTornAndGarbageFrames:
    @settings(max_examples=200, deadline=None)
    @given(messages=st.lists(MESSAGES, max_size=6),
           cuts=st.lists(st.integers(0, 2**20), max_size=10))
    def test_any_split_yields_exactly_the_messages(self, messages, cuts):
        stream = b"".join(map(encode_frame, messages))
        bounds = sorted({cut % (len(stream) + 1) for cut in cuts})
        buffer, received = FrameBuffer(), []
        for start, end in zip([0] + bounds, bounds + [len(stream)]):
            received.extend(buffer.feed(stream[start:end]))
        assert received == messages
        assert len(buffer._buffer) == 0

    @settings(max_examples=200, deadline=None)
    @given(bad=BAD_PAYLOADS, after=MESSAGES, cut=st.integers(0, 2**20))
    def test_a_bad_frame_is_a_wire_error_and_the_next_decodes(
            self, bad, after, cut):
        assert does_not_unpickle(bad)
        frame = FRAME_HEADER.pack(len(bad)) + bad
        following = encode_frame(after)
        cut %= len(following) + 1
        buffer = FrameBuffer()
        with pytest.raises(WireError,
                           match=f"malformed {len(bad)}-byte frame"):
            list(buffer.feed(frame + following[:cut]))
        assert len(buffer._buffer) == cut
        assert list(buffer.feed(following[cut:])) == [after]
        assert len(buffer._buffer) == 0


#: The bytes of a frame whose payload does not unpickle.
BAD_FRAME = FRAME_HEADER.pack(3) + b"\xffab"


def read_all(buffer, chunks):
    """Feed ``chunks`` in turn: every message, and ``"WireError"`` in
    the place of each bad frame, reading on past it as a reader that
    skipped the frame would."""
    out = []
    for chunk in chunks:
        feed = buffer.feed(chunk)
        while True:
            try:
                out.extend(feed)
                break
            except WireError:
                out.append("WireError")
                feed = buffer.feed(b"")
    return out


class TestFramesParseInPlace:
    """One parse path, however the stream is cut into reads."""

    MESSAGES = [
        (MSG_DELIVER, [encode_run([make_envelope(ts=i) for i in range(3)])]),
        ("idle", 3, 4, 5, {"results": {"serve": [("k", 1)]}}),
        (MSG_DELIVER, [encode_run([make_envelope(
            payload=NO_RESPONSE, request_id=9, expected=2)])]),
        ("snapshot",),
    ]

    def stream(self):
        frames = [encode_frame(message) for message in self.MESSAGES]
        return b"".join(frames[:2] + [BAD_FRAME] + frames[2:])

    def expected(self):
        return self.MESSAGES[:2] + ["WireError"] + self.MESSAGES[2:]

    def test_whole_stream_in_one_read(self):
        buffer = FrameBuffer()
        assert read_all(buffer, [self.stream()]) == self.expected()
        assert len(buffer._buffer) == 0

    def test_split_at_every_byte(self):
        stream = self.stream()
        for cut in range(len(stream) + 1):
            buffer = FrameBuffer()
            received = read_all(buffer, [stream[:cut], stream[cut:]])
            assert received == self.expected(), cut
            assert len(buffer._buffer) == 0

    def test_one_byte_per_read(self):
        stream = self.stream()
        buffer, received = FrameBuffer(), []
        for i in range(len(stream)):
            received.extend(read_all(buffer, [stream[i:i + 1]]))
            assert len(buffer._buffer) <= len(stream)
        assert received == self.expected()
        assert len(buffer._buffer) == 0

    def test_frame_bytes_is_each_frame_with_its_header(self):
        stream = self.stream()
        sizes = [len(encode_frame(message)) for message in self.MESSAGES]
        for step in (1, 5, len(stream)):
            buffer, seen = FrameBuffer(), []
            chunks = [stream[i:i + step] for i in range(0, len(stream), step)]
            for chunk in chunks:
                feed = buffer.feed(chunk)
                while True:
                    try:
                        for _ in feed:
                            seen.append(buffer.frame_bytes)
                        break
                    except WireError:
                        feed = buffer.feed(b"")
            assert seen == sizes, step

    def test_a_large_frame_arrives_in_many_reads(self):
        # A state reply spans many pipe reads: each read below the
        # frame's end only adds to the buffered head, and the frame
        # decodes once, on the read that completes it.
        message = ("state", b"x" * (1 << 20))
        frame, chunk = encode_frame(message), 1 << 16
        buffer, received = FrameBuffer(), []
        for start in range(0, len(frame), chunk):
            received.extend(buffer.feed(frame[start:start + chunk]))
            if not received:
                assert len(buffer._buffer) == start + chunk
        assert received == [message]
        assert (len(buffer._buffer), buffer.frame_bytes) == (0, len(frame))

    def test_a_reader_that_stops_keeps_the_rest(self):
        # A consumer that stops after the first message (a crash report
        # raises out of the coordinator's loop) leaves the rest buffered.
        stream = self.stream()
        buffer = FrameBuffer()
        feed = buffer.feed(stream)
        assert next(feed) == self.MESSAGES[0]
        feed.close()
        first = len(encode_frame(self.MESSAGES[0]))
        assert len(buffer._buffer) == len(stream) - first
        assert read_all(buffer, [b""]) == self.expected()[1:]


class TestChannelsCrossInterned:
    def test_two_frames_naming_one_route_share_one_channel(self):
        route = ChannelId(3, "split", 1, "count", 2)
        first, second = (
            encode_frame((MSG_DELIVER, [encode_run(
                [make_envelope(ts=ts)._replace(channel=route)])]))
            for ts in (1, 2))
        (a,), (b,) = (land(message[1])
                      for message in FrameBuffer().feed(first + second))
        assert a.channel is b.channel
        assert a.channel == route and type(a.channel) is ChannelId
        assert hash(a.channel) == hash(route)

    def test_a_channel_pickles_as_its_fields_and_an_extension_code(self):
        # The interning constructor travels as a copyreg extension code,
        # not as a module path an unpickler would import.
        route = ChannelId(INPUT_EDGE, "__input__", 0, "serve", 7)
        payload = pickle.dumps(route, protocol=pickle.HIGHEST_PROTOCOL)
        assert b"repro" not in payload
        assert pickle.loads(payload) is pickle.loads(payload)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(route, protocol=protocol))
            assert clone == route and type(clone) is ChannelId


class TestEnvelopeSerialisation:
    def test_pickle_round_trip_preserves_every_field(self):
        envelope = make_envelope(payload=("put", "k1", {"v": 2}), ts=19,
                                 request_id=5, expected=3, trace_id=11)
        clone = pickle.loads(pickle.dumps(envelope))
        assert type(clone) is Envelope
        assert type(clone.channel) is ChannelId
        for name in Envelope._fields:
            assert getattr(clone, name) == getattr(envelope, name)
        assert clone == envelope

    def test_pickled_envelope_is_small(self):
        # A tuple record pickles through ``tuple.__reduce_ex__``: no
        # per-instance state dict, no field names on the wire. As a
        # frozen dataclass this envelope took 249 bytes (112 now).
        envelope = Envelope(payload=1, ts=2, channel=ChannelId(
            INPUT_EDGE, "__input__", 0, "serve", 3))
        assert len(pickle.dumps(envelope, protocol=5)) < 120

    def test_no_response_survives_pickle_as_the_singleton(self):
        envelope = make_envelope(payload=NO_RESPONSE, request_id=1,
                                 expected=2)
        clone = pickle.loads(pickle.dumps(envelope))
        # Identity, not equality: the gather barrier compares with `is`.
        assert clone.payload is NO_RESPONSE
        assert type(clone) is Envelope

    def test_channel_sentinels_round_trip(self):
        for edge in (INPUT_EDGE, 0, 5):
            channel = ChannelId(edge, "src", 0, "dst", 1)
            assert pickle.loads(pickle.dumps(channel)) == channel


class TestStateAndFaultCodecs:
    def test_state_chunk_round_trip(self):
        chunk = StateChunk(index=1, total=4,
                           items=(("k1", 10), ("k2", [1, 2])),
                           meta={"se": "table"})
        clone = pickle.loads(pickle.dumps(chunk))
        assert clone == chunk

    def test_delta_chunk_round_trip(self):
        delta = DeltaChunk(index=0, total=2, items=(("k", 9),),
                           meta={"se": "counts"}, version=7,
                           base_version=6, deleted=("gone",))
        clone = pickle.loads(pickle.dumps(delta))
        assert clone == delta
        assert clone.version == 7 and clone.deleted == ("gone",)

    def test_fault_records_round_trip_both_codecs(self):
        faults = [KillNode(at_step=10, node_id=2),
                  CrashTask(at_step=5, te="serve"),
                  ScaleUp(at_step=30, te="count")]
        for fault in faults:
            assert pickle.loads(pickle.dumps(fault)) == fault
            assert fault_from_dict(fault_to_dict(fault)) == fault

    def test_frame_carries_delta_chunk(self):
        delta = DeltaChunk(index=0, total=1, items=(("a", 1),),
                           version=2, base_version=1)
        buffer = FrameBuffer()
        (message,) = buffer.feed(encode_frame(("snapshot", delta)))
        assert message == ("snapshot", delta)
