"""The six benchmark workloads: graphs, seeded inputs and output oracles.

Each workload describes one *episode*: a fresh deployment that is set
up (translate/build, certify, deploy, preload), then driven through a
request phase, an ingest phase and — in-process only — a
checkpoint/fail/recover phase. The harness (``harness.py``) repeats
identical episodes until the run's time is spent, so every set-up, every
counter and every state fingerprint can be compared across episodes.

Sizes below are per episode at ``--scale 1``. They are the issue's
per-repeat sizes divided so that one episode takes 1-2 s on two cores
and a 12 s run still sees several set-ups; README.md has the table.

Inputs come from the ``repro.workloads`` generators and the seed alone,
are materialised before any timing, and are the only thing the program
sees. Oracles are sequential replays of the same inputs.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from repro.apps.collaborative_filtering import CollaborativeFiltering
from repro.apps.wordcount import build_wordcount_sdg
from repro.testing import build_kv_sdg
from repro.translate import translate
from repro.workloads import KVWorkload, RatingsWorkload, TextWorkload

#: One operation: (entry method name, payload).
Op = tuple[str, Any]


@dataclass
class Built:
    """A freshly built graph and how operations address it."""

    sdg: Any
    #: Entry method name -> entry TE name.
    entries: dict[str, str]
    #: Entry method name -> TE whose ``runtime.results`` holds its replies.
    replies: dict[str, str]
    #: What ``optimize=True`` certifies (a program class or the SDG).
    certify_target: Any


@dataclass
class Inputs:
    """Everything one episode feeds the program, in order."""

    preload: list[Op]
    #: Serve phase: one client, closed loop.
    requests: list[Op]
    #: One untimed chunk ahead of the timed ingest chunks.
    warmup: list[Op]
    chunks: list[list[Op]]
    #: Operations between the two checkpoints of the recover phase.
    recover: list[Op]
    #: Open-loop phase (after serve), and its arrivals per second.
    open_loop: list[Op] = field(default_factory=list)
    rate: float = 0.0
    seed: int = 0
    gen_s: float = 0.0

    def due_times(self, episode: int) -> list[float]:
        """Open loop: when each request of episode ``episode`` is due.

        Exponential gaps at ``rate``, seeded per episode: the operations
        (and so state and counters) repeat exactly, while the tail
        latency averages over several arrival patterns instead of
        replaying the coincidences of one.
        """
        gaps = random.Random(self.seed * 1_000 + episode)
        due, now = [], 0.0
        for _ in self.open_loop:
            now += gaps.expovariate(self.rate)
            due.append(now)
        return due

    def all_ops(self):
        """Every operation in submission order."""
        yield from self.preload
        yield from self.requests
        yield from self.open_loop
        yield from self.warmup
        for chunk in self.chunks:
            yield from chunk
        yield from self.recover


def scaled(count: int, scale: float) -> int:
    return max(1, int(count * scale))


def split_chunks(ops: list[Op], chunk: int) -> dict:
    """``ops`` as the ``warmup``/``chunks`` arguments of :class:`Inputs`."""
    return {"warmup": ops[:chunk],
            "chunks": [ops[i:i + chunk]
                       for i in range(chunk, len(ops), chunk)]}


def sequence_mismatches(expected: dict, actual: dict) -> int:
    """Replies that are wrong or missing, comparing per-key sequences.

    Replies to one key come back in submission order (one partition, one
    FIFO channel); replies to different keys may interleave.
    """
    bad = 0
    for key in expected.keys() | actual.keys():
        want, got = expected.get(key, []), actual.get(key, [])
        bad += abs(len(want) - len(got))
        bad += sum(1 for w, g in zip(want, got) if w != g)
    return bad


_MISSING = object()


def dict_mismatches(expected: dict, actual: dict) -> int:
    """Keys whose value differs, or that only one side holds."""
    return sum(1 for key in expected.keys() | actual.keys()
               if expected.get(key, _MISSING) != actual.get(key, _MISSING))


def group_replies(replies, key_len: int) -> dict:
    """``(k..., value)`` reply tuples grouped into per-key sequences."""
    grouped: dict = {}
    for reply in replies:
        grouped.setdefault(reply[:key_len], []).append(reply[key_len:])
    return grouped


@dataclass
class Workload:
    """Base: deployment shape plus the hooks the harness calls."""

    name: str
    substrate: str = "inprocess"
    workers: int | None = None
    optimize: bool = False
    se_instances: dict = field(default_factory=dict)
    te_instances: dict = field(default_factory=dict)
    #: SE whose partition-0 node the recover phase kills (None: the
    #: substrate has no node-level recovery, so the phase is skipped).
    recover_se: str | None = None
    #: Closed-loop requests and timed ingest chunks per episode.
    requests: int = 0
    n_chunks: int = 0

    def build(self) -> Built:
        raise NotImplementedError

    def make_inputs(self, seed: int, scale: float) -> Inputs:
        raise NotImplementedError

    def inputs(self, seed: int, scale: float) -> Inputs:
        start = time.perf_counter()
        made = self.make_inputs(seed, scale)
        made.seed = seed
        made.gen_s = time.perf_counter() - start
        return made

    def oracle(self, inputs: Inputs) -> Any:
        raise NotImplementedError

    def verify(self, runtime, built: Built, oracle: Any,
               drive) -> tuple[int, int]:
        """``(checks made, checks failed)`` against the drained runtime.

        ``drive(op)`` submits one more operation and drains, for oracles
        that probe the final state through the program's own read path.
        """
        raise NotImplementedError


# ----------------------------------------------------------------------
# Key/value store (four deployments of one job)
# ----------------------------------------------------------------------

KV_PRELOAD_KEYS = 10_000
KV_INGEST_KEYS = 50_000
KV_CHUNK = 5_000
KV_RECOVER_PUTS = 2_500


def _kv_ops(n_keys: int, count: int, seed: int,
            read_fraction: float = 0.5) -> list[Op]:
    stream = KVWorkload(n_keys=n_keys, read_fraction=read_fraction,
                        seed=seed)
    return [("serve", (op.kind, op.key, op.value))
            for op in stream.ops(count)]


@dataclass
class KVOracle:
    gets: dict
    table: dict


class KVStore(Workload):
    def build(self) -> Built:
        sdg = build_kv_sdg()
        return Built(sdg, {"serve": "serve"}, {"serve": "serve"}, sdg)

    def make_inputs(self, seed: int, scale: float) -> Inputs:
        preload_keys = scaled(KV_PRELOAD_KEYS, scale)
        ingest_keys = scaled(KV_INGEST_KEYS, scale)
        chunk = scaled(KV_CHUNK, scale)
        ingest = _kv_ops(ingest_keys, chunk * (self.n_chunks + 1), seed + 1)
        return Inputs(
            preload=[("serve", ("put", f"key{i}", i))
                     for i in range(preload_keys)],
            # Requests hit preloaded keys only: a get never misses.
            requests=_kv_ops(preload_keys, scaled(self.requests, scale),
                             seed),
            **split_chunks(ingest, chunk),
            recover=(_kv_ops(ingest_keys, scaled(KV_RECOVER_PUTS, scale),
                             seed + 2, read_fraction=0.0)
                     if self.recover_se else []),
        )

    def oracle(self, inputs: Inputs) -> KVOracle:
        table: dict = {}
        gets: dict = {}
        for _entry, (kind, key, value) in inputs.all_ops():
            if kind == "put":
                table[key] = value
            else:
                gets.setdefault((key,), []).append((table.get(key),))
        return KVOracle(gets, table)

    def verify(self, runtime, built, oracle, drive):
        replies = group_replies(runtime.results["serve"], 1)
        failed = sequence_mismatches(oracle.gets, replies)
        table: dict = {}
        for instance in runtime.se_instances("table"):
            table.update(instance.element.items())
        failed += dict_mismatches(oracle.table, table)
        checks = sum(map(len, oracle.gets.values())) + len(oracle.table)
        return checks, failed


# ----------------------------------------------------------------------
# Streaming wordcount
# ----------------------------------------------------------------------

WC_VOCABULARY = 20_000
WC_WORDS_PER_LINE = 12
WC_CHUNK_LINES = 500
WC_PRELOAD_LINES = 1_000
#: ``build_wordcount_sdg`` default; a line's window is ``ts // WC_WINDOW``.
WC_WINDOW = 1_000


@dataclass
class WCOracle:
    counts: Counter
    queries: dict


class WordCount(Workload):
    def build(self) -> Built:
        sdg = build_wordcount_sdg(window_size=WC_WINDOW)
        return Built(sdg, {"split": "split", "query": "query"},
                     {"query": "query"}, sdg)

    def make_inputs(self, seed: int, scale: float) -> Inputs:
        chunk = scaled(WC_CHUNK_LINES, scale)
        preload = scaled(WC_PRELOAD_LINES, scale)
        requests = scaled(self.requests, scale)
        text = TextWorkload(vocabulary=scaled(WC_VOCABULARY, scale),
                            words_per_line=WC_WORDS_PER_LINE, skew=1.0,
                            seed=seed)
        total = preload + (requests + 1) // 2 + chunk * (self.n_chunks + 1)
        lines = [("split", line) for line in text.lines(total)]
        taken = iter(lines)
        pre = [next(taken) for _ in range(preload)]
        # Requests alternate a single line with a query for that line's
        # first word, so every query sees a count that just changed.
        reqs: list[Op] = []
        while len(reqs) < requests:
            op = next(taken)
            reqs.append(op)
            ts, line = op[1]
            if len(reqs) < requests:
                reqs.append(("query", (ts // WC_WINDOW, line.split()[0])))
        return Inputs(preload=pre, requests=reqs, recover=[],
                      **split_chunks(list(taken), chunk))

    def oracle(self, inputs: Inputs) -> WCOracle:
        counts: Counter = Counter()
        queries: dict = {}
        for entry, payload in inputs.all_ops():
            if entry == "split":
                ts, line = payload
                window = ts // WC_WINDOW
                counts.update((window, word) for word in line.split())
            else:
                queries.setdefault(payload, []).append((counts[payload],))
        return WCOracle(counts, queries)

    def verify(self, runtime, built, oracle, drive):
        replies = group_replies(runtime.results["query"], 2)
        failed = sequence_mismatches(oracle.queries, replies)
        counted: dict = {}
        for instance in runtime.se_instances("counts"):
            counted.update(instance.element.items())
        failed += dict_mismatches(oracle.counts, counted)
        checks = (sum(map(len, oracle.queries.values()))
                  + len(oracle.counts))
        return checks, failed


# ----------------------------------------------------------------------
# Collaborative filtering: reads beside writes, open loop
# ----------------------------------------------------------------------

CF_USERS = 400
CF_ITEMS = 60
CF_PRELOAD = 2_000
CF_READ_FRACTION = 0.2
CF_SKEW = 0.8
#: Open-loop arrival rate, ops/s: about a fifth of the closed-loop
#: capacity measured at this state size on the reference box (README.md).
CF_RATE = 400.0
CF_OPEN_LOOP_OPS = 240
CF_CHUNK = 300
CF_RECOVER_OPS = 200
CF_PROBES = 5


def _cf_ops(count: int, seed: int, scale: float,
            read_fraction: float) -> list[Op]:
    """``count`` ops with *exactly* ``read_fraction`` reads, shuffled.

    A coin flip per op would let the realised share of reads wander by
    a tenth from seed to seed, and the p95 of a mix whose slow kind is
    a fifth of the traffic follows that share, not the program.
    """
    def stream(fraction: float, skew: float, offset: int):
        return RatingsWorkload(
            n_users=scaled(CF_USERS, scale), n_items=scaled(CF_ITEMS, scale),
            read_fraction=fraction, skew=skew, seed=seed + offset)

    n_reads = round(count * read_fraction)
    # Writers are Zipf-skewed (a few users rate a lot); readers are
    # drawn uniformly, or the handful of reads an episode replays would
    # cost 4x more or less depending on whose rows the seed picked.
    reads = [("get_rec", op.user)
             for op in stream(1.0, 0.0, 0).ops(n_reads)]
    writes = [("add_rating", (op.user, op.item, op.rating))
              for op in stream(0.0, CF_SKEW, 1_000).ops(count - n_reads)]
    is_read = [True] * n_reads + [False] * (count - n_reads)
    random.Random(seed).shuffle(is_read)
    return [reads.pop() if read else writes.pop() for read in is_read]


@dataclass
class CFOracle:
    #: user -> recommendation vector after every write was applied.
    final_recs: dict
    n_reads: int


class CFMixed(Workload):
    def build(self) -> Built:
        result = translate(CollaborativeFiltering)
        entries = {name: info.entry_te
                   for name, info in result.entries.items()}
        replies = {"get_rec": result.entry_info("get_rec").terminal_te}
        return Built(result.sdg, entries, replies, CollaborativeFiltering)

    def make_inputs(self, seed: int, scale: float) -> Inputs:
        chunk = scaled(CF_CHUNK, scale)
        ingest = [_cf_ops(chunk, seed + 10 + k, scale, CF_READ_FRACTION)
                  for k in range(self.n_chunks + 1)]
        return Inputs(
            preload=_cf_ops(scaled(CF_PRELOAD, scale), seed, scale, 0.0),
            requests=_cf_ops(scaled(self.requests, scale), seed + 1, scale,
                             CF_READ_FRACTION),
            open_loop=_cf_ops(scaled(CF_OPEN_LOOP_OPS, scale), seed + 2,
                              scale, CF_READ_FRACTION),
            rate=CF_RATE, warmup=ingest[0], chunks=ingest[1:],
            recover=_cf_ops(scaled(CF_RECOVER_OPS, scale), seed + 4,
                            scale, 0.0),
        )

    def oracle(self, inputs: Inputs) -> CFOracle:
        # The program class run as a plain object *is* the sequential
        # semantics the translation must preserve.
        sequential = CollaborativeFiltering()
        probes: list = []
        n_reads = 0
        for entry, payload in inputs.all_ops():
            if entry == "add_rating":
                sequential.add_rating(*payload)
                if len(probes) < CF_PROBES and payload[0] not in probes:
                    probes.append(payload[0])
            else:
                n_reads += 1
        return CFOracle({user: sequential.get_rec(user).to_list()
                         for user in probes}, n_reads)

    def verify(self, runtime, built, oracle, drive):
        replies = runtime.results[built.replies["get_rec"]]
        failed = abs(len(replies) - oracle.n_reads)
        # Reads issued while writes were in flight have no sequential
        # answer; probe the quiescent final state instead.
        for user, expected in oracle.final_recs.items():
            drive(("get_rec", user))
            if replies[-1].to_list() != expected:
                failed += 1
        return oracle.n_reads + len(oracle.final_recs), failed


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------

#: Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    KVStore("kv-inproc", se_instances={"table": 4}, recover_se="table",
            requests=4_000, n_chunks=6),
    KVStore("kv-mp2", substrate="multiprocess", workers=2,
            se_instances={"table": 4}, requests=60, n_chunks=5),
    KVStore("kv-wide-inproc", se_instances={"table": 256},
            recover_se="table", requests=1_000, n_chunks=4),
    KVStore("kv-wide-opt-inproc", optimize=True,
            se_instances={"table": 256}, recover_se="table",
            requests=1_000, n_chunks=4),
    WordCount("wc-mp2", substrate="multiprocess", workers=2,
              te_instances={"split": 2}, se_instances={"counts": 4},
              requests=60, n_chunks=4),
    CFMixed("cf-mixed-inproc", se_instances={"user_item": 2, "co_occ": 2},
            recover_se="user_item", requests=800, n_chunks=3),
)}
