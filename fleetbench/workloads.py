"""The four workloads: set-up, one measured round, checks and metrics.

Every workload makes its inputs from the seed alone and repeats the same
round of operations until the run's time is up. Each round's outputs are
checked as soon as the round ends, outside the timed region, and then
dropped, so what a run holds does not grow with the number of rounds. A
round's operations are the same in every run of a workload, so the share of
failed operations cannot depend on the seed or on how many rounds fit.

Timings of work on the driving thread are scaled by the host-speed gauge
of ``gauge.py``, sampled between slices of each round, and each operation
keeps the least of its scaled times over the run's rounds; rates and
latency percentiles are computed from these least times. serve_open_loop's
timings are spent mostly in the worker processes and in waiting for them,
which the gauge does not see: they stay raw wall time, every open-loop
request counts, and the burst rate is the median burst's.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
import zlib
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.base import Operation
from repro.algorithms.lz77 import decode_tokens
from repro.algorithms.registry import get_codec
from repro.common.crc32c import crc32c
from repro.core.area import pipeline_area_mm2
from repro.core.blocks.lz77 import Lz77EncoderBlock
from repro.core.params import CdpuConfig
from repro.corpus import chunk_corpus, sources
from repro.dse import experiments
from repro.dse.runner import DseRunner
from repro.fleet import profile as fleet_profile
from repro.hcbench import lut
from repro.hcbench.generator import GeneratorConfig, HcBenchGenerator
from repro.hcbench.suite import HyperCompressBench, Suite
from repro.hcbench.validation import validate_call_sizes
from repro.service.dispatcher import CompressionService
from repro.service.types import ServiceConfig
from repro.sim.arrivals import poisson_trace
from repro.soc.placement import Placement
from repro.soc.xeon import XeonBaseline

import checks
from gauge import Gauge

KiB = 1024
MB = 1e6

#: Calls of at most this many bytes are "small": 65% of the fleet's calls.
SMALL_MAX_BYTES = 4 * KiB

#: Bytes of each corpus source that payloads are cut from.
SOURCE_POOL_BYTES = 48 * KiB


def seeded_rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(tag.encode())])


def percentile_ms(values: Sequence[float], pct: float) -> float:
    return float(np.percentile(np.asarray(values), pct)) * 1e3


class SourcePools:
    """One pool of bytes per corpus source; payloads are slices of them."""

    def __init__(self, seed: int) -> None:
        self.names = sorted(sources.SOURCES)
        self.pools = {
            name: sources.SOURCES[name](seed * 131 + index, SOURCE_POOL_BYTES)
            for index, name in enumerate(self.names)
        }

    def cut(self, name: str, size: int, rng: np.random.Generator) -> bytes:
        pool = self.pools[name]
        start = int(rng.integers(0, len(pool) - size + 1))
        return pool[start : start + size]


@dataclass
class Call:
    """One offered call: codec, direction, raw bytes and fleet parameters."""

    codec: str
    op: str
    raw: bytes
    level: Optional[int] = None
    window: Optional[int] = None
    #: What the call is given: ``raw`` to compress, a frame to decompress.
    input: bytes = b""

    def kwargs(self) -> dict:
        if self.op == "decompress":
            return {"window_size": self.window}
        return {"level": self.level, "window_size": self.window}


def fleet_small_calls(
    profile, codecs: Sequence[str], count: int, rng: np.random.Generator, pools: SourcePools
) -> List[Call]:
    """About ``count`` small calls at the fleet's (codec, operation) shares.

    Each (codec, operation) gets its share of ``count`` (at least one call),
    and its calls take one size from each of that many equal size-quantile
    strata of the fleet's calls, with the fleet row's level and window.
    The mix of codecs, directions, sizes and corpus sources is thus the same
    from seed to seed; the seed picks the rows, the bytes and the order.
    """
    small = profile.uncompressed_bytes <= SMALL_MAX_BYTES
    strata = {}
    for codec in codecs:
        algo = fleet_profile.ALGORITHMS.index(codec)
        for op_index, op in enumerate(("compress", "decompress")):
            rows = np.flatnonzero(small & (profile.algo == algo) & (profile.operation == op_index))
            if len(rows):
                strata[(codec, op)] = rows
    total = sum(len(rows) for rows in strata.values())
    calls: List[Call] = []
    for (codec, op), rows in sorted(strata.items()):
        share = max(1, round(count * len(rows) / total))
        ordered = rows[np.argsort(profile.uncompressed_bytes[rows], kind="stable")]
        picks = ordered[((np.arange(share) + rng.random(share)) * len(ordered) / share).astype(int)]
        offset = int(rng.integers(len(pools.names)))
        for index, row in enumerate(picks):
            level = int(profile.level[row])
            source = pools.names[(index + offset) % len(pools.names)]
            calls.append(Call(
                codec, op, pools.cut(source, int(profile.uncompressed_bytes[row]), rng),
                None if level == fleet_profile.NO_LEVEL else level,
                int(profile.window_size[row]) or None,
            ))
    return [calls[i] for i in rng.permutation(len(calls))]


def prepare_inputs(calls: Sequence[Call]) -> str:
    """Fill in every call's input; return the digest of what is offered.

    Decompress calls get the frame the codec makes of their raw bytes,
    through one reset context per (codec, level, window): the same bytes as
    a one-shot compress, without its per-call set-up.
    """
    contexts = {}
    digest = hashlib.sha256()
    for call in calls:
        call.input = call.raw
        if call.op == "decompress":
            key = (call.codec, call.level, call.window)
            ctx = contexts.get(key)
            if ctx is None:
                ctx = contexts[key] = get_codec(call.codec).compress_context(
                    level=call.level, window_size=call.window
                )
            else:
                ctx.reset()
            call.input = ctx.feed(call.raw) + ctx.flush()
        digest.update(f"{call.codec}/{call.op}/{call.level}/{call.window}/".encode() + call.raw)
    return digest.hexdigest()


def decode_call(call: Call, frame: bytes) -> bytes:
    return get_codec(call.codec).decompress(frame, window_size=call.window)


@dataclass
class Result:
    """Counts and end-to-end metrics of one run."""

    attempted: int
    failed: int
    correct: bool
    metrics: Dict[str, float]
    notes: Dict[str, object] = field(default_factory=dict)


class Workload:
    """Shared shape: ``setup`` (repeatable), ``run_round``, ``check_round``, ``finish``."""

    name = ""
    #: Percentile reported as ``op_tail_ms``.
    tail_pct = 99.0
    #: Keep each operation's least time over the rounds; else every sample.
    LEAST_TIME = True

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.digest = ""
        self.clear()

    def clear(self) -> None:
        """Forget every measured round; set-up and warm-up end with this."""
        self.attempted = 0
        self.failed = 0
        #: Least time of each operation over the checked rounds (or every
        #: sample), by kind, scaled by each round's gauge factor.
        self.times: Dict[str, np.ndarray] = {}
        #: (times by kind, outputs, gauge factor) of the round yet to be checked.
        self.pending: Optional[tuple] = None
        self.factors: List[float] = []

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """One round, neither timed nor checked, so caches fill and lazy set-up ends."""
        self.run_round()
        self.clear()

    def run_round(self) -> float:
        """Run one round and keep it in ``pending``; return its measured seconds."""
        raise NotImplementedError

    def check(self, outputs) -> Tuple[int, int]:
        """(attempted, failed) over the outputs of one round."""
        raise NotImplementedError

    def check_round(self) -> None:
        """Check the pending round, fold its times into ``times`` and drop it."""
        times, outputs, factor = self.pending
        self.pending = None
        attempted, failed = self.check(outputs)
        self.attempted += attempted
        self.failed += failed
        self.factors.append(factor)
        for kind, values in times.items():
            values = np.asarray(values, dtype=float) * factor
            if kind not in self.times:
                self.times[kind] = values
            elif self.LEAST_TIME:
                self.times[kind] = np.minimum(self.times[kind], values)
            else:
                self.times[kind] = np.concatenate([self.times[kind], values])

    @property
    def gauge_factor(self) -> float:
        """Median gauge factor of the checked rounds; a timing over it is about its wall time."""
        return statistics.median(self.factors) if self.factors else 1.0

    def final_checks(self) -> Tuple[int, int]:
        """(attempted, failed) of the checks made once per run."""
        return 0, 0

    def metrics(self) -> Dict[str, float]:
        raise NotImplementedError

    def finish(self) -> Result:
        attempted, failed = self.final_checks()
        attempted += self.attempted
        failed += self.failed
        return Result(attempted, failed, failed == 0, self.metrics(), self.notes())

    def notes(self) -> Dict[str, object]:
        return {}

    def layer_metrics(self) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        pass


def latency_metrics(times: np.ndarray, tail_pct: float) -> Dict[str, float]:
    return {"op_p50_ms": percentile_ms(times, 50), "op_tail_ms": percentile_ms(times, tail_pct)}


# ---------------------------------------------------------------------------
# small_calls
# ---------------------------------------------------------------------------


class SmallCalls(Workload):
    """Closed loop, one caller: one-shot calls of at most 4 KiB.

    Per-call fixed cost (table builds, matcher set-up, context creation)
    dominates here.
    """

    name = "small_calls"
    tail_pct = 99.0
    CALLS_PER_ROUND = 1000
    #: Calls between two samples of the host-speed gauge.
    SLICE = 16
    #: Payloads whose CRC-32C is compared with the bitwise reference.
    CRC_SAMPLES = 16

    def setup(self) -> None:
        profile = fleet_profile.generate_fleet_profile(self.seed)
        rng = seeded_rng(self.seed, "small-calls")
        self.calls = fleet_small_calls(
            profile, fleet_profile.ALGORITHMS, self.CALLS_PER_ROUND, rng, SourcePools(self.seed)
        )
        self.digest = prepare_inputs(self.calls)
        #: Compress outputs of the first checked round, and those that failed.
        self.reference: Optional[List[Optional[bytes]]] = None
        self.bad: set = set()
        self.clear()

    def run_round(self) -> float:
        bound = [(getattr(get_codec(c.codec), c.op), c.input, c.kwargs()) for c in self.calls]
        outputs: List[Optional[bytes]] = []
        times: List[float] = []
        clock = time.perf_counter
        gauge = Gauge()
        for index, (fn, data, kwargs) in enumerate(bound):
            if index % self.SLICE == 0:
                gauge.sample()
            begin = clock()
            try:
                out: Optional[bytes] = fn(data, **kwargs)
            except Exception:  # noqa: BLE001 - a raising call is one failed operation
                out = None
            times.append(clock() - begin)
            outputs.append(out)
        gauge.sample()
        self.pending = ({"call": times}, outputs, gauge.factor())
        return sum(times)

    def check(self, outputs) -> Tuple[int, int]:
        """Decompress calls must return the raw bytes. Compress outputs of the
        first checked round must decode to their input; every later round
        must repeat them byte for byte."""
        calls = self.calls
        if self.reference is None:
            self.bad = {
                i for i, (call, out) in enumerate(zip(calls, outputs))
                if call.op == "compress" and (
                    out is None
                    or checks.count_bad_roundtrips([out], [call.raw], lambda _i, f, c=call: decode_call(c, f))
                )
            }
            self.reference = [out if call.op == "compress" else None for call, out in zip(calls, outputs)]
        failed = 0
        for index, (call, out) in enumerate(zip(calls, outputs)):
            if call.op == "decompress":
                failed += int(out != call.raw)
            else:
                failed += int(index in self.bad or out != self.reference[index])
        return len(calls), failed

    def final_checks(self) -> Tuple[int, int]:
        return checks.check_crc32c(crc32c, [c.raw for c in self.calls[: self.CRC_SAMPLES]])

    def metrics(self) -> Dict[str, float]:
        calls = self.calls
        least = self.times["call"]
        busy = float(least.sum())
        raw_bytes = sum(len(c.raw) for c in calls)
        packed = sum(
            len(c.input) if c.op == "decompress" else len(out or b"") for c, out in zip(calls, self.reference)
        )
        return {
            "ops_per_s": len(calls) / busy,
            "MBps": raw_bytes / busy / MB,
            **latency_metrics(least, self.tail_pct),
            "compression_ratio": raw_bytes / max(1, packed),
        }


# ---------------------------------------------------------------------------
# bulk_stream
# ---------------------------------------------------------------------------


class BulkStream(Workload):
    """Closed loop, one caller: snappy and zstd streams in 64 KiB chunks.

    Per-byte kernels dominate; context set-up is paid once and reset. An
    operation is 64 KiB of a stream: a context's latency is only defined
    per stream, so each 64 KiB of a pass is charged the pass's average. A
    pass's time is the sum of its ``feed`` calls' least times.
    """

    name = "bulk_stream"
    tail_pct = 90.0
    CHUNK_BYTES = 64 * KiB
    #: (codec, keyword arguments) per stream. zstd runs at the fleet's most
    #: common level with a window that covers the stream. Snappy, about
    #: three times faster, gets two streams, so the median operation is a
    #: snappy compression and the 90th percentile a zstd one rather than
    #: the boundary between two kinds.
    STREAMS = [("snappy", {}), ("snappy", {}), ("zstd", {"level": 3, "window_size": 1024 * KiB})]

    def setup(self) -> None:
        pools = SourcePools(self.seed)
        rng = seeded_rng(self.seed, "bulk-stream")
        digest = hashlib.sha256()
        self.streams = []
        for codec_name, kwargs in self.STREAMS:
            # Every source once, in a seed-chosen order: a 432 KiB stream.
            raw = b"".join(pools.pools[pools.names[i]] for i in rng.permutation(len(pools.names)))
            codec = get_codec(codec_name)
            self.streams.append((
                codec_name,
                raw,
                codec.compress(raw, **kwargs),
                codec.compress_context(**kwargs),
                codec.decompress_context(window_size=kwargs.get("window_size")),
            ))
            digest.update(codec_name.encode() + repr(sorted(kwargs.items())).encode() + raw)
        self.digest = digest.hexdigest()
        #: Chunks fed in each pass: every stream's compression, then its decompression.
        self.feeds = [self._ops(data) for _, raw, frame, _, _ in self.streams for data in (raw, frame)]
        self.clear()

    def _ops(self, raw: bytes) -> int:
        return -(-len(raw) // self.CHUNK_BYTES)

    def _pump(self, ctx, data: bytes, gauge: Gauge) -> Tuple[Optional[bytes], List[float]]:
        """Feed ``data`` in 64 KiB chunks through a reset context.

        Returns the output and the seconds of each ``feed`` (the last one
        with its ``flush``); a raising stream's missing feeds count 0.
        """
        clock = time.perf_counter
        parts = []
        times: List[float] = []
        chunks = [data[i : i + self.CHUNK_BYTES] for i in range(0, len(data), self.CHUNK_BYTES)]
        try:
            ctx.reset()
            for index, chunk in enumerate(chunks):
                begin = clock()
                part = ctx.feed(chunk)
                if index == len(chunks) - 1:
                    part += ctx.flush()
                times.append(clock() - begin)
                parts.append(part)
                gauge.sample()
        except Exception:  # noqa: BLE001 - a raising stream fails its operations
            return None, times + [0.0] * (len(chunks) - len(times))
        return b"".join(parts), times

    def run_round(self) -> float:
        outputs = []
        feeds: List[float] = []
        gauge = Gauge()
        gauge.sample()
        for _, raw, frame, cctx, dctx in self.streams:
            packed, packed_times = self._pump(cctx, raw, gauge)
            unpacked, unpacked_times = self._pump(dctx, frame, gauge)
            outputs.append((packed, unpacked))
            feeds += packed_times + unpacked_times
        self.pending = ({"feed": feeds}, outputs, gauge.factor())
        return sum(feeds)

    def check(self, outputs) -> Tuple[int, int]:
        """Streamed output must equal the one-shot frame (compress) and the
        raw bytes (decompress); a wrong pass fails each of its operations."""
        attempted = failed = 0
        for (_, raw, frame, _, _), (packed, unpacked) in zip(self.streams, outputs):
            attempted += 2 * self._ops(raw)
            failed += self._ops(raw) * (int(packed != frame) + int(unpacked != raw))
        return attempted, failed

    def final_checks(self) -> Tuple[int, int]:
        """The one-shot frames must decode to their streams; CRC-32C samples."""
        failed = sum(
            checks.count_bad_roundtrips(
                [frame], [raw],
                lambda _i, f, n=name, k=kwargs: get_codec(n).decompress(f, window_size=k.get("window_size")),
            )
            for (name, raw, frame, _, _), (_, kwargs) in zip(self.streams, self.STREAMS)
        )
        samples = [stream[1][i : i + 4 * KiB] for stream in self.streams for i in (0, 300 * KiB)]
        crc_attempted, crc_failed = checks.check_crc32c(crc32c, samples)
        return len(self.streams) + crc_attempted, failed + crc_failed

    def metrics(self) -> Dict[str, float]:
        ops = [self._ops(stream[1]) for stream in self.streams for _ in range(2)]
        starts = np.cumsum([0] + self.feeds[:-1])
        least = np.add.reduceat(self.times["feed"], starts)
        charges = np.repeat(least / np.asarray(ops), ops)
        busy = float(least.sum())
        raw_total = sum(len(stream[1]) for stream in self.streams)
        packed_total = sum(len(stream[2]) for stream in self.streams)
        return {
            "ops_per_s": len(charges) / busy,
            "MBps": 2 * raw_total / busy / MB,
            **latency_metrics(charges, self.tail_pct),
            "compression_ratio": raw_total / packed_total,
        }


# ---------------------------------------------------------------------------
# serve_open_loop
# ---------------------------------------------------------------------------


class ServeOpenLoop(Workload):
    """Open loop at a fixed rate, then the same calls as bursts.

    Both phases run on a warm CompressionService with one worker per lane,
    so dispatch, pickling and pool IPC show here and in no codec workload.
    An operation of the open loop is one request, timed from its due time;
    a burst is the whole set of calls offered at once.
    """

    name = "serve_open_loop"
    tail_pct = 90.0
    LEAST_TIME = False
    REQUESTS = 1000
    RATE_PER_S = 250.0
    BURSTS = 4
    CODECS = ["snappy", "zstd"]

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.loop = asyncio.new_event_loop()
        self.service: Optional[CompressionService] = None
        self.pool_start_s = 0.0

    def setup(self) -> None:
        self._stop_service()
        profile = fleet_profile.generate_fleet_profile(self.seed)
        rng = seeded_rng(self.seed, "serve")
        calls = fleet_small_calls(profile, self.CODECS, self.REQUESTS, rng, SourcePools(self.seed))
        for call in calls:  # the service runs every codec at its default level
            call.level = call.window = None
        # Arrival times come from the program's Poisson trace generator,
        # rescaled to the benchmark's fixed absolute rate.
        trace = poisson_trace(profile, seed=self.seed, num_calls=len(calls), algorithms=self.CODECS)
        scale = len(calls) / self.RATE_PER_S / trace[-1].arrival_time
        self.due = [arrival.arrival_time * scale for arrival in trace]
        self.calls = calls
        self.digest = hashlib.sha256((prepare_inputs(calls) + repr(self.due)).encode()).hexdigest()
        begin = time.perf_counter()
        self.loop.run_until_complete(self._start_service())
        self.pool_start_s = time.perf_counter() - begin
        #: Compressed bytes of the first checked burst, for the ratio.
        self.packed: Optional[int] = None
        #: Sojourn breakdown of the latest checked open loop (traced run).
        self.breakdown: Dict[str, float] = {}
        self.clear()

    async def _start_service(self) -> None:
        config = ServiceConfig(workers=1, max_queue_depth=self.REQUESTS + 1)
        self.service = CompressionService(config)
        await self.service.start()
        sample = b"warm-up " * 64
        for codec in self.CODECS:
            for op, payload in ((Operation.COMPRESS, sample), (Operation.DECOMPRESS, get_codec(codec).compress(sample))):
                await self.service.submit(self.service.make_request(codec, op, payload))

    def _stop_service(self) -> None:
        if self.service is not None:
            self.loop.run_until_complete(self.service.close())
            self.service = None

    async def _one(self, call: Call, due: float):
        """(request id, response or None, lateness s, sojourn from due s)."""
        start = time.perf_counter()
        request = self.service.make_request(call.codec, Operation(call.op), call.input)
        try:
            response = await self.service.submit(request)
        except Exception:  # noqa: BLE001 - shed or refused: one failed request
            response = None
        return request.request_id, response, start - due, time.perf_counter() - due

    async def _open_loop(self):
        origin = time.perf_counter() + 0.01
        tasks = []
        for call, at in zip(self.calls, self.due):
            due = origin + at
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(self._one(call, due)))
        return await asyncio.gather(*tasks)

    def warm_up(self) -> None:
        """One burst: every lane's worker and context cache are warm after it."""
        self.loop.run_until_complete(self._burst())

    async def _burst(self):
        origin = time.perf_counter()
        results = await asyncio.gather(*(self._one(call, origin) for call in self.calls))
        return results, time.perf_counter() - origin

    def run_round(self) -> float:
        open_loop = self.loop.run_until_complete(self._open_loop())
        bursts = [self.loop.run_until_complete(self._burst()) for _ in range(self.BURSTS)]
        times = {"sojourn": [s for _, _, _, s in open_loop], "burst": [seconds for _, seconds in bursts]}
        self.pending = (times, [open_loop] + [results for results, _ in bursts], 1.0)
        return sum(seconds for _, seconds in bursts)

    def check(self, outputs) -> Tuple[int, int]:
        """No request may be shed, fail or be answered under another id;
        decompress responses must be the raw bytes and compress responses
        must decode to them."""
        attempted = failed = 0
        for results in outputs:
            triples = [(rid, c.op, c.raw) for (rid, _, _, _), c in zip(results, self.calls)]
            failed += checks.check_responses(
                triples, [resp for _, resp, _, _ in results], lambda i, f: decode_call(self.calls[i], f)
            )
            attempted += len(results)
        if self.packed is None:
            self.packed = sum(
                len(c.input) if c.op == "decompress" else len(resp.payload or b"") if resp is not None else 0
                for (_, resp, _, _), c in zip(outputs[1], self.calls)
            )
        self.breakdown = self._breakdown(outputs)
        return attempted, failed

    def _breakdown(self, outputs) -> Dict[str, float]:
        """Where one round's open-loop sojourn went, and the work of its batches."""
        opened = [item for item in outputs[0] if item[1] is not None]
        every = [item[1] for results in outputs for item in results if item[1] is not None]
        if not opened:
            return {}
        lateness = [late for _, _, late, _ in opened]
        wait = [resp.wait_seconds for _, resp, _, _ in opened]
        in_worker = [resp.service_seconds for _, resp, _, _ in opened]
        sojourn = [s for _, _, _, s in opened]
        remainder = [s - late - w - i for s, late, w, i in zip(sojourn, lateness, wait, in_worker)]
        batches = sum(1.0 / resp.batch_size for resp in every)
        return {
            "service.queue_wait_ms.p50": percentile_ms(wait, 50),
            "service.in_worker_ms.p50": percentile_ms(in_worker, 50),
            "service.remainder_ms.p50": percentile_ms(remainder, 50),
            "service.remainder_ms.p99": percentile_ms(remainder, 99),
            "service.batches": batches,
            "service.batch_size.mean": len(every) / batches,
            "service.worker_busy_s": sum(resp.service_seconds for resp in every),
            "service.generator_lateness_ms.p99": percentile_ms(lateness, 99),
            "service.sojourn_ms.mean": float(np.mean(sojourn)) * 1e3,
            "service.lateness_ms.mean": float(np.mean(lateness)) * 1e3,
            "service.queue_wait_ms.mean": float(np.mean(wait)) * 1e3,
            "service.in_worker_ms.mean": float(np.mean(in_worker)) * 1e3,
            "service.remainder_ms.mean": float(np.mean(remainder)) * 1e3,
        }

    def metrics(self) -> Dict[str, float]:
        burst = float(np.median(self.times["burst"]))
        raw_bytes = sum(len(c.raw) for c in self.calls)
        return {
            "ops_per_s": len(self.calls) / burst,
            "MBps": raw_bytes / burst / MB,
            **latency_metrics(self.times["sojourn"], self.tail_pct),
            "compression_ratio": raw_bytes / max(1, self.packed or 0),
        }

    def layer_metrics(self) -> Dict[str, float]:
        return {**self.breakdown, "service.pool_start_s": self.pool_start_s}

    def close(self) -> None:
        try:
            self._stop_service()
        finally:
            self.loop.close()


# ---------------------------------------------------------------------------
# dse_figures
# ---------------------------------------------------------------------------


class DseFigures(Workload):
    """Batch: HyperCompressBench from fleet statistics, then Figures 11, 12, 14.

    The only workload that runs hcbench, dse, core and soc. The fleet
    statistics and the target sampling are fixed (the paper's fleet is one
    data set); the seed makes the corpus, and with it every LUT, file,
    compressed form and token stream. A round has three generation
    operations (corpus, LUTs, files) and one operation per design point.
    """

    name = "dse_figures"
    tail_pct = 90.0
    FLEET_SEED = 0
    CONFIG = GeneratorConfig(seed=0, files_per_suite=8, size_scale=512, corpus_file_size=6 * KiB)

    def setup(self) -> None:
        self.fleet = fleet_profile.generate_fleet_profile(self.FLEET_SEED)
        self.digest = hashlib.sha256(repr((self.seed, self.FLEET_SEED, self.CONFIG)).encode()).hexdigest()
        #: Suite sizes and the simulated statistics of the first checked round.
        self.first: Optional[Dict[str, object]] = None
        self.clear()

    def run_round(self) -> float:
        config = self.CONFIG
        gauge = Gauge()
        clock = time.perf_counter
        # Generation in three steps, each its own operation: corpus, LUTs, files.
        gen: List[float] = []
        gauge.sample()
        begin = clock()
        corpus = sources.build_corpus(self.seed, config.corpus_file_size)
        gen.append(clock() - begin)
        gauge.sample()
        begin = clock()
        luts = lut.build_luts(chunk_corpus(corpus, config.chunk_size), lut.default_lut_keys())
        gen.append(clock() - begin)
        gauge.sample()
        begin = clock()
        files = HcBenchGenerator(config, fleet=self.fleet, luts=luts).generate_all()
        bench = HyperCompressBench({key: Suite(*key, value) for key, value in files.items()}, config)
        gen.append(clock() - begin)
        gauge.sample()

        runner = DseRunner(bench, XeonBaseline(), jobs=1, cache=None)
        point_times: List[float] = []
        evaluate_point = runner.evaluate_point

        def timed_point(point):
            start = time.perf_counter()
            try:
                return evaluate_point(point)
            finally:
                point_times.append(time.perf_counter() - start)
                gauge.sample()

        runner.evaluate_point = timed_point
        tokenized: List[tuple] = []
        tokenize = Lz77EncoderBlock.tokenize

        def capture(block, data):
            result = tokenize(block, data)
            tokenized.append((data, block.config.encoder_history_bytes, result[0].tokens, decode_tokens))
            return result

        Lz77EncoderBlock.tokenize = capture
        try:
            figures = {
                "fig11": experiments.fig11_snappy_decompression(runner),
                "fig12": experiments.fig12_snappy_compression(runner),
                "fig14": experiments.fig14_zstd_decompression(runner),
            }
        finally:
            Lz77EncoderBlock.tokenize = tokenize
        self.pending = ({"gen": gen, "point": point_times}, (bench, figures, tokenized), gauge.factor())
        return sum(gen) + sum(point_times)

    def check(self, outputs) -> Tuple[int, int]:
        bench, figures, tokenized = outputs
        attempted = failed = 0
        for suite in bench.suites.values():
            codec = get_codec(suite.algorithm)
            attempted += len(suite.files)
            failed += checks.count_bad_roundtrips(
                [suite.compressed_form(f) for f in suite.files], [f.data for f in suite.files],
                lambda i, frame, s=suite: codec.decompress(frame, window_size=s.files[i].window_size),
            )
        for key, distance in validate_call_sizes(bench, self.fleet).items():
            attempted += 1
            failed += int(distance > checks.ks_critical(len(bench.suites[key])))
        tok_attempted, tok_failed = checks.check_tokens(tokenized)
        attempted += tok_attempted
        failed += tok_failed
        for name in ("fig11", "fig14"):
            fig = figures[name]
            attempted += sum(len(v) for v in fig.series.values())
            failed += len(checks.decoder_figure_failures(
                fig.series, fig.area_normalized, Placement.ROCC.value, Placement.PCIE_NO_CACHE.value
            ))
        fig12 = figures["fig12"]
        attempted += sum(len(v) for v in fig12.series.values())
        failed += len(checks.area_failures(fig12.area_normalized, Placement.ROCC.value))
        if self.first is None:
            self.first = self._first_round(bench, figures)
        return attempted, failed

    def final_checks(self) -> Tuple[int, int]:
        return checks.check_flagship_areas(
            lambda algorithm, op: pipeline_area_mm2(algorithm, Operation(op), CdpuConfig())
        )

    @staticmethod
    def _first_round(bench: HyperCompressBench, figures) -> Dict[str, object]:
        compress_suites = [s for (_, op), s in bench.suites.items() if op is Operation.COMPRESS]
        digest = hashlib.sha256()
        for name in sorted(figures):
            for point in figures[name].points:
                digest.update(repr((
                    name, point.config.placement.value, point.config.decoder_history_bytes,
                    point.config.encoder_history_bytes, point.speedup, point.area_mm2,
                    point.hw_ratio, point.sw_ratio,
                )).encode())
        return {
            "suite_bytes": sum(s.total_uncompressed_bytes for s in bench.suites.values()),
            "raw": sum(s.total_uncompressed_bytes for s in compress_suites),
            "packed": sum(len(s.compressed_form(f)) for s in compress_suites for f in s.files),
            "sim_digest": digest.hexdigest(),
            "flagship_speedup": {name: figures[name].series[Placement.ROCC.value][0] for name in sorted(figures)},
        }

    def metrics(self) -> Dict[str, float]:
        points = self.times["point"]
        return {
            "ops_per_s": len(points) / float(points.sum()),
            "MBps": self.first["suite_bytes"] / float(self.times["gen"].sum()) / MB,
            **latency_metrics(points, self.tail_pct),
            "compression_ratio": self.first["raw"] / self.first["packed"],
        }

    def notes(self) -> Dict[str, object]:
        """Flagship speedups and a digest of every simulated statistic."""
        return {key: self.first[key] for key in ("sim_digest", "flagship_speedup")}


WORKLOADS = {cls.name: cls for cls in (SmallCalls, BulkStream, ServeOpenLoop, DseFigures)}
