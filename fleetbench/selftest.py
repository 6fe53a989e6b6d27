"""Planted-fault self-test: a fault planted in a workload's path must fail it.

Each case runs a workload round clean, which its own checks must pass, and
then a round with one deliberate fault planted where the workload gets its
outputs from; the workload's own ``check`` (or ``final_checks``) must report
failed operations. Run it with ``python3 fleetbench/run.py --selftest``; it
exits with 0 only when every fault was caught.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
from typing import Callable, Dict, Iterator, List, Tuple

from repro.soc.placement import Placement

import workloads

SEED = 7


def flip(out: bytes) -> bytes:
    """``out`` with one bit of its middle byte flipped (empty stays empty)."""
    if not out:
        return out
    middle = len(out) // 2
    return out[:middle] + bytes([out[middle] ^ 0x01]) + out[middle + 1 :]


class FlippingCodec:
    """A codec whose one-shot calls return one flipped byte."""

    def __init__(self, codec) -> None:
        self._codec = codec

    def compress(self, data: bytes, **kwargs) -> bytes:
        return flip(self._codec.compress(data, **kwargs))

    def decompress(self, data: bytes, **kwargs) -> bytes:
        return flip(self._codec.decompress(data, **kwargs))


class FlippingContext:
    """A streaming context whose every output has one flipped byte."""

    def __init__(self, ctx) -> None:
        self._ctx = ctx

    def reset(self) -> None:
        self._ctx.reset()

    def feed(self, data: bytes) -> bytes:
        return flip(self._ctx.feed(data))

    def flush(self) -> bytes:
        return flip(self._ctx.flush())


@contextlib.contextmanager
def patched(owner: object, attr: str, value: object) -> Iterator[None]:
    saved = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, saved)


def round_failures(workload, fault=None) -> int:
    """Failed operations of one round, run with ``fault`` planted."""
    with fault or contextlib.nullcontext():
        workload.run_round()
    before = workload.failed
    workload.check_round()
    return workload.failed - before


def small_calls_case() -> Tuple[int, int]:
    """small_calls through a codec that flips one output byte."""
    workload = workloads.SmallCalls(SEED)
    workload.setup()
    real = workloads.get_codec
    clean = round_failures(workload)
    planted = round_failures(workload, patched(workloads, "get_codec", lambda name: FlippingCodec(real(name))))
    return clean, planted


def bulk_stream_case() -> Tuple[int, int]:
    """bulk_stream through contexts that flip one output byte."""
    workload = workloads.BulkStream(SEED)
    workload.setup()
    flipping = [
        (name, raw, frame, FlippingContext(cctx), FlippingContext(dctx))
        for name, raw, frame, cctx, dctx in workload.streams
    ]
    clean = round_failures(workload)
    return clean, round_failures(workload, patched(workload, "streams", flipping))


def crc_case() -> Tuple[int, int]:
    """small_calls' CRC-32C check against a CRC that is off by one bit."""
    workload = workloads.SmallCalls(SEED)
    workload.setup()
    real = workloads.crc32c
    clean = workload.final_checks()[1]
    with patched(workloads, "crc32c", lambda data: real(data) ^ 1):
        planted = workload.final_checks()[1]
    return clean, planted


def service_case() -> Tuple[int, int]:
    """serve_open_loop with every 50th response bound to the next request."""
    workload = workloads.ServeOpenLoop(SEED)
    try:
        workload.setup()
        submit = workload.service.submit

        async def misrouted(request):
            response = await submit(request)
            if request.request_id % 50 == 0:
                response = dataclasses.replace(response, request_id=request.request_id + 1)
            return response

        clean = round_failures(workload)
        return clean, round_failures(workload, patched(workload.service, "submit", misrouted))
    finally:
        workload.close()


def swap_fig11(figures: dict) -> dict:
    """Figure 11 with the RoCC and Chiplet placements' series swapped."""
    fig = figures["fig11"]
    rocc, chiplet = Placement.ROCC.value, Placement.CHIPLET.value
    series = dict(fig.series, **{rocc: fig.series[chiplet], chiplet: fig.series[rocc]})
    return dict(figures, fig11=dataclasses.replace(fig, series=series))


def rising_area(figures: dict) -> dict:
    """Figure 12 with an area series that rises as the SRAM shrinks."""
    fig = figures["fig12"]
    area = sorted(fig.area_normalized)
    return dict(figures, fig12=dataclasses.replace(fig, area_normalized=area))


def figure_cases() -> Dict[str, Tuple[int, int]]:
    """One dse_figures round, checked as made and with each figure fault."""
    workload = workloads.DseFigures(SEED)
    workload.setup()
    workload.run_round()
    _, (bench, figures, tokenized), _ = workload.pending
    failed = lambda figs: workload.check((bench, figs, tokenized))[1]  # noqa: E731
    clean = failed(figures)
    return {
        "figure11_placements_swapped": (clean, failed(swap_fig11(figures))),
        "area_rises_as_sram_shrinks": (clean, failed(rising_area(figures))),
    }


CASES: List[Callable[[], Dict[str, Tuple[int, int]]]] = [
    lambda: {"small_calls_codec_flips_one_byte": small_calls_case()},
    lambda: {"bulk_stream_context_flips_one_byte": bulk_stream_case()},
    lambda: {"crc32c_off_by_one_bit": crc_case()},
    lambda: {"service_response_to_wrong_request": service_case()},
    figure_cases,
]


def main() -> int:
    report: List[dict] = []
    for case in CASES:
        for name, (clean_failed, planted_failed) in case().items():
            row = {"case": name, "clean_failed": clean_failed, "planted_failed": planted_failed,
                   "caught": clean_failed == 0 and planted_failed > 0}
            print(json.dumps(row), flush=True)
            report.append(row)
    caught = all(row["caught"] for row in report)
    print(json.dumps({"selftest": "pass" if caught else "FAIL"}))
    return 0 if caught else 1
