"""Output checks, computed apart from the program under test.

Every check returns the number of operations it found wrong, so a planted
or real fault is counted as failed operations instead of crashing the run.
The CRC-32C reference and the paper's flagship areas are written out here
rather than imported, so a fault in the program cannot hide behind itself.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: CRC-32C (Castagnoli) reflected polynomial.
CRC32C_POLY = 0x82F63B78

#: The standard check value: CRC-32C of b"123456789".
CRC32C_CHECK = (b"123456789", 0xE3069283)

#: Silicon area of each flagship pipeline as the paper prints it (mm^2):
#: §6.2 Snappy decompressor, §6.3 Snappy compressor, §6.4 ZStd
#: decompressor, §6.5 ZStd compressor.
PAPER_FLAGSHIP_AREA_MM2 = {
    ("snappy", "decompress"): 0.431,
    ("snappy", "compress"): 0.851,
    ("zstd", "decompress"): 1.9,
    ("zstd", "compress"): 3.48,
}

#: Relative slack for "at least as fast" / "never rises" comparisons of
#: floats that the model computes along different paths.
REL_EPS = 1e-9

#: Kolmogorov-Smirnov 95% critical-value coefficient (c(alpha) = 1.36).
KS_C95 = 1.36


def crc32c_bitwise(data: bytes, crc: int = 0) -> int:
    """Bit-at-a-time CRC-32C, the slowest and plainest form of the code."""
    crc ^= 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ (CRC32C_POLY if crc & 1 else 0)
    return crc ^ 0xFFFFFFFF


def check_crc32c(program_crc: Callable[[bytes], int], samples: Iterable[bytes]) -> Tuple[int, int]:
    """Compare the program's CRC-32C with the reference; (attempted, failed).

    The check vector comes first; then each sample payload.
    """
    data, expected = CRC32C_CHECK
    attempted = 1
    failed = int(program_crc(data) != expected or crc32c_bitwise(data) != expected)
    for sample in samples:
        attempted += 1
        failed += int(program_crc(sample) != crc32c_bitwise(sample))
    return attempted, failed


def count_bad_roundtrips(
    frames: Sequence[bytes], inputs: Sequence[bytes], decode: Callable[[int, bytes], bytes]
) -> int:
    """Frames that do not decode back to their input (decode errors count)."""
    bad = 0
    for index, (frame, data) in enumerate(zip(frames, inputs)):
        try:
            bad += int(decode(index, frame) != data)
        except Exception:  # noqa: BLE001 - a raising decoder is one failed check
            bad += 1
    return bad


# ---------------------------------------------------------------------------
# Service responses
# ---------------------------------------------------------------------------


def check_responses(
    requests: Sequence[Tuple[int, str, bytes]],
    responses: Sequence[Optional[object]],
    decode: Callable[[int, bytes], bytes],
) -> int:
    """Failed requests among one phase's (request_id, op, raw) triples.

    A request fails when it was shed (``None``), answered with an error,
    answered under another request's id, or answered with bytes that are
    not its raw payload (decompress) or do not decode to it (compress).
    """
    failed = 0
    for index, ((request_id, op, raw), response) in enumerate(zip(requests, responses)):
        if response is None or not response.ok or response.request_id != request_id:
            failed += 1
        elif op == "decompress":
            failed += int(response.payload != raw)
        else:
            failed += count_bad_roundtrips([response.payload], [raw], lambda _i, f: decode(index, f))
    return failed


# ---------------------------------------------------------------------------
# HyperCompressBench and figures
# ---------------------------------------------------------------------------


def ks_critical(n: int) -> float:
    """Kolmogorov-Smirnov 95% critical distance for n samples."""
    return KS_C95 / n ** 0.5


def check_tokens(results: Iterable[Tuple[bytes, int, Sequence[object], Callable]]) -> Tuple[int, int]:
    """(attempted, failed) over (data, history bytes, tokens, decoder) tuples.

    A token stream fails when the reference decoder does not rebuild the
    input from it, or when any copy reaches further back than the encoder's
    history SRAM holds.
    """
    attempted = failed = 0
    for data, history, tokens, decode in results:
        attempted += 1
        try:
            rebuilt = decode(tokens, expected_length=len(data))
        except Exception:  # noqa: BLE001 - a rejected token stream is a failed check
            failed += 1
            continue
        too_far = any(getattr(t, "offset", 0) > history for t in tokens)
        failed += int(rebuilt != data or too_far)
    return attempted, failed


def _not_above(lower: float, upper: float) -> bool:
    return lower <= upper * (1 + REL_EPS)


Point = Tuple[str, int]


def rising_columns(values: Sequence[float]) -> List[int]:
    """Columns whose value rises above their left neighbour (SRAM shrinking)."""
    return [c + 1 for c, (left, right) in enumerate(zip(values, values[1:])) if not _not_above(right, left)]


def area_failures(area: Sequence[float], owner: str) -> Set[Point]:
    """Points of ``owner`` (the series the areas come from) where area rises."""
    return {(owner, column) for column in rising_columns(area)}


def decoder_figure_failures(
    series: Dict[str, List[float]], area: Sequence[float], fastest: str, slowest: str
) -> Set[Point]:
    """Figures 11/14: points that break a rule, each counted once.

    Per SRAM column, ``fastest`` is at least as fast as every placement and
    every placement at least as fast as ``slowest``; no placement's speedup
    and no area rises as the SRAM shrinks.
    """
    failed: Set[Point] = set()
    for name, values in series.items():
        for column, value in enumerate(values):
            if not (_not_above(value, series[fastest][column]) and _not_above(series[slowest][column], value)):
                failed.add((name, column))
        failed.update((name, column) for column in rising_columns(values))
    return failed | area_failures(area, fastest)


def check_flagship_areas(area_of: Callable[[str, str], float]) -> Tuple[int, int]:
    """(attempted, failed): flagship pipeline areas against the paper's values."""
    failed = 0
    for (algorithm, operation), paper in PAPER_FLAGSHIP_AREA_MM2.items():
        failed += int(abs(area_of(algorithm, operation) - paper) > 1e-6 * paper)
    return len(PAPER_FLAGSHIP_AREA_MM2), failed
