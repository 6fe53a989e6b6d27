"""Per-layer timers for the traced run, and the accounting built on them.

The traced run turns on :mod:`repro.obs`, which records the program's own
``codec.*``, ``stage.*`` and ``dse.*`` spans, and installs the timers below
around each layer's public entry points. A method is wrapped on its class;
a function is wrapped in the module its caller looks it up in, so only the
calls made through that lookup are timed. Nothing is changed inside the
program, and every timer is removed again when the traced phase ends.

Accounting works on self time: a span's duration minus the time its child
spans cover. Summed over every span, plus the wall time no span covers,
that gives back the wall time of the traced phase exactly.
"""

from __future__ import annotations

import functools
import importlib
import re
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro import obs
from repro.obs.spans import SPAN_BUFFER

#: (span name, module, attribute) for every timer the traced run installs.
#: Extra names under one prefix (``...table_build.from_frequencies``) time
#: helper steps of the same job; counts use the bare name.
TIMERS: List[Tuple[str, str, str]] = [
    ("algorithms.fse.table_build", "repro.algorithms.fse", "FseTable.__init__"),
    ("algorithms.fse.table_build.from_frequencies", "repro.algorithms.fse", "FseTable.from_frequencies"),
    ("algorithms.huffman.table_build", "repro.algorithms.huffman", "HuffmanTable.from_lengths"),
    ("algorithms.huffman.table_build.from_frequencies", "repro.algorithms.huffman", "HuffmanTable.from_frequencies"),
    ("algorithms.huffman.table_build.code_lengths", "repro.algorithms.deflate", "build_code_lengths"),
    ("algorithms.lz77.matcher_init", "repro.algorithms.lz77", "Lz77Encoder.__init__"),
    ("algorithms.lz77.matcher_init.table", "repro.algorithms.lz77", "Lz77Encoder._scratch_table"),
    ("hcbench.lut_build", "repro.hcbench.lut", "build_luts"),
    ("hcbench.assemble", "repro.hcbench.generator", "HcBenchGenerator.generate_all"),
    ("hcbench.compressed_form", "repro.hcbench.suite", "Suite.compressed_form"),
    ("dse.decode_prep", "repro.dse.runner", "parse_elements"),
    ("dse.decode_prep", "repro.dse.runner", "analyze_frame"),
    ("dse.encode_prep", "repro.core.blocks.lz77", "Lz77EncoderBlock.tokenize"),
    ("dse.encode_prep.hw_size", "repro.core.pipelines.zstd", "ZstdCompressorPipeline.compressed_size"),
    ("core.account", "repro.core.pipelines.snappy", "SnappyDecompressorPipeline.account"),
    ("core.account", "repro.core.pipelines.snappy", "SnappyCompressorPipeline.account"),
    ("core.account", "repro.core.pipelines.zstd", "ZstdDecompressorPipeline.account"),
    ("core.account", "repro.core.pipelines.zstd", "ZstdCompressorPipeline.account"),
    ("core.generate", "repro.core.generator", "CdpuGenerator.generate"),
    ("core.area", "repro.dse.runner", "pipeline_area_mm2"),
    ("soc.xeon", "repro.soc.xeon", "XeonBaseline.suite_seconds"),
    ("fleet.profile", "repro.fleet.profile", "generate_fleet_profile"),
]

#: Span-name prefix -> layer, first match wins.
LAYER_PREFIXES: List[Tuple[str, str]] = [
    ("stage.crc32c", "common"),
    ("codec.", "algorithms"),
    ("stage.", "algorithms"),
    ("algorithms.", "algorithms"),
    ("hcbench.", "hcbench"),
    ("dse.", "dse"),
    ("core.", "core"),
    ("soc.", "soc"),
    ("fleet.", "fleet"),
    ("corpus.", "corpus"),
]

LAYERS = ["algorithms", "common", "hcbench", "dse", "core", "soc", "fleet", "corpus"]

#: Layers that the set-up uses; their metrics are per set-up plus per round.
SETUP_LAYERS = {"fleet.profile_s": "fleet.profile", "corpus.synthesis_s": "corpus.synthesis"}

CODECS = ["snappy", "zstd", "flate", "brotli", "gipfeli", "lzo"]

_CODEC_SPAN = re.compile(r"codec\.(\w+)\.(?:stream\.)?(compress|decompress)(?:\.feed|\.flush)?$")


def layer_of(name: str) -> str:
    for prefix, layer in LAYER_PREFIXES:
        if name.startswith(prefix):
            return layer
    return "other"


def _timed(fn: Callable, name: str) -> Callable:
    @functools.wraps(fn)
    def timed(*args, **kwargs):
        with obs.span(name, category="bench"):
            return fn(*args, **kwargs)

    return timed


class Timers:
    """Installs every timer on entry and restores the originals on exit."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Timers":
        for name, module_name, path in TIMERS:
            owner: object = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(_timed(raw.__func__, name)))
            else:
                setattr(owner, attr, _timed(raw, name))
        # Corpus sources are looked up in the SOURCES table by every caller.
        sources = importlib.import_module("repro.corpus.sources").SOURCES
        self._saved.append((sources, None, dict(sources)))
        for key, fn in list(sources.items()):
            sources[key] = _timed(fn, "corpus.synthesis")
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, raw in reversed(self._saved):
            if attr is None:
                owner.clear()
                owner.update(raw)
            else:
                setattr(owner, attr, raw)
        self._saved.clear()


def start_trace() -> None:
    obs.reset()
    obs.enable()


def stop_trace() -> Tuple[List[object], Dict[str, int]]:
    """Disable tracing; return (span records, counters) recorded since start."""
    obs.disable()
    records = SPAN_BUFFER.drain_view()
    counters = dict(obs.snapshot().counters)
    obs.reset()
    return records, counters


def untraced(fn: Callable[[], None]) -> None:
    """Run ``fn`` with tracing paused; what it does is not recorded."""
    obs.disable()
    try:
        fn()
    finally:
        obs.enable()


class _Node:
    __slots__ = ("name", "begin", "dur", "parent", "child_dur")

    def __init__(self, name: str, begin: float, dur: float) -> None:
        self.name = name
        self.begin = begin
        self.dur = dur
        self.parent: Optional[_Node] = None
        self.child_dur = 0.0

    @property
    def self_s(self) -> float:
        return self.dur - self.child_dur

    def ancestors(self) -> Iterable["_Node"]:
        node = self.parent
        while node is not None:
            yield node
            node = node.parent


class SpanTree:
    """Wall-clock spans of one thread arranged by containment (seconds)."""

    def __init__(self, records: Iterable[object]) -> None:
        wall = [r for r in records if r.pid == 1]
        wall.sort(key=lambda r: (r.tid, r.begin_us, -r.duration_us))
        self.nodes: List[_Node] = []
        stack: List[_Node] = []
        tid = None
        for record in wall:
            if record.tid != tid:
                stack, tid = [], record.tid
            node = _Node(record.name, record.begin_us / 1e6, record.duration_us / 1e6)
            while stack and stack[-1].begin + stack[-1].dur <= node.begin:
                stack.pop()
            if stack:
                node.parent = stack[-1]
                stack[-1].child_dur += node.dur
            stack.append(node)
            self.nodes.append(node)

    def outermost(self, match: Callable[[str], bool]) -> List[_Node]:
        """Matching spans with no matching ancestor (no double counting)."""
        return [
            n for n in self.nodes
            if match(n.name) and not any(match(a.name) for a in n.ancestors())
        ]

    def inclusive_s(self, prefix: str) -> float:
        return sum(n.dur for n in self.outermost(lambda s: s.startswith(prefix)))

    def self_s(self, name: str) -> float:
        return sum(n.self_s for n in self.nodes if n.name == name)

    def count(self, predicate: Callable[[str], bool]) -> int:
        return sum(1 for n in self.nodes if predicate(n.name))

    def layer_self_s(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for node in self.nodes:
            totals[layer_of(node.name)] += node.self_s
        return totals


def layer_metrics(tree: SpanTree, counters: Dict[str, int], rounds: int, wall_s: float) -> Dict[str, float]:
    """Per-round per-layer metrics of one traced measured phase."""
    per = 1.0 / max(1, rounds)
    out: Dict[str, float] = {}
    codec_nodes = tree.outermost(lambda s: s.startswith("codec."))
    by_op: Dict[str, float] = defaultdict(float)
    for node in codec_nodes:
        match = _CODEC_SPAN.match(node.name)
        if match:
            by_op[f"{match.group(1)}.{match.group(2)}"] += node.dur
    for codec in CODECS:
        for op in ("compress", "decompress"):
            out[f"algorithms.{codec}.{op}_s"] = by_op[f"{codec}.{op}"] * per
    out["algorithms.calls"] = len(codec_nodes) * per
    out["algorithms.bytes_in"] = per * sum(
        v for k, v in counters.items() if k.startswith("codec.") and ".stream." in k and k.endswith(".bytes_in")
    )
    for part in ("fse", "huffman"):
        out[f"algorithms.{part}.table_build_s"] = tree.inclusive_s(f"algorithms.{part}.table_build") * per
        out[f"algorithms.{part}.table_builds"] = tree.count(lambda s, p=part: s == f"algorithms.{p}.table_build") * per
    out["algorithms.lz77.matcher_init_s"] = tree.inclusive_s("algorithms.lz77.matcher_init") * per
    out["algorithms.lz77.matcher_inits"] = tree.count(lambda s: s == "algorithms.lz77.matcher_init") * per
    out["algorithms.unattributed_s"] = sum(n.self_s for n in tree.nodes if n.name.startswith("codec.")) * per
    for kernel in ("lz77", "huffman", "fse"):
        for op in ("encode", "decode"):
            out[f"algorithms.{kernel}.{op}_s"] = tree.self_s(f"stage.{kernel}.{op}") * per
    out["common.crc32c_s"] = tree.self_s("stage.crc32c") * per
    out["hcbench.lut_build_s"] = tree.inclusive_s("hcbench.lut_build") * per
    out["hcbench.assemble_s"] = tree.inclusive_s("hcbench.assemble") * per
    out["hcbench.codec_calls"] = per * sum(
        1 for n in codec_nodes if any(a.name.startswith("hcbench.") for a in n.ancestors())
    )
    out["hcbench.compressed_form_s"] = tree.inclusive_s("hcbench.compressed_form") * per
    out["dse.decode_prep_s"] = tree.inclusive_s("dse.decode_prep") * per
    out["dse.encode_prep_s"] = tree.inclusive_s("dse.encode_prep") * per
    out["dse.points"] = tree.count(lambda s: s.startswith("dse.point.")) * per
    for name in ("core.account", "core.generate", "core.area", "soc.xeon"):
        out[f"{name}_s"] = tree.inclusive_s(name) * per
    for name, prefix in SETUP_LAYERS.items():
        out[name] = tree.inclusive_s(prefix) * per
    layers = tree.layer_self_s()
    for layer in LAYERS:
        out[f"layer.{layer}_s"] = layers.get(layer, 0.0) * per
    out["layer.unattributed_s"] = (wall_s - sum(layers.get(layer, 0.0) for layer in LAYERS)) * per
    out["layer.wall_s"] = wall_s * per
    return out


def setup_layer_metrics(tree: SpanTree) -> Dict[str, float]:
    """Fleet and corpus time inside one traced set-up."""
    return {name: tree.inclusive_s(prefix) for name, prefix in SETUP_LAYERS.items()}
