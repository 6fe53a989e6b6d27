#!/usr/bin/env python3
"""Fleet-shaped benchmark of the repro library: one workload per process.

    python3 fleetbench/run.py --workload small_calls --seed 1 --seconds 10 --trace 0
    python3 fleetbench/run.py --selftest

Run from the repository root. The program is imported from ``src/`` next to
this directory, never from an installed copy. A run sets itself up several
times (``setup_s`` is the median), repeats the workload's round until
``--seconds`` have passed, checking each round's outputs as it ends, and
prints as its last line one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics, from a
run with ``repro.obs`` and the layer timers of ``tracing.py`` switched on.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import sys  # noqa: E402

sys.dont_write_bytecode = True  # the checkout must stay as it was

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import List, Tuple  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: Host-speed gauge samples taken before and after each set-up.
GAUGE_SAMPLES_PER_SETUP = 3


def _fail(message: str) -> "NoReturn":  # noqa: F821
    print(f"fleetbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_program(tmp: Path) -> None:
    """Import ``repro`` from the checkout's sources, isolated to ``tmp``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"no program sources at {SRC.relative_to(ROOT)}/repro; run from a full checkout")
    os.environ["REPRO_CACHE_DIR"] = str(tmp)
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        _fail(f"imported repro from {repro.__file__}, not from {SRC}")


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def fingerprint() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
        "REPRO_JOBS": os.environ.get("REPRO_JOBS", "unset"),
        "commit": _commit(),
    }


def _spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        _fail(f"cannot read {path.name}: {exc}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_rounds(workload, seconds: float, check=None) -> Tuple[List[float], float]:
    """Whole rounds for about ``seconds``, each checked as it ends.

    Returns the measured seconds of each round and the wall time of the
    rounds without their checks. Another round starts only while more than
    half a round's time is left, so the run ends as close to ``seconds`` as
    whole rounds allow.
    """
    check = check or workload.check_round
    work: List[float] = []
    wall = 0.0
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        work.append(workload.run_round())
        wall += time.perf_counter() - start
        check()
        elapsed = time.perf_counter() - begin
        if elapsed + 0.5 * elapsed / len(work) >= seconds:
            return work, wall


def run_plain(workload, seconds: float, import_s: float) -> tuple:
    from gauge import Gauge

    setups = []
    factors = []
    for _ in range(SETUP_REPEATS):
        gauge = Gauge()
        for _ in range(GAUGE_SAMPLES_PER_SETUP):
            gauge.sample()
        begin = time.perf_counter()
        workload.setup()
        elapsed = time.perf_counter() - begin
        for _ in range(GAUGE_SAMPLES_PER_SETUP):
            gauge.sample()
        factors.append(gauge.factor())
        setups.append(elapsed * factors[-1])
    workload.warm_up()
    _run_rounds(workload, seconds)
    result = workload.finish()
    metrics = dict(result.metrics)
    # The import is scaled by the gauge of the set-up that follows it.
    metrics["setup_s"] = import_s * factors[0] + statistics.median(setups)
    metrics["peak_rss_MB"] = _peak_rss_mb()
    return result, metrics


def run_traced(workload, seconds: float) -> tuple:
    """One traced set-up, a warm-up, one plain round, then traced rounds.

    Checks run with tracing paused, so the traced wall time is the rounds'.
    """
    import tracing

    with tracing.Timers():
        tracing.start_trace()
        workload.setup()
        records, _ = tracing.stop_trace()
    setup_layers = tracing.setup_layer_metrics(tracing.SpanTree(records))
    workload.warm_up()
    plain = workload.run_round()
    workload.check_round()
    with tracing.Timers():
        tracing.start_trace()
        traced, wall = _run_rounds(
            workload, max(0.0, seconds - plain), check=lambda: tracing.untraced(workload.check_round)
        )
        records, counters = tracing.stop_trace()
    metrics = tracing.layer_metrics(tracing.SpanTree(records), counters, len(traced), wall)
    for name, value in setup_layers.items():
        metrics[name] += value
    metrics.update(workload.layer_metrics())
    metrics["obs.tracing_overhead"] = statistics.median(traced) / plain
    result = workload.finish()
    return result, metrics


def print_accounting(metrics: dict) -> None:
    """Layer self times plus the remainder, against the traced wall time."""
    layers = {k: v for k, v in metrics.items() if k.startswith("layer.") and k != "layer.wall_s"}
    total = sum(layers.values())
    print(f"accounting (s per round): wall {metrics['layer.wall_s']:.4f} = "
          + " + ".join(f"{k[6:-2]} {v:.4f}" for k, v in layers.items())
          + f" (sum {total:.4f})")
    if "service.sojourn_ms.mean" in metrics:
        parts = ["lateness", "queue_wait", "in_worker", "remainder"]
        print("accounting (mean ms per open-loop request): sojourn "
              f"{metrics['service.sojourn_ms.mean']:.3f} = "
              + " + ".join(f"{p} {metrics[f'service.{p}_ms.mean']:.3f}" for p in parts))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="feed every check a planted fault and require it to be caught")
    args = parser.parse_args(argv)
    # A terminated run still removes its temporary directory and workers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    spec = _spec()
    tmp_root = BENCH_DIR / ".tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=tmp_root))
    try:
        _import_program(tmp)
        if args.selftest:
            import selftest

            return selftest.main()
        import workloads

        if args.workload not in workloads.WORKLOADS:
            _fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
        import_s = time.perf_counter() - _T0
        workload = workloads.WORKLOADS[args.workload](args.seed)
        try:
            if args.trace:
                result, metrics = run_traced(workload, args.seconds)
                print_accounting(metrics)
            else:
                result, metrics = run_plain(workload, args.seconds, import_s)
        finally:
            workload.close()
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
        print("fingerprint:", json.dumps(fingerprint(), sort_keys=True))
        print("inputs_digest:", workload.digest)
        print("gauge_factor:", workload.gauge_factor)
        for key, value in sorted(result.notes.items()):
            print(f"{key}:", json.dumps(value, sort_keys=True))
        out = {
            "correct": bool(result.correct),
            "attempted": int(result.attempted),
            "failed": int(result.failed),
            "metrics": {
                m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
                for m in wanted
            },
        }
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
