"""KLiNQ readout benchmark: one command, three workloads, checked answers.

Run from the repository root::

    python3 klinqbench/run.py --workload bulk --seed 1 --seconds 45 --trace 0

``--workload`` is ``bulk``, ``feedback`` or ``stream`` (see
``klinqbench/workloads.py`` for why each exists).  Inputs come from
``--seed``; the model parameters are fixed.  Every answer is compared bit
for bit with the per-qubit module-path oracle.

With ``--trace 0`` the run measures the named workload for ``--seconds``
and reports the end-to-end metrics.  With ``--trace 1`` it runs every
workload untraced and traced, probes each serving tier unloaded, and
reports the per-layer metrics; spans are written once, at the end, under
``.bench_build/klinqbench/``.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit codes: 0 a valid run (``correct`` may still be false), 2 the program
under test is missing, 3 the run is invalid (the load generator fell
behind its schedule), 1 anything else.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUILD = ROOT / ".bench_build" / "klinqbench"


class InvalidRun(RuntimeError):
    """The measurement is not trustworthy (not a regression of the program)."""


def _import_program() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"klinqbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))


def end_to_end(workload, seed: int, seconds: float) -> tuple[dict, list]:
    """Measure one workload untraced; returns the metrics and every tally."""
    from klinqbench import deploy
    from klinqbench.workloads import (
        SCHED_LAG_LIMIT_MS,
        SETUP_REPS,
        TAIL_PCT,
        host_cpu_ticks,
        peak_rss_mib,
        timed_setup,
    )
    from klinqbench.stats import metric, percentile

    BUILD.mkdir(parents=True, exist_ok=True)
    bundle = Path(tempfile.mkdtemp(prefix="bundle-", dir=BUILD))
    try:
        deploy.save_bundle(bundle)
        oracle = deploy.Oracle.build()
        work = workload(bundle, seed, oracle)
        handle, setup_times = timed_setup(
            work.start, work.first, work.close, SETUP_REPS - SETUP_REPS // 2
        )
        try:
            # stream: two thirds at the design rate, one third on the ladder.
            measure_s = seconds * 2 / 3 if work.name == "stream" else seconds
            busy0, steal0 = host_cpu_ticks()
            phase = work.measure(handle, measure_s)
            busy1, steal1 = host_cpu_ticks()
            steal_pct = 100.0 * (steal1 - steal0) / max(busy1 - busy0, 1)
            print(f"# host steal {steal_pct:.1f}% of busy CPU time while measuring")
            tallies = [phase.tally]
            if work.name == "stream":
                lag_p99_ms = percentile(phase.lags_s, 99) * 1e3
                print(f"# stream generator lag p99 {lag_p99_ms:.2f} ms at design rate")
                if lag_p99_ms > SCHED_LAG_LIMIT_MS:
                    raise InvalidRun(
                        f"generator ran {lag_p99_ms:.1f} ms late (p99), over the "
                        f"{SCHED_LAG_LIMIT_MS} ms bound"
                    )
                max_rate, rungs = work.ladder(handle, seconds / 3)
                print(f"# max_rate_rps {max_rate:g}")
                for rate, rung, level, tail_ms, passed in rungs:
                    tallies.append(rung.tally)
                    print(
                        f"# ladder {rate:g} rps: p{level:g} {tail_ms:.1f} ms over "
                        f"{len(rung.latencies_s)} requests, backlog {rung.backlog} "
                        f"-> {'pass' if passed else 'fail'}"
                    )
            rss = peak_rss_mib(work.pids(handle))
        finally:
            work.close(handle)
        handle, more = timed_setup(work.start, work.first, work.close, SETUP_REPS // 2)
        work.close(handle)
        setup_s = statistics.median(setup_times + more)
    finally:
        shutil.rmtree(bundle, ignore_errors=True)
    # The tail is printed, not gated: on a shared 2-core host its run-to-run
    # spread (0.2 on feedback, 0.7 on stream) exceeds any usable bound.
    level, tail_ms = phase.tail_ms(TAIL_PCT[work.name])
    print(f"# latency tail: p{level:g} {tail_ms:.3f} ms over {len(phase.latencies_s)} requests")
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    metrics = {
        "qshots_per_s": metric(phase.qshots_per_s(), "qshots/s"),
        "latency_p50_ms": metric(phase.p50_ms(), "ms"),
        "success_rate": metric(1.0 - failed / attempted, "ratio"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mib": metric(rss, "MiB"),
    }
    return metrics, tallies


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("bulk", "feedback", "stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _import_program()
    from klinqbench.deploy import HELD_OUT_SEED
    from klinqbench.workloads import WORKLOADS

    print(f"# workload {args.workload} seed {args.seed} (held-out seed for claims: "
          f"{HELD_OUT_SEED}) seconds {args.seconds:g} trace {args.trace}")
    started = time.perf_counter()
    try:
        if args.trace:
            from klinqbench.layers import traced_run

            metrics, tallies = traced_run(args.workload, args.seed, args.seconds, BUILD)
        else:
            metrics, tallies = end_to_end(WORKLOADS[args.workload], args.seed, args.seconds)
    except InvalidRun as exc:
        print(f"klinqbench: invalid run: {exc}", file=sys.stderr)
        return 3
    for tally in tallies:
        print("# " + tally.line())
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"# wall {time.perf_counter() - started:.1f} s")
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    result = {
        "correct": all(t.mismatched == 0 and t.errors == 0 for t in tallies),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
