#!/usr/bin/env python3
"""The tidsim benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload fuzz_mix --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
The client runs one item at a time with no threads, starting the next only
after the previous one returns. A run is a fixed number of batches of items
(see workloads.py), set from `--seconds` and the workload's batch time at
the reference speed, so its inputs depend only on the workload, the seed
and `--seconds`, never on how fast the host happens to be. The last line
of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.

An item fails when the program raises or when its output breaks one of
the invariants in workloads.py; `failed` counts such items and each is
printed with its exception or broken invariant. `correct` is false when
the outputs cannot be trusted as this program's: at the pinned seed an
item's hash differs from pins.json, a rerun gives a different hash, or
tracing changed a hash.

--trace 0 reports the end-to-end metrics. Times are host time scaled to
the reference speed (see hostspeed.py), so that the host's own drift
cancels:
  batch_s      time to finish one batch, averaged over the run's batches
  item_s.p50   median time per item, over the items that did not raise
  peak_rss_mb  peak resident memory of the run
  setup_s      median, over fresh interpreters, of importing tidsim and
               finishing one warm-up call
The summary lines above the JSON line also give the unscaled host times.

--trace 1 runs every batch twice, untraced and traced (in alternating
order), checks that tracing leaves every output hash unchanged, and reports
the per-layer metrics in unscaled host time, per batch, plus the tracing
overhead. Spans are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from random import Random

import hostspeed
import tracing

BENCH_DIR = Path(__file__).resolve().parent
PINS_FILE = BENCH_DIR / "pins.json"
OUT_DIR = BENCH_DIR / "out"

# Spans reported by --trace 1 as inclusive seconds, call counts and self
# seconds per batch; the remaining per-layer metrics are read from traces,
# receipts and call outcomes.
SPAN_TIMES = tuple(name for *_, name in tracing.TARGETS)
SPAN_CALLS = (
    "crypto.ecies_decrypt", "crypto.ecies_encrypt", "crypto.sign", "crypto.recover_signer",
    "crypto.keypair_gen", "actors.peel_with_keys", "ledger.submit_tx", "contracts.handle",
)
SPAN_SELF = ("actors.peel_with_keys", "ledger.submit_tx")

# Fresh interpreters timed for setup_s, each paired with a reference
# start-up, after one untimed pair that warms the file cache.
SETUP_SAMPLES = 7
SETUP_CHILD = """
import sys, time
started = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tidsim
import workloads
workloads.warm_up(sys.argv[3])
print(time.perf_counter() - started)
"""


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_program(src: Path):
    """Import tidsim from the checkout's src/, never from anywhere else."""
    if not (src / "tidsim" / "__init__.py").is_file():
        fail(f"no tidsim package under {src}")
    sys.path.insert(0, str(src))
    import tidsim

    if Path(tidsim.__file__).resolve().parent.parent != src.resolve():
        fail(f"imported tidsim from {tidsim.__file__}, not from {src}")


def measure_setup(src: Path, workload: str) -> tuple[float, float]:
    """Median set-up time over fresh interpreters: (reference s, host s).

    Each set-up is paired with a reference start-up (hostspeed.STARTUP_CHILD)
    run right before or after it, in alternating order, and scaled by it.
    """
    def child(code, *args):
        done = subprocess.run([sys.executable, "-c", code, *args],
                              capture_output=True, text=True, timeout=60, check=True)
        return float(done.stdout.split()[-1])

    def time_setup():
        return child(SETUP_CHILD, str(src), str(BENCH_DIR), workload)

    def time_startup():
        return child(hostspeed.STARTUP_CHILD, str(BENCH_DIR))

    scaled, host = [], []
    for sample in range(1 + SETUP_SAMPLES):
        if sample % 2:
            startup = time_startup()
            setup = time_setup()
        else:
            setup = time_setup()
            startup = time_startup()
        if sample:
            scaled.append(setup * hostspeed.STARTUP_REFERENCE_S / startup)
            host.append(setup)
    return statistics.median(scaled), statistics.median(host)


def run_batches(workload: str, seed: int, count: int, tracer=None):
    """Closed loop over batches 0 .. count-1.

    Returns (untraced outcome batches, untraced batch host times, traced
    batch host times, traced-vs-untraced digest mismatches).
    """
    import workloads

    batches, times, traced_times, mismatches = [], [], [], []
    for index in range(count):
        items = workloads.batch(workload, seed, index)
        passes = (False,)
        if tracer:
            passes = (False, True) if index % 2 == 0 else (True, False)
        for traced in passes:
            if traced:
                outcomes = []
                with tracer.installed():
                    for item in items:
                        tracer.item = item.id
                        outcomes.append(workloads.run_item(item))
                traced_times.append(sum(o.seconds for o in outcomes))
                traced_outcomes = outcomes
            else:
                outcomes = [workloads.run_item(item) for item in items]
                times.append(sum(o.seconds for o in outcomes))
                batches.append(outcomes)
        if tracer:
            for plain, seen in zip(batches[-1], traced_outcomes):
                if plain.digest != seen.digest or plain.error != seen.error:
                    mismatches.append(f"{plain.item}: untraced {plain.digest or plain.error}, "
                                      f"traced {seen.digest or seen.error}")
    return batches, times, traced_times, mismatches


def check_pins(workload: str, seed: int, outcomes) -> list[str]:
    """At the pinned seed, every item that completed when pinned must give
    the same hash; an item that raised when pinned is judged by its checks."""
    pins = json.loads(PINS_FILE.read_text()).get(workload)
    if pins is None or seed != pins["seed"]:
        return []
    problems = []
    for o in outcomes:
        pinned = pins["items"].get(o.item)
        if isinstance(pinned, str) and o.digest != pinned:
            problems.append(f"{o.item}: hash {o.digest or o.error} differs from pinned {pinned}")
    return problems


def rerun_check(workload: str, seed: int, batches) -> list[str]:
    """Rerun one completed item of the first batch; its hash must repeat."""
    import workloads

    done = [o for o in batches[0] if o.digest is not None]
    if not done:
        return []
    chosen = Random(f"rerun/{workload}/{seed}").choice(done)
    item = next(i for i in workloads.batch(workload, seed, 0) if i.id == chosen.item)
    again = workloads.run_item(item)
    if again.digest != chosen.digest:
        return [f"{chosen.item}: rerun hash {again.digest or again.error} != {chosen.digest}"]
    return []


def layer_metrics(tracer, outcomes, traced_times, plain_times) -> dict:
    per_batch = len(traced_times)
    totals = tracer.layer_totals()
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def span(name):
        return totals.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "ok": 0})

    for name in SPAN_CALLS:
        put(f"{name}.calls", span(name)["calls"] / per_batch, "count/batch")
    for name in SPAN_TIMES:
        put(f"{name}.s", span(name)["s"] / per_batch, "s/batch")
    for name in SPAN_SELF:
        put(f"{name}.self_s", span(name)["self_s"] / per_batch, "s/batch")

    decrypts = span("crypto.ecies_decrypt")
    put("crypto.ecies_decrypt.hit_ratio", decrypts["ok"] / decrypts["calls"] if decrypts["calls"] else 0.0, "ratio")
    recovers = span("crypto.recover_signer")["calls"]
    unique = sum(len(v) for v in tracer.recover_inputs.values())
    put("crypto.recover_signer.unique_ratio", unique / recovers if recovers else 0.0, "ratio")

    counts = {}
    for o in outcomes:
        for key, value in o.counts.items():
            counts[key] = counts.get(key, 0) + value
    msgs = counts.get("msgs", 0)
    receipts = counts.get("receipts", 0)
    put("ledger.receipts", receipts / per_batch, "count/batch")
    put("ledger.submit_tx.revert_ratio", counts.get("reverts", 0) / receipts if receipts else 0.0, "ratio")
    put("channels.msgs", msgs / per_batch, "count/batch")
    put("channels.bytes", counts.get("bytes", 0) / per_batch, "B/batch")
    put("channels.drop_ratio", counts.get("dropped", 0) / msgs if msgs else 0.0, "ratio")

    put("trace.batch_s", statistics.median(traced_times), "s")
    put("trace.overhead", statistics.median(traced_times) / statistics.median(plain_times), "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", type=int, metavar="BATCHES", default=0,
                        help="record item hashes of the first BATCHES batches at --seed and exit")
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    import_program(src)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    if args.write_pins:
        return write_pins(args.workload, args.seed, args.write_pins)

    setup_s = None if args.trace else measure_setup(src, args.workload)
    workloads.warm_up(args.workload)
    count = max(1, round(args.seconds / workloads.BATCH_REF_S[args.workload]))

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        try:
            with tracer.installed():
                pass
        except tracing.MissingTarget as exc:
            fail(f"traced run cannot start: {exc}", 3)

    if tracer:
        batches, times, traced_times, mismatches = run_batches(args.workload, args.seed, count, tracer)
    else:
        with hostspeed.HostSpeed() as speed:
            batches, times, traced_times, mismatches = run_batches(args.workload, args.seed, count)
    outcomes = [o for b in batches for o in b]
    problems = mismatches + check_pins(args.workload, args.seed, outcomes) + rerun_check(args.workload, args.seed, batches)

    for o in outcomes:
        if o.error:
            print(f"FAILED {args.workload} item {o.item}: raised {o.error}")
        for p in o.problems:
            print(f"FAILED {args.workload} item {o.item}: {p}")
    for p in problems:
        print(f"WRONG {args.workload}: {p}")
    failed = sum(o.failed for o in outcomes) + len(problems)
    correct = not problems

    # Items the program completed without raising; an item that raised
    # stopped early, so its time says nothing about a run's latency.
    completed = [o for o in outcomes if o.error is None] or outcomes
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(str(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"))
        metrics = layer_metrics(tracer, outcomes, traced_times, times)
        silent = [name for name in workloads.LAYERS[args.workload] if metrics[f"{name}.s"]["value"] == 0]
        if silent:
            fail(f"traced run recorded no calls to {', '.join(silent)}", 3)
    else:
        metrics = {
            "batch_s": {"value": sum(speed.reference(o.started, o.ended) for o in outcomes) / len(batches), "unit": "s"},
            "item_s.p50": {"value": statistics.median(speed.reference(o.started, o.ended) for o in completed), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"},
            "setup_s": {"value": setup_s[0], "unit": "s"},
        }
        print(f"host time, unscaled: batch_s {sum(speed.busy(o.started, o.ended) for o in outcomes) / len(batches):.6g} s, "
              f"item_s.p50 {statistics.median(speed.busy(o.started, o.ended) for o in completed):.6g} s, "
              f"setup_s {setup_s[1]:.6g} s; {len(speed.starts)} host-speed samples")
    print(f"{args.workload} seed {args.seed}: {len(batches)} batches, {len(outcomes)} items, "
          f"{failed} failed (failed_frac {failed / len(outcomes):.4f})")
    for name, m in metrics.items():
        extra = f"  (n={len(completed)} items completed)" if name == "item_s.p50" else ""
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}{extra}")
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": failed, "metrics": metrics}))
    return 0


def write_pins(workload: str, seed: int, count: int) -> int:
    import workloads

    pins = json.loads(PINS_FILE.read_text()) if PINS_FILE.exists() else {}
    items = {}
    for index in range(count):
        for item in workloads.batch(workload, seed, index):
            o = workloads.run_item(item)
            items[item.id] = o.digest if o.digest else {"error": o.error}
    pins[workload] = {"seed": seed, "items": items}
    PINS_FILE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(items)} items of {workload} at seed {seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
