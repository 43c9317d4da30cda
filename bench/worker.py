"""One workload in one fresh process: set-up, then a timed or a traced pass.

run.py starts this script once per measurement and reads the JSON object
it prints as its last line.  The loop is closed with one caller: the next
analysis starts only after the previous answer has returned and been
checked, which is how a script or notebook calls the library.

  --role setup   set up, run one warm-up analysis of each kind, report set-up time
  --role run     set up, then whole mix blocks until --seconds have passed and
                 at least MIN_SAMPLES analyses ran (untraced)
  --role trace   set up, run whole blocks untraced for --seconds / 2, run the
                 same analyses again under the tracer, compare the answers

End-to-end times are at a reference host speed.  A shared host's speed swings
by up to about 2x within seconds, as other tenants come and go, and a run-long
median does not average that out.  So a fixed numpy FFT probe runs between
consecutive analyses, and each analysis's wall time is multiplied by
REF_PROBE_S / (mean time of the probes just before and after it): the time
it would have taken on a host that runs the probe in REF_PROBE_S.  Set-up
time is scaled the same way by probes run right after it.  The wall-clock
figures are kept in the result record.  Per-layer self times of the traced
pass are wall times; the tracing overhead compares scaled times.
"""

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import corpus  # noqa: E402  (imports besovlab from SRC)
import spec  # noqa: E402
import tracer as tracing  # noqa: E402

MIN_SAMPLES = 100  # p90 keeps ten samples beyond it
MAX_LOOP_S = 50.0  # caps a run on a slow host, when the sample floor would take longer
PROBE_POINTS = 32768  # complex points of each FFT in the host-speed probe
PROBE_FFTS = 10
# the probe's time on an unloaded vCPU of the 2-vCPU KVM host the
# benchmark was tuned on (7.0-7.3 ms there; 11-13 ms when loaded)
REF_PROBE_S = 7.0e-3
SETUP_PROBES = 5


class HostSpeed:
    """A fixed numpy FFT probe; scale() turns a wall time into reference time."""

    def __init__(self):
        self._x = np.random.default_rng(0).standard_normal(PROBE_POINTS) + 0j
        self.probe()  # first call plans the FFT

    def probe(self):
        t0 = time.perf_counter()
        for _ in range(PROBE_FFTS):
            np.fft.ifft(self._x)
        return time.perf_counter() - t0

    @staticmethod
    def scale(before, after):
        return REF_PROBE_S / (0.5 * (before + after))


def _check_library_source():
    """Refuse to measure a besovlab that was not loaded from this checkout."""
    stray = [
        n for n, m in sys.modules.items()
        if n.startswith("besovlab") and getattr(m, "__file__", None)
        and not Path(m.__file__).resolve().is_relative_to(SRC)
    ]
    if stray:
        raise SystemExit(f"besovlab modules loaded from outside {SRC}: {stray}")


def _answer(ctx, a, inputs):
    """The analysis's answer, or ("raised", type, message) if it raised."""
    try:
        return corpus.run(ctx, a, inputs)
    except Exception as exc:  # a raising analysis is counted, not fatal
        return ("raised", type(exc).__name__, str(exc))


class Tally:
    """Every analysis attempted and its failures."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def attempt(self, ctx, a):
        """Run and check one analysis; returns (answer, seconds in the library)."""
        inputs = corpus.prepare(ctx, a)
        t0 = time.perf_counter()
        answer = _answer(ctx, a, inputs)
        dt = time.perf_counter() - t0
        self.attempted += 1
        if answer[0] == "raised":
            fails = [f"raised {answer[1]}: {answer[2]}"]
        else:
            fails = corpus.check(a, answer)
        if fails:
            self.failures.append(f"{a.label()} offset={a.offset}: {'; '.join(fails)}")
        return answer, dt


class Pass:
    """Analyses of one pass with their wall times and host-speed scales.

    lat is the time inside the library; step adds preparing and checking
    the answer, the caller's own work between two library calls.
    """

    def __init__(self):
        self.specs, self.answers, self.lat, self.step, self.scale = [], [], [], [], []

    def add(self, a, answer, lat, step, scale):
        self.specs.append(a)
        self.answers.append(answer)
        self.lat.append(lat)
        self.step.append(step)
        self.scale.append(scale)

    def scaled(self, times):
        return np.asarray(times) * np.asarray(self.scale)


def _blocks_for(tally, ctx, speed, workload, seed, seconds, min_samples):
    """Whole blocks until both the time and the sample floor are reached."""
    run = Pass()
    gen = corpus.blocks(workload, seed)
    t0 = time.perf_counter()
    before = speed.probe()
    while True:
        for a in next(gen):
            s0 = time.perf_counter()
            answer, dt = tally.attempt(ctx, a)
            step = time.perf_counter() - s0
            after = speed.probe()
            run.add(a, answer, dt, step, speed.scale(before, after))
            before = after
        elapsed = time.perf_counter() - t0
        if (elapsed >= seconds and len(run.lat) >= min_samples) or elapsed >= MAX_LOOP_S:
            return run, elapsed


def timed(tally, ctx, speed, args):
    run, elapsed = _blocks_for(
        tally, ctx, speed, args.workload, args.seed, args.seconds, MIN_SAMPLES
    )
    # Exponent errors and the digest cover the blocks every run completes,
    # so a faster library, which runs more blocks, sees the same inputs.
    block = len(corpus.BLOCKS[args.workload])
    fixed = block * math.ceil(MIN_SAMPLES / block)
    errors = [
        e for a, ans in zip(run.specs[:fixed], run.answers[:fixed])
        if ans[0] != "raised" and (e := corpus.exponent_error(a, ans)) is not None
    ]
    p50, p90 = np.percentile(run.scaled(run.lat) * 1e3, [50, 90])
    wall_p50, wall_p90 = np.percentile(np.asarray(run.lat) * 1e3, [50, 90])
    return {
        "metrics": {
            "latency_p50_ms": float(p50),
            "latency_p90_ms": float(p90),
            "throughput_per_s": len(run.lat) / float(run.scaled(run.step).sum()),
            "exponent_max_err": max(errors),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "wall": {
            "latency_p50_ms": float(wall_p50),
            "latency_p90_ms": float(wall_p90),
            "throughput_per_s": len(run.lat) / sum(run.step),
        },
        "samples": len(run.lat),
        "timed_s": elapsed,
        "latencies_ms": [1e3 * x for x in run.lat],
        "speed_scales": run.scale,
        "exponent_errors": errors,
        "digest": corpus.digest(run.answers[:fixed]),
        "digest_covers": fixed,
    }


def traced(tally, ctx, speed, args):
    ref, _ = _blocks_for(tally, ctx, speed, args.workload, args.seed, args.seconds / 2.0, 1)
    specs = ref.specs
    tr = tracing.Tracer()
    run, roots = Pass(), []
    tr.install()
    try:
        with tr.span("bench.setup") as setup_idx:
            ctx = corpus.build_context(args.workload)
        before = speed.probe()
        for a in specs:
            inputs = corpus.prepare(ctx, a)
            t0 = time.perf_counter()
            with tr.span("bench.analysis") as idx:
                answer = _answer(ctx, a, inputs)
            dt = time.perf_counter() - t0
            after = speed.probe()
            run.add(a, answer, dt, dt, speed.scale(before, after))
            before = after
            roots.append(idx)
    finally:
        tr.restore()
    answers = run.answers
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    tr.save(out_dir / f"spans-{args.workload}-seed{args.seed}.npz")

    mismatched = [i for i, (x, y) in enumerate(zip(answers, ref.answers)) if x != y]
    metrics, count_misses = layer_metrics(tr, ctx, specs, answers, roots, setup_idx)
    # both passes at reference host speed, library time only
    thr_ref = len(ref.lat) / float(ref.scaled(ref.lat).sum())
    thr_traced = len(run.lat) / float(run.scaled(run.lat).sum())
    metrics["bench.trace_overhead_pct"] = 100.0 * (thr_ref - thr_traced) / thr_ref
    metrics["bench.call_count_mismatches"] = float(len(count_misses))
    return {
        "metrics": metrics,
        "samples": len(specs),
        "answers_identical": not mismatched,
        "answer_mismatches": [specs[i].label() for i in mismatched],
        "count_mismatches": count_misses,
        "throughput_untraced": thr_ref,
        "throughput_traced": thr_traced,
    }


def layer_metrics(tr, ctx, specs, answers, roots, setup_idx):
    """Per-analysis means of each span's calls, self time and work."""
    name, start, end, _, self_s = tr.arrays()
    work = np.asarray(tr.work)
    ids = {n: i for i, n in enumerate(tr.names)}
    inside = np.zeros(name.size, dtype=bool)
    count_misses = []
    for a, answer, idx in zip(specs, answers, roots):
        stop = int(np.searchsorted(start, end[idx], side="left"))
        inside[idx + 1:stop] = True
        seen = np.bincount(name[idx + 1:stop], minlength=len(tr.names))
        got = {n: int(seen[i]) for n, i in ids.items()}
        got["spectral.lp_norm"] = sum(v for n, v in got.items() if n.startswith("spectral.lp_norm."))
        for n, want in corpus.expected_calls(ctx, a, answer).items():
            if got.get(n, 0) != want:
                count_misses.append(f"{a.label()}: {n} called {got.get(n, 0)} times, expected {want}")
    n_an = len(roots)

    def select(span, where):
        return where & (name == ids[span]) if span in ids else np.zeros(name.size, dtype=bool)

    setup_stop = int(np.searchsorted(start, end[setup_idx], side="left"))
    in_setup = np.zeros(name.size, dtype=bool)
    in_setup[setup_idx + 1:setup_stop] = True
    metrics = {}
    for metric, *_ in spec.PER_LAYER:
        if metric.startswith("bench."):
            continue
        if metric == "nets.eval_distinct_ratio":
            sel = select("nets.NetSpec.call", inside)
            metrics[metric] = float(work[sel].sum() / sel.sum()) if sel.any() else 1.0
            continue
        span, stat = metric.rsplit(".", 1)
        per = 1.0
        if span == "signals.generate":
            sel = select(span, in_setup)
        else:
            sel = select(span, inside)
            per = n_an
        if stat == "calls":
            value = sel.sum()
        elif stat == "self_ms":
            value = 1e3 * self_s[sel].sum()
        elif stat == "computed_bytes":
            value = 16.0 * work[sel].sum()  # complex128 samples synthesized
        else:
            value = work[sel].sum()
        metrics[metric] = float(value) / per
    return metrics, count_misses


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--role", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() of the spawn")
    parser.add_argument("--out", required=True, help="directory for the span file")
    args = parser.parse_args(argv)

    _check_library_source()
    tally = Tally()
    ctx = corpus.build_context(args.workload)
    for a in corpus.warmup_analyses(args.workload, args.seed):
        tally.attempt(ctx, a)
    setup_wall = time.monotonic() - args.spawned_at
    speed = HostSpeed()
    probes = [speed.probe() for _ in range(SETUP_PROBES)]
    result = {
        "setup_s": setup_wall * REF_PROBE_S / statistics.median(probes),
        "setup_wall_s": setup_wall,
        "mix": corpus.mix(args.workload),
    }
    if args.role == "run":
        result.update(timed(tally, ctx, speed, args))
    elif args.role == "trace":
        result.update(traced(tally, ctx, speed, args))
    result.update(attempted=tally.attempted, failed=len(tally.failures), failures=tally.failures)
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
