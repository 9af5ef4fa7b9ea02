"""etdr benchmark: one seeded closed-loop workload, checked and measured.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports etdr from its src/
directory; it fails without printing a result when that is missing.
One client drives one op at a time (a closed loop) for S seconds of wall
time, checks every output, and prints human-readable lines, then one
JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 alternates traced
and untraced cycles and reports the per-layer metrics from the traced
ones, plus the tracing overhead. A record of the run (and, traced, its
spans) is written under perfbench/out/. See perfbench/README.md.
"""

import time

T0 = time.perf_counter()  # setup_s counts from here

import argparse  # noqa: E402
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

import host  # the speed kernels do not import etdr

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 3  # this process plus two fresh ones; setup_s is their median

END_TO_END = (
    ("setup_s", "s"),
    ("op_a_ms.p50", "ms"),
    ("op_a_ms.tail", "ms"),
    ("op_b_ms.p50", "ms"),
    ("op_b_ms.tail", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

STRATEGIES = ("random-claim", "single-bit-flip", "best-collide", "exact-best",
              "overlap-guess", "copy-honest-vector")

# Per-layer metrics, medians over traced cycles. A name ending in .calls,
# .busy_ms or .self_ms reads that statistic of the span named by the rest;
# the others name their source and statistic explicitly.
PER_LAYER_SOURCES = {
    "itsmac.mac_verify.failed": ("itsmac.mac_verify.failed", "count", "count"),
    "gf2field.GF2.fixed_mul.table_builds":
        ("gf2field.GF2.fixed_mul.table_builds", "count", "count"),
    "gf2field.GF2.mul.calls": ("gf2field.GF2.mul.calls", "count", "count"),
    "au2hash.VectorHasher.update.calls":
        ("au2hash.VectorHasher.update.calls", "count", "count"),
    "gf2field.reduction_poly.busy_ms": ("gf2field.reduction_poly", "setup_busy", "ms"),
    "frames.wire_bytes": ("frames.wire_bytes", "count", "bytes"),
    "runners.freezes": ("runners.freezes", "count", "count"),
    "sockets.SocketTtpServer.start_ms": ("sockets.SocketTtpServer.start", "busy", "ms"),
    "sockets.SocketTtpServer.close_ms": ("sockets.SocketTtpServer.close", "busy", "ms"),
    "sockets.run_party_session.wait_ms": ("sockets.run_party_session", "self", "ms"),
    "traffic.et_bits": ("traffic.et_bits", "count", "bits"),
    "traffic.dr_bits": ("traffic.dr_bits", "count", "bits"),
}
PER_LAYER_NAMES = (
    "itsmac.mac_tag.calls", "itsmac.mac_tag.busy_ms",
    "itsmac.mac_verify.calls", "itsmac.mac_verify.busy_ms", "itsmac.mac_verify.failed",
    "gf2field.GF2.fixed_mul.calls", "gf2field.GF2.fixed_mul.busy_ms",
    "gf2field.GF2.fixed_mul.table_builds", "gf2field.GF2.mul.calls",
    "gf2field.reduction_poly.busy_ms",
    "au2hash.hash_vector.calls", "au2hash.hash_vector.busy_ms",
    "au2hash.chunk_blocks.busy_ms", "au2hash.poly_hash.calls", "au2hash.poly_hash.busy_ms",
    "au2hash.VectorHasher.update.calls",
    "core.hash_vector_for.calls", "core.hash_vector_for.busy_ms",
    "core.match_count.calls", "core.match_count.busy_ms",
    "core.et_compare.busy_ms", "core.dr_verdict.busy_ms",
    "keys.generate_keys.busy_ms", "keys.save_keys.busy_ms", "keys.load_keys.busy_ms",
    "session.SessionStore.save.calls", "session.SessionStore.save.busy_ms",
    "frames.encode_frame.calls", "frames.encode_frame.busy_ms",
    "frames.decode_frame.calls", "frames.decode_frame.busy_ms",
    "frames.FrameReader.feed.calls", "frames.FrameReader.feed.busy_ms", "frames.wire_bytes",
    "runners.PartyRunner.et_submit_frame.self_ms", "runners.PartyRunner.dr_claim_frame.self_ms",
    "runners.PartyRunner.on_frame.self_ms", "runners.TtpRunner.on_frame.self_ms",
    "runners.freezes",
    "channel.MemoryNetwork.deliver_all.self_ms",
    "sockets.SocketTtpServer.start_ms", "sockets.SocketTtpServer.close_ms",
    "sockets.run_party_session.busy_ms", "sockets.run_party_session.wait_ms",
    "traffic.et_bits", "traffic.dr_bits",
    "bounds.verify_security.busy_ms", "bounds.attack_rows.busy_ms",
    "bounds.match_tail.calls", "bounds.match_tail.busy_ms",
    "adversary.play_game.busy_ms", "adversary.play_round.calls",
    "adversary.play_round.busy_ms", "adversary.draw_world.busy_ms",
    *(f"adversary.Strategy.play.{name}.busy_ms" for name in STRATEGIES),
    "adversary.exact_game_value.busy_ms",
)
RUN_METRICS = (  # per-layer metrics about the run itself
    ("trace.overhead_ms", "ms"),
    ("trace.absent", "count"),
    ("host.calib_before_ms", "ms"),
    ("host.calib_after_ms", "ms"),
    ("host.steal_ticks", "count"),
)
_SUFFIX_STAT = {".calls": ("calls", "count"), ".busy_ms": ("busy", "ms"),
                ".self_ms": ("self", "ms")}


def layer_source(name: str) -> tuple[str, str, str]:
    """(source name, statistic, unit) of a per-layer metric."""
    if name in PER_LAYER_SOURCES:
        return PER_LAYER_SOURCES[name]
    for suffix, (stat, unit) in _SUFFIX_STAT.items():
        if name.endswith(suffix):
            return name[: -len(suffix)], stat, unit
    raise KeyError(name)


def per_layer_units() -> list[tuple[str, str]]:
    return [(n, layer_source(n)[2]) for n in PER_LAYER_NAMES] + list(RUN_METRICS)


# --------------------------------------------------------------- running


def import_program():
    """Import etdr from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import etdr
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import etdr from {src}: {exc}")
    if src.resolve() not in Path(etdr.__file__).resolve().parents:
        sys.exit(f"perfbench: etdr came from {etdr.__file__}, not {src}")
    return etdr


def setup_probe(workload: str, seed: int) -> float:
    """setup_s of a fresh process doing the same set-up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "0", "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class Run:
    def __init__(self, args):
        import tracing
        import workloads

        self.args = args
        self.workload = workloads.make(args.workload, args.seed, OUT / f"work-{os.getpid()}")
        self.tracer = tracing.Tracer() if args.trace else None
        self.attempted = 0
        self.failures: list[str] = []
        kinds = [k for k in self.workload.labels if k != "rate"]
        self.times = {k: [] for k in kinds}  # at reference host speed
        self.raw_times = {k: [] for k in kinds}  # as measured
        self.cycle_busy: list[float] = []  # untraced cycles
        self.traced_busy: list[float] = []
        self.layer_rows: list[dict] = []
        self.setup_spans = []

    def check(self, label: str, op) -> None:
        self.attempted += 1
        try:
            bad = op.check()
        except Exception:
            bad = [traceback.format_exc()]
        if bad:
            self.failures.append(f"{label}: " + "; ".join(bad))

    def prepare(self, kernel_at_start: float) -> float:
        tracer = self.tracer
        if tracer:
            tracer.install()
            tracer.op = "setup"
        try:
            warm = self.workload.prepare()
        finally:
            if tracer:
                tracer.op = None
                self.setup_spans, _ = tracer.take()
                tracer.uninstall()
        setup_s = time.perf_counter() - T0
        setup_s *= host.scale(kernel_at_start, host.kernel_ms())
        for op in warm:
            self.check("warm-up", op)
        return setup_s

    def measure(self, seconds: float) -> None:
        """Closed loop for `seconds` of wall time, whole cycles only. Each
        op's times are scaled to reference host speed by the speed kernel
        run on either side of it; checks run after that, untraced."""
        tracer = self.tracer
        min_cycles = 2 if tracer else 1  # traced runs need one of each
        deadline = time.perf_counter() + seconds
        kernel_of = self.workload.kernels  # op kind -> speed kernel
        kernels = set(kernel_of.values())
        before = {k: host.kernel_ms(k) for k in kernels}
        i = 0
        while i < min_cycles or time.perf_counter() < deadline:
            traced = tracer is not None and i % 2 == 1
            if traced:
                tracer.install()
            ops = []
            cycle = self.workload.cycle()
            try:
                while True:
                    if traced:
                        tracer.op = i
                    try:
                        op = next(cycle)
                    except StopIteration:
                        break
                    finally:
                        if traced:
                            tracer.op = None
                    after = {k: host.kernel_ms(k) for k in kernels}
                    kernel = kernel_of[op.kind]
                    op.scale = host.scale(before[kernel], after[kernel])
                    before = after
                    ops.append(op)
                    self.check(f"cycle {i} op {op.kind}", op)
            except Exception:
                self.attempted += 1
                self.failures.append(f"cycle {i}: {traceback.format_exc()}")
                ops = None
            finally:
                if traced:
                    spans, counts = tracer.take()
                    tracer.uninstall()
            i += 1
            if ops is None:
                continue
            for op in ops:
                self.times[op.kind].append(op.seconds * op.scale)
                self.raw_times[op.kind].append(op.seconds)
                if op.deal is not None:
                    self.times["c"].append(op.deal * op.scale)
                    self.raw_times["c"].append(op.deal)
            rated = [op for op in ops if op.kind in self.workload.rate_kinds]
            busy = sum(op.busy * op.scale for op in rated)
            self.rated_per_cycle = len(rated)
            if traced:
                for op in ops:
                    for name, n in op.counts.items():
                        counts[name] = counts.get(name, 0) + n
                self.layer_rows.append(self.layer_row(spans, counts))
                self.traced_busy.append(busy)
            else:
                self.cycle_busy.append(busy)

    def layer_row(self, spans, counts) -> dict:
        import tracing

        agg = tracing.aggregate(spans)
        row = {}
        for name in PER_LAYER_NAMES:
            source, stat, _ = layer_source(name)
            if stat == "count":
                row[name] = counts.get(source, 0)
            elif stat in ("calls", "busy", "self"):
                value = agg.get(source, {}).get(stat, 0)
                row[name] = value if stat == "calls" else value / 1e6
        return row

    def absent_metrics(self) -> list[str]:
        gone = self.tracer.absent
        out = []
        for name in PER_LAYER_NAMES:
            source = layer_source(name)[0]
            if any(source == g or source.startswith(g + ".") for g in gone):
                out.append(name)
        return out


def end_to_end(run, setup_samples) -> tuple[dict, list[str]]:
    """The end-to-end metrics, plus readable lines under the workload's names."""
    import stats

    wl, times = run.workload, run.times
    ms = {k: [s * 1e3 for s in v] for k, v in times.items()}
    metrics = {"setup_s": stats.median(setup_samples)}
    lines = [f"setup_s = {metrics['setup_s']:.4f} s (median of {setup_samples})"]
    pct = round(100 * wl.tail_quantile)
    for kind in ms:
        label = wl.labels[kind]
        p50 = stats.median(ms[kind])
        raw = stats.median(run.raw_times[kind]) * 1e3
        gated = kind in "ab"
        name = f"op_{kind}_ms.p50" if gated else "printed only"
        lines.append(f"{label}.p50 = {p50:.4f} ms ({name}, n={len(ms[kind])}; "
                     f"as measured {raw:.4f} ms)")
        if not gated:
            continue
        value = stats.tail(ms[kind], wl.tail_quantile)
        above = sum(v > value for v in ms[kind])
        few = pct > 50 and above < stats.TAIL_BEYOND
        metrics[f"op_{kind}_ms.p50"] = p50
        metrics[f"op_{kind}_ms.tail"] = value
        lines.append(f"{label}.p{pct} = {value:.4f} ms (op_{kind}_ms.tail, "
                     f"n={len(ms[kind])}, {above} above"
                     f"{'; too few to read a tail' if few else ''})")
    metrics["ops_per_s"] = stats.rate(run.rated_per_cycle, run.cycle_busy)
    lines.append(f"{wl.labels['rate']} = {metrics['ops_per_s']:.4f} 1/s (ops_per_s, "
                 f"from the median of {len(run.cycle_busy)} cycles)")
    for label, kind, work in wl.work_rates:
        lines.append(f"{label} = {stats.rate(work, times[kind]):.1f} 1/s")
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lines.append(f"peak_rss_mb = {metrics['peak_rss_mb']:.1f} MB")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}, lines


def per_layer(run, speed) -> tuple[dict, list[str]]:
    import stats
    import tracing

    rows = run.layer_rows
    setup = tracing.aggregate(run.setup_spans)
    values = {}
    for name in PER_LAYER_NAMES:
        source, stat, _ = layer_source(name)
        if stat == "setup_busy":
            values[name] = setup.get(source, {}).get("busy", 0) / 1e6
        else:  # counts stay whole: the lower median is an observed value
            pick = statistics.median_low if stat in ("calls", "count") else stats.median
            values[name] = pick([row[name] for row in rows])
    overhead = (stats.median(run.traced_busy) - stats.median(run.cycle_busy)) * 1e3
    absent = run.absent_metrics()
    values.update({
        "trace.overhead_ms": overhead,
        "trace.absent": len(absent),
        "host.calib_before_ms": speed["calib_before_ms"],
        "host.calib_after_ms": speed["calib_after_ms"],
        "host.steal_ticks": speed["steal_ticks"],
    })
    units = dict(per_layer_units())
    lines = [f"{name} = {values[name]} {units[name]}" for name in units]
    lines.append(f"traced cycles: {len(rows)}, untraced: {len(run.cycle_busy)}; "
                 f"tracing overhead {overhead:.3f} ms per cycle over "
                 f"{stats.median(run.cycle_busy) * 1e3:.3f} ms")
    if absent:
        lines.append("absent (the wrapped function no longer exists): " + ", ".join(absent))
    return {name: {"value": values[name], "unit": units[name]} for name in units}, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    # Run on one CPU. Under the interpreter lock the program runs one
    # thread at a time anyway, and on two CPUs the TCP carrier's thread
    # wake-ups could land on a CPU the hypervisor had descheduled.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    kernel_at_start = host.kernel_ms()
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; have {workloads.WORKLOADS}")
    OUT.mkdir(exist_ok=True)
    run = Run(args)
    speed = {}
    setup_samples = []
    try:
        try:
            setup_samples.append(run.prepare(kernel_at_start))
        except Exception:
            traceback.print_exc()
            return 1
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_samples[0]}))
            return 0
        speed["calib_before_ms"] = host.calibration_ms()
        steal_before = host.steal_ticks()
        run.measure(args.seconds)
        speed["calib_after_ms"] = host.calibration_ms()
        speed["steal_ticks"] = host.steal_ticks() - steal_before
        count, bad = run.workload.final_checks()
        run.attempted += count
        if bad:
            run.failures.append("final: " + "; ".join(bad))
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                run.attempted += 1
                try:
                    setup_samples.append(setup_probe(args.workload, args.seed))
                except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
                    run.failures.append(f"set-up probe: {exc}")
    finally:
        run.workload.close()

    if not all(run.times.values()) or not run.cycle_busy:
        for failure in run.failures:
            print(failure, file=sys.stderr)
        print("perfbench: no op completed", file=sys.stderr)
        return 1
    if args.trace:
        metrics, lines = per_layer(run, speed)
    else:
        metrics, lines = end_to_end(run, setup_samples)
    failed = len(run.failures)
    lines.append(f"ops_failed_share = {failed / run.attempted} ({failed} of {run.attempted})")
    lines.append(f"host: speed kernel x100 {speed['calib_before_ms']:.1f} ms before the window, "
                 f"{speed['calib_after_ms']:.1f} ms after; steal ticks {speed['steal_ticks']}")
    for failure in run.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for line in lines:
        print("  " + line)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    import numpy

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metrics": metrics, "lines": lines, "host": speed,
        "setup_samples": setup_samples, "failures": run.failures,
        "env": {"python": platform.python_version(), "numpy": numpy.__version__,
                "machine": platform.machine(), "cpus": os.cpu_count()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        run.tracer.dump(OUT / f"spans-{stem}.jsonl")
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)  # internal: report set-up time only
    return parser.parse_args(argv)


if __name__ == "__main__":
    sys.exit(main())
