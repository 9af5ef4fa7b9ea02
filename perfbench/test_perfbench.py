"""Tests of the benchmark itself: its arithmetic, its reference, its
tracing, and a short smoke run of every workload.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402


# ------------------------------------------------------------ arithmetic


def test_tail_is_the_nearest_rank_percentile_at_the_pinned_quantile():
    assert stats.tail(list(range(1, 1001)), 0.9) == 900
    assert stats.tail(list(range(1, 51)), 0.9) == 45
    assert stats.tail([5, 1, 4, 2, 3, 6], 0.5) == 3
    assert stats.tail([7.0], 0.9) == 7.0


@pytest.mark.parametrize("n", [100, 101, 250, 1000, 4321])
def test_tail_at_p90_keeps_ten_samples_beyond_from_100_samples(n):
    values = random.Random(n).sample(range(10 * n), n)
    value = stats.tail(values, 0.9)
    assert sum(v > value for v in values) >= stats.TAIL_BEYOND


def test_tail_does_not_move_with_the_sample_count():
    # the same distribution sampled 2x as often reads the same percentile
    few = [float(i) for i in range(1, 101)]
    many = [v for v in few for _ in (0, 1)]
    assert stats.tail(few, 0.9) == stats.tail(many, 0.9) == 90.0


def test_self_time_subtracts_overlapping_children_once():
    # children cover 10..60 together (overlapping on 30..40) and 90..100
    # inside the parent; the part of the last child past 100 is clipped
    assert stats.self_time(0, 100, [(10, 40), (30, 60), (90, 120)]) == 40
    assert stats.self_time(0, 100, [(20, 30), (20, 30)]) == 90
    assert stats.self_time(0, 100, []) == 100
    assert stats.union_length([(0, 5), (1, 2), (4, 9), (20, 21)]) == 10


def test_rates_come_from_the_median_op_time():
    # the mean op time here is 34 s; the median is 1 s
    assert stats.rate(6000, [1.0, 1.0, 100.0]) == 6000.0
    assert stats.rate(2, [0.5, 0.25, 4.0, 0.5]) == 4.0


def test_spread_is_interquartile_distance_over_median():
    values = [10.0] * 5 + [11.0] * 5
    q1, _, q3 = __import__("statistics").quantiles(values, n=4)
    assert stats.spread(values) == (q3 - q1) / 10.5


def test_aggregate_sums_busy_and_self_time_per_name():
    spans = [  # (id, parent, name, start, end, op)
        (1, 0, "outer", 0, 100, 1),
        (2, 1, "inner", 10, 40, 1),
        (3, 1, "inner", 30, 60, 1),
        (4, 3, "leaf", 35, 45, 1),
    ]
    agg = tracing.aggregate(spans)
    assert agg["outer"] == {"calls": 1, "busy": 100, "self": 50}
    assert agg["inner"] == {"calls": 2, "busy": 60, "self": 50}
    assert agg["leaf"] == {"calls": 1, "busy": 10, "self": 10}


# ------------------------------------------------------------------ names


def test_benchmark_json_matches_the_metrics_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_units()
    import workloads

    gated = [w["name"] for w in spec["workloads"]]
    assert gated == list(workloads.WORKLOADS)
    assert run.STRATEGIES == workloads.BATTERY
    setup_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup_bound for m in spec["end_to_end"])


def test_importing_the_runner_leaves_the_process_alone():
    # the test process imported run above; it must still use every CPU
    # it was given, and run.py must not have timed anything at import
    import os

    if hasattr(os, "sched_getaffinity"):
        proc = subprocess.run(
            [sys.executable, "-c", "import os, sys; sys.path.insert(0, 'perfbench'); "
             "before = os.sched_getaffinity(0); import run; "
             "assert os.sched_getaffinity(0) == before"],
            cwd=ROOT, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
    assert not hasattr(run, "KERNEL_AT_START")


# ---------------------------------------------------------- known answers


def test_pinned_answers_accept_the_program_and_catch_a_lowered_bound():
    import dataclasses
    from fractions import Fraction

    import workloads
    from etdr import adversary, bounds, params

    epsilon = Fraction(1, 2**40)
    report = bounds.verify_security(256, epsilon)
    assert workloads.check_security(report, epsilon) == []
    lowered = dataclasses.replace(report, attack_bound=report.attack_bound / 2)
    assert workloads.check_security(lowered, epsilon)
    for config, bound in workloads.CHEAT_BOUND.items():
        assert adversary.proven_cheat_bound(params.experimental_params(*config)) == bound


@pytest.mark.parametrize("wins,trials", [(0, 1000), (250, 1000), (300, 1000), (999, 1000)])
def test_wilson_low_matches_the_programs_interval(wins, trials):
    import workloads
    from etdr import adversary

    assert workloads.wilson_low(wins, trials) == pytest.approx(
        adversary.wilson_interval(wins, trials)[0], abs=1e-12)


# -------------------------------------------------------------- reference


def test_reference_matches_the_program_on_random_inputs():
    from etdr import au2hash, gf2field

    rng = random.Random(7)
    for degree in (8, 12, 64, 72, 280):
        assert gf2field.reduction_poly(degree) == reference.REDUCTION_POLY[degree]
        for _ in range(5):
            a, b = rng.getrandbits(degree), rng.getrandbits(degree)
            assert reference.gf_mul(a, b, degree) == gf2field.gf_mul(a, b, degree)
    for degree, bits in ((8, 256), (12, 300), (64, 700)):
        keys = [rng.getrandbits(degree) for _ in range(4)]
        value = rng.getrandbits(bits)
        assert reference.digest_vector(keys, value, bits, degree) == [
            au2hash.poly_hash(k, value, bits, degree) for k in keys]


def test_reference_frame_tag_matches_a_signed_frame():
    from fractions import Fraction

    from etdr.bits import Message
    from etdr.etproto.keys import ROLE_ALICE, generate_keys
    from etdr.params import derive_params
    from etdr.transport.channel import run_session

    params = derive_params(256, Fraction(1, 16))
    secret = generate_keys(params, seed=3)
    data = Message(12345, 256)
    result = run_session(secret, data, data)
    raw = result.transcript[0][2]
    mac = secret.alice.mac
    assert reference.frame_tag(raw, ROLE_ALICE, mac.et_hash_key, mac.et_submit_pad,
                               params.tag_bits) == reference.carried_tag(raw)
    payload = raw[reference.FRAME_HEADER_BYTES:][: params.digest_vector_bits // 8]
    assert reference.decrypt_submission(
        payload, secret.alice.otp_bits, params.subkey_count, params.subkey_bits
    ) == reference.digest_vector(secret.alice.subkeys, data.value, 256, params.subkey_bits)


# ---------------------------------------------------------------- tracing


def test_tracer_restores_originals_and_records_missing_targets(monkeypatch):
    import etdr.au2hash as au2hash
    import etdr.etproto.core as core
    import etdr.itsmac as itsmac

    au2hash.hash_vector([1, 2], 5, 16, 8)  # build the field before tracing
    originals = (au2hash.hash_vector, core.hash_vector, itsmac.poly_hash)
    monkeypatch.setattr(tracing, "SPAN_TARGETS", tracing.SPAN_TARGETS + (
        ("etdr.au2hash", "RetiredHasher.update", None, None, None),
        ("etdr.gf2field", "retired_mul", "gf2field.retired_mul", None, None),
    ))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert core.hash_vector is au2hash.hash_vector is not originals[0]
        tracer.op = 1
        au2hash.hash_vector([1, 2], 5, 16, 8)
        tracer.op = None
        spans, counts = tracer.take()
    finally:
        tracer.uninstall()
    assert (au2hash.hash_vector, core.hash_vector, itsmac.poly_hash) == originals
    assert set(tracer.absent) == {"au2hash.RetiredHasher.update.calls",
                                  "gf2field.retired_mul"}
    assert [s[2] for s in spans] == ["au2hash.chunk_blocks", "au2hash.hash_vector"]
    assert counts["au2hash.VectorHasher.update.calls"] == 2


# ------------------------------------------------------------------ smoke


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload", ["corner-memory", "bulk-memory", "deploy", "analysis"])
def test_smoke_traced_run_of_every_workload(workload):
    proc = _run("--workload", workload, "--seed", "11", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert list(result["metrics"]) == [name for name, _ in run.per_layer_units()]
    assert result["metrics"]["trace.absent"]["value"] == 0
    assert result["metrics"]["runners.freezes"]["value"] == 0


def test_smoke_untraced_run_reports_every_end_to_end_metric():
    proc = _run("--workload", "corner-memory", "--seed", "12", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "corner-memory", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
