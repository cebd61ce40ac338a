"""Fast self-test of the benchmark harness on the tiny ``smoke`` workload.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_harness.py
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SEED = 5


def _bench(out_dir: Path, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            str(cwd / "perfbench" / "run.py"),
            "--workload", "smoke",
            "--seed", str(SEED),
            "--seconds", "0",
            "--trace", str(trace),
            "--out-dir", str(out_dir),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("bench")


@pytest.fixture(scope="module")
def untraced(out_dir) -> dict:
    return _result(_bench(out_dir, 0))


@pytest.fixture(scope="module")
def traced(out_dir, untraced) -> tuple:
    proc = _bench(out_dir, 1)
    return _result(proc), proc.stderr


def _check_shape(result: dict, specs) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        name: unit for name, unit, _ in specs
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_metric_specs_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, specs in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == list(specs)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_untraced_run_prints_every_end_to_end_metric(untraced):
    _check_shape(untraced, metrics.END_TO_END)
    assert all(m["value"] > 0 for m in untraced["metrics"].values())


def test_traced_run_prints_every_per_layer_metric(traced, out_dir):
    result, stderr = traced
    _check_shape(result, metrics.PER_LAYER)
    assert "absent" not in stderr
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert values["unproved_frac"] == 0
    assert values["certify.exact_identity_checks.calls"] == 2
    assert values["trace.spans"] > values["arith.eval_scaled.calls"] > 0
    lines = (out_dir / f"spans-smoke-s{SEED}.jsonl").read_text().splitlines()
    assert len(lines) == values["trace.spans"] + 1
    run_id, name, start, end, parent = json.loads(lines[1])
    assert name == spans.ROOT and parent == -1 and end > start


def test_layer_self_times_add_up_to_traced_wall(traced):
    values = {k: m["value"] for k, m in traced[0]["metrics"].items()}
    layers = sum(values[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layers == pytest.approx(values["trace.wall_s"], rel=0.01)


def test_gate_rejects_tampered_family_hash(out_dir, untraced):
    report = json.loads((out_dir / "report-smoke.json").read_text())
    assert workloads.gate(report, 0) == []
    tampered_table = {**workloads.FAMILY_HASHES, 2: "0" * 64}
    assert any("n=2" in f for f in workloads.gate(report, 0, tampered_table))
    report["per_n"][0]["family"]["hash"] = "0" * 64
    assert any("n=2" in f for f in workloads.gate(report, 0))


def test_gate_rejects_unproved_reports(out_dir, untraced):
    report = json.loads((out_dir / "report-smoke.json").read_text())
    assert workloads.gate(report, 1) == ["exit code 1"]
    summary = report["summary"]
    summary.update(proved=summary["proved"] - 1, inconclusive=1, verdict="inconclusive")
    failures = workloads.gate(report, 0)
    assert "verdict inconclusive" in failures
    assert any(f.startswith("unproved_frac") for f in failures)


def test_changed_report_digest_fails_the_run(tmp_path):
    _result(_bench(tmp_path, 0))
    digests = tmp_path / "digests.json"
    known = json.loads(digests.read_text())
    known[f"smoke:{SEED}"] = "0" * 64
    digests.write_text(json.dumps(known))
    result = _result(_bench(tmp_path, 0))
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.setattr(
        spans, "ARITH_PRIMITIVES", spans.ARITH_PRIMITIVES + (("arith.gone", "Poly.gone"),)
    )
    tracer = spans.Tracer("t")
    tracer.install()
    try:
        assert tracer.absent == ["arith.gone"]
        assert "arith.poly_mul" in tracer.patched
    finally:
        tracer.uninstall()
    from noricert.arith import Poly

    assert not hasattr(Poly.__mul__, "__wrapped__")
    values, absent = metrics.per_layer_values({}, set(), {})
    assert "arith.poly_mul.s" in absent and values["arith.poly_mul.s"] == 0


def test_sampler_takes_its_chunks_out_of_the_measured_time():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        started = time.perf_counter()
        while time.perf_counter() - started < 4 * speed.INTERVAL_S:
            pass
        wall = time.perf_counter() - started
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(sampler.chunks) >= 2
    assert sampler.work_seconds(wall) == pytest.approx(wall - sum(sampler.chunks))
    nominal = speed.NOMINAL_CHUNK_S
    assert speed.rescale(3.0, [nominal, 3 * nominal]) == pytest.approx(1.5)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path / "out", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
