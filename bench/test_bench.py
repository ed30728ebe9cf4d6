"""Tests of the benchmark itself, on its tiny ``--smoke`` inputs.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tracer import Target, TraceError, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *argv],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_workloads_are_defined_here():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


def test_generation_is_deterministic_per_seed(tmp_path):
    for name, w in workloads.WORKLOADS.items():
        first = w.prepare(tmp_path / name, 3, True)
        again = w.prepare(tmp_path / name, 3, True)
        other = w.prepare(tmp_path / name, 4, True)
        assert first.files == again.files
        assert [c.argv for c in first.calls] == [c.argv for c in again.calls]
        assert first.files != other.files


def _run_smoke_calls(prepared) -> None:
    from spreekit.cli import main

    prepared.write()
    for call in prepared.calls:
        assert main(list(call.argv)) == 0
        assert call.check(call.out) == []


def test_checks_catch_wrong_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    update = workloads.WORKLOADS["update-5k"].prepare(Path("u"), 5, True)
    _run_smoke_calls(update)
    call = update.calls[0]
    fitted = call.out / "fitted.csv"
    lines = fitted.read_text().splitlines()
    area, category, count = lines[1].split(",")
    lines[1] = f"{area},{category},{float(count) * 1.001 + 1}"
    fitted.write_text("\n".join(lines) + "\n")
    assert call.check(call.out)

    poverty = workloads.WORKLOADS["poverty-raster"].prepare(Path("p"), 5, True)
    _run_smoke_calls(poverty)
    mpi, aggregate = poverty.calls
    report = json.loads((mpi.out / "mpi.json").read_text())
    report["headcount"] = math.nextafter(report["headcount"], 1.0)
    (mpi.out / "mpi.json").write_text(json.dumps(report))
    assert mpi.check(mpi.out)
    summary = json.loads((aggregate.out / "aggregation.json").read_text())
    summary["unassigned_mass"] += 1.0
    (aggregate.out / "aggregation.json").write_text(json.dumps(summary))
    assert aggregate.check(aggregate.out)


def test_tracer_fails_loudly_on_a_missing_name():
    tracer = Tracer((Target("ipf", "ipf_fit"), Target("ipf", "no_such_function")))
    with pytest.raises(TraceError, match="no longer exists"):
        tracer.install()
    import spreekit.ipf

    assert not hasattr(spreekit.ipf.ipf_fit, "__wrapped__"), "install was not undone"


def test_tracer_restores_every_patched_reference():
    import spreekit.bootstrap
    import spreekit.ipf
    import spreekit.update

    before = (spreekit.ipf.ipf_fit, spreekit.update.ipf_fit, spreekit.bootstrap.ipf_fit)
    tracer = Tracer()
    tracer.install()
    assert spreekit.update.ipf_fit is spreekit.ipf.ipf_fit is not before[0]
    tracer.uninstall()
    assert (spreekit.ipf.ipf_fit, spreekit.update.ipf_fit, spreekit.bootstrap.ipf_fit) == before


def test_traced_run_fails_loudly_on_an_idle_layer(tmp_path, monkeypatch):
    import run

    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", run.SOURCE_DATE_EPOCH)
    workload = workloads.WORKLOADS["validate-shock"]
    prepared = workload.prepare(Path("v"), 2, True)
    prepared.write()
    cli = run.import_spreekit()
    _, codes = run.run_workload(cli, prepared.calls)
    session = run.Session(cli, prepared, codes)
    assert run.measure_traced(session, workload, 0)["ipf.fits"] > 0
    idle = dataclasses.replace(workload, must_count=("mpi.households_scored",))
    with pytest.raises(run.BenchError, match="recorded no work: mpi.households_scored"):
        run.measure_traced(session, idle, 0)
    assert session.failed == 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_host_probe_scales_own_time_and_restores_the_handler():
    from probe import NOMINAL_S, HostProbe

    previous = signal.getsignal(signal.SIGALRM)
    host = HostProbe()
    host.start()
    start = time.perf_counter()
    while time.perf_counter() - start < 0.2:
        pass
    wall = time.perf_counter() - start
    host.stop()
    assert signal.getsignal(signal.SIGALRM) is previous
    samples = list(host.samples)
    assert len(samples) >= 3
    own = wall - sum(samples)
    assert host.normalise(wall) == pytest.approx(own * NOMINAL_S * len(samples) / sum(samples))


def test_host_probe_normalises_a_run_shorter_than_one_period():
    from probe import HostProbe

    host = HostProbe()
    host.start()
    host.stop()
    assert host.samples == []
    assert host.normalise(0.001) > 0
    assert len(host.samples) == 1
