"""spreekit benchmark: CLI workloads timed end to end, plus a traced run.

Run from the repository root::

    python3 bench/run.py --workload bootstrap-2k --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all          # every workload, both modes

One run imports spreekit from ``src/``, then sets up ``SETUP_REPEATS``
times (generate the workload's inputs from ``--seed`` under
``.bench_work/``, one warm-up run), then repeats the workload (its CLI
calls through ``spreekit.cli.main``, one after another, single-threaded)
for ``--seconds`` seconds.  Every call's outputs are checked; later runs
must reproduce the first warm-up run's output digests byte for byte
(``SOURCE_DATE_EPOCH`` is pinned).

On a shared host the speed of the same code drifts by a third and more,
so the gated times are normalised to the host's speed, sampled while they
are timed by a fixed probe that does not use spreekit (``bench/probe.py``):
``setup_s`` and ``norm_wall_s`` are times at the host's nominal speed.  The
raw times are printed beside them.

``--trace 0`` reports the end-to-end metrics, measured without tracing.
The inputs are generated in a separate process, so the peak RSS read
after the warm-up run is that of a fresh process running the workload
once.  ``--trace 1`` alternates untraced and traced runs and reports the
per-layer metrics from the traced ones (see ``bench/README.md``).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = Path(".bench_work")
MIN_RUNS = 2
SETUP_REPEATS = 3
GENERATE_TIMEOUT_S = 120
CALLS_FILE = "calls.json"
SOURCE_DATE_EPOCH = "1700000000"

END_TO_END = {
    "setup_s": "s",
    "norm_wall_s": "s",
    "norm_work_per_s": "units/s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "io.load_s": "s",
    "io.rows_read": "count",
    "io.us_per_row": "us",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "composition.objects": "count",
    "composition.validate_s": "s",
    "margins.shares_s": "s",
    "margins.distribute_s": "s",
    "margins.reconcile_s": "s",
    "margins.calls": "count",
    "ipf.fits": "count",
    "ipf.fit_s": "s",
    "ipf.sweeps": "count",
    "ipf.cell_sweeps": "count",
    "ipf.ns_per_cell_sweep": "ns",
    "update.calls": "count",
    "update.self_s": "s",
    "bootstrap.self_s": "s",
    "bootstrap.design_s": "s",
    "bootstrap.col_resample_s": "s",
    "bootstrap.aux_resample_s": "s",
    "bootstrap.replicates_completed": "count",
    "bootstrap.replicates_dropped": "count",
    "simulation.census_redraw_s": "s",
    "simulation.census_redraws": "count",
    "simulation.col_resample_s": "s",
    "simulation.self_s": "s",
    "simulation.updates_failed": "count",
    "scenario.build_s": "s",
    "rng.streams": "count",
    "mpi.compute_s": "s",
    "mpi.tabulate_s": "s",
    "mpi.households_scored": "count",
    "mpi.us_per_household": "us",
    "geo.aggregate_s": "s",
    "geo.ns_per_pixel_area": "ns",
    "trace.overhead_s": "s",
}

# Per-layer metrics that must repeat exactly from one traced run to the next.
EXACT_COUNTS = tuple(k for k, unit in PER_LAYER.items() if unit in ("count", "bytes"))


class BenchError(RuntimeError):
    pass


def import_spreekit():
    """Import ``spreekit.cli`` from this checkout's ``src/``, nowhere else."""
    src = ROOT / "src"
    if not (src / "spreekit" / "__init__.py").is_file():
        raise BenchError(f"no spreekit sources under {src}")
    sys.path.insert(0, str(src))
    import spreekit.cli  # noqa: F401  (the module is looked up per call)

    module = sys.modules["spreekit"]
    if Path(module.__file__).resolve().parent != (src / "spreekit").resolve():
        raise BenchError(f"imported spreekit from {module.__file__}, not from {src}")
    return sys.modules["spreekit.cli"]


def digest_outputs(calls) -> dict[str, str]:
    """SHA-256 of every file each call wrote, keyed ``call/relative path``."""
    digests = {}
    for call in calls:
        for path in sorted(p for p in call.out.rglob("*") if p.is_file()):
            key = f"{call.name}/{path.relative_to(call.out).as_posix()}"
            digests[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def combined_digest(digests: dict[str, str]) -> str:
    lines = "".join(f"{k} {v}\n" for k, v in sorted(digests.items()))
    return hashlib.sha256(lines.encode()).hexdigest()


def bytes_written(calls) -> int:
    return sum(p.stat().st_size for c in calls for p in c.out.rglob("*") if p.is_file())


def run_workload(cli, calls, host=None) -> tuple[float, list[int]]:
    """One workload run: every CLI call in order, sampled by the probe
    ``host`` if given.  Returns (wall s, exit codes)."""
    for call in calls:
        shutil.rmtree(call.out, ignore_errors=True)
    gc.collect()
    codes = []
    if host:
        host.start()
    start = time.perf_counter()
    for call in calls:
        try:
            codes.append(cli.main(list(call.argv)))
        except Exception:  # an uncaught program error fails this call only
            traceback.print_exc()
            codes.append(-1)
    wall = time.perf_counter() - start
    if host:
        host.stop()
    return wall, codes


class Session:
    """Runs of one workload in this process, with the correctness ledger.

    The warm-up run is checked in full and its output digests become the
    reference.  Every later run must exit 0 and match the reference
    digests, which (outputs being identical) means it passes the same
    checks.
    """

    def __init__(self, cli, prepared, warm_up_codes: list[int]):
        self.cli = cli
        self.calls = prepared.calls
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.bad_calls: set[str] = set()
        self.reference = digest_outputs(self.calls)
        for call, code in zip(self.calls, warm_up_codes):
            try:
                found = call.check(call.out) if code == 0 else []
            except Exception as e:  # a missing or malformed output file
                found = [f"check raised {type(e).__name__}: {e}"]
            if found:
                self.bad_calls.add(call.name)
                self.problems += [f"warm-up: {call.name}: {p}" for p in found]
        self.record(warm_up_codes, self.reference, "warm-up")

    def _of(self, digests: dict[str, str], call) -> dict[str, str]:
        return {k: v for k, v in digests.items() if k.startswith(call.name + "/")}

    def record(self, codes: list[int], digests: dict[str, str], where: str) -> None:
        for call, code in zip(self.calls, codes):
            self.attempted += 1
            if code != 0:
                self.failed += 1
                self.problems.append(f"{where}: {call.name} exited with {code}")
            elif call.name in self.bad_calls:
                self.failed += 1
            elif self._of(digests, call) != self._of(self.reference, call):
                self.failed += 1
                self.problems.append(f"{where}: {call.name} outputs differ from the warm-up")

    def run(self, where: str, host=None) -> float:
        wall, codes = run_workload(self.cli, self.calls, host)
        self.record(codes, digest_outputs(self.calls), where)
        return wall


def work_dir_of(args) -> Path:
    return WORK / f"{args.workload}-{args.seed}{'-smoke' if args.smoke else ''}"


def generate_main(args) -> int:
    """Write a workload's input files and its call list (own process)."""
    import workloads

    work_dir = work_dir_of(args)
    prepared = workloads.WORKLOADS[args.workload].prepare(work_dir, args.seed, args.smoke)
    prepared.write()
    spec = [{"name": c.name, "argv": list(c.argv), "out": str(c.out)} for c in prepared.calls]
    (work_dir / CALLS_FILE).write_text(json.dumps(spec), encoding="utf-8")
    return 0


def generate_inputs(args, work_dir: Path) -> list[SimpleNamespace]:
    """Generate in a separate process, so this one's peak RSS is the program's."""
    shutil.rmtree(work_dir, ignore_errors=True)
    argv = [sys.executable, str(BENCH / "run.py"), "--generate", "--workload", args.workload,
            "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=GENERATE_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"input generation failed: {proc.stderr[-2000:]}")
    spec = json.loads((work_dir / CALLS_FILE).read_text(encoding="utf-8"))
    return [SimpleNamespace(name=c["name"], argv=c["argv"], out=Path(c["out"])) for c in spec]


def verify_generation(prepared, calls: list[SimpleNamespace]) -> str:
    """The generator must be deterministic: same files, same calls.  Returns
    the SHA-256 over all input files."""
    mine = [(c.name, list(c.argv), c.out) for c in prepared.calls]
    if mine != [(c.name, c.argv, c.out) for c in calls]:
        raise BenchError("generated call list differs between two generations")
    digest = hashlib.sha256()
    for path, text in sorted(prepared.files.items()):
        data = path.read_bytes()
        if data != text.encode("utf-8"):
            raise BenchError(f"generated input {path} differs between two generations")
        digest.update(f"{path.as_posix()} {hashlib.sha256(data).hexdigest()}\n".encode())
    return digest.hexdigest()


def layer_metrics(summary: dict, counts, n_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced workload run."""

    def self_s(*names: str, context: str | None = None) -> float:
        return sum(
            v[0] for (ctx, name), v in summary.items()
            if name in names and (context is None or ctx == context)
        )

    def calls(*names: str) -> int:
        return sum(v[1] for (_, name), v in summary.items() if name in names)

    def ratio(num: float, den: float, scale: float) -> float:
        return num / den * scale if den else 0.0

    io_loads = sorted({name for _, name in summary if name.startswith("io.load_")})
    objects = tuple(
        f"composition.{c}.__post_init__"
        for c in ("Composition", "MarginVector", "ProbabilityMatrix", "AreaHierarchy")
    )
    margins = tuple(
        f"margins.{f}"
        for f in ("fixed_shares", "dynamic_shares", "hybrid_shares", "select_by_change",
                  "distribute", "reconcile_margins")
    )
    m = {
        "io.load_s": self_s(*io_loads),
        "io.rows_read": counts["io.rows_read"],
        "cli.self_s": self_s("cli.main"),
        "cli.bytes_written": n_bytes,
        "composition.objects": calls(*objects),
        "composition.validate_s": self_s(*objects),
        "margins.shares_s": self_s(*margins[:4]),
        "margins.distribute_s": self_s("margins.distribute"),
        "margins.reconcile_s": self_s("margins.reconcile_margins"),
        "margins.calls": calls(*margins),
        "ipf.fits": calls("ipf.ipf_fit"),
        "ipf.fit_s": self_s("ipf.ipf_fit"),
        "ipf.sweeps": counts["ipf.sweeps"],
        "ipf.cell_sweeps": counts["ipf.cell_sweeps"],
        "update.calls": calls("update.spree_update"),
        "update.self_s": self_s("update.spree_update"),
        "bootstrap.self_s": self_s("bootstrap.bootstrap_mse"),
        "bootstrap.design_s": self_s("bootstrap.SurveyDesign.__post_init__"),
        "bootstrap.col_resample_s": self_s(
            "bootstrap.resample_column_margin", context="bootstrap.bootstrap_mse"
        ),
        "bootstrap.aux_resample_s": self_s("bootstrap.resample_aux_margin"),
        "bootstrap.replicates_completed": counts["bootstrap.replicates_completed"],
        "bootstrap.replicates_dropped": counts["bootstrap.replicates_dropped"],
        "simulation.census_redraw_s": self_s("simulation.replicate_census"),
        "simulation.census_redraws": calls("simulation.replicate_census"),
        "simulation.col_resample_s": self_s(
            "bootstrap.resample_column_margin", context="simulation.run_simulation"
        ),
        "simulation.self_s": self_s("simulation.run_simulation"),
        "simulation.updates_failed": counts["simulation.updates_failed"],
        "scenario.build_s": self_s("scenario.build_scenario"),
        "rng.streams": calls("rng.stream"),
        "mpi.compute_s": self_s("mpi.compute_mpi"),
        "mpi.tabulate_s": self_s("mpi.tabulate_poverty"),
        "mpi.households_scored": counts["mpi.households_scored"],
        "geo.aggregate_s": self_s("geo.aggregate_pixels"),
    }
    m["io.us_per_row"] = ratio(m["io.load_s"], m["io.rows_read"], 1e6)
    m["ipf.ns_per_cell_sweep"] = ratio(m["ipf.fit_s"], m["ipf.cell_sweeps"], 1e9)
    m["mpi.us_per_household"] = ratio(
        m["mpi.compute_s"] + m["mpi.tabulate_s"], m["mpi.households_scored"], 1e6
    )
    m["geo.ns_per_pixel_area"] = ratio(m["geo.aggregate_s"], counts["geo.pixel_areas"], 1e9)
    return m


def window_closed(start: float, seconds: float, *walls: list[float]) -> bool:
    """True once each list holds MIN_RUNS walls and one more round (a run
    for each list) would end past ``seconds`` after ``start``."""
    if any(len(w) < MIN_RUNS for w in walls):
        return False
    next_round = sum(statistics.median(w) for w in walls)
    return time.perf_counter() - start + next_round > seconds


def measure_untraced(session: Session, seconds: float, host) -> tuple[list[float], list[float]]:
    """Runs for ``seconds`` under the host probe.  Returns the runs' wall
    times and their normalised times."""
    walls: list[float] = []
    normalised: list[float] = []
    start = time.perf_counter()
    while not window_closed(start, seconds, walls):
        wall = session.run(f"run {len(walls) + 1}", host)
        walls.append(wall)
        normalised.append(host.normalise(wall))
    return walls, normalised


def measure_traced(session: Session, workload, seconds: float) -> dict[str, float]:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()  # fails loudly on a traced name that no longer exists
    tracer.uninstall()
    plain: list[float] = []
    traced: list[float] = []
    per_run = []
    start = time.perf_counter()
    while not window_closed(start, seconds, plain, traced):
        plain.append(session.run(f"untraced run {len(plain) + 1}"))
        tracer.reset()
        tracer.install()
        try:
            traced.append(session.run(f"traced run {len(traced) + 1}"))
        finally:
            tracer.uninstall()
        summary, problems = tracer.summary()
        if problems:
            raise BenchError("trace is inconsistent: " + "; ".join(problems[:5]))
        per_run.append(layer_metrics(summary, tracer.counts, bytes_written(session.calls)))

    for key in EXACT_COUNTS:
        if key in per_run[0] and len({r[key] for r in per_run}) != 1:
            raise BenchError(f"count {key} differs between traced runs: {[r[key] for r in per_run]}")
    idle = [k for k in workload.must_count if per_run[0][k] == 0]
    if idle:
        raise BenchError(f"{workload.name}: layers recorded no work: {', '.join(idle)}")

    metrics = {k: statistics.median(r[k] for r in per_run) for k in per_run[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics


def under_probe(host, step, *args):
    """Run ``step(*args)`` sampled by the host probe.  Returns (wall s,
    normalised s, what the step returned)."""
    host.start()
    started = time.perf_counter()
    try:
        result = step(*args)
    finally:
        wall = time.perf_counter() - started
        host.stop()
    return wall, host.normalise(wall), result


def set_up(args, cli, work_dir: Path) -> tuple[list[SimpleNamespace], list[int]]:
    """Generate the inputs and make one warm-up run.  Returns (calls, exit
    codes)."""
    calls = generate_inputs(args, work_dir)
    _, codes = run_workload(cli, calls)
    return calls, codes


def import_all():
    cli = import_spreekit()
    import workloads

    return cli, workloads


def single_workload(args) -> int:
    # Set-up, timed under the host probe like the runs: import once, then
    # generate the inputs and make a warm-up run, SETUP_REPEATS times (once
    # when tracing, which does not report it).
    sys.path.insert(0, str(BENCH))
    from probe import HostProbe

    host = HostProbe()
    import_s, import_norm_s, (cli, workloads) = under_probe(host, import_all)
    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)} or all")
    workload = workloads.WORKLOADS[args.workload]
    work_dir = work_dir_of(args)
    first_s, first_norm_s, (calls, warm_up_codes) = under_probe(
        host, set_up, args, cli, work_dir
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    prepared = workload.prepare(work_dir, args.seed, args.smoke)
    session = Session(cli, prepared, warm_up_codes)
    set_ups, norm_set_ups = [first_s], [first_norm_s]
    for i in range(1, 1 if args.trace else SETUP_REPEATS):
        seconds, norm_s, (calls, codes) = under_probe(host, set_up, args, cli, work_dir)
        session.record(codes, digest_outputs(calls), f"warm-up {i + 1}")
        set_ups.append(seconds)
        norm_set_ups.append(norm_s)
    setup_s = import_norm_s + statistics.median(norm_set_ups)
    inputs_digest = verify_generation(prepared, calls)

    if args.trace:
        metrics = measure_traced(session, workload, args.seconds)
        units = PER_LAYER
        raw = []
    else:
        walls, normalised = measure_untraced(session, args.seconds, host)
        wall_s = statistics.median(walls)
        norm_wall_s = statistics.median(normalised)
        metrics = {
            "setup_s": setup_s,
            "norm_wall_s": norm_wall_s,
            "norm_work_per_s": prepared.work / norm_wall_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
        raw = [
            f"raw set-ups: {', '.join(f'{x:.3f}' for x in set_ups)} s, plus import {import_s:.3f} s",
            f"runs: {len(walls)}, host speed {norm_wall_s / wall_s:.3f} of nominal",
            f"wall_s = {wall_s:.6g} s",
            f"work_per_s = {prepared.work / wall_s:.6g} units/s",
        ]
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:  # still holds another run's inputs
        pass

    print(f"workload {workload.name}: {workload.why}")
    print(f"work unit: {workload.work_unit} ({prepared.work} per run)")
    for key, value in sorted(session.reference.items()):
        print(f"output {key} sha256:{value}")
    print(f"inputs sha256:{inputs_digest} ({len(prepared.files)} files)")
    print(f"outputs sha256:{combined_digest(session.reference)} "
          f"({len(session.reference)} files)")
    for problem in session.problems:
        print(f"FAILED {problem}")
    for line in raw:
        print(line)
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    error_rate = session.failed / session.attempted
    print(f"error_rate = {error_rate:.6g} ratio ({session.failed} of {session.attempted} calls)")
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


def all_workloads(args) -> int:
    """Each workload in its own process, untraced then traced."""
    sys.path.insert(0, str(BENCH))
    import workloads

    ok = True
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            print(f"== {name} trace={trace}", flush=True)
            proc = subprocess.run(argv, text=True, capture_output=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]) if proc.returncode == 0 else proc.stdout)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                ok = False
            elif not json.loads(lines[-1])["correct"]:
                ok = False
    print(json.dumps({"correct": ok}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="workload name, or 'all' for every workload in both modes")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: exercises every generator and check quickly")
    parser.add_argument("--generate", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    os.environ["SOURCE_DATE_EPOCH"] = SOURCE_DATE_EPOCH
    for key in [k for k in os.environ if k.startswith("SPREEKIT_")]:
        del os.environ[key]
    try:
        if args.generate:
            sys.path.insert(0, str(BENCH))
            return generate_main(args)
        if args.workload == "all":
            return all_workloads(args)
        return single_workload(args)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
