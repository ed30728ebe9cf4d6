"""End-to-end runs of the command line driver against the shipped fixtures.

Each test calls cli.main() in-process with a real argv and inspects the
files it writes.  Expected numbers are recomputed here by hand (fixture
arithmetic is small enough to do mentally) or pinned after independent
verification in the module-level test suites; nothing is compared against
the code path under test itself.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spreekit import (
    AreaHierarchy, Composition, Households, MarginLevel, MpiProfile, SimulationPlan, compute_mpi,
)
from spreekit import bootstrap, geo, mpi, rng as rngmod, simulation
from spreekit import io as sio
from spreekit.cli import main
from spreekit.mpi import MpiResult, _measures
from spreekit.scenario import ScenarioConfig, build_scenario

from conftest import FIXTURES, fake_cpus, report_bits

MINI = FIXTURES / "mini"


def run_cli(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def run_python(*argv, **env) -> subprocess.CompletedProcess:
    """``python *argv`` in a fresh process, from the repository root, with
    this checkout's spreekit first on the path and ``env`` added."""
    src = Path(sio.__file__).parents[1]
    env = {**os.environ, **env}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *map(str, argv)],
        cwd=FIXTURES.parent, env=env, capture_output=True, text=True, timeout=120,
    )


SEVERAL_CPUS = pytest.mark.skipif(
    len(os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()) < 2,
    reason="comparing a run on several CPUs with a run on one needs at least 2 CPUs",
)


def run_on_every_cpu_and_on_one(out: Path, *argv) -> int:
    """Run ``spreekit *argv --out <dir>`` in a fresh process on every CPU
    it may use, then in one pinned to one CPU (under ``SOURCE_DATE_EPOCH``),
    check that both write the same files byte for byte, manifest included,
    and give the number of children the free run forked."""
    script = (
        "import os, sys\n"
        "if sys.argv[2] == 'one':\n"
        "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "forks, fork = [], os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "from spreekit.cli import main\n"
        "code = main([*sys.argv[3:], '--out', sys.argv[1]])\n"
        "print(len(forks))\n"
        "sys.exit(code)\n"
    )
    forks = {}
    for cpus in ("every", "one"):
        done = run_python("-c", script, out / cpus, cpus, *argv, SOURCE_DATE_EPOCH="1700000000")
        assert done.returncode == 0, done.stderr
        forks[cpus] = int(done.stdout)
    names = sorted(p.name for p in (out / "every").iterdir())
    assert names == sorted(p.name for p in (out / "one").iterdir())
    assert "manifest.json" in names
    for name in names:
        assert (out / "every" / name).read_bytes() == (out / "one" / name).read_bytes(), name
    assert forks["one"] == 0
    return forks["every"]


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def cell_map(path: Path, value_col: str = "count") -> dict[tuple[str, str], float]:
    return {
        (r["area_id"], r["category_id"]): float(r[value_col]) for r in read_rows(path)
    }


def update_argv(out_dir, mode: str = "fixed", **extra) -> list[str]:
    argv = [
        "update",
        "--seed", MINI / "census2002.csv",
        "--col-margin", MINI / "survey_margin.csv",
        "--projections", MINI / "projections.csv",
        "--hierarchy", MINI / "hierarchy.csv",
        "--shares-mode", mode,
        "--year", "2013",
        "--unit", "persons",
        "--out", out_dir,
    ]
    for flag, value in extra.items():
        argv += ["--" + flag.replace("_", "-"), value]
    return argv


def plan_json(plan: dict) -> dict:
    """``plan`` as written; a plan without a ``scenario`` overrides the keys
    of ``mini_plan.json``, its paths made absolute."""
    if "scenario" in plan:
        return plan
    base = json.loads((FIXTURES / "mini_plan.json").read_text())
    for key in ("truth_t0", "truth_t", "hierarchy", "large_totals", "design"):
        base[key] = str(FIXTURES / base[key])
    base["aux_pool"] = [str(FIXTURES / p) for p in base["aux_pool"]]
    return {**base, **plan}


# JSON number texts past, at or inside the float range's edges, and two non-numbers.
JSON_NUMBERS = ("1" + "0" * 399, "-0.0", "1e-320", "1e308", "1e400", "-1e400", "NaN", "true",
                '"text"')
# The numeric fields of an inline scenario; a nested one is set at one position.
SCENARIO_NUMBERS = tuple(
    f.name for f in dataclasses.fields(ScenarioConfig) if f.name not in ("aux_exact", "strategies")
)


SQUARE = {"type": "Polygon", "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]]}


def one_feature(geometry, properties=None) -> dict:
    """A FeatureCollection of one feature, area ``x`` unless ``properties`` is given."""
    properties = {"area_id": "x"} if properties is None else properties
    feature = {"type": "Feature", "properties": properties, "geometry": geometry}
    return {"type": "FeatureCollection", "features": [feature]}


def bootstrap_argv(out_dir, seed: int = 7, replicates: int = 25) -> list[str]:
    return [
        "bootstrap",
        "--census", MINI / "census2002.csv",
        "--col-margin", MINI / "survey_margin.csv",
        "--projections", MINI / "projections.csv",
        "--hierarchy", MINI / "hierarchy.csv",
        "--shares-mode", "fixed",
        "--year", "2013",
        "--design", MINI / "design.csv",
        "--replicates", str(replicates),
        "--seed", str(seed),
        "--out", out_dir,
    ]


class TestUpdate:
    def test_fitted_margins_and_provenance(self, tmp_path):
        code, _, err = run_cli(*update_argv(tmp_path))
        assert code == 0, err

        cells = cell_map(tmp_path / "fitted.csv")
        fitted = np.array(
            [[cells[a, c] for c in ("poor", "non-poor")] for a in ("a1", "a2", "a3", "a4")]
        )
        # Survey margin totals already match the projections, so the fitted
        # column sums reproduce the survey margin file and the row sums are
        # the census shares (all 0.5 here) times the projected totals.
        np.testing.assert_allclose(fitted.sum(axis=0), [1500.0, 2800.0], rtol=1e-8)
        np.testing.assert_allclose(
            fitted.sum(axis=1), [1100.0, 1100.0, 1050.0, 1050.0], rtol=1e-8
        )

        prov = json.loads((tmp_path / "provenance.json").read_text())
        assert prov["unit"] == "persons"
        assert prov["iterations"] == 7
        assert prov["final_deviation"] <= 1e-8
        assert prov["reconcile_factor"] == 1.0

    def test_manifest_records_input_digests(self, tmp_path):
        code, _, _ = run_cli(*update_argv(tmp_path))
        assert code == 0

        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["subcommand"] == "update"
        assert manifest["outputs"] == ["fitted.csv", "provenance.json"]
        assert set(manifest["inputs"]) == {
            "seed", "col_margin", "projections", "hierarchy"
        }
        expected = hashlib.sha256((MINI / "census2002.csv").read_bytes()).hexdigest()
        assert manifest["inputs"]["seed"]["sha256"] == expected
        assert len(manifest["config_digest"]) == 64
        assert manifest["library_version"]

    @pytest.mark.parametrize(
        "mode, want",
        [
            (
                "fixed",
                {
                    "fitted.csv": "09139e5d6cad7af1a304036e5f464057a0ce20dd85bf7499a486923b6720f244",
                    "manifest.json": "81b5fd9b8434ccb0fc36946f61ce99916efaa6749cf9b0cc571356681ed4a7f5",
                    "provenance.json": "cf092650e0bab6f68a3622b84d7128e9982df80ca15110c1ccdeb7ee644d95ff",
                },
            ),
            (
                "dynamic",
                {
                    "fitted.csv": "db8861b1074319429c07317f61f343283b12bb0c7f118c21b44bafc443a0d932",
                    "manifest.json": "4fea85c7c06dfdb10c22e34e8283c53bdeed570de65859838ace1f71d275e9ec",
                    "provenance.json": "5cfee13c2541ce7c91764336972fa0bae4c6b4ce87fba3494bc77010a54611ce",
                },
            ),
            (
                "hybrid",
                {
                    "fitted.csv": "799d819afab0ae2a115ff97b186e505c6cfeef80233fe97fbea8c7c91b652cdf",
                    "manifest.json": "8e322af438e2e4743ff94b0353c4bfe806ec7d9abd48d01ba5019cda4d95bcd3",
                    "provenance.json": "ffb19273b9d7f9a90a277c88f179ba49e60a02fbc5f178e47e1ba07dfb79044d",
                },
            ),
        ],
    )
    def test_golden_output_digests(self, tmp_path, monkeypatch, mode, want):
        # Recorded while spree_update still built the provenance dict and
        # cached config digests; every byte, manifest included, must stay
        # the same.  The relative input paths are part of the manifest, so
        # the run starts in the repo root.
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        monkeypatch.chdir(FIXTURES.parent)
        mini = "fixtures/mini"
        argv = [
            "update",
            "--seed", f"{mini}/census2002.csv",
            "--col-margin", f"{mini}/survey_margin.csv",
            "--projections", f"{mini}/projections.csv",
            "--hierarchy", f"{mini}/hierarchy.csv",
            "--shares-mode", mode,
            "--year", "2013",
            "--unit", "persons",
            "--out", tmp_path,
        ]
        if mode != "fixed":
            argv += ["--aux", f"{mini}/aux.csv"]
        code, _, err = run_cli(*argv)
        assert (code, err) == (0, "")
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(tmp_path.iterdir())
        }
        assert digests == want

    def test_hybrid_mode_runs(self, tmp_path):
        code, _, err = run_cli(*update_argv(tmp_path, mode="hybrid", aux=MINI / "aux.csv"))
        assert code == 0, err
        cells = cell_map(tmp_path / "fitted.csv")
        total = sum(cells.values())
        assert total == pytest.approx(4300.0, rel=1e-8)

    def test_epsilon_zeros_fill_a_zero_seed_cell(self, tmp_path):
        census = tmp_path / "census.csv"
        text = (MINI / "census2002.csv").read_text()
        census.write_text(text.replace("a1,poor,400.0", "a1,poor,0"))
        argv = update_argv(tmp_path / "out", zeros="epsilon:0.5")
        argv[argv.index(MINI / "census2002.csv")] = census
        code, _, err = run_cli(*argv)
        assert (code, err) == (0, "")
        provenance = json.loads((tmp_path / "out" / "provenance.json").read_text())
        assert provenance["zero_mode"] == "epsilon"
        # Structural zeros would keep the cell at exactly zero.
        assert cell_map(tmp_path / "out" / "fitted.csv")["a1", "poor"] > 0

    def test_explicit_structural_zeros_are_the_default(self, tmp_path):
        default, explicit = tmp_path / "default", tmp_path / "explicit"
        assert run_cli(*update_argv(default))[::2] == (0, "")
        assert run_cli(*update_argv(explicit, zeros="structural"))[::2] == (0, "")
        for name in ("fitted.csv", "provenance.json"):
            assert (explicit / name).read_bytes() == (default / name).read_bytes()

    def test_unconverged_fit_warns_on_stderr(self, tmp_path):
        capped, full = tmp_path / "capped", tmp_path / "full"
        code, _, err = run_cli(*update_argv(capped, max_iter="1"))
        assert code == 0
        provenance = json.loads((capped / "provenance.json").read_text())
        assert provenance["converged"] is False
        warning = json.loads(err.strip())["warning"]
        assert warning.startswith("IPF did not converge in 1 iterations")
        # A converged fit prints nothing.
        code, _, err = run_cli(*update_argv(full))
        assert code == 0 and err == ""


    def test_output_quotes_ids_so_it_reloads(self, tmp_path):
        # Area ids with a comma and a double quote, written quoted by save_*.
        names = {"a1": "a,1", "a2": 'b"2', "a3": "c, \"3\"", "a4": "d4"}
        census = sio.load_composition(MINI / "census2002.csv")
        census = Composition(
            tuple(names[a] for a in census.area_ids), census.category_ids, census.counts
        )
        sio.save_composition(tmp_path / "census.csv", census)
        h = sio.load_hierarchy(MINI / "hierarchy.csv")
        sio.save_hierarchy(
            tmp_path / "hierarchy.csv",
            AreaHierarchy.from_pairs((names[s], h.large_of(s)) for s in h.small_ids),
        )
        argv = update_argv(tmp_path / "out")
        argv[argv.index("--seed") + 1] = tmp_path / "census.csv"
        argv[argv.index("--hierarchy") + 1] = tmp_path / "hierarchy.csv"
        code, _, err = run_cli(*argv)
        assert code == 0, err
        fitted = sio.load_composition(tmp_path / "out" / "fitted.csv")
        assert fitted.area_ids == census.area_ids
        assert fitted.category_ids == census.category_ids

class TestShares:
    def test_dynamic_values(self, tmp_path):
        code, _, err = run_cli(
            "shares",
            "--mode", "dynamic",
            "--census", MINI / "census2002.csv",
            "--hierarchy", MINI / "hierarchy.csv",
            "--aux", MINI / "aux.csv",
            "--year", "2013",
            "--out", tmp_path,
        )
        assert code == 0, err
        shares = {r["id"]: float(r["value"]) for r in read_rows(tmp_path / "shares.csv")}
        assert shares["a1"] == pytest.approx(1150 / 2200, abs=1e-12)
        assert shares["a2"] == pytest.approx(1050 / 2200, abs=1e-12)
        assert shares["a3"] == pytest.approx(1100 / 2100, abs=1e-12)
        assert shares["a4"] == pytest.approx(1000 / 2100, abs=1e-12)
        assert not (tmp_path / "margin.csv").exists()

    def test_fixed_with_projections_writes_margin(self, tmp_path):
        code, _, err = run_cli(
            "shares",
            "--mode", "fixed",
            "--census", MINI / "census2002.csv",
            "--hierarchy", MINI / "hierarchy.csv",
            "--projections", MINI / "projections.csv",
            "--year", "2013",
            "--out", tmp_path,
        )
        assert code == 0, err
        shares = {r["id"]: float(r["value"]) for r in read_rows(tmp_path / "shares.csv")}
        assert shares == {"a1": 0.5, "a2": 0.5, "a3": 0.5, "a4": 0.5}
        margin = {r["id"]: float(r["value"]) for r in read_rows(tmp_path / "margin.csv")}
        # Distribution conserves the regional totals exactly.
        assert margin["a1"] + margin["a2"] == 2200.0
        assert margin["a3"] + margin["a4"] == 2100.0
        assert margin["a1"] == pytest.approx(1100.0, rel=1e-12)

    def test_dynamic_without_aux_fails(self, tmp_path):
        code, _, err = run_cli(
            "shares",
            "--mode", "dynamic",
            "--census", MINI / "census2002.csv",
            "--hierarchy", MINI / "hierarchy.csv",
            "--out", tmp_path,
        )
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "CliDataError"
        assert "--aux" in payload["message"]

    def test_hybrid_without_projections_fails(self, tmp_path):
        code, _, err = run_cli(
            "shares",
            "--mode", "hybrid",
            "--census", MINI / "census2002.csv",
            "--hierarchy", MINI / "hierarchy.csv",
            "--aux", MINI / "aux.csv",
            "--year", "2013",
            "--out", tmp_path,
        )
        assert code == 1
        assert "projections" in json.loads(err)["message"]


class TestBootstrap:
    def test_outputs_and_headcount_files(self, tmp_path):
        code, _, err = run_cli(*bootstrap_argv(tmp_path))
        assert code == 0, err
        for name in (
            "cell_uncertainty.csv",
            "uncertainty.json",
            "headcount_cv.csv",
            "cv_summary.csv",
            "manifest.json",
        ):
            assert (tmp_path / name).exists(), name

        rows = read_rows(tmp_path / "cell_uncertainty.csv")
        assert len(rows) == 8
        assert list(rows[0]) == [
            "area_id", "category_id", "point", "mse", "cv",
            "rep_mean", "q2.5", "q25", "median", "q75", "q97.5",
        ]
        for r in rows:
            assert float(r["mse"]) >= 0.0
            assert float(r["point"]) > 0.0

        report = json.loads((tmp_path / "uncertainty.json").read_text())
        assert report["completed_replicates"] == 25
        assert report["dropped_replicates"] == 0

        hc = {r["area_id"]: float(r["headcount"]) for r in read_rows(tmp_path / "headcount_cv.csv")}
        # Point headcounts come from the fitted table, fully determined by
        # the fixture margins; a1 and a2 share the fitted K row structure.
        assert set(hc) == {"a1", "a2", "a3", "a4"}
        assert all(0.0 < v < 1.0 for v in hc.values())

        summary = read_rows(tmp_path / "cv_summary.csv")
        assert len(summary) == 1
        assert summary[0]["measure"] == "headcount_cv"
        assert float(summary[0]["q2.5"]) <= float(summary[0]["median"]) <= float(summary[0]["q97.5"])

    def test_same_seed_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        first, second = tmp_path / "one", tmp_path / "two"
        assert run_cli(*bootstrap_argv(first))[0] == 0
        assert run_cli(*bootstrap_argv(second))[0] == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_different_seed_changes_mse(self, tmp_path):
        first, second = tmp_path / "one", tmp_path / "two"
        assert run_cli(*bootstrap_argv(first, seed=7))[0] == 0
        assert run_cli(*bootstrap_argv(second, seed=8))[0] == 0
        a = cell_map(first / "cell_uncertainty.csv", "mse")
        b = cell_map(second / "cell_uncertainty.csv", "mse")
        assert a != b

    def test_iid_category_column_resample(self, tmp_path):
        argv = bootstrap_argv(tmp_path) + ["--col-resample", "iid-category"]
        code, _, err = run_cli(*argv)
        assert code == 0, err
        report = json.loads((tmp_path / "uncertainty.json").read_text())
        assert report["completed_replicates"] == 25

    def test_aux_pool_directory_must_hold_csv(self, tmp_path):
        empty = tmp_path / "pool"
        empty.mkdir()
        argv = bootstrap_argv(tmp_path / "out") + ["--aux-pool", str(empty)]
        code, _, err = run_cli(*argv)
        assert code == 1
        assert "no .csv files" in json.loads(err)["message"]

    def test_aux_pool_listed_in_manifest(self, tmp_path):
        pool = tmp_path / "pool"
        pool.mkdir()
        for k in range(2):
            (pool / f"aux{k}.csv").write_bytes((MINI / "aux_replicate.csv").read_bytes())
        out = tmp_path / "out"
        argv = bootstrap_argv(out) + ["--aux-pool", str(pool)]
        code, _, err = run_cli(*argv)
        assert code == 0, err
        manifest = json.loads((out / "manifest.json").read_text())
        assert "aux_pool[0]" in manifest["inputs"]
        assert "aux_pool[1]" in manifest["inputs"]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="pins a run to one CPU")
    def test_outputs_do_not_depend_on_how_the_census_helper_thread_is_scheduled(self, tmp_path):
        # Once free, once pinned to one CPU, which also writes every file in
        # one process: every output file must be byte-identical.
        script = (
            "import os, sys\n"
            "if sys.argv[2] == 'one-cpu':\n"
            "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from spreekit.cli import main\n"
            "m = 'fixtures/mini'\n"
            "sys.exit(main(['bootstrap', '--census', f'{m}/census2002.csv',"
            " '--col-margin', f'{m}/survey_margin.csv', '--shares-mode', 'hybrid',"
            " '--hierarchy', f'{m}/hierarchy.csv', '--projections', f'{m}/projections.csv',"
            " '--aux', f'{m}/aux.csv', '--year', '2013', '--design', f'{m}/design.csv',"
            " '--replicates', '50', '--out', sys.argv[1]]))\n"
        )
        for cpus in ("free", "one-cpu"):
            done = run_python("-c", script, tmp_path / cpus, cpus, SOURCE_DATE_EPOCH="1700000000")
            assert done.returncode == 0, done.stderr
        files = sorted((tmp_path / "free").iterdir())
        assert files
        for f in files:
            assert f.read_bytes() == (tmp_path / "one-cpu" / f.name).read_bytes(), f.name

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="pins a run to one CPU")
    def test_outputs_do_not_depend_on_which_thread_draws_each_census(self):
        # The mini fixture's censuses are drawn too fast for the main thread
        # ever to draw one itself; the benchmark's smoke inputs are not. Once
        # free, once pinned to one CPU: every output digest must be the same.
        script = (
            "import os, sys\n"
            "if sys.argv[1] == 'one-cpu':\n"
            "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "argv = ['bench/run.py', '--workload', 'bootstrap-2k', '--smoke', '--seconds', '0',"
            " '--trace', '0']\n"
            "os.execv(sys.executable, [sys.executable, *argv])\n"
        )
        digests = {}
        for cpus in ("free", "one-cpu"):
            done = run_python("-c", script, cpus)
            assert done.returncode == 0, done.stderr
            lines = done.stdout.splitlines()
            digests[cpus] = [line for line in lines if re.match(r"output .* sha256:", line)]
        assert digests["free"], "no output digests"
        assert digests["free"] == digests["one-cpu"]

    def test_the_cell_table_is_split_with_one_thread_at_each_fork(self, tmp_path, monkeypatch):
        # Blocks of 1 row, at least 2 rows a process, on 4 CPUs: three
        # children for the cell table's 8 rows and one for headcount_cv.csv's
        # 4, forked once the census helper thread has ended.
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        assert run_cli(*bootstrap_argv(tmp_path / "one"))[0] == 0
        threads, fork = [], os.fork

        def counted():
            threads.append(threading.active_count())
            return fork()

        monkeypatch.setattr(sio, "_BLOCK_ROWS", 1)
        monkeypatch.setattr(sio, "_ROWS_PER_PROCESS", 2)
        fake_cpus(monkeypatch, 4)
        monkeypatch.setattr(os, "fork", counted)
        assert run_cli(*bootstrap_argv(tmp_path / "split"))[0] == 0
        assert threads == [1, 1, 1, 1]
        for f in sorted((tmp_path / "one").iterdir()):
            assert f.read_bytes() == (tmp_path / "split" / f.name).read_bytes(), f.name

    @pytest.mark.parametrize(
        "col_resample, want",
        [
            (
                "psu-cluster",
                {
                    "cell_uncertainty.csv": "6915ce1f9ddf89ee25c6997c0457efd7e03075bc7d31ea6b3f6691ab4bc66121",
                    "cv_summary.csv": "42b54bcb3ec100c7e790b3b7b75e90415c21f6be0b4256a4baaa2906235a4a59",
                    "headcount_cv.csv": "638d3f3a05121be025f38143e659737e567ad690e1fba0254e8f489487592941",
                    "manifest.json": "4390b3cb1dfc29b9af67bc5e772db6c773b2e728491fb9c69cfdc57947ed2667",
                    "uncertainty.json": "554a700cb821fef1cab5916bc1bb1e6d9a3048afa938f8a6ae20236384ee7536",
                },
            ),
            (
                "iid-category",
                {
                    "cell_uncertainty.csv": "bcd5a0b8162575e895f7d8f8e9465ca27aa51c113fbb1a4a519274feff678690",
                    "cv_summary.csv": "938b26ce5465bd9536952315bf606c53d353c29178e31a67e795b40b98643a72",
                    "headcount_cv.csv": "f3167c3bf68bc80d869b7769606f42f5ed50155021fbc3b904932bfbbcba0237",
                    "manifest.json": "9268a3699de4e30f3ea0d56025e4a9d73cc9ce3f7d35c70e9a5182db9b3f625f",
                    "uncertainty.json": "554a700cb821fef1cab5916bc1bb1e6d9a3048afa938f8a6ae20236384ee7536",
                },
            ),
        ],
    )
    def test_golden_output_digests(self, tmp_path, monkeypatch, col_resample, want):
        # Recorded before the replicate layer lost its duplicate paths
        # (per-observation PSU totals, five quantile calls, rebuilt
        # replicate margins); every byte, manifest included, must stay the
        # same.  The relative input paths are part of the manifest, so the
        # run starts in the repo root.
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        monkeypatch.chdir(FIXTURES.parent)
        mini = "fixtures/mini"
        code, _, err = run_cli(
            "bootstrap",
            "--census", f"{mini}/census2002.csv",
            "--col-margin", f"{mini}/survey_margin.csv",
            "--projections", f"{mini}/projections.csv",
            "--hierarchy", f"{mini}/hierarchy.csv",
            "--design", f"{mini}/design.csv",
            "--year", "2013",
            "--shares-mode", "fixed",
            "--replicates", "50",
            "--col-resample", col_resample,
            "--out", tmp_path,
        )
        assert code == 0, err
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(tmp_path.iterdir())
        }
        assert digests == want


class TestValidate:
    def validate_argv(self, out_dir, seed: int = 5, replicates: int = 4) -> list[str]:
        return [
            "validate",
            "--plan", FIXTURES / "mini_plan.json",
            "--seed", str(seed),
            "--replicates", str(replicates),
            "--out", out_dir,
        ]

    def test_report_structure(self, tmp_path):
        code, _, err = run_cli(*self.validate_argv(tmp_path))
        assert code == 0, err
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["area_ids"] == ["a1", "a2", "a3", "a4"]
        assert sorted(report["quartile_labels"]) == [0, 1, 2, 3]
        strategies = report["strategies"]
        assert set(strategies) == {"fixed", "dynamic", "hybrid"}
        for m in strategies.values():
            assert m["completed"] == 4
            assert m["failed"] == 0
            assert len(m["share_bias"]) == 4
        assert sum(report["win_counts"].values()) == 4

        share_rows = read_rows(tmp_path / "share_accuracy.csv")
        assert len(share_rows) == 4 * 3
        perf_rows = read_rows(tmp_path / "performance.csv")
        assert {r["metric"] for r in perf_rows} == {"bias", "rmse"}
        corr_rows = read_rows(tmp_path / "correlations.csv")
        assert {r["strategy"] for r in corr_rows} == {"fixed", "dynamic", "hybrid"}

    def test_same_seed_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        first, second = tmp_path / "one", tmp_path / "two"
        assert run_cli(*self.validate_argv(first))[0] == 0
        assert run_cli(*self.validate_argv(second))[0] == 0
        for name in (
            "share_accuracy.csv",
            "performance.csv",
            "correlations.csv",
            "report.json",
            "manifest.json",
        ):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    @SEVERAL_CPUS
    def test_same_bytes_on_every_cpu_and_on_one(self, tmp_path):
        # 200 rounds run in as many processes as there are CPUs, or in one
        # process when pinned to one CPU; every file, manifest included,
        # must be the same.
        forks = run_on_every_cpu_and_on_one(
            tmp_path, "validate", "--plan", "fixtures/mini_plan.json", "--replicates", "200"
        )
        assert forks > 0
        assert "report.json" in {p.name for p in (tmp_path / "one").iterdir()}

    def test_fixture_plans_run_without_warnings(self, tmp_path):
        for plan in ("fixtures/mini_plan.json", "fixtures/shock.json"):
            done = run_python("-m", "spreekit.cli", "validate", "--plan", plan, "--out", tmp_path)
            assert (done.returncode, done.stderr) == (0, ""), plan

    def test_runs_in_one_process_carry_no_state(self, tmp_path):
        # Library users and the benchmark call spreekit.cli.main repeatedly
        # in one process, and some objects keep what they computed once: the
        # shock plan must write the same bytes before and after another plan.
        script = (
            "import sys\n"
            "from spreekit.cli import main\n"
            "for plan, name in (('shock.json', 'shock-1'), ('mini_plan.json', 'mini'),"
            " ('shock.json', 'shock-2')):\n"
            "    if main(['validate', '--plan', f'fixtures/{plan}', '--out', f'{sys.argv[1]}/{name}']):\n"
            "        sys.exit(f'validate --plan fixtures/{plan} failed')\n"
        )
        done = run_python("-c", script, tmp_path, SOURCE_DATE_EPOCH="1700000000")
        assert done.returncode == 0, done.stderr
        first, second = tmp_path / "shock-1", tmp_path / "shock-2"
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_inline_plan_with_a_repeated_strategy_is_a_data_error(self, tmp_path):
        plan = tmp_path / "repeated-strategy.json"
        plan.write_text('{"scenario": {"strategies": ["fixed", "fixed"]}}\n')
        done = run_python("-m", "spreekit.cli", "validate", "--plan", plan, "--out", tmp_path / "out")
        assert done.returncode == 1, done.stderr
        lines = done.stderr.splitlines()
        assert len(lines) == 1, done.stderr
        error = json.loads(lines[0])
        assert error.get("error") == "IngestError"
        assert str(plan) in error.get("message", "")

    @pytest.mark.parametrize("cpus, replicates, forks", [(1, 200, 0), (3, 29, 1), (3, 30, 2)])
    def test_one_process_per_cpu_with_ten_rounds_each(
        self, tmp_path, monkeypatch, cpus, replicates, forks
    ):
        pids, fork = [], os.fork

        def counted():
            pids.append(fork())
            return pids[-1]

        fake_cpus(monkeypatch, cpus)
        monkeypatch.setattr(os, "fork", counted)
        argv = self.validate_argv(tmp_path)
        assert run_cli(*argv, "--replicates", replicates)[0] == 0
        assert len(pids) == forks

    def test_golden_output_digests(self, tmp_path, monkeypatch):
        # Recorded before the harness was vectorised (per-replicate
        # np.corrcoef, Fraction residuals, six-pass IPF); every byte,
        # manifest included, must stay the same.  The relative plan path
        # is part of the manifest, so the run starts in the repo root.
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        monkeypatch.chdir(FIXTURES.parent)
        code, _, err = run_cli(
            "validate", "--plan", "fixtures/mini_plan.json", "--out", tmp_path
        )
        assert code == 0, err
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(tmp_path.iterdir())
        }
        assert digests == {
            "correlations.csv": "012da8278f9180dfbae6a6e6240a2149d34187558bbe85bcb528d976738f7de7",
            "manifest.json": "e6262dec617f665ce693498b12fcea1b3985c9df066a68f3fa2948d0cc006106",
            "performance.csv": "a855a48b36de0f597eb937fd04b3fed5684d1232a1f67ab42b8541a8fb4c69a1",
            "report.json": "b4b7e5bc59537ae7f849f67fccfaacc152aa7e30244e790a26ec434fae71f424",
            "share_accuracy.csv": "212e35a897434ad1e1d28483266ed86826044fc2cb1d926b7666cce57b7f33fd",
        }

    def test_scenario_pool_golden_output_digests(self):
        """The pool's lognormal noise takes its sigma from ``math.log``:
        numpy's AVX-512 ``log`` rounds CV 0.118 another way than its other
        loops do."""
        plan = build_scenario(ScenarioConfig(replicates=2, aux_cv=0.118, aux_pool_size=5))
        pool = np.stack([m.values for m in plan.aux_pool])
        assert hashlib.sha256(pool.tobytes()).hexdigest() == (
            "c1c692457d4ce75da1fe1cf060d3e4c944426373a6c52a7dff0e8fc9bfe1ad1b"
        )

    def test_plan_file_defaults_apply(self, tmp_path):
        # Without overrides the plan's own replicate count (10) runs.
        code, _, err = run_cli(
            "validate", "--plan", FIXTURES / "mini_plan.json", "--out", tmp_path
        )
        assert code == 0, err
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["strategies"]["fixed"]["completed"] == 10

    def test_clean_run_prints_nothing_on_stderr(self, tmp_path):
        code, _, err = run_cli(
            "validate", "--plan", FIXTURES / "mini_plan.json", "--out", tmp_path
        )
        assert (code, err) == (0, "")

    def test_failed_rounds_warn_on_stderr(self, tmp_path):
        # Region K has no auxiliary population, so no dynamic shares exist
        # for it: the dynamic and hybrid strategies fail every round.
        (tmp_path / "aux.csv").write_text("id,value\na1,0\na2,0\na3,1050\na4,1000\n")
        plan = json.loads((FIXTURES / "mini_plan.json").read_text())
        for key in ("truth_t0", "truth_t", "hierarchy", "large_totals", "design"):
            plan[key] = str(FIXTURES / plan[key])
        plan.update(aux_pool=["aux.csv"], replicates=3)
        (tmp_path / "plan.json").write_text(json.dumps(plan))
        code, _, err = run_cli("validate", "--plan", tmp_path / "plan.json", "--out", tmp_path)
        assert code == 0
        warnings = [json.loads(line)["warning"] for line in err.splitlines()]
        assert [w.split(";")[0] for w in warnings] == [
            "strategy dynamic failed 3 of 3 rounds",
            "strategy hybrid failed 3 of 3 rounds",
        ]
        assert all("; first: replicate 0: " in w for w in warnings)
        report = json.loads((tmp_path / "report.json").read_text())
        assert [report["strategies"][s]["failed"] for s in ("fixed", "dynamic", "hybrid")] == [
            0, 3, 3,
        ]
        # NaN metrics are written as "nan", with LF line ends.
        assert (tmp_path / "correlations.csv").read_bytes() == (
            b"quartile,strategy,pearson\nlowest,fixed,nan\nlowest,dynamic,nan\nlowest,hybrid,nan\n"
            b"second,fixed,nan\nsecond,dynamic,nan\nsecond,hybrid,nan\nthird,fixed,nan\n"
            b"third,dynamic,nan\nthird,hybrid,nan\nhighest,fixed,nan\nhighest,dynamic,nan\n"
            b"highest,hybrid,nan\n"
        )

    @pytest.mark.parametrize(
        "scenario, message",
        [
            ({"ipf_config": {"tolerance": 1e-6}}, "unexpected keyword argument 'ipf_config'"),
            ({"persons_per_psu": 0}, "persons_per_psu must be >= 1"),
            ({"psus_per_region": 0}, "psus_per_region must be >= 1"),
            ({"region_populations": [120000.0, 0.0, 100000.0]}, "region_populations must be > 0"),
            ({"region_growth": [0.02, 0.025, -1.0]}, "region_growth must be > -1"),
            ({"region_growth": [0.02, 0.025]}, "region_growth must have one entry per region"),
            (
                {"base_shares": [[0.5, 0.5], [0.25] * 4, [0.25] * 4]},
                "base_shares rows must have one entry per area",
            ),
            (
                {"base_shares": [[0.25] * 4, [0.25] * 4, [0.3] * 4]},
                "base_shares rows must sum to 1",
            ),
            (
                {"poverty_t0": [[0.2] * 4, [0.2] * 4, [0.2, 0.2, 0.2, 1.0]]},
                "poverty rates must lie strictly in (0, 1)",
            ),
            ({"aux_cv": -0.1}, "aux_cv must be >= 0"),
            ({"aux_cv": math.nan}, "aux_cv must be finite"),
            ({"aux_cv": math.inf}, "aux_cv must be finite"),
            ({"aux_cv": -math.inf}, "aux_cv must be finite"),
            ({"aux_bias_range": [0.05, 0.025]}, "aux_bias_range must satisfy 0 <= lo <= hi"),
            ({"aux_bias_range": [0.0, math.inf]}, "aux_bias_range must be finite"),
            ({"region_populations": [math.inf, 150000.0, 100000.0]},
             "region_populations must be finite"),
            ({"region_growth": [0.02, math.inf, 0.09]}, "region_growth must be finite"),
            ({"base_shares": [[math.nan, 0.25, 0.25, 0.2], [0.25] * 4, [0.25] * 4]},
             "base_shares must be finite"),
            ({"share_changes": [[math.inf, 0.0, 0.0, 0.0], [0.0] * 4, [0.0] * 4]},
             "share_changes must be finite"),
            ({"poverty_t": [[0.2] * 4, [0.2] * 4, [0.2, 0.2, 0.2, -math.inf]]},
             "poverty_t must be finite"),
        ],
        ids=["ipf_config", "persons_per_psu", "psus_per_region",
             "region_populations", "region_growth", "regions-per-row", "areas-per-row",
             "share-sum", "poverty-rate", "aux_cv", "aux_cv-nan", "aux_cv-inf", "aux_cv-minus-inf",
             "aux_bias_range", "aux_bias_range-inf", "region_populations-inf",
             "region_growth-inf", "base_shares-nan", "share_changes-inf", "poverty_t-minus-inf"],
    )
    def test_bad_scenario_config_is_data_error(self, tmp_path, scenario, message):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"scenario": {"replicates": 2, **scenario}}))
        code, out, err = run_cli("validate", "--plan", plan, "--out", tmp_path / "out")
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        error = json.loads(err)
        assert error["error"] == "IngestError"
        assert "bad scenario config: " in error["message"]
        assert error["message"].endswith(message)

    @pytest.mark.parametrize(
        "plan",
        [
            {"replicates": 2.9},
            {"seed": 3.7},
            {"base_time": 0.5},
            {"target_time": True},
            {"scenario": {"replicates": 2.5}},
            {"scenario": {"psus_per_region": 1.5}},
            {"scenario": {"aux_pool_size": 2.5}},
            {"scenario": {"seed": 1.5}},
            {"scenario": {"replicates": 2}, "seed": True},
        ],
        ids=["file_replicates", "file_seed", "file_base_time", "file_target_time_bool",
             "replicates", "psus_per_region", "aux_pool_size", "seed", "seed_bool"],
    )
    def test_non_integer_count_is_data_error(self, tmp_path, plan):
        (tmp_path / "plan.json").write_text(json.dumps(plan_json(plan)))
        code, out, err = run_cli("validate", "--plan", tmp_path / "plan.json", "--out", tmp_path)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        error = json.loads(err)
        assert error["error"] == "IngestError"
        assert "must be an integer" in error["message"]


class TestMpi:
    def mpi_argv(self, out_dir, *extra) -> list[str]:
        return [
            "mpi",
            "--households", FIXTURES / "households3.csv",
            "--profile", FIXTURES / "profile9.json",
            "--out", out_dir,
            *extra,
        ]

    def test_hand_arithmetic(self, tmp_path):
        code, _, err = run_cli(*self.mpi_argv(tmp_path))
        assert code == 0, err
        payload = json.loads((tmp_path / "mpi.json").read_text())
        # Ten persons: h1 (5, child mortality, score 1/3) and h2 (3, both
        # education indicators, score 1/3) are poor; h3 (2, three living
        # standards, score 1/6) is not.
        assert payload["headcount"] == 0.8
        assert payload["intensity"] == 1 / 3
        assert payload["mpi"] == 4 / 15
        assert payload["population_base"] == 10.0
        assert payload["indicator_headcounts"]["child_mortality"] == 0.5
        assert payload["contributions"]["child_mortality"] == pytest.approx(5 / 9, rel=1e-12)
        assert sum(payload["contributions"].values()) == pytest.approx(1.0, abs=1e-9)

    def test_by_subgroup_and_area_runs_without_warnings(self, tmp_path):
        done = run_python(
            "-m", "spreekit.cli", "mpi", "--households", "fixtures/households3.csv",
            "--hierarchy", "fixtures/mini/hierarchy.csv", "--by-subgroup", "--out", tmp_path,
        )
        assert (done.returncode, done.stderr) == (0, "")

    def test_subgroups(self, tmp_path):
        code, _, err = run_cli(*self.mpi_argv(tmp_path, "--by-subgroup"))
        assert code == 0, err
        groups = json.loads((tmp_path / "mpi.json").read_text())["subgroups"]
        assert set(groups) == {"female", "male"}
        assert groups["female"]["headcount"] == 5 / 7
        assert groups["female"]["population_base"] == 7.0
        assert groups["male"]["headcount"] == 1.0
        assert groups["male"]["mpi"] == 1 / 3

    def test_hierarchy_tabulates_poor_counts(self, tmp_path):
        code, _, err = run_cli(
            *self.mpi_argv(tmp_path, "--hierarchy", str(MINI / "hierarchy.csv"))
        )
        assert code == 0, err
        cells = cell_map(tmp_path / "poverty_composition.csv")
        assert cells["a1", "poor"] == 8.0
        assert cells["a1", "non-poor"] == 0.0
        assert cells["a2", "non-poor"] == 2.0
        assert cells["a3", "poor"] == 0.0
        assert sum(cells.values()) == 10.0

    def test_default_profile_used_without_flag(self, tmp_path):
        code, _, err = run_cli(
            "mpi", "--households", FIXTURES / "households3.csv", "--out", tmp_path
        )
        assert code == 0, err
        payload = json.loads((tmp_path / "mpi.json").read_text())
        assert payload["headcount"] == 0.8

    @staticmethod
    def digests(out_dir: Path) -> dict[str, str]:
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())
        }

    def test_golden_output_digests_fixture(self, tmp_path, monkeypatch):
        # Recorded while households were still one record object each;
        # every byte, manifest included, must stay the same.  The relative
        # input paths are part of the manifest, so the run starts in the
        # repo root.
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        monkeypatch.chdir(FIXTURES.parent)
        code, _, err = run_cli(
            "mpi", "--households", "fixtures/households3.csv",
            "--hierarchy", "fixtures/mini/hierarchy.csv", "--by-subgroup", "--out", tmp_path,
        )
        assert (code, err) == (0, "")
        assert self.digests(tmp_path) == {
            "manifest.json": "14f5603961073bd469f2c38e0a9e10b40ba0b80598fc35e45de873a44e469fa2",
            "mpi.json": "0bd3278ac0b4896485beda37272c59cf1d0acf478080eab0e8f9ed433294bdde",
            "poverty_composition.csv": "6a9103daf4ba5e4a56edae4a7d5d6390ce7f734bd021ad2810af513c1d93bda3",
        }

    def test_golden_output_digests_generated(self, tmp_path, monkeypatch):
        # 2000 seeded households in 12 areas and 4 subgroups, with
        # non-integer weights, so that every float sum depends on its order.
        rng = np.random.default_rng(2024)
        areas = [f"a{k}" for k in range(12)]
        (tmp_path / "hierarchy.csv").write_text(
            "small_id,large_id\n" + "".join(f"{a},L{k % 3}\n" for k, a in enumerate(areas))
        )
        profile = sio.load_profile(FIXTURES / "profile9.json")
        lines = [",".join(
            ("household_id", "area_id", "subgroup_id", "size", "weight",
             *(f"ind_{i}" for i in profile.indicators))
        )]
        for i in range(2000):
            flags = (rng.random(len(profile.indicators)) < 0.3).astype(int)
            lines.append(",".join((
                f"h{i}", areas[rng.integers(len(areas))], f"g{rng.integers(4)}",
                str(rng.integers(1, 10)), repr(float(rng.uniform(0.05, 3.0))),
                *map(str, flags),
            )))
        (tmp_path / "households.csv").write_text("\n".join(lines) + "\n")
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(
            "mpi", "--households", "households.csv", "--hierarchy", "hierarchy.csv",
            "--by-subgroup", "--out", "out",
        )
        assert (code, err) == (0, "")
        assert self.digests(tmp_path / "out") == {
            "manifest.json": "d97837a9abb021c625cea7a25f5d4f04b29f15864d126c27eec13f946edf9062",
            "mpi.json": "82a287c0028492ff3f54e4cf9f6c828726249156419c97974696826f47cabdbc",
            "poverty_composition.csv": "d94353f04112b77ba8e07c8ef453d51543e5efa950e605bfa93f911dd99b91ca",
        }


    @SEVERAL_CPUS
    def test_same_bytes_on_every_cpu_and_on_one(self, tmp_path):
        # 20000 households, about 1 MB: read in as many processes as there
        # are CPUs, each range above the split threshold, or in one process
        # when pinned to one CPU.
        rng = np.random.default_rng(29)
        profile = MpiProfile.nine_indicator()
        areas = [f"a{k}" for k in range(40)]
        (tmp_path / "hierarchy.csv").write_text(
            "small_id,large_id\n" + "".join(f"{a},L{k % 3}\n" for k, a in enumerate(areas))
        )
        head = ("household_id", "area_id", "subgroup_id", "size", "weight",
                *(f"ind_{i}" for i in profile.indicators))
        flags = np.where(rng.random((20_000, len(profile.indicators))) < 0.3, "1", "0")
        rows = (
            ",".join((f"h{i}", areas[a], f"g{g}", str(n), repr(w), *f))
            for i, (a, g, n, w, f) in enumerate(zip(
                rng.integers(0, 40, 20_000).tolist(), rng.integers(0, 4, 20_000).tolist(),
                rng.integers(1, 10, 20_000).tolist(), rng.uniform(0.05, 3.0, 20_000).tolist(),
                flags.tolist(),
            ))
        )
        households = tmp_path / "households.csv"
        households.write_text(",".join(head) + "\n" + "\n".join(rows) + "\n")
        ranges = households.stat().st_size // sio._BYTES_PER_PROCESS
        assert ranges >= 2
        forks = run_on_every_cpu_and_on_one(
            tmp_path, "mpi", "--households", households, "--hierarchy", tmp_path / "hierarchy.csv",
            "--by-subgroup",
        )
        assert forks == min(len(os.sched_getaffinity(0)), ranges) - 1

    def test_missing_flag_fails_before_any_subgroup(self, tmp_path):
        rows = (FIXTURES / "households3.csv").read_text().splitlines()
        rows[2] = "h2,a1,male,3,1.0,0,1,1,0,,0,0,0,0"
        rows[3] = "h3,a2,female,2,1.0,0,0,0,1,1,1,0,0,"
        (tmp_path / "households.csv").write_text("\n".join(rows) + "\n")
        code, out, err = run_cli(
            "mpi", "--households", tmp_path / "households.csv", "--by-subgroup",
            "--out", tmp_path / "out",
        )
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {
            "error": "ValueError",
            "message": "household 'h2' has a missing flag for 'sanitation'; "
                       "resolve missingness at ingestion before scoring",
        }
        assert not (tmp_path / "out").exists()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_subgroup_results_equal_compute_mpi_of_the_subset(self, data):
        profile, households = data.draw(subgroup_tables())
        measured: list[MpiResult] = []

        def record(*args):
            measured.append(_measures(*args))
            return measured[-1]

        with tempfile.TemporaryDirectory() as d:
            sio.save_households(Path(d) / "households.csv", households)
            sio.save_profile(Path(d) / "profile.json", profile)
            with mock.patch.object(mpi, "_measures", record):
                code, _, err = run_cli(
                    "mpi", "--households", Path(d) / "households.csv",
                    "--profile", Path(d) / "profile.json", "--by-subgroup", "--out", d,
                )
            assert (code, err) == (0, "")
            payload = json.loads((Path(d) / "mpi.json").read_text())
        groups = np.array(households.subgroup_ids, dtype=object)
        names = sorted(set(households.subgroup_ids))
        want = [compute_mpi(households.subset(groups == g), profile) for g in names]
        assert list(payload["subgroups"]) == names
        # The first result is the whole table's, the rest one per subgroup.
        assert list(map(result_bits, measured[1:])) == list(map(result_bits, want))


def result_bits(result: MpiResult) -> dict:
    """Every field of ``result`` with each float as its 8 bytes."""
    def bits(value):
        if isinstance(value, dict):
            return {k: bits(v) for k, v in value.items()}
        return None if value is None else np.float64(value).tobytes()

    return {f.name: bits(getattr(result, f.name)) for f in dataclasses.fields(result)}


@st.composite
def subgroup_tables(draw):
    """A profile of 1-9 indicators (a profile has at least one) and 1-60
    households in 1-5 subgroups, with non-integer weights and 0-9
    deprivations each."""
    k = draw(st.integers(1, 9))
    parts = draw(st.lists(st.integers(1, 12), min_size=k, max_size=k))
    cutoff = Fraction(draw(st.integers(1, 9)), 9)
    profile = MpiProfile(
        tuple(f"i{j}" for j in range(k)), tuple(Fraction(a, sum(parts)) for a in parts), cutoff
    )
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    groups = [f"g{j}" for j in range(draw(st.integers(1, 5)))]
    households = Households(
        tuple(f"h{i}" for i in range(n)),
        ("a1",) * n,
        tuple(groups[j] for j in rng.integers(len(groups), size=n)),
        rng.integers(1, 10, n),
        rng.uniform(0.05, 3.0, n),
        profile.indicators,
        rng.random((n, k)) < rng.uniform(0.0, 1.0),
        np.zeros((n, k), dtype=bool),
    )
    return profile, households


class TestAggregate:
    def test_golden_output_digests(self, tmp_path, monkeypatch):
        # 3000 seeded pixels with non-integer values, some outside both
        # areas, so every sum depends on its order.  The values are scaled
        # by exact powers of two: the bits of ``10.0 ** x`` depend on the
        # SIMD loops numpy picks for the CPU.
        rng = np.random.default_rng(2025)
        lon, lat = rng.uniform(-1.0, 11.0, 3000), rng.uniform(-0.5, 10.5, 3000)
        values = np.ldexp(rng.uniform(0.0, 1.0, 3000), rng.integers(-10, 14, 3000))
        (tmp_path / "pixels.csv").write_text("lon,lat,value\n" + "".join(
            f"{x!r},{y!r},{v!r}\n" for x, y, v in zip(lon.tolist(), lat.tolist(), values.tolist())
        ))
        shutil.copy(FIXTURES / "polygons_vertical.geojson", tmp_path / "polygons.geojson")
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(
            "aggregate", "--pixels", "pixels.csv", "--polygons", "polygons.geojson",
            "--out", "out",
        )
        assert code == 0
        assert json.loads(err) == {"warning": "more than 5% of pixel mass unassigned"}
        # The areas split the square [0, 10] x [0, 10] at lon 5, and no pixel
        # lies on an edge: each sum is a masked sum over all pixels.
        assert not np.isin(lon, (0, 5, 10)).any() and not np.isin(lat, (0, 10)).any()
        inside = (lat > 0) & (lat < 10)
        west, east = inside & (lon > 0) & (lon < 5), inside & (lon > 5) & (lon < 10)
        margin = read_rows(tmp_path / "out" / "margin.csv")
        assert {r["id"]: r["value"] for r in margin} == {
            "west": repr(float(values[west].sum())), "east": repr(float(values[east].sum())),
        }
        summary = json.loads((tmp_path / "out" / "aggregation.json").read_text())
        assert summary["unassigned_mass"] == values[~(west | east)].sum()
        assert summary["total_mass"] == values.sum()
        assert TestMpi.digests(tmp_path / "out") == {
            "aggregation.json": "f5467dd38843b1e5ff6313e2ed27ef5ce90b518423231aa14ba96787b3dac09d",
            "manifest.json": "bf40c2e728a6d5c09afa9a78289f949bb5cbd758c170610c4b6013fddabb3ecd",
            "margin.csv": "eb914a9d98e36f60f2f73b644d3d36c983377bb124acf957412884ed04015d9d",
        }

    @SEVERAL_CPUS
    def test_same_bytes_on_every_cpu_and_on_one(self, tmp_path):
        # 30000 pixels, about 1.3 MB, with non-integer values: read in as
        # many processes as there are CPUs, or in one when pinned to one.
        rng = np.random.default_rng(29)
        columns = (rng.uniform(-1.0, 11.0, 30_000), rng.uniform(-0.5, 10.5, 30_000),
                   rng.uniform(0.0, 1.0, 30_000) * 10.0 ** rng.uniform(-3.0, 4.0, 30_000))
        pixels = tmp_path / "pixels.csv"
        pixels.write_text("lon,lat,value\n" + "".join(
            f"{x!r},{y!r},{v!r}\n" for x, y, v in zip(*(c.tolist() for c in columns))
        ))
        ranges = pixels.stat().st_size // sio._BYTES_PER_PROCESS
        assert ranges >= 2
        forks = run_on_every_cpu_and_on_one(
            tmp_path, "aggregate", "--pixels", pixels,
            "--polygons", FIXTURES / "polygons_vertical.geojson",
        )
        assert forks == min(len(os.sched_getaffinity(0)), ranges) - 1

    # A million pixels: CSVs are read in byte ranges split across
    # processes, and the peak is read in the command's process, over it and
    # its forked readers.  Its own peak is ``VmHWM``: ``RUSAGE_SELF`` would
    # keep the peak of the process that started it, which ``exec`` does not
    # reset (a child started from a 164 MiB process read 164 MiB there
    # against a ``VmHWM`` of 13 MiB).  With Python 3.11 on Linux the
    # command peaked at 113 MiB and its reader child at 59 MiB, which holds
    # its range's rows and their pickle (36 MiB with the csv path's blocks;
    # the whole-file reader of earlier versions took 402 MiB).
    PEAK = (
        "import resource, sys\n"
        "from spreekit.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "with open('/proc/self/status') as f:\n"
        "    own = next(int(line.split()[1]) for line in f if line.startswith('VmHWM:'))\n"
        "print(max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024)\n"
        "sys.exit(code)\n"
    )
    BOUND_MIB = 200

    def aggregate_peak(self, tmp_path, columns, value_format: str) -> float:
        """Write the pixels 100000 rows at a time, aggregate them into the
        two horizontal areas, and give the command's peak RSS in MiB."""
        pixels = tmp_path / "pixels.csv"
        with open(pixels, "w", encoding="utf-8") as f:
            f.write("lon,lat,value\n")
            for start in range(0, len(columns[0]), 100_000):
                block = (c[start : start + 100_000].tolist() for c in columns)
                f.writelines(
                    f"{x!r},{y!r},{value_format.format(v)}\n" for x, y, v in zip(*block)
                )
        done = run_python(
            "-c", self.PEAK, "aggregate", "--pixels", pixels,
            "--polygons", "fixtures/polygons_horizontal.geojson", "--out", tmp_path / "out",
        )
        assert done.returncode == 0, done.stderr
        return float(done.stdout)

    def test_a_million_pixels_in_bounded_memory(self, tmp_path):
        rows = 1_000_000
        g = np.random.default_rng(0)
        lon, lat = g.uniform(0, 10, rows), g.uniform(0, 10, rows)
        value = g.integers(0, 100, rows).astype(float)
        assert self.aggregate_peak(tmp_path, (lon, lat, value), "{!r}") <= self.BOUND_MIB

    def test_a_million_tied_latitudes_exactly_in_bounded_memory(self, tmp_path):
        # 1000 distinct latitudes of 1000 pixels each, rows shuffled, the row
        # lat = 5 on the shared edge of the two areas: the latitude sort is
        # not stable, and no order of the ties may move a pixel.  Integer
        # values keep every sum exact.
        side = 1000
        g = np.random.default_rng(0)
        rows = g.permutation(side * side)
        lon = (np.arange(side * side) % side / 100)[rows]
        lat = (np.arange(side * side) // side / 100)[rows]
        value = g.integers(0, 100, side * side)
        want = {"south": int(value[lat < 5].sum()), "north": int(value[lat >= 5].sum())}
        peak = self.aggregate_peak(tmp_path, (lon, lat, value), "{}.0")
        summary = json.loads((tmp_path / "out" / "aggregation.json").read_text())
        got = {r["id"]: float(r["value"]) for r in read_rows(tmp_path / "out" / "margin.csv")}
        assert (summary["unassigned_count"], summary["unassigned_mass"]) == (0, 0.0)
        assert got == want and summary["total_mass"] == sum(want.values())
        assert peak <= self.BOUND_MIB

    def test_a_comb_polygon_in_bounded_memory(self, tmp_path):
        # Every pixel lies between all 400 tall edges of the comb: 4e7 (edge,
        # pixel) pairs, tested in batches. The command peaked at 50 MiB on
        # Linux with Python 3.11, where one 4e7-pair temporary alone is 305 MiB.
        teeth, rows, bound_mib = 200, 100_000, 120
        top = []
        for k in range(teeth - 1, -1, -1):
            top += [[2 * k + 1, 1], [2 * k, 1]] + ([[2 * k, 0], [2 * k - 1, 0]] if k else [])
        ring = [[0, -1], [2 * teeth - 1, -1], *top, [0, -1]]
        (tmp_path / "comb.geojson").write_text(json.dumps(
            one_feature({"type": "Polygon", "coordinates": [ring]}, {"area_id": "comb"})
        ))
        g = np.random.default_rng(0)
        lon, lat = g.uniform(-0.5, 2 * teeth - 0.5, rows).tolist(), g.uniform(0, 1, rows).tolist()
        with open(tmp_path / "pixels.csv", "w", encoding="utf-8") as f:
            f.write("lon,lat,value\n")
            f.writelines(f"{x!r},{y!r},1.0\n" for x, y in zip(lon, lat))
        done = run_python(
            "-c", self.PEAK, "aggregate", "--pixels", tmp_path / "pixels.csv",
            "--polygons", tmp_path / "comb.geojson", "--out", tmp_path / "out",
        )
        assert done.returncode == 0, done.stderr
        # Pixels on a tooth (left half of each unit of longitude) are inside.
        inside = sum(int(np.floor(x)) % 2 == 0 and x >= 0 for x in lon)
        summary = json.loads((tmp_path / "out" / "aggregation.json").read_text())
        assert summary["unassigned_count"] == rows - inside
        assert float(done.stdout) <= bound_mib

    def test_directory_out(self, tmp_path):
        code, _, err = run_cli(
            "aggregate",
            "--pixels", FIXTURES / "pixels10.csv",
            "--polygons", FIXTURES / "polygons_vertical.geojson",
            "--out", tmp_path,
        )
        assert code == 0, err
        margin = {r["id"]: float(r["value"]) for r in read_rows(tmp_path / "margin.csv")}
        assert margin == {"east": 2650.0, "west": 2400.0}
        summary = json.loads((tmp_path / "aggregation.json").read_text())
        assert summary["unassigned_count"] == 0
        assert summary["total_mass"] == 5050.0
        assert summary["warning_over_5_percent_unassigned"] is False
        assert (tmp_path / "manifest.json").exists()

    def test_output_bytes_with_tricky_ids(self, tmp_path):
        # One pixel per unit square, so each area's sum is its pixel's value.
        ids = ("a,1", 'b"2', "c\n3", "d\r4", "é字")
        values = (-0.0, 5e-324, 1e-05, 1e16, 1.7976931348623157e308)
        features = [
            {
                "type": "Feature",
                "properties": {"area_id": area},
                "geometry": {
                    "type": "Polygon",
                    "coordinates": [[[k, 0], [k + 1, 0], [k + 1, 1], [k, 1], [k, 0]]],
                },
            }
            for k, area in enumerate(ids)
        ]
        polygons = tmp_path / "squares.geojson"
        polygons.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
        pixels = tmp_path / "px.csv"
        pixels.write_text(
            "lon,lat,value\n" + "".join(f"{k + 0.5},0.5,{v!r}\n" for k, v in enumerate(values))
        )
        code, _, err = run_cli(
            "aggregate", "--pixels", pixels, "--polygons", polygons, "--out", tmp_path / "out"
        )
        assert code == 0, err
        assert (tmp_path / "out" / "margin.csv").read_bytes() == (
            b'id,value\n"a,1",0.0\n"b""2",5e-324\n"c\n3",1e-05\n"d\r4",1e+16\n'
            b"\xc3\xa9\xe5\xad\x97,1.7976931348623157e+308\n"
        )
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "aggregation.json", "manifest.json", "margin.csv",
        ]

    def test_csv_out_path(self, tmp_path):
        target = tmp_path / "sums.csv"
        code, _, err = run_cli(
            "aggregate",
            "--pixels", FIXTURES / "pixels10.csv",
            "--polygons", FIXTURES / "polygons_horizontal.geojson",
            "--out", target,
        )
        assert code == 0, err
        margin = {r["id"]: float(r["value"]) for r in read_rows(target)}
        # Rows 0-4 hold values 1..50, rows 5-9 hold 51..100.
        assert margin == {"north": 3775.0, "south": 1275.0}
        assert (tmp_path / "aggregation.json").exists()
        assert (tmp_path / "manifest.json").exists()

    def test_warning_on_sparse_coverage(self, tmp_path):
        polygons = tmp_path / "corner.geojson"
        polygons.write_text(
            json.dumps(
                {
                    "type": "FeatureCollection",
                    "features": [
                        {
                            "type": "Feature",
                            "properties": {"area_id": "corner"},
                            "geometry": {
                                "type": "Polygon",
                                "coordinates": [
                                    [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]
                                ],
                            },
                        }
                    ],
                }
            ),
            encoding="utf-8",
        )
        out = tmp_path / "out"
        code, _, err = run_cli(
            "aggregate",
            "--pixels", FIXTURES / "pixels10.csv",
            "--polygons", polygons,
            "--out", out,
        )
        assert code == 0
        assert json.loads(err.strip())["warning"].startswith("more than 5%")
        summary = json.loads((out / "aggregation.json").read_text())
        assert summary["warning_over_5_percent_unassigned"] is True
        assert summary["unassigned_mass"] == 5049.0


class TestDiagnose:
    def test_stdout_payload(self):
        code, out, err = run_cli(
            "diagnose",
            "--first", MINI / "census2002.csv",
            "--second", MINI / "census2013.csv",
        )
        assert code == 0, err
        payload = json.loads(out)
        assert payload["association_distance"] > 0.0
        assert payload["area_ids"] == ["a1", "a2", "a3", "a4"]
        assert len(payload["first"]["interaction"]) == 4

    def test_identical_inputs_zero_distance(self):
        code, out, _ = run_cli(
            "diagnose",
            "--first", MINI / "census2002.csv",
            "--second", MINI / "census2002.csv",
        )
        assert code == 0
        assert json.loads(out)["association_distance"] == 0.0

    def test_out_writes_same_text(self, tmp_path):
        # diagnose only honours the global --out, given before the subcommand.
        code, out, _ = run_cli(
            "--out", tmp_path,
            "diagnose",
            "--first", MINI / "census2002.csv",
            "--second", MINI / "census2013.csv",
        )
        assert code == 0
        assert (tmp_path / "diagnose.json").read_text() == out
        assert (tmp_path / "manifest.json").exists()


class TestErrorsAndExitCodes:
    def test_overlong_field_is_data_error(self, tmp_path):
        first = tmp_path / "first.csv"
        first.write_text(f"area_id,category_id,count\n{'a' * 200_000},poor,1\n")
        code, out, err = run_cli(
            "diagnose", "--first", first, "--second", MINI / "census2013.csv",
        )
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {
            "error": "IngestError",
            "message": f"{first}:2: field larger than field limit ({csv.field_size_limit()})",
        }

    @pytest.mark.parametrize("epoch", ["abc", "99999999999999999"])
    def test_a_bad_source_date_epoch_is_a_data_error(self, tmp_path, monkeypatch, epoch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        code, out, err = run_cli(*update_argv(tmp_path / "out"))
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {
            "error": "CliDataError",
            "message": f"SOURCE_DATE_EPOCH must be seconds since 1970, got {epoch!r}",
        }
        assert not (tmp_path / "out").exists()

    def test_a_hierarchy_that_misses_an_area_is_a_data_error(self, tmp_path):
        rows = (MINI / "hierarchy.csv").read_text().splitlines(keepends=True)
        hierarchy = tmp_path / "hierarchy-no-a1.csv"
        hierarchy.write_text("".join(r for r in rows if not r.startswith("a1,")))
        argv = update_argv(tmp_path / "unassigned")
        argv[argv.index("--hierarchy") + 1] = hierarchy
        done = run_python("-m", "spreekit.cli", *argv)
        assert done.returncode == 1, done.stderr
        lines = done.stderr.splitlines()
        assert len(lines) == 1, done.stderr
        assert json.loads(lines[0]).get("error") == "ValueError"

    def test_unknown_area_is_data_error_and_writes_nothing(self, tmp_path):
        rows = (FIXTURES / "households3.csv").read_text().splitlines()
        rows[2] = rows[2].replace("h2,a1,", "h2,ZZ,")
        (tmp_path / "households.csv").write_text("\n".join(rows) + "\n")
        code, out, err = run_cli(
            "mpi", "--households", tmp_path / "households.csv",
            "--hierarchy", MINI / "hierarchy.csv", "--by-subgroup", "--out", tmp_path / "out",
        )
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {
            "error": "ValueError", "message": "household 'h2' in unknown area 'ZZ'",
        }
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "extra",
        [[], ["--by-subgroup"], ["--hierarchy", MINI / "hierarchy.csv"]],
        ids=["plain", "by_subgroup", "hierarchy"],
    )
    def test_people_past_the_float_range_name_the_household(self, tmp_path, extra):
        rows = (FIXTURES / "households3.csv").read_text().splitlines()
        rows[1] = rows[1].replace("h1,a1,female,5,1.0,", "h1,a1,female,5,1e308,")
        households = tmp_path / "households.csv"
        households.write_text("\n".join(rows) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(
                "mpi", "--households", households, *extra, "--out", tmp_path / "out"
            )
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {
            "error": "IngestError",
            "message": f"{households}: household 'h1': size * weight is not finite",
        }
        assert not (tmp_path / "out").exists()

    def test_scenario_pool_over_budget_fails_before_any_draw(self, tmp_path, monkeypatch):
        def no_draw(*args):
            pytest.fail("the scenario drew")

        monkeypatch.setattr(rngmod, "stream", no_draw)
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"scenario": {"aux_pool_size": 100_000_000, "replicates": 2}}))
        code, out, err = run_cli("validate", "--plan", plan, "--out", tmp_path / "out")
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {
            "error": "IngestError",
            "message": f"{plan}: scenario: pool and design arrays of 2 x 100000000 x 12"
            f" + 48 x 5 need 19200001920 bytes, over the budget of {2**32}",
        }
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, plan, error",
        [
            (["validate", "--plan", "{plan}", "--out", "{out}"],
             {"scenario": {"replicates": 2, "seed": -1}}, "IngestError"),
            (["validate", "--plan", "{plan}", "--out", "{out}"], {"seed": -1}, "IngestError"),
            (["--seed", "-3", "validate", "--plan", "{plan}", "--out", "{out}"],
             {"scenario": {"replicates": 2}}, "ValueError"),
            (["validate", "--plan", "{plan}", "--seed", "-3", "--out", "{out}"], {}, "ValueError"),
            (bootstrap_argv("{out}", seed=-3), None, "ValueError"),
        ],
        ids=["scenario_plan", "file_plan", "global_flag", "flag", "bootstrap_flag"],
    )
    def test_negative_seed_is_named(self, tmp_path, argv, plan, error):
        if plan is not None:
            (tmp_path / "plan.json").write_text(json.dumps(plan_json(plan)))
        argv = [str(a).format(plan=tmp_path / "plan.json", out=tmp_path / "out") for a in argv]
        code, out, err = run_cli(*argv)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == error
        assert payload["message"].endswith("seed must be >= 0")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, plan, message",
        [
            (bootstrap_argv("{out}", replicates=10**9), None,
             "bootstrap: a 1000000000 x 4 x 2 replicate stack needs 64000000000 bytes"),
            (["validate", "--plan", "{plan}", "--out", "{out}"], {"replicates": 10**9},
             "simulation: replicate stacks of 1000000000 x 4 x 2 + 3 x 1000000000 x 4 x 2"
             " + 3 x 1000000000 x 4 + 2 x 1000000000 x 4 need 416000000000 bytes"),
            (["validate", "--plan", "{plan}", "--out", "{out}"],
             {"scenario": {"replicates": 10**9}},
             "simulation: replicate stacks of 1000000000 x 12 x 2 + 3 x 1000000000 x 12 x 2"
             " + 3 x 1000000000 x 12 + 2 x 1000000000 x 12 need 1248000000000 bytes"),
        ],
        ids=["bootstrap", "file_plan", "scenario_plan"],
    )
    def test_stack_over_budget_fails_before_any_replicate(
        self, tmp_path, monkeypatch, argv, plan, message
    ):
        def no_replicate(*args):
            pytest.fail("a replicate or the point fit ran")

        monkeypatch.setattr(bootstrap, "spree_update", no_replicate)
        monkeypatch.setattr(simulation, "replicate_census", no_replicate)
        if plan is not None:
            (tmp_path / "plan.json").write_text(json.dumps(plan_json(plan)))
        argv = [str(a).format(plan=tmp_path / "plan.json", out=tmp_path / "out") for a in argv]
        code, out, err = run_cli(*argv)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        if plan is not None:
            message = f"{tmp_path / 'plan.json'}: {message}"
        assert payload["error"] == ("BootstrapError" if plan is None else "IngestError")
        assert payload["message"] == f"{message}, over the budget of {2**32}"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "edits, plan, message",
        [
            ({"hierarchy.csv": ("a1,", None)}, {}, "areas not assigned in hierarchy: ['a1']"),
            ({name: ("a4,", None) for name in ("census2002.csv", "census2013.csv",
                                              "aux_replicate.csv")},
             {}, "quartile grouping needs at least 4 areas"),
            ({}, {"replicates": 10**9},
             "simulation: replicate stacks of 1000000000 x 4 x 2 + 3 x 1000000000 x 4 x 2"
             f" + 3 x 1000000000 x 4 + 2 x 1000000000 x 4 need 416000000000 bytes,"
             f" over the budget of {2**32}"),
            ({}, {"quantile_cutoff": 1.0}, "quantile_cutoff must lie in (0, 1)"),
            ({"census2002.csv": (("a1,", "a2,"), "0")}, {},
             "baseline population must be positive, got zero for: ['K']"),
            ({"large_totals.csv": ("L,", None)}, {}, "no total supplied for large areas: ['L']"),
            ({"census2002.csv": ("a1,poor,", "1e19")}, {},
             "truth_t0: area totals must be at most 9.223372006484771e+18 to redraw a census"),
            ({"census2013.csv": ("a1,poor,", "1e19")}, {},
             "truth_t: area totals must be at most 9.223372006484771e+18 to redraw a census"),
        ],
        ids=["hierarchy_gap", "three_areas", "stack_budget", "quantile_cutoff",
             "zero_baseline_region", "missing_large_total", "poisson_limit_truth_t0",
             "poisson_limit_truth_t"],
    )
    def test_a_plan_fault_fails_when_the_plan_is_built(
        self, tmp_path, monkeypatch, edits, plan, message
    ):
        """Each fault fails at ``SimulationPlan(...)``, and through ``validate
        --plan`` as a data error naming the plan file, before any round."""
        def no_round(*args):
            pytest.fail("a round started")

        monkeypatch.setattr(simulation, "replicate_census", no_round)
        mini = tmp_path / "mini"
        shutil.copytree(MINI, mini)
        for name, (starts, count) in edits.items():
            # Drop the rows that start with ``starts``, or set their last field.
            kept = []
            for row in (mini / name).read_text().splitlines():
                if row.startswith(starts):
                    if count is None:
                        continue
                    row = f"{row.rsplit(',', 1)[0]},{count}"
                kept.append(row)
            (mini / name).write_text("\n".join(kept) + "\n")
        args = dict(
            replicates=10, seed=3,
            truth_t0=sio.load_composition(mini / "census2002.csv", 0),
            truth_t=sio.load_composition(mini / "census2013.csv", 1),
            hierarchy=sio.load_hierarchy(mini / "hierarchy.csv"),
            large_totals_t=sio.load_margin(mini / "large_totals.csv", MarginLevel.LARGE_AREA, 1),
            survey_design=sio.load_design(mini / "design.csv"),
            aux_pool=(sio.load_margin(mini / "aux_replicate.csv", MarginLevel.SMALL_AREA, 1),),
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SimulationPlan(**{**args, **plan})
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan_json(plan)).replace(str(MINI), str(mini)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli("validate", "--plan", path, "--out", tmp_path / "out")
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {"error": "IngestError", "message": f"{path}: {message}"}
        assert not (tmp_path / "out").exists()

    def test_a_replicates_flag_over_the_budget_is_a_flag_error(self, tmp_path):
        """An override that fails is not a fault of the plan file: the error
        does not name it."""
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan_json({})))
        code, out, err = run_cli(
            "validate", "--plan", path, "--replicates", "1000000000", "--out", tmp_path / "out"
        )
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {
            "error": "ValueError",
            "message": "simulation: replicate stacks of 1000000000 x 4 x 2"
            " + 3 x 1000000000 x 4 x 2 + 3 x 1000000000 x 4 + 2 x 1000000000 x 4"
            f" need 416000000000 bytes, over the budget of {2**32}",
        }
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "polygons, message",
        [
            ([], "expected a GeoJSON FeatureCollection"),
            ({"type": "FeatureCollection", "features": [1]}, "feature 0: feature must be an object"),
            (one_feature(SQUARE, properties=5),
             "feature 0: properties and geometry must be objects"),
            (one_feature({"type": "Polygon", "coordinates": 5}),
             "feature 0: coordinates must be a list"),
            (one_feature({"type": "MultiPolygon", "coordinates": [5]}),
             "area 'x': expected a tuple of polygons, each a tuple of rings; got int"),
            (one_feature({"type": "Polygon", "coordinates": [[{"lon": 0}]]}),
             "area 'x' polygon 0 ring 0: ring must be a sequence of lon/lat pairs"),
            (one_feature({"type": "Polygon", "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 1]]]}),
             "area 'x' polygon 0 ring 0: ring is not closed (first vertex != last)"),
        ],
        ids=["list", "feature_number", "properties_number", "coordinates_number",
             "polygon_number", "ring_of_objects", "open_ring"],
    )
    def test_wrong_polygons_json_is_data_error(self, tmp_path, polygons, message):
        path = tmp_path / "polygons.geojson"
        path.write_text(json.dumps(polygons))
        code, out, err = run_cli(
            "aggregate", "--pixels", FIXTURES / "pixels10.csv", "--polygons", path,
            "--out", tmp_path / "out",
        )
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {"error": "IngestError", "message": f"{path}: {message}"}

    @pytest.mark.parametrize(
        "plan, message",
        [
            ({"truth_t0": 5}, "truth_t0 must be a path string"),
            ({"design": ["d.csv"]}, "design must be a path string"),
            ({"aux_pool": 5}, "aux_pool must be a list of strings"),
            ({"aux_pool": [5]}, "aux_pool must be a list of strings"),
            ({"strategies": 5}, "strategies must be a list of strings"),
            ({"strategies": "fixed"}, "strategies must be a list of strings"),
            ({"scenario": {"replicates": 2, "strategies": "fixed"}},
             "strategies must be a list of strings"),
            ({"scenario": {"replicates": 2, "quantile_cutoff": "0.5"}},
             "quantile_cutoff must be a number"),
            ({"quantile_cutoff": "0.5"}, "quantile_cutoff must be a number"),
            ({"quantile_cutoff": True}, "quantile_cutoff must be a number"),
            ({"quantile_cutoff": 10**400}, "int too large to convert to float"),
        ],
        ids=["truth_t0", "design", "aux_pool", "aux_pool_entry", "strategies",
             "strategies_string", "scenario_strategies_string", "scenario_quantile_cutoff",
             "quantile_cutoff", "quantile_cutoff_bool", "quantile_cutoff_past_the_float_range"],
    )
    def test_wrong_plan_json_type_is_data_error(self, tmp_path, plan, message):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan_json(plan)))
        code, out, err = run_cli("validate", "--plan", path, "--out", tmp_path / "out")
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {"error": "IngestError", "message": f"{path}: {message}"}

    def test_repeated_strategy_in_a_plan_file_is_data_error(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan_json({"strategies": ["fixed", "dynamic", "fixed"]})))
        code, out, err = run_cli("validate", "--plan", path, "--out", tmp_path / "out")
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {
            "error": "IngestError", "message": f"{path}: repeated strategies: ['fixed']",
        }
        assert not (tmp_path / "out").exists()

    def test_repeated_strategy_in_a_scenario_plan_is_data_error(self, tmp_path):
        path = tmp_path / "plan.json"
        scenario = {"replicates": 2, "strategies": ["fixed", "fixed"]}
        path.write_text(json.dumps({"scenario": scenario}))
        code, out, err = run_cli("validate", "--plan", path, "--out", tmp_path / "out")
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {
            "error": "IngestError", "message": f"{path}: repeated strategies: ['fixed']",
        }
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cutoff", [math.nan, math.inf, -math.inf])
    def test_non_finite_quantile_cutoff_is_data_error(self, tmp_path, cutoff):
        """Python's json writes and reads NaN and Infinity as floats."""
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan_json({"replicates": 2, "quantile_cutoff": cutoff})))
        code, out, err = run_cli("validate", "--plan", path, "--out", tmp_path / "out")
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {
            "error": "IngestError", "message": f"{path}: quantile_cutoff must lie in (0, 1)",
        }

    @pytest.mark.parametrize("cv", [1e200, 10**400], ids=["float", "json-integer"])
    def test_an_aux_cv_too_large_to_square_is_data_error(self, tmp_path, cv):
        """A finite CV past the square root of the float range; a JSON
        integer that large cannot even be made a float."""
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"scenario": {"replicates": 2, "aux_cv": cv}}))
        code, out, err = run_cli("validate", "--plan", path, "--out", tmp_path / "out")
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {
            "error": "IngestError", "message": f"{path}: aux_cv {cv!r} is too large to square",
        }
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "cv, message",
        [
            ("nan", "aux_perturb_cv must be finite"),
            ("inf", "aux_perturb_cv must be finite"),
            ("-inf", "aux_perturb_cv must be finite"),
            ("1e200", "perturb_cv 1e+200 is too large to square"),
        ],
    )
    def test_a_bad_aux_perturb_cv_is_data_error(self, tmp_path, cv, message):
        """Without ``--aux-pool`` the point margin is perturbed by the CV."""
        out_dir = tmp_path / "out"
        code, out, err = run_cli(*bootstrap_argv(out_dir), f"--aux-perturb-cv={cv}")
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {"error": "ValueError", "message": message}
        assert not out_dir.exists()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_a_json_number_in_a_profile_or_plan_never_ends_in_a_traceback(self, data):
        """One profile weight or cutoff, one number of an inline scenario,
        or the top-level ``replicates`` or ``seed``, set to one of
        :data:`JSON_NUMBERS`.  A bad value is an error naming the file, also
        where the plan loads but cannot run."""
        value = data.draw(st.sampled_from(JSON_NUMBERS))
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "in.json"
            if data.draw(st.booleans()):
                doc = json.loads((FIXTURES / "profile9.json").read_text())
                spot = data.draw(st.integers(-1, len(doc["indicators"]) - 1))
                if spot < 0:
                    doc["cutoff"] = "@"
                else:
                    doc["indicators"][spot]["weight"] = "@"
                argv = ["mpi", "--households", FIXTURES / "households3.csv", "--profile", path]
            else:
                doc = {"scenario": {"replicates": 1}}
                names = [*SCENARIO_NUMBERS, "top replicates", "top seed"]
                name = data.draw(st.sampled_from(names))
                if name.startswith("top "):
                    doc[name[4:]] = "@"
                else:
                    cell = json.loads(json.dumps(getattr(ScenarioConfig(), name)))
                    doc["scenario"][name] = cell if isinstance(cell, list) else "@"
                    while isinstance(cell, list):
                        k = data.draw(st.integers(0, len(cell) - 1))
                        if not isinstance(cell[k], list):
                            cell[k] = "@"
                        cell = cell[k]
                argv = ["validate", "--plan", path]
            path.write_text(json.dumps(doc).replace('"@"', value))
            code, out, err = run_cli(*argv, "--out", Path(d) / "out")
        if code == 0:
            assert err == ""
            return
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["message"].startswith(f"{path}: ")

    @pytest.mark.parametrize(
        "argv, edit, error",
        [
            (update_argv("{out}"), ("hierarchy.csv", "a1,"),
             ("ValueError", "areas not assigned in hierarchy: ['a1']")),
            (update_argv("{out}", mode="hybrid", aux=MINI / "aux.csv"), ("hierarchy.csv", "a1,"),
             ("ValueError", "areas not assigned in hierarchy: ['a1']")),
            (bootstrap_argv("{out}"), ("hierarchy.csv", "a1,"),
             ("ValueError", "areas not assigned in hierarchy: ['a1']")),
            (["validate", "--plan", "{plan}", "--out", "{out}"], ("hierarchy.csv", "a1,"),
             ("IngestError", "{plan}: areas not assigned in hierarchy: ['a1']")),
            (["shares", "--mode", "fixed", "--census", MINI / "census2002.csv",
              "--hierarchy", MINI / "hierarchy.csv", "--projections", MINI / "projections.csv",
              "--year", "2013", "--out", "{out}"], ("projections.csv", "L,"),
             ("ValueError", "no total supplied for large areas: ['L']")),
            (update_argv("{out}"), ("projections.csv", "L,"),
             ("UpdateError", "[margins] no total supplied for large areas: ['L']")),
            (update_argv("{out}", mode="hybrid", aux=MINI / "aux.csv"),
             ("projections.csv", "reversed"), None),
        ],
        ids=["update_fixed_hierarchy", "update_hybrid_hierarchy", "bootstrap_hierarchy",
             "validate_hierarchy", "shares_projections", "update_projections",
             "hybrid_projections_reversed"],
    )
    def test_join_to_the_hierarchy(self, tmp_path, argv, edit, error):
        """Tables join the hierarchy by id: a row missing from the hierarchy or
        the projections is a data error naming it, and the order of the
        projection rows does not matter."""
        name, how = edit
        rows = (MINI / name).read_text().splitlines()
        if how == "reversed":
            rows = rows[:1] + rows[:0:-1]
        else:
            rows = [r for r in rows if not r.startswith(how)]
        mini = tmp_path / "mini"
        mini.mkdir()
        for path in MINI.iterdir():
            (mini / path.name).write_bytes(path.read_bytes())
        (mini / name).write_text("\n".join(rows) + "\n")
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(plan_json({})).replace(str(MINI), str(mini)))

        def run(data: Path, out: str) -> tuple[int, str, str]:
            fill = dict(plan=plan, out=tmp_path / out)
            return run_cli(*(str(a).replace(str(MINI), str(data)).format(**fill) for a in argv))

        code, out, err = run(mini, "out")
        if error is None:
            assert (code, err) == (0, "")
            assert run(MINI, "in_order")[0] == 0
            fitted = (tmp_path / "out" / "fitted.csv").read_bytes()
            assert fitted == (tmp_path / "in_order" / "fitted.csv").read_bytes()
            return
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {"error": error[0], "message": error[1].format(plan=plan)}
        assert not (tmp_path / "out").exists()

    def test_missing_input_file_is_data_error(self, tmp_path):
        code, _, err = run_cli(
            "mpi", "--households", tmp_path / "nope.csv", "--out", tmp_path
        )
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "IngestError"
        assert "nope.csv" in payload["message"]

    def test_year_not_in_projections(self, tmp_path):
        argv = update_argv(tmp_path)
        argv[argv.index("2013")] = "2099"
        code, _, err = run_cli(*argv)
        assert code == 1
        assert "2099" in json.loads(err)["message"]

    def test_missing_out_is_data_error(self, tmp_path):
        argv = update_argv(tmp_path)[:-2]
        code, _, err = run_cli(*argv)
        assert code == 1
        assert "--out" in json.loads(err)["message"]

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("frobnicate")
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("aggregate", "--pixels", FIXTURES / "pixels10.csv")
        assert exc.value.code == 2

    def test_bad_zeros_syntax_exits_2(self, tmp_path):
        for zeros in ("fuzzy", "epsilon:x"):
            argv = update_argv(tmp_path) + ["--zeros", zeros]
            with pytest.raises(SystemExit) as exc:
                run_cli(*argv)
            assert exc.value.code == 2


class TestEnvironmentFallback:
    def shares_argv(self, out_dir, *extra) -> list[str]:
        return [
            "shares",
            "--census", MINI / "census2002.csv",
            "--hierarchy", MINI / "hierarchy.csv",
            "--aux", MINI / "aux.csv",
            "--year", "2013",
            "--out", out_dir,
            *extra,
        ]

    def test_env_supplies_required_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPREEKIT_MODE", "dynamic")
        code, _, err = run_cli(*self.shares_argv(tmp_path))
        assert code == 0, err
        shares = {r["id"]: float(r["value"]) for r in read_rows(tmp_path / "shares.csv")}
        assert shares["a1"] == pytest.approx(1150 / 2200, abs=1e-12)

    def test_explicit_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPREEKIT_MODE", "dynamic")
        code, _, err = run_cli(*self.shares_argv(tmp_path, "--mode", "fixed"))
        assert code == 0, err
        shares = {r["id"]: float(r["value"]) for r in read_rows(tmp_path / "shares.csv")}
        assert shares["a1"] == 0.5

    def test_env_for_typed_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPREEKIT_REPLICATES", "3")
        code, _, err = run_cli(
            "validate",
            "--plan", FIXTURES / "mini_plan.json",
            "--seed", "5",
            "--out", tmp_path,
        )
        assert code == 0, err
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["strategies"]["fixed"]["completed"] == 3

    def test_env_named_after_flag_not_dest(self, tmp_path, monkeypatch):
        # bootstrap --census stores into seed_composition; its variable is
        # still SPREEKIT_CENSUS, and the dest-named one is not read.
        argv = bootstrap_argv(tmp_path, replicates=2)
        i = argv.index("--census")
        monkeypatch.setenv("SPREEKIT_CENSUS", str(argv[i + 1]))
        monkeypatch.setenv("SPREEKIT_SEED_COMPOSITION", "no-such-file.csv")
        del argv[i : i + 2]
        code, _, err = run_cli(*argv)
        assert code == 0, err
        monkeypatch.delenv("SPREEKIT_CENSUS")
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "key, value, keep_flag",
        [
            ("SPREEKIT_CUTOFF", "not-a-number", False),
            # A value outside the flag's choices, not a silent fallback.
            ("SPREEKIT_SHARES_MODE", "bogus", False),
            ("SPREEKIT_UNIT", "acres", False),
            # Checked even where the explicit --unit persons would win.
            ("SPREEKIT_UNIT", "acres", True),
            # A type function's ArgumentTypeError, not a traceback.
            ("SPREEKIT_ZEROS", "bad", False),
        ],
        ids=["cutoff", "shares_mode", "unit", "unit_with_flag", "zeros"],
    )
    def test_invalid_env_value_exits_2(self, tmp_path, monkeypatch, key, value, keep_flag):
        monkeypatch.setenv(key, value)
        argv = update_argv(tmp_path)
        flag = "--" + key.removeprefix("SPREEKIT_").lower().replace("_", "-")
        if flag in argv and not keep_flag:  # the environment alone supplies it
            del argv[argv.index(flag) : argv.index(flag) + 2]
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2


HYBRID_INPUTS = ["--hierarchy", MINI / "hierarchy.csv", "--projections", MINI / "projections.csv",
                 "--aux", MINI / "aux.csv", "--year", "2013"]
HYBRID_MARGINS = ["--col-margin", MINI / "survey_margin.csv", "--shares-mode", "hybrid",
                  *HYBRID_INPUTS]
HYBRID_BOOTSTRAP = ["bootstrap", "--census", MINI / "census2002.csv", *HYBRID_MARGINS,
                    "--design", MINI / "design.csv", "--replicates", "50"]


@pytest.mark.parametrize(
    "argv",
    [
        ["update", "--seed", MINI / "census2002.csv", *HYBRID_MARGINS, "--unit", "persons"],
        HYBRID_BOOTSTRAP,
        [*HYBRID_BOOTSTRAP, "--col-resample", "iid-category"],
        [*HYBRID_BOOTSTRAP, "--aux-resample", "none"],
        [*HYBRID_BOOTSTRAP, "--col-resample", "none", "--aux-resample", "none"],
        ["shares", "--mode", "hybrid", "--census", MINI / "census2002.csv", *HYBRID_INPUTS],
    ],
    ids=["update", "bootstrap", "bootstrap_iid", "bootstrap_no_aux", "bootstrap_census_only",
         "shares"],
)
def test_hybrid_shares_run_without_warnings(tmp_path, argv):
    done = run_python("-m", "spreekit.cli", *argv, "--out", tmp_path)
    assert (done.returncode, done.stderr) == (0, "")


def test_readme_library_quick_start_runs():
    readme = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library quick start\n+```python\n(.*?)^```$", readme, re.S | re.M)
    assert block is not None, "README.md has no python block under '## Library quick start'"
    done = run_python("-c", block.group(1))
    assert done.returncode == 0, done.stderr


def lower_split_thresholds(monkeypatch) -> list:
    """Lower every split threshold, so that each call below forks on two
    CPUs; and give the list that gets an entry at each fork."""
    monkeypatch.setattr(simulation, "_ROUNDS_PER_PROCESS", 1)
    monkeypatch.setattr(geo, "_AREAS_PER_PROCESS", 1)
    monkeypatch.setattr(sio, "_BLOCK_ROWS", 1)
    monkeypatch.setattr(sio, "_ROWS_PER_PROCESS", 2)
    monkeypatch.setattr(sio, "_BYTES_PER_PROCESS", 64)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


# The two areas and 100 pixels that aggregate_pixels splits, read once.
AGGREGATE_INPUTS = (
    sio.load_pixels(FIXTURES / "pixels10.csv"),
    sio.load_polygons(FIXTURES / "polygons_vertical.geojson"),
)

# The five library calls that split, each called with its defaults.
LIBRARY_CALLS = {
    "run_simulation": lambda: simulation.run_simulation(
        sio.load_plan(FIXTURES / "mini_plan.json")
    ),
    "csv_text": lambda: list(sio.csv_text(("id",), [list("abcdefgh")], "\n")),
    "load_households": lambda: sio.load_households(FIXTURES / "households3.csv"),
    "load_pixels": lambda: sio.load_pixels(FIXTURES / "pixels10.csv"),
    "aggregate_pixels": lambda: geo.aggregate_pixels(*AGGREGATE_INPUTS),
}


@pytest.mark.parametrize("name", LIBRARY_CALLS)
def test_a_library_call_gives_the_same_bits_split_or_not(monkeypatch, name):
    """On one CPU, and on four, where it forks."""
    forks = lower_split_thresholds(monkeypatch)
    call = LIBRARY_CALLS[name]
    fake_cpus(monkeypatch, 1)
    want = report_bits(call())
    assert forks == []
    fake_cpus(monkeypatch, 4)
    assert report_bits(call()) == want
    assert forks


@pytest.mark.skipif(
    sys.version_info < (3, 12), reason="Python warns of a multi-threaded fork from 3.12 on"
)
def test_no_command_forks_while_another_thread_is_alive(tmp_path, monkeypatch):
    """One run each of the four forking commands and of the five library
    calls that split, called with their defaults, on four CPUs and with
    every split threshold lowered so that each forks.  Python 3.12 and
    later warn at a fork while another thread is alive ("This process ...
    is multi-threaded, use of fork() may lead to deadlocks in the child");
    no run may.  A ``filterwarnings`` error entry cannot catch it: CPython
    clears the error it would raise there, and the run goes on."""
    fake_cpus(monkeypatch, 4)
    forks = lower_split_thresholds(monkeypatch)

    def command(*argv):
        def run():
            assert run_cli(*argv)[0] == 0, argv[0]

        return argv[0], run

    runs = [
        command(*TestValidate().validate_argv(tmp_path / "validate")),
        command(*bootstrap_argv(tmp_path / "bootstrap")),
        command(*TestMpi().mpi_argv(tmp_path / "mpi")),
        command("aggregate", "--pixels", FIXTURES / "pixels10.csv",
                "--polygons", FIXTURES / "polygons_vertical.geojson",
                "--out", tmp_path / "aggregate"),
        *LIBRARY_CALLS.items(),
    ]
    for name, run in runs:
        before = len(forks)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run()
        assert len(forks) > before, name
        threaded = [str(w.message) for w in caught if "is multi-threaded" in str(w.message)]
        assert threaded == [], name


# numpy picks its SIMD loops at import, by the CPU.  With these switched
# off it runs its SSE baseline loops, as on a CPU without AVX-512 or AVX2.
BASELINE_LOOPS = "AVX512_SPR,AVX512_ICL,X86_V4,X86_V3"
# Runs pytest on its arguments; or exits 77, saying why, where numpy's AVX2
# loops are not switched off.  numpy 2.4 keys them on X86_V3, and reads
# AVX2 itself from the CPU whatever is switched off.
ON_BASELINE_LOOPS = """\
import sys

import pytest

try:
    from numpy._core._multiarray_umath import __cpu_features__ as cpu
except Exception as e:  # numpy 1.x, or a feature it cannot switch off
    print(f"numpy did not start with its AVX2 loops off: {e}")
    sys.exit(77)
level = "X86_V3" if "X86_V3" in cpu else "AVX2"
if cpu.get(level) is not False:
    print(f"{level} reads {cpu.get(level)} in numpy's __cpu_features__")
    sys.exit(77)
sys.exit(pytest.main(sys.argv[1:]))
"""


def test_the_recorded_digests_hold_on_numpy_baseline_loops():
    """The golden digests and the RNG contract, rerun in a process where
    numpy runs its baseline loops: a byte that depends on the CPU fails
    here, not only on a CPU without AVX-512 or AVX2."""
    done = run_python(
        "-c", ON_BASELINE_LOOPS, "-q", "-p", "no:cacheprovider",
        "tests/test_cli.py", "tests/test_rng_contract.py",
        "-k", "(golden or rng_contract) and not baseline_loops",
        NPY_DISABLE_CPU_FEATURES=BASELINE_LOOPS,
    )
    if done.returncode == 77:
        pytest.skip(done.stdout.strip())
    assert done.returncode == 0, done.stdout + done.stderr
