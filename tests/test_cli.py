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
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from spreekit.cli import main

from conftest import FIXTURES

MINI = FIXTURES / "mini"


def run_cli(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


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

    def test_hybrid_mode_runs(self, tmp_path):
        code, _, err = run_cli(*update_argv(tmp_path, mode="hybrid", aux=MINI / "aux.csv"))
        assert code == 0, err
        cells = cell_map(tmp_path / "fitted.csv")
        total = sum(cells.values())
        assert total == pytest.approx(4300.0, rel=1e-8)

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

    def test_plan_file_defaults_apply(self, tmp_path):
        # Without overrides the plan's own replicate count (10) runs.
        code, _, err = run_cli(
            "validate", "--plan", FIXTURES / "mini_plan.json", "--out", tmp_path
        )
        assert code == 0, err
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["strategies"]["fixed"]["completed"] == 10


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


class TestAggregate:
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
        argv = update_argv(tmp_path) + ["--zeros", "fuzzy"]
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
