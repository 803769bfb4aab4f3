import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import bhk
import bhk.report as report_module
from bhk.cli import main
from bhk.report import (
    DEFAULT_TOLERANCES,
    REPORT_SCHEMA,
    SUITES,
    RunConfig,
    run_suite,
)

SMALL_CONFIG = {
    "n": 2,
    "gamma": [0.5, 1.5],
    "grid": {"x_max": 8.0, "points": 48},
    "angles": 24,
    "sphere_points": 48,
    "eps_seq": [0.4, 0.2, 0.1, 0.05],
    "tolerances": {},
    "output": "report.json",
}

# the n = 3 size README's Scope documents for the transform and riesz suites
N3_CONFIG = {"n": 3, "gamma": [0.5, 1.0, 1.5], "grid": {"x_max": 8.0, "points": 48},
             "angles": 16, "sphere_points": 16}

# non-dyadic n = 2 gammas drawn from U[0.05, 5]
SEEDED_GAMMAS = np.random.default_rng(8).uniform(0.05, 5.0, (2, 2)).tolist()


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return path


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.gamma == (0.5, 1.5)
        assert cfg.points == 96
        assert cfg.tol("mvt") == DEFAULT_TOLERANCES["mvt"]

    def test_round_trip(self):
        cfg = RunConfig.from_dict(SMALL_CONFIG)
        assert cfg.points == 48
        assert RunConfig.from_dict(cfg.as_dict()) == cfg

    def test_tolerance_override(self):
        cfg = RunConfig.from_dict({**SMALL_CONFIG, "tolerances": {"mvt": 0.5}})
        assert cfg.tol("mvt") == 0.5

    @pytest.mark.parametrize(
        "patch",
        [
            {"n": 3},
            {"gamma": [0.5, -1.0]},
            {"grid": {"x_max": -2.0, "points": 48}},
            {"tolerances": {"mvt": 0.0}},
            {"bogus": 1},
            {"grid": {"pts": 5}},
            {"tolerances": {"mvtt": 1e-3}},
        ],
    )
    def test_validation(self, patch):
        with pytest.raises((ValueError, KeyError)):
            RunConfig.from_dict({**SMALL_CONFIG, **patch})

    def test_empty_dict_gives_defaults(self):
        assert RunConfig.from_dict({}) == RunConfig()


class TestRunSuite:
    def test_special_report_structure(self, tmp_path):
        cfg = RunConfig.from_dict(SMALL_CONFIG)
        report = run_suite(cfg, "special")
        jsonschema.validate(report, REPORT_SCHEMA)
        s = report["summary"]
        assert s["total"] == len(report["rows"])
        assert s["passed"] + s["failed"] == s["total"]
        assert s["failed"] == 0
        for row in report["rows"]:
            assert row["rel_err"] == pytest.approx(
                row["abs_err"] / max(abs(row["expected"]), 1e-300)
            )

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite(RunConfig(), "nope")

    @pytest.mark.parametrize("suite", ["pizzetti", "estimates"])
    def test_pass_is_the_tolerance_rule(self, suite):
        # tol = 0 rows (pizzetti-decay, info rows) demand abs_err == 0
        report = run_suite(RunConfig.from_dict(SMALL_CONFIG), suite)
        for r in report["rows"]:
            rule = r["abs_err"] <= r["tol"] * r["scale"] if r["tol"] > 0 else r["abs_err"] == 0
            assert r["pass"] == rule, r["check"]

    def test_mean_value_constant_row(self):
        cfg = RunConfig.from_dict(SMALL_CONFIG)
        report = run_suite(cfg, "mean-value")
        rows = [r for r in report["rows"]
                if r["check"] == "mvt" and r["inputs"].get("u") == "constant"]
        assert rows and all(r["expected"] == pytest.approx(0.25) for r in rows)
        # mean-value rows carry the documented extra keys
        for r in rows:
            assert {"gamma", "R", "lhs", "rhs", "rel_err", "pass"} <= set(r)

    def test_riesz_rows_carry_documented_keys(self):
        cfg = RunConfig.from_dict(SMALL_CONFIG)
        report = run_suite(cfg, "riesz")
        rows = [r for r in report["rows"] if r["check"] == "riesz-multiplier"]
        assert rows
        for r in rows:
            assert {"k", "gamma", "point", "spatial", "spectral",
                    "rel_err", "pass"} <= set(r)

    @pytest.fixture
    def plan_builds(self, monkeypatch):
        calls = []
        build = report_module.build_fb_plan
        monkeypatch.setattr(report_module, "build_fb_plan",
                            lambda grid: calls.append(grid) or build(grid))
        return calls

    def test_one_fb_plan_per_report(self, plan_builds):
        report = run_suite(RunConfig(), "all")
        assert report["summary"]["failed"] == 0
        assert len(plan_builds) == 1
        run_suite(RunConfig(), "transform")  # a later report builds its own
        assert len(plan_builds) == 2

    @pytest.mark.parametrize("suite", ["riesz", "estimates"])
    def test_fb_plan_suite_alone(self, suite, plan_builds, tmp_path):
        out = tmp_path / "r.json"
        assert main(["run", "--suite", suite, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["summary"]["failed"] == 0 and report["summary"]["total"] > 1
        assert len(plan_builds) == 1

    def test_transform_suite_n3(self):
        report = run_suite(RunConfig.from_dict(N3_CONFIG), "transform")
        assert [r["check"] for r in report["rows"] if not r["pass"]] == []
        assert report["summary"] == {"failed": 0, "passed": 12, "total": 12}

    def test_riesz_suite_n3(self):
        report = run_suite(RunConfig.from_dict(N3_CONFIG), "riesz")
        assert [r["check"] for r in report["rows"] if not r["pass"]] == []
        assert report["summary"] == {"failed": 0, "passed": 10, "total": 10}

    @pytest.mark.parametrize("gamma", SEEDED_GAMMAS)
    def test_seeded_gamma_has_no_suite_error(self, gamma):
        # rows may still fail on their tolerances (v-consistency, and
        # shift-preservation near gamma_i = 5); no suite may raise
        report = run_suite(RunConfig.from_dict({"n": 2, "gamma": gamma}), "all")
        assert [r["inputs"] for r in report["rows"] if r["check"] == "suite-error"] == []


class TestCliRun:
    def test_exit_zero_and_report(self, config_path, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(["run", "--suite", "special", "--config", str(config_path),
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["summary"]["failed"] == 0
        assert "checks passed" in capsys.readouterr().out

    def test_byte_identical_reports(self, config_path, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["run", "--suite", "special", "--config", str(config_path),
                     "--out", str(a)]) == 0
        assert main(["run", "--suite", "special", "--config", str(config_path),
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_config_exit_2_no_report(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "r.json"
        code = main(["run", "--suite", "special", "--config", str(bad),
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_invalid_schema_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**SMALL_CONFIG, "gamma": [0.5, -2.0]}))
        assert main(["run", "--suite", "special", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("patch, key", [
        ({"grid": {"x_max": 8.0, "pts": 5}}, "pts"),
        ({"tolerances": {"mvtt": 1e-3}}, "mvtt"),
    ])
    def test_misspelt_key_exit_2_no_report(self, tmp_path, capsys, patch, key):
        # a misspelt key must not fall back silently to the default
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**SMALL_CONFIG, **patch}))
        out = tmp_path / "r.json"
        assert main(["run", "--suite", "special", "--config", str(bad),
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("eps_seq", [
        [0.05, 0.4], [], [0.2, 0.2, 0.1], [1.5, 0.4], [0.4, 0.0], [0.4, -0.1], 0.4,
    ])
    def test_bad_eps_seq_exit_2_no_report(self, tmp_path, capsys, eps_seq):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**SMALL_CONFIG, "eps_seq": eps_seq}))
        out = tmp_path / "r.json"
        assert main(["run", "--suite", "all", "--config", str(bad),
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert "config error" in capsys.readouterr().err

    def test_decimal_gamma_report_passes(self, tmp_path):
        # gamma_1 = 0.1 is not a short dyadic: B-harmonic bases need exact
        # Fraction coefficients for the kernel gates to accept them
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n": 2, "gamma": [0.1, 2.5]}))
        out = tmp_path / "r.json"
        assert main(["run", "--suite", "all", "--config", str(path),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["summary"] == {"failed": 0, "passed": 99, "total": 99}

    def test_unknown_suite_exit_2(self, config_path):
        assert main(["run", "--suite", "bogus", "--config", str(config_path)]) == 2

    def test_threads_override(self, config_path, tmp_path, monkeypatch):
        import os

        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        out = tmp_path / "r.json"
        code = main(["run", "--suite", "special", "--config", str(config_path),
                     "--out", str(out), "--threads", "1"])
        assert code == 0
        assert os.environ["OMP_NUM_THREADS"] == "1"

    def test_failing_row_exit_1(self, tmp_path, capsys):
        strict = dict(SMALL_CONFIG)
        strict["tolerances"] = {"special-ode": 1e-300}
        path = tmp_path / "strict.json"
        path.write_text(json.dumps(strict))
        out = tmp_path / "r.json"
        code = main(["run", "--suite", "special", "--config", str(path),
                     "--out", str(out)])
        assert code == 1
        assert out.exists()  # report still written; failures are row-level
        assert "FAIL" in capsys.readouterr().err

    def test_suite_exception_is_a_failing_row(self, config_path, tmp_path, capsys,
                                              monkeypatch):
        def boom(cfg):
            raise RuntimeError("self-test failed")

        # the suites after a failing one still run
        monkeypatch.setattr(report_module, "SUITES",
                            {"shift": boom, "special": SUITES["special"]})
        out = tmp_path / "r.json"
        code = main(["run", "--suite", "all", "--config", str(config_path),
                     "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        jsonschema.validate(report, REPORT_SCHEMA)
        assert {r["suite"] for r in report["rows"]} == {"shift", "special"}
        bad = [r for r in report["rows"] if not r["pass"]]
        assert [(r["suite"], r["check"]) for r in bad] == [("shift", "suite-error")]
        assert bad[0]["inputs"] == {"error": "RuntimeError", "message": "self-test failed"}
        assert report["summary"]["failed"] == 1
        assert "RuntimeError: self-test failed" in capsys.readouterr().err


class TestEmit:
    def test_row_count(self, config_path, tmp_path):
        out = tmp_path / "g.csv"
        code = main(["emit", "--function", "gaussian", "--config",
                     str(config_path), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 48 * 48
        assert lines[0] == "x_1,x_2,value"

    def test_harmonic_vanishes_at_origin(self):
        from bhk.corpus import corpus_function

        fn = corpus_function("b-harmonic-k2", (0.5, 1.5))
        assert float(np.asarray(fn(np.zeros((1, 2))))[0]) == 0.0

    def test_transform_csv_matches_closed_form(self, config_path, tmp_path):
        out = tmp_path / "g.csv"
        code = main(["emit", "--function", "gaussian", "--transform",
                     "--config", str(config_path), "--out", str(out)])
        assert code == 0
        tpath = tmp_path / "g.transform.csv"
        first = tpath.read_text().splitlines()[1].split(",")
        y = np.array([float(first[0]), float(first[1])])
        from bhk.transform import gaussian_transform

        assert abs(float(first[2]) - gaussian_transform((0.5, 1.5), 1.0, y)) < 1e-6

    def test_unknown_function_exit_2(self, config_path, tmp_path):
        code = main(["emit", "--function", "nope", "--config", str(config_path),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2


class TestNoScipyOnReportPath:
    """The report path imports no scipy (it is used only by is_elliptic)."""

    def _scipy_modules_after(self, code, tmp_path):
        src = str(Path(bhk.__file__).resolve().parent.parent)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        probe = (f"import sys\n{code}\n"
                 "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
        done = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        return done.stdout.splitlines()[-1]

    def test_import_bhk(self, tmp_path):
        assert self._scipy_modules_after("import bhk", tmp_path) == "[]"

    def test_cli_report_all_suites(self, tmp_path):
        code = ("from bhk.cli import main\n"
                "assert main(['run', '--suite', 'all', '--out', 'report.json']) == 0")
        assert self._scipy_modules_after(code, tmp_path) == "[]"
        assert json.loads((tmp_path / "report.json").read_text())["summary"]["failed"] == 0
