import ast
import builtins
import copy
import errno
import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from numpy.testing import assert_allclose

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


_DELETE = object()


def _mutated(doc, path, value):
    """Copy of doc with the entry at path set to value (removed for _DELETE);
    only the containers along path are copied."""
    if not path:
        return value
    head, rest = path[0], path[1:]
    out = list(doc) if isinstance(doc, list) else dict(doc)
    if rest or value is not _DELETE:
        out[head] = _mutated(doc[head], rest, value)
    else:
        del out[head]
    return out


@pytest.fixture(scope="module")
def default_report():
    return run_suite(RunConfig(), "all")


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
            {"tolerances": {"mvt": float("nan")}},
        ],
    )
    def test_validation(self, patch):
        with pytest.raises((ValueError, KeyError)):
            RunConfig.from_dict({**SMALL_CONFIG, **patch})

    def test_whole_float_sizes_read_as_ints(self):
        cfg = RunConfig.from_dict({**SMALL_CONFIG, "n": 2.0, "angles": 24.0,
                                   "grid": {"x_max": 8.0, "points": 48.0}})
        assert cfg == RunConfig.from_dict(SMALL_CONFIG)
        assert all(type(v) is int for v in (cfg.n, cfg.points, cfg.angles))

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
                row["abs_err"] / max(row["scale"], 1e-300)
            )

    @pytest.mark.parametrize("gamma", [None, [0.3, 0.7]], ids=["default", "g0.3-0.7"])
    def test_rel_err_is_the_pass_rule(self, default_report, gamma):
        # rel_err is abs_err on the pass rule's scale, so it decides pass by
        # itself; at (0.3, 0.7) the v-consistency error is NaN and still fails
        if gamma is None:
            report = default_report
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                report = run_suite(RunConfig.from_dict({"gamma": gamma}), "all")
        rows = [r for r in report["rows"] if r["check"] != "suite-error"]
        assert [r for r in rows if (r["rel_err"] <= r["tol"]) != r["pass"]] == []
        nan = [r["check"] for r in rows if math.isnan(r["rel_err"])]
        assert nan == ([] if gamma is None else ["v-consistency"])

    def test_lp_norm_calls_per_estimates_suite(self, monkeypatch):
        # each probe norm is computed once: 3 per a-priori member and 2 per
        # (member, p) of the riesz-lp table
        riesz = importlib.import_module("bhk.riesz")
        calls = []
        monkeypatch.setattr(riesz, "lp_norm", lambda f, p, norm=riesz.lp_norm:
                            calls.append(p) or norm(f, p))
        report = run_suite(RunConfig(), "estimates")
        assert report["summary"]["failed"] == 0
        assert len(calls) == 21

    def test_one_forward_transform_per_estimates_member(self, monkeypatch):
        # each family member is transformed once and its transform shared by
        # the mixed, elliptic and Riesz multipliers: 3 forward transforms (the
        # probes' three fresh transforms per member made 9), 9 inverse ones
        counts = {"fb_forward": 0, "fb_inverse": 0}
        for name in ("bhk.report", "bhk.riesz"):
            mod = importlib.import_module(name)
            for fn in counts:
                if hasattr(mod, fn):
                    monkeypatch.setattr(mod, fn, lambda *a, fn=fn, orig=getattr(mod, fn):
                                        counts.__setitem__(fn, counts[fn] + 1) or orig(*a))
        report = run_suite(RunConfig(), "estimates")
        assert report["summary"]["failed"] == 0
        assert counts == {"fb_forward": 3, "fb_inverse": 9}

    @pytest.mark.parametrize("config", [{}, {"gamma": [0.05, 5]},
                                        {"n": 3, "gamma": [0.5, 1.0, 1.5],
                                         "grid": {"points": 48}}],
                             ids=["default", "g0.05-5", "n3-48"])
    def test_fb_roundtrip_row_is_the_plan_self_test(self, config, monkeypatch):
        # the row reads build_fb_plan's stored error, bitwise an explicit
        # round trip of the unit Gaussian, and transforms nothing again
        transform = importlib.import_module("bhk.transform")
        cfg = RunConfig.from_dict(config)
        grid = importlib.import_module("bhk.grids").build_tensor_grid(cfg.gamma, cfg.x_max,
                                                                      cfg.points)
        plan = transform.build_fb_plan(grid)
        f = plan.grid.sample(lambda p: np.exp(-np.sum(p * p, axis=-1)))
        back = transform.fb_inverse(plan, transform.fb_forward(plan, f))
        want = float(np.max(np.abs(back.values - f.values)))
        assert plan.self_test_error == want
        inverses = []
        monkeypatch.setattr(transform, "fb_inverse", lambda *a, orig=transform.fb_inverse:
                            inverses.append(a) or orig(*a))
        rows = run_suite(cfg, "transform")["rows"]
        assert [r["computed"] for r in rows if r["check"] == "fb-roundtrip"] == [want]
        assert len(inverses) == 1  # the plan's own self-test

    @pytest.mark.parametrize("points", [8, 9])
    def test_shift_suite_on_the_smallest_grids(self, points):
        # RunConfig accepts 8 points; shift_grid's stencil narrows to the
        # grid, so every shift row is written and none is a suite-error
        report = run_suite(RunConfig.from_dict({"grid": {"points": points}}), "shift")
        assert [r["check"] for r in report["rows"]] == [
            "shift-identity", "shift-normalization", "shift-square",
            "shift-symmetry", "shift-preservation", "shift-product-formula"]

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite(RunConfig(), "nope")

    def test_schema_is_valid_draft_2020_12(self):
        # run_suite reads it through report._validate, which does not check
        # the schema itself; jsonschema is the oracle here and in the tests below
        jsonschema.Draft202012Validator.check_schema(REPORT_SCHEMA)

    def test_validate_interprets_every_schema_keyword(self):
        # a keyword _validate does not read would be ignored without a word
        interpreted = {"type", "required", "properties", "items", "minimum"}

        def walk(schema, path):
            assert set(schema) <= interpreted, (path, set(schema) - interpreted)
            assert schema.get("type", "object") in report_module._JSON_TYPES, path
            for key, sub in schema.get("properties", {}).items():
                walk(sub, f"{path}.{key}")
            if "items" in schema:
                walk(schema["items"], f"{path}[]")

        walk({k: v for k, v in REPORT_SCHEMA.items() if k != "$schema"}, "report")

    def test_validate_agrees_with_jsonschema(self, default_report):
        # every schema path of the default report, set to each value or deleted
        rows = default_report["rows"]
        fields = REPORT_SCHEMA["properties"]["rows"]["items"]["properties"]
        paths = [(), *[(k,) for k in REPORT_SCHEMA["properties"]]]
        for i in (0, len(rows) - 1):
            paths += [("rows", i), *[("rows", i, k) for k in fields]]
        paths += [("summary", k) for k in ("total", "passed", "failed")]
        values = [None, True, 0, -1, 3.0, 2.5, float("nan"), float("inf"),
                  float("-inf"), "x", [], (), {}, np.float64(-1), np.int64(2), _DELETE]
        oracle = jsonschema.Draft202012Validator(REPORT_SCHEMA)
        verdicts, disagree = [], []
        for path in paths:
            for value in values:
                if not path and value is _DELETE:
                    continue
                mutated = _mutated(default_report, path, value)
                try:
                    report_module._validate(mutated, REPORT_SCHEMA)
                    ours = True
                except ValueError:
                    ours = False
                verdicts.append(ours)
                if ours != oracle.is_valid(mutated):
                    disagree.append((path, value, ours))
        assert disagree == []
        assert len(verdicts) == 383 and 0 < sum(verdicts) < len(verdicts)

    @pytest.mark.parametrize("row, match", [
        ({"abs_err": -1e-3}, r"rows\[0\]\.abs_err: .* less than 0"),
        ({"pass": _DELETE}, r"rows\[0\]: missing required 'pass'"),
    ])
    def test_invalid_row_raises(self, monkeypatch, row, match):
        good = {"check": "made-up", "inputs": {}, "computed": 1.0, "expected": 1.0,
                "abs_err": 0.0, "rel_err": 0.0, "pass": True}
        bad = {k: v for k, v in {**good, **row}.items() if v is not _DELETE}
        monkeypatch.setattr(report_module, "SUITES", {"made-up": lambda cfg: [bad]})
        with pytest.raises(ValueError, match=match):
            run_suite(RunConfig(), "all")

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

    def test_normalized_j_calls_per_report(self, monkeypatch):
        # every argument set is evaluated once, one call per plan axis and
        # per fb_forward_at axis, frequency-node probes included (patched
        # through importlib: bhk re-exports names that shadow its
        # submodules); the special suite's poisson row at the config's
        # gamma_2 = 1.5 is one call on 81 arguments, and each special-ode
        # order one call on its three stacked grids
        calls = []
        for name in ("bhk.transform", "bhk.report"):
            mod = importlib.import_module(name)
            monkeypatch.setattr(mod, "normalized_j", lambda nu, r, nj=mod.normalized_j:
                                calls.append(np.size(r)) or nj(nu, r))
        report = run_suite(RunConfig(), "all")
        assert report["summary"]["failed"] == 0
        assert (len(calls), sum(calls)) == (46, 35322)

    def test_one_rule_per_report_and_none_written(self, monkeypatch):
        # suites share the cached grid and sphere rules, so none may write
        # to their arrays: each is compared with a copy taken when it was built
        built = []
        for name in ("build_sphere_rule", "build_tensor_grid"):
            def record(*args, build=getattr(report_module, name)):
                out = build(*args)
                built.append((build.__name__, args, out, copy.deepcopy(out)))
                return out

            monkeypatch.setattr(report_module, name, record)
        report = run_suite(RunConfig(), "all")
        assert report["summary"]["failed"] == 0
        keys = [(name, args) for name, args, _, _ in built]
        assert len(keys) == len(set(keys))
        assert [name for name, _ in keys].count("build_sphere_rule") == 4
        assert [name for name, _ in keys].count("build_tensor_grid") == 1

        def flat(rule):  # grids hold one array per axis, sphere rules one array
            parts = [a for p in (rule.nodes, rule.weights)
                     for a in (p if isinstance(p, tuple) else (p,))]
            return np.concatenate([np.ravel(a) for a in parts])

        for name, args, out, snap in built:
            assert np.array_equal(flat(out), flat(snap)), (name, args)

    @pytest.mark.parametrize("suite", ["riesz", "estimates"])
    def test_fb_plan_suite_alone(self, suite, plan_builds, tmp_path):
        out = tmp_path / "r.json"
        assert main(["run", "--suite", suite, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["summary"]["failed"] == 0 and report["summary"]["total"] > 1
        assert len(plan_builds) == 1

    @pytest.mark.parametrize("gamma, extra_poisson, extra_ode", [
        ((0.5, 1.5), [1.5], []),
        ((0.05, 0.7), [0.05, 0.7], [0.05, 0.7]),
        ((0.05, 0.05), [0.05], [0.05]),
    ])
    def test_special_orders_from_config(self, gamma, extra_poisson, extra_ode):
        # the fixed orders, then each distinct config gamma_i not among them
        report = run_suite(RunConfig(gamma=gamma), "special")
        orders = lambda check: [r["inputs"]["gamma_axis"] for r in report["rows"]
                                if r["check"] == check]
        assert orders("special-poisson") == [0.5, 1.0, 2.5] + extra_poisson
        assert orders("special-ode") == [0.5, 1.5, 3.0] + extra_ode
        assert report["summary"]["failed"] == 0

    def test_transform_suite_n3(self):
        report = run_suite(RunConfig.from_dict(N3_CONFIG), "transform")
        assert [r["check"] for r in report["rows"] if not r["pass"]] == []
        assert report["summary"] == {"failed": 0, "passed": 12, "total": 12}

    def test_riesz_suite_n3(self):
        report = run_suite(RunConfig.from_dict(N3_CONFIG), "riesz")
        assert [r["check"] for r in report["rows"] if not r["pass"]] == []
        assert report["summary"] == {"failed": 0, "passed": 10, "total": 10}

    @pytest.mark.parametrize("config", [{}, {"gamma": [5.0, 0.05]}, N3_CONFIG])
    def test_pizzetti_decay_remainders_are_taylor_tails(self, config):
        # on the unit sphere the Gaussian is e^{-1}, and the Pizzetti sum of
        # its Taylor terms up to k = m is the Taylor sum T_m(-1) of e^t
        report = run_suite(RunConfig.from_dict(config), "pizzetti")
        (row,) = [r for r in report["rows"] if r["check"] == "pizzetti-decay"]
        want = [abs(math.exp(-1.0) - math.fsum((-1.0) ** k / math.factorial(k)
                                               for k in range(m + 1)))
                for m in (0, 1, 2)]
        assert_allclose(row["inputs"]["remainders"], want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("gamma, q", [(0.3, -0.4), (0.5, 0.0)])
    def test_n1_without_v_recursion_keeps_pizzetti_rows(self, gamma, q):
        # q = n + 2|gamma| - 2 <= 0: the v rows give way to one v-skipped info
        # row, and the rows that never touch v are still written
        report = run_suite(RunConfig.from_dict({"n": 1, "gamma": [gamma]}), "all")
        assert report["summary"]["failed"] == 0
        checks = [r["check"] for r in report["rows"] if r["suite"] == "pizzetti"]
        assert checks == (["pizzetti-exact"] * 2 + ["pizzetti-ratio"] * 9
                          + ["pizzetti-decay", "v-skipped"])
        (row,) = [r for r in report["rows"] if r["check"] == "v-skipped"]
        assert row["inputs"]["q"] == pytest.approx(q, abs=1e-15)
        assert "suite-error" not in [r["check"] for r in report["rows"]]

    @pytest.mark.parametrize("gamma", SEEDED_GAMMAS)
    def test_seeded_gamma_has_no_suite_error(self, gamma):
        # rows may still fail on their tolerances (shift-preservation near
        # gamma_i = 5, the v rows near q = 2); no suite may raise
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

    def test_default_report_without_leggauss(self, tmp_path, monkeypatch):
        # every radial rule comes from special.gauss_jacobi, so blocking
        # numpy's Gauss-Legendre rule changes no byte of the report
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["run", "--suite", "all", "--out", str(a)]) == 0

        def blocked(*args):
            raise RuntimeError("numpy.polynomial.legendre.leggauss is blocked")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", blocked)
        assert main(["run", "--suite", "all", "--out", str(b)]) == 0
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

    @pytest.mark.parametrize("config", [
        [], {"grid": []}, {"grid": ["x_max"]}, {"tolerances": [1]}, {"tolerances": "mvt"},
    ], ids=["top-list", "grid-empty-list", "grid-list", "tolerances-list",
            "tolerances-string"])
    def test_non_object_config_exit_2_no_report(self, tmp_path, capsys, config):
        # the top level, grid and tolerances must be JSON objects
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        out = tmp_path / "r.json"
        assert main(["run", "--suite", "special", "--config", str(bad),
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert "bhk: config error" in capsys.readouterr().err

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

    @pytest.mark.parametrize("patch", [
        {"grid": {"x_max": 8.0, "points": 96.7}}, {"n": 2.9}, {"angles": 24.5},
        {"sphere_points": 48.2}, {"grid": {"x_max": 8.0, "points": "48"}}, {"n": True},
    ])
    def test_non_whole_size_exit_2_no_report(self, tmp_path, capsys, patch):
        # a fractional size must not be truncated silently
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**SMALL_CONFIG, **patch}))
        out = tmp_path / "r.json"
        assert main(["run", "--suite", "shift", "--config", str(bad),
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert "whole number" in capsys.readouterr().err

    @pytest.mark.parametrize("patch", [
        {"gamma": "15"}, {"gamma": [True, 1.5]}, {"grid": {"x_max": True, "points": 48}},
        {"eps_seq": [0.4, "0.2"]}, {"tolerances": {"mvt": "1e-8"}},
        {"tolerances": {"mvt": True}},
    ])
    def test_non_number_exit_2_no_report(self, tmp_path, capsys, patch):
        # "15" must not read as gamma (1, 5), nor true as 1.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**SMALL_CONFIG, **patch}))
        out = tmp_path / "r.json"
        assert main(["run", "--suite", "special", "--config", str(bad),
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert "must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("output", [True, 7, None, ["r.json"]])
    def test_non_string_output_exit_2_no_report(self, tmp_path, capsys, monkeypatch, output):
        # true must not write the report to a file named "True"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**SMALL_CONFIG, "output": output}))
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--suite", "special", "--config", str(bad)]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]
        assert "output must be a string" in capsys.readouterr().err

    @pytest.mark.parametrize("x_max", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_x_max_exit_2_no_report(self, tmp_path, capsys, x_max):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**SMALL_CONFIG, "grid": {"x_max": x_max, "points": 48}}))
        out = tmp_path / "r.json"
        assert main(["run", "--suite", "shift", "--config", str(bad),
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert "x_max" in capsys.readouterr().err

    def test_decimal_gamma_report_passes(self, tmp_path):
        # gamma_1 = 0.1 is not a short dyadic: B-harmonic bases need exact
        # Fraction coefficients for the kernel gates to accept them
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n": 2, "gamma": [0.1, 2.5]}))
        out = tmp_path / "r.json"
        assert main(["run", "--suite", "all", "--config", str(path),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["summary"] == {"failed": 0, "passed": 102, "total": 102}

    @pytest.mark.parametrize("config, total", [
        ({"gamma": [0.05, 0.05]}, 101),
        ({"n": 1, "gamma": [0.7]}, 61),
    ])
    def test_small_gamma_report_passes(self, tmp_path, config, total):
        # v-consistency applies the radial B to v_{eta+1} exactly; finite
        # differences read 5.5e-5 and 4.0e-5 here against a 1e-5 tolerance
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "r.json"
        assert main(["run", "--suite", "all", "--config", str(path),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["summary"] == {"failed": 0, "passed": total, "total": total}

    def test_unknown_suite_exit_2(self, config_path):
        assert main(["run", "--suite", "bogus", "--config", str(config_path)]) == 2

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

    def test_riesz_empty_point_window_is_one_failing_row(self, tmp_path, capsys):
        # 16 nodes on [0, 200] leave none in [0.5, 1.8]: the multiplier rows
        # give way to one error row, and the other riesz rows still run
        path = tmp_path / "coarse.json"
        path.write_text(json.dumps({"grid": {"x_max": 200, "points": 16}}))
        out = tmp_path / "r.json"
        assert main(["run", "--suite", "riesz", "--config", str(path),
                     "--out", str(out)]) == 1
        rows = json.loads(out.read_text())["rows"]
        assert [r["check"] for r in rows] == [
            "riesz-mean-zero", "suite-error", "riesz-spectral-value",
            "riesz-homogeneity", "riesz-constant"]
        assert not rows[1]["pass"]
        assert rows[1]["inputs"]["message"].startswith(
            "no grid node in [0.5, 1.8] on axes [0, 1]")

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

    @pytest.mark.parametrize("name", ["b-harmonic-k2", "b-harmonic-k4",
                                      "harmonic-gaussian-k2"])
    def test_polynomial_built_once_per_emit(self, name, tmp_path, monkeypatch):
        # the 48^3 grid is sampled in 7 chunks; the polynomial is built once,
        # when corpus_function makes the callable, not once per chunk
        corpus = importlib.import_module("bhk.corpus")
        calls = []
        monkeypatch.setattr(corpus, "b_harmonic_basis", lambda *a, orig=corpus.b_harmonic_basis:
                            calls.append(a) or orig(*a))
        config = tmp_path / "n3.json"
        config.write_text(json.dumps({"n": 3, "gamma": [0.5, 1.0, 1.5], "grid": {"points": 48}}))
        assert main(["emit", "--function", name, "--config", str(config),
                     "--out", str(tmp_path / "e.csv")]) == 0
        assert len(calls) == 1

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


class TestUnwritableOut:
    """run and emit exit 2 with one line on stderr, and no traceback, when
    --out cannot be written."""

    @pytest.fixture(params=["missing-directory", "directory", "no-permission"])
    def unwritable(self, request, tmp_path, monkeypatch):
        if request.param == "missing-directory":
            return tmp_path / "missing" / "r.out", "No such file or directory"
        if request.param == "directory":
            return tmp_path, "Is a directory"
        # what a directory without write permission gives: opening the path
        # for writing fails (patched, since root may write anywhere)
        path, real_open = tmp_path / "r.out", builtins.open

        def guarded(file, mode="r", *args, **kwargs):
            if str(file) == str(path) and "w" in mode:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(file))
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", guarded)
        return path, "Permission denied"

    @pytest.mark.parametrize("argv", [
        ["run", "--suite", "special"],
        ["emit", "--function", "gaussian", "--transform"],
    ])
    def test_exit_2_one_line(self, argv, unwritable, config_path, capsys):
        path, reason = unwritable
        assert main([*argv, "--config", str(config_path), "--out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"bhk: cannot write {path}: {reason}"]
        assert captured.out == ""
        assert not path.is_file()


class TestNoScipyOnReportPath:
    """The report path imports neither scipy (a test and benchmark dependency
    only) nor jsonschema (run_suite validates with report._validate), nor
    numpy.random (the check points come from the standard library's
    random.Random)."""

    def _modules_after(self, code, tmp_path):
        src = str(Path(bhk.__file__).resolve().parent.parent)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        probe = (f"import sys\n{code}\n"
                 "print(sorted(m for m in sys.modules\n"
                 "             if m.partition('.')[0] in ('scipy', 'jsonschema')\n"
                 "             or (m + '.').startswith('numpy.random.')))")
        done = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        return done.stdout.splitlines()[-1]

    def test_import_bhk(self, tmp_path):
        assert self._modules_after("import bhk", tmp_path) == "[]"

    def test_src_imports_stdlib_numpy_bhk_only(self):
        # numpy is the one runtime dependency: no module may import, even
        # lazily, anything outside the standard library, numpy and bhk, nor
        # name numpy.random in any form
        allowed = set(sys.stdlib_module_names) | {"numpy", "bhk"}
        bad = []
        for path in sorted(Path(bhk.__file__).resolve().parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
                elif (isinstance(node, ast.Attribute) and node.attr == "random"
                      and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
                    names = ["numpy.random"]
                else:
                    continue
                bad += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.partition(".")[0] not in allowed
                        or (name + ".").startswith("numpy.random.")]
        assert bad == []

    def test_cli_report_all_suites(self, tmp_path):
        code = ("from bhk.cli import main\n"
                "assert main(['run', '--suite', 'all', '--out', 'report.json']) == 0")
        assert self._modules_after(code, tmp_path) == "[]"
        assert json.loads((tmp_path / "report.json").read_text())["summary"]["failed"] == 0


# runs the CLI under sys.setprofile, set before bhk is imported so module and
# class bodies count, then prints every function body compiled from
# src/bhk/*.py that never ran
_CALL_TRACE = """
import json, sys, types
from pathlib import Path

ran = set()
sys.setprofile(lambda frame, event, arg: event == "call" and ran.add(frame.f_code))
import bhk
from bhk.cli import main
from bhk.corpus import corpus_names

Path("n1.json").write_text(json.dumps({"n": 1, "gamma": [0.7]}))
Path("n3.json").write_text(json.dumps({"n": 3, "gamma": [0.5, 1.0, 1.5], "grid": {"points": 24},
                                       "angles": 16, "sphere_points": 16}))
Path("bad.json").write_text(json.dumps({"angels": 16}))
codes = [main(["run", "--suite", "all", "--out", "default.json"]),
         main(["run", "--suite", "all", "--config", "n1.json", "--out", "n1-report.json"]),
         main(["run", "--suite", "all", "--config", "n3.json", "--out", "n3-report.json"]),
         main(["run", "--suite", "all", "--config", "bad.json", "--out", "bad-report.json"]),
         main(["run", "--suite", "nope", "--out", "nope.json"])]
codes += [main(["emit", "--function", name, "--transform", "--config", "n1.json",
                "--out", name + ".csv"]) for name in corpus_names() + ["nope"]]
sys.setprofile(None)
# co_qualname only exists from Python 3.11: key on co_name, which with the
# file and first line is unique per body, and print the qualified name
# where there is one
ran = {(c.co_filename, c.co_firstlineno, c.co_name) for c in ran}
unreached = []
for path in sorted(Path(bhk.__file__).parent.glob("*.py")):
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        if (not code.co_name.startswith("<")
                and (code.co_filename, code.co_firstlineno, code.co_name) not in ran):
            name = getattr(code, "co_qualname", code.co_name)
            unreached.append(f"{path.name}:{code.co_firstlineno} {name}")
print(json.dumps({"codes": codes, "unreached": sorted(unreached)}))
"""


class TestCallTrace:
    def test_cli_runs_every_function_body(self, tmp_path):
        # a body no report or CLI run reaches is library surface nothing
        # verifies end to end: delete it rather than keep it
        src = str(Path(bhk.__file__).resolve().parent.parent)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", _CALL_TRACE], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        out = json.loads(done.stdout.splitlines()[-1])
        # default and n = 1 pass; n = 3 at 24 points fails the FB plan
        # self-test (suite-error rows); the bad config, the unknown suite,
        # the B-harmonic entries at n = 1 and the unknown function exit 2
        assert out["codes"] == [0, 0, 1, 2, 2, 2, 2, 0, 0, 0, 2, 2]
        assert not out["unreached"], "never ran:\n" + "\n".join(out["unreached"])


class TestBenchmarkReach:
    def test_tracer_names_resolve_in_bhk(self, monkeypatch):
        # every name bench/tracer.py wraps must exist in bhk, so dropping one
        # fails here; the file is loaded by path and no bytecode is written
        path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        spec = importlib.util.spec_from_file_location("bench_tracer", path)
        tracer_module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer_module)
        targets = [(importlib.import_module(f"bhk.{m}"), name)
                   for m, name in tracer_module.FUNCTIONS]
        for m, cls_name, methods in tracer_module.METHODS:
            cls = getattr(importlib.import_module(f"bhk.{m}"), cls_name)
            targets += [(cls, meth) for meth in methods]
        originals = [vars(owner)[name] for owner, name in targets]
        assert all(map(callable, originals))
        tracer = tracer_module.Tracer()
        tracer.install()
        try:
            assert all(vars(owner)[name].__wrapped__ is fn
                       for (owner, name), fn in zip(targets, originals))
        finally:
            tracer.uninstall()
        assert [vars(owner)[name] for owner, name in targets] == originals

    def test_default_report_reaches_every_traced_layer(self, monkeypatch):
        # bench/tracer.py wraps the layers it times by name; a library change
        # that stops reaching one fails here, not only in a traced benchmark run
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
        tracer_module = importlib.import_module("tracer")
        tracer = tracer_module.Tracer()
        tracer.install()
        try:
            report = run_suite(RunConfig(), "all")
        finally:
            tracer.uninstall()
        assert report["summary"]["failed"] == 0
        # from the spans: Tracer.metrics() lists every CALLS_REPORTED name,
        # reached or not
        seen = {span[0] for span in tracer.spans}
        assert [name for name in tracer_module.LAYERS + tracer_module.SUITE_SPANS
                if name not in seen] == []
