"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here, not configurable; run with `pytest -s` to see the
per-criterion lines.  Grid sizes follow the default configuration (n = 2,
gamma = (0.5, 1.5), x_max = 8, 96 points, 48 angles, 96 sphere points) except
where a criterion's cost model demands the documented reduced grid.
"""

import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
from numpy.testing import assert_allclose

from bhk.grids import (
    build_sphere_rule,
    build_tensor_grid,
    hemisphere_measure,
    integrate,
)
from bhk.meanvalue import (
    mean_value_check,
    pizzetti_coeffs,
    pizzetti_mean,
    shifted_mean_value_check,
    sphere_mean,
    v_sequence,
)
from bhk.polys import EvenPoly, b_harmonic_basis, eval_poly
from bhk.riesz import (
    build_riesz_kernel,
    lp_boundedness_probe,
    priori_bound_probe,
    riesz_spatial,
    riesz_spectral,
)
from bhk.shift import b_convolve, build_shift_plan, shift, shift_grid
from bhk.special import normalized_j, poisson_representation
from bhk.transform import (
    build_fb_plan,
    fb_forward,
    fb_forward_at,
    fb_inverse,
    gaussian_transform,
    harmonic_gaussian_transform,
    spectral_convolution_factor,
)

from conftest import GAMMA, gauss

GAMMA_SET = [(0.5, 0.5), (0.5, 1.5), (1.0, 1.0)]


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {number} overran {budget_s}s: {elapsed:.1f}s"
    print(f"ACCEPTANCE {number:02d} ({name}): PASS [{elapsed:.1f}s]")


def test_criterion_01_special_functions():
    with criterion(1, "special functions", 5.0):
        r = np.linspace(0.0, 50.0, 1000)
        sinc = np.where(r > 0, np.sin(r) / np.where(r > 0, r, 1.0), 1.0)
        assert np.max(np.abs(normalized_j(0.5, r) - sinc)) <= 1e-12
        assert np.max(np.abs(normalized_j(-0.5, r) - np.cos(r))) <= 1e-12
        for g in (0.5, 1.0, 2.5):
            for rr in np.linspace(0.0, 20.0, 81):
                assert abs(
                    poisson_representation(g, float(rr), 64)
                    - normalized_j(g - 0.5, float(rr))
                ) <= 1e-10
        h = 1e-4
        for g in (0.5, 1.5, 3.0):
            nu = g - 0.5
            rr = np.linspace(0.5, 20.0, 391)
            u0 = normalized_j(nu, rr)
            up = normalized_j(nu, rr + h)
            um = normalized_j(nu, rr - h)
            res = ((up - 2 * u0 + um) / h**2
                   + (2 * g / rr) * (up - um) / (2 * h) + u0)
            assert np.max(np.abs(res)) < 1e-7


def test_criterion_02_measure_constants():
    with criterion(2, "measure constants", 1.0):
        expected = {
            (0.5, 0.5): 0.5,
            (0.5, 1.5): 0.25,
            (1.0, 1.0): math.pi / 16.0,
        }
        for gam, ref in expected.items():
            rule = build_sphere_rule(gam, 96)
            total = float(np.sum(rule.weights))
            assert abs(total - ref) <= 1e-10 * ref
            assert_allclose(hemisphere_measure(gam), ref, rtol=1e-14)


def test_criterion_03_shift_operator():
    with criterion(3, "shift operator", 30.0):
        plan = build_shift_plan(GAMMA, 48)
        x = np.array([1.3, 0.8])
        assert shift(plan, gauss, x, [0.0, 0.0]) == float(gauss(x[None, :])[0])
        one = lambda p: np.ones(p.shape[:-1])
        rng = np.random.default_rng(42)
        for _ in range(10):
            xx, yy = rng.uniform(0.1, 3.0, 2), rng.uniform(0.1, 3.0, 2)
            assert abs(shift(plan, one, xx, yy, adaptive=False) - 1.0) <= 1e-12
        plan1 = build_shift_plan((0.5,), 48)
        sq = lambda p: p[..., 0] ** 2
        for _ in range(25):
            a, b = rng.uniform(0.1, 3.0, 2)
            got = shift(plan1, sq, [a], [b])
            assert abs(got - (a * a + b * b)) <= 1e-10 * (a * a + b * b)
        grid = build_tensor_grid(GAMMA, 8.0, 96)
        f = grid.sample(gauss)
        out = shift_grid(plan, f, [0.9, 1.4])
        assert abs(integrate(out) - integrate(f)) <= 1e-8 * integrate(f)


def test_criterion_04_fourier_bessel():
    with criterion(4, "Fourier-Bessel transform", 120.0):
        grid = build_tensor_grid(GAMMA, 8.0, 96)
        plan = build_fb_plan(grid)
        # 5x5 frequency probe grid inside the resolved band
        probes = np.stack(np.meshgrid(*[np.linspace(0.6, 3.0, 5)] * 2,
                                      indexing="ij"), axis=-1).reshape(-1, 2)
        for a in (0.5, 1.0, 2.0):
            fa = grid.sample(lambda p: np.exp(-a * np.sum(p * p, axis=-1)))
            got = fb_forward_at(plan, fa, probes)
            ref = gaussian_transform(GAMMA, a, probes)
            assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-6
        f = grid.sample(gauss)
        back = fb_inverse(plan, fb_forward(plan, f))
        assert np.max(np.abs(back.values - f.values)) <= 1e-6
        base = grid.sample(lambda p: np.exp(-2.0 * np.sum(p * p, axis=-1)))
        for a in (0.5, 2.0):
            fa = grid.sample(lambda p: np.exp(-2.0 * np.sum((a * p) ** 2, axis=-1)))
            lhs = fb_forward_at(plan, fa, probes)
            rhs = a ** (-2 - 2 * 2.0) * fb_forward_at(plan, base, probes / a)
            assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) <= 1e-6
        # convolution theorem for the product Gaussian, separable route
        splan = build_shift_plan(GAMMA, 48)
        conv = b_convolve(splan, f, [lambda z: np.exp(-1.5 * z * z)] * 2)
        phi = grid.sample(lambda p: np.exp(-1.5 * np.sum(p * p, axis=-1)))
        lhs = fb_forward(plan, conv).values
        rhs = (spectral_convolution_factor(GAMMA)
               * fb_forward(plan, f).values
               * fb_forward(plan, phi).values)
        assert np.max(np.abs(lhs - rhs)) <= 1e-4 * np.max(np.abs(rhs))


def test_criterion_05_harmonic_gaussian_transform():
    with criterion(5, "Theorem 2.1 transform pair", 120.0):
        grid = build_tensor_grid(GAMMA, 8.0, 96)
        plan = build_fb_plan(grid)
        probes = np.stack(np.meshgrid(*[np.linspace(0.6, 3.0, 5)] * 2,
                                      indexing="ij"), axis=-1).reshape(-1, 2)
        for k in (2, 4):
            for p_k in b_harmonic_basis(2, k, GAMMA):
                f = grid.sample(lambda p: eval_poly(p_k, p) * gauss(p))
                got = fb_forward_at(plan, f, probes)
                ref = harmonic_gaussian_transform(p_k, GAMMA, probes)
                keep = np.abs(ref) > 1e-3 * np.max(np.abs(ref))
                rel = np.max(np.abs(got[keep] - ref[keep]) / np.abs(ref[keep]))
                assert rel <= 1e-5


def test_criterion_06_mean_value():
    with criterion(6, "mean value formula", 180.0):
        rule = build_sphere_rule(GAMMA, 96)
        us = [EvenPoly.from_terms(2, {(0, 0): 1.0})]
        us += [b_harmonic_basis(2, k, GAMMA)[0] for k in (2, 4)]
        for u in us:
            for R in (0.7, 1.0, 1.6):
                row = mean_value_check(u, rule, R)
                assert row["residual_ok"]
                assert row["abs_err"] <= 1e-8 * row["scale"]
        plan = build_shift_plan(GAMMA, 48)
        p2 = b_harmonic_basis(2, 2, GAMMA)[0]
        rng = np.random.default_rng(42)
        for _ in range(5):
            y = rng.uniform(0.2, 1.5, 2)
            row = shifted_mean_value_check(p2, rule, 1.0, plan, y)
            assert row["abs_err"] <= 1e-5 * row["scale"]


def test_criterion_07_pizzetti():
    with criterion(7, "Pizzetti expansion", 60.0):
        rule = build_sphere_rule(GAMMA, 96)
        r2 = EvenPoly.from_terms(2, {(2, 0): 1.0, (0, 2): 1.0})
        normalized = sphere_mean(r2, rule, 1.0) / hemisphere_measure(GAMMA)
        series = pizzetti_mean(r2, GAMMA, 1.0, 1)
        assert abs(series - 1.0) <= 1e-15
        assert abs(normalized - series) <= 1e-9
        s = 2.0 + 1.0
        for R in (0.5, 1.0, 2.0):
            c = pizzetti_coeffs(GAMMA, R, 10).c
            for eta in range(10):
                ref = (0.5 * R) ** 2 / ((eta + 1.0) * (eta + s))
                assert abs(c[eta + 1] / c[eta] - ref) <= 1e-13 * ref
        q = 2 + 2 * 2.0 - 2
        vs = v_sequence(GAMMA, 1.0, 3)
        for eta in (1, 2, 3):
            assert abs(vs[eta](1.0)) <= 1e-8
            assert abs(vs[eta].derivative(1.0)) <= 1e-8
        h = 1e-3
        r = np.linspace(0.2, 0.9, 15)
        for eta in (0, 1, 2):
            vp = vs[eta + 1]
            d2 = (-vp(r + 2 * h) + 16 * vp(r + h) - 30 * vp(r)
                  + 16 * vp(r - h) - vp(r - 2 * h)) / (12 * h * h)
            d1 = (-vp(r + 2 * h) + 8 * vp(r + h) - 8 * vp(r - h)
                  + vp(r - 2 * h)) / (12 * h)
            rel = np.max(np.abs(d2 + (q + 1) / r * d1 - vs[eta](r))
                         / np.abs(vs[eta](r)))
            assert rel <= 1e-5


def test_criterion_08_riesz_bessel():
    with criterion(8, "Riesz-Bessel transforms", 600.0):
        p2 = EvenPoly.from_terms(2, {(2, 0): 4.0, (0, 2): -2.0})
        kernel = build_riesz_kernel(p2, GAMMA)
        rule96 = build_sphere_rule(GAMMA, 96)
        vals = eval_poly(p2, rule96.nodes)
        assert abs(float(rule96.weights @ vals)) <= 1e-10 * float(
            rule96.weights @ np.abs(vals)
        )
        grid = build_tensor_grid(GAMMA, 8.0, 96)
        plan_f = build_fb_plan(grid)
        f = grid.sample(gauss)
        # worked spectral value at xi = (1, 1)
        xi = np.array([1.0, 1.0])
        mult = -eval_poly(p2, xi) / 2.0
        got = mult * float(fb_forward_at(plan_f, f, xi))
        ref = -(1.0 / 8.0) * math.exp(-0.5)
        assert abs(got - ref) <= 1e-6 * abs(ref)
        # spatial principal value vs spectral multiplier at 5 interior grid nodes
        rf = riesz_spectral(kernel, f, plan_f)
        plan_s = build_shift_plan(GAMMA, 48)
        srule = build_sphere_rule(GAMMA, 64)
        inner = [np.flatnonzero((x >= 0.5) & (x <= 1.8)) for x in grid.nodes]
        rng = np.random.default_rng(42)
        for _ in range(5):
            idx = tuple(int(rng.choice(i)) for i in inner)
            x = np.array([nodes[k] for nodes, k in zip(grid.nodes, idx)])
            res = riesz_spatial(kernel, [lambda z: np.exp(-z * z)] * 2, x, plan=plan_s,
                                rule=srule, x_max=grid.x_max)
            spec = float(rf.values[idx])
            assert res.converged
            assert abs(res.limit - spec) <= 1e-2 * max(abs(spec), 1e-3)


def test_criterion_09_estimates():
    with criterion(9, "a priori estimates", 300.0):
        grid = build_tensor_grid(GAMMA, 8.0, 96)
        plan = build_fb_plan(grid)
        family = []
        for s in (0.5, 1.0, 2.0):
            fs = grid.sample(lambda p: np.exp(-s * np.sum(p * p, axis=-1)))
            bfs = grid.sample(
                lambda p: (4 * s * s * np.sum(p * p, axis=-1) - 2 * s * 6.0)
                * np.exp(-s * np.sum(p * p, axis=-1))
            )
            family.append((f"s{s}", fs, bfs))
        # each member by its one transform, shared by the probes' multipliers
        f_hats = [fb_forward(plan, fs) for _, fs, _ in family]
        rows = priori_bound_probe(plan, 2.0,
                                  [(l, h, bfs) for (l, _, bfs), h in zip(family, f_hats)])
        for check in ("apriori-mixed-derivative", "apriori-elliptic"):
            ratios = [r["ratio"] for r in rows if r["check"] == check]
            assert all(np.isfinite(ratios))
            assert (max(ratios) - min(ratios)) / max(ratios) <= 0.1
        kernel = build_riesz_kernel(b_harmonic_basis(2, 2, GAMMA)[0], GAMMA)
        lp_rows = lp_boundedness_probe(
            kernel, (2.0, 4.0), [(l, f, h) for (l, f, _), h in zip(family, f_hats)], plan
        )
        for p in (2.0, 4.0):
            ratios = [r["ratio"] for r in lp_rows if r["p"] == p]
            assert all(np.isfinite(ratios))
            assert (max(ratios) - min(ratios)) / max(ratios) <= 0.1
        max_mult = lp_rows[0]["max_multiplier"]
        for r in lp_rows:
            if r["p"] == 2.0:
                assert r["ratio"] <= max_mult + 1e-6


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "report determinism", 600.0):
        config = {
            "n": 2,
            "gamma": [0.5, 1.5],
            "grid": {"x_max": 8.0, "points": 64},
            "angles": 32,
            "sphere_points": 48,
            "eps_seq": [0.4, 0.2, 0.1, 0.05],
            "tolerances": {},
            "output": str(tmp_path / "report.json"),
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "bhk.cli", "run", "--suite", "all",
                 "--config", str(cfg_path), "--out", str(out)],
                capture_output=True, text=True, timeout=560,
            )
            assert proc.returncode == 0, proc.stderr + proc.stdout
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        report = json.loads(outs[0])
        assert report["summary"]["failed"] == 0
