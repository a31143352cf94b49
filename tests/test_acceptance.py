"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Every tolerance is pinned here rather than imported, so a regression in
the library cannot silently relax the gate.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from robustmix import (
    EllipsoidSet,
    IntervalSet,
    Instance,
    Metrics,
    Mixture,
    ScenarioMatrix,
    check_emitted,
    check_submodular,
    dual_certificate,
    emit_model,
    evaluate_wrp,
    gen_synthetic,
    sample_st_pairs,
    scalarize,
    score,
    solve_bnb,
    solve_brute_force,
    solve_budgeted_mix,
    solve_ellipsoid_parametric,
    solve_interval_mix,
    split_scenarios,
    weight_grid,
)
from robustmix.analysis import check_ratio
from robustmix.cli import main as cli_main
from robustmix.evaluation import pair_metrics
from robustmix.instances import Solution
from robustmix.mip_emit import expected_stats
from robustmix.tuning import ConfigSpace, baseline_grid, solve_for_pair, tune
from robustmix.uncertainty import build_mixture
from robustmix.verify import (
    random_budgeted_mixture,
    random_hull_mixture,
    random_instance,
)

OBJ_TOL = 1e-9
LP_TOL = 1e-6
MIX_SLACK = 1e-6


def report(capsys, criterion: str, ok: bool, detail: str = ""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"acceptance {criterion}: {status}{suffix}")
    assert ok, f"{criterion} failed: {detail}"


def random_interval_mixture(rng, n):
    comps = []
    for _ in range(int(rng.integers(1, 4))):
        lo = rng.uniform(0.0, 5.0, n)
        comps.append((float(rng.uniform(0.1, 1.0)), IntervalSet(lo, lo + rng.uniform(0.0, 5.0, n))))
    return Mixture(tuple(comps))


def random_ellipsoid_interval_mixture(rng, n, diagonal=True):
    lo = rng.uniform(0.0, 5.0, n)
    iv = IntervalSet(lo, lo + rng.uniform(0.0, 5.0, n))
    mu = rng.uniform(0.0, 5.0, n)
    if diagonal:
        sigma = np.diag(rng.uniform(0.0, 4.0, n))
    else:
        a = rng.uniform(-1.0, 1.0, (n, n))
        sigma = a @ a.T
    ell = EllipsoidSet(mu, sigma, float(rng.uniform(0.0, 20.0)))
    return Mixture(
        ((float(rng.uniform(0.1, 1.0)), iv), (float(rng.uniform(0.1, 1.0)), ell))
    )


def random_mixed_mixture(rng, n):
    comps = list(random_ellipsoid_interval_mixture(rng, n, diagonal=False).components)
    comps.extend(random_hull_mixture(rng, n, max_components=1).components)
    return Mixture(tuple(comps))


def test_criterion_1_oracle_exactness(capsys):
    started = time.monotonic()
    checked = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng)
        pairs = [
            (solve_interval_mix, random_interval_mixture(rng, inst.n)),
            (solve_budgeted_mix, random_budgeted_mixture(rng, inst.n, max_components=2)),
            (solve_ellipsoid_parametric, random_ellipsoid_interval_mixture(rng, inst.n)),
            (solve_bnb, random_mixed_mixture(rng, inst.n)),
        ]
        for solver, mix in pairs:
            got = solver(inst, mix)
            want = solve_brute_force(inst, mix)
            assert got.optimal
            assert abs(got.objective - want.objective) <= OBJ_TOL, (
                f"seed {seed}, {got.method}: {got.objective} vs {want.objective}"
            )
            checked += 1
    elapsed = time.monotonic() - started
    report(
        capsys,
        "criterion 1 (oracle exactness)",
        elapsed < 60.0,
        f"{checked} solver runs vs brute force, {elapsed:.1f}s",
    )


def test_criterion_2_submodularity(capsys):
    started = time.monotonic()
    rng = np.random.default_rng(0)
    for _ in range(100):
        mix = random_budgeted_mixture(rng, 8)
        result = check_submodular(8, lambda x: evaluate_wrp(mix, x))
        assert result["ok"], result
    squared = check_submodular(2, lambda x: float(sum(x)) ** 2)
    assert not squared["ok"]
    elapsed = time.monotonic() - started
    report(
        capsys,
        "criterion 2 (submodularity)",
        elapsed < 120.0,
        f"100 mixtures at n=8 ok, self-test flagged, {elapsed:.1f}s",
    )


def test_criterion_3_approximation_ratio(capsys):
    started = time.monotonic()
    rng = np.random.default_rng(0)
    nontrivial = 0
    for _ in range(100):
        inst = random_instance(rng, max_sel_n=6)
        mix = random_hull_mixture(rng, inst.n)
        result = check_ratio(inst, mix)
        assert result["ok"], result
        if result["ratio"] > 1.0 + OBJ_TOL:
            nontrivial += 1
    assert nontrivial >= 1, "approximation was exact on every instance"
    elapsed = time.monotonic() - started
    report(
        capsys,
        "criterion 3 (approximation ratio)",
        elapsed < 30.0,
        f"100 instances in bound, {nontrivial} with ratio > 1, {elapsed:.1f}s",
    )


def test_criterion_4_duality(capsys):
    started = time.monotonic()
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(2, 11))
        mix = random_budgeted_mixture(rng, n)
        x = tuple(int(v) for v in rng.integers(0, 2, n))
        cert = dual_certificate(mix, x)
        assert abs(cert.objective - evaluate_wrp(mix, x)) <= OBJ_TOL
        for (_, uset), pi, rho in zip(mix.components, cert.pi, cert.rho):
            assert pi >= 0
            dev = uset.deviations
            for i, xi in enumerate(x):
                assert rho[i] >= -1e-12
                assert pi + rho[i] >= dev[i] * xi - 1e-12
    elapsed = time.monotonic() - started
    report(
        capsys,
        "criterion 4 (duality)",
        elapsed < 5.0,
        f"100 exact feasible certificates, {elapsed:.1f}s",
    )


def test_criterion_5_metrics(capsys):
    started = time.monotonic()

    def pool(values):
        data = ScenarioMatrix(np.asarray(values, dtype=float).reshape(-1, 1))
        return score([Solution((1,), 0.0)], data, alpha=0.05)

    m20 = pool(range(1, 21))
    assert (m20.avg, m20.max, m20.cvar) == (10.5, 20.0, 20.0)
    m40 = pool(range(1, 41))
    assert m40.cvar == 39.5

    rng = np.random.default_rng(0)
    for _ in range(200):
        m = pool(rng.uniform(0.0, 100.0, int(rng.integers(2, 50))))
        assert m.avg <= m.cvar <= m.max

    assert len(weight_grid(0.1)) == 66
    split = split_scenarios(271, 0.75)
    assert (len(split.train_idx), len(split.test_idx)) == (203, 68)
    elapsed = time.monotonic() - started
    report(
        capsys,
        "criterion 5 (metrics)",
        elapsed < 1.0,
        f"hand examples, ordering, 66-grid, 203/68 split, {elapsed:.2f}s",
    )


def test_criterion_6_mip_emission(capsys, tmp_path):
    from lp_grammar import check_lp_grammar

    started = time.monotonic()
    rng = np.random.default_rng(0)
    for trial in range(50):
        inst = random_instance(rng, max_sel_n=6)
        if trial % 2 == 0:
            mix = random_budgeted_mixture(rng, inst.n)
        else:
            mix = random_hull_mixture(rng, inst.n)
        path = str(tmp_path / f"model_{trial}.lp")
        stats = emit_model(inst, mix, path)
        assert stats == expected_stats(inst, mix)
        grammar = check_lp_grammar(Path(path).read_text())
        assert grammar == [], grammar
        best = solve_brute_force(inst, mix)
        check = check_emitted(inst, mix, best.solution, path)
        assert check.ok and check.objective_match, check.message
    elapsed = time.monotonic() - started
    report(
        capsys,
        "criterion 6 (MIP emission)",
        elapsed < 10.0,
        f"50 models: grammar, counts, objective within {LP_TOL}, {elapsed:.1f}s",
    )


def test_criterion_7_mixing_benefit(capsys):
    started = time.monotonic()
    w = (0.4, 0.3, 0.3)
    alpha = 0.05
    graph, data = gen_synthetic(6, 6, 40, noise="two_block", seed=1)
    pairs = sample_st_pairs(graph, 6, min_hops=4, seed=1)
    split = split_scenarios(data.K, 0.75, seed=1)
    test_data = data.subset(split.test_idx)
    tail_out = max(1, math.ceil(alpha * test_data.K))

    best_baseline = float("inf")
    for set_type in ("interval", "hull", "ellipsoid"):
        for _, _, m_out in baseline_grid(set_type, graph, pairs, data, split):
            best_baseline = min(best_baseline, scalarize(m_out, w))

    space = ConfigSpace(budget=2000)
    result = tune(space, graph, pairs, data, split, w, seed=1)
    assert result.completed_full_eval

    train = data.subset(split.train_idx)
    mix = build_mixture(result.best.to_specs(), train)
    triples = []
    for pair in pairs:
        rep = solve_for_pair(graph, pair, mix, node_cap=150)
        triples.append(
            pair_metrics(np.asarray(rep.solution.x, dtype=float), test_data.costs, tail_out)
        )
    tuned_out = scalarize(Metrics(*np.array(triples).mean(axis=0)), w)

    elapsed = time.monotonic() - started
    ok = tuned_out <= best_baseline + MIX_SLACK and elapsed < 600.0
    report(
        capsys,
        "criterion 7 (mixing benefit)",
        ok,
        f"tuned out-sample {tuned_out:.6f} vs best baseline {best_baseline:.6f}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_8_determinism(capsys, tmp_path):
    started = time.monotonic()
    d = tmp_path
    graph = str(d / "g.txt")
    scenarios = str(d / "s.csv")
    pairs = str(d / "p.csv")
    mixture = str(d / "mix.json")
    with open(mixture, "w") as fh:
        json.dump(
            {"components": [{"weight": 1.0, "type": "interval", "lambda": 0.5}]}, fh
        )
    bud_mixture = str(d / "bud.json")
    with open(bud_mixture, "w") as fh:
        json.dump(
            {
                "components": [
                    {"weight": 1.0, "type": "budgeted", "lambda": 0.5, "gamma": 2}
                ]
            },
            fh,
        )

    runs = [
        [
            "gen", "--width", "3", "--height", "3", "--scenarios", "12",
            "--seed", "4", "--out-graph", graph, "--out-scenarios", scenarios,
        ],
        [
            "pairs", "--graph", graph, "--count", "2", "--min-hops", "2",
            "--seed", "4", "--out", pairs,
        ],
        [
            "solve", "--graph", graph, "--scenarios", scenarios,
            "--mixture", mixture, "--pairs", pairs, "--seed", "4",
            "--out", str(d / "sol.json"),
        ],
        [
            "evaluate", "--solutions", str(d / "sol.json"),
            "--scenarios", scenarios, "--seed", "4", "--out", str(d / "metrics.txt"),
        ],
        [
            "baseline", "--type", "interval", "--graph", graph,
            "--scenarios", scenarios, "--pairs", pairs, "--seed", "4",
            "--out", str(d / "baseline.csv"),
        ],
        [
            "tune", "--graph", graph, "--scenarios", scenarios, "--pairs", pairs,
            "--budget", "100", "--weights", "0.4,0.3,0.3", "--seed", "4",
            "--out-config", str(d / "cfg.json"), "--out-trace", str(d / "trace.csv"),
        ],
        [
            "emit-mip", "--scenarios", scenarios, "--mixture", bud_mixture,
            "--select-n", "12", "--select-p", "3", "--seed", "4",
            "--out", str(d / "model.lp"),
        ],
        [
            "verify", "--suite", "dual", "--trials", "10", "--seed", "4",
            "--manifest", str(d / "verify.manifest.json"),
        ],
    ]

    for argv in runs:
        assert cli_main(argv) == 0, argv
        if argv[0] == "verify":
            manifest_path = str(d / "verify.manifest.json")
        else:
            primary = argv[argv.index("--out") + 1] if "--out" in argv else None
            if primary is None:
                for flag in ("--out-graph", "--out-config"):
                    if flag in argv:
                        primary = argv[argv.index(flag) + 1]
            manifest_path = primary + ".manifest.json"
        manifest = json.loads(Path(manifest_path).read_text())
        before = {p: Path(p).read_bytes() for p in manifest["outputs"]}
        assert cli_main(manifest["argv"]) == 0, manifest["argv"]
        for p, blob in before.items():
            assert Path(p).read_bytes() == blob, f"{argv[0]} output {p} changed"

    elapsed = time.monotonic() - started
    report(
        capsys,
        "criterion 8 (determinism)",
        elapsed < 120.0,
        f"{len(runs)} subcommands rerun byte-identically from manifests, "
        f"{elapsed:.1f}s",
    )
