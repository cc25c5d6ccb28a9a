"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria are exercised through the same seeded experiment configs the CLI
uses, at the stated tolerances and runtime budgets; the default runs come
from the session fixture ``default_reports`` (``conftest.py``), which the
golden-digest test reads too.  Run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

from carlab import baselines
from carlab.bellman import telescoping_certificate
from carlab.characteristics import ScalarSequence, c2_conditioning, carleson_intensity
from carlab.constructions import random_instance
from carlab.dyadic import ROOT, cubes, integral
from carlab.embeddings import (
    bet_cube_functional,
    choquet_integral,
    phi_product,
)
from carlab.lab import adversarial_search
from carlab.matrices import operator_norm
from carlab.redundancy import sred_constant


def _report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture
def sweep_report(default_reports):
    return default_reports["counterexample-sweep"]


@pytest.fixture
def redundancy_report(default_reports):
    return default_reports["redundancy-suite"]


def test_criterion_1_counterexample_reproduction(sweep_report):
    rep = sweep_report
    needed = [
        "intensity_unit", "f_norm_matches_eps", "g_norm_unit", "bet_norm_sum_unit",
        "ratio_norm_inverse_eps", "a2_unit", "inner_sum_half",
    ]
    ok = all(rep.verdicts[k] for k in needed)
    elapsed = rep.aggregates["elapsed_seconds"]
    runtime_ok = elapsed < 1.0
    detail = (
        f"8 family members (eps down to 1e-4, rotations 0 and pi/4), "
        f"verdicts={[k for k in needed if not rep.verdicts[k]] or 'all ok'}, "
        f"elapsed={elapsed:.3f}s"
    )
    _report("1 counterexample reproduction", ok and runtime_ok, detail)


def test_criterion_2_sharpness_of_half_power(default_reports):
    rep = default_reports["c2-sharpness"]
    ok = rep.verdicts["ratio_attains_sqrt_c2"] and rep.verdicts["c2_matches_definition"]
    elapsed = rep.aggregates["elapsed_seconds"]
    _report(
        "2 sharpness of the 1/2 power",
        ok and elapsed < 1.0,
        f"ratio/sqrt(c2) = 1 within 1e-9 on the sweep, elapsed={elapsed:.3f}s",
    )


def test_criterion_3_inner_product_positive_result(default_reports):
    rep = default_reports["sibet-suite"]
    agg = rep.aggregates
    ok = rep.verdicts["inner_ratio_within_cprime"] and rep.verdicts["no_growth_along_sweep"]
    elapsed = agg["elapsed_seconds"]
    _report(
        "3 inner-product embedding stays bounded",
        ok and elapsed < 60.0,
        f"max ratio {agg['max_inner_ratio_random']:.4f} <= C'={agg['cprime_bound']} "
        f"over {agg['rows']} rows; sweep max {agg['max_inner_ratio_sweep']:.2e}; "
        f"elapsed={elapsed:.1f}s",
    )


def test_criterion_4_scalar_redundancy_constant(redundancy_report):
    rep = redundancy_report
    suite_rows = [r for r in rep.rows if r["kind"] == "suite"]
    violations = sum(1 for r in suite_rows if r["sred"] > 4.0)
    ok = (
        rep.verdicts["sred_at_most_4"]
        and violations == 0
        and rep.verdicts["telescoping_cross_oracle"]
        and len(suite_rows) >= 500
    )
    elapsed = rep.aggregates["elapsed_seconds"]
    _report(
        "4 scalar redundancy <= 4 with Bellman cross-oracle",
        ok and elapsed < 120.0,
        f"{len(suite_rows)} instances, max sred {rep.aggregates['max_sred']:.4f}, "
        f"telescoping diff {rep.aggregates['telescoping_max_diff']:.2e}, "
        f"elapsed={elapsed:.1f}s",
    )


def test_criterion_5_matrix_redundancy(redundancy_report):
    rep = redundancy_report
    needed = [
        "red_at_most_4d", "operator_norm_monotonicity",
        "trace_cycling_identity", "substitution_identity",
    ]
    ok = all(rep.verdicts[k] for k in needed)
    _report(
        "5 matrix redundancy constants and identities",
        ok,
        f"red maxima per d {rep.aggregates['red_by_d']}, "
        f"trace-cycling err {rep.aggregates['trace_cycling_max_err']:.2e}, "
        f"substitution err {rep.aggregates['substitution_max_err']:.2e}",
    )


def test_criterion_6_bellman_certification(default_reports):
    rep = default_reports["bellman-certify"]
    ok = rep.passed
    elapsed = rep.aggregates["elapsed_seconds"]
    worst = {r["check"]: r["worst_gap"] for r in rep.rows}
    _report(
        "6 Bellman size/concavity/dm/dynamics certificates",
        ok and elapsed < 120.0,
        f"worst gaps {{size: {worst['size']:.2e}, concavity: {worst['concavity']:.2e}, "
        f"dm: {worst['dm']:.2e}, dynamics: {worst['dynamics']:.2e}}}, "
        f"Richardson {rep.aggregates['richardson_ratio']:.1f}, elapsed={elapsed:.1f}s",
    )


def test_criterion_7_choquet_identity_and_proof_chain():
    rng = np.random.default_rng(2024)
    worst_rel = 0.0
    for _ in range(1000):
        depth = int(rng.integers(1, 5))
        functional = {}
        entries = {}
        for q in cubes(depth):
            if rng.uniform() < 0.6:
                functional[q] = float(np.round(rng.uniform(0, 3), 1))
            if rng.uniform() < 0.6:
                entries[q] = float(rng.uniform(0, 2))
        s, l = choquet_integral(ScalarSequence(depth, entries), functional)
        worst_rel = max(worst_rel, abs(s - l) / max(1.0, abs(s)))
    choquet_ok = worst_rel <= 1e-10

    chain_ok = True
    integrated_ok = True
    for seed in range(100):
        inst = random_instance(4 + seed % 2, 1 + seed % 3, seed=seed, cond_cap=1e4)
        functional = bet_cube_functional(inst.w, inst.f, inst.g)
        phi = phi_product(inst.w, inst.f, inst.g)
        root_c2 = math.sqrt(c2_conditioning(inst.w))
        for q, fval in functional.items():
            lo, hi = phi.leaf_slice(q)
            if fval > root_c2 * float(phi.values[lo:hi].min()) + 1e-9:
                chain_ok = False
        lhs = sum(v * functional[q] for q, v in inst.sseq.items())
        if lhs > root_c2 * integral(phi, ROOT) + 1e-9:
            integrated_ok = False
    _report(
        "7 Choquet identity and maximal-function proof chain",
        choquet_ok and chain_ok and integrated_ok,
        f"choquet worst rel {worst_rel:.2e} over 1000 draws; "
        f"pointwise and integrated chains on 100 instances",
    )


def test_criterion_8_weighted_testing_condition(default_reports):
    rep = default_reports["wcet-suite"]
    agg = rep.aggregates
    ok = rep.verdicts["necessity_identity"] and rep.verdicts["forward_bound_holds"] and \
        rep.verdicts["probe_never_exceeds"]
    _report(
        "8 weighted testing constant: necessity identity and forward bound",
        ok,
        f"probe identity err {agg['max_probe_rel_err']:.2e} (tol 1e-8) on {agg['rows']} "
        f"instances, forward ratio {agg['max_forward_ratio']:.4f} <= C''={agg['forward_bound']}",
    )


def test_criterion_9_adversarial_search_sanity(default_reports):
    # the bet_norm_ratio search is the default one: depth 3, d 2, seed 0,
    # budget 10000, cond_cap 1e4
    rep = default_reports["adversarial-search:bet_norm_ratio"]
    assert (rep.config["depth"], rep.config["d"], rep.config["budget"]) == (3, 2, 10000)
    bet = rep.aggregates
    t0 = time.perf_counter()
    sred = adversarial_search(depth=3, d=1, seed=0, objective="sred_ratio",
                              budget=10000, cond_cap=1e4)
    elapsed = bet["elapsed_seconds"] + time.perf_counter() - t0
    attained = bet["best_value"] >= 0.99 * math.sqrt(bet["best_c2"])
    bounded = sred["best_value"] <= 4.0
    _report(
        "9 adversarial search attains the family and respects the bounds",
        attained and bounded and elapsed < 300.0,
        f"bet best {bet['best_value']:.2f} vs 0.99*sqrt(c2)={0.99 * math.sqrt(bet['best_c2']):.2f}; "
        f"sred best {sred['best_value']:.4f} <= 4; elapsed={elapsed:.1f}s",
    )
