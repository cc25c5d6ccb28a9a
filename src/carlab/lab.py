"""Experiment harness: configs, seeded suites, reports.

Every experiment is a pure function of its configuration: all randomness is
seeded, so any report row can be regenerated from the config plus the seed
or eps it carries.  Reports collect rows, suite aggregates and boolean
verdicts; the CLI turns failed verdicts into a nonzero exit code.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import baselines, matrices
from .bellman import (
    BellmanPoint,
    bellman_eval,
    bellman_second_derivative,
    concavity_gaps,
    dm_gaps,
    dynamics_gaps,
    matrix_parameter_probe,
    size_gaps,
    telescoping_certificate,
)
from .characteristics import (
    MatrixSequence,
    ScalarSequence,
    a2_characteristic,
    c2_conditioning,
    carleson_intensity,
    level_powers,
    subtree_sums,
    testing_terms,
    wcet_testing_constant,
)
from .constructions import (
    EPS_SWEEP,
    epsilon_family,
    necessity_probe,
    random_instance,
    random_scalar_sequence,
    random_weight_field,
)
from .dyadic import DyadicIndex, stepfield_from_json, stepfield_to_json
from .embeddings import (
    bet_inner_sum,
    bet_norm_sum,
    cet_sum,
    maximal_function,
    weighted_l2_norm,
)
from .errors import ConfigError, LabError
from .redundancy import (
    red_constants,
    sred_constant,
    substitution_error,
    trace_cycling_error,
)
from .search import OBJECTIVES, adversarial_search

EXPERIMENTS = (
    "counterexample-sweep",
    "c2-sharpness",
    "sibet-suite",
    "wcet-suite",
    "bellman-certify",
    "redundancy-suite",
    "adversarial-search",
)

# Pinned CSV column orders.  The sweep columns are part of the external
# interface and must not change.
CSV_COLUMNS = {
    "counterexample-sweep": [
        "eps", "depth", "intensity", "a2", "c2", "f_norm", "g_norm",
        "bet_norm_sum", "bet_inner_sum", "ratio_norm", "ratio_inner",
        "ratio_over_sqrt_c2",
    ],
    "c2-sharpness": [
        "eps", "depth", "intensity", "a2", "c2", "f_norm", "g_norm",
        "bet_norm_sum", "bet_inner_sum", "ratio_norm", "ratio_inner",
        "ratio_over_sqrt_c2",
    ],
}


def _is_real(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass
class ExperimentConfig:
    experiment: str
    depth: int = 4
    d: int = 2
    seeds: list = field(default_factory=lambda: list(range(20)))
    eps_grid: list = field(default_factory=lambda: list(EPS_SWEEP))
    rotations: list = field(default_factory=lambda: [0.0, math.pi / 4])
    cond_cap: float = 1e6
    output_path: str | None = None
    format: str = "csv"
    samples: int = 10000
    budget: int = 10000
    objective: str = "bet_norm_ratio"
    extra_instances: list = field(default_factory=list)

    def __post_init__(self):
        self.validate()

    def validate(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}")
        for name in ("depth", "d", "samples", "budget"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not 0 <= self.depth <= 12:
            raise ConfigError(f"depth must lie in [0, 12], got {self.depth}")
        if not 1 <= self.d <= 8:
            raise ConfigError(f"d must lie in [1, 8], got {self.d}")
        if not isinstance(self.seeds, list) or not self.seeds:
            raise ConfigError(f"seeds must be a non-empty list, got {self.seeds!r}")
        for seed in self.seeds:
            if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
                raise ConfigError(f"seeds must be non-negative integers, got {seed!r}")
        if self.experiment == "sibet-suite" and min(self.d, len(self.seeds)) < 2:
            raise ConfigError("sibet-suite needs a d = 2 random row: d >= 2 and 2 or more seeds")
        for name in ("eps_grid", "rotations"):
            value = getattr(self, name)
            if not isinstance(value, list) or not all(map(_is_real, value)):
                raise ConfigError(f"{name} must be a list of real numbers, got {value!r}")
        if not self.eps_grid:
            raise ConfigError("eps grid must be non-empty")
        if any(not 0.0 < e <= 1.0 for e in self.eps_grid):
            raise ConfigError(f"eps values must lie in (0, 1], got {self.eps_grid}")
        if not self.rotations:
            raise ConfigError("rotation list must be non-empty")
        if not _is_real(self.cond_cap):
            raise ConfigError(f"cond_cap must be a real number, got {self.cond_cap!r}")
        if not 1.0 <= self.cond_cap <= 1e8:
            raise ConfigError(f"cond_cap must lie in [1, 1e8], got {self.cond_cap}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")
        if self.samples < 1:
            raise ConfigError(f"samples must be >= 1, got {self.samples}")
        if self.budget < 1:
            raise ConfigError(f"budget must be >= 1, got {self.budget}")
        if self.objective not in OBJECTIVES:
            raise ConfigError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")
        if self.experiment == "adversarial-search" and len(self.seeds) != 1:
            raise ConfigError(f"adversarial-search runs one seed, got {self.seeds!r}")

    @classmethod
    def from_dict(cls, obj):
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(obj) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**obj)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self):
        return asdict(self)


def default_config(experiment, **overrides):
    """The acceptance-grade configuration of each experiment."""
    presets = {
        "counterexample-sweep": dict(depth=4, seeds=[0]),
        "c2-sharpness": dict(depth=4, seeds=[0]),
        "sibet-suite": dict(depth=6, d=4, seeds=list(range(200)), cond_cap=1e6),
        "wcet-suite": dict(depth=6, d=4, seeds=list(range(100)), cond_cap=1e4),
        "bellman-certify": dict(depth=4, d=4, seeds=list(range(100)), samples=10000),
        "redundancy-suite": dict(depth=8, d=4, seeds=list(range(500)), cond_cap=1e4),
        "adversarial-search": dict(depth=3, d=2, seeds=[0], cond_cap=1e4, budget=10000),
    }
    if experiment not in presets:
        raise ConfigError(f"unknown experiment {experiment!r}")
    return ExperimentConfig.from_dict({"experiment": experiment} | presets[experiment] | overrides)


@dataclass
class LabReport:
    experiment: str
    config: dict
    rows: list
    aggregates: dict
    verdicts: dict
    stamp: dict

    @property
    def passed(self):
        return all(self.verdicts.values())

    def to_json_obj(self):
        return {
            "schema": 1,
            "config": self.config,
            "rows": self.rows,
            "aggregates": self.aggregates,
            "verdicts": self.verdicts,
            "stamp": self.stamp,
        }

    def write(self, path, fmt):
        if fmt == "json":
            with open(path, "w") as fh:
                json.dump(self.to_json_obj(), fh, indent=1, default=float)
        else:
            columns = CSV_COLUMNS.get(self.experiment)
            if columns is None:
                columns = list(self.rows[0]) if self.rows else []
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(columns)
                for row in self.rows:
                    writer.writerow([row.get(c, "") for c in columns])


def _stamp():
    from . import __version__

    return {"package": "carlab", "version": __version__, "numpy": np.__version__}


def run_experiment(cfg):
    """Run one experiment; write the report if an output path is set."""
    started = time.perf_counter()
    runner = {
        "counterexample-sweep": _run_sweep,
        "c2-sharpness": _run_sharpness,
        "sibet-suite": _run_sibet,
        "wcet-suite": _run_wcet,
        "bellman-certify": _run_bellman,
        "redundancy-suite": _run_redundancy,
        "adversarial-search": _run_search,
    }[cfg.experiment]
    rows, aggregates, verdicts = runner(cfg)
    aggregates["elapsed_seconds"] = time.perf_counter() - started
    report = LabReport(
        experiment=cfg.experiment,
        config=cfg.to_dict(),
        rows=rows,
        aggregates=aggregates,
        verdicts=verdicts,
        stamp=_stamp(),
    )
    if cfg.output_path:
        report.write(cfg.output_path, cfg.format)
    return report


# ---------------------------------------------------------------------------
# Counterexample sweep and sharpness.
# ---------------------------------------------------------------------------

def sweep_row(eps, rotation, depth):
    """All reported quantities for one family member."""
    inst = epsilon_family(eps, rotation, depth)
    f_norm = weighted_l2_norm(inst.f)
    g_norm = weighted_l2_norm(inst.g)
    bns = bet_norm_sum(inst.w, inst.seq_norm, inst.f, inst.g)
    bis = bet_inner_sum(inst.w, inst.seq_inner, inst.f, inst.g)
    c2 = c2_conditioning(inst.w)
    return {
        "eps": eps,
        "depth": depth,
        "intensity": inst.intensity_norm,
        "a2": a2_characteristic(inst.w),
        "c2": c2,
        "f_norm": f_norm,
        "g_norm": g_norm,
        "bet_norm_sum": bns,
        "bet_inner_sum": bis,
        "ratio_norm": bns / (f_norm * g_norm),
        "ratio_inner": bis / (f_norm * g_norm),
        "ratio_over_sqrt_c2": bns / (f_norm * g_norm * math.sqrt(c2)),
        "theta": rotation,
        "intensity_inner": inst.intensity_inner,
        "intensity_alpha": inst.intensity_alpha,
        "ratio_norm_scalar_seq": bet_norm_sum(inst.w, inst.alpha, inst.f, inst.g)
        / (f_norm * g_norm),
        "inner_scalar_seq": bet_inner_sum(inst.w, inst.alpha, inst.f, inst.g),
    }


def _sweep_rows(cfg):
    return [
        sweep_row(eps, theta, cfg.depth)
        for theta in cfg.rotations
        for eps in cfg.eps_grid
    ]


def _run_sweep(cfg):
    rows = _sweep_rows(cfg)
    checks = {
        "intensity_unit": max(abs(r["intensity"] - 1.0) for r in rows) <= 1e-10,
        "f_norm_matches_eps": max(abs(r["f_norm"] / r["eps"] - 1.0) for r in rows) <= 1e-10,
        "g_norm_unit": max(abs(r["g_norm"] - 1.0) for r in rows) <= 1e-10,
        "bet_norm_sum_unit": max(abs(r["bet_norm_sum"] - 1.0) for r in rows) <= 1e-9,
        "ratio_norm_inverse_eps": max(abs(r["ratio_norm"] * r["eps"] - 1.0) for r in rows)
        <= 1e-9,
        "a2_unit": max(abs(r["a2"] - 1.0) for r in rows) <= 1e-10,
        "inner_sum_half": max(abs(r["bet_inner_sum"] - 0.5) for r in rows) <= 1e-9,
        "scalar_seq_ratio_matches": max(
            abs(r["ratio_norm_scalar_seq"] / r["ratio_norm"] - 1.0) for r in rows
        )
        <= 1e-9,
    }
    aggregates = {
        "max_ratio_norm": max(r["ratio_norm"] for r in rows),
        "min_eps": min(r["eps"] for r in rows),
        "rows": len(rows),
    }
    return rows, aggregates, checks


def _run_sharpness(cfg):
    rows = _sweep_rows(cfg)
    checks = {
        "ratio_attains_sqrt_c2": max(abs(r["ratio_over_sqrt_c2"] - 1.0) for r in rows) <= 1e-9,
        "c2_matches_definition": max(abs(r["c2"] * r["eps"] ** 2 - 1.0) for r in rows) <= 1e-9,
    }
    aggregates = {"rows": len(rows)}
    return rows, aggregates, checks


# ---------------------------------------------------------------------------
# Randomized suites.
# ---------------------------------------------------------------------------

def suite_instance_params(index, d_max, depth_max, depth_min=3):
    """Deterministic (d, depth) ladder for the seeded suites."""
    d = 1 + index % max(1, min(d_max, 4))
    depth_min = min(depth_min, depth_max)
    depth = depth_min + index % (depth_max - depth_min + 1)
    return d, depth


def _normalized_intensity(seq):
    """Rescale a sequence so the redundancy/embedding preconditions hold."""
    if seq is None or not len(seq):
        return seq
    intensity = carleson_intensity(seq)
    return seq.scaled(1.0 / intensity) if intensity > 1.0 else seq


def _parse_embedded(obj, index):
    """One user-supplied instance from the config's extra_instances list."""
    try:
        w = stepfield_from_json(obj["weight"])
        f = stepfield_from_json(obj["f"]) if "f" in obj else None
        g = stepfield_from_json(obj["g"]) if "g" in obj else None
        alpha = ScalarSequence.from_json(obj["alpha"]) if "alpha" in obj else None
        mseq = MatrixSequence.from_json(obj["matrix_seq"]) if "matrix_seq" in obj else None
    except (KeyError, TypeError, ValueError, LabError) as exc:
        raise ConfigError(f"bad embedded instance #{index}: {exc}") from exc
    for name, part in (("f", f), ("g", g), ("alpha", alpha), ("matrix_seq", mseq)):
        if part is None:
            continue
        if part.depth != w.depth:
            raise ConfigError(
                f"bad embedded instance #{index}: {name} has depth {part.depth}, "
                f"the weight has depth {w.depth}"
            )
        # a scalar sequence carries no dimension and fits any weight
        if name != "alpha" and part.d != w.d:
            raise ConfigError(
                f"bad embedded instance #{index}: {name} has d={part.d}, the weight has d={w.d}"
            )
    return w, f, g, _normalized_intensity(alpha), _normalized_intensity(mseq)


def _sibet_row(kind, seed, eps, w, seq, f, g):
    fg = weighted_l2_norm(f) * weighted_l2_norm(g)
    norm = bet_norm_sum(w, seq, f, g)
    c2 = c2_conditioning(w)
    return {
        "kind": kind,
        "seed": seed,
        "d": w.d,
        "depth": w.depth,
        "eps": eps,
        "inner_ratio": bet_inner_sum(w, seq, f, g) / fg,
        "norm_ratio": norm / fg,
        "norm_over_sqrt_c2": norm / (fg * math.sqrt(c2)),
        "c2": c2,
    }


def _run_sibet(cfg):
    rows = []
    for i, seed in enumerate(cfg.seeds):
        d, depth = suite_instance_params(i, cfg.d, cfg.depth)
        inst = random_instance(depth, d, seed, cfg.cond_cap)
        rows.append(_sibet_row("random", seed, "", inst.w, inst.sseq, inst.f, inst.g))
    for idx, obj in enumerate(cfg.extra_instances):
        w, f, g, alpha, _ = _parse_embedded(obj, idx)
        if f is None or g is None or alpha is None:
            raise ConfigError(f"embedded instance #{idx} needs weight, f, g and alpha")
        rows.append(_sibet_row("embedded", f"embedded-{idx}", "", w, alpha, f, g))
    for theta in cfg.rotations:
        for eps in cfg.eps_grid:
            inst = epsilon_family(eps, theta, min(cfg.depth, 4))
            rows.append(_sibet_row("sweep", "", eps, inst.w, inst.alpha, inst.f, inst.g))
    random_rows = [r for r in rows if r["kind"] == "random"]
    sweep_rows = [r for r in rows if r["kind"] == "sweep"]
    max_random = max(r["inner_ratio"] for r in random_rows)
    max_random_d2 = max(r["inner_ratio"] for r in random_rows if r["d"] == 2)
    max_sweep = max(r["inner_ratio"] for r in sweep_rows)
    max_norm_over_sqrt_c2 = max(r["norm_over_sqrt_c2"] for r in rows)
    aggregates = {
        "max_inner_ratio_random": max_random,
        "max_inner_ratio_random_d2": max_random_d2,
        "max_inner_ratio_sweep": max_sweep,
        "max_norm_over_sqrt_c2": max_norm_over_sqrt_c2,
        "cprime_bound": baselines.SIBET_CPRIME,
        "rows": len(rows),
    }
    verdicts = {
        "inner_ratio_within_cprime": max_random <= baselines.SIBET_CPRIME,
        "no_growth_along_sweep": max_sweep <= 1.05 * max_random_d2,
        "norm_ratio_within_c2bet": max_norm_over_sqrt_c2 <= baselines.C2BET_C,
    }
    return rows, aggregates, verdicts


def necessity_report(w, seq, rng, samples_per_cube=6):
    """Compare the testing constant against its testing-vector probes.

    Returns (testing, probe_sup, sampled_max, worst_cube_rel_err): the
    eigenvalue route, the probe at each cube's top testing vector, the
    largest randomly-sampled probe, and the worst per-cube relative gap
    between the two routes.
    """
    wm = w.as_matrix()
    wavg = wm.pyramid()
    acc = subtree_sums(testing_terms(wavg, seq))
    testing = 0.0
    probe_sup = 0.0
    sampled_max = 0.0
    worst_rel = 0.0
    d = wm.d
    for k, roots in enumerate(level_powers(wavg, -0.5)):
        sandwich = roots @ acc[k] @ roots
        for p in range(1 << k):
            lam, vecs = matrices.eigh_sym(
                matrices.as_symmetric(sandwich[p] * (1 << k))
            )
            top = float(lam[-1])
            testing = max(testing, top)
            e_star = roots[p] @ vecs[:, -1]
            nrm = float(np.sqrt(e_star @ e_star))
            if nrm == 0.0:
                continue
            value = necessity_probe(wm, seq, DyadicIndex(k, p), e_star / nrm)
            probe_sup = max(probe_sup, value)
            if top > 1e-12:
                worst_rel = max(worst_rel, abs(value - top) / top)
            for _ in range(samples_per_cube):
                e = rng.standard_normal(d)
                e /= np.linalg.norm(e)
                sampled_max = max(sampled_max, necessity_probe(wm, seq, DyadicIndex(k, p), e))
    return testing, probe_sup, sampled_max, worst_rel


def _run_wcet(cfg):
    rows = []
    for i, seed in enumerate(cfg.seeds):
        d, depth = suite_instance_params(i, cfg.d, cfg.depth)
        inst = random_instance(depth, d, seed, cfg.cond_cap)
        rng = np.random.default_rng(seed + 10_000_019)
        testing = wcet_testing_constant(inst.w, inst.mseq)
        embed = cet_sum(inst.w, inst.mseq, inst.f)
        fnorm = weighted_l2_norm(inst.f)
        t_ref, probe_sup, sampled_max, worst_rel = necessity_report(inst.w, inst.mseq, rng)
        mf = maximal_function(inst.w, inst.f)
        rows.append({
            "seed": seed,
            "d": d,
            "depth": depth,
            "testing_constant": testing,
            "cet_sum": embed,
            "forward_ratio": embed / (testing * fnorm**2),
            "probe_sup": probe_sup,
            "probe_rel_err": abs(probe_sup - testing) / testing,
            "probe_cube_rel_err": worst_rel,
            "sampled_excess": sampled_max - testing,
            "testing_recomputed_rel_err": abs(t_ref - testing) / testing,
            "maximal_ratio": weighted_l2_norm(mf.as_vector()) / fnorm,
        })
    max_forward = max(r["forward_ratio"] for r in rows)
    max_probe_err = max(r["probe_rel_err"] for r in rows)
    max_cube_err = max(r["probe_cube_rel_err"] for r in rows)
    max_excess = max(r["sampled_excess"] for r in rows)
    max_maximal = max(r["maximal_ratio"] for r in rows)
    aggregates = {
        "max_forward_ratio": max_forward,
        "max_probe_rel_err": max_probe_err,
        "max_cube_rel_err": max_cube_err,
        "max_sampled_excess": max_excess,
        "max_maximal_ratio": max_maximal,
        "forward_bound": baselines.WCET_FORWARD_C,
        "rows": len(rows),
    }
    verdicts = {
        "forward_bound_holds": max_forward <= baselines.WCET_FORWARD_C,
        "necessity_identity": max_probe_err <= 1e-8 and max_cube_err <= 1e-8,
        "probe_never_exceeds": max_excess <= 1e-9,
        "maximal_function_bounded": max_maximal <= baselines.MAXIMAL_L2_C,
    }
    return rows, aggregates, verdicts


HESSIAN_CHECK = {
    "u": np.diag([5.0, 4.0]),
    "v": np.diag([0.4, 0.5]),
    "dv": np.diag([0.3, -0.35]),
    "m": 0.4,
    "dm": 40.0,
}


def hessian_richardson_ratio(ts=(1e-3, 1e-4)):
    """Error ratio of the centered second difference against the closed form.

    The second difference converges at rate t^2, so halving t by 10 must
    shrink the defect by about 100; the fixed direction has a large fourth
    derivative so the defect stays far above rounding noise at both steps.
    """
    u, v, dv = HESSIAN_CHECK["u"], HESSIAN_CHECK["v"], HESSIAN_CHECK["dv"]
    m, dm = HESSIAN_CHECK["m"], HESSIAN_CHECK["dm"]
    p = BellmanPoint(u, v, m)
    exact = bellman_second_derivative(p, dv, dm)
    errs = []
    for t in ts:
        plus = bellman_eval(BellmanPoint(u, v + t * dv, m + t * dm))
        minus = bellman_eval(BellmanPoint(u, v - t * dv, m - t * dm))
        center = bellman_eval(p)
        second = (plus - 2.0 * center + minus) / (t * t)
        errs.append(matrices.operator_norm(matrices.as_symmetric(second - exact)))
    return errs[0] / errs[1]


def _worst(gaps, dims, bound):
    """(worst gap, violations, worst sample) of one sampling check.

    The worst sample is the first minimal gap, as a running ``min`` keeps
    it; its index counts the check's samples in draw order.
    """
    i = int(np.argmin(gaps))
    sample = {"index": i, "d": int(dims[i])}
    return float(gaps[i]), int(np.count_nonzero(gaps < bound)), sample


def _run_bellman(cfg):
    n = cfg.samples
    rng = np.random.default_rng(cfg.seeds[0])
    d_max = min(cfg.d, 4)
    h = 1e-5

    size_worst, size_violations, size_sample = _worst(*size_gaps(rng, n, d_max), -1e-9)
    concavity_worst, concavity_violations, concavity_sample = _worst(
        *concavity_gaps(rng, n, d_max), -1e-8
    )
    dm_worst, dm_violations, dm_sample = _worst(
        *dm_gaps(rng, n, d_max, h), -1e-4 * (h / 1e-5)
    )

    dynamics_worst = np.inf
    dynamics_violations = 0
    for i, seed in enumerate(cfg.seeds):
        d, depth = suite_instance_params(i, d_max, min(cfg.depth, 5))
        inst_rng = np.random.default_rng(seed)
        w = random_weight_field(depth, d, inst_rng, cond_cap=1e3)
        alpha = random_scalar_sequence(depth, inst_rng)
        gaps = dynamics_gaps(w, alpha)  # empty on a depth-0 tree
        dynamics_worst = min(dynamics_worst, min(gaps.values(), default=np.inf))
        dynamics_violations += sum(g < -1e-9 for g in gaps.values())

    richardson = hessian_richardson_ratio()
    probe = matrix_parameter_probe(d=2, n_pairs=min(n, 2000), seed=cfg.seeds[0])

    rows = [
        {"check": "size", "samples": n, "worst_gap": size_worst, "bound": -1e-9,
         "violations": size_violations},
        {"check": "concavity", "samples": n, "worst_gap": concavity_worst, "bound": -1e-8,
         "violations": concavity_violations},
        {"check": "dm", "samples": n, "worst_gap": dm_worst, "bound": -1e-4 * (h / 1e-5),
         "violations": dm_violations},
        {"check": "dynamics", "samples": len(cfg.seeds), "worst_gap": dynamics_worst,
         "bound": -1e-9, "violations": dynamics_violations},
        {"check": "hessian_richardson", "samples": 2, "worst_gap": richardson,
         "bound": 100.0, "violations": int(not 80.0 <= richardson <= 120.0)},
        {"check": "matrix_parameter_probe(informational)", "samples": probe["pairs"],
         "worst_gap": probe["min_gap"], "bound": float("nan"),
         "violations": int(probe["negative_fraction"] * probe["pairs"])},
    ]
    aggregates = {
        "richardson_ratio": richardson,
        "matrix_probe_negative_fraction": probe["negative_fraction"],
        "rows": len(rows),
        # The sample behind each sampling row's worst gap: its index in the
        # check's draw order (the checks draw from one generator seeded
        # with seeds[0]: size, then concavity, then dm) and its d.
        "worst_samples": {"size": size_sample, "concavity": concavity_sample, "dm": dm_sample},
    }
    verdicts = {
        "size_bounds": size_worst >= -1e-9,
        "midpoint_concavity": concavity_worst >= -1e-8,
        "dm_bound": dm_worst >= -1e-4 * (h / 1e-5),
        "dynamics_gap": dynamics_worst >= -1e-9,
        "hessian_richardson": 80.0 <= richardson <= 120.0,
    }
    return rows, aggregates, verdicts


def _run_redundancy(cfg):
    rows = []
    sred_by_d = {}
    red_by_d = {}
    # The cross-check loop below reuses the suite's instance i, and its
    # constants, when it would build the same one.
    n_head = min(50, len(cfg.seeds))
    head = [(*suite_instance_params(i, cfg.d, min(cfg.depth, 6), depth_min=4),
             min(cfg.cond_cap, 1e4)) for i in range(n_head)]
    reused = {}
    for i, seed in enumerate(cfg.seeds):
        d, depth = suite_instance_params(i, cfg.d, cfg.depth, depth_min=4)
        inst = random_instance(depth, d, seed, cfg.cond_cap)
        s = sred_constant(inst.w, inst.sseq)
        c1, c2, c3 = red_constants(inst.w, inst.mseq)
        if i < n_head and head[i] == (d, depth, cfg.cond_cap):
            reused[i] = inst, (c1, c2, c3)
        sred_by_d.setdefault(d, []).append(s)
        red_by_d.setdefault(d, []).append(max(c1, c2, c3))
        rows.append({
            "kind": "suite",
            "seed": seed,
            "d": d,
            "depth": depth,
            "sred": s,
            "red_c1": c1,
            "red_c2": c2,
            "red_c3": c3,
        })

    for idx, obj in enumerate(cfg.extra_instances):
        w, _, _, alpha, mseq = _parse_embedded(obj, idx)
        row = {"kind": "embedded", "seed": f"embedded-{idx}", "d": w.d, "depth": w.depth,
               "sred": "", "red_c1": "", "red_c2": "", "red_c3": ""}
        if alpha is not None:
            row["sred"] = sred_constant(w, alpha)
            sred_by_d.setdefault(w.d, []).append(row["sred"])
        if mseq is not None:
            c1, c2, c3 = red_constants(w, mseq)
            row.update(red_c1=c1, red_c2=c2, red_c3=c3)
            red_by_d.setdefault(w.d, []).append(max(c1, c2, c3))
        rows.append(row)

    # Bellman telescoping cross-check on the head of the suite, and
    # structural identities on the first 20 of those instances.
    telescope_diff = 0.0
    telescope_gap = np.inf
    rng = np.random.default_rng(cfg.seeds[0] + 77)
    mono_ok = True
    cycle_err = 0.0
    subst_err = 0.0
    for i, (d, depth, cond_cap) in enumerate(head):
        inst, c = reused.get(i) or (random_instance(depth, d, cfg.seeds[i], cond_cap), None)
        direct, accumulated, min_gap = telescoping_certificate(inst.w, inst.sseq)
        telescope_diff = max(
            telescope_diff, matrices.operator_norm(direct - accumulated)
        )
        telescope_gap = min(telescope_gap, min_gap)
        if i >= 20:
            continue
        c1, c2, c3 = c or red_constants(inst.w, inst.mseq)
        norms = matrices.operator_norm_stack(inst.mseq.values)
        eye = np.eye(d)
        dominated = MatrixSequence(depth, d, zip(inst.mseq.entries, norms[:, None, None] * eye))
        intensity = carleson_intensity(dominated)
        k1, k2, k3 = red_constants(inst.w, dominated.scaled(1.0 / intensity))
        # Undo the intensity normalization to compare against the raw sequence.
        k1, k2, k3 = k1 * intensity, k2 * intensity, k3 * intensity
        if min(k1 - c1, k2 - c2, k3 - c3) < -1e-8:
            mono_ok = False
        cycle_err = max(cycle_err, trace_cycling_error(inst.w, inst.mseq, norms))
        subst_err = max(subst_err, substitution_error(inst.w, inst.mseq, rng, samples=5))

    all_sred = [v for vals in sred_by_d.values() for v in vals]
    all_red_rows = [r for r in rows if r["red_c1"] != ""]
    max_sred = max(all_sred)
    aggregates = {
        "max_sred": max_sred,
        "sred_by_d": {d: max(v) for d, v in sorted(sred_by_d.items())},
        "red_by_d": {d: max(v) for d, v in sorted(red_by_d.items())},
        "telescoping_max_diff": telescope_diff,
        "telescoping_min_gap": telescope_gap,
        "trace_cycling_max_err": cycle_err,
        "substitution_max_err": subst_err,
        "rows": len(rows),
    }
    verdicts = {
        "sred_at_most_4": max_sred <= 4.0,
        "red_at_most_4d": all(
            max(r["red_c1"], r["red_c2"], r["red_c3"]) <= 4.0 * r["d"] for r in all_red_rows
        ),
        "sred_regression": all(
            max(v) <= baselines.SRED_MAX[d] for d, v in sred_by_d.items() if d in baselines.SRED_MAX
        ),
        "red_regression": all(
            max(v) <= baselines.RED_MAX[d] for d, v in red_by_d.items() if d in baselines.RED_MAX
        ),
        "telescoping_cross_oracle": telescope_diff <= 1e-8 and telescope_gap >= -1e-9,
        "operator_norm_monotonicity": mono_ok,
        "trace_cycling_identity": cycle_err <= 1e-10,
        "substitution_identity": subst_err <= 1e-10,
    }
    return rows, aggregates, verdicts


def _run_search(cfg):
    result = adversarial_search(
        depth=cfg.depth, d=cfg.d, seed=cfg.seeds[0], objective=cfg.objective,
        budget=cfg.budget, cond_cap=cfg.cond_cap,
    )
    rows = result["history"]
    aggregates = {
        "objective": cfg.objective,
        "best_value": result["best_value"],
        "best_c2": result["best_c2"],
        "best_a2": result["best_a2"],
        "best_over_sqrt_c2": result["best_over_sqrt_c2"],
        "evaluations": result["evaluations"],
        "best_restart": result["best_restart"],
        "best_evaluation": result["best_evaluation"],
        "best_weight": stepfield_to_json(result["best_weight"]),
    }
    verdicts = {}
    if cfg.objective == "bet_norm_ratio":
        verdicts["attains_sqrt_c2"] = result["best_over_sqrt_c2"] >= 0.99
        verdicts["bounded_by_c2bet"] = (
            result["sanity_max_over_sqrt_c2"] <= 1.05 * baselines.C2BET_C
        )
    elif cfg.objective == "sred_ratio":
        verdicts["never_exceeds_4"] = result["best_value"] <= 4.0
    else:
        verdicts["never_exceeds_4d"] = result["best_value"] <= 4.0 * cfg.d
    monotone = all(
        rows[i]["best_objective"] <= rows[i + 1]["best_objective"]
        for i in range(len(rows) - 1)
    )
    verdicts["best_monotone"] = monotone
    return rows, aggregates, verdicts
