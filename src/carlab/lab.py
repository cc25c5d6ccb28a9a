"""Experiment harness: configs, seeded suites, reports.

Every experiment is a pure function of its configuration: all randomness is
seeded, so any report row can be regenerated from the config plus the seed
or eps it carries.  Reports collect rows, suite aggregates and boolean
verdicts, and record the solver and search work of the run; the CLI turns
failed verdicts into a nonzero exit code.  The experiments are declared in
one table, ``EXPERIMENTS``, at the end of the module: each has a preset
config, a runner and its pinned CSV columns.
"""

from __future__ import annotations

import copy
import csv
import ctypes
import functools
import json
import math
import numbers
import os
import platform
import sys
import time
from dataclasses import dataclass, field, asdict
from typing import Callable, NamedTuple

import numpy as np

from . import baselines, matrices
from .bellman import (
    concavity_gaps,
    dm_gaps,
    dynamics_gaps_batch,
    hessian_richardson_ratio,
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
    check_fits,
    wcet_testing_constant,
)
from .constructions import (
    EPS_SWEEP,
    epsilon_family,
    necessity_report,
    random_instance,
    random_scalar_sequence,
    random_weight_field,
)
from .dyadic import FieldBatch, StepField, stepfield_from_json, stepfield_to_json
from .embeddings import (
    bet_inner_sum,
    bet_norm_sum,
    cet_sum,
    maximal_function,
    weighted_l2_norm,
)
from .errors import ConfigError, LabError, first_failure
from .redundancy import (
    red_constants_checked,
    sred_constants_checked,
    substitution_error,
    trace_cycling_error,
)
from .search import OBJECTIVES, adversarial_search


def _is_real(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# upper limits of samples and budget, ten times the defaults: the sampled
# gaps and the search's move stream are held in memory whole
MAX_SAMPLES = MAX_BUDGET = 100_000


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
        names = tuple(EXPERIMENTS)
        if self.experiment not in names:
            raise ConfigError(f"unknown experiment {self.experiment!r}; choose from {names}")
        for name, lo, hi in (("depth", 0, 12), ("d", 1, 8), ("samples", 1, MAX_SAMPLES),
                             ("budget", 1, MAX_BUDGET)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if not lo <= value <= hi:
                raise ConfigError(f"{name} must lie in [{lo}, {hi}], got {value}")
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
        if not all(abs(r) <= sys.float_info.max for r in self.rotations):
            raise ConfigError(f"rotations must be finite floats, got {self.rotations!r}")
        if not self.eps_grid:
            raise ConfigError("eps grid must be non-empty")
        if any(not 0.0 < e <= 1.0 for e in self.eps_grid):
            raise ConfigError(f"eps values must lie in (0, 1], got {self.eps_grid}")
        if any(e * e <= matrices.SPD_REJECT for e in self.eps_grid):
            # the family's bottom eigenvalue eps^2 would be refused under W^-1
            raise ConfigError(
                f"eps values must exceed sqrt(SPD_REJECT) = {math.sqrt(matrices.SPD_REJECT):g}, "
                f"the eigenvalue floor of negative powers, got {self.eps_grid}"
            )
        if not self.rotations:
            raise ConfigError("rotation list must be non-empty")
        if not _is_real(self.cond_cap):
            raise ConfigError(f"cond_cap must be a real number, got {self.cond_cap!r}")
        if not 1.0 <= self.cond_cap <= 1e8:
            raise ConfigError(f"cond_cap must lie in [1, 1e8], got {self.cond_cap}")
        if self.output_path is not None and not isinstance(self.output_path, str):
            raise ConfigError(f"output_path must be a string or null, got {self.output_path!r}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")
        if self.objective not in OBJECTIVES:
            raise ConfigError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")
        if self.experiment == "adversarial-search" and len(self.seeds) != 1:
            raise ConfigError(f"adversarial-search runs one seed, got {self.seeds!r}")
        run = (self.experiment, self.objective)
        if run == ("adversarial-search", "bet_norm_ratio") and self.d < 2:
            # attains_sqrt_c2 compares with the counterexample family, a start state for d >= 2
            raise ConfigError(f"adversarial-search bet_norm_ratio needs d >= 2, got d = {self.d}")
        if not isinstance(self.extra_instances, list):
            raise ConfigError(f"extra_instances must be a list, got {self.extra_instances!r}")
        if self.experiment == "wcet-suite" and self.extra_instances:
            raise ConfigError("wcet-suite runs no extra_instances")

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
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    preset = copy.deepcopy(EXPERIMENTS[experiment].preset)  # each config owns its lists
    return ExperimentConfig.from_dict({"experiment": experiment} | preset | overrides)


@dataclass
class LabReport:
    experiment: str
    config: dict
    rows: list
    aggregates: dict
    verdicts: dict
    stamp: dict
    work: dict  # the change of ``matrices.TALLY`` over the run; unchanged keys left out

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
            "work": self.work,
        }

    def write(self, path, fmt):
        if fmt == "json":
            with open(path, "w") as fh:
                fh.write(json.dumps(self.to_json_obj(), indent=1, default=float))
        else:
            columns = EXPERIMENTS[self.experiment].columns
            if columns is None:
                columns = list(self.rows[0]) if self.rows else []
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(columns)
                for row in self.rows:
                    writer.writerow([row.get(c, "") for c in columns])


@functools.lru_cache(maxsize=None)
def _openblas_core():
    """The kernel numpy's bundled OpenBLAS chose for this CPU, from its
    ``scipy_openblas_get_corename64_``; None where that library or symbol is
    missing."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        lib = next(name for name in sorted(os.listdir(libs)) if "openblas" in name)
        core = ctypes.CDLL(os.path.join(libs, lib)).scipy_openblas_get_corename64_
    except (OSError, StopIteration, AttributeError):
        return None
    core.argtypes, core.restype = [], ctypes.c_char_p
    return core().decode()


def environment_stamp():
    """numpy, its BLAS and the kernel that BLAS chose, the SIMD kernels numpy
    dispatches to on this CPU, the longdouble epsilon, Python and the
    machine, as strings (the kernel None where it cannot be read): what,
    besides the code, a report's floats depend on.  ``platform.platform()``
    is left out: it takes milliseconds, and the stamp is built in every run."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints its config
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_core": _openblas_core(),
        "simd": " ".join(config.get("SIMD Extensions", {}).get("found", [])),
        "longdouble_eps": str(np.finfo(np.longdouble).eps),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def run_experiment(cfg):
    """Run one experiment; write the report if an output path is set."""
    from . import __version__

    tally, started = matrices.TALLY.copy(), time.perf_counter()
    rows, aggregates, verdicts = EXPERIMENTS[cfg.experiment].run(cfg)
    aggregates["elapsed_seconds"] = time.perf_counter() - started
    report = LabReport(experiment=cfg.experiment, config=cfg.to_dict(), rows=rows,
                       aggregates=aggregates, verdicts=verdicts,
                       stamp={"package": "carlab", "version": __version__, **environment_stamp()},
                       work=dict(sorted((matrices.TALLY - tally).items())))
    if cfg.output_path:
        report.write(cfg.output_path, cfg.format)
    return report


def _max(rows, key, **where):
    """Largest ``row[key]`` over the rows whose fields equal ``where``."""
    return max(r[key] for r in rows if all(r[k] == v for k, v in where.items()))


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


# (verdict, deviation of one row, bound on the largest deviation)
SWEEP_CHECKS = (
    ("intensity_unit", lambda r: abs(r["intensity"] - 1.0), 1e-10),
    ("f_norm_matches_eps", lambda r: abs(r["f_norm"] / r["eps"] - 1.0), 1e-10),
    ("g_norm_unit", lambda r: abs(r["g_norm"] - 1.0), 1e-10),
    ("bet_norm_sum_unit", lambda r: abs(r["bet_norm_sum"] - 1.0), 1e-9),
    ("ratio_norm_inverse_eps", lambda r: abs(r["ratio_norm"] * r["eps"] - 1.0), 1e-9),
    ("a2_unit", lambda r: abs(r["a2"] - 1.0), 1e-10),
    ("inner_sum_half", lambda r: abs(r["bet_inner_sum"] - 0.5), 1e-9),
    ("scalar_seq_ratio_matches",
     lambda r: abs(r["ratio_norm_scalar_seq"] / r["ratio_norm"] - 1.0), 1e-9),
)
SHARPNESS_CHECKS = (
    ("ratio_attains_sqrt_c2", lambda r: abs(r["ratio_over_sqrt_c2"] - 1.0), 1e-9),
    ("c2_matches_definition", lambda r: abs(r["c2"] * r["eps"] ** 2 - 1.0), 1e-9),
)


def _sweep(cfg, checks):
    """The family rows and the verdicts of one check table over them."""
    rows = [sweep_row(eps, theta, cfg.depth) for theta in cfg.rotations for eps in cfg.eps_grid]
    return rows, {name: max(map(dev, rows)) <= bound for name, dev, bound in checks}


def _run_sweep(cfg):
    rows, verdicts = _sweep(cfg, SWEEP_CHECKS)
    aggregates = {
        "max_ratio_norm": _max(rows, "ratio_norm"),
        "min_eps": min(r["eps"] for r in rows),
        "rows": len(rows),
    }
    return rows, aggregates, verdicts


def _run_sharpness(cfg):
    rows, verdicts = _sweep(cfg, SHARPNESS_CHECKS)
    return rows, {"rows": len(rows)}, verdicts


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
    """Rescale a sequence so the redundancy/embedding preconditions hold;
    refuses one whose Carleson intensity overflows, which no rescaling fits."""
    if seq is None or not len(seq):
        return seq
    with np.errstate(over="ignore", invalid="ignore"):
        intensity = carleson_intensity(seq)
    if not math.isfinite(intensity):
        raise ConfigError(f"Carleson intensity {intensity} is not finite")
    return seq.scaled(1.0 / intensity) if intensity > 1.0 else seq


# the optional parts of an embedded instance and their readers, in reading order
EMBEDDED_PARTS = {name: lambda obj: stepfield_from_json(obj).as_vector() for name in ("f", "g")}
EMBEDDED_PARTS.update(alpha=ScalarSequence.from_json, matrix_seq=MatrixSequence.from_json)


def _parse_embedded(obj, index):
    """One user-supplied instance from the config's extra_instances list: a
    matrix weight and each part of ``EMBEDDED_PARTS`` it holds (else None),
    every part fitting the weight (``check_fits``)."""
    parts, name = dict.fromkeys(EMBEDDED_PARTS), "weight"
    try:
        w = stepfield_from_json(obj["weight"]).as_matrix()
        for name, read in EMBEDDED_PARTS.items():
            if name in obj:
                parts[name] = read(obj[name])
                check_fits(w, parts[name])
        for name in ("alpha", "matrix_seq"):
            parts[name] = _normalized_intensity(parts[name])
    except (KeyError, TypeError, ValueError, LabError) as exc:
        raise ConfigError(f"bad embedded instance #{index}: {name}: {exc}") from exc
    return w, *parts.values()


def _suite_plan(cfg, kind, depth_max, depth_min):
    """((d, depth), build) of each instance of a suite, in order: each seed's
    ``random_instance`` on the ``suite_instance_params`` ladder, then each
    embedded instance, where ``build()`` gives (kind, seed, w, alpha, mseq,
    f, g): kind "embedded", seed "embedded-<i>" and None for each part an
    embedded instance lacks; ``kind`` labels the random ones.  Every
    embedded instance is read here, and refused if bad, before any random
    instance is built."""
    plan = []
    for i, seed in enumerate(cfg.seeds):
        d, depth = suite_instance_params(i, cfg.d, depth_max, depth_min)
        build = functools.partial(_random_member, kind, seed, depth, d, cfg.cond_cap)
        plan.append(((d, depth), build))
    for i, obj in enumerate(cfg.extra_instances):
        w, f, g, alpha, mseq = _parse_embedded(obj, i)
        if cfg.experiment == "sibet-suite":  # its rows pair f and g through alpha, over |f| |g|
            if f is None or g is None or alpha is None:
                raise ConfigError(f"embedded instance #{i} needs weight, f, g and alpha")
            for name, part in (("f", f), ("g", g)):
                if weighted_l2_norm(part) == 0.0:
                    raise ConfigError(f"bad embedded instance #{i}: {name} has L2 norm 0")
        inst = ("embedded", f"embedded-{i}", w, alpha, mseq, f, g)
        plan.append(((w.d, w.depth), lambda inst=inst: inst))
    return plan


def _random_member(kind, seed, depth, d, cond_cap):
    inst = random_instance(depth, d, seed, cond_cap)
    return kind, seed, inst.w, inst.sseq, inst.mseq, inst.f, inst.g


def _suite_instances(cfg, kind, depth_max, depth_min=3):
    """The instances of ``_suite_plan``, built one at a time, in order."""
    for _, build in _suite_plan(cfg, kind, depth_max, depth_min):
        yield build()


def _groups(keys):
    """The indices of each distinct key in ``keys``, in the order of their first index."""
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def _grouped(groups, build, evaluate):
    """One result per index, and the first failure of a loop over the indices.

    Each group (a list of indices) is built (``build(i)`` of each), passed
    to ``evaluate`` as one list of (index, member) pairs, which returns the
    members' results in order, and freed, one group at a time.  A group
    that raises is evaluated again as batches of one, up to its first member
    that raises (``errors.first_failure``).  Returns (results by index,
    failure): failure is None, or (i, error) of the first index i, in index
    order, whose member raises alone, as a loop over the indices would
    raise; the indices of a group from that member on have no result.  A
    group that raises while none of its members does alone fails as a
    whole, at its first index, and none of its indices has a result.
    """
    results, failure = {}, None
    for group in groups:
        members = [(i, build(i)) for i in group]
        try:
            out, b, error = first_failure(lambda sl: evaluate(members[sl]), len(group))
        except LabError as exc:
            out, b, error = None, 0, exc
        results.update(zip(group, out or ()))
        if error is not None and (failure is None or group[b] < failure[0]):
            failure = (group[b], error)
    return results, failure


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
    rows = [_sibet_row(kind, seed, "", w, alpha, f, g)
            for kind, seed, w, alpha, _, f, g in _suite_instances(cfg, "random", cfg.depth)]
    for theta in cfg.rotations:
        for eps in cfg.eps_grid:
            inst = epsilon_family(eps, theta, min(cfg.depth, 4))
            rows.append(_sibet_row("sweep", "", eps, inst.w, inst.alpha, inst.f, inst.g))
    agg = {
        "max_inner_ratio_random": _max(rows, "inner_ratio", kind="random"),
        "max_inner_ratio_random_d2": _max(rows, "inner_ratio", kind="random", d=2),
        "max_inner_ratio_sweep": _max(rows, "inner_ratio", kind="sweep"),
        "max_norm_over_sqrt_c2": _max(rows, "norm_over_sqrt_c2"),
        "cprime_bound": baselines.SIBET_CPRIME,
        "rows": len(rows),
    }
    verdicts = {
        "inner_ratio_within_cprime": agg["max_inner_ratio_random"] <= agg["cprime_bound"],
        "no_growth_along_sweep":
            agg["max_inner_ratio_sweep"] <= 1.05 * agg["max_inner_ratio_random_d2"],
        "norm_ratio_within_c2bet": agg["max_norm_over_sqrt_c2"] <= baselines.C2BET_C,
    }
    return rows, agg, verdicts


def _run_wcet(cfg):
    rows = []
    for _, seed, w, _, mseq, f, _ in _suite_instances(cfg, "random", cfg.depth):
        rng = np.random.default_rng(seed + 10_000_019)
        testing = wcet_testing_constant(w, mseq)
        embed = cet_sum(w, mseq, f)
        fnorm = weighted_l2_norm(f)
        t_ref, probe_sup, sampled_max, worst_rel = necessity_report(w, mseq, rng)
        mf = maximal_function(w, f)
        rows.append({
            "seed": seed,
            "d": w.d,
            "depth": w.depth,
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
    agg = {
        "max_forward_ratio": _max(rows, "forward_ratio"),
        "max_probe_rel_err": _max(rows, "probe_rel_err"),
        "max_cube_rel_err": _max(rows, "probe_cube_rel_err"),
        "max_sampled_excess": _max(rows, "sampled_excess"),
        "max_maximal_ratio": _max(rows, "maximal_ratio"),
        "forward_bound": baselines.WCET_FORWARD_C,
        "rows": len(rows),
    }
    verdicts = {
        "forward_bound_holds": agg["max_forward_ratio"] <= agg["forward_bound"],
        "necessity_identity": agg["max_probe_rel_err"] <= 1e-8 and agg["max_cube_rel_err"] <= 1e-8,
        "probe_never_exceeds": agg["max_sampled_excess"] <= 1e-9,
        "maximal_function_bounded": agg["max_maximal_ratio"] <= baselines.MAXIMAL_L2_C,
    }
    return rows, agg, verdicts


# (row, verdict, gaps of n samples drawn from rng up to dimension d_max, bound
# on the worst gap) of each sampling check, in draw order; the dm slack
# scales with its difference step h = 1e-5
BELLMAN_SAMPLING = (
    ("size", "size_bounds", size_gaps, -1e-9),
    ("concavity", "midpoint_concavity", concavity_gaps, -1e-8),
    ("dm", "dm_bound", lambda rng, n, d_max: dm_gaps(rng, n, d_max, 1e-5), -1e-4),
)


def _run_bellman(cfg):
    n = cfg.samples
    rng = np.random.default_rng(cfg.seeds[0])
    d_max = min(cfg.d, 4)

    rows, worst_samples = [], {}
    for check, _, gaps_of, bound in BELLMAN_SAMPLING:
        gaps, dims = gaps_of(rng, n, d_max)
        # the first minimal gap, as a running ``min`` keeps it
        i = int(np.argmin(gaps))
        worst_samples[check] = {"index": i, "d": int(dims[i])}
        rows.append({"check": check, "samples": n, "worst_gap": float(gaps[i]), "bound": bound,
                     "violations": int(np.count_nonzero(gaps < bound))})

    # not on _suite_instances: these draw only w and alpha, at cond_cap 1e3;
    # one dynamics_gaps_batch per (d, depth) group
    params = [suite_instance_params(i, d_max, min(cfg.depth, 5)) for i in range(len(cfg.seeds))]

    def build(i):
        d, depth = params[i]
        inst_rng = np.random.default_rng(cfg.seeds[i])
        w = random_weight_field(depth, d, inst_rng, cond_cap=1e3)
        return w, random_scalar_sequence(depth, inst_rng)

    def evaluate(members):
        fields, alphas = zip(*(member for _, member in members))
        return dynamics_gaps_batch(FieldBatch.stack(fields), alphas).tolist()

    gaps, failure = _grouped(_groups(params), build, evaluate)
    if failure is not None:
        raise failure[1]
    dynamics_worst = np.inf
    dynamics_violations = 0
    for i in range(len(cfg.seeds)):
        values = gaps[i]  # empty on a depth-0 tree
        dynamics_worst = min(dynamics_worst, min(values, default=np.inf))
        dynamics_violations += sum(g < -1e-9 for g in values)

    richardson = hessian_richardson_ratio()
    probe = matrix_parameter_probe(d=2, n_pairs=min(n, 2000), seed=cfg.seeds[0])

    rows += [
        {"check": "dynamics", "samples": len(cfg.seeds), "worst_gap": dynamics_worst,
         "bound": -1e-9, "violations": dynamics_violations},
        {"check": "hessian_richardson", "samples": 2, "worst_gap": richardson,
         "bound": 100.0, "violations": int(not 80.0 <= richardson <= 120.0)},
        {"check": "matrix_parameter_probe(informational)", "samples": probe["pairs"],
         "worst_gap": probe["min_gap"], "bound": float("nan"),
         "violations": probe["negatives"]},
    ]
    aggregates = {
        "richardson_ratio": richardson,
        "matrix_probe_negative_fraction": probe["negative_fraction"],
        "rows": len(rows),
        # The sample behind each sampling row's worst gap: its index in the
        # check's draw order (the checks draw from one generator seeded
        # with seeds[0]: size, then concavity, then dm) and its d.
        "worst_samples": worst_samples,
    }
    names = [verdict for _, verdict, _, _ in BELLMAN_SAMPLING] + ["dynamics_gap"]
    verdicts = {name: row["worst_gap"] >= row["bound"] for name, row in zip(names, rows)}
    verdicts["hessian_richardson"] = 80.0 <= richardson <= 120.0
    return rows, aggregates, verdicts


def _max_by_d(pairs):
    """{d: largest value} of (d, value) pairs, by increasing d."""
    by_d = {}
    for d, value in pairs:
        by_d.setdefault(d, []).append(value)
    return {d: max(v) for d, v in sorted(by_d.items())}


def _run_redundancy(cfg):
    # The constants come one batch per (d, depth) group of the suite's
    # instances (redundancy.sred_constants_checked and
    # red_constants_checked), each group built and freed in turn; then one
    # loop over the first 50 seeds runs the Bellman telescoping cross-check,
    # and over the first 20 the structural identities, on the instance of
    # suite_instance_params(i, d, min(depth, 6), 4) and cond_cap
    # min(cond_cap, 1e4): the suite's own instance, with its row's constants
    # and its group's decompositions, when it is that one, else a fresh one,
    # whose constants share a batch with the dominated sequence's.  A fresh
    # instance is not independent of the suite's: random_instance(depth', d,
    # seed) draws its weight leaf by leaf from the same seeded stream, so its
    # leaves are the suite instance's first 2^depth' leaves.  The
    # substitution samples are drawn in seed order.  The error raised is the
    # one a loop over the seeds, constants then cross-checks, would raise first.
    n_cross, cross_cap = min(50, len(cfg.seeds)), min(cfg.cond_cap, 1e4)
    plan = _suite_plan(cfg, "suite", cfg.depth, depth_min=4)

    def cross_params(i):
        return (*suite_instance_params(i, cfg.d, min(cfg.depth, 6), depth_min=4), cross_cap)

    def constants(entry, batch, seqs, missing):
        """``entry`` of the members of ``batch`` that hold a sequence (an
        embedded one may lack it), ``missing`` for the others."""
        have = [b for b, seq in enumerate(seqs) if seq is not None]
        if not have:
            return [missing] * len(seqs)
        part = batch if len(have) == len(seqs) else batch.member(have)
        got = iter(entry(part, [seqs[b] for b in have]))
        return [missing if seq is None else next(got) for seq in seqs]

    def evaluate(members):  # each row, and what its cross-check reads when it is the suite's
        ws, alphas, mseqs = zip(*(member[2:5] for _, member in members))
        batch = FieldBatch.stack(ws)
        sred = constants(sred_constants_checked, batch, alphas, "")
        red = constants(red_constants_checked, batch, mseqs, ("",) * 3)
        out = []
        for b, ((i, (kind, seed, w, alpha, mseq, _, _)), c) in enumerate(zip(members, red)):
            row = {"kind": kind, "seed": seed, "d": w.d, "depth": w.depth,
                   "sred": sred[b], "red_c1": c[0], "red_c2": c[1], "red_c3": c[2]}
            reused = i < n_cross and cross_params(i) == (w.d, w.depth, cfg.cond_cap)
            out.append((row, (StepField.of(batch.member(b)), alpha, mseq, c) if reused else None))
        return out

    results, failure = _grouped(_groups([key for key, _ in plan]), lambda i: plan[i][1](),
                                evaluate)
    telescope_diff, telescope_gap, mono_ok, cycle_err, subst_err = 0.0, np.inf, True, 0.0, 0.0
    rng = np.random.default_rng(cfg.seeds[0] + 77)
    for i in range(n_cross if failure is None else min(n_cross, failure[0])):
        d, depth, _ = cross_params(i)
        w, alpha, mseq, c = results[i][1] or (None, None, None, None)
        if c is None:
            inst = random_instance(depth, d, cfg.seeds[i], cross_cap)
            w, alpha, mseq = inst.w, inst.sseq, inst.mseq
        direct, accumulated, min_gap = telescoping_certificate(w, alpha)
        telescope_diff = max(telescope_diff, matrices.operator_norm(direct - accumulated))
        telescope_gap = min(telescope_gap, min_gap)
        if i >= 20:
            continue
        # The dominated entries are n_Q I, so each subtree sum is its sum of
        # norms times I: the intensity is that of the scalar sequence of norms.
        norms = matrices.operator_norm_stack(mseq.values)
        intensity = carleson_intensity(ScalarSequence.from_arrays(depth, mseq.positions, norms))
        dominated = MatrixSequence.from_arrays(depth, mseq.positions,
                                               norms[:, None, None] * np.eye(d), intensity)
        *fresh, (k1, k2, k3) = red_constants_checked(
            w.batch, [mseq] * (c is None) + [dominated.scaled(1.0 / intensity)])
        c1, c2, c3 = c or fresh[0]
        # Undo the intensity normalization to compare against the raw sequence.
        k1, k2, k3 = k1 * intensity, k2 * intensity, k3 * intensity
        if min(k1 - c1, k2 - c2, k3 - c3) < -1e-8:
            mono_ok = False
        cycle_err = max(cycle_err, trace_cycling_error(w, mseq, norms))
        subst_err = max(subst_err, substitution_error(w, mseq, rng, samples=5))
    if failure is not None:
        raise failure[1]
    rows = [results[i][0] for i in range(len(plan))]

    sred = [(r["d"], r["sred"]) for r in rows if r["sred"] != ""]
    red = [(r["d"], max(r["red_c1"], r["red_c2"], r["red_c3"])) for r in rows if r["red_c1"] != ""]
    agg = {
        "max_sred": max(v for _, v in sred),
        "sred_by_d": _max_by_d(sred),
        "red_by_d": _max_by_d(red),
        "telescoping_max_diff": telescope_diff,
        "telescoping_min_gap": telescope_gap,
        "trace_cycling_max_err": cycle_err,
        "substitution_max_err": subst_err,
        "rows": len(rows),
    }
    verdicts = {
        "sred_at_most_4": agg["max_sred"] <= 4.0,
        "red_at_most_4d": all(v <= 4.0 * d for d, v in red),
        "sred_regression": all(v <= baselines.SRED_MAX[d] for d, v in agg["sred_by_d"].items()
                               if d in baselines.SRED_MAX),
        "red_regression": all(v <= baselines.RED_MAX[d] for d, v in agg["red_by_d"].items()
                              if d in baselines.RED_MAX),
        "telescoping_cross_oracle": telescope_diff <= 1e-8 and telescope_gap >= -1e-9,
        "operator_norm_monotonicity": mono_ok,
        "trace_cycling_identity": cycle_err <= 1e-10,
        "substitution_identity": subst_err <= 1e-10,
    }
    return rows, agg, verdicts


def _run_search(cfg):
    result = adversarial_search(
        depth=cfg.depth, d=cfg.d, seed=cfg.seeds[0], objective=cfg.objective,
        budget=cfg.budget, cond_cap=cfg.cond_cap,
    )
    rows = result["history"]
    best = ("best_value", "best_c2", "best_a2", "best_over_sqrt_c2", "evaluations",
            "best_restart", "best_evaluation")
    aggregates = {"objective": cfg.objective, **{k: result[k] for k in best},
                  "best_weight": stepfield_to_json(result["best_weight"])}
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
    verdicts["best_monotone"] = all(
        r0["best_objective"] <= r1["best_objective"] for r0, r1 in zip(rows, rows[1:])
    )
    return rows, aggregates, verdicts


# ---------------------------------------------------------------------------
# The declared experiments.
# ---------------------------------------------------------------------------

class Experiment(NamedTuple):
    """One experiment: its acceptance-grade config overrides, its runner
    (config -> rows, aggregates, verdicts) and its pinned CSV columns, or
    None for the first row's keys."""

    preset: dict
    run: Callable
    columns: tuple | None = None


# The sweep's CSV columns are part of the external interface and must not change.
SWEEP_COLUMNS = (
    "eps", "depth", "intensity", "a2", "c2", "f_norm", "g_norm", "bet_norm_sum",
    "bet_inner_sum", "ratio_norm", "ratio_inner", "ratio_over_sqrt_c2",
)

EXPERIMENTS = {
    "counterexample-sweep": Experiment(dict(depth=4, seeds=[0]), _run_sweep, SWEEP_COLUMNS),
    "c2-sharpness": Experiment(dict(depth=4, seeds=[0]), _run_sharpness, SWEEP_COLUMNS),
    "sibet-suite":
        Experiment(dict(depth=6, d=4, seeds=list(range(200)), cond_cap=1e6), _run_sibet),
    "wcet-suite":
        Experiment(dict(depth=6, d=4, seeds=list(range(100)), cond_cap=1e4), _run_wcet),
    "bellman-certify":
        Experiment(dict(depth=4, d=4, seeds=list(range(100)), samples=10000), _run_bellman),
    "redundancy-suite":
        Experiment(dict(depth=8, d=4, seeds=list(range(500)), cond_cap=1e4), _run_redundancy),
    "adversarial-search":
        Experiment(dict(depth=3, d=2, seeds=[0], cond_cap=1e4, budget=10000), _run_search),
}
