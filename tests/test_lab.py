import csv
import json
import math

import numpy as np
import pytest

from carlab import search
from carlab.cli import main
from carlab.dyadic import StepField, stepfield_to_json
from carlab.errors import ConfigError, SingularMatrixError
from carlab.lab import (
    CSV_COLUMNS,
    OBJECTIVES,
    ExperimentConfig,
    adversarial_search,
    default_config,
    run_experiment,
    sweep_row,
)

from oracles import brute_adversarial_search, brute_search_weight


def small_sweep_config(**over):
    return default_config(
        "counterexample-sweep", eps_grid=[0.1, 0.01], rotations=[0.0], **over
    )


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="nope")
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="sibet-suite", depth=13)
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="sibet-suite", d=9)
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="sibet-suite", eps_grid=[])
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="sibet-suite", eps_grid=[2.0])
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="sibet-suite", format="xml")
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="adversarial-search", budget=0)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "sibet-suite", "bogus": 1})
    for seed in (-1, 1.0, True, "3"):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="sibet-suite", seeds=[0, seed])


def test_sweep_rows_and_csv_columns(tmp_path):
    out = tmp_path / "sweep.csv"
    cfg = small_sweep_config(output_path=str(out), format="csv")
    report = run_experiment(cfg)
    assert report.passed
    with open(out) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    assert header == CSV_COLUMNS["counterexample-sweep"]
    assert len(rows) == 2
    first = dict(zip(header, rows[0]))
    assert float(first["eps"]) == 0.1
    assert float(first["ratio_norm"]) == pytest.approx(10.0, rel=1e-9)


def test_json_report_schema(tmp_path):
    out = tmp_path / "report.json"
    cfg = small_sweep_config(output_path=str(out), format="json")
    report = run_experiment(cfg)
    with open(out) as fh:
        payload = json.load(fh)
    assert payload["schema"] == 1
    assert set(payload) == {"schema", "config", "rows", "aggregates", "verdicts", "stamp"}
    assert payload["config"]["experiment"] == "counterexample-sweep"
    assert len(payload["rows"]) == len(report.rows)
    assert all(isinstance(v, bool) for v in payload["verdicts"].values())
    assert payload["stamp"]["package"] == "carlab"


def test_sweep_row_values_match_claims():
    row = sweep_row(1e-3, math.pi / 4, 4)
    assert row["ratio_norm"] == pytest.approx(1e3, rel=1e-9)
    assert row["ratio_inner"] == pytest.approx(500.0, rel=1e-9)
    assert row["ratio_over_sqrt_c2"] == pytest.approx(1.0, rel=1e-9)
    assert row["a2"] == pytest.approx(1.0, abs=1e-10)
    assert row["c2"] == pytest.approx(1e6, rel=1e-9)


def test_report_reproducibility():
    cfg = default_config("sibet-suite", seeds=list(range(8)))
    rows_a = run_experiment(cfg).rows
    rows_b = run_experiment(cfg).rows
    assert len(rows_a) == len(rows_b)
    for ra, rb in zip(rows_a, rows_b):
        for key, va in ra.items():
            vb = rb[key]
            if isinstance(va, float):
                assert vb == pytest.approx(va, abs=1e-12)
            else:
                assert va == vb


def test_embedded_instance_rows():
    from carlab.constructions import random_instance
    from carlab.dyadic import stepfield_to_json

    inst = random_instance(3, 2, seed=0, cond_cap=1e3)
    embedded = {
        "weight": stepfield_to_json(inst.w),
        "f": stepfield_to_json(inst.f),
        "g": stepfield_to_json(inst.g),
        "alpha": inst.sseq.to_json(),
        "matrix_seq": inst.mseq.to_json(),
    }
    cfg = default_config("sibet-suite", seeds=[0, 1], extra_instances=[embedded])
    report = run_experiment(cfg)
    kinds = [r["kind"] for r in report.rows]
    assert "embedded" in kinds
    emb = next(r for r in report.rows if r["kind"] == "embedded")
    assert emb["inner_ratio"] >= 0.0

    cfg = default_config("redundancy-suite", seeds=[0, 1], extra_instances=[embedded])
    report = run_experiment(cfg)
    emb = next(r for r in report.rows if r["kind"] == "embedded")
    assert emb["sred"] <= 4.0
    assert max(emb["red_c1"], emb["red_c2"], emb["red_c3"]) <= 4.0 * 2


def test_search_budget_one_returns_initial_objective():
    out = adversarial_search(depth=2, d=2, seed=3, objective="bet_norm_ratio",
                             budget=1, cond_cap=100.0)
    assert out["evaluations"] == 1
    # the first restart is the family member at the cap: ratio = sqrt(cap)
    assert out["best_value"] == pytest.approx(10.0, rel=1e-9)


def test_search_monotone_and_attains_family():
    out = adversarial_search(depth=2, d=2, seed=5, objective="bet_norm_ratio",
                             budget=400, cond_cap=1e4)
    best = [h["best_objective"] for h in out["history"]]
    assert best == sorted(best)
    assert out["best_value"] >= 0.99 * math.sqrt(out["best_c2"])


def test_search_sred_stays_under_four():
    out = adversarial_search(depth=3, d=1, seed=7, objective="sred_ratio",
                             budget=500, cond_cap=1e4)
    assert out["best_value"] <= 4.0


def test_search_red_objective_runs():
    out = adversarial_search(depth=2, d=2, seed=9, objective="red_ratio",
                             budget=120, cond_cap=1e3)
    assert out["best_value"] <= 8.0 + 1e-9  # 4d with d = 2


def test_search_weight_matches_per_leaf_oracle():
    rng = np.random.default_rng(4)
    for d in (1, 2, 3, 4):
        states = [search._random_state(3, d, 1e4, rng) for _ in range(3)]
        log_eigs, angles, _ = (np.stack(a) for a in zip(*states))
        got = search._state_weights(log_eigs, angles, 1e4)
        for member, (logs, angs, _) in enumerate(states):
            want = StepField(brute_search_weight(search._clip_spread(logs, 1e4), angs)).values
            assert np.array_equal(got[member], want)


SEARCH_KEYS = ("history", "best_value", "sanity_max_over_sqrt_c2", "evaluations",
               "best_restart", "best_evaluation")


def _assert_same_search(got, want):
    for key in SEARCH_KEYS:
        assert got[key] == want[key], key
    assert np.array_equal(got["best_weight"].values, want["best_weight"].values)


@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_search_leaf_reuse_changes_nothing(objective, d):
    # The oracle runs the restarts one after the other and reuses the
    # leaf-derived values across sequence-only moves; the lockstep search
    # recomputes them for every candidate.  Budgets 1, 3 and 5 leave fewer
    # evaluations than restarts or one per restart; 202 is not a multiple
    # of the four restarts.
    for depth in range(5):
        for seed in (0, 13):
            for budget in (1, 3, 5):
                kwargs = dict(depth=depth, d=d, seed=seed, objective=objective,
                              budget=budget, cond_cap=1e4)
                _assert_same_search(adversarial_search(**kwargs),
                                    brute_adversarial_search(**kwargs))
    depth = (d + OBJECTIVES.index(objective)) % 5
    kwargs = dict(depth=depth, d=d, seed=13 * (d % 2), objective=objective,
                  budget=202, cond_cap=1e4)
    _assert_same_search(adversarial_search(**kwargs), brute_adversarial_search(**kwargs))


class _ScriptedRng:
    """A generator that turns chosen hill-climb moves into log-eigenvalue
    moves by -1e4 on a chosen leaf: its eigenvalues underflow to 0 and the
    evaluation of the candidate fails.

    ``poison`` maps the index of a move (counted over the whole run, in
    draw order) to the leaf it zeroes.  Every draw is still made, so the
    rest of the stream is unchanged.
    """

    def __init__(self, rng, poison):
        self._rng = rng
        self._poison = poison
        self._leaf = []  # the leaf of a poisoned move, until its index is drawn
        self._delta = None
        self.moves = 0

    def uniform(self, *args, **kwargs):
        if args or kwargs:
            return self._rng.uniform(*args, **kwargs)
        kind = self._rng.uniform()  # a move's kind is its only bare uniform draw
        leaf = self._poison.get(self.moves)
        self.moves += 1
        if leaf is None:
            return kind
        self._leaf, self._delta = [leaf], -1e4
        return 0.0

    def integers(self, high):
        value = int(self._rng.integers(high))
        return self._leaf.pop() if self._leaf else value

    def normal(self, loc, scale):
        value = self._rng.normal(loc, scale)
        delta, self._delta = self._delta, None
        return value if delta is None else delta


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_search_raises_the_first_error_in_restart_order(monkeypatch, objective):
    # budget 400: 4 restarts of 100 evaluations, 99 moves each.  Restart 2
    # fails at its 5th move, restart 0 at its 50th: the loop meets restart
    # 0's failure first, while the lockstep search evaluates restart 2's
    # candidate first.
    make_rng = np.random.default_rng
    kwargs = dict(depth=3, d=2, seed=5, objective=objective, budget=400, cond_cap=1e4)

    def run(search, poison):
        rngs = []

        def scripted(seed):
            rngs.append(_ScriptedRng(make_rng(seed), poison))
            return rngs[-1]

        monkeypatch.setattr(np.random, "default_rng", scripted)
        with pytest.raises(SingularMatrixError) as err:
            search(**kwargs)
        monkeypatch.setattr(np.random, "default_rng", make_rng)
        return err.value, rngs[0].moves

    both = {2 * 99 + 4: 6, 0 * 99 + 49: 1}
    want, moves = run(brute_adversarial_search, both)
    assert moves == 50 and want.cube == (3, 1)  # the loop stopped in restart 0
    got, _ = run(adversarial_search, both)
    assert (type(got), str(got)) == (type(want), str(want))

    only_restart_2 = {2 * 99 + 4: 6}
    want, moves = run(brute_adversarial_search, only_restart_2)
    assert moves == 2 * 99 + 5 and want.cube == (3, 6)
    got, _ = run(adversarial_search, only_restart_2)
    assert (type(got), str(got)) == (type(want), str(want))


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_climb_lookahead_changes_nothing(objective):
    # 202 leaves 50 steps per restart, 30 leaves 7: neither is a multiple of
    # the lookahead; 5, 3 and 1 leave one step per restart.
    for budget in (202, 30, 5, 3, 1):
        n_restarts = min(4, budget)
        steps = budget // n_restarts
        states, moves = search._draw_stream(2, 2, 7, 1e4, n_restarts, steps)
        want = search._climb(states, moves, steps, objective, 1e4, 1)
        for lookahead in (3, search.LOOKAHEAD, 64):
            got = search._climb(states, moves, steps, objective, 1e4, lookahead)
            for g, w in zip(got, want):
                assert (g is None and w is None) or np.array_equal(g, w), (budget, lookahead)


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_search_lookahead_error_reruns_step_by_step(monkeypatch, objective):
    # The first lookahead batch fails, as a dropped move that the climb made
    # one step at a time never evaluates may: the search starts over one
    # step at a time and returns that climb's result.
    evaluate = search._search_objective
    failed = []

    def fail_once(*args):
        if len(args[0]) > 4 and not failed:
            failed.append(len(args[0]))
            raise SingularMatrixError("matrix not SPD", lambda_min=0.0)
        return evaluate(*args)

    monkeypatch.setattr(search, "_search_objective", fail_once)
    kwargs = dict(depth=2, d=2, seed=3, objective=objective, budget=202, cond_cap=1e4)
    got = adversarial_search(**kwargs)
    assert failed == [4 * search.LOOKAHEAD]
    _assert_same_search(got, brute_adversarial_search(**kwargs))


def test_search_report_names_the_best_evaluation():
    cfg = default_config("adversarial-search", budget=202, depth=2, d=3,
                         seeds=[11], objective="red_ratio")
    agg = run_experiment(cfg).aggregates
    want = brute_adversarial_search(depth=2, d=3, seed=11, objective="red_ratio",
                                    budget=202, cond_cap=cfg.cond_cap)
    assert want["history"][-1]["best_objective"] == want["best_value"] == agg["best_value"]
    assert (agg["best_restart"], agg["best_evaluation"]) == (
        want["best_restart"], want["best_evaluation"])
    assert agg["best_weight"] == stepfield_to_json(want["best_weight"])


def test_search_experiment_report_verdicts():
    cfg = default_config("adversarial-search", budget=300, depth=2)
    report = run_experiment(cfg)
    assert set(report.verdicts) == {"attains_sqrt_c2", "bounded_by_c2bet", "best_monotone"}
    assert report.passed
    assert report.aggregates["best_weight"]["d"] == 2  # regenerable instance


# -- CLI ---------------------------------------------------------------------

def test_cli_runs_sweep_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main([
        "counterexample-sweep", "--eps", "0.1,0.01", "--depth", "3",
        "--out", str(out), "--format", "csv",
    ])
    assert rc == 0
    assert out.exists()
    stdout = capsys.readouterr().out
    assert "[PASS]" in stdout and "[FAIL]" not in stdout


def test_cli_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"eps_grid": [0.1], "depth": 5, "format": "json"}))
    out = tmp_path / "r.json"
    rc = main(["counterexample-sweep", "--config", str(cfg_path), "--depth", "2",
               "--out", str(out), "--quiet"])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["depth"] == 2  # flag wins
    assert payload["config"]["eps_grid"] == [0.1]


def test_cli_config_with_embedded_instance(tmp_path):
    from carlab.constructions import random_instance
    from carlab.dyadic import stepfield_to_json

    inst = random_instance(3, 2, seed=0, cond_cap=1e3)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "seeds": [0, 1],
        "extra_instances": [{
            "weight": stepfield_to_json(inst.w),
            "alpha": inst.sseq.to_json(),
            "matrix_seq": inst.mseq.to_json(),
        }],
        "format": "json",
    }))
    out = tmp_path / "r.json"
    rc = main(["redundancy-suite", "--config", str(cfg_path), "--out", str(out), "--quiet"])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert any(r["kind"] == "embedded" for r in payload["rows"])


def test_cli_config_error_exit_code(tmp_path):
    assert main(["counterexample-sweep", "--eps", "zero"]) == 2
    cfg_path = tmp_path / "broken.json"
    cfg_path.write_text("{not json")
    assert main(["counterexample-sweep", "--config", str(cfg_path)]) == 2
    assert main(["counterexample-sweep", "--config", str(tmp_path / "missing.json")]) == 2


def test_cli_bad_seed_exit_code(tmp_path):
    # a seed numpy would reject is a configuration error, not a failed verdict
    assert main(["redundancy-suite", "--seed=-1", "--quiet"]) == 2
    cfg_path = tmp_path / "bad_seeds.json"
    for seeds in ([1.5], 5):
        cfg_path.write_text(json.dumps({"seeds": seeds}))
        assert main(["redundancy-suite", "--config", str(cfg_path), "--quiet"]) == 2


def test_cli_search_with_several_seeds_exit_code(tmp_path, monkeypatch, capsys):
    # a search runs one seed: a longer list is refused, not cut to its first seed
    monkeypatch.chdir(tmp_path)
    assert main(["adversarial-search", "--seed", "1,2", "--budget", "4", "--quiet"]) == 2
    assert "[1, 2]" in capsys.readouterr().err
    assert not (tmp_path / "lab_adversarial-search.csv").exists()
    with pytest.raises(ConfigError):
        default_config("adversarial-search", seeds=[0, 1])


def test_cli_bad_config_types_exit_code(tmp_path):
    # a wrongly typed or unknown key is a configuration error, not a traceback
    cfg_path = tmp_path / "bad.json"
    for obj in ({"depth": "4"}, {"foo": 1}):
        cfg_path.write_text(json.dumps(obj))
        assert main(["redundancy-suite", "--config", str(cfg_path), "--quiet"]) == 2
    with pytest.raises(ConfigError):
        default_config("sibet-suite", depth="4")


@pytest.mark.parametrize("obj", [
    {"rotations": ["a"]},
    {"rotations": 0.5},
    {"rotations": [0.1, True]},
    {"eps_grid": [True]},
    {"eps_grid": "0.1"},
    {"cond_cap": True},
    {"cond_cap": "1e4"},
])
def test_cli_non_numeric_config_lists_exit_code(tmp_path, monkeypatch, obj):
    # ["a"] ended in a ValueError traceback from longdouble, 0.5 in a
    # TypeError traceback; [true] and a cond_cap of true ran and passed
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(obj))
    assert main(["counterexample-sweep", "--config", str(cfg_path), "--quiet"]) == 2
    with pytest.raises(ConfigError, match="real number"):
        ExperimentConfig(experiment="counterexample-sweep", **obj)


def test_bellman_certify_on_depth_zero_trees():
    # a depth-0 tree has no non-leaf cube, so the dynamics check is vacuous;
    # it used to end in a ValueError traceback
    rep = run_experiment(default_config("bellman-certify", depth=0, samples=20, seeds=[0, 1]))
    dynamics = next(r for r in rep.rows if r["check"] == "dynamics")
    assert dynamics["worst_gap"] == np.inf and dynamics["violations"] == 0
    assert rep.passed


@pytest.mark.parametrize("experiment, obj", [
    ("bellman-certify", {"samples": 10.5}),
    ("bellman-certify", {"depth": 2.5}),
    ("bellman-certify", {"d": 2.0}),
    ("adversarial-search", {"budget": 20.5}),
    ("adversarial-search", {"budget": True}),
    ("sibet-suite", {"depth": False}),
])
def test_cli_non_integer_config_fields_exit_code(tmp_path, monkeypatch, experiment, obj):
    # depth, d, samples and budget must be ints, as the seeds are: a float
    # used to end in a TypeError traceback or run with a truncated budget
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(obj))
    assert main([experiment, "--config", str(cfg_path), "--quiet"]) == 2
    with pytest.raises(ConfigError, match="must be an integer"):
        ExperimentConfig(experiment=experiment, **obj)


def test_cli_missing_output_directory_exits_before_run(tmp_path, monkeypatch):
    def never(cfg):
        raise AssertionError("the experiment ran before the output path was checked")

    monkeypatch.setattr("carlab.cli.run_experiment", never)
    out = tmp_path / "missing" / "x.csv"
    assert main(["counterexample-sweep", "--out", str(out), "--quiet"]) == 2
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"output_path": str(out)}))
    assert main(["counterexample-sweep", "--config", str(cfg_path), "--quiet"]) == 2


def test_cli_acceptance_failure_exit_code(tmp_path, monkeypatch):
    # force a verdict to fail by tightening a regression bound to zero
    from carlab import baselines

    monkeypatch.setattr(baselines, "SIBET_CPRIME", 0.0)
    out = tmp_path / "r.json"
    rc = main(["sibet-suite", "--seed", "0,1,2", "--out", str(out),
               "--format", "json", "--quiet"])
    assert rc == 1


def test_cli_embedded_instance_on_wrong_tree_exit_code(tmp_path):
    # an embedded field or sequence that does not fit the weight is a
    # configuration error, not a numeric one
    from carlab.constructions import random_instance
    from carlab.dyadic import stepfield_to_json

    inst = random_instance(4, 2, seed=0, cond_cap=1e3)
    shallow = random_instance(3, 2, seed=1, cond_cap=1e3)
    wide = random_instance(4, 3, seed=2, cond_cap=1e3)
    weight = stepfield_to_json(inst.w)
    cases = [
        ("sibet-suite", {"weight": weight, "f": stepfield_to_json(shallow.f),
                         "g": stepfield_to_json(inst.g), "alpha": inst.sseq.to_json()}),
        ("redundancy-suite", {"weight": weight, "alpha": shallow.sseq.to_json()}),
        ("redundancy-suite", {"weight": weight, "matrix_seq": wide.mseq.to_json()}),
    ]
    cfg_path = tmp_path / "cfg.json"
    for experiment, embedded in cases:
        # two seeds: sibet-suite refuses a single one before the run
        cfg_path.write_text(json.dumps({"seeds": [0, 1], "extra_instances": [embedded]}))
        assert main([experiment, "--config", str(cfg_path), "--quiet"]) == 2


def test_cli_invalid_embedded_sequence_exit_code(tmp_path, monkeypatch):
    # a NaN alpha entry ran with the row sred -inf and exit 0; an inf matrix
    # entry ran with finite constants and exit 0, once the rescaling had
    # turned it into NaN; a negative alpha entry and a level off the tree
    # exited 3.  All are bad configuration.
    from carlab.constructions import random_instance

    monkeypatch.chdir(tmp_path)
    inst = random_instance(3, 2, seed=0, cond_cap=1e3)

    def edited(seq, **change):
        obj = seq.to_json()
        obj["values"][0].update(change)
        return obj

    cases = [
        {"alpha": edited(inst.sseq, value=float("nan"))},
        {"matrix_seq": edited(inst.mseq, value=[float("inf"), 0.0, 0.0, 1.0])},
        {"alpha": edited(inst.sseq, value=-0.5)},
        {"alpha": edited(inst.sseq, level=7, position=0)},
    ]
    cfg_path = tmp_path / "cfg.json"
    for embedded in cases:
        embedded["weight"] = stepfield_to_json(inst.w)
        cfg_path.write_text(json.dumps({"seeds": [0], "extra_instances": [embedded]}))
        assert main(["redundancy-suite", "--config", str(cfg_path), "--quiet"]) == 2


def test_cli_non_finite_embedded_field_exit_code(tmp_path, monkeypatch):
    # a NaN weight entry ran redundancy-suite with the row sred -inf (and
    # red_c1..3 -inf with a matrix sequence) and exit 0; an inf entry of g
    # gave sibet-suite NaN ratios and exit 0.  All are bad configuration.
    from carlab.characteristics import MatrixSequence, ScalarSequence
    from carlab.constructions import random_instance
    from carlab.dyadic import ROOT

    monkeypatch.chdir(tmp_path)
    inst = random_instance(3, 2, seed=0, cond_cap=1e3)
    weight = stepfield_to_json(inst.w)
    weight["values"][0][0] = float("nan")
    g = stepfield_to_json(inst.g)
    g["values"][0][0] = float("inf")
    alpha = ScalarSequence(3, {ROOT: 1.0}).to_json()
    cases = [
        ("redundancy-suite", {"weight": weight, "alpha": alpha}),
        ("redundancy-suite", {"weight": weight, "alpha": alpha,
                              "matrix_seq": MatrixSequence(3, 2, {ROOT: np.eye(2)}).to_json()}),
        ("sibet-suite", {"weight": stepfield_to_json(inst.w), "f": stepfield_to_json(inst.f),
                         "g": g, "alpha": inst.sseq.to_json()}),
    ]
    cfg_path = tmp_path / "cfg.json"
    for experiment, embedded in cases:
        cfg_path.write_text(json.dumps({"seeds": [0, 1], "extra_instances": [embedded]}))
        assert main([experiment, "--config", str(cfg_path), "--quiet"]) == 2


def test_cli_sibet_suite_without_d2_instance_exit_code(tmp_path, monkeypatch):
    # the sweep verdict compares with the largest d = 2 random ratio; with
    # one seed or d = 1 there is none, and the run ended in a traceback
    # (ValueError, exit 1)
    monkeypatch.chdir(tmp_path)
    for flags in (["--seed", "0"], ["--d", "1"]):
        assert main(["sibet-suite", *flags, "--quiet"]) == 2
    with pytest.raises(ConfigError, match="d = 2"):
        default_config("sibet-suite", d=1)
    default_config("sibet-suite", d=2, seeds=[3, 4])


def test_cli_float64_longdouble_exit_code(monkeypatch):
    monkeypatch.setattr("carlab.constructions.EXTENDED_PRECISION", False)
    assert main(["counterexample-sweep", "--quiet"]) == 3


def test_cli_numeric_error_exit_code(monkeypatch):
    from carlab.errors import NumericError

    def boom(cfg):
        raise NumericError("eigensolver failed")

    monkeypatch.setattr("carlab.cli.run_experiment", boom)
    rc = main(["counterexample-sweep", "--quiet"])
    assert rc == 3
