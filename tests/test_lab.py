import csv
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carlab import lab, matrices, search
from carlab.cli import build_parser, main
from carlab.dyadic import StepField, pyramid_batch, stepfield_to_json, tree_size
from carlab.constructions import EPS_SWEEP, random_instance
from carlab.errors import ConfigError, LabError, PreconditionError, SingularMatrixError
from carlab.lab import (
    OBJECTIVES,
    ExperimentConfig,
    adversarial_search,
    default_config,
    run_experiment,
    suite_instance_params,
    sweep_row,
)
from carlab.characteristics import (
    INTENSITY_SLACK, MatrixSequence, ScalarSequence, c2_conditioning, carleson_intensity_batch,
    check_sequence_batch, wcet_testing_constant,
)
from carlab.redundancy import red_constants, sred_constant

from oracles import (
    brute_adversarial_search,
    brute_search_weight,
    loop_bellman_dynamics,
    loop_redundancy,
    two_loop_redundancy_cross_check,
)


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
    assert header == [
        "eps", "depth", "intensity", "a2", "c2", "f_norm", "g_norm", "bet_norm_sum",
        "bet_inner_sum", "ratio_norm", "ratio_inner", "ratio_over_sqrt_c2",
    ]
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
    assert set(payload) == {"schema", "config", "rows", "aggregates", "verdicts", "stamp",
                            "work"}
    assert payload["config"]["experiment"] == "counterexample-sweep"
    assert len(payload["rows"]) == len(report.rows)
    assert all(isinstance(v, bool) for v in payload["verdicts"].values())
    assert payload["stamp"]["package"] == "carlab"
    assert payload["work"] == report.work and list(report.work) == sorted(report.work)
    assert all(isinstance(v, int) and v > 0 for v in report.work.values())


# The work of a search at depth 3, d 2, seed 0 and budget 400, by objective:
# search_batches, search_candidates, search_accepted, search_weight_leaves,
# LAPACK calls and the matrices in them (eigh and eigvalsh), and power_mats.
SEARCH_WORK = {
    "bet_norm_ratio": (50, 640, 125, 550, 152, 1786, 573),
    "sred_ratio": (16, 434, 11, 524, 52, 9660, 3651),
    "red_ratio": (16, 430, 10, 523, 52, 12490, 3642),
}


def _search_work(work):
    return (work["search_batches"], work["search_candidates"], work["search_accepted"],
            work["search_weight_leaves"], work["eigh_calls"] + work["eigvalsh_calls"],
            work["eigh_mats"] + work["eigvalsh_mats"], work["power_mats"])


def test_report_work_counts_the_search():
    for objective in OBJECTIVES:
        lookahead = search.LOOKAHEAD[objective]
        cfg = default_config("adversarial-search", objective=objective, depth=2, budget=40,
                             seeds=[3])
        batches, candidates, accepted, leaves, calls, mats, powered = _search_work(
            run_experiment(cfg).work)
        # 4 restarts of 10 evaluations: a batch advances each restart by 1
        # to lookahead steps, and every kept evaluation is a candidate
        assert -(-10 // lookahead) <= batches <= 10
        assert 40 <= candidates <= 4 * lookahead * batches
        # a move is accepted when it beats every value before it in its restart
        values = search._climb(*search._draw_stream(2, 2, 3, 1e4, 4, 10), 10, objective, 1e4,
                               lookahead)[0]
        best = np.maximum.accumulate(values, axis=1)
        assert accepted == np.count_nonzero(values[:, 1:] > best[:, :-1]) <= 36
        assert 0 < calls <= mats
        # a restart's first batch builds all 4 leaves of each candidate, a
        # later candidate at most its moved leaf, and every built leaf is
        # inverted at least
        assert 4 * 4 <= leaves <= 4 * candidates
        assert leaves <= powered
    for objective, want in SEARCH_WORK.items():
        cfg = default_config("adversarial-search", objective=objective, budget=400)
        assert _search_work(run_experiment(cfg).work) == want, objective


def test_report_work_counts_the_longdouble_solves(monkeypatch):
    # both runs build a constant matrix weight on a full tree, in longdouble:
    # every stack repeats a few matrices in adjacent runs, each Jacobi call
    # solves one run, and no LAPACK solver runs
    for experiment in ("counterexample-sweep", "c2-sharpness"):
        work = run_experiment(default_config(experiment, depth=3)).work
        assert 0 < work["jacobi_calls"] <= work["jacobi_distinct"] < work["jacobi_mats"]
        assert 0 < work["power_longdouble_distinct"] < work["power_longdouble_mats"]
        assert work["power_longdouble_mats"] == work["power_mats"]
        assert work["jacobi_sweeps"] > 0
        assert not {"eigh_calls", "eigvalsh_calls"} & set(work)
        work = run_experiment(default_config(experiment, depth=10)).work
        assert {key: work[key] for key in (
            "jacobi_calls", "jacobi_mats", "jacobi_distinct", "jacobi_sweeps",
            "power_longdouble_mats", "power_longdouble_distinct")} == {
            "jacobi_calls": 72, "jacobi_mats": 57352, "jacobi_distinct": 72,
            "jacobi_sweeps": 36, "power_longdouble_mats": 40952,
            "power_longdouble_distinct": 32}, experiment
    # with every member its own group, the distinct counts are the members
    monkeypatch.setattr(matrices, "_distinct", lambda rows: (np.arange(len(rows)),) * 2)
    work = run_experiment(default_config("counterexample-sweep", depth=3)).work
    assert work["jacobi_distinct"] == work["jacobi_mats"]
    assert work["power_longdouble_distinct"] == work["power_longdouble_mats"]


def test_environment_stamp_names_the_blas_kernel(monkeypatch):
    # the kernel OpenBLAS chose, Python and the machine; the kernel is read
    # once, and is None where numpy ships no OpenBLAS to read it from
    import platform

    from carlab import lab

    stamp = lab.environment_stamp()
    assert (stamp["python"], stamp["machine"]) == (platform.python_version(), platform.machine())
    assert stamp["blas_core"] is None or stamp["blas_core"].isprintable() and stamp["blas_core"]
    hits = lab._openblas_core.cache_info().hits
    assert lab.environment_stamp() == stamp
    assert lab._openblas_core.cache_info().hits == hits + 1
    monkeypatch.setattr(lab.os, "listdir", lambda path: ["libgfortran.so"])
    assert lab._openblas_core.__wrapped__() is None


def test_json_report_bytes_are_json_dump(tmp_path, default_reports):
    # a report is encoded in one string and written once: the bytes of
    # json.dump, which writes chunk by chunk, for each default run
    for name in ("counterexample-sweep", "redundancy-suite", "adversarial-search:red_ratio"):
        report, got, want = default_reports[name], tmp_path / "got.json", tmp_path / "want.json"
        report.write(got, "json")
        with open(want, "w") as fh:
            json.dump(report.to_json_obj(), fh, indent=1, default=float)
        assert got.read_bytes() == want.read_bytes(), name


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
    # leaf-derived values across sequence-only moves; the search carries
    # each restart's eigendecompositions and decomposes again only the
    # cubes a move changed.  Budgets 1, 3 and 5 leave fewer
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
    """A generator that turns chosen hill-climb moves into large negative
    log-eigenvalue moves on a chosen leaf: its eigenvalues underflow to 0
    and the evaluation of the candidate fails.

    ``poison`` maps the index of a move (counted over the whole run, in
    draw order) to the leaf it zeroes.  Every draw is still made, so the
    rest of the stream is unchanged.  A move's kind is its bare
    ``uniform()`` draw in the oracle and its ``random()`` draw in the
    search; its step draw, ``normal`` in the oracle and ``standard_normal()``
    in the search (which scales it by 0.7), returns -1e4 on a poisoned move.
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
        return self._kind(self._rng.uniform())

    def random(self):
        return self._kind(self._rng.random())

    def _kind(self, kind):
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
        return self._step(self._rng.normal(loc, scale))

    def standard_normal(self):
        return self._step(self._rng.standard_normal())

    def _step(self, value):
        delta, self._delta = self._delta, None
        return value if delta is None else delta


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_search_raises_the_first_error_in_restart_order(monkeypatch, objective):
    # budget 400: 4 restarts of 100 evaluations, 99 moves each.  Restart 2
    # fails at its 5th move, restart 0 at its 50th: the loop meets restart
    # 0's failure first, while the batched search evaluates restart 2's
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
        for lookahead in (3, search.LOOKAHEAD[objective], 64):
            got = search._climb(states, moves, steps, objective, 1e4, lookahead)
            for g, w in zip(got, want):
                assert (g is None and w is None) or np.array_equal(g, w), (budget, lookahead)


@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_climb_carries_fresh_eigendecompositions(monkeypatch, objective, d):
    # After every batch each restart's carried set equals, bitwise, one
    # computed afresh from its current state: the leaves of W and W^-1 and
    # what the objective reads of them (for bet_norm_ratio the leaf
    # eigenvalues, else <W>^-1/2 and <W^-1>^-1/2 or <W^-1>^-1 of every cube).
    # At depth 0 the one leaf is the root cube; at d = 1 there are no angle
    # moves.
    adopt, batches = search._adopt, []

    def adopt_and_check(packed, rows, candidates, members):
        adopt(packed, rows, candidates, members)
        batches.append(len(rows))
        carried = search._views(packed, search._layout(depth, d, objective))
        names = list(carried)[3:]
        for r in range(len(packed)):
            w = search._state_weights(carried["log_eigs"][r:r + 1], carried["angles"][r:r + 1], 1e4)
            winv = matrices.eig_power(*matrices.eigh_sym(w), -1.0)
            fresh = dict(w=w, winv=winv)
            if objective == "bet_norm_ratio":
                fresh["leaf_vals"] = matrices.eigvalsh_stack(w)
            else:
                weig = matrices.eigh_sym(pyramid_batch(w))
                veig = matrices.eigh_sym(pyramid_batch(winv))
                fresh["r"] = matrices.eig_power(*weig, -0.5)
                if objective == "red_ratio":
                    fresh["p"] = matrices.eig_power(*veig, -0.5)
                else:
                    fresh["vinv"] = matrices.eig_power(*veig, -1.0)
            assert sorted(names) == sorted(fresh) and len(carried) == 3 + len(names)
            for name in names:
                assert np.array_equal(carried[name][r:r + 1], fresh[name]), (name, len(batches), r)

    monkeypatch.setattr(search, "_adopt", adopt_and_check)
    for depth in range(5):
        states, moves = search._draw_stream(depth, d, 7 + depth, 1e4, 4, 15)
        batches.clear()
        search._climb(states, moves, 15, objective, 1e4, search.LOOKAHEAD[objective])
        assert len(batches) >= 2


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_every_carried_part_is_read(monkeypatch, objective):
    # Each part of a climbed batch's packed rows past the state, set to NaN,
    # changes what _search_objective returns (a value, a ratio or a
    # refusal) with no cube stale or with one leaf's path stale, whose
    # cubes it computes again: a part it never reads back is not carried.
    depth, d, adopt, climbed = 3, 2, search._adopt, []

    def keep(buf, rows, candidates, members):
        adopt(buf, rows, candidates, members)
        climbed.append(buf.copy())

    monkeypatch.setattr(search, "_adopt", keep)
    states, moves = search._draw_stream(depth, d, 7, 1e4, 4, 30)
    search._climb(states, moves, 30, objective, 1e4, search.LOOKAHEAD[objective])
    layout, buf = search._layout(depth, d, objective), climbed[-1]
    leaf_moves = np.array([[search._LOG_EIG, leaf, 0, 0.0] for leaf in range(4)])
    masks = (np.zeros((4, tree_size(depth)), dtype=bool),
             search._stale_cubes(leaf_moves, np.zeros(4, dtype=bool), depth))

    def evaluate(rows, stale):
        views = search._views(rows, layout)
        try:
            value, _, ratio = search._search_objective(
                *(views[name] for name in search._STATE), objective, 1e4, views, stale)
        except LabError as exc:
            return str(exc)
        return value.tolist(), None if ratio is None else ratio.tolist()

    want, unread = [evaluate(buf.copy(), stale) for stale in masks], []
    for name in list(layout)[len(search._STATE):]:
        poisoned = buf.copy()
        search._views(poisoned, layout)[name][...] = np.nan
        with np.errstate(invalid="ignore"):
            if [evaluate(poisoned.copy(), stale) for stale in masks] == want:
                unread.append(name)
    assert unread == []


_seq_entry = st.one_of(st.just(0.0), st.floats(1e-300, 1e300), st.floats(-1e300, -1e-300))


@st.composite
def _seq_weight_batches(draw):
    n_cubes = tree_size(draw(st.integers(0, 6)))
    row = st.one_of(st.just([0.0] * n_cubes), st.lists(_seq_entry, min_size=n_cubes,
                                                         max_size=n_cubes))
    return np.array(draw(st.lists(row, min_size=1, max_size=4)))


@settings(max_examples=200, deadline=None)
@given(_seq_weight_batches())
def test_state_sequences_need_no_intensity_check(seq_weights):
    # The redundancy objectives make no intensity check of their own: a
    # sequence the entry checks pass has intensity 1 to within rounding.
    # Over 32,000 random rows, magnitudes 1e-300 to 1e300 and depths 0-6,
    # the largest excess measured was 2.2e-16 (one ulp); 4.4e-16 with
    # magnitudes up to 1e308.
    alpha = search._state_sequences(seq_weights)
    try:
        check_sequence_batch(alpha)
    except LabError:
        return
    assert np.all(carleson_intensity_batch(alpha) <= 1.0 + INTENSITY_SLACK)


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_packed_rows_change_only_by_adoption(monkeypatch, objective):
    # Every named part of the packed rows is a view of the buffer, the parts
    # lie side by side in ``_layout`` order and cover the row, and the state
    # parts start as the states.  A batch's candidate rows are a copy: a
    # move, and what a candidate computes again, reach its restart's row
    # only when ``_adopt`` copies the adopted candidates' rows over.
    states, moves = search._draw_stream(2, 3, 7, 1e4, 4, 15)
    packed, views, layout = *search._packed(states, objective), search._layout(2, 3, objective)
    sizes = [math.prod(shape) for shape in layout.values()]
    assert list(views) == list(layout) and packed.shape == (4, sum(sizes))
    for part, (name, view) in enumerate(views.items()):
        assert np.shares_memory(view, packed) and view.shape[0] == 4, name
        view[...] = part
    assert np.array_equal(packed, np.repeat(np.arange(len(sizes)), sizes)[None].repeat(4, 0))
    for name, state in zip(search._STATE, states):
        assert np.array_equal(search._packed(states, objective)[1][name], state), name

    pack, adopt, seen = search._packed, search._adopt, []

    def packing(states, objective):
        buf, views = pack(states, objective)
        seen.append((buf, buf.copy()))
        return buf, views

    def adopt_and_check(buf, rows, candidates, members):
        (mine, before), = seen
        assert buf is mine and not np.shares_memory(candidates, buf)
        assert np.array_equal(buf.view(np.int64), before.view(np.int64))  # since the last _adopt
        adopt(buf, rows, candidates, members)
        changed = np.flatnonzero((buf.view(np.int64) != before.view(np.int64)).any(axis=1))
        assert set(changed.tolist()) <= set(rows[members].tolist())
        assert np.array_equal(buf[rows[members]].view(np.int64), candidates[members].view(np.int64))
        before[...] = buf
        adopted.append(len(members))

    adopted = []  # candidates adopted per batch
    monkeypatch.setattr(search, "_packed", packing)
    monkeypatch.setattr(search, "_adopt", adopt_and_check)
    search._climb(states, moves, 15, objective, 1e4, search.LOOKAHEAD[objective])
    assert len(adopted) >= 2 and sum(adopted) >= 5  # the 4 start states and a move


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_search_ignores_the_error_of_a_dropped_move(monkeypatch, objective):
    # A candidate of the first lookahead batch that comes after its
    # restart's first accepted move is dropped: the restart climbs on from
    # the accepted state, and the restart-by-restart loop never evaluates
    # it.  Poisoned by its content, it fails alone and in any batch, and the
    # search must still return the loop's result.
    evaluate = search._search_objective
    kwargs = dict(depth=2, d=2, seed=3, objective=objective, budget=202, cond_cap=1e4)
    lookahead = search.LOOKAHEAD[objective]
    batches = []

    def record(*args):
        out = evaluate(*args)
        batches.append((tuple(a.copy() for a in args[:3]), out[0]))
        return out

    monkeypatch.setattr(search, "_search_objective", record)
    adversarial_search(**kwargs)
    (states, values), = batches[:1]
    assert len(values) == 4 * lookahead  # 4 restarts, 50 steps each

    def members(arrays, state):  # the members of a batch that hold ``state``
        return [i for i in range(len(arrays[0]))
                if all(np.array_equal(a[i], s) for a, s in zip(arrays, state))]

    dropped = []
    for r in range(4):
        row = values[r * lookahead:(r + 1) * lookahead]
        accepted = [t for t in range(1, lookahead) if row[t] > row[0]]
        dropped += [r * lookahead + t for t in range(accepted[0] + 1, lookahead)] if accepted else []
    poison = next(state for state in ([a[j] for a in states] for j in dropped)
                  if len(members(states, state)) == 1)
    hits = []

    def poisoned(*args):
        bad = members(args[:3], poison)
        if bad:
            hits.append(len(args[0]))
            raise SingularMatrixError("matrix not SPD", lambda_min=0.0).at(bad[0])
        return evaluate(*args)

    monkeypatch.setattr(search, "_search_objective", poisoned)
    got = adversarial_search(**kwargs)
    assert hits[:1] == [4 * lookahead]  # the first batch met the poisoned candidate
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


_TINY_SWEEP = dict(depth=2, eps_grid=[0.1], rotations=[0.0])
_SWEEP_ROW = [
    "eps", "depth", "intensity", "a2", "c2", "f_norm", "g_norm", "bet_norm_sum",
    "bet_inner_sum", "ratio_norm", "ratio_inner", "ratio_over_sqrt_c2", "theta",
    "intensity_inner", "intensity_alpha", "ratio_norm_scalar_seq", "inner_scalar_seq",
]
_SEARCH_AGGREGATES = [
    "objective", "best_value", "best_c2", "best_a2", "best_over_sqrt_c2", "evaluations",
    "best_restart", "best_evaluation", "best_weight", "elapsed_seconds",
]
_SEARCH_ROW = ["evaluations", "best_objective", "restart", "seed"]


@pytest.mark.parametrize("experiment, over, verdicts, aggregates, row", [
    ("counterexample-sweep", _TINY_SWEEP,
     ["intensity_unit", "f_norm_matches_eps", "g_norm_unit", "bet_norm_sum_unit",
      "ratio_norm_inverse_eps", "a2_unit", "inner_sum_half", "scalar_seq_ratio_matches"],
     ["max_ratio_norm", "min_eps", "rows", "elapsed_seconds"], _SWEEP_ROW),
    ("c2-sharpness", _TINY_SWEEP,
     ["ratio_attains_sqrt_c2", "c2_matches_definition"], ["rows", "elapsed_seconds"], _SWEEP_ROW),
    ("sibet-suite", dict(_TINY_SWEEP, d=2, seeds=[0, 1]),
     ["inner_ratio_within_cprime", "no_growth_along_sweep", "norm_ratio_within_c2bet"],
     ["max_inner_ratio_random", "max_inner_ratio_random_d2", "max_inner_ratio_sweep",
      "max_norm_over_sqrt_c2", "cprime_bound", "rows", "elapsed_seconds"],
     ["kind", "seed", "d", "depth", "eps", "inner_ratio", "norm_ratio", "norm_over_sqrt_c2",
      "c2"]),
    ("wcet-suite", dict(depth=2, d=2, seeds=[0, 1]),
     ["forward_bound_holds", "necessity_identity", "probe_never_exceeds",
      "maximal_function_bounded"],
     ["max_forward_ratio", "max_probe_rel_err", "max_cube_rel_err", "max_sampled_excess",
      "max_maximal_ratio", "forward_bound", "rows", "elapsed_seconds"],
     ["seed", "d", "depth", "testing_constant", "cet_sum", "forward_ratio", "probe_sup",
      "probe_rel_err", "probe_cube_rel_err", "sampled_excess", "testing_recomputed_rel_err",
      "maximal_ratio"]),
    ("bellman-certify", dict(depth=2, d=2, seeds=[0, 1], samples=20),
     ["size_bounds", "midpoint_concavity", "dm_bound", "dynamics_gap", "hessian_richardson"],
     ["richardson_ratio", "matrix_probe_negative_fraction", "rows", "worst_samples",
      "elapsed_seconds"],
     ["check", "samples", "worst_gap", "bound", "violations"]),
    ("redundancy-suite", dict(depth=2, d=2, seeds=[0, 1]),
     ["sred_at_most_4", "red_at_most_4d", "sred_regression", "red_regression",
      "telescoping_cross_oracle", "operator_norm_monotonicity", "trace_cycling_identity",
      "substitution_identity"],
     ["max_sred", "sred_by_d", "red_by_d", "telescoping_max_diff", "telescoping_min_gap",
      "trace_cycling_max_err", "substitution_max_err", "rows", "elapsed_seconds"],
     ["kind", "seed", "d", "depth", "sred", "red_c1", "red_c2", "red_c3"]),
    ("adversarial-search", dict(depth=2, d=2, budget=8, objective="bet_norm_ratio"),
     ["attains_sqrt_c2", "bounded_by_c2bet", "best_monotone"], _SEARCH_AGGREGATES, _SEARCH_ROW),
    ("adversarial-search", dict(depth=2, d=2, budget=8, objective="sred_ratio"),
     ["never_exceeds_4", "best_monotone"], _SEARCH_AGGREGATES, _SEARCH_ROW),
    ("adversarial-search", dict(depth=2, d=2, budget=8, objective="red_ratio"),
     ["never_exceeds_4d", "best_monotone"], _SEARCH_AGGREGATES, _SEARCH_ROW),
])
def test_report_key_orders_are_pinned(experiment, over, verdicts, aggregates, row):
    # the CLI prints verdicts in dict order, JSON reports keep key order and
    # an unpinned CSV takes its columns from the first row; the report
    # digest sorts keys, so only this test sees a reordering
    report = run_experiment(default_config(experiment, **over))
    assert list(report.verdicts) == verdicts
    assert list(report.aggregates) == aggregates
    assert list(report.rows[0]) == row
    if experiment == "bellman-certify":
        assert [r["check"] for r in report.rows] == [
            "size", "concavity", "dm", "dynamics", "hessian_richardson",
            "matrix_parameter_probe(informational)",
        ]
        assert list(report.aggregates["worst_samples"]) == ["size", "concavity", "dm"]


def test_default_config_hands_out_independent_presets():
    first = default_config("sibet-suite")
    first.seeds.append(10_000)
    first.eps_grid.clear()
    second = default_config("sibet-suite")
    assert second.seeds == list(range(200))
    assert second.eps_grid == list(EPS_SWEEP)


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


def test_cli_parser_is_built_once():
    # the parser is cached per process, and parsing leaves it as it was
    parser = build_parser()
    args = parser.parse_args(["redundancy-suite", "--depth", "3", "--quiet"])
    assert build_parser() is parser and (args.depth, args.quiet) == (3, True)
    assert parser.parse_args(["redundancy-suite"]).depth is None


def test_cli_deep_sweep_at_rounding_asymmetric_rotations(tmp_path):
    # At these rotations A2's products <W^-1>^1/2 <W> <W^-1>^1/2 are
    # asymmetric in the last bit, and the Jacobi solver once never
    # converged on them (exit 3)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"depth": 10, "eps_grid": [1e-2],
                                    "rotations": [0.5271121551688654, 1.1144232064574016]}))
    out = tmp_path / "r.json"
    assert main(["counterexample-sweep", "--config", str(cfg_path), "--out", str(out),
                 "--quiet"]) == 0


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


def test_cli_wcet_suite_refuses_extra_instances(tmp_path):
    # wcet-suite runs no embedded instance; it ignored the list and exited 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"extra_instances": [{"x": 1}], "seeds": [0, 1], "depth": 2,
                                    "d": 2}))
    assert main(["wcet-suite", "--config", str(cfg_path), "--quiet"]) == 2
    with pytest.raises(ConfigError, match="wcet-suite runs no extra_instances"):
        default_config("wcet-suite", extra_instances=[{"x": 1}])


@pytest.mark.parametrize("experiment", ["sibet-suite", "wcet-suite", "redundancy-suite"])
def test_suite_rows_match_fresh_instances(experiment):
    # two or more periods of the (d, depth) ladder: each random row's seed,
    # d and depth are the ladder's, and one column is recomputed on a fresh
    # instance; redundancy recomputes its whole row, red before sred, so
    # that no cached power is shared
    depth_min = 4 if experiment == "redundancy-suite" else 3
    cfg = default_config(experiment, depth=6, d=4, seeds=list(range(7, 31)))
    rows = run_experiment(cfg).rows
    # the random rows come first; sibet-suite's sweep rows follow them
    assert len([row for row in rows if row.get("kind") != "sweep"]) == 24
    for i, (seed, row) in enumerate(zip(cfg.seeds, rows)):
        d, depth = suite_instance_params(i, 4, 6, depth_min=depth_min)
        assert (row["seed"], row["d"], row["depth"]) == (seed, d, depth)
        inst = random_instance(depth, d, seed, cfg.cond_cap)
        if experiment == "sibet-suite":
            assert row["kind"] == "random" and row["c2"] == c2_conditioning(inst.w)
        elif experiment == "wcet-suite":
            assert row["testing_constant"] == wcet_testing_constant(inst.w, inst.mseq)
        else:
            c1, c2, c3 = red_constants(inst.w, inst.mseq)
            assert row == {"kind": "suite", "seed": seed, "d": d, "depth": depth,
                           "sred": sred_constant(inst.w, inst.sseq),
                           "red_c1": c1, "red_c2": c2, "red_c3": c3}


@pytest.mark.parametrize("over, builds", [
    # every cross-check instance is the suite's; the 50-seed head is cut
    (dict(depth=6, d=2, seeds=list(range(52))), 52),
    # i = 0, 1, 2, 15, 16, 17 share (d, depth) with the cross-check's ladder
    (dict(depth=8, seeds=list(range(24))), 24 + 18),
    # no suite instance has the cross-check's cond_cap 1e4
    (dict(depth=6, cond_cap=1e5, seeds=list(range(24))), 24 + 24),
    (dict(depth=6, seeds=list(range(3, 25)), extra_instances="embedded"), 22),
], ids=["all-reused", "some-reused", "none-reused", "embedded"])
def test_redundancy_cross_checks_match_the_two_loop_oracle(monkeypatch, over, builds):
    # the cross-checks run inside the suite loop on the suite's own
    # instances where they can; the oracle runs them in a second loop
    if over.get("extra_instances") == "embedded":
        inst = random_instance(3, 2, seed=0, cond_cap=1e3)
        over = dict(over, extra_instances=[{"weight": stepfield_to_json(inst.w),
                                            "alpha": inst.sseq.to_json(),
                                            "matrix_seq": inst.mseq.to_json()}])
    cfg = default_config("redundancy-suite", **over)
    built = []
    monkeypatch.setattr("carlab.lab.random_instance",
                        lambda *args: built.append(args) or random_instance(*args))
    report = run_experiment(cfg)
    assert len(built) == builds
    agg = report.aggregates
    assert (agg["telescoping_max_diff"], agg["telescoping_min_gap"],
            agg["trace_cycling_max_err"], agg["substitution_max_err"],
            report.verdicts["operator_norm_monotonicity"]) == two_loop_redundancy_cross_check(cfg)


def _embedded(over):
    if over.get("extra_instances") != "embedded":
        return over
    inst = random_instance(3, 2, seed=0, cond_cap=1e3)
    return dict(over, extra_instances=[
        {"weight": stepfield_to_json(inst.w), "alpha": inst.sseq.to_json(),
         "matrix_seq": inst.mseq.to_json()},
        {"weight": stepfield_to_json(inst.w), "alpha": inst.sseq.to_json()}])


def _numbers(rows, keys):
    return np.array([[np.nan if r[k] == "" else r[k] for k in keys] for r in rows], dtype=float)


@pytest.mark.parametrize("over", [
    dict(depth=6, d=2, seeds=list(range(52))),  # groups of up to 9, every instance reused
    dict(depth=8, seeds=list(range(45))),  # 20 groups of 2 or 3, some reused
    dict(depth=6, cond_cap=1e5, seeds=list(range(30))),  # none reused
    dict(depth=3, d=2, seeds=list(range(5, 30)), extra_instances="embedded"),
], ids=["all-reused", "some-reused", "none-reused", "embedded"])
def test_redundancy_groups_match_the_per_seed_loop(over):
    # one batch per (d, depth) group gives the rows and the cross-checks of
    # a loop over the instances, bit for bit; the embedded instances, one of
    # them without a matrix sequence, share the d = 2, depth 3 group
    cfg = default_config("redundancy-suite", **_embedded(over))
    report = run_experiment(cfg)
    rows, (diff, gap, cycle, subst, mono) = loop_redundancy(cfg)
    keys = ("sred", "red_c1", "red_c2", "red_c3")
    assert [[r[k] for k in ("kind", "seed", "d", "depth")] for r in report.rows] == \
        [[r[k] for k in ("kind", "seed", "d", "depth")] for r in rows]
    assert np.array_equal(_numbers(report.rows, keys), _numbers(rows, keys), equal_nan=True)
    agg = report.aggregates
    assert np.array_equal([agg["telescoping_max_diff"], agg["telescoping_min_gap"],
                           agg["trace_cycling_max_err"], agg["substitution_max_err"]],
                          [diff, gap, cycle, subst])
    assert report.verdicts["operator_norm_monotonicity"] == mono


@pytest.mark.parametrize("depth, d", [(4, 4), (5, 2), (2, 3), (0, 2)])
def test_bellman_dynamics_groups_match_the_per_seed_loop(depth, d):
    cfg = default_config("bellman-certify", depth=depth, d=d, samples=20, seeds=list(range(30)))
    row = next(r for r in run_experiment(cfg).rows if r["check"] == "dynamics")
    assert np.array_equal([row["worst_gap"], row["violations"]], loop_bellman_dynamics(cfg))


def _stub_grouped(groups, bad=(), bad_together=()):
    """``lab._grouped`` on the stub members i -> 10 i: a batch holding a
    member of ``bad`` fails, naming it as a batch does, and a batch of more
    than one holding every index of ``bad_together`` fails as a whole."""
    def evaluate(members):
        idx = [i for i, _ in members]
        for p, i in enumerate(idx):
            if i in bad:
                err = PreconditionError(f"member {i}")
                raise err.at(p) if len(idx) > 1 else err
        if len(idx) > 1 and bad_together and set(bad_together) <= set(idx):
            raise PreconditionError("together")
        return [member for _, member in members]

    return lab._grouped(groups, lambda i: 10 * i, evaluate)


def test_grouped_fails_as_a_loop_over_the_indices():
    assert _stub_grouped([[0, 2], [1, 3]]) == ({0: 0, 2: 20, 1: 10, 3: 30}, None)
    # 3 fails in the first group, 1 in a later one: the lower index is raised,
    # and the members before each failing one keep their results
    results, (i, error) = _stub_grouped([[0, 3], [1, 2]], bad={3, 1})
    assert results == {0: 0} and i == 1 and str(error) == "member 1"
    # a group that fails while no member fails alone fails at its first index
    results, (i, error) = _stub_grouped([[0, 2], [1, 3]], bad={3}, bad_together={0, 2})
    assert results[1] == 10 and 3 not in results and i == 0 and str(error) == "together"


def _failing_seeds(monkeypatch, singular, too_dense):
    """Make the instance of seed ``singular`` take a zero weight (refused
    under W^-1) and that of seed ``too_dense`` a scalar sequence of
    Carleson intensity 2 (refused by every intensity check)."""
    import carlab.lab as lab

    fresh = {s: np.random.default_rng(s).bit_generator.state for s in (singular, too_dense)}
    real_weight, real_sequence, flagged = lab.random_weight_field, lab.random_scalar_sequence, []

    def weight(depth, d, rng, cond_cap):
        seed = next((s for s, state in fresh.items() if state == rng.bit_generator.state), None)
        w = real_weight(depth, d, rng, cond_cap)
        flagged.append(seed == too_dense)
        return StepField(np.zeros_like(w.values)) if seed == singular else w

    def sequence(depth, rng):
        seq = real_sequence(depth, rng)
        return seq.scaled(2.0) if flagged.pop() else seq

    def instance(depth, d, seed, cond_cap):
        inst = random_instance(depth, d, seed, cond_cap)
        if seed == singular:
            return dataclasses.replace(inst, w=StepField(np.zeros_like(inst.w.values)))
        return dataclasses.replace(inst, sseq=inst.sseq.scaled(2.0)) if seed == too_dense else inst

    monkeypatch.setattr(lab, "random_weight_field", weight)
    monkeypatch.setattr(lab, "random_scalar_sequence", sequence)
    monkeypatch.setattr(lab, "random_instance", instance)


@pytest.mark.parametrize("experiment, n, loop", [
    ("redundancy-suite", 40, loop_redundancy),  # groups {0, 20}, {1, 21}, ...
    ("bellman-certify", 24, loop_bellman_dynamics),  # groups {0, 12}, {1, 13}, ...
])
@pytest.mark.parametrize("flip", [False, True])
def test_grouped_runners_raise_the_first_failing_seeds_error(monkeypatch, experiment, n, loop,
                                                             flip):
    # the group of seed 0 runs first and holds the bad seed n / 2; the first
    # bad seed is 1, in a later group: its error is raised, as the loop
    # raises it, whichever of the two refusals it is
    singular, too_dense = (1, n // 2) if flip else (n // 2, 1)
    _failing_seeds(monkeypatch, singular, too_dense)
    cfg = default_config(experiment, seeds=list(range(n)), samples=20, d=4,
                         depth=8 if experiment == "redundancy-suite" else 5)
    with pytest.raises(LabError) as want:
        loop(cfg)
    with pytest.raises(LabError) as got:
        run_experiment(cfg)
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)
    assert isinstance(got.value, SingularMatrixError if flip else PreconditionError)


def test_cli_refuses_bad_embedded_instances_before_any_instance_is_built(
        tmp_path, monkeypatch, capsys):
    # a bad embedded instance exited 2 only after every random instance had
    # been built and run: 2.8 s for a default redundancy-suite
    def refused(*args):
        raise AssertionError("a random instance was built before the config was refused")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("carlab.lab.random_instance", refused)
    inst = random_instance(2, 2, seed=0, cond_cap=1e3)
    short = stepfield_to_json(inst.w)
    short["values"] = short["values"][:-1]
    zero = stepfield_to_json(inst.f)
    zero["values"] = [[0.0, 0.0] for _ in zero["values"]]
    parts = {"weight": stepfield_to_json(inst.w), "f": zero, "g": stepfield_to_json(inst.g),
             "alpha": inst.sseq.to_json()}
    cfg_path = tmp_path / "cfg.json"
    for experiment, embedded, message in (
        ("redundancy-suite", {"weight": short, "alpha": inst.sseq.to_json()},
         "bad embedded instance #0: weight"),
        ("sibet-suite", {"weight": parts["weight"]},
         "embedded instance #0 needs weight, f, g and alpha"),
        ("sibet-suite", parts, "bad embedded instance #0: f has L2 norm 0"),
    ):
        cfg_path.write_text(json.dumps({"extra_instances": [embedded]}))
        assert main([experiment, "--config", str(cfg_path), "--quiet"]) == 2
        assert message in capsys.readouterr().err


def test_cli_config_error_exit_code(tmp_path):
    assert main(["counterexample-sweep", "--eps", "zero"]) == 2
    cfg_path = tmp_path / "broken.json"
    cfg_path.write_text("{not json")
    assert main(["counterexample-sweep", "--config", str(cfg_path)]) == 2
    assert main(["counterexample-sweep", "--config", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("eps", [1e-9, 5e-7])
def test_cli_eps_below_the_power_floor_exit_code(tmp_path, monkeypatch, capsys, eps):
    # eps^2 <= SPD_REJECT: the family's bottom eigenvalue is refused under
    # W^-1, which ended the depth-10 sweep mid-run with exit 3
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "tiny_eps.json"
    cfg_path.write_text(json.dumps({"eps_grid": [1e-2, eps], "depth": 10}))
    assert main(["counterexample-sweep", "--config", str(cfg_path), "--quiet"]) == 2
    assert "sqrt(SPD_REJECT) = 1e-06" in capsys.readouterr().err
    assert not (tmp_path / "lab_counterexample-sweep.csv").exists()
    for experiment in ("sibet-suite", "c2-sharpness"):
        with pytest.raises(ConfigError, match="SPD_REJECT"):
            default_config(experiment, eps_grid=[eps])
    # the default grid, deep-sweep's grid and the smallest eps above the floor pass
    for grid in (None, [1e-2, 1e-4], [1.01e-6]):
        extra = {} if grid is None else {"eps_grid": grid}
        default_config("counterexample-sweep", depth=10, **extra)


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


def test_cli_search_bet_norm_ratio_at_d1_exit_code(tmp_path, monkeypatch, capsys):
    # bet_norm_ratio's attains_sqrt_c2 verdict compares with the
    # counterexample family, which starts the first restart only for d >= 2:
    # at d = 1 the search ran to the end and exited 1 on that verdict.  The
    # redundancy ratios still run at d = 1.
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"d": 1, "budget": 20}))
    assert main(["adversarial-search", "--config", str(cfg_path), "--quiet"]) == 2
    assert "d >= 2" in capsys.readouterr().err
    assert not (tmp_path / "lab_adversarial-search.csv").exists()
    for objective in ("sred_ratio", "red_ratio"):
        cfg_path.write_text(json.dumps({"d": 1, "budget": 20, "objective": objective}))
        assert main(["adversarial-search", "--config", str(cfg_path), "--quiet"]) == 0


def test_cli_bad_config_types_exit_code(tmp_path):
    # a wrongly typed or unknown key is a configuration error, not a traceback
    cfg_path = tmp_path / "bad.json"
    for obj in ({"depth": "4"}, {"foo": 1}):
        cfg_path.write_text(json.dumps(obj))
        assert main(["redundancy-suite", "--config", str(cfg_path), "--quiet"]) == 2
    with pytest.raises(ConfigError):
        default_config("sibet-suite", depth="4")
    # a non-list extra_instances and a non-string output_path ended in a
    # TypeError traceback with exit 1
    for obj in ({"extra_instances": 5}, {"extra_instances": None},
                {"output_path": 5}, {"output_path": ["a"]}):
        cfg_path.write_text(json.dumps(obj))
        assert main(["sibet-suite", "--config", str(cfg_path), "--seed", "0,1,2", "--depth", "2",
                     "--quiet"]) == 2
        with pytest.raises(ConfigError):
            default_config("redundancy-suite", **obj)


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


def test_bellman_probe_row_counts_every_negative_gap(monkeypatch):
    # 55 of 150 gaps negative: the fraction times the pairs is
    # 54.99999999999999, which the row once truncated to 54
    from carlab import bellman, lab

    probe_gaps = bellman._probe_gaps

    def probe(**kwargs):
        def first_55_negative(rng, d, n):
            return np.where(np.arange(n) < 55, -1.0, np.abs(probe_gaps(rng, d, n)))

        with monkeypatch.context() as patched:
            patched.setattr(bellman, "_probe_gaps", first_55_negative)
            return bellman.matrix_parameter_probe(**kwargs)

    monkeypatch.setattr(lab, "matrix_parameter_probe", probe)
    rep = run_experiment(default_config("bellman-certify", depth=1, samples=150, seeds=[0]))
    row = next(r for r in rep.rows if r["check"] == "matrix_parameter_probe(informational)")
    assert (row["samples"], row["violations"]) == (150, 55)


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


def test_cli_output_path_naming_a_directory_exits_before_run(tmp_path, monkeypatch, capsys):
    def never(cfg):
        raise AssertionError("the experiment ran before the output path was checked")

    monkeypatch.setattr("carlab.cli.run_experiment", never)
    assert main(["counterexample-sweep", "--out", str(tmp_path), "--quiet"]) == 2
    assert "is a directory" in capsys.readouterr().err
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"output_path": str(tmp_path)}))
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


def test_cli_embedded_sequence_of_infinite_intensity_exit_code(tmp_path, monkeypatch, capsys):
    # alpha 1e308 at (0, 0) and (1, 0) overflowed to an infinite intensity;
    # the rescaling by 1/inf emptied it, and the row read sred 0.0 with exit
    # 0.  The same matrix_seq on a d = 1 weight exited 3 with "non-finite
    # sequence entry", and as 1e308 I on a d = 2 weight ran with constants
    # -inf and exit 0.  Every entry is finite: all are bad configuration.
    from carlab.constructions import random_instance

    monkeypatch.chdir(tmp_path)
    cubes = [{"level": 0, "position": 0}, {"level": 1, "position": 0}]

    def seq(d, value):
        return {"depth": 3, "d": d, "values": [dict(q, value=value) for q in cubes]}

    cases = [(1, "alpha", seq(1, 1e308)), (1, "matrix_seq", seq(1, [1e308])),
             (2, "matrix_seq", seq(2, [1e308, 0.0, 0.0, 1e308]))]
    cfg_path = tmp_path / "cfg.json"
    for d, name, part in cases:
        weight = stepfield_to_json(random_instance(3, d, seed=0, cond_cap=1e3).w)
        cfg_path.write_text(json.dumps({"seeds": [0], "extra_instances": [
            {"weight": weight, name: part}]}))
        assert main(["redundancy-suite", "--config", str(cfg_path), "--quiet"]) == 2
        assert f"bad embedded instance #0: {name}: Carleson intensity" in capsys.readouterr().err


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


@pytest.mark.parametrize("rotation", [math.nan, math.inf, -math.inf, 10**400])
def test_cli_non_finite_rotations_exit_code(tmp_path, monkeypatch, capsys, rotation):
    # NaN and inf exited 3 with "non-finite field value at
    # DyadicIndex(level=4, position=0)", inf after a numpy RuntimeWarning
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"rotations": [0.0, rotation]}))
    assert main(["counterexample-sweep", "--config", str(cfg_path), "--quiet"]) == 2
    assert "rotations must be finite floats" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="rotations must be finite floats"):
        default_config("c2-sharpness", rotations=[rotation])


def test_cli_sibet_suite_zero_norm_embedded_field_exit_code(tmp_path, monkeypatch, capsys):
    # f = 0 or g = 0 ended in a ZeroDivisionError traceback (exit 1) from the
    # row's division by ||f|| ||g||
    from carlab.characteristics import ScalarSequence
    from carlab.dyadic import ROOT

    monkeypatch.chdir(tmp_path)
    weight = {"depth": 1, "d": 2, "kind": "matrix", "values": [[1, 0, 0, 1], [2, 0, 0, 1]]}
    unit = {"depth": 1, "d": 2, "kind": "vector", "values": [[1, 0], [0, 1]]}
    zero = {"depth": 1, "d": 2, "kind": "vector", "values": [[0, 0], [0, 0]]}
    alpha = ScalarSequence(1, {ROOT: 1.0}).to_json()
    cfg_path = tmp_path / "cfg.json"
    for name, f, g in (("f", zero, unit), ("g", unit, zero)):
        embedded = {"weight": weight, "f": f, "g": g, "alpha": alpha}
        cfg_path.write_text(json.dumps({"seeds": [0, 1], "depth": 2, "extra_instances": [embedded]}))
        assert main(["sibet-suite", "--config", str(cfg_path), "--quiet"]) == 2
        assert f"bad embedded instance #0: {name} has L2 norm 0" in capsys.readouterr().err


def test_cli_unknown_field_kind_exit_code(tmp_path, monkeypatch, capsys):
    # "matrx" was read as a scalar field: its 2 leaves of 4 values became a
    # depth-3 tree, and the run stopped at "alpha has depth 1, the weight
    # has depth 3"
    from carlab.characteristics import ScalarSequence
    from carlab.dyadic import ROOT, stepfield_from_json
    from carlab.errors import DimensionMismatchError

    monkeypatch.chdir(tmp_path)
    weight = {"depth": 1, "d": 2, "kind": "matrx", "values": [[1, 0, 0, 1], [2, 0, 0, 1]]}
    embedded = {"weight": weight, "alpha": ScalarSequence(1, {ROOT: 1.0}).to_json()}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seeds": [0], "extra_instances": [embedded]}))
    assert main(["redundancy-suite", "--config", str(cfg_path), "--quiet"]) == 2
    assert "unknown field kind 'matrx'" in capsys.readouterr().err
    with pytest.raises(DimensionMismatchError, match="unknown field kind 'matrx'"):
        stepfield_from_json(weight)
    # a known kind whose leaves hold another number of values is refused too,
    # not reshaped onto another tree
    with pytest.raises(DimensionMismatchError, match="scalar leaves of d=2 take 1 value"):
        stepfield_from_json(dict(weight, kind="scalar"))
    assert stepfield_from_json(dict(weight, kind="matrix")).depth == 1


def test_cli_embedded_json_non_integer_exit_code(tmp_path, monkeypatch, capsys):
    # int() read level 0.9 as 0: the alpha entry moved to the root and the
    # run exited 0
    monkeypatch.chdir(tmp_path)
    weight = {"depth": 1, "d": 2, "kind": "matrix", "values": [[1, 0, 0, 1], [2, 0, 0, 1]]}
    alpha = {"depth": 1, "d": 1, "values": [{"level": 0.9, "position": 0, "value": 1.0}]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seeds": [0], "extra_instances": [
        {"weight": weight, "alpha": alpha}]}))
    assert main(["redundancy-suite", "--config", str(cfg_path), "--quiet"]) == 2
    assert ("bad embedded instance #0: alpha: level must be an integer, got 0.9"
            in capsys.readouterr().err)


def test_cli_embedded_json_size_out_of_range_exit_code(tmp_path, monkeypatch, capsys):
    # a weight of d = 0 ended in an IndexError traceback (exit 1) from its
    # inverse; one of depth -1 was refused with "negative shift count"
    monkeypatch.chdir(tmp_path)
    alpha = {"depth": 1, "d": 1, "values": [{"level": 0, "position": 0, "value": 1.0}]}
    cfg_path = tmp_path / "cfg.json"
    for weight, message in (
        ({"depth": 1, "d": 0, "kind": "matrix", "values": [[], []]}, "d must be at least 1, got 0"),
        ({"depth": -1, "d": 1, "kind": "matrix", "values": [[1.0]]},
         "depth must be at least 0, got -1"),
    ):
        cfg_path.write_text(json.dumps({"seeds": [0], "extra_instances": [
            {"weight": weight, "alpha": alpha}]}))
        assert main(["redundancy-suite", "--config", str(cfg_path), "--quiet"]) == 2
        assert f"bad embedded instance #0: weight: {message}" in capsys.readouterr().err


def test_cli_sibet_suite_embedded_field_kind_exit_code(tmp_path, monkeypatch, capsys):
    # a matrix-kind f exited 3 with "error: expected a scalar or vector
    # field"; a vector-kind weight is refused as bad configuration too
    monkeypatch.chdir(tmp_path)
    eye = {"depth": 1, "d": 2, "kind": "matrix", "values": [[1, 0, 0, 1], [1, 0, 0, 1]]}
    unit = {"depth": 1, "d": 2, "kind": "vector", "values": [[1, 0], [0, 1]]}
    alpha = {"depth": 1, "d": 1, "values": [{"level": 0, "position": 0, "value": 1.0}]}
    cfg_path = tmp_path / "cfg.json"
    for weight, f, message in ((eye, eye, "f: matrix fields have no vector view"),
                               (unit, unit, "weight: vector fields have no matrix view")):
        embedded = {"weight": weight, "f": f, "g": unit, "alpha": alpha}
        cfg_path.write_text(json.dumps({"seeds": [0, 1], "depth": 2, "extra_instances": [embedded]}))
        assert main(["sibet-suite", "--config", str(cfg_path), "--quiet"]) == 2
        assert f"bad embedded instance #0: {message}" in capsys.readouterr().err


def test_cli_samples_and_budget_limits_exit_code(tmp_path, monkeypatch, capsys):
    # samples had no upper limit: 10^15 of them ended in a numpy
    # _ArrayMemoryError traceback (exit 1) from the first allocation; a huge
    # budget draws its whole move stream into memory before the first
    # evaluation.  The samples case runs first: a copy without the limits
    # must never reach the budget case.
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    for experiment, key in (("bellman-certify", "samples"), ("adversarial-search", "budget")):
        cfg_path.write_text(json.dumps({key: 10**15}))
        assert main([experiment, "--config", str(cfg_path), "--quiet"]) == 2
        assert f"{key} must lie in [1, 100000], got {10**15}" in capsys.readouterr().err
    assert main(["adversarial-search", "--budget", str(10**15), "--quiet"]) == 2

    from carlab.lab import MAX_BUDGET, MAX_SAMPLES

    for key, limit in (("samples", MAX_SAMPLES), ("budget", MAX_BUDGET)):
        assert getattr(default_config("bellman-certify", **{key: limit}), key) == limit
        with pytest.raises(ConfigError, match=f"{key} must lie in"):
            default_config("bellman-certify", **{key: limit + 1})


def test_redundancy_empty_embedded_sequences_decompose_no_weight():
    # an embedded instance's empty sequences give zero constants without
    # decomposing its weight, as they do alone, also in a group with random
    # instances: a zero weight there is not refused
    zero = StepField(np.zeros((8, 2, 2)))
    empty = {"weight": stepfield_to_json(zero), "alpha": ScalarSequence(3).to_json(),
             "matrix_seq": MatrixSequence(3, 2).to_json()}
    cfg = default_config("redundancy-suite", depth=3, d=2, seeds=list(range(4)),
                         extra_instances=[empty])
    report = run_experiment(cfg)
    rows, _ = loop_redundancy(cfg)
    keys = ("sred", "red_c1", "red_c2", "red_c3")
    assert np.array_equal(_numbers(report.rows, keys), _numbers(rows, keys))
    assert [report.rows[-1][k] for k in keys] == [0.0] * 4
