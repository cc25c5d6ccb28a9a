"""Adversarial search: a hill climb with random restarts over weights and
sequences, for the objectives whose sharpness the laboratory checks.

``adversarial_search`` is a pure function of its arguments: the whole random
stream is drawn from ``seed`` before the first evaluation.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from . import matrices
from .characteristics import (
    a2_characteristic,
    c2_conditioning,
    c2_conditioning_batch,
    carleson_intensity_batch,
    check_sequence_batch,
)
from .dyadic import StepField, pyramid_batch, tree_ancestor, tree_cube, tree_size
from .embeddings import bet_norm_sum_batch, halfweighted_pyramid_batch, l2_norm_batch
from .errors import ConfigError, first_failure
from .redundancy import check_intensity_batch, red_constants_batch, sred_constant_batch

OBJECTIVES = ("bet_norm_ratio", "sred_ratio", "red_ratio")

# Steps each restart evaluates per batched evaluation, all against its
# current state, per objective.  The candidates after a restart's first
# accepted move are dropped, so an objective that accepts fewer moves (the
# redundancy ratios: about 5% against 31%) looks further ahead.  Module
# constants: they change the scheduling, not a result.
LOOKAHEAD = {"bet_norm_ratio": 4, "sred_ratio": 8, "red_ratio": 8}


# ---------------------------------------------------------------------------
# Adversarial search.
#
# A state holds per-leaf log-eigenvalues and rotation angles, which keep
# every iterate SPD (the per-leaf log spread is clipped to log(cond_cap), so
# the conditioning cap is a hard constraint), and one non-negative weight
# per cube, renormalized to Carleson intensity exactly 1 on every
# evaluation.  A batch of states is three arrays with a leading restart axis.
# ---------------------------------------------------------------------------

def _n_angles(d):
    return d * (d - 1) // 2


def _clip_spread(log_eigs, cond_cap):
    half = 0.5 * math.log(cond_cap)
    center = np.add.reduce(log_eigs, axis=-1, keepdims=True) / log_eigs.shape[-1]  # the mean
    return center + np.minimum(np.maximum(log_eigs - center, -half), half)  # np.clip, cheaper


def _state_weights(log_eigs, angles, cond_cap):
    """Leaf weights Q diag(exp(log_eigs)) Q^T of a batch of states.

    Q = I G_1 G_2 ..., one Givens rotation per coordinate plane in row
    order; the leaves (B, 2^depth, d, d) are symmetrized as ``StepField`` does.
    ``matrices.TALLY`` counts the leaves built (search_weight_leaves).
    """
    logs = _clip_spread(log_eigs, cond_cap)
    shape, d = logs.shape[:-1], logs.shape[-1]
    matrices.TALLY["search_weight_leaves"] += math.prod(shape)
    trig = np.array([(math.cos(a), math.sin(a)) for a in angles.ravel().tolist()])
    trig = trig.reshape(*angles.shape, 2)
    q = np.eye(d)
    for k, (i, j) in enumerate((i, j) for i in range(d - 1) for j in range(i + 1, d)):
        c, s = trig[..., k, 0], trig[..., k, 1]
        g = np.zeros((*shape, d, d))
        g.reshape(-1, d * d)[:, ::d + 1] = 1.0  # the identity, through a view of the new g
        g[..., i, i], g[..., j, j], g[..., i, j], g[..., j, i] = c, c, -s, s
        q = q @ g
    w = (q * np.exp(logs)[..., None, :]) @ q.swapaxes(-1, -2)
    return (w + w.swapaxes(-1, -2)) / 2


def _state_sequences(seq_weights):
    """The sequences of a batch of states, dense (B, cubes) in tree order,
    each rescaled to Carleson intensity 1; an all-zero state puts its
    weight on the root."""
    weights = np.where(seq_weights > 0.0, seq_weights, 0.0)
    weights[~weights.any(axis=1), 0] = 1.0
    intensity = carleson_intensity_batch(weights)
    return weights * (1.0 / intensity)[:, None]


_STATE = ("log_eigs", "angles", "seq_weights")


def _layout(depth, d, objective):
    """The shape of each part of a restart's row of a packed (restarts, F)
    float64 buffer, by name: the state, the leaves of W and W^-1, (vals,
    vecs) of every cube average of W and of W^-1, and the powers the
    objective's kernels take: the leaves' W^1/2 and W^-1/2 and eigenvalues
    (for C2) for bet_norm_ratio, else R = <W>^-1/2 of every cube and
    P = <W^-1>^-1/2 (red_ratio) or <W^-1>^-1 (sred_ratio)."""
    leaf, cube = (1 << depth, d, d), (tree_size(depth), d, d)
    shapes = dict(zip(_STATE, (leaf[:2], (1 << depth, _n_angles(d)), cube[:1])))
    shapes.update(w=leaf, winv=leaf, wvals=cube[:2], wvecs=cube, vvals=cube[:2], vvecs=cube)
    if objective == "bet_norm_ratio":
        shapes.update(wh=leaf, whinv=leaf, leaf_vals=leaf[:2])
    else:
        shapes.update({"r": cube, "p" if objective == "red_ratio" else "vinv": cube})
    return shapes


def _views(buf, shapes):
    """The parts (len(buf), *shape) of the packed rows ``buf``, each a view of it."""
    ends = np.cumsum([0, *map(math.prod, shapes.values())]).tolist()
    return {name: buf[:, a:b].reshape(len(buf), *shape)
            for (name, shape), a, b in zip(shapes.items(), ends, ends[1:])}


def _packed(states, objective):
    """Packed rows holding ``states`` (three arrays with a leading restart
    axis) and room for what they derive (``_layout``), and their views."""
    n, n_leaves, d = states[0].shape
    shapes = _layout(n_leaves.bit_length() - 1, d, objective)
    buf = np.empty((n, sum(map(math.prod, shapes.values()))))
    views = _views(buf, shapes)
    for name, state in zip(_STATE, states):
        views[name][...] = state
    return buf, views


def _search_objective(log_eigs, angles, seq_weights, objective, cond_cap, carry=None, stale=None):
    """Objective values of a batch of states, with their leaf weights and,
    for bet_norm_ratio, the values over sqrt(C2) of each weight (else None).

    ``carry`` holds the views of ``_packed``, of which only the leaves and
    cubes marked in ``stale`` (B, cubes) are computed again, in place, each
    part by one gather, solve and scatter on the mask's (member, cube) or
    (member, leaf) pairs; without ``carry`` every one is.  The steps and
    checks are those of one evaluation through the public kernels, in the
    same order, so a batch of one raises what that evaluation raises: the
    members not marked stale have passed them before.  The sequences are
    checked as dense arrays in tree order, once, as scalars: red_ratio's
    matrix sequence alpha_Q I is finite, symmetric and PSD whenever alpha is
    finite and non-negative, and has the same Carleson intensity, so the
    checks ``red_constants`` makes of it are implied by those of alpha.

    bet_norm_ratio has a closed form.  Its f = W^1/2 b and g = W^-1/2 a,
    from the bottom and top eigenvectors b, a of the root average <W>,
    give <W^1/2 f>_Q = <W>_Q b and <W^-1/2 g>_Q = <W^-1>_Q a, so u_Q = b and
    v_Q = a on every cube, and the value is sum_Q alpha_Q / (||W^1/2 b||
    ||W^-1/2 a||), the L2 norms over the leaves.
    """
    n_leaves, d = log_eigs.shape[1:]
    if carry is None:
        carry = _packed((log_eigs, angles, seq_weights), objective)[1]
        stale = np.ones((len(log_eigs), 2 * n_leaves - 1), dtype=bool)
    c, (member, cube) = carry, np.nonzero(stale)
    on_leaf = cube >= n_leaves - 1  # the leaves are the last n_leaves cubes
    leaves, leaf_cubes = (member[on_leaf], cube[on_leaf] - (n_leaves - 1)), cube[on_leaf]

    def power(vals, vecs, p, cubes):  # a refusal names its cube
        return matrices.eig_power(vals, vecs, p, context=lambda i: tree_cube(int(cubes[i])))

    if member.size:
        w = c["w"][leaves] = _state_weights(log_eigs[leaves], angles[leaves], cond_cap)
        weig = matrices.eigh_sym(pyramid_batch(c["w"])[member, cube])
        c["wvals"][member, cube], c["wvecs"][member, cube] = weig
        leaf_eig = weig[0][on_leaf], weig[1][on_leaf]
        if objective == "bet_norm_ratio":
            c["wh"][leaves] = power(*leaf_eig, 0.5, leaf_cubes)
            c["whinv"][leaves] = power(*leaf_eig, -0.5, leaf_cubes)
            c["leaf_vals"][leaves] = matrices.eigvalsh_stack(w)
    if objective == "bet_norm_ratio":
        # f = W^1/2 b and g = W^-1/2 a leafwise, from the bottom and top
        # eigenvectors b, a of the root average: this reproduces the
        # counterexample family exactly when the weight is one of its members
        root_vecs = c["wvecs"][:, 0]
        f = np.einsum("bkij,bj->bki", c["wh"], root_vecs[:, :, 0])
        g = np.einsum("bkij,bj->bki", c["whinv"], root_vecs[:, :, -1])
        norms = l2_norm_batch(f) * l2_norm_batch(g)
        c2 = c2_conditioning_batch(c["leaf_vals"])
    alpha = _state_sequences(seq_weights)
    check_sequence_batch(alpha)
    if objective != "bet_norm_ratio":
        check_intensity_batch(alpha)
    if member.size:
        c["winv"][leaves] = power(*leaf_eig, -1.0, leaf_cubes)
        veig = matrices.eigh_sym(pyramid_batch(c["winv"])[member, cube])
        c["vvals"][member, cube], c["vvecs"][member, cube] = veig
        if objective == "red_ratio":
            c["r"][member, cube] = power(*weig, -0.5, cube)
            c["p"][member, cube] = power(*veig, -0.5, cube)
        elif objective == "sred_ratio":
            c["vinv"][member, cube] = power(*veig, -1.0, cube)
            c["r"][member, cube] = power(*weig, -0.5, cube)
    if objective == "red_ratio":
        c1, c2, c3 = red_constants_batch(c["r"], c["p"], alpha[..., None, None] * np.eye(d))
        value = np.where(c2 > c1, c2, c1)  # max(c1, c2, c3): the first maximum
        return np.where(c3 > value, c3, value), c["w"], None
    if objective == "sred_ratio":
        return sred_constant_batch(c["r"], c["vinv"], alpha), c["w"], None
    support = np.nonzero(alpha)
    value = bet_norm_sum_batch(
        (c["wvals"][support], c["wvecs"][support]), (c["vvals"][support], c["vvecs"][support]),
        halfweighted_pyramid_batch(c["wh"], f), halfweighted_pyramid_batch(c["whinv"], g),
        np.flatnonzero(alpha), alpha[support], np.count_nonzero(alpha, axis=1),
    ) / norms
    return value, c["w"], value / np.sqrt(c2)


def _family_state(depth, d, cond_cap, rotation=0.0):
    """The counterexample family member sitting exactly at the cap."""
    n_leaves = 1 << depth
    log_eigs = np.zeros((n_leaves, d))
    log_eigs[:, 0] = -math.log(cond_cap)  # bottom eigenvalue eps^2 = 1/cap
    angles = np.zeros((n_leaves, _n_angles(d)))
    if _n_angles(d):
        angles[:, 0] = rotation
    seq_weights = np.zeros(tree_size(depth))
    seq_weights[0] = 1.0  # alpha at the root only
    return log_eigs, angles, seq_weights


def _random_state(depth, d, cond_cap, rng):
    n_leaves = 1 << depth
    half = 0.5 * math.log(cond_cap)
    log_eigs = rng.uniform(-half, half, size=(n_leaves, d))
    angles = rng.uniform(0.0, math.pi, size=(n_leaves, _n_angles(d)))
    n_cubes = tree_size(depth)
    seq_weights = np.where(rng.uniform(size=n_cubes) < 0.4, rng.uniform(0.1, 1.0, n_cubes), 0.0)
    return log_eigs, angles, seq_weights


# Move kinds: a leaf log-eigenvalue, a leaf rotation angle, a sequence
# weight, and none (step 0 evaluates the start state as it is).
_LOG_EIG, _ANGLE, _SEQ, _START = 0, 1, 2, 3


def _draw_move(rng, n_leaves, d, n_cubes, scale=0.35):
    """One hill-climb move (kind, i, j, delta).  What it draws does not
    depend on the state, so every move can be drawn before any evaluation."""
    kind = rng.random()  # bitwise the draws of uniform() and normal(0.0, s), cheaper
    if kind < 0.45:
        i = int(rng.integers(n_leaves))
        j = int(rng.integers(d))
        return _LOG_EIG, i, j, 2.0 * scale * rng.standard_normal()
    if kind < 0.7 and _n_angles(d):
        i = int(rng.integers(n_leaves))
        j = int(rng.integers(_n_angles(d)))
        return _ANGLE, i, j, scale * rng.standard_normal()
    i = int(rng.integers(n_cubes))
    return _SEQ, i, 0, scale * rng.standard_normal()


def _draw_stream(depth, d, seed, cond_cap, n_restarts, steps):
    """Every restart's start state and moves, drawn in the order of one
    restart after the other: its start state, then its moves.

    Returns the start states (three arrays with a leading restart axis) and
    the moves (n_restarts, steps, 4), step 0 of each restart being no move.
    """
    rng = np.random.default_rng(seed)
    n_leaves, n_cubes = 1 << depth, tree_size(depth)
    starts, moves = [], []
    for restart in range(n_restarts):
        if restart == 0 and d >= 2:
            starts.append(_family_state(depth, d, cond_cap))
        else:
            starts.append(_random_state(depth, d, cond_cap, rng))
        moves.append((_START, 0, 0, 0.0))
        moves.extend(_draw_move(rng, n_leaves, d, n_cubes) for _ in range(steps - 1))
    moves = np.array(moves, dtype=float).reshape(n_restarts, steps, 4)
    return tuple(np.stack(a) for a in zip(*starts)), moves


def _apply_moves(packed, moves, n_leaves, d):
    """Apply each move to the state in its row of the packed rows ``packed``
    (the same row of ``moves``), in place: a move changes one entry."""
    kind, i, j = moves[:, :3].astype(np.intp).T
    na = _n_angles(d)  # by kind: the part's first column, and i's stride (a sequence move's j is 0)
    starts, strides = np.array([[0, n_leaves * d, n_leaves * (d + na), 0], [d, na, 1, 0]])
    member = np.flatnonzero(kind != _START)
    col = (starts[kind] + i * strides[kind] + j)[member]
    moved = packed[member, col] + moves[member, 3]
    packed[member, col] = np.where((kind[member] != _SEQ) | (moved > 0.0), moved, 0.0)


@cache
def _paths(depth):
    """Boolean rows over the cubes: leaf l's path to the root (l < 2^depth), none, all."""
    leaves = np.arange(1 << depth)[:, None]
    paths = np.zeros(((1 << depth) + 2, tree_size(depth)), dtype=bool)
    paths[leaves, tree_ancestor(len(leaves) - 1 + leaves, np.arange(depth + 1))] = True
    paths[-1] = True
    paths.flags.writeable = False  # one table per depth, shared by every call
    return paths


def _stale_cubes(moves, fresh, depth):
    """The cubes (len(moves), cubes) whose averages a batch of moves changes: a leaf move's
    leaf and ancestors, none for a sequence move, all for a ``fresh`` member (nothing carried)."""
    kind, leaf, n_leaves = moves[:, 0], moves[:, 1].astype(np.intp), 1 << depth
    return _paths(depth)[np.where(fresh, n_leaves + 1, np.where(kind < _SEQ, leaf, n_leaves))]


def _adopt(buf, rows, candidates, members):
    """Make the candidates ``members`` the current states of their restarts
    ``rows[members]``: each restart's packed row takes its candidate's."""
    buf[rows[members]] = candidates[members]


def _climb(states, moves, steps, objective, cond_cap, lookahead):
    """Climb every restart (a member of ``states``) through ``steps``
    evaluations: step 0 evaluates its start state, step t its current state
    with ``moves[restart, t]`` applied, which becomes the current state if
    its value beats the current value.

    Each batched evaluation takes the next ``lookahead`` steps of every
    restart still climbing, all against its current state.  A restart keeps
    the evaluations up to and including its first accepted move and drops
    the rest, which were made against a state it has since left.  A
    member's value does not depend on the batch around it, so every kept
    value is the one the climb makes one step at a time.

    Each restart's state, leaves, eigendecompositions and powers are one
    packed row (``_packed``).  A candidate is a copy of its restart's row
    with its move written in; it computes again only the leaf and cubes the
    move changed (``_stale_cubes``), and ``_adopt`` copies it back.

    A batch that raises is cut at its first member that fails alone
    (``errors.first_failure``), and the members before it count as usual.
    If that member's restart accepted an earlier candidate of the batch,
    the member is a dropped move and its error is ignored: the next batch
    evaluates that step against the new state.  Otherwise the error stops
    the restart and the ones after it, and the first error in (restart,
    step) order is raised once the others are done.

    ``matrices.TALLY`` counts the batched evaluations, a failing batch's
    evaluations of one included (search_batches), the candidates in them
    (search_candidates) and the accepted moves (search_accepted).

    Returns the values and, for bet_norm_ratio, the values over sqrt(C2)
    (else None), both (restart, step), and each restart's weight at its
    first best value.
    """
    n, n_leaves, d = states[0].shape
    depth = n_leaves.bit_length() - 1
    buf, shapes = _packed(states, objective)[0], _layout(depth, d, objective)
    values = np.empty((n, steps))
    ratios = np.empty((n, steps)) if objective == "bet_norm_ratio" else None
    best = np.full(n, -np.inf)
    best_weights = np.empty((n, n_leaves, d, d))
    current = np.empty(n)
    done = np.zeros(n, dtype=np.intp)  # evaluations kept, per restart
    live, error = n, None  # restarts before ``live`` have not failed
    while True:
        climbing = np.flatnonzero(done[:live] < steps)
        if not climbing.size:
            break
        count = np.minimum(steps - done[climbing], lookahead)
        rows = np.repeat(climbing, count)
        offset = np.arange(len(rows)) - np.repeat(np.cumsum(count) - count, count)
        step = done[rows] + offset
        candidates = buf[rows]
        _apply_moves(candidates, moves[rows, step], n_leaves, d)
        views = _views(candidates, shapes)
        stale = _stale_cubes(moves[rows, step], done[rows] == 0, depth)

        def evaluate(sl):
            part = {name: view[sl] for name, view in views.items()}
            matrices.TALLY["search_batches"] += 1
            matrices.TALLY["search_candidates"] += len(part["w"])
            return _search_objective(*(part[name] for name in _STATE), objective, cond_cap,
                                     part, stale[sl])

        results, b, failure = first_failure(evaluate, len(rows))
        if results is None:  # the first member fails, a kept evaluation
            error, live = failure, rows[0]
            continue
        failing = rows[b] if failure is not None else None
        rows, offset, step = rows[:b], offset[:b], step[:b]
        value, weight, ratio = results
        first = step == 0
        current[rows[first]] = value[first]  # a start state is kept whatever its value
        accept = ~first & (value > current[rows])
        stop = np.full(n, lookahead)  # each restart's first accepted offset
        np.minimum.at(stop, rows[accept], offset[accept])
        kept = np.flatnonzero(offset <= stop[rows])
        values[rows[kept], step[kept]] = value[kept]
        if ratios is not None:
            ratios[rows[kept], step[kept]] = ratio[kept]
        for m in kept.tolist():  # in (restart, step) order
            if value[m] > best[rows[m]]:
                best[rows[m]] = value[m]
                best_weights[rows[m]] = weight[m]
        moved = accept & (offset == stop[rows])
        matrices.TALLY["search_accepted"] += int(np.count_nonzero(moved))
        current[rows[moved]] = value[moved]
        # a restart adopts its accepted candidate or, in its first batch, its start state
        adopted = moved | (first & (stop[rows] == lookahead))
        _adopt(buf, rows, candidates, np.flatnonzero(adopted))
        done += np.bincount(rows[kept], minlength=n)
        if failing is not None and stop[failing] == lookahead:  # not a dropped move
            error, live = failure, failing  # it and the restarts after it stop here
    if error is not None:
        raise error
    return values, ratios, best_weights


def adversarial_search(depth=3, d=2, seed=0, objective="bet_norm_ratio",
                       budget=10000, cond_cap=1e4, n_restarts=4):
    """Coordinate hill climb with random restarts over weights and sequences.

    The first restart starts at the counterexample family member sitting at
    the conditioning cap (a feasible point, and for the norm-form objective
    the known optimum), the rest are random.  ``budget`` counts objective
    evaluations, ``budget // n_restarts`` per restart; best-so-far is
    monotone across the whole run.

    A move draws the same numbers whatever the state, so the whole random
    stream is drawn first (``_draw_stream``), and the restarts climb
    together, several steps per batched evaluation (``_climb``).  The
    history, the best value and weight and the sanity maximum are replayed
    afterwards in (restart, step) order, so the result is bitwise that of
    running the restarts one after the other, one step at a time.  If an
    evaluation raises, the error raised is that of the first failing
    evaluation in that order.
    """
    if budget < 1:
        raise ConfigError(f"budget must be >= 1, got {budget}")
    if objective not in OBJECTIVES:
        raise ConfigError(f"unknown objective {objective!r}")
    n_restarts = max(1, min(n_restarts, budget))
    steps = budget // n_restarts  # evaluations per restart
    states, moves = _draw_stream(depth, d, seed, cond_cap, n_restarts, steps)
    values, ratios, best_weights = _climb(states, moves, steps, objective, cond_cap,
                                         LOOKAHEAD[objective])

    checkpoint = max(1, budget // 25)
    best_value, best_at = -np.inf, None
    history = []
    for evals, value in enumerate(values.ravel().tolist(), 1):
        if value > best_value:
            best_value, best_at = value, evals
        if evals % checkpoint == 0 or evals == 1:
            history.append({"evaluations": evals, "best_objective": best_value,
                            "restart": (evals - 1) // steps, "seed": seed})
    sanity_max = 0.0
    if ratios is not None:
        for ratio in ratios.ravel().tolist():
            sanity_max = max(sanity_max, ratio)

    best_restart = (best_at - 1) // steps
    best_weight = StepField(best_weights[best_restart])
    best_c2 = c2_conditioning(best_weight)
    best_a2 = a2_characteristic(best_weight)
    return {
        "objective": objective,
        "best_value": best_value,
        "best_c2": best_c2,
        "best_a2": best_a2,
        "best_over_sqrt_c2": best_value / math.sqrt(best_c2),
        "sanity_max_over_sqrt_c2": sanity_max,
        "evaluations": n_restarts * steps,
        "history": history,
        "best_weight": best_weight,
        "best_restart": best_restart,
        "best_evaluation": best_at,
    }
