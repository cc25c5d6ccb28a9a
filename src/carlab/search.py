"""Adversarial search: a hill climb with random restarts over weights and
sequences, for the objectives whose sharpness the laboratory checks.

``adversarial_search`` is a pure function of its arguments: the whole random
stream is drawn from ``seed`` before the first evaluation.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from . import matrices
from .characteristics import (
    a2_characteristic,
    c2_conditioning,
    c2_conditioning_batch,
    check_sequence_batch,
    cube_supremum_batch,
    subtree_sums_batch,
)
from .dyadic import StepField, level_slice, pyramid_batch, tree_ancestor, tree_cube, tree_size
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
    center = log_eigs.mean(axis=-1, keepdims=True)
    return center + np.clip(log_eigs - center, -half, half)


def _state_weights(log_eigs, angles, cond_cap):
    """Leaf weights Q diag(exp(log_eigs)) Q^T of a batch of states.

    Q is the product of one Givens rotation per coordinate plane; the
    leaves (B, 2^depth, d, d) are symmetrized as ``StepField`` does.
    """
    logs = _clip_spread(log_eigs, cond_cap)
    shape, d = logs.shape[:-1], logs.shape[-1]
    eye = np.broadcast_to(np.eye(d), (*shape, d, d))
    q = eye
    planes = [(i, j) for i in range(d - 1) for j in range(i + 1, d)]
    for (i, j), plane in zip(planes, np.moveaxis(angles, -1, 0)):
        flat = plane.ravel().tolist()
        c = np.reshape([math.cos(a) for a in flat], shape)
        s = np.reshape([math.sin(a) for a in flat], shape)
        g = eye.copy()
        g[..., i, i] = c
        g[..., j, j] = c
        g[..., i, j] = -s
        g[..., j, i] = s
        q = q @ g
    w = (q * np.exp(logs)[..., None, :]) @ q.swapaxes(-1, -2)
    return (w + w.swapaxes(-1, -2)) / 2


def _state_sequences(seq_weights):
    """The sequences of a batch of states, dense (B, cubes) in tree order,
    each rescaled to Carleson intensity 1; an all-zero state puts its
    weight on the root."""
    weights = np.where(seq_weights > 0.0, seq_weights, 0.0)
    weights[~weights.any(axis=1), 0] = 1.0
    intensity = cube_supremum_batch(subtree_sums_batch(weights))
    return weights * (1.0 / intensity)[:, None]


def _empty_carry(n, depth, d, objective):
    """Room for what ``n`` states derive from their weights, by name, each
    with a leading state axis: the leaves of W and W^-1; (vals, vecs) of
    every cube average of W and of W^-1; and the powers the objective's
    kernels take: for bet_norm_ratio the leaves' W^1/2 and W^-1/2 and the
    leaf eigenvalues of C2, for the redundancy ratios R = <W>^-1/2 of every
    cube and P = <W^-1>^-1/2 (red_ratio) or <W^-1>^-1 (sred_ratio)."""
    leaf, cube = (1 << depth, d, d), (tree_size(depth), d, d)
    shapes = dict(w=leaf, winv=leaf, wvals=cube[:2], wvecs=cube, vvals=cube[:2], vvecs=cube)
    if objective == "bet_norm_ratio":
        shapes.update(wh=leaf, whinv=leaf, leaf_vals=leaf[:2])
    else:
        shapes.update({"r": cube, "p" if objective == "red_ratio" else "vinv": cube})
    return {name: np.empty((n, *shape)) for name, shape in shapes.items()}


def _refresh(solve, inputs, out, stale):
    """The arrays ``out`` (B, m, ...), with the members at ``stale`` (B, m)
    recomputed in place by one call of ``solve`` on the same members of the
    arrays ``inputs``, which returns one array per array of ``out``."""
    if stale.any():
        for old, new in zip(out, solve(*(a[stale] for a in inputs))):
            old[stale] = new
    return out


def _refresh_power(out, p, eig, stale, first=0):
    """``out`` (B, m, d, d), with its members at ``stale`` (B, m) set in
    place to W^p from the same members of ``eig``; a refusal names the first
    failing member's cube, member j being the cube ``first + j`` in tree
    order."""
    def context(i):
        return tree_cube(first + int(np.flatnonzero(stale)[i]) % stale.shape[1])
    return _refresh(lambda *e: (matrices.eig_power(*e, p, context=context),), eig, (out,), stale)[0]


def _search_objective(log_eigs, angles, seq_weights, objective, cond_cap, carry=None, stale=None):
    """Objective values of a batch of states, with their leaf weights and,
    for bet_norm_ratio, the values over sqrt(C2) of each weight (else None).

    ``carry`` holds what each state derives from its weights
    (``_empty_carry``), of which only the leaves and cubes marked in
    ``stale`` (B, cubes) are computed again, in place; without ``carry``
    every one is.  The steps and checks are those of one evaluation through
    the public kernels, in the same order, so a batch of one raises what
    that evaluation raises: the members not marked stale have passed them
    before.  The sequences are checked as dense arrays in tree order, once,
    as scalars: red_ratio's matrix sequence alpha_Q I is finite, symmetric
    and PSD whenever alpha is finite and non-negative, and has the same
    Carleson intensity, so the checks ``red_constants`` makes of it are
    implied by those of alpha.
    """
    n_leaves, d = log_eigs.shape[1:]
    depth = n_leaves.bit_length() - 1
    if carry is None:
        carry = _empty_carry(len(log_eigs), depth, d, objective)
        stale = np.ones((len(log_eigs), tree_size(depth)), dtype=bool)
    c, leaf_level = carry, level_slice(depth)
    leaves = stale[:, leaf_level]
    w = _refresh(lambda *state: (_state_weights(*state, cond_cap),), (log_eigs, angles),
                 (c["w"],), leaves)[0]
    weig = _refresh(matrices.eigh_sym, (pyramid_batch(w),), (c["wvals"], c["wvecs"]), stale)
    leaf_power = partial(_refresh_power, eig=tuple(a[:, leaf_level] for a in weig),
                         stale=leaves, first=leaf_level.start)

    if objective == "bet_norm_ratio":
        # f = W^1/2 b and g = W^-1/2 a leafwise, from the bottom and top
        # eigenvectors b, a of the root average: this reproduces the
        # counterexample family exactly when the weight is one of its members
        root_vecs, wh, whinv = weig[1][:, 0], leaf_power(c["wh"], 0.5), leaf_power(c["whinv"], -0.5)
        f = np.einsum("bkij,bj->bki", wh, root_vecs[:, :, 0])
        g = np.einsum("bkij,bj->bki", whinv, root_vecs[:, :, -1])
        norms = l2_norm_batch(f) * l2_norm_batch(g)
        leaf_vals = _refresh(lambda m: (matrices.eigvalsh_stack(m),), (w,), (c["leaf_vals"],),
                             leaves)
        c2 = c2_conditioning_batch(leaf_vals[0])
    alpha = _state_sequences(seq_weights)
    check_sequence_batch(alpha)
    if objective != "bet_norm_ratio":
        check_intensity_batch(alpha)
    vavg = pyramid_batch(leaf_power(c["winv"], -1.0))
    veig = _refresh(matrices.eigh_sym, (vavg,), (c["vvals"], c["vvecs"]), stale)
    if objective == "red_ratio":
        r = _refresh_power(c["r"], -0.5, weig, stale)
        p = _refresh_power(c["p"], -0.5, veig, stale)
        c1, c2, c3 = red_constants_batch(r, p, alpha[..., None, None] * np.eye(d))  # alpha_Q I
        value = np.where(c2 > c1, c2, c1)  # max(c1, c2, c3): the first maximum
        return np.where(c3 > value, c3, value), w, None
    if objective == "sred_ratio":
        vinv = _refresh_power(c["vinv"], -1.0, veig, stale)
        r = _refresh_power(c["r"], -0.5, weig, stale)
        return sred_constant_batch(r, vinv, alpha), w, None
    support = np.flatnonzero(alpha)
    on_support = [tuple(a.reshape(-1, *a.shape[2:])[support] for a in eig) for eig in (weig, veig)]
    sums = bet_norm_sum_batch(
        *on_support, halfweighted_pyramid_batch(wh, f), halfweighted_pyramid_batch(whinv, g),
        support, alpha.ravel()[support], np.count_nonzero(alpha, axis=1),
    )
    value = sums / norms
    return value, w, value / np.sqrt(c2)


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


def _apply_moves(states, rows, moves):
    """The states of the restarts ``rows``, each with its move (the same
    row of ``moves``) applied."""
    log_eigs, angles, seq_weights = (a[rows] for a in states)
    kind, i, j = moves[:, :3].astype(np.intp).T
    delta = moves[:, 3]
    member = np.arange(len(moves))
    sel = kind == _LOG_EIG
    log_eigs[member[sel], i[sel], j[sel]] += delta[sel]
    sel = kind == _ANGLE
    angles[member[sel], i[sel], j[sel]] += delta[sel]
    sel = kind == _SEQ
    moved = seq_weights[member[sel], i[sel]] + delta[sel]
    seq_weights[member[sel], i[sel]] = np.where(moved > 0.0, moved, 0.0)
    return log_eigs, angles, seq_weights


def _stale_cubes(moves, fresh, depth):
    """The cubes (len(moves), cubes) whose averages a batch of moves changes.

    A leaf move changes its leaf and the leaf's ancestors, a sequence move
    no cube; every cube of a ``fresh`` member, whose restart has no
    eigendecompositions yet, counts as changed.
    """
    stale = np.zeros((len(moves), tree_size(depth)), dtype=bool)
    stale[fresh] = True
    kind, leaf = moves[:, 0], moves[:, 1].astype(np.intp)
    m = np.flatnonzero((kind == _LOG_EIG) | (kind == _ANGLE))
    leaves = level_slice(depth).start + leaf[m, None]
    stale[m[:, None], tree_ancestor(leaves, np.arange(depth + 1))] = True
    return stale


def _adopt(carried, rows, candidates, members):
    """Make the candidates ``members`` the current states of their restarts
    ``rows[members]``: each array of ``carried`` (state, then what
    ``_empty_carry`` names, in its order) takes the candidates' rows."""
    for mine, theirs in zip(carried, candidates):
        mine[rows[members]] = theirs[members]


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

    Each restart carries what its current state derives from its weights
    (``_empty_carry``): leaves, eigendecompositions and powers.  A
    candidate starts from a copy and computes again only the leaf and the
    cubes its move changed (``_stale_cubes``); the accepted candidate's
    set becomes the restart's.

    A batch that raises is cut at its first member that fails alone
    (``errors.first_failure``), and the members before it count as usual.
    If that member's restart accepted an earlier candidate of the batch,
    the member is a dropped move and its error is ignored: the next batch
    evaluates that step against the new state.  Otherwise the error stops
    the restart and the ones after it, and the first error in (restart,
    step) order is raised once the others are done.

    Returns the values and, for bet_norm_ratio, the values over sqrt(C2)
    (else None), both (restart, step), and each restart's weight at its
    first best value.
    """
    n, n_leaves, d = states[0].shape
    depth = n_leaves.bit_length() - 1
    states = tuple(a.copy() for a in states)
    carried = _empty_carry(n, depth, d, objective)
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
        candidates = _apply_moves(states, rows, moves[rows, step])
        cand_carried = {name: a[rows] for name, a in carried.items()}
        stale = _stale_cubes(moves[rows, step], done[rows] == 0, depth)

        def evaluate(sl):
            return _search_objective(*(a[sl] for a in candidates), objective, cond_cap,
                                     {name: a[sl] for name, a in cand_carried.items()},
                                     stale[sl])

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
        current[rows[moved]] = value[moved]
        # a restart adopts its accepted candidate or, in its first batch, its start state
        adopted = moved | (first & (stop[rows] == lookahead))
        _adopt(states + tuple(carried.values()), rows,
               candidates + tuple(cand_carried.values()), np.flatnonzero(adopted))
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
