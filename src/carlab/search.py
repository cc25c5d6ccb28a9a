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
from .dyadic import DyadicIndex, StepField, pyramid_batch
from .embeddings import bet_norm_sum_batch, halfweighted_pyramid_batch, l2_norm_batch
from .errors import ConfigError
from .redundancy import check_intensity_batch, red_constants_batch, sred_constant_batch

OBJECTIVES = ("bet_norm_ratio", "sred_ratio", "red_ratio")

# Steps each restart evaluates per batched evaluation, all against its
# current state.  A module constant: it changes the scheduling, not a result.
LOOKAHEAD = 4


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


def _tree_levels(flat):
    """Split (B, cubes) arrays in tree order into their levels (B, 2^k)."""
    return [flat[:, (1 << k) - 1:(2 << k) - 1] for k in range(flat.shape[1].bit_length())]


def _state_sequences(seq_weights):
    """Dense levels of the sequences of a batch of states, each rescaled to
    Carleson intensity 1; an all-zero state puts its weight on the root."""
    weights = np.where(seq_weights > 0.0, seq_weights, 0.0)
    weights[~weights.any(axis=1), 0] = 1.0
    intensity = cube_supremum_batch(subtree_sums_batch(_tree_levels(weights)))
    return _tree_levels(weights * (1.0 / intensity)[:, None])


def _extreme_vector_fields(w, power):
    """f, g derived from the root averages' extreme eigenvectors.

    b (bottom direction) feeds f = W^1/2 b leafwise and a (top direction)
    feeds g = W^-1/2 a, which reproduces the counterexample family exactly
    when the weight is one of its members.  Batched: ``w`` is
    (B, 2^depth, d, d) and ``power(p)`` its leafwise power.  Returns
    (W^1/2, W^-1/2, f, g).
    """
    _, vecs = matrices.eigh_sym(pyramid_batch(w)[0][:, 0])
    wh, whinv = power(0.5), power(-0.5)
    f = np.einsum("bkij,bj->bki", wh, vecs[:, :, 0])
    g = np.einsum("bkij,bj->bki", whinv, vecs[:, :, -1])
    return wh, whinv, f, g


def _search_objective(log_eigs, angles, seq_weights, objective, cond_cap):
    """Objective values of a batch of states, with their leaf weights and,
    for bet_norm_ratio, the values over sqrt(C2) of each weight (else None).

    The steps and checks are those of one evaluation through the public
    kernels, in the same order, so a batch of one raises what that
    evaluation raises.  The sequences are checked on their dense levels.
    """
    w = _state_weights(log_eigs, angles, cond_cap)
    n_leaves, d = w.shape[1], w.shape[-1]
    depth = n_leaves.bit_length() - 1
    power = partial(matrices.eig_power, *matrices.eigh_sym(w),
                    context=lambda i: DyadicIndex(depth, i % n_leaves))

    if objective == "bet_norm_ratio":
        wh, whinv, f, g = _extreme_vector_fields(w, power)
        norms = l2_norm_batch(f) * l2_norm_batch(g)
        c2 = c2_conditioning_batch(w)
    alpha = _state_sequences(seq_weights)
    check_sequence_batch(alpha)
    if objective == "red_ratio":
        alpha = [a[..., None, None] * np.eye(d) for a in alpha]  # alpha_Q times I
        check_sequence_batch(alpha)
    if objective != "bet_norm_ratio":
        check_intensity_batch(alpha)
    wavg, vavg = pyramid_batch(w), pyramid_batch(power(-1.0))
    if objective == "red_ratio":
        c1, c2, c3 = red_constants_batch(wavg, vavg, alpha)
        value = np.where(c2 > c1, c2, c1)  # max(c1, c2, c3): the first maximum
        return np.where(c3 > value, c3, value), w, None
    if objective == "sred_ratio":
        return sred_constant_batch(wavg, vavg, alpha), w, None
    flat = np.concatenate(alpha, axis=1)
    support = np.flatnonzero(flat)
    sums = bet_norm_sum_batch(
        wavg, vavg, halfweighted_pyramid_batch(wh, f), halfweighted_pyramid_batch(whinv, g),
        support, flat.ravel()[support], np.count_nonzero(flat, axis=1),
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
    seq_weights = np.zeros(sum(1 << k for k in range(depth + 1)))
    seq_weights[0] = 1.0  # alpha at the root only
    return log_eigs, angles, seq_weights


def _random_state(depth, d, cond_cap, rng):
    n_leaves = 1 << depth
    half = 0.5 * math.log(cond_cap)
    log_eigs = rng.uniform(-half, half, size=(n_leaves, d))
    angles = rng.uniform(0.0, math.pi, size=(n_leaves, _n_angles(d)))
    n_cubes = sum(1 << k for k in range(depth + 1))
    seq_weights = np.where(rng.uniform(size=n_cubes) < 0.4, rng.uniform(0.1, 1.0, n_cubes), 0.0)
    return log_eigs, angles, seq_weights


# Move kinds: a leaf log-eigenvalue, a leaf rotation angle, a sequence
# weight, and none (step 0 evaluates the start state as it is).
_LOG_EIG, _ANGLE, _SEQ, _START = 0, 1, 2, 3


def _draw_move(rng, n_leaves, d, n_cubes, scale=0.35):
    """One hill-climb move (kind, i, j, delta).  What it draws does not
    depend on the state, so every move can be drawn before any evaluation."""
    kind = rng.uniform()
    if kind < 0.45:
        i = int(rng.integers(n_leaves))
        j = int(rng.integers(d))
        return _LOG_EIG, i, j, rng.normal(0.0, 2.0 * scale)
    if kind < 0.7 and _n_angles(d):
        i = int(rng.integers(n_leaves))
        j = int(rng.integers(_n_angles(d)))
        return _ANGLE, i, j, rng.normal(0.0, scale)
    i = int(rng.integers(n_cubes))
    return _SEQ, i, 0, rng.normal(0.0, scale)




def _draw_stream(depth, d, seed, cond_cap, n_restarts, steps):
    """Every restart's start state and moves, drawn in the order of one
    restart after the other: its start state, then its moves.

    Returns the start states (three arrays with a leading restart axis) and
    the moves (n_restarts, steps, 4), step 0 of each restart being no move.
    """
    rng = np.random.default_rng(seed)
    n_leaves, n_cubes = 1 << depth, (2 << depth) - 1
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


def _evaluate_in_order(states, objective, cond_cap):
    """``_search_objective`` of a batch or, if that raises, of the members
    before the first one that raises on its own.

    Returns those members' results (None if there are none) and the first
    failing member's error (None if the batch passed).
    """
    try:
        return _search_objective(*states, objective, cond_cap), None
    except Exception as exc:
        error = exc
    for b in range(len(states[0])):
        try:
            _search_objective(*(a[b:b + 1] for a in states), objective, cond_cap)
        except Exception as exc:
            head = tuple(a[:b] for a in states)
            return (_search_objective(*head, objective, cond_cap) if b else None), exc
    raise error


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

    With lookahead 1 all restarts advance one step per batch, and an error
    stops the failing restart and the ones after it; the first error in
    (restart, step) order is raised once the others are done.  With a
    longer lookahead an error may come from a dropped move, which the
    step-by-step climb never evaluates, so the climb starts over with
    lookahead 1.

    Returns the values and, for bet_norm_ratio, the values over sqrt(C2)
    (else None), both (restart, step), and each restart's weight at its
    first best value.
    """
    n, n_leaves, d = states[0].shape
    start, states = states, tuple(a.copy() for a in states)
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
        if lookahead > 1:
            try:
                results = _search_objective(*candidates, objective, cond_cap)
            except Exception:
                return _climb(start, moves, steps, objective, cond_cap, 1)
        else:
            results, failed = _evaluate_in_order(candidates, objective, cond_cap)
            if failed is not None:
                error = failed  # the failing restart and the ones after it stop here
                if results is None:
                    break
                live = len(results[0])
                rows, offset, step = rows[:live], offset[:live], step[:live]
                candidates = tuple(a[:live] for a in candidates)
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
        moved = np.flatnonzero(accept & (offset == stop[rows]))
        for state, candidate in zip(states, candidates):
            state[rows[moved]] = candidate[moved]
        current[rows[moved]] = value[moved]
        done += np.bincount(rows[kept], minlength=n)
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
    values, ratios, best_weights = _climb(states, moves, steps, objective, cond_cap, LOOKAHEAD)

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
