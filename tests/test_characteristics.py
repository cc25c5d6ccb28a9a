import json

import numpy as np
import pytest

from carlab import characteristics, matrices
from carlab.characteristics import (
    MatrixSequence,
    ScalarSequence,
    a2_characteristic,
    c2_conditioning,
    carleson_equivalents,
    carleson_intensity,
    carleson_intensity_batch,
    cube_supremum_batch,
    subtree_forms,
    wcet_testing_constant,
)
from carlab.constructions import (
    epsilon_family, necessity_probe, necessity_report, random_instance, random_matrix_sequence,
    random_scalar_sequence,
)
from carlab.dyadic import (
    DyadicIndex,
    ROOT,
    StepField,
    cubes,
    stepfield_from_json,
    stepfield_to_json,
    tree_position,
)
from carlab.errors import AddressError, DimensionMismatchError, SingularMatrixError

from oracles import (
    brute_matrix_intensity,
    brute_matrix_sequence_entries,
    brute_scalar_a2,
    brute_scalar_intensity,
    brute_spd_power,
    brute_wcet_testing_constant,
    computed_intensity,
    level_powers,
    loop_cube_supremum,
    loop_pyramid,
    loop_subtree_forms,
    loop_subtree_sums,
    loop_testing_terms,
    per_class_from_json,
    refine,
    per_class_to_json,
    split_levels,
    two_check_scaled,
)


def test_sequence_validation():
    with pytest.raises(DimensionMismatchError):
        ScalarSequence(2, {ROOT: -0.5})
    with pytest.raises(SingularMatrixError):
        MatrixSequence(2, 2, {ROOT: np.diag([1.0, -1.0])})
    # zero entries are dropped (sparse default-zero storage)
    assert len(ScalarSequence(2, {ROOT: 0.0})) == 0
    # one eigenvalue pass over all entries still names the first bad one
    entries = [
        ((1, 0), np.eye(2)),
        ((2, 3), np.diag([1.0, -0.5])),
        ((1, 1), np.diag([-2.0, 1.0])),
    ]
    with pytest.raises(SingularMatrixError, match="level=2, position=3") as err:
        MatrixSequence(2, 2, entries)
    assert err.value.lambda_min == -0.5


def test_matrix_sequence_matches_per_entry_oracle():
    # one stacked check keeps bitwise the entries the per-entry checks kept,
    # zero entries dropped, in entry order
    rng = np.random.default_rng(3)
    for d in (1, 2, 3, 4):
        order = list(cubes(4))
        rng.shuffle(order)
        entries = []
        for q in order[:12]:
            v = rng.standard_normal((d, 2))
            m = v @ v.T if rng.uniform() < 0.8 else np.zeros((d, d))
            entries.append((tuple(q), m))
        seq = MatrixSequence(4, d, entries)
        want = brute_matrix_sequence_entries(4, d, entries)
        assert list(seq.entries) == list(want)
        assert all(np.array_equal(seq.entries[q], want[q]) for q in want)
        scaled = seq.scaled(0.3)
        want = brute_matrix_sequence_entries(4, d, {q: m * 0.3 for q, m in want.items()})
        assert all(np.array_equal(scaled.entries[q], want[q]) for q in want)


@pytest.mark.parametrize("entries, error, match", [
    # shape first, then finiteness, then symmetry, then PSD; with two bad
    # entries, the later check's entry comes first in entry order
    ({(1, 0): np.diag([1.0, -1.0]), (2, 1): np.eye(3)},
     DimensionMismatchError, r"level=2, position=1\) has shape"),
    ({(1, 0): np.array([[1.0, 0.5], [0.0, 1.0]]), (2, 1): np.diag([np.nan, 1.0])},
     DimensionMismatchError, r"non-finite sequence entry at .*level=2, position=1"),
    ({(1, 0): np.diag([1.0, -1.0]), (2, 1): np.array([[1.0, 0.5], [0.0, 1.0]])},
     DimensionMismatchError, r"level=2, position=1\): matrix is not symmetric"),
    ({(2, 3): np.diag([1.0, -0.5]), (1, 1): np.diag([-2.0, 1.0])},
     SingularMatrixError, r"level=2, position=3\) is not PSD"),
    ({(1, 0): np.eye(2), (3, 0): np.eye(2)}, AddressError, "level 3"),
])
def test_matrix_sequence_error_order(entries, error, match):
    with pytest.raises(error, match=match):
        MatrixSequence(2, 2, entries)


def test_huge_finite_entries_symmetrize_without_overflow():
    # (M + M^T) / 2 overflowed above half the largest float: the entry
    # 1e308 I was kept as inf I with only a numpy warning, and the intensity
    # read -inf; halves first keep it finite, in a sequence and in a field
    seq = MatrixSequence(3, 2, {(0, 0): 1e308 * np.eye(2)})
    assert np.array_equal(seq.values, [1e308 * np.eye(2)])
    assert carleson_intensity(seq) == 1e308
    w = StepField(np.stack([1e308 * np.eye(2), np.eye(2)]))
    assert np.array_equal(w.values[0], 1e308 * np.eye(2)) and np.isfinite(w.pyramid()).all()


def test_scalar_sequence_error_order():
    with pytest.raises(DimensionMismatchError, match=r"non-finite .*level=2, position=1"):
        ScalarSequence(2, {(1, 0): -1.0, (2, 1): np.nan})
    with pytest.raises(DimensionMismatchError, match=r"negative .*level=1, position=0"):
        ScalarSequence(2, {(1, 0): -1.0, (2, 1): -2.0, (2, 2): 1.0})


@pytest.mark.parametrize("cls, entries, error", [
    # valid, with a zero entry dropped
    (MatrixSequence, {(2, 3): np.eye(2), (0, 0): np.zeros((2, 2)), (1, 0): np.diag([0.5, 0.0])},
     None),
    (ScalarSequence, {(2, 3): 0.5, (0, 0): 0.0, (1, 0): 2.0}, None),
    # non-finite, asymmetric, not PSD; non-finite, negative: the first
    # offending entry after the earlier checks
    (MatrixSequence, {(1, 0): np.array([[1.0, 0.5], [0.0, 1.0]]), (2, 1): np.diag([np.nan, 1.0])},
     DimensionMismatchError),
    (MatrixSequence, {(1, 0): np.diag([1.0, -1.0]), (2, 1): np.array([[1.0, 0.5], [0.0, 1.0]])},
     DimensionMismatchError),
    (MatrixSequence, {(2, 3): np.diag([1.0, -0.5]), (1, 1): np.diag([-2.0, 1.0])},
     SingularMatrixError),
    (ScalarSequence, {(1, 0): -1.0, (2, 1): np.nan}, DimensionMismatchError),
    (ScalarSequence, {(1, 0): -1.0, (2, 1): -2.0, (2, 2): 1.0}, DimensionMismatchError),
])
def test_from_arrays_matches_the_cube_keyed_constructor(cls, entries, error):
    # the same check of the same stack, and an error naming the same cube
    def keyed():
        return cls(2, entries) if cls is ScalarSequence else cls(2, 2, entries)

    def from_arrays():
        positions = [tree_position(DyadicIndex(*q)) for q in entries]
        return cls.from_arrays(2, positions, np.array(list(entries.values()), dtype=float))

    if error is not None:
        with pytest.raises(error) as want:
            keyed()
        with pytest.raises(error) as got:
            from_arrays()
        assert str(got.value) == str(want.value)
        return
    got, want = from_arrays(), keyed()
    assert got._entries is None  # built on first read
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.positions, want.positions)
    assert list(got.entries) == list(want.entries) and len(got) == len(want) == 2
    assert all(np.array_equal(got.entries[q], want.entries[q]) for q in want.entries)


def test_scaled_checks_the_stack_again():
    # scaled() runs the stacked checks on the product: a non-finite or a
    # negative factor is refused, naming the first entry it spoils
    seq = MatrixSequence(2, 2, {(1, 1): np.eye(2), (2, 0): np.diag([0.5, 0.0])})
    with pytest.raises(DimensionMismatchError, match=r"non-finite .*level=1, position=1"):
        with np.errstate(invalid="ignore"):
            seq.scaled(np.inf)
    with pytest.raises(SingularMatrixError, match=r"level=1, position=1\) is not PSD"):
        seq.scaled(-1.0)
    alpha = ScalarSequence(2, {(1, 1): 1.0, (2, 0): 0.5})
    with pytest.raises(DimensionMismatchError, match="non-finite"):
        alpha.scaled(np.nan)
    assert alpha.scaled(0.0).entries == {} and len(seq.scaled(0.0)) == 0


def test_scaled_refuses_what_the_second_check_refused(monkeypatch):
    # a positive finite factor is checked against the kept lambda_min, with
    # no solver call when it passes; every factor keeps and refuses bitwise
    # what the whole check of the scaled stack does: an entry whose
    # lambda_min sits just above -PSD_TOL scaled by 2, c = 0, c = inf, a
    # negative or NaN c, and (on diagonal entries, whose lambda_min no
    # rounding moves) entries that overflow or underflow to zero
    rng = np.random.default_rng(31)
    edge = np.diag([1.0, -0.9e-12])
    diagonal = [MatrixSequence(3, 2, {(1, 0): np.eye(2), (2, 3): edge, (3, 5): edge}),
                MatrixSequence(2, 2, {(2, 1): 1e-300 * np.eye(2), (1, 0): 1e10 * np.eye(2)}),
                MatrixSequence(2, 2), ScalarSequence(2, {ROOT: 1e10, (1, 1): 1e-300})]
    passing = (2.0, 0.5, 1.0, 3.0)
    real, solved = matrices.eigvalsh_stack, []
    monkeypatch.setattr(matrices, "eigvalsh_stack", lambda m: solved.append(1) or real(m))
    for seq in diagonal + [random_matrix_sequence(4, 3, rng), random_scalar_sequence(4, rng)]:
        extreme = (1e-30, 1e300) if any(seq is s for s in diagonal) else ()
        for c in passing + (0.0, np.inf, -1.0, np.nan) + extreme:
            outcomes = []
            for scaled in (seq.scaled, lambda c: two_check_scaled(seq, c)):
                solved.clear()
                try:
                    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                        got = scaled(c)
                    outcomes.append((got.values.tobytes(), got.positions.tobytes(), len(got)))
                except (DimensionMismatchError, SingularMatrixError) as exc:
                    outcomes.append((type(exc), str(exc)))
                if scaled == seq.scaled and c in passing and len(outcomes[0]) == 3:
                    assert not solved, (seq, c)
            assert outcomes[0] == outcomes[1], (seq, c)
    with pytest.raises(SingularMatrixError, match=r"level=2, position=3\) is not PSD"):
        diagonal[0].scaled(2.0)


@pytest.mark.parametrize("d", range(1, 5))
def test_intensity_is_computed_and_carried(d):
    # carleson_intensity computes whatever a sequence carries, bitwise as
    # before sequences carried one, and leaves the computed value on the
    # sequence; a generated sequence, normalized by scaled(1 / I), carries
    # 1 / I times I, within 1e-12 of its computed intensity
    for depth in range(9):
        rng = np.random.default_rng(600 + 10 * d + depth)
        for seq in (random_matrix_sequence(depth, d, rng), random_scalar_sequence(depth, rng)):
            carried, want = seq.carried_intensity, computed_intensity(seq)
            assert abs(carried - want) <= 1e-12 * want
            assert carleson_intensity(seq).hex() == want.hex() == seq.carried_intensity.hex()
            assert seq.scaled(3.0).carried_intensity == 3.0 * want
    plain = MatrixSequence(2, d, {ROOT: np.eye(d)})
    assert plain.carried_intensity is None and plain.scaled(2.0).carried_intensity is None
    assert MatrixSequence.from_json(plain.to_json()).carried_intensity is None
    assert carleson_intensity(MatrixSequence(2, d)) == 0.0


def test_sequence_arrays_are_read_only():
    # a checked sequence cannot change after its check: writing -I into an
    # entry was accepted, and the intensity then read a non-PSD sequence
    seq = MatrixSequence.from_arrays(2, range(3), np.stack([np.eye(2)] * 3))
    alpha = ScalarSequence(2, {ROOT: 1.0, (1, 1): 0.5})
    for s in (seq, seq.scaled(0.5), seq.scaled(-0.0), alpha, alpha.scaled(2.0)):
        with pytest.raises(ValueError, match="read-only"):
            s.values[:1] = -s.values[:1]
        with pytest.raises(ValueError, match="read-only"):
            s.positions[:1] = 1
    assert carleson_intensity(seq) == 3.0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_intensity_over_touched_cubes_is_the_cube_loop(d):
    # lambda_max is taken only at cubes whose subtree holds support; the
    # intensity is bitwise the loop over every cube's subtree sum
    rng = np.random.default_rng(50 + d)
    for depth in range(6):
        leaf = DyadicIndex(depth, (1 << depth) - 1)
        seqs = [random_matrix_sequence(depth, d, rng), MatrixSequence(depth, d, {ROOT: np.eye(d)}),
                MatrixSequence(depth, d, {leaf: 0.5 * np.eye(d)}),
                random_scalar_sequence(depth, rng), ScalarSequence(depth, {ROOT: 0.25})]
        want = [loop_cube_supremum(loop_subtree_sums(split_levels(s.dense()))) for s in seqs]
        assert [carleson_intensity(s) for s in seqs] == want
        for batch in (seqs[:3], seqs[3:]):
            got = carleson_intensity_batch(np.stack([s.dense() for s in batch]))
            assert got.tolist() == [want[seqs.index(s)] for s in batch]


def test_sequence_json_roundtrip():
    inst = epsilon_family(0.1, 0.3, depth=2)
    w = stepfield_from_json(json.loads(json.dumps(stepfield_to_json(inst.w))))
    np.testing.assert_allclose(w.values, np.asarray(inst.w.values, float), rtol=1e-15)
    seq = MatrixSequence.from_json(json.loads(json.dumps(inst.seq_inner.to_json())))
    np.testing.assert_allclose(
        seq.entries[ROOT], np.asarray(inst.seq_inner.entries[ROOT], float), rtol=1e-15
    )
    alpha = ScalarSequence.from_json(json.loads(json.dumps(inst.alpha.to_json())))
    assert alpha.get(ROOT) == 1.0


def _json_sequences():
    inst = random_instance(3, 2, seed=4, cond_cap=1e3)
    rng = np.random.default_rng(4)
    shuffled = [list(inst.mseq.items())[i] for i in rng.permutation(len(inst.mseq))]
    ld = np.longdouble
    return [
        inst.sseq, inst.mseq, MatrixSequence(3, 2, shuffled), ScalarSequence(3),
        MatrixSequence(3, 2),
        ScalarSequence.from_arrays(3, inst.sseq.positions, inst.sseq.values.astype(ld) / 3),
        MatrixSequence.from_arrays(3, inst.mseq.positions, inst.mseq.values.astype(ld) / 3),
    ]


@pytest.mark.parametrize("i", range(7))
def test_sequence_json_is_the_per_class_json(i):
    # one to_json and one from_json serve both sequence classes; they write
    # the bytes, and read back the positions and values, of the per-class
    # code they replace
    seq = _json_sequences()[i]
    text = json.dumps(seq.to_json())
    # the per-class scalar to_json left longdouble values, which json.dumps refuses
    assert text == json.dumps(per_class_to_json(seq), default=float)
    back = type(seq).from_json(json.loads(text))
    order = np.argsort(seq.positions)
    for got in (back, per_class_from_json(type(seq), json.loads(text))):
        assert got.positions.tolist() == seq.positions[order].tolist()
        assert got.values.dtype == np.float64 and got.d == seq.d and got.depth == seq.depth
        assert np.array_equal(got.values, seq.values[order].astype(np.float64))
    zero = back.get(ROOT if not len(back) else (3, 7), None)
    assert np.shape(zero) == np.shape(seq.values)[1:] and not np.any(zero)


@pytest.mark.parametrize("key, bad", [("depth", 1.9), ("depth", True), ("depth", 1.0),
                                      ("d", 2.0), ("d", False), ("level", 0.9),
                                      ("position", 0.5), ("position", True)])
def test_json_refuses_non_integer_sizes_and_addresses(key, bad):
    # int() read depth 1.9 as 1, level 0.9 as 0 and True as 1: the entry of
    # a depth-1 sequence at cube (1, 1) moved to the root
    refused = pytest.raises(DimensionMismatchError, match=f"{key} must be an integer, got {bad}")
    for cls, obj in ((MatrixSequence, MatrixSequence(1, 2, {(1, 1): np.eye(2)}).to_json()),
                     (ScalarSequence, ScalarSequence(1, {(1, 1): 1.0}).to_json())):
        (obj if key in ("depth", "d") else obj["values"][0])[key] = bad
        with refused:
            cls.from_json(obj)
    if key in ("depth", "d"):
        field = dict(stepfield_to_json(StepField.constant(1, np.eye(2))), **{key: bad})
        with refused:
            stepfield_from_json(field)


@pytest.mark.parametrize("key, bad", [("depth", -1), ("depth", -3), ("d", 0), ("d", -2)])
def test_json_refuses_sizes_out_of_range(key, bad):
    # ScalarSequence.from_json({"depth": -1, "values": []}) loaded, and a
    # field of depth -1 was refused with "negative shift count"
    low = 0 if key == "depth" else 1
    message = f"{key} must be at least {low}, got {bad}"
    refused = pytest.raises(DimensionMismatchError, match=message)
    for cls, obj in ((MatrixSequence, MatrixSequence(1, 2, {(1, 1): np.eye(2)}).to_json()),
                     (ScalarSequence, {"depth": 1, "values": []})):
        with refused:
            cls.from_json(dict(obj, **{key: bad}))
    with refused:
        stepfield_from_json(dict(stepfield_to_json(StepField.constant(1, np.eye(2))), **{key: bad}))


def test_scalar_sequence_json_is_read_as_written():
    # this loaded as a depth-1 sequence with its entry at the root
    with pytest.raises(DimensionMismatchError, match="depth must be an integer, got 1.9"):
        ScalarSequence.from_json(
            {"depth": 1.9, "values": [{"level": 0.9, "position": 0.5, "value": 1.0}]}
        )
    # a scalar entry is one number, not a list of one
    entry = {"level": 0, "position": 0, "value": [1.0]}
    with pytest.raises(TypeError):
        ScalarSequence.from_json({"depth": 1, "values": [entry]})


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_tree_kernels_match_per_level_loops(d):
    # one solver call per tree must be bitwise one call per level
    for depth in range(7):
        inst = random_instance(depth, d, seed=10 * depth + d, cond_cap=1e4)
        wavg = loop_pyramid(inst.w.as_matrix().values)
        for p in matrices.ALLOWED_POWERS:
            got = split_levels(inst.w.cube_power(p))
            assert len(got) == depth + 1
            for k, lv in enumerate(wavg):
                assert np.array_equal(got[k], brute_spd_power(lv, p))
        acc = loop_subtree_sums(loop_testing_terms(wavg, inst.mseq))
        for levels in (wavg, acc):
            got = cube_supremum_batch(np.concatenate(levels)[None])[0]
            assert got == loop_cube_supremum(levels)


@pytest.mark.parametrize("d", [2, 3])
def test_level_powers_longdouble_matches_per_level_loop(d):
    for depth in range(5):
        w = random_instance(depth, d, seed=depth, cond_cap=1e4).w
        field = StepField(w.values.astype(np.longdouble))
        wavg = loop_pyramid(field.values)
        for p in (0.5, -0.5):
            got = split_levels(field.cube_power(p))
            for k, lv in enumerate(wavg):
                assert got[k].dtype == np.longdouble
                assert np.array_equal(got[k], brute_spd_power(lv, p))


@pytest.mark.parametrize(
    "dtype, cube", [(np.float64, DyadicIndex(1, 0)), (np.longdouble, DyadicIndex(1, 0))]
)
def test_singular_pyramid_names_cube(dtype, cube):
    # singular averages at two levels: (1, 0) and (1, 1), then the most
    # singular one of the tree at (2, 3), above their singular leaves; both
    # dtypes name the first in tree order, as the per-tree power of the
    # pyramid names it
    leaves = [np.diag([1e-13, 1.0])] * 4 + [np.diag([1.0, 2e-14])] * 2 + [np.diag([1.0, 0.0])] * 2
    w = StepField(np.stack(leaves).astype(dtype))
    for p in (-0.5, -1.0):
        with pytest.raises(SingularMatrixError) as err:
            w.cube_power(p)
        with pytest.raises(SingularMatrixError) as want:
            level_powers(loop_pyramid(w.values), p)
        assert err.value.cube == want.value.cube == cube
        assert str(err.value) == str(want.value)
        assert err.value.lambda_min == pytest.approx(1e-13, rel=1e-12)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_a2_names_first_singular_leaf(dtype):
    # leaves 1 and 3 are singular, 3 the more singular one
    leaves = np.stack([np.eye(2), np.diag([1.0, 1e-13]), np.eye(2), np.diag([1.0, 0.0])])
    with pytest.raises(SingularMatrixError) as err:
        a2_characteristic(StepField(leaves.astype(dtype)))
    assert err.value.cube == DyadicIndex(2, 1)
    assert err.value.lambda_min == pytest.approx(1e-13, rel=1e-12)


def test_intensity_identity_at_root():
    seq = MatrixSequence(3, 2, {ROOT: np.eye(2)})
    assert carleson_intensity(seq) == pytest.approx(1.0, abs=1e-14)


def test_intensity_empty():
    assert carleson_intensity(ScalarSequence(3)) == 0.0
    assert carleson_intensity(MatrixSequence(3, 2)) == 0.0


def test_intensity_measure_sequence_depth2():
    # alpha_Q = |Q| on the 7-cube tree: each K contributes one per level
    entries = {q: q.measure for q in cubes(2)}
    seq = ScalarSequence(2, entries)
    assert carleson_intensity(seq) == pytest.approx(3.0, abs=1e-14)
    assert brute_scalar_intensity(entries, 2) == pytest.approx(3.0, abs=1e-14)


def test_intensity_matches_brute_force():
    rng = np.random.default_rng(21)
    for depth in (2, 3, 4):
        entries = {}
        for q in cubes(depth):
            if rng.uniform() < 0.4:
                entries[q] = float(rng.uniform(0.0, 2.0))
        seq = ScalarSequence(depth, entries)
        assert carleson_intensity(seq) == pytest.approx(
            brute_scalar_intensity(entries, depth), rel=1e-12
        )
        mentries = {}
        for q in cubes(depth):
            if rng.uniform() < 0.4:
                v = rng.standard_normal(2)
                mentries[q] = np.outer(v, v)
        mseq = MatrixSequence(depth, 2, mentries)
        assert carleson_intensity(mseq) == pytest.approx(
            brute_matrix_intensity(mentries, depth, 2), rel=1e-12
        )


def test_scalar_embedding_matches_scalar_intensity():
    rng = np.random.default_rng(22)
    entries = {q: float(rng.uniform(0, 1)) for q in cubes(3) if rng.uniform() < 0.5}
    sseq = ScalarSequence(3, entries)
    mseq = MatrixSequence(3, 3, {q: v * np.eye(3) for q, v in entries.items()})
    assert carleson_intensity(mseq) == pytest.approx(carleson_intensity(sseq), rel=1e-14)


def test_carleson_equivalents_examples():
    assert carleson_equivalents(MatrixSequence(2, 2, {ROOT: np.eye(2)})) == (1.0, 2.0)
    proj = np.array([[1.0, 0.0], [0.0, 0.0]])
    op, tr = carleson_equivalents(MatrixSequence(2, 2, {ROOT: proj}))
    assert op == pytest.approx(1.0) and tr == pytest.approx(1.0)
    assert carleson_equivalents(MatrixSequence(2, 2)) == (0.0, 0.0)


def test_carleson_equivalents_chain():
    # matrix <= op <= trace <= d * matrix, with dimensional constants
    rng = np.random.default_rng(23)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        entries = {}
        for q in cubes(3):
            if rng.uniform() < 0.5:
                v = rng.standard_normal(d)
                entries[q] = np.outer(v, v)
        seq = MatrixSequence(3, d, entries)
        if not len(seq):
            continue
        mat = carleson_intensity(seq)
        op, tr = carleson_equivalents(seq)
        tol = 1e-10 * max(1.0, tr)
        assert mat <= op + tol
        assert op <= tr + tol
        assert tr <= d * mat + tol


def test_wcet_identity_weight_reduces_to_intensity():
    rng = np.random.default_rng(24)
    entries = {q: np.abs(rng.standard_normal()) * np.eye(2) for q in cubes(3) if rng.uniform() < 0.5}
    seq = MatrixSequence(3, 2, entries)
    w = StepField.constant(3, np.eye(2))
    assert wcet_testing_constant(w, seq) == pytest.approx(carleson_intensity(seq), rel=1e-10)


def test_wcet_constant_weight_family():
    inst = epsilon_family(0.1, 0.0, depth=3)
    # constant weight commutes: sandwich collapses to <W> with lambda_max 1
    assert wcet_testing_constant(inst.w, inst.seq_norm) == pytest.approx(1.0, abs=1e-12)


def test_wcet_zero_sequence():
    w = StepField.constant(2, np.eye(2))
    assert wcet_testing_constant(w, MatrixSequence(2, 2)) == 0.0


def test_wcet_scalar_sequence_matches_identity_embedding():
    inst = random_instance(4, 2, seed=3, cond_cap=1e3)
    embedded = MatrixSequence(4, 2, {q: v * np.eye(2) for q, v in inst.sseq.items()})
    assert wcet_testing_constant(inst.w, inst.sseq) == pytest.approx(
        wcet_testing_constant(inst.w, embedded), rel=1e-12
    )


@pytest.mark.parametrize("depth", range(7))
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_wcet_matches_brute_oracle(depth, d):
    inst = random_instance(depth, d, seed=11 * depth + d, cond_cap=1e4)
    for seq in (inst.mseq, inst.sseq):
        got = wcet_testing_constant(inst.w, seq)
        want = brute_wcet_testing_constant(inst.w.values, dict(seq.items()), depth)
        assert abs(got - want) <= 1e-12 * abs(want)


def test_wcet_singular_average_names_cube():
    # the leaves of the left half share a null direction, so does their average
    leaves = np.array([np.diag([1.0, 0.0])] * 2 + [np.eye(2)] * 2)
    seq = ScalarSequence(2, {ROOT: 1.0})
    with pytest.raises(SingularMatrixError) as err:
        wcet_testing_constant(StepField(leaves), seq)
    assert isinstance(err.value.cube, DyadicIndex)
    assert err.value.cube == DyadicIndex(1, 0)


def test_a2_constant_weight_is_one():
    inst = epsilon_family(0.01, 0.3, depth=3)
    assert a2_characteristic(inst.w) == pytest.approx(1.0, abs=1e-12)
    w = StepField.constant(2, np.array([[3.0, 1.0], [1.0, 2.0]]))
    assert a2_characteristic(w) == pytest.approx(1.0, abs=1e-12)


def test_a2_scalar_matches_classical_formula():
    # d = 1, leaves (1, 3): <w> <w^-1> at the root = 2 * (2/3) = 4/3
    w = StepField(np.array([1.0, 3.0]))
    assert a2_characteristic(w) == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert brute_scalar_a2([1.0, 3.0]) == pytest.approx(4.0 / 3.0)


def test_a2_scalar_matches_brute_force_random():
    rng = np.random.default_rng(25)
    for depth in (2, 3, 4):
        leaves = rng.uniform(0.2, 5.0, size=1 << depth)
        w = StepField(leaves)
        assert a2_characteristic(w) == pytest.approx(
            brute_scalar_a2(list(leaves)), rel=1e-10
        )


def test_a2_at_least_one():
    for seed in range(8):
        inst = random_instance(3, 3, seed=seed, cond_cap=1e4)
        assert a2_characteristic(inst.w) >= 1.0 - 1e-12
        assert c2_conditioning(inst.w) >= 1.0 - 1e-12


def test_c2_examples():
    inst = epsilon_family(0.1, 0.0, depth=2)
    assert c2_conditioning(inst.w) == pytest.approx(100.0, rel=1e-12)
    assert c2_conditioning(StepField.constant(2, np.eye(3))) == pytest.approx(1.0)


def test_c2_is_pointwise_condition_number():
    # per the definition, kappa is evaluated pointwise before the sup:
    # a scalar weight (each leaf a 1x1 matrix) always has c2 = 1
    w = StepField(np.array([1.0, 3.0]))
    assert c2_conditioning(w) == pytest.approx(1.0)
    # two leaves with different eccentricity: sup of the per-leaf ratios
    leaves = np.stack([np.diag([1.0, 0.5]), np.diag([4.0, 0.1])])
    assert c2_conditioning(StepField(leaves)) == pytest.approx(40.0, rel=1e-12)


def test_c2_rejects_singular_leaf():
    leaves = np.stack([np.eye(2), np.diag([1.0, 0.0])])
    with pytest.raises(SingularMatrixError):
        c2_conditioning(StepField(leaves))


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_c2_names_first_non_spd_leaf_as_the_powers_do(dtype):
    # leaf 1 is the first leaf that is not SPD, leaf 3 the most singular
    bad, worse = np.diag([1.0, -0.1]), np.diag([1.0, -1.0])
    w = StepField(np.stack([np.eye(2), bad, np.eye(2), worse]).astype(dtype))
    with pytest.raises(SingularMatrixError) as c2:
        c2_conditioning(w)
    with pytest.raises(SingularMatrixError) as power:
        w.power(-1.0)
    assert c2.value.cube == power.value.cube == DyadicIndex(2, 1)
    assert c2.value.lambda_min == pytest.approx(-0.1, rel=1e-12)
    # in a batch, member by member: member 0's leaf 3 comes before member
    # 1's more singular leaf 0
    batch = np.stack([[np.eye(2)] * 3 + [bad], [worse] + [np.eye(2)] * 3]).astype(dtype)
    with pytest.raises(SingularMatrixError) as info:
        characteristics.c2_conditioning_batch(matrices.eigvalsh_stack(batch))
    assert info.value.cube == DyadicIndex(2, 3)
    assert info.value.lambda_min == pytest.approx(-0.1, rel=1e-12)


def test_necessity_identity_sampled():
    rng = np.random.default_rng(26)
    for seed in range(10):
        inst = random_instance(4, 2, seed=seed, cond_cap=1e4)
        testing = wcet_testing_constant(inst.w, inst.mseq)
        sampled = 0.0
        for q in cubes(4):
            for _ in range(10):
                e = rng.standard_normal(2)
                e /= np.linalg.norm(e)
                sampled = max(sampled, necessity_probe(inst.w, inst.mseq, q, e))
        assert sampled <= testing + 1e-9


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_subtree_forms_is_the_entry_loop(d):
    # every cube K, in tree order and then shuffled with repeats, against a
    # loop over seq.items() with DyadicIndex.contains; the shuffled copy of
    # the matrix sequence lists its entries out of tree order
    rng = np.random.default_rng(d)
    for depth in range(7):
        inst = random_instance(depth, d, seed=depth, cond_cap=1e4)
        entries = list(inst.mseq.items())
        shuffled = MatrixSequence(depth, d, [entries[i] for i in rng.permutation(len(entries))])
        n = 2 ** (depth + 1) - 1
        for seq in (inst.mseq, shuffled, inst.sseq, MatrixSequence(depth, d), ScalarSequence(depth)):
            for cubes_k in (np.arange(n), rng.integers(0, n, size=2 * n)):
                vectors = rng.standard_normal((len(cubes_k), len(seq), d))
                got = subtree_forms(seq, cubes_k, lambda i, j: vectors[i, j])
                assert got.tolist() == loop_subtree_forms(seq, cubes_k, vectors)


def _fit_entry_points():
    """Every entry point that takes a weight, by name: its call(w, f, g, seq),
    the sequences it takes ("scalar", "matrix", "both" or "") and the
    fields it takes ("f", "fg" or "")."""
    from carlab.bellman import dyadic_point
    from carlab.embeddings import (
        bet_cube_functional, bet_inner_sum, bet_norm_sum, cet_sum, maximal_function,
        phi_product, weighted_l2_norm,
    )
    from carlab.redundancy import red_constants, red_quadratic_form, sred_constant

    unit = np.array([1.0, 0.0])
    return {
        "wcet_testing_constant": (lambda w, f, g, s: wcet_testing_constant(w, s), "both", ""),
        "necessity_probe": (lambda w, f, g, s: necessity_probe(w, s, ROOT, unit), "both", ""),
        "necessity_report":
            (lambda w, f, g, s: necessity_report(w, s, np.random.default_rng(0)), "both", ""),
        "cet_sum": (lambda w, f, g, s: cet_sum(w, s, f), "both", "f"),
        "bet_norm_sum": (lambda w, f, g, s: bet_norm_sum(w, s, f, g), "both", "fg"),
        "bet_inner_sum": (lambda w, f, g, s: bet_inner_sum(w, s, f, g), "both", "fg"),
        "red_constants": (lambda w, f, g, s: red_constants(w, s), "matrix", ""),
        "red_quadratic_form":
            (lambda w, f, g, s: red_quadratic_form(w, s, ROOT, unit), "matrix", ""),
        "sred_constant": (lambda w, f, g, s: sred_constant(w, s), "scalar", ""),
        "dyadic_point": (lambda w, f, g, s: dyadic_point(w, s, ROOT), "scalar", ""),
        "weighted_l2_norm": (lambda w, f, g, s: weighted_l2_norm(f, w), "", "f"),
        "maximal_function": (lambda w, f, g, s: maximal_function(w, f), "", "f"),
        "phi_product": (lambda w, f, g, s: phi_product(w, f, g), "", "fg"),
        "bet_cube_functional": (lambda w, f, g, s: bet_cube_functional(w, f, g), "", "fg"),
    }


@pytest.mark.parametrize("name", sorted(_fit_entry_points()))
def test_sequence_must_fit_its_weight(name):
    # a sequence or field on a deeper tree, and a matrix sequence or vector
    # field of another d, are refused as the testing constant refuses them
    # (check_fits), not with an IndexError or a numpy ValueError
    call, takes, fields = _fit_entry_points()[name]
    w, f = StepField.constant(2, np.eye(2)), StepField.constant(2, np.array([1.0, 0.0]))
    deeper = (MatrixSequence(3, 2, {(3, 7): np.eye(2)}), ScalarSequence(3, {(3, 7): 1.0}))
    wider = MatrixSequence(2, 3, {ROOT: np.eye(3)})
    bad = [seq for seq, kind in zip(deeper, ("matrix", "scalar")) if takes in (kind, "both")]
    bad += [wider] if takes in ("matrix", "both") else []
    for seq in bad:
        with pytest.raises(DimensionMismatchError, match="different trees|dimensions differ"):
            call(w, f, f, seq)
    seq = (MatrixSequence(2, 2, {ROOT: 0.5 * np.eye(2)}) if takes == "matrix"
           else ScalarSequence(2, {ROOT: 0.5}))
    for part in fields:
        for other, match in ((refine(f, 3), "different trees"),
                             (StepField.constant(2, np.ones(3)), "dimensions differ"),
                             (w, "matrix fields have no vector view")):
            given = {"f": f, "g": f, part: other}
            with pytest.raises(DimensionMismatchError, match=match):
                call(w, given["f"], given["g"], seq)
    # a vector weight is refused by its matrix view, whatever else is given
    with pytest.raises(DimensionMismatchError, match="vector fields have no matrix view"):
        call(f, f, f, seq)
    # inputs that fit pass; a scalar sequence fits a weight of any d
    call(w, f, f, seq)
