"""``errors.first_failure`` and ``errors.relabel`` on scripted batches."""

import pytest

from carlab.errors import DomainError, NumericError, first_failure, relabel


def _staged(early=(), late=(), n=8, batch_only=False):
    """``evaluate(sl)`` over members 0..n-1 that checks every member in an
    early stage, then every member in a late one; the first failure names
    its member by the index in ``sl``.  With ``batch_only`` only a batch of
    two or more members fails.  Returns it and the slices it was given."""
    calls = []

    def evaluate(sl):
        members = range(n)[sl]
        calls.append((members.start, members.stop))
        if batch_only and len(members) > 1:
            raise NumericError("batch failure").at(1)
        for stage, bad in (("early", early), ("late", late)):
            for i, m in enumerate(members):
                if m in bad:
                    raise NumericError(f"{stage} failure of {m}").at(i)
        return [10 * m for m in members]

    return evaluate, calls


def test_first_failure_passes_the_whole_batch_once():
    evaluate, calls = _staged()
    assert first_failure(evaluate, 8) == ([10 * m for m in range(8)], 8, None)
    assert calls == [(0, 8)]


def test_first_failure_is_the_first_member_a_loop_meets():
    # the batch meets member 5's early failure first, a loop member 3's
    # late one
    evaluate, calls = _staged(early={5}, late={3})
    with pytest.raises(NumericError, match="early failure of 5"):
        evaluate(slice(None))
    calls.clear()
    results, b, error = first_failure(evaluate, 8)
    assert (results, b) == ([0, 10, 20], 3)
    assert str(error) == "late failure of 3 (point 3)" and error.point == 3
    assert calls == [(0, 8), (0, 1), (1, 2), (2, 3), (3, 4), (0, 3)]


def test_first_failure_at_the_first_member_has_no_results():
    evaluate, _ = _staged(late={0, 6})
    results, b, error = first_failure(evaluate, 8)
    assert (results, b, error.point) == (None, 0, 0)


def test_first_failure_reraises_a_batch_error_no_member_has():
    evaluate, calls = _staged(n=4, batch_only=True)
    with pytest.raises(NumericError, match="batch failure") as info:
        first_failure(evaluate, 4)
    assert info.value.point == 1
    assert calls == [(0, 4), (0, 1), (1, 2), (2, 3), (3, 4)]


def test_first_failure_lets_other_exceptions_through():
    def evaluate(sl):
        raise ValueError("not a member failure")

    with pytest.raises(ValueError):
        first_failure(evaluate, 3)


def test_relabel_maps_and_clears_the_point():
    with pytest.raises(NumericError) as info:
        with relabel(lambda p: ("cube", 10 + p)):
            raise NumericError("refused").at(2)
    assert info.value.point == ("cube", 12)
    assert str(info.value) == "refused (point ('cube', 12))"
    with pytest.raises(NumericError) as info:
        with relabel(None):
            raise NumericError("refused").at(2)
    assert info.value.point is None and str(info.value) == "refused"


def test_relabel_passes_a_pointless_error_unchanged():
    error = DomainError("outside", margins={"psd": -1.0})
    for label in (lambda p: p + 1, None):
        with pytest.raises(DomainError) as info:
            with relabel(label):
                raise error
        assert info.value is error and error.point is None
        assert str(error) == "outside [psd=-1.000e+00]"
    with pytest.raises(KeyError):
        with relabel(None):
            raise KeyError("not a LabError")
