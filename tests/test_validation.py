"""Constructor validation: one pass accepts exactly what the named rules
accept, and a rejected input names the first rule it breaks.

SingularSequence and PiecewiseFunction accept an input in one pass and
run their named checks only on a rejected one.  The oracles below are
those checks written out in their order; the property tests draw heads
and pieces built to break each rule, alone or together, and require the
same verdict and the same message."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dixlab as dx
from dixlab import maps


def _head_rule(head, counts=None):
    """The message of the first rule a head (and its counts) breaks, or
    None."""
    v = np.ascontiguousarray(head, dtype=np.float64)
    if v.ndim != 1:
        return "values must be one-dimensional"
    if v.size:
        if not np.all(np.isfinite(v)):
            return "values must be finite"
        if not np.all(v[1:] <= v[:-1]):
            return "values must be nonincreasing"
        if v[-1] < 0.0:
            return "values must be nonnegative"
    if counts is not None:
        c = np.ascontiguousarray(counts, dtype=np.int64)
        if c.shape != v.shape:
            return "counts must match the head values"
        if c.size and c.min() < 1:
            return "counts must be >= 1"
    return None


def _piece_rule(kind, breakpoints, values, domain_start, horizon,
                tail_value):
    """The message of the first rule a piecewise function breaks, or
    None."""
    if kind not in ("step", "linear"):
        return "kind must be 'step' or 'linear'"
    b = np.ascontiguousarray(breakpoints, dtype=np.float64)
    v = np.ascontiguousarray(values, dtype=np.float64)
    if b.ndim != 1 or b.size == 0 or b.shape != v.shape:
        return "breakpoints/values must be matching 1-d arrays"
    with np.errstate(invalid="ignore"):  # inf - inf
        if np.any(np.diff(b) <= 0):
            return "breakpoints must be strictly increasing"
    if domain_start not in (0.0, 1.0):
        return "domain_start must be 0 or 1"
    if b[0] != domain_start:
        return "first breakpoint must sit at domain_start"
    if not (horizon > b[-1] or (kind == "linear" and horizon == b[-1])):
        return "horizon must lie past the last breakpoint"
    if not (np.all(np.isfinite(b)) and np.all(np.isfinite(v))):
        return "breakpoints and values must be finite"
    if not (math.isfinite(horizon) and math.isfinite(tail_value)):
        return "horizon and tail_value must be finite"
    return None


def _verdict(build):
    """None when build() returns, else the ValueError's message."""
    try:
        build()
    except ValueError as e:
        return str(e)
    return None


_ODD = (math.nan, math.inf, -math.inf, -0.0, -1.0, -5e-324)


@st.composite
def _heads(draw):
    """A sorted nonnegative head (ties likely), then one or two of: an
    odd value (NaN, +-inf, -0.0, a negative) at any index, a negative
    last value, an increasing pair; now and then a second dimension."""
    values = draw(st.lists(st.sampled_from(
        [0.0, 5e-324, 1e-300, 0.25, 0.5, 1.0, 1.0, 2.0, 1.7e308]),
        max_size=7))
    head = np.array(sorted(values, reverse=True), dtype=np.float64)
    for _ in range(draw(st.integers(0, 2))):
        how = draw(st.sampled_from(["odd", "last", "swap"]))
        if how == "odd" and head.size:
            head[draw(st.integers(0, head.size - 1))] = draw(
                st.sampled_from(_ODD))
        elif how == "last" and head.size:
            head[-1] = draw(st.sampled_from([-0.0, -1e-300, -2.0]))
        elif how == "swap" and head.size > 1:
            i = draw(st.integers(0, head.size - 2))
            head[i], head[i + 1] = head[i + 1], head[i]
    return head.reshape(1, -1) if draw(st.integers(0, 9)) == 0 else head


class TestSingularSequenceAccepts:
    @given(_heads())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_plain_head(self, head):
        want = _head_rule(head)
        assert _verdict(lambda: dx.SingularSequence(head)) == want
        if want is None:
            x = dx.SingularSequence(head)
            assert x.counts is None and x.length == head.size
            assert np.array_equal(x.head.view(np.int64),
                                  head.view(np.int64))

    @given(_heads(), st.data())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_run_length_head(self, head, data):
        size = head.shape[-1] + data.draw(st.sampled_from([0, 0, 0, 1]))
        counts = np.array(data.draw(st.lists(
            st.integers(0, 3) if data.draw(st.booleans())
            else st.integers(1, 3), min_size=size, max_size=size)),
            dtype=np.int64)
        want = _head_rule(head, counts)
        got = _verdict(lambda: dx.SingularSequence(head, None, counts))
        assert got == want
        if want is None:
            x = dx.SingularSequence(head, None, counts)
            assert x.length == counts.sum()
            np.testing.assert_array_equal(x.values, np.repeat(head, counts))

    @pytest.mark.parametrize("head,match", [
        ([], None),
        ([0.0], None),
        ([-0.0], None),
        ([1.0, 1.0, -0.0], None),
        ([math.nan], "finite"),
        ([1.0, 0.5, math.nan], "finite"),
        ([math.nan, 2.0, 3.0], "finite"),
        ([math.inf], "finite"),
        ([1.0, -math.inf], "finite"),
        ([-1.0], "nonnegative"),
        ([1.0, 0.0, -1e-300], "nonnegative"),
        ([0.5, 1.0], "nonincreasing"),
        ([-2.0, -1.0], "nonincreasing"),
        ([[1.0, 0.5]], "one-dimensional"),
    ])
    def test_named_cases(self, head, match):
        want = _head_rule(head)
        assert (want is None) == (match is None)
        assert _verdict(lambda: dx.SingularSequence(head)) == want


@st.composite
def _pieces(draw):
    """Arguments of a PiecewiseFunction: increasing breakpoints from
    domain_start, a horizon past, at or before the last one, then one or
    two of: an odd breakpoint or value, a tie, a decreasing pair, a
    wrong first breakpoint, a shape mismatch or no pieces."""
    kind = draw(st.sampled_from(["step", "linear", "linear", "cubic"]))
    start = draw(st.sampled_from([0.0, 1.0, 1.0, 0.5]))
    steps = draw(st.lists(st.sampled_from([0.25, 1.0, 3.0]), max_size=5))
    b = start + np.concatenate([[0.0], np.cumsum(steps)])
    v = np.array(draw(st.lists(st.sampled_from([-1.0, 0.0, 2.5]),
                               min_size=b.size, max_size=b.size)))
    horizon = float(b[-1]) + draw(st.sampled_from([1.0, 0.5, 0.0, -0.5]))
    tail = draw(st.sampled_from([0.0, 0.0, math.nan, math.inf]))
    for _ in range(draw(st.integers(0, 2))):
        how = draw(st.sampled_from(["b", "v", "tie", "swap", "first",
                                    "shape", "empty", "horizon"]))
        odd = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        if how == "b" and b.size:
            b[draw(st.integers(0, b.size - 1))] = odd
        elif how == "v" and v.size:
            v[draw(st.integers(0, v.size - 1))] = odd
        elif how == "tie" and b.size > 1:
            i = draw(st.integers(1, b.size - 1))
            b[i] = b[i - 1]
        elif how == "swap" and b.size > 1:
            i = draw(st.integers(0, b.size - 2))
            b[i], b[i + 1] = b[i + 1], b[i]
        elif how == "first" and b.size:
            b[0] = start + 0.5
        elif how == "shape":
            v = v[:-1]
        elif how == "empty":
            b, v = b[:0], v[:0]
        elif how == "horizon":
            horizon = odd
    return kind, b, v, start, horizon, tail


class TestSubmajorizesAccepts:
    @given(_heads())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_an_array_by_the_sequence_rule(self, head):
        # an array is accepted as SingularSequence accepts it, with the
        # same message, on either side
        want = _head_rule(head)
        assert _verdict(lambda: dx.submajorizes(head, [0.0])) == want
        assert _verdict(lambda: dx.submajorizes([2.0], head)) == want
        if want is None and head.size:
            x = dx.SingularSequence(head.copy())
            for y in ([1.0, 0.5], x.head[:-1], x):
                assert dx.submajorizes(head, y) == dx.submajorizes(x, y)
                assert dx.submajorizes(y, head) == dx.submajorizes(y, x)


class TestPiecewiseFunctionAccepts:
    @given(_pieces())
    @settings(max_examples=600, deadline=None, derandomize=True)
    def test_pieces(self, args):
        want = _piece_rule(*args)
        with np.errstate(invalid="ignore"):  # the rejection's inf - inf
            got = _verdict(lambda: maps.PiecewiseFunction(*args))
        assert got == want
        if want is None:
            f = maps.PiecewiseFunction(*args)
            assert np.array_equal(f.breakpoints, args[1])
            assert np.array_equal(f.values, args[2])

    @pytest.mark.parametrize("kind,b,horizon,match", [
        ("linear", [0.0, 1.0], 1.0, None),  # a linear horizon at the knot
        ("step", [0.0, 1.0], 1.0, "horizon must lie past"),
        ("linear", [0.0, 1.0], 0.5, "horizon must lie past"),
        ("step", [0.0, math.nan], 2.0, "horizon must lie past"),
        ("linear", [0.0, math.nan, 3.0], 4.0, "finite"),
        ("linear", [0.0, math.inf], math.inf, "finite"),
        ("step", [0.0, 2.0, 2.0], 3.0, "strictly increasing"),
        ("step", [0.0, 2.0, 1.0], 3.0, "strictly increasing"),
        ("step", [1.0, 2.0], 3.0, "sit at domain_start"),
        ("step", [], 3.0, "matching 1-d arrays"),
        ("spline", [0.0], 3.0, "kind"),
    ])
    def test_named_cases(self, kind, b, horizon, match):
        args = (kind, np.array(b), np.zeros(len(b)), 0.0, horizon, 0.0)
        want = _piece_rule(*args)
        assert (want is None) == (match is None)
        if match is not None:
            assert match in want
        assert _verdict(lambda: maps.PiecewiseFunction(*args)) == want
