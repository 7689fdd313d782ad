"""ExactVector against Fraction arithmetic, entry by entry."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from heckelab._exactvec import ExactVector

QUICK = settings(max_examples=60, deadline=None, database=None)

rationals = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
gaussians = st.tuples(rationals, rationals)
vectors = st.lists(gaussians, min_size=1, max_size=6)


@st.composite
def vector_pairs(draw):
    a = draw(vectors)
    return a, draw(st.lists(gaussians, min_size=len(a), max_size=len(a)))


def entries(vec):
    return [vec.coeff(i) for i in range(len(vec))]


def times(x, y):
    (a, b), (c, d) = x, y
    return a * c - b * d, a * d + b * c


@QUICK
@given(vectors)
def test_from_fractions_keeps_every_entry(values):
    vec = ExactVector.from_fractions(values)
    assert entries(vec) == values
    assert vec == ExactVector.from_fractions([re if not im else (re, im) for re, im in values])
    assert vec.to_complex().tolist() == [complex(float(re), float(im)) for re, im in values]


@QUICK
@given(vector_pairs())
def test_sum_difference_and_negation(pair):
    a, b = pair
    x, y = ExactVector.from_fractions(a), ExactVector.from_fractions(b)
    assert entries(x + y) == [(p + r, q + s) for (p, q), (r, s) in zip(a, b)]
    assert entries(x - y) == [(p - r, q - s) for (p, q), (r, s) in zip(a, b)]
    assert entries(-x) == [(-p, -q) for p, q in a]


@QUICK
@given(vectors, rationals, gaussians)
def test_scaled_by_real_and_gaussian_scalars(values, real, gaussian):
    vec = ExactVector.from_fractions(values)
    assert entries(vec.scaled(real)) == [times(x, (real, Fraction(0))) for x in values]
    assert entries(vec.scaled(gaussian)) == [times(x, gaussian) for x in values]


@QUICK
@given(vectors, st.data())
def test_conjugate_and_permuted(values, data):
    vec = ExactVector.from_fractions(values)
    assert entries(vec.conjugate()) == [(re, -im) for re, im in values]
    index = data.draw(st.lists(st.integers(0, len(values) - 1),
                               min_size=len(values), max_size=len(values)))
    assert entries(vec.permuted(index)) == [values[i] for i in index]


@QUICK
@given(vectors)
def test_support_and_is_zero(values):
    vec = ExactVector.from_fractions(values)
    support = [i for i, (re, im) in enumerate(values) if re or im]
    assert vec.support() == support
    assert vec.is_zero() == (not support)
    assert (vec - vec).is_zero() and (vec - vec).support() == []


@QUICK
@given(vector_pairs(), gaussians)
def test_equal_vectors_hash_alike(pair, scalar):
    a, b = pair
    x, y = ExactVector.from_fractions(a), ExactVector.from_fractions(b)
    # equal values reached along different routes
    same = [(x + y - y, x), (ExactVector.from_fractions(entries(x)), x)]
    if scalar != (0, 0):
        re, im = scalar
        norm = re * re + im * im
        same.append((x.scaled(scalar).scaled((re / norm, -im / norm)), x))
    for left, right in same:
        assert left == right and hash(left) == hash(right)
    assert (x == y) == (a == b)
    if x == y:
        assert hash(x) == hash(y)


@QUICK
@given(st.integers(1, 10 ** 6), st.lists(st.integers(-10 ** 20, 10 ** 20), min_size=1,
                                         max_size=6))
def test_real_vector_without_an_imaginary_array(den, numerators):
    # im=None builds the same vector as an explicit imaginary array of zeros
    real = ExactVector(den, numerators)
    zeros = ExactVector(den, numerators, np.zeros(len(numerators), dtype=object))
    assert real == zeros and hash(real) == hash(zeros)
    assert entries(real) == [(Fraction(n, den), Fraction(0)) for n in numerators]
    assert real.im.tolist() == [0] * len(numerators)
