"""Dense vectors of Gaussian rationals in common-denominator form.

A vector is (den, re, im) with den a positive Python int and re/im numpy
object arrays of Python ints; entry i is (re[i] + im[i]*1j) / den, and a
real vector has an imaginary array of zeros.  Python ints never overflow,
so the arithmetic is exact at any scale; numpy object arrays keep the
inner loops in C.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce

import numpy as np


def _obj_zeros(n: int):
    return np.zeros(n, dtype=object)


def _gcd_array(arr) -> int:
    return reduce(math.gcd, arr.tolist(), 0)


class ExactVector:
    """Immutable-by-convention exact vector; all operations return new vectors.

    `im=None` builds a real vector.  With `reduce_terms=False` the caller
    vouches that den and the entries have no common factor, which equality
    and hashing rely on.
    """

    __slots__ = ("den", "re", "im")

    def __init__(self, den: int, re, im=None, reduce_terms: bool = True):
        re = np.asarray(re, dtype=object)
        im = _obj_zeros(len(re)) if im is None else np.asarray(im, dtype=object)
        if den < 0:
            den, re, im = -den, -re, -im
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if reduce_terms:
            g = math.gcd(_gcd_array(re), _gcd_array(im), den)
            if g > 1:
                den, re, im = den // g, re // g, im // g
        self.den = den
        self.re = re
        self.im = im

    @classmethod
    def from_fractions(cls, values) -> "ExactVector":
        """Build from a list of Fraction / int / (re, im) pairs."""
        pairs = []
        for v in values:
            if isinstance(v, tuple):
                pairs.append((Fraction(v[0]), Fraction(v[1])))
            else:
                pairs.append((Fraction(v), Fraction(0)))
        den = 1
        for re, im in pairs:
            den = den * re.denominator // math.gcd(den, re.denominator)
            den = den * im.denominator // math.gcd(den, im.denominator)
        re_arr = np.array([int(re * den) for re, _ in pairs], dtype=object)
        im_arr = np.array([int(im * den) for _, im in pairs], dtype=object)
        return cls(den, re_arr, im_arr)

    def __len__(self):
        return len(self.re)

    def coeff(self, i: int):
        """Entry i as a (real, imaginary) pair of Fractions."""
        return Fraction(int(self.re[i]), self.den), Fraction(int(self.im[i]), self.den)

    def support(self):
        return np.flatnonzero((self.re != 0) | (self.im != 0)).tolist()

    def is_zero(self) -> bool:
        return not self.support()

    def __add__(self, other: "ExactVector") -> "ExactVector":
        d1, d2 = self.den, other.den
        g = math.gcd(d1, d2)
        m1, m2 = d2 // g, d1 // g
        return ExactVector(d1 * m1, self.re * m1 + other.re * m2,
                           self.im * m1 + other.im * m2)

    def __neg__(self) -> "ExactVector":
        return ExactVector(self.den, -self.re, -self.im, reduce_terms=False)

    def __sub__(self, other: "ExactVector") -> "ExactVector":
        return self + (-other)

    def scaled(self, scalar) -> "ExactVector":
        """Multiply by a Fraction, int, or complex Gaussian rational pair."""
        if isinstance(scalar, tuple):
            sre, sim = Fraction(scalar[0]), Fraction(scalar[1])
        else:
            sre, sim = Fraction(scalar), Fraction(0)
        den = self.den * sre.denominator * sim.denominator
        a = sre.numerator * sim.denominator
        b = sim.numerator * sre.denominator
        return ExactVector(den, self.re * a - self.im * b, self.re * b + self.im * a)

    def conjugate(self) -> "ExactVector":
        return ExactVector(self.den, self.re, -self.im, reduce_terms=False)

    def permuted(self, index_array) -> "ExactVector":
        """New vector with entry i taken from entry index_array[i]."""
        idx = np.asarray(index_array)
        return ExactVector(self.den, self.re[idx], self.im[idx], reduce_terms=False)

    def __eq__(self, other):
        if not isinstance(other, ExactVector):
            return NotImplemented
        return len(self) == len(other) and all(
            a * other.den == b * self.den
            for a, b in zip(self.re.tolist() + self.im.tolist(),
                            other.re.tolist() + other.im.tolist()))

    def __hash__(self):
        return hash((self.den, tuple(self.re.tolist()), tuple(self.im.tolist())))

    def to_complex(self) -> np.ndarray:
        def floats(arr):
            return np.array([float(Fraction(int(x), self.den)) for x in arr.tolist()])

        return floats(self.re) + 1j * floats(self.im)

    def __repr__(self):
        entries = ", ".join(
            f"{i}: {re}{'+' if im >= 0 else ''}{im}i" if im else f"{i}: {re}"
            for i, (re, im) in ((i, self.coeff(i)) for i in self.support())
        )
        return f"ExactVector({entries or '0'})"
