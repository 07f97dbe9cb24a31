"""Truncated Taylor-series (jet) arithmetic.

A jet of order ``m`` at a point stores the scaled derivatives
``c[k] = y_k / k!`` for ``k = 0 .. m``.  Sums, products, quotients and
exponentials of jets propagate derivatives exactly, which is how every
derivative of the profile is read without finite differencing, and how
the linearized-operator assembly differentiates coefficient functions
of the background wave.

The leading axis of the coefficient array is the Taylor order; any
remaining axes ride along elementwise, so one Jet can carry expansions
at every grid node at once.
"""

from __future__ import annotations

import numpy as np


class Jet:
    __slots__ = ("coef",)
    # an ndarray on the left defers to the reflected operators below
    __array_ufunc__ = None

    def __init__(self, coef):
        coef = np.asarray(coef)
        if coef.ndim == 0:
            raise ValueError("jet coefficients need a leading Taylor axis")
        self.coef = coef

    @classmethod
    def constant(cls, value, order: int) -> "Jet":
        value = np.asarray(value)
        dtype = np.result_type(value, 1.0)
        coef = np.zeros((order + 1,) + value.shape, dtype=dtype)
        coef[0] = value
        return cls(coef)

    @classmethod
    def variable(cls, value, order: int) -> "Jet":
        """Jet of the identity map expanded at ``value``."""
        jet = cls.constant(value, order)
        if order >= 1:
            jet.coef[1] = 1.0
        return jet

    @property
    def order(self) -> int:
        return self.coef.shape[0] - 1

    @property
    def value(self):
        return self.coef[0]

    def derivative(self, k: int):
        """The k-th derivative (not the scaled coefficient)."""
        import math

        return math.factorial(k) * self.coef[k]

    def deriv(self) -> "Jet":
        """Jet of the derivative, one order lower."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 jet")
        k = np.arange(1, self.order + 1)
        shape = (self.coef.ndim - 1) * (1,)
        return Jet(self.coef[1:] * k.reshape((-1,) + shape))

    def eval(self, dx):
        """Evaluate the truncated series at an offset dx (Horner)."""
        out = self.coef[-1] * np.ones_like(np.asarray(dx, dtype=float))
        for c in self.coef[-2::-1]:
            out = out * dx + c
        return out

    def _coerce(self, other) -> "Jet":
        if isinstance(other, Jet):
            return other
        value = np.asarray(other)
        base = np.broadcast_shapes(value.shape, self.coef.shape[1:])
        coef = np.zeros((self.order + 1,) + base, dtype=np.result_type(value, 1.0))
        coef[0] = value
        return Jet(coef)

    def __add__(self, other):
        other = self._coerce(other)
        m = min(self.order, other.order)
        return Jet(self.coef[: m + 1] + other.coef[: m + 1])

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.coef)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.coef * other)
        m = min(self.order, other.order)
        a, b = self.coef, other.coef
        out = np.zeros((m + 1,) + np.broadcast_shapes(a.shape[1:], b.shape[1:]),
                       dtype=np.result_type(a, b))
        for k in range(m + 1):
            for j in range(k + 1):
                out[k] += a[j] * b[k - j]
        return Jet(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        m = min(self.order, other.order)
        a, b = self.coef, other.coef
        out = np.zeros((m + 1,) + np.broadcast_shapes(a.shape[1:], b.shape[1:]),
                       dtype=np.result_type(a, b, 1.0))
        out[0] = a[0] / b[0]
        for k in range(1, m + 1):
            acc = a[k].astype(out.dtype, copy=True) * np.ones_like(out[0])
            for j in range(1, k + 1):
                acc = acc - b[j] * out[k - j]
            out[k] = acc / b[0]
        return Jet(out)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n: int):
        if not isinstance(n, (int, np.integer)):
            raise TypeError("jet powers must be integers")
        if n < 0:
            return Jet.constant(1.0, self.order) / self ** (-n)
        out = Jet.constant(np.ones(self.coef.shape[1:]), self.order)
        base = self
        k = int(n)
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def exp(self) -> "Jet":
        a = self.coef
        out = np.zeros_like(a, dtype=np.result_type(a, 1.0))
        out[0] = np.exp(a[0])
        for k in range(1, self.order + 1):
            acc = np.zeros_like(out[0])
            for j in range(1, k + 1):
                acc = acc + j * a[j] * out[k - j]
            out[k] = acc / k
        return Jet(out)
