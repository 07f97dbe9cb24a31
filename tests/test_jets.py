import math

import numpy as np

from nspshock.jets import Jet


def variable(value, order):
    """Jet of the identity map expanded at value."""
    jet = Jet.constant(value, order)
    jet.coef[1] = 1.0
    return jet


def taylor_sum(jet, dx):
    """The truncated series of jet evaluated at the offset dx (Horner)."""
    out = jet.coef[-1]
    for c in jet.coef[-2::-1]:
        out = out * dx + c
    return out


def test_geometric_series_reciprocal():
    # 1/(1-x) at x=0 has Taylor coefficients identically 1
    x = variable(np.array(0.0), 8)
    g = 1.0 / (1.0 - x)
    assert np.allclose(g.coef, np.ones(9), rtol=0, atol=1e-14)


def test_exp_coefficients_at_offset_point():
    a = 0.3
    x = variable(np.array(a), 6)
    e = x.exp()
    expected = [np.exp(a) / math.factorial(k) for k in range(7)]
    assert np.allclose(e.coef, expected, rtol=1e-14)


def test_product_of_exponentials():
    # exp(x) * exp(2x) = exp(3x): coefficients 3^k exp(3a) / k!
    a = -0.4
    x = variable(np.array(a), 5)
    prod = x.exp() * (2.0 * x).exp()
    expected = [3.0**k * np.exp(3 * a) / math.factorial(k) for k in range(6)]
    assert np.allclose(prod.coef, expected, rtol=1e-13)


def test_quotient_times_divisor_roundtrip():
    rng = np.random.default_rng(7)
    a = Jet(rng.standard_normal((6, 11)))
    b = Jet(rng.standard_normal((6, 11)))
    b.coef[0] += 3.0  # keep the divisor away from zero
    q = a / b
    back = q * b
    assert np.allclose(back.coef, a.coef, rtol=0, atol=1e-12)


def test_deriv_shift():
    a = 0.7
    x = variable(np.array(a), 6)
    f = (2.0 * x).exp()
    df = f.deriv()
    expected = 2.0 * (2.0 * x).exp()
    assert df.order == 5
    assert np.allclose(df.coef, expected.coef[:6], rtol=1e-13)


def test_integer_powers_and_reciprocal():
    x = variable(np.array(1.7), 5)
    cube = x**3
    ref = x * x * x
    assert np.allclose(cube.coef, ref.coef, rtol=1e-14)
    inv3 = x**-3
    prod = inv3 * cube
    assert np.allclose(prod.coef[0], 1.0, rtol=1e-14)
    assert np.allclose(prod.coef[1:], 0.0, atol=1e-14)


def test_composite_matches_finite_differences():
    # g(x) = exp(x / (1 + x^2)) / (2 + x), derivatives vs 4th-order stencils
    def g(x):
        return np.exp(x / (1.0 + x * x)) / (2.0 + x)

    pts = np.array([-1.3, -0.2, 0.7, 2.1])
    x = variable(pts, 4)
    jet = (x / (1.0 + x * x)).exp() / (2.0 + x)

    h = 5e-3
    stencil = g(pts[:, None] + h * np.array([-2, -1, 0, 1, 2]))
    d1 = stencil @ np.array([1, -8, 0, 8, -1]) / (12 * h)
    d2 = stencil @ np.array([-1, 16, -30, 16, -1]) / (12 * h * h)

    assert np.allclose(jet.value, g(pts), rtol=1e-14)
    assert np.allclose(jet.derivative(1), d1, rtol=1e-6, atol=1e-9)
    assert np.allclose(jet.derivative(2), d2, rtol=1e-5, atol=1e-8)


def test_ode_extension_recovers_exponential():
    # lift y' = y from the value y(0) = 2 one coefficient at a time
    y = Jet.constant(np.array(2.0), 0)
    for m in range(6):
        rhs = y  # F(y) = y
        coef = np.concatenate([y.coef, [rhs.coef[m] / (m + 1)]])
        y = Jet(coef)
    expected = [2.0 / math.factorial(k) for k in range(7)]
    assert np.allclose(y.coef, expected, rtol=1e-14)


def test_eval_horner():
    x = variable(np.array(0.5), 10)
    f = x.exp()
    assert np.isclose(taylor_sum(f, 0.2), np.exp(0.7), rtol=1e-10)


def test_ndarray_on_the_left_defers_to_the_jet():
    jet = Jet(np.arange(6.0).reshape(2, 3))
    arr = np.array([1.5, -2.0, 3.0])
    for left, right in ((arr * jet, jet * arr), (arr + jet, jet + arr)):
        assert isinstance(left, Jet)
        assert np.array_equal(left.coef, right.coef)
