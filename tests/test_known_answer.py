"""A case whose answers are known in closed form: constant coefficients and
equal delays (conftest.known_answer_config).

The system is

    u' = u [a1 - b u - c1 v(t - tau1) / (u(t - sigma1) + k1)]
    v' = v [a2 - c2 v(t - tau2) / (u(t - sigma2) + k2)]

With constant coefficients a constant pair (u, v) solves it when both
brackets vanish.  The second gives v = a2 (u + k2) / c2; put into the first,
a1 (u + k1) = b u (u + k1) + (c1 a2 / c2)(u + k2), that is

    b u^2 + (b k1 - a1 + c1 a2 / c2) u + (c1 a2 k2 / c2 - a1 k1) = 0.

Its constant term is negative here, so it has one positive root u*, and the
positive equilibrium (u*, v*) is conftest.KNOWN_EQUILIBRIUM.  It is the
distinguished bounded solution, so the run from example2's history ends on it.

The integral operator maps a pair to U_j(t) = int_t^inf exp(-a_j (s - t))
f_j(s) ds.  On a constant pair (x u*, x v*) with constant coefficients, f_j
is constant and U_j = f_j / a_j:

    U_1 = x^2 u* (b u* + c1 v* / (x u* + k1)) / a1
    U_2 = x^2 v* c2 v* / ((x u* + k2) a2)

At x = 1 both brackets equal their a_j, so (u*, v*) is a fixed point.  At
x = 1.01 the image is about x^2 times the fixed point, farther from it than
x is: f_2 is homogeneous of degree 2 in psi, which is why Picard iteration
cannot converge to (u*, v*).

Other solutions approach (u*, v*) at the rate of the rightmost root of the
characteristic equation of the linearization there (Hale & Verduyn Lunel,
Introduction to Functional Differential Equations, 1993).  In the log-state
x = ln u, y = ln v the system is

    x' = a1 - b e^x - c1 e^{y(t - tau)} / (e^{x(t - tau)} + k1)
    y' = a2 - c2 e^{y(t - tau)} / (e^{x(t - tau)} + k2)

with every delay tau = 0.92.  Its partial derivatives at (ln u*, ln v*) give
z' = A0 z(t) + A1 z(t - tau) with

    A0 = [[-b u*, 0], [0, 0]]
    A1 = [[c1 v* u* / (u* + k1)^2, -c1 v* / (u* + k1)],
          [c2 v* u* / (u* + k2)^2, -c2 v* / (u* + k2)]]

(the delayed u enters through its denominator, the delayed v through its
numerator), whose roots solve det(lambda I - A0 - A1 e^{-lambda tau}) = 0.
They are the eigenvalues of the solution operator's generator, d/dtheta on
[-tau, 0] with z'(0) = A0 z(0) + A1 z(-tau), which characteristic_roots
collocates at Chebyshev points (Breda, Maset & Vermiglio, SIAM J. Sci.
Comput. 27, 2005).
"""

import math

import numpy as np
import pytest

from lgholling import CoefficientBounds, GridFunctionPair, ModelSpec, apply_upsilon, run_pipeline, validate_model
from conftest import KNOWN_EQUILIBRIUM, known_answer_config

U, V = KNOWN_EQUILIBRIUM


def coefficients() -> dict:
    return {sym: float(text) for sym, text in known_answer_config()["model"].items()}


@pytest.fixture(scope="module")
def known_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("known")
    return run_pipeline(known_answer_config(), out), out


def characteristic_roots(n: int) -> np.ndarray:
    """The roots of det(lambda I - A0 - A1 e^{-lambda tau}) = 0 (see the module
    docstring), rightmost first: the eigenvalues of the generator collocated
    at the n + 1 Chebyshev points theta_j = tau (cos(j pi / n) - 1) / 2, the
    first row pair holding the condition at theta_0 = 0, theta_n being -tau."""
    c, tau = coefficients(), 0.92
    a0 = np.array([[-c["b"] * U, 0.0], [0.0, 0.0]])
    a1 = np.array([[c["c1"] * V * U / (U + c["k1"]) ** 2, -c["c1"] * V / (U + c["k1"])],
                   [c["c2"] * V * U / (U + c["k2"]) ** 2, -c["c2"] * V / (U + c["k2"])]])
    # Chebyshev differentiation matrix on [-1, 1] (Trefethen, Spectral Methods in MATLAB, 2000)
    x = np.cos(np.pi * np.arange(n + 1) / n)
    w = np.r_[2.0, np.ones(n - 1), 2.0] * (-1.0) ** np.arange(n + 1)
    d = np.outer(w, 1.0 / w) / (x[:, None] - x[None, :] + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))
    generator = np.kron(d * (2.0 / tau), np.eye(2))  # d/dtheta, theta = tau (x - 1) / 2
    generator[:2] = 0.0
    generator[:2, :2], generator[:2, -2:] = a0, a1
    roots = np.linalg.eigvals(generator)
    return roots[np.argsort(-roots.real)]


def upsilon_on_constants(x: float) -> GridFunctionPair:
    """The operator on the constant pair x (u*, v*) over [0, 30] by 0.1."""
    spec = ModelSpec.from_strings(known_answer_config()["model"])
    bounds = CoefficientBounds.from_validation(validate_model(spec).bounds)
    pair = GridFunctionPair.from_constants(0.0, 30.0, 0.1, x * U, x * V)
    return apply_upsilon(spec, pair, 0.01, 1e-10, bounds)


def test_the_equilibrium_is_the_quadratic_root():
    c = coefficients()
    assert c["tau1"] == c["tau2"] == c["sigma1"] == c["sigma2"] == 0.92
    r = c["c1"] * c["a2"] / c["c2"]
    lin, const = c["b"] * c["k1"] - c["a1"] + r, r * c["k2"] - c["a1"] * c["k1"]
    assert const < 0.0  # one positive root
    u = (-lin + math.sqrt(lin * lin - 4.0 * c["b"] * const)) / (2.0 * c["b"])
    assert u == pytest.approx(U, rel=1e-15)
    assert c["a2"] * (u + c["k2"]) / c["c2"] == pytest.approx(V, rel=1e-15)
    # both brackets of the system vanish there
    assert abs(c["a1"] - c["b"] * U - c["c1"] * V / (U + c["k1"])) < 1e-14
    assert abs(c["a2"] - c["c2"] * V / (U + c["k2"])) < 1e-14


def test_the_run_ends_on_the_equilibrium(known_run):
    report, out = known_run
    t, u, v = map(float, (out / "trajectories.csv").read_text(encoding="utf-8").splitlines()[-1].split(","))
    assert t == 200.0
    assert abs(u - U) < 1e-8
    assert abs(v - V) < 1e-8
    assert report["fixed_point"]["status"] == "diverged"
    assert report["pap"]["trend_verdict"] == "vanishing"


def test_the_partner_run_approaches_at_the_rightmost_characteristic_root(known_run):
    """The rightmost root is real (about -0.1835) and agrees between 16 and
    32 collocation points; the distance to the attractivity partner decays
    at its rate, fitted over t > 20 where the distance is above 1e-12."""
    root = characteristic_roots(32)[0]
    assert root.imag == 0.0 and -0.19 < root.real < -0.18
    assert abs(characteristic_roots(16)[0].real - root.real) < 1e-9
    _, out = known_run
    t, distance = np.loadtxt(out / "attractivity.csv", delimiter=",", skiprows=1, unpack=True)
    keep = (t > 20.0) & (distance > 1e-12)
    rate = np.polyfit(t[keep], np.log(distance[keep]), 1)[0]
    assert rate == pytest.approx(root.real, rel=0.01)


def test_the_equilibrium_is_a_fixed_point_of_the_operator():
    image = upsilon_on_constants(1.0)
    assert np.abs(image.phi - U).max() < 1e-7
    assert np.abs(image.psi - V).max() < 1e-9


def test_the_operator_pushes_a_scaled_equilibrium_away():
    x = 1.01
    image = upsilon_on_constants(x)
    assert image.phi.mean() > 1.015 * U
    assert image.psi.mean() > 1.015 * V
    c = coefficients()
    u1 = x * x * U * (c["b"] * U + c["c1"] * V / (x * U + c["k1"])) / c["a1"]
    u2 = x * x * V * c["c2"] * V / ((x * U + c["k2"]) * c["a2"])
    assert np.abs(image.phi - u1).max() < 1e-7
    assert np.abs(image.psi - u2).max() < 1e-9
