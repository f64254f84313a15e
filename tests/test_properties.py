"""Property tests of the solver invariants on a convex and a nonconvex energy.

* V(x) <= phi(x): the constant trajectory already costs phi(x);
* V is nonincreasing in eps: on the default value grid (exp_graded, horizon
  25 eps, fixed N) the nodes scale with eps, and in rescaled time only the
  kinetic weight 1/(2 eps) changes, so the discrete V is monotone too;
* the direct and Euler-Lagrange backends, two first-order discretizations,
  agree within (dt/eps) x (distance travelled).  Near the double-well hilltop
  that bound holds for eps up to about 0.04 at these N: the largest gap sits
  at the horizon end, where the direct solver's truncation and the
  Euler-Lagrange window differ, and it outgrows the bound from eps = 0.045;
* the one-point kernels of a 1-D state are bitwise the row kernels on one
  row, signed zeros included.
"""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wedflow import (
    InvalidInputError, SpaceSpec, ValueOptions, WedProblem, convex_quartic,
    discrete_dirichlet, double_well, energy_eval, energy_grad, minimize_wed, point,
    quadratic, value_function,
)
from wedflow.energies import eval_many, grad_many, hess_many

E1 = SpaceSpec.euclidean(1)
ENERGIES = {"convex_quartic": convex_quartic(), "double_well": double_well()}
energies = st.sampled_from(sorted(ENERGIES))
xs = st.floats(-1.5, 1.5)
Ns = st.sampled_from([200, 400])


def roundoff(phi):
    return 1e-12 * (1.0 + abs(phi))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(kind=energies, x=xs, eps=st.floats(0.02, 0.1), N=Ns)
def test_value_below_phi(kind, x, eps, N):
    s = value_function(ENERGIES[kind], point([x], E1), eps, ValueOptions(N=N))
    assert s.V <= s.phi + roundoff(s.phi)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(kind=energies, x=xs, eps=st.floats(0.02, 0.05), ratio=st.floats(1.1, 2.0), N=Ns)
def test_value_nonincreasing_in_eps(kind, x, eps, ratio, N):
    opts = ValueOptions(N=N)
    small = value_function(ENERGIES[kind], point([x], E1), eps, opts)
    large = value_function(ENERGIES[kind], point([x], E1), ratio * eps, opts)
    assert large.V <= small.V + roundoff(small.phi)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(kind=energies, x=xs, eps=st.floats(0.02, 0.04), N=Ns)
def test_backends_agree_to_first_order(kind, x, eps, N):
    T = 25.0 * eps
    sols = [minimize_wed(WedProblem(epsilon=eps, T=T, N=N, space=E1, energy=ENERGIES[kind],
                                    x_bar=point([x], E1), solver=solver))
            for solver in ("direct", "euler_lagrange")]
    U, U_el = (s.trajectory.points for s in sols)
    travel = float(np.max(np.abs(U - U[0])))
    gap = float(np.max(np.abs(U - U_el)))
    assert gap <= (T / N) / eps * travel


def bits(x):
    return struct.pack("<d", x)


ONE_POINT_SPECS = {
    "quadratic": st.builds(lambda a, b: quadratic([[a]], [b]),
                           st.floats(-3.0, -0.01), st.floats(-2.0, 2.0)),
    "convex_quartic": st.just(convex_quartic()),
    "double_well": st.just(double_well()),
    "discrete_dirichlet": st.builds(
        discrete_dirichlet, st.sampled_from([2.0, 3.0, 4.5]), st.floats(0.05, 2.0),
        st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4).filter(any)),
}


def assert_one_point_is_row(spec, u):
    phi, dphi, ddphi = spec.one_point
    U = np.array([[u]])
    for got, want in ((phi(u), eval_many(spec, U)[0]), (dphi(u), grad_many(spec, U)[0, 0]),
                      (ddphi(u), hess_many(spec, U)[0, 0, 0])):
        assert type(got) is float
        assert bits(got) == bits(want)
    x = point([u], E1)
    assert bits(energy_eval(spec, x)) == bits(eval_many(spec, U)[0])
    assert energy_grad(spec, x).tobytes() == grad_many(spec, U)[0].tobytes()


@pytest.mark.parametrize("kind", sorted(ONE_POINT_SPECS))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), u=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-8.0, 8.0)))
def test_one_point_kernels_are_bitwise_row_kernels(kind, data, u):
    assert_one_point_is_row(data.draw(ONE_POINT_SPECS[kind]), u)


@pytest.mark.parametrize("u", [0.0, -0.0])
def test_one_point_kernels_keep_numpy_signed_zeros(u):
    # the row kernels' sums start at 0.0: a -0.0 product comes out as 0.0
    spec = quadratic([[-1.5]], [0.0])
    assert_one_point_is_row(spec, u)
    assert bits(spec.one_point[1](u)) == bits(0.0)


@pytest.mark.parametrize("fn", [energy_eval, energy_grad])
def test_one_point_quadratic_of_another_size_raises(fn):
    with pytest.raises(InvalidInputError, match="dimension mismatch"):
        fn(quadratic(np.eye(2)), point([1.0], E1))
