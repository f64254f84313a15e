"""Property tests of the solver invariants on a convex and a nonconvex energy.

* V(x) <= phi(x): the constant trajectory already costs phi(x);
* V is nonincreasing in eps: on the default value grid (exp_graded, horizon
  25 eps, fixed N) the nodes scale with eps, and in rescaled time only the
  kinetic weight 1/(2 eps) changes, so the discrete V is monotone too;
* the direct and Euler-Lagrange backends, two first-order discretizations,
  agree within (dt/eps) x (distance travelled), at T = 10 eps and 25 eps.
  Near the double-well hilltop that bound holds for eps up to about 0.04 at
  these N: the largest gap sits at the horizon end, where the direct solver's
  truncation and the Euler-Lagrange window differ, and it outgrows the bound
  from eps = 0.045.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wedflow import (
    InvalidInputError, SpaceSpec, ValueOptions, WedProblem, convex_quartic, double_well,
    energy_eval, minimize_wed, point, quadratic, value_function,
)
from wedflow.energies import grad_many

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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kind=energies, x=xs, eps=st.floats(0.02, 0.04), N=Ns,
       horizon=st.sampled_from([10.0, 25.0]))
def test_backends_agree_to_first_order(kind, x, eps, N, horizon):
    # at T = 10 eps the Euler-Lagrange window, T + 8 eps, is 18 eps long
    T = horizon * eps
    sols = [minimize_wed(WedProblem(epsilon=eps, T=T, N=N, space=E1, energy=ENERGIES[kind],
                                    x_bar=point([x], E1), solver=solver))
            for solver in ("direct", "euler_lagrange")]
    U, U_el = (s.trajectory.points for s in sols)
    travel = float(np.max(np.abs(U - U[0])))
    gap = float(np.max(np.abs(U - U_el)))
    assert gap <= (T / N) / eps * travel


@pytest.mark.parametrize("fn", [energy_eval, lambda spec, x: grad_many(spec, x.coords[None])[0]],
                         ids=["energy_eval", "energy_grad"])
def test_quadratic_of_another_size_raises(fn):
    with pytest.raises(InvalidInputError, match="dimension mismatch"):
        fn(quadratic(np.eye(2)), point([1.0], E1))
