"""Reference magnitude recovery for the tests.

``brent_magnitude`` minimizes ||residual - mu a_eta|| over real mu by
scipy's bracketed Brent search on function values alone, the check that
``refine.denormalize``'s closed form is measured against. It shares no
formula with the closed form: only evaluations of the objective.
"""

import math

import numpy as np
from scipy.optimize import minimize_scalar


def brent_magnitude(a_eta, residual) -> float:
    """The mu minimizing ||residual - mu a_eta||, ``a_eta`` nonzero.

    Function-value minimization alone localizes a quadratic minimum only to
    ~sqrt(machine eps), so the Brent result is refined by one
    parabolic-vertex fit on a well-separated stencil (still pure function
    evaluations).
    """
    a_eta, residual = np.asarray(a_eta), np.asarray(residual)
    gram = float(np.vdot(a_eta, a_eta).real)

    def objective(mu: float) -> float:
        diff = residual - mu * a_eta
        return float(np.vdot(diff, diff).real)

    located = float(minimize_scalar(objective, method="brent", options={"xtol": 1e-10}).x)
    mid = objective(located)
    # the three values carry rounding ~eps * objective, which moves the
    # vertex by that over gram * h: widen the stencil until its rise
    # gram * h^2 reaches the floor value, where that shift is smallest
    h = max(max(1.0, abs(located)) * 1e-3, math.sqrt(mid / gram))
    below, mid, above = objective(located - h), objective(located), objective(located + h)
    curvature = below - 2.0 * mid + above
    if curvature <= 0.0:
        return located
    return located + 0.5 * h * (below - above) / curvature
