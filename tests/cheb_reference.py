"""Reference evaluator for Chebyshev series in the tests.

The backward Clenshaw recurrence: O(degree) steps, each vectorized over
the points. It shares no code with the library's barycentric evaluator,
so the two check each other.
"""

import numpy as np


def clenshaw_eval(series, x):
    """Evaluate ``series`` at ``x`` (scalar or array, |x| <= 1)."""
    xs = float(x) if np.isscalar(x) else np.asarray(x, dtype=float)
    if np.any(np.abs(xs) > 1.0 + 1e-12):
        raise ValueError("clenshaw_eval requires |x| <= 1")
    c = series.coefficients.tolist()
    b1 = b2 = 0.0
    for k in range(len(c) - 1, 0, -1):
        b1, b2 = c[k] + 2.0 * xs * b1 - b2, b1
    return c[0] + xs * b1 - b2
