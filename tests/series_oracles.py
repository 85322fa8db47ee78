"""Reference evaluators that the package itself no longer uses."""

import numpy as np

from gpw.taylor2d import indices


def term_sum(series, x, y):
    """The Taylor polynomial summed term by term: every coefficient times
    its own dx**i * dy**j.  Slow and independent of Horner's nesting."""
    dx = np.asarray(x) - series.center[0]
    dy = np.asarray(y) - series.center[1]
    out = np.zeros(np.broadcast(dx, dy).shape, dtype=complex)
    for (i, j), c in zip(indices(series.order), series.coeffs):
        if c != 0:
            out = out + c * dx**i * dy**j
    return out if out.shape else complex(out)


def term_magnitude(series, x, y):
    """sum |c_ij| |dx|^i |dy|^j: the scale that rounding errors of any
    evaluation order are measured against."""
    dx = np.abs(np.asarray(x) - series.center[0])
    dy = np.abs(np.asarray(y) - series.center[1])
    out = np.zeros(np.broadcast(dx, dy).shape)
    for (i, j), c in zip(indices(series.order), series.coeffs):
        out = out + abs(c) * dx**i * dy**j
    return out
