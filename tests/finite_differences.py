"""The suite's one gradient oracle: central finite differences on a parameter block."""

import numpy as np


def central_differences(params, field, loss_fn, step=1e-5):
    """The gradient of loss_fn() with respect to the block getattr(params, field).

    Each entry of the block is moved by +step and -step in place, loss_fn
    (no arguments; it reads params) is evaluated at both, and the entry is
    put back exactly, so params is unchanged on return.
    """
    live = getattr(params, field)
    out = np.zeros_like(live)
    flat_live, flat_out = live.ravel(), out.ravel()
    base = live.copy().ravel()
    for i in range(base.size):
        flat_live[i] = base[i] + step
        hi = loss_fn()
        flat_live[i] = base[i] - step
        lo = loss_fn()
        flat_live[i] = base[i]
        flat_out[i] = (hi - lo) / (2 * step)
    return out
