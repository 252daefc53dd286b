"""The lasso objective after each coordinate-descent sweep, rebuilt outside the solver."""

import numpy as np

from divproj.inference import _cd_lasso


def objective_path(G, c, y2_mean, tau, max_iter=1000):
    """Run `_cd_lasso` capped at k = 1, 2, ... sweeps until a capped run converges
    or k reaches `max_iter`.

    The solver is deterministic and its sweep order does not depend on
    `max_iter`, so the iterate of the run capped at k sweeps is the
    uncapped run's iterate after sweep k.  Returns (gamma, objectives,
    converged) of the last run, where objectives[k - 1] is
    mean(y^2) - 2 c'g + g'Gg + tau ||g||_1 after sweep k.
    """
    objectives = []
    for k in range(1, max_iter + 1):
        gamma, converged = _cd_lasso(G, c, tau, max_iter=k)
        objectives.append(float(y2_mean - 2.0 * (c @ gamma) + gamma @ (G @ gamma) + tau * np.sum(np.abs(gamma))))
        if converged:
            break
    return gamma, objectives, converged
