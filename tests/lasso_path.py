"""Reference lasso solvers rebuilt outside the library: the objective after each
coordinate-descent sweep, and the homotopy path solved from scratch at every kink."""

import numpy as np

from divproj import projection
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


def _below(x, lam):
    """x where x < lam, else -inf (NaN included)."""
    return np.where(x < lam, x, -np.inf)


def reference_homotopy(G, c, tau):
    """The homotopy lasso path of `inference._homotopy_lasso`, solved from scratch at every kink.

    Each kink calls `projection._solve_gram` on G_AA with the right-hand
    sides (c_A, s_A), where the library keeps G_AA^{-1} from kink to kink.
    Returns g at lambda = tau/2, or None after 4N kinks; a singular G_AA
    raises SingularGramError.
    """
    n = c.size
    gamma = np.zeros(n)
    lam_end = tau / 2.0
    lam = float(np.max(np.abs(c), initial=0.0))
    if lam <= lam_end:
        return gamma
    joined = int(np.argmax(np.abs(c)))
    active, signs = [joined], [float(np.sign(c[joined]))]
    rows = np.empty((min(n, 16), n))  # rows[:len(active)] is G[A]
    rows[0] = G[joined]
    left = left_sign = -1
    for _ in range(4 * n):
        A = np.array(active, dtype=int)
        GA = rows[: A.size]
        u, d = projection._solve_gram(GA[:, A], np.transpose([c[A], signs]), strict=True).T
        # On this stretch g_A = u - lambda d and c - G g = b + lambda a.
        a = d @ GA
        b = c - u @ GA
        with np.errstate(divide="ignore", invalid="ignore"):
            up = _below(b / (1.0 - a), lam)  # c_j - G_j g reaches +lambda
            down = _below(-b / (1.0 + a), lam)  # ... or -lambda
            drops = _below(u / d, lam)
        up[A] = down[A] = -np.inf
        # The event of the last kink sits at the current lambda: skip it.
        if left >= 0:
            (up if left_sign > 0 else down)[left] = -np.inf
        if joined >= 0:
            drops[active.index(joined)] = -np.inf
        hits = np.maximum(up, down)
        j_in, k_out = int(np.argmax(hits)), int(np.argmax(drops))
        lam_next = max(hits[j_in], drops[k_out])
        if lam_next <= lam_end:
            gamma[A] = u - lam_end * d
            return gamma
        lam = lam_next
        if drops[k_out] >= hits[j_in]:
            left, left_sign, joined = active.pop(k_out), signs.pop(k_out), -1
            if not active:  # only rounding can empty A below max|c|
                return None
            rows[k_out : A.size - 1] = rows[k_out + 1 : A.size]
        else:
            joined, left = j_in, -1
            active.append(j_in)
            signs.append(float(np.sign(b[j_in] + lam * a[j_in])))
            if A.size == rows.shape[0]:
                rows = np.concatenate([rows, np.empty_like(rows)])
            rows[A.size] = G[j_in]
    return None
