"""Sparse idiosyncratic covariance estimation by generalized thresholding.

Off-diagonal entries of the sample residual covariance are shrunk by a
hard, soft or SCAD rule at the entry-adaptive level

    tau_ij = C * sqrt(s_ii * s_jj) * omega,   omega = sqrt(log N / T) + 1/sqrt(N),

which amounts to a constant threshold on correlations.  Diagonal entries
are never touched.

The soft and SCAD formulas run only on the entries with |s| > tau (NaNs
included); the others are set to sign(s) * 0.0, the signed zero that the
formula gives them.

No symmetrizing average (S + S')/2 is taken.  S = U U'/T is computed from
one contiguous U, which numpy hands to BLAS syrk: one triangle is computed
and mirrored, so S is exactly symmetric.  tau_ij = tau_ji bit for bit, so
the thresholded matrix is exactly symmetric too, and the average would
return it unchanged, signed zeros included.

The thresholded matrix is sparse, and after a permutation it is
block-diagonal over the connected components of its nonzero pattern.  Its
eigenvalues and its inverse are computed one block at a time, which is
exact (Mazumder & Hastie 2012); a dense, connected matrix is one block.
The inverse computes eigenvalues only when a Cholesky test finds that some
block's smallest one may be at or below its eigenvalue floor.  The blocks'
inverses are kept apart (`_inverse_blocks`), so a caller that writes the
inverse row by row never holds it as a dense N x N array.  An operator
norm may be taken over a coarser partition, one whose blocks hold whole
components, such as the join of two patterns' partitions (`_join`), so one
partition can serve several matrices, and a caller may pass on a partition
it has.  A block of consecutive indices is read and written as a slice
view, not gathered (`_block_index`), with the same bits.

`sparse_idio_cov` and `invert_sparse_cov` return new arrays.  Their private
forms, `_threshold_cov` and `_invert_into`, write into an N x N array that
the caller gives, with the same bits, so a caller that makes many
estimates (the covariance study) can reuse its buffers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateDataError, NumericalWarning

KINDS = ("hard", "soft", "scad")
_BLOCK_ENTRIES = 1 << 16  # entries per row block of the thresholding loop


@dataclass(frozen=True)
class ThresholdRule:
    """Thresholding family with its constants.

    kind : 'hard', 'soft' or 'scad'
    constant_C : scale of the correlation threshold (C in tau_ij), at least 0 (not NaN)
    scad_a : SCAD shape, finite and above 2; 3.7 is the canonical value
    """

    kind: str = "scad"
    constant_C: float = 2.0
    scad_a: float = 3.7

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown thresholding kind {self.kind!r}")
        if not self.constant_C >= 0:  # NaN fails too
            raise ValueError(f"constant_C must be non-negative, got {self.constant_C}")
        if not 2 < self.scad_a < np.inf:
            raise ValueError(f"scad_a must be finite and exceed 2, got {self.scad_a}")


@dataclass(frozen=True)
class SparseCovariance:
    """Thresholded residual covariance with its construction metadata."""

    sigma_u: np.ndarray        # N x N symmetric
    omega: float               # omega_NT used in the thresholds
    nonzero_offdiag: int

    @property
    def n_series(self) -> int:
        return self.sigma_u.shape[0]

    def sparsity_m(self, q: float) -> float:
        """Row-wise sparsity diagnostic max_i sum_j |sigma_ij|^q (0^0 := 0).

        Taken over row blocks, so the temporaries are row blocks; a row's
        sum does not depend on the block that holds it.
        """
        sigma = self.sigma_u
        per_row = np.empty(sigma.shape[0])
        step = max(1, _BLOCK_ENTRIES // sigma.shape[1])
        for i in range(0, sigma.shape[0], step):
            block = sigma[i : i + step]
            per_row[i : i + step] = (
                np.count_nonzero(block, axis=1) if q == 0 else np.sum(np.abs(block) ** q, axis=1)
            )
        return float(np.max(per_row))


def threshold_value(s, tau, rule: ThresholdRule):
    """Apply the generalized thresholding function h(s, tau) element-wise; tau >= 0 (NaN raises ValueError).

    hard:  s * 1{|s| >= tau}
    soft:  sign(s) * max(|s| - tau, 0)
    scad:  soft for |s| <= 2 tau, a linear interpolation on (2 tau, a tau],
           and the identity beyond a*tau (no shrinkage of large entries)
    """
    scalar = np.isscalar(s) or np.ndim(s) == 0
    s = np.asarray(s, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if not np.all(tau >= 0):  # NaN fails too
        raise ValueError("threshold must be non-negative, not NaN")
    a_s = np.abs(s)
    if rule.kind == "hard":
        out = np.where(a_s >= tau, s, 0.0)
    else:
        # Both rules give sign(s) * 0.0 wherever |s| <= tau.  The rule runs
        # only on the other entries (NaNs among them), with the operations it
        # would apply to the whole array, so every bit is the whole-array one.
        keep = ~(a_s <= tau)
        out = np.sign(s, out=np.empty(keep.shape))
        out *= 0.0
        if keep.ndim:  # numpy's 0-d arithmetic may give a NaN another sign than its array loops
            s, tau = (x[keep] for x in np.broadcast_arrays(s, tau))
        a_s = np.abs(s)
        sign = np.sign(s)
        soft = sign * np.maximum(a_s - tau, 0.0)
        if rule.kind == "soft":
            out[keep] = soft
        else:
            a = rule.scad_a
            mid = ((a - 1.0) * s - sign * a * tau) / (a - 2.0)
            out[keep] = np.where(a_s <= 2.0 * tau, soft, np.where(a_s <= a * tau, mid, s))
    return float(out) if scalar else out


def sparse_idio_cov(residuals_hat: np.ndarray, rule: ThresholdRule) -> SparseCovariance:
    """Thresholded covariance of estimated residuals (N x T input).

    The result is exactly symmetric.  A residual array that is neither C-
    nor F-contiguous (a strided view) is copied to C order first, because
    numpy multiplies such a view by general gemm, whose S = U U' is not
    exactly symmetric.  Its S may then differ from the view's product in
    the last bits.
    """
    return _threshold_cov(residuals_hat, rule)


def _threshold_cov(residuals_hat: np.ndarray, rule: ThresholdRule, out: np.ndarray | None = None) -> SparseCovariance:
    """`sparse_idio_cov`, with S written into `out` (a C-contiguous float N x N array) when one is given.

    numpy hands U U' to syrk with or without `out`, so both give the same
    bits.  The result's `sigma_u` is `out` itself.
    """
    U = np.atleast_2d(np.asarray(residuals_hat, dtype=float))
    if not (U.flags.c_contiguous or U.flags.f_contiguous):
        U = np.ascontiguousarray(U)
    n, t = U.shape
    if t < 2:
        raise DegenerateDataError("need at least two time periods")
    S = np.matmul(U, U.T, out=out)
    S /= t
    d = np.diag(S).copy()
    if not np.all(d > 0):  # a NaN variance would give NaN thresholds
        bad = int(np.argmin(d))
        raise DegenerateDataError(
            f"residual variance of series {bad} is not positive ({d[bad]:.3g})"
        )
    omega = float(np.sqrt(np.log(n) / t) + 1.0 / np.sqrt(n))
    # Threshold S in place, a row block at a time, so that tau and the rule's
    # temporaries are row blocks rather than N x N arrays.
    step = max(1, _BLOCK_ENTRIES // n)
    for i in range(0, n, step):
        rows = slice(i, i + step)
        tau = rule.constant_C * np.sqrt(np.outer(d[rows], d)) * omega
        S[rows] = threshold_value(S[rows], tau, rule)
    np.fill_diagonal(S, d)
    nonzero = int(np.count_nonzero(S)) - n
    return SparseCovariance(sigma_u=S, omega=omega, nonzero_offdiag=nonzero)


def _blocks(a: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Connected components of the nonzero pattern of the square matrix `a`.

    Returns the index arrays of the components with more than one member,
    ordered by their smallest member, and the indices of the singletons.
    After a symmetric permutation `a` is block-diagonal over the former and
    diagonal on the latter.
    """
    n = a.shape[0]
    pattern = a != 0
    pattern |= pattern.T  # an entry in either triangle links its row and column
    # np.flatnonzero of a boolean array is about 10x faster than a 2-D np.nonzero
    lo, hi = np.divmod(np.flatnonzero(pattern), n)
    upper = lo < hi  # one direction per edge
    return _components(n, lo[upper], hi[upper])


def _join(first, second, n: int) -> tuple[list[np.ndarray], np.ndarray]:
    """`_blocks((a != 0) | (b != 0))` for n x n matrices a and b, from `first = _blocks(a)` and `second = _blocks(b)`.

    The union's components join the two partitions: they are those of the
    at most 2n edges that link each block's smallest member to the others.
    """
    blocks = first[0] + second[0]
    lo = np.repeat(np.array([b[0] for b in blocks], dtype=np.intp), [b.size - 1 for b in blocks])
    return _components(n, lo, np.concatenate([np.empty(0, dtype=np.intp), *(b[1:] for b in blocks)]))


def _components(n: int, lo: np.ndarray, hi: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """`_blocks`' result for the graph on n nodes with the edges lo[k] < hi[k].

    Each round hooks every root to the smallest root it shares an edge with
    and then compresses the pointers until each node points at its root, so
    a root is always the smallest member of its tree.  Edges inside one tree
    are dropped, and the rounds end when no edge is left.
    """
    labels = np.arange(n)
    while lo.size:
        np.minimum.at(labels, hi, lo)
        while True:
            up = labels[labels]
            if np.array_equal(up, labels):
                break
            labels = up
        lo, hi = labels[lo], labels[hi]
        keep = lo != hi
        lo, hi = np.minimum(lo[keep], hi[keep]), np.maximum(lo[keep], hi[keep])
    sizes = np.bincount(labels, minlength=n)
    blocks = [np.flatnonzero(labels == k) for k in np.flatnonzero(sizes > 1)]
    return blocks, np.flatnonzero(sizes[labels] == 1)


def _block_index(b: np.ndarray):
    """Index of block b x b (b sorted): two slices, a view, if b is a run of consecutive indices, else np.ix_(b, b).

    numpy's linalg copies its input into its own buffer, so a view gives the
    gathered block's bits; a caller that modifies the block copies it first.
    """
    return (slice(b[0], b[-1] + 1),) * 2 if b[-1] - b[0] + 1 == b.size else np.ix_(b, b)


def _sym_opnorm(e: np.ndarray, partition=None) -> float:
    """Spectral norm of a symmetric matrix: its largest |eigenvalue|, block by block.

    `partition` is a `_blocks` result to use in place of `_blocks(e)`.  It
    is exact for any partition whose blocks each hold whole components of
    e's pattern, such as that of a pattern containing e's.
    """
    blocks, singles = _blocks(e) if partition is None else partition
    norm = np.abs(np.diagonal(e)[singles]).max(initial=0.0)
    for b in blocks:
        w = np.linalg.eigvalsh(e[_block_index(b)])
        norm = max(norm, -w[0], w[-1])
    return float(norm)


def _above_floor(sigma: np.ndarray, singles: np.ndarray, blocks: list[np.ndarray], floor: float) -> bool:
    """True when every singleton's diagonal exceeds `floor` and every block minus floor*I has a Cholesky factor.

    The floor is taken off the diagonal of one copy of each block at a time.
    """
    if not np.all(np.diagonal(sigma)[singles] > floor):
        return False
    try:
        for b in blocks:
            idx = _block_index(b)
            s = sigma[idx].copy() if isinstance(idx[0], slice) else sigma[idx]
            s[np.diag_indices_from(s)] -= floor
            np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        return False
    return True


def _inverse_blocks(sigma: np.ndarray, stacklevel: int = 3, partition=None):
    """The inverse of a symmetric `sigma` by connected blocks, repaired as in `invert_sparse_cov`.

    Returns (blocks, inverses, singles, inverse_singles): the `_blocks`
    partition, the inverse of each block (in the order of its members),
    and the inverse's diagonal at the singletons.  The inverse is zero
    everywhere else.  `partition`, if given, is `_blocks(sigma)`.  Each
    block is read (`_block_index`), copied if shifted, and inverted one at
    a time.  The shift's warning is raised at `stacklevel`; the default
    names the caller of this helper's caller.
    """
    d = np.diagonal(sigma)
    mean_diag = float(np.mean(d))
    eig_floor = 1e-6 * mean_diag
    if not eig_floor > 0:
        raise DegenerateDataError(
            f"covariance mean diagonal {mean_diag:.3g} <= 0: no diagonal shift makes it positive definite"
        )
    blocks, singles = _blocks(sigma) if partition is None else partition
    shift = 0.0
    if not _above_floor(sigma, singles, blocks, eig_floor):
        lam_min = float(min([d[singles].min(initial=np.inf)]
                            + [np.linalg.eigvalsh(sigma[_block_index(b)])[0] for b in blocks]))
        if lam_min <= eig_floor:
            shift = eig_floor - lam_min
            warnings.warn(
                f"covariance smallest eigenvalue {lam_min:.3g} <= floor {eig_floor:.3g}; "
                f"shifting diagonal by {shift:.3g} before inversion",
                NumericalWarning,
                stacklevel=stacklevel,
            )
    inverses = []
    for b in blocks:
        s = sigma[_block_index(b)]
        if shift:
            s = s.copy()  # never shift sigma's own entries through a view
            s[np.diag_indices_from(s)] += shift
        inverses.append(np.linalg.inv(s))  # numpy, not scipy.linalg: one BLAS (see tests/test_covariance.py)
    return blocks, inverses, singles, 1.0 / (d[singles] + shift)


def _inverse_rows(sigma: np.ndarray):
    """The rows of `invert_sparse_cov(sigma)`, one at a time, built from `_inverse_blocks`.

    The blocks are inverted, and any shift warned about, before this returns.
    """
    n = sigma.shape[0]
    blocks, inverses, singles, inverse_singles = _inverse_blocks(sigma)
    parts = [None] * n  # row i: (its columns, their values)
    for b, inverse in zip(blocks, inverses):
        for i, values in zip(b.tolist(), inverse):
            parts[i] = (b, values)
    for i, value in zip(singles.tolist(), inverse_singles):
        parts[i] = (i, value)

    def rows():
        for columns, values in parts:
            row = np.zeros(n)
            row[columns] = values
            yield row

    return rows()


def invert_sparse_cov(cov: SparseCovariance | np.ndarray) -> np.ndarray:
    """Inverse of a thresholded covariance, repaired to be positive definite.

    Thresholding does not guarantee positive definiteness; if the smallest
    eigenvalue is at or below a floor of 1e-6 times the mean diagonal, the
    diagonal is shifted up by (floor - lambda_min) before inverting, with a
    warning.  A mean diagonal at or below zero leaves no positive floor and
    raises DegenerateDataError.  The reported covariance itself is never
    modified.  The inverse is computed on the connected blocks of the
    nonzero pattern, so entries outside the blocks are exact zeros.

    The eigenvalues are computed only when the matrix fails a Cholesky
    gate: every singleton above the floor, and a Cholesky factor of every
    block minus floor*I.  When the gate passes, lambda_min is above the
    floor up to rounding, and no shift is made.  When it fails, lambda_min
    is computed and tested as described above.  So the result can differ
    from that of the eigenvalue test alone only when some block's
    lambda_min lies within rounding of the floor: the gate may then pass
    where the computed lambda_min would have asked for a shift no larger
    than that rounding.
    """
    sigma = cov.sigma_u if isinstance(cov, SparseCovariance) else np.asarray(cov, dtype=float)
    return _invert_into(sigma, np.empty_like(sigma))


def _invert_into(sigma: np.ndarray, out: np.ndarray, partition=None) -> np.ndarray:
    """Write `invert_sparse_cov(sigma)` into `out`, an N x N float array, from `_inverse_blocks`; returns `out`.

    `partition`, if given, is `_blocks(sigma)`.  The shift's warning names
    the caller of this helper's caller.
    """
    blocks, inverses, singles, inverse_singles = _inverse_blocks(sigma, stacklevel=4, partition=partition)
    out.fill(0.0)
    out[singles, singles] = inverse_singles
    for b, inverse in zip(blocks, inverses):
        out[_block_index(b)] = inverse
    return out
