"""Sparse idiosyncratic covariance estimation by generalized thresholding.

Off-diagonal entries of the sample residual covariance are shrunk by a
hard, soft or SCAD rule at the entry-adaptive level

    tau_ij = C * sqrt(s_ii * s_jj) * omega,   omega = sqrt(log N / T) + 1/sqrt(N),

which amounts to a constant threshold on correlations.  Diagonal entries
are never touched.

Each rule's formula is written once (`_shrink`).  Soft and SCAD run only
on the entries with |s| > tau (NaNs included).  Every zero of the result
is +0.0, whichever rule made it, so every entry off the diagonal and the
connected blocks below is +0.0.

No symmetrizing average (S + S')/2 is taken.  S = U U'/T is computed from
one contiguous U, which numpy hands to BLAS syrk: one triangle is computed
and mirrored, so S is exactly symmetric.  tau_ij = tau_ji bit for bit, so
the thresholded matrix is exactly symmetric too, and the average would
return it unchanged.

The thresholded matrix is sparse, and after a permutation it and its
inverse are block-diagonal over the connected components of its nonzero
pattern.  Its eigenvalues and inverse are computed one block at a time,
which is exact (Mazumder & Hastie 2012); a dense, connected matrix is one
block.  Each matrix's partition is found once, by whoever made it: the
thresholding pass labels the estimate's (`SparseCovariance.partition`),
the block helpers require one, and `_blocks` scans only a matrix that
comes without it.  The inverse computes eigenvalues only when a Cholesky
test finds that some block's smallest one may be at or below its
eigenvalue floor.  The blocks' inverses are kept apart (`_inverse_blocks`).
The estimate and its inverse are +0.0 off the partition's blocks and
diagonal, so each is read row by row as its block members and the values
there (`_parts`); the `cov` command writes both files that way, without an
N-length row or the dense inverse.  A block of consecutive indices is read
and written as a slice view, not gathered (`_block_index`), with the same
bits.

`sparse_idio_cov` and `invert_sparse_cov` return new arrays.  Their private
forms (`_sample_cov`, `_threshold_rows`, `_invert_into`) write into N x N
arrays that the caller gives, with the same bits, so a caller that makes
many estimates (the covariance study) can form S once and threshold it at
each C into one reused buffer.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateDataError, DimensionError, NumericalWarning

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


@dataclass(frozen=True, eq=False)  # holds arrays: == is identity, and hash() works
class SparseCovariance:
    """Thresholded residual covariance with its construction metadata."""

    sigma_u: np.ndarray        # N x N symmetric
    omega: float               # omega_NT used in the thresholds
    nonzero_offdiag: int
    partition: tuple | None = None  # `_blocks(sigma_u)`, from the thresholding pass

    def sparsity_m(self, q: float) -> float:
        """Row-wise sparsity diagnostic max_i sum_j |sigma_ij|^q (0^0 := 0); q >= 0 (NaN raises ValueError).

        Taken over row blocks, so the temporaries are row blocks; a row's
        sum does not depend on the block that holds it.
        """
        if not q >= 0:  # NaN fails too
            raise ValueError(f"sparsity exponent q must be non-negative, got {q}")
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

    Every zero of the result is +0.0, whatever the sign of s.
    """
    scalar = np.isscalar(s) or np.ndim(s) == 0
    s, tau = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(tau, dtype=float))
    if not np.all(tau >= 0):  # NaN fails too
        raise ValueError("threshold must be non-negative, not NaN")
    out = np.empty(s.shape)
    _shrink(s, tau, rule, out)
    return float(out) if scalar else out


def _shrink(s: np.ndarray, tau: np.ndarray, rule: ThresholdRule, out: np.ndarray):
    """Write h(s, tau) into `out` (s's shape; it may be s); return the flat indices of the kept entries and h there.

    Hard keeps |s| >= tau; soft and SCAD keep |s| > tau and NaN, and their
    formula runs on the kept entries alone, with the bits of the
    whole-array computation.  Every other entry, and every kept entry
    whose h is zero (hard's exact zeros at tau = 0), is +0.0; NaN signs and
    nonzero bits are the formula's.
    """
    a_s = np.abs(s)
    kept = np.flatnonzero(a_s >= tau if rule.kind == "hard" else ~(a_s <= tau))
    # numpy's 0-d arithmetic may give a NaN another sign than its array loops
    s_k, tau_k = (s.ravel()[kept], tau.ravel()[kept]) if s.ndim else (s, tau)
    if rule.kind == "hard":
        values = s_k
    else:
        a_s, sign = np.abs(s_k), np.sign(s_k)
        values = sign * np.maximum(a_s - tau_k, 0.0)
        if rule.kind == "scad":
            a = rule.scad_a
            mid = ((a - 1.0) * s_k - sign * a * tau_k) / (a - 2.0)
            values = np.where(a_s <= 2.0 * tau_k, values, np.where(a_s <= a * tau_k, mid, s_k))
    values = np.where(values == 0, 0.0, values)
    out.fill(0.0)
    out.ravel()[kept] = values
    return kept, values


def sparse_idio_cov(residuals_hat: np.ndarray, rule: ThresholdRule) -> SparseCovariance:
    """Thresholded covariance of estimated residuals (N x T input).

    The result is exactly symmetric.  A residual array that is neither C-
    nor F-contiguous (a strided view) is copied to C order first, because
    numpy multiplies such a view by general gemm, whose S = U U' is not
    exactly symmetric.  Its S may then differ from the view's product in
    the last bits.
    """
    S, d, omega = _sample_cov(residuals_hat)
    partition = _threshold_rows(S, d, omega, rule, S)
    return SparseCovariance(S, omega, int(np.count_nonzero(S)) - S.shape[0], partition)


def _sample_cov(residuals_hat: np.ndarray, out: np.ndarray | None = None):
    """(S = U U'/T, its diagonal d, omega) of N x T residuals; S is written into `out` (C-contiguous N x N) if given.

    numpy hands U U' to syrk with or without `out`, so both give the same
    bits, and S is exactly symmetric.
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
    return S, d, float(np.sqrt(np.log(n) / t) + 1.0 / np.sqrt(n))


def _threshold_rows(S: np.ndarray, d: np.ndarray, omega: float, rule: ThresholdRule, out: np.ndarray):
    """Write S thresholded by `rule` into `out` (C-contiguous N x N, or S itself); return its `_blocks` partition.

    S is an exactly symmetric `_sample_cov` with diagonal d.  Row block by
    row block, so tau and the temporaries are row blocks; the nonzeros of
    each block's upper triangle (every edge: the result is symmetric) are
    hooked into the component labels while the block is in cache.
    """
    n = S.shape[0]
    labels = np.arange(n)
    step = max(1, _BLOCK_ENTRIES // n)
    buffer = np.empty((min(step, n), n))  # tau of one row block, formed in place
    for i in range(0, n, step):
        rows = slice(i, i + step)
        tau = np.multiply.outer(d[rows], d, out=buffer[: min(step, n - i)])
        np.sqrt(tau, out=tau)
        tau *= rule.constant_C
        tau *= omega
        kept, values = _shrink(S[rows], tau, rule, out[rows])
        lo, hi = np.divmod(kept[values != 0], n)
        lo += i
        upper = lo < hi
        labels = _components(labels, lo[upper], hi[upper])
    np.fill_diagonal(out, d)
    return _partition(labels)


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
    lo, hi = lo[upper], hi[upper]  # the full lists are freed before the hooking
    return _partition(_components(np.arange(n), lo, hi))


def _join(first, second, n: int) -> tuple[list[np.ndarray], np.ndarray]:
    """`_blocks((a != 0) | (b != 0))` for n x n matrices a and b, from `first = _blocks(a)` and `second = _blocks(b)`.

    The union's components join the two partitions: they are those of the
    at most 2n edges that link each block's smallest member to the others.
    """
    blocks = first[0] + second[0]
    lo = np.repeat(np.array([b[0] for b in blocks], dtype=np.intp), [b.size - 1 for b in blocks])
    hi = np.concatenate([np.empty(0, dtype=np.intp), *(b[1:] for b in blocks)])
    return _partition(_components(np.arange(n), lo, hi))


def _components(labels: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """`labels` (each node's smallest fellow member so far, np.arange(n) at first) after the edges lo[k] -- hi[k].

    Each round hooks every root to the smallest root it shares an edge with
    and then compresses the pointers until each node points at its root, so
    a root is always the smallest member of its tree.  Edges inside one tree
    are dropped, and the rounds end when no edge is left.  `labels` may be
    changed.
    """
    while lo.size:
        np.minimum.at(labels, labels[hi], labels[lo])
        while True:
            up = labels[labels]
            if np.array_equal(up, labels):
                break
            labels = up
        lo, hi = labels[lo], labels[hi]
        keep = lo != hi
        lo, hi = np.minimum(lo[keep], hi[keep]), np.maximum(lo[keep], hi[keep])
    return labels


def _partition(labels: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """`_blocks`' result from component labels: the blocks of more than one member, and the singletons."""
    sizes = np.bincount(labels, minlength=labels.size)
    blocks = [np.flatnonzero(labels == k) for k in np.flatnonzero(sizes > 1)]
    return blocks, np.flatnonzero(sizes[labels] == 1)


def _block_index(b: np.ndarray):
    """Index of block b x b (b sorted): two slices, a view, if b is a run of consecutive indices, else np.ix_(b, b).

    numpy's linalg copies its input into its own buffer, so a view gives the
    gathered block's bits; a caller that modifies the block copies it first.
    """
    return (slice(b[0], b[-1] + 1),) * 2 if b[-1] - b[0] + 1 == b.size else np.ix_(b, b)


def _sym_opnorm(e: np.ndarray, partition) -> float:
    """Spectral norm of a symmetric matrix: its largest |eigenvalue|, block by block over `partition`.

    Exact for `_blocks(e)` and for any partition whose blocks each hold
    whole components of e's pattern, such as that of a pattern containing e's.
    """
    blocks, singles = partition
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


def _inverse_blocks(sigma: np.ndarray, partition):
    """The inverse of a symmetric `sigma` over its partition `_blocks(sigma)`, repaired as in `invert_sparse_cov`.

    Returns (blocks, inverses, singles, inverse_singles): the partition,
    the inverse of each block (in the order of its members), and the
    inverse's diagonal at the singletons.  The inverse is zero everywhere
    else.  Each block is read (`_block_index`), copied if shifted, and
    inverted one at a time.  The shift's warning names the caller of this
    helper's caller.
    """
    d = np.diagonal(sigma)
    mean_diag = float(np.mean(d))
    eig_floor = 1e-6 * mean_diag
    if not eig_floor > 0:
        raise DegenerateDataError(
            f"covariance mean diagonal {mean_diag:.3g} <= 0: no diagonal shift makes it positive definite"
        )
    blocks, singles = partition
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
                stacklevel=3,
            )
    inverses = []
    for b in blocks:
        s = sigma[_block_index(b)]
        if shift:
            s = s.copy()  # never shift sigma's own entries through a view
            s[np.diag_indices_from(s)] += shift
        inverses.append(np.linalg.inv(s))  # numpy, not scipy.linalg: one BLAS (see tests/test_covariance.py)
    return blocks, inverses, singles, 1.0 / (d[singles] + shift)


def _parts(partition, block_row, diagonal):
    """Row by row, (columns, values) of a symmetric matrix that is +0.0 off its partition's blocks and diagonal.

    Row i, the r-th member of block k, is (the block's members,
    `block_row(k, r)`); the m-th singleton's row is ([its index],
    `diagonal[m : m + 1]`).  The values are read when their row is reached.
    """
    blocks, singles = partition
    where = [None] * (singles.size + sum(b.size for b in blocks))
    for k, b in enumerate(blocks):
        columns = b.tolist()
        for r, i in enumerate(columns):
            where[i] = (columns, k, r)
    for m, i in enumerate(singles.tolist()):
        where[i] = ([i], None, m)
    for columns, k, m in where:
        yield columns, diagonal[m : m + 1] if k is None else block_row(k, m)


def _estimate_parts(cov: SparseCovariance):
    """`_parts` of a thresholded estimate over its own partition, read from sigma_u."""
    sigma, (blocks, singles) = cov.sigma_u, cov.partition
    return _parts(cov.partition, lambda k, r: sigma[blocks[k][r], blocks[k]], np.diagonal(sigma)[singles])


def _inverse_parts(sigma: np.ndarray, partition):
    """`_parts` of `invert_sparse_cov(sigma)` from `_inverse_blocks(sigma, partition)`.

    The blocks are inverted, and any shift warned about, before this returns.
    """
    blocks, inverses, singles, inverse_singles = _inverse_blocks(sigma, partition)
    return _parts((blocks, singles), lambda k, r: inverses[k][r], inverse_singles)


def invert_sparse_cov(cov: SparseCovariance | np.ndarray) -> np.ndarray:
    """Inverse of a thresholded covariance, repaired to be positive definite.

    Thresholding does not guarantee positive definiteness; if the smallest
    eigenvalue is at or below a floor of 1e-6 times the mean diagonal, the
    diagonal is shifted up by (floor - lambda_min) before inverting, with a
    warning.  A mean diagonal at or below zero leaves no positive floor and
    raises DegenerateDataError; a non-square matrix raises DimensionError.
    The reported covariance itself is never modified.  The inverse is
    computed on the connected blocks of the nonzero pattern (an estimate's
    own partition), so entries outside the blocks are exact zeros.

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
    if isinstance(cov, SparseCovariance):
        sigma, partition = cov.sigma_u, cov.partition
    else:
        sigma, partition = np.asarray(cov, dtype=float), None
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise DimensionError(f"covariance must be a square matrix, got shape {sigma.shape}")
    partition = _blocks(sigma) if partition is None else partition
    return _invert_into(_inverse_blocks(sigma, partition), np.empty_like(sigma))


def _invert_into(inverse, out: np.ndarray) -> np.ndarray:
    """Write the N x N inverse whose blocks `_inverse_blocks` returned (`inverse`) into `out`; returns `out`."""
    blocks, inverses, singles, inverse_singles = inverse
    out.fill(0.0)
    out[singles, singles] = inverse_singles
    for b, inverse in zip(blocks, inverses):
        out[_block_index(b)] = inverse
    return out
