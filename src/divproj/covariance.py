"""Sparse idiosyncratic covariance estimation by generalized thresholding.

Off-diagonal entries of the sample residual covariance are shrunk by a
hard, soft or SCAD rule at the entry-adaptive level

    tau_ij = C * sqrt(s_ii * s_jj) * omega,   omega = sqrt(log N / T) + 1/sqrt(N),

which amounts to a constant threshold on correlations.  Diagonal entries
are never touched.

Each rule's formula is written once (`_shrink`).  Soft and SCAD run only
on the entries with |s| > tau (NaNs included).  Every zero of the result
is +0.0, whichever rule made it.

The thresholded matrix is sparse, and after a permutation it and its
inverse are block-diagonal over the connected components of its nonzero
pattern (Mazumder & Hastie 2012).  So the estimate, its inverse and the
covariance study's truth are held as their blocks (`_Blocks`): each
block's ascending members and submatrix, and the singletons' indices and
diagonal.  A dense, connected matrix is one block.

One pass (`_estimates`) forms S = U U'/T from U an upper row block at a
time (`U[rows] @ U[i:].T / T`), thresholds each row block at every rule it is given,
hooks the kept edges into that rule's component labels, and builds each
estimate's blocks once its partition is known, so no N x N array is made.
The diagonal is U's squared row norms over T.  Each kept entry above the
diagonal is mirrored below it, so the estimate is exactly symmetric.

The callers use four operations of the block type: the dense matrix
(`dense`; `SparseCovariance.sigma_u` builds it on request), its rows as
the `cov` writers take them (`rows`), the repaired inverse (`inverse`) and
W' Sigma W (`sandwich`).  The inverse computes eigenvalues only when a
Cholesky test finds that some block's smallest one may be at or below its
eigenvalue floor.  `_blocks` partitions only a matrix that comes as a raw
array.  A block of consecutive indices is read and written as a slice
view, not gathered (`_block_index`), with the same bits.

The covariance study's spectral norms (`_sym_opnorm`) come block by
block: from a certified Lanczos iteration (`_lanczos_norm`) on a block of
at least `_LANCZOS_MIN` members, and from all its eigenvalues otherwise.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateDataError, DimensionError, NumericalWarning, _warn

KINDS = ("hard", "soft", "scad")
_BLOCK_ENTRIES = 1 << 16  # entries per row block of the thresholding pass
# Blocks of at least this many members take `_lanczos_norm` in `_sym_opnorm`.  On the
# covariance study's error blocks at one BLAS thread, Lanczos took 1.7x the time of
# `eigvalsh` at 100 members, 0.9x at 125, 0.8x at 150 and 0.3x at 300.
_LANCZOS_MIN = 150
_LANCZOS_STEPS = 100  # its iteration cap
_LANCZOS_SEED = 0  # of its start vector


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
class _Blocks:
    """A symmetric matrix that is +0.0 off its blocks and its diagonal, held as those.

    blocks : each block's ascending members, ordered by their smallest (`_partition`)
    values : each block's submatrix, in the order of its members
    singles : the other indices, ascending
    diagonal : the matrix's whole diagonal
    """

    blocks: list
    values: list
    singles: np.ndarray
    diagonal: np.ndarray

    def dense(self, out: np.ndarray | None = None, subtract: bool = False) -> np.ndarray:
        """The N x N matrix, written into `out` if given; with `subtract`, out minus the matrix, in place."""
        out = np.empty((self.diagonal.size,) * 2) if out is None else out
        if not subtract:
            out.fill(0.0)
        for idx, v in [((self.singles,) * 2, self.diagonal[self.singles]),
                       *((_block_index(b), v) for b, v in zip(self.blocks, self.values))]:
            out[idx] = out[idx] - v if subtract else v
        return out

    def rows(self):
        """Row by row, (columns, values): a block member's block and its row there, or a singleton's [i] and d_i.

        The values are read when their row is reached.
        """
        where = {i: ([i], self.diagonal, i) for i in range(self.diagonal.size)}  # in index order
        for b, v in zip(self.blocks, self.values):
            columns = b.tolist()
            where.update({i: (columns, v, r) for r, i in enumerate(columns)})
        for columns, v, r in where.values():
            yield columns, v[r] if v.ndim == 2 else v[r : r + 1]

    def inverse(self) -> _Blocks:
        """The inverse, repaired as in `invert_sparse_cov`.

        The Cholesky gate and the shift work on copies of the blocks, so the
        matrix keeps its bits.
        """
        mean_diag = float(np.mean(self.diagonal))
        floor = 1e-6 * mean_diag
        if not floor > 0:
            raise DegenerateDataError(
                f"covariance mean diagonal {mean_diag:.3g} <= 0: no diagonal shift makes it positive definite"
            )
        shift = 0.0
        if not self._above(floor):
            lam_min = float(min([self.diagonal[self.singles].min(initial=np.inf)]
                                + [np.linalg.eigvalsh(v)[0] for v in self.values]))
            if lam_min <= floor:
                shift = floor - lam_min
                _warn(f"covariance smallest eigenvalue {lam_min:.3g} <= floor {floor:.3g}; shifting "
                      f"diagonal by {shift:.3g} before inversion", NumericalWarning)
        inverses, diagonal = [], 1.0 / (self.diagonal + shift)
        for b, v in zip(self.blocks, self.values):
            if shift:
                v = v.copy()
                v[np.diag_indices_from(v)] += shift
            inverses.append(np.linalg.inv(v))  # numpy, not scipy.linalg: one BLAS (see tests/test_covariance.py)
            diagonal[b] = np.diagonal(inverses[-1])
        return _Blocks(self.blocks, inverses, self.singles, diagonal)

    def _above(self, floor: float) -> bool:
        """True when every singleton's diagonal exceeds `floor` and every block minus floor*I has a Cholesky factor.

        The floor is taken off the diagonal of one copy of each block at a time.
        """
        if not np.all(self.diagonal[self.singles] > floor):
            return False
        try:
            for v in self.values:
                s = v.copy()
                s[np.diag_indices_from(s)] -= floor
                np.linalg.cholesky(s)
        except np.linalg.LinAlgError:
            return False
        return True

    def sandwich(self, w: np.ndarray) -> np.ndarray:
        """W' M W for an N x R matrix W, block by block: O(sum |b|^2 R + N R^2)."""
        v = (w[self.singles].T * self.diagonal[self.singles]) @ w[self.singles]
        for b, m in zip(self.blocks, self.values):
            v += w[b].T @ (m @ w[b])
        return v


@dataclass(frozen=True, eq=False)  # holds arrays: == is identity, and hash() works
class SparseCovariance:
    """Thresholded residual covariance, held as its blocks, with its construction metadata."""

    estimate: _Blocks
    omega: float               # omega_NT used in the thresholds
    nonzero_offdiag: int

    @property
    def sigma_u(self) -> np.ndarray:
        """The N x N symmetric estimate, built on each access."""
        return self.estimate.dense()

    def sparsity_m(self, q: float) -> float:
        """Row-wise sparsity diagnostic max_i sum_j |sigma_ij|^q (0^0 := 0); q >= 0 (NaN raises ValueError).

        Taken block by block: a member's row sums over its block's members,
        in ascending order, and a singleton's row is |d_i|^q.
        """
        if not q >= 0:  # NaN fails too
            raise ValueError(f"sparsity exponent q must be non-negative, got {q}")
        power = (lambda x: x != 0) if q == 0 else (lambda x: np.abs(x) ** q)
        e = self.estimate
        return float(max([power(e.diagonal[e.singles]).max(initial=0), *(power(v).sum(1).max() for v in e.values)]))


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
    out = np.zeros(s.shape)
    np.put(out, *_shrink(s, tau, rule))
    return float(out) if scalar else out


def _shrink(s: np.ndarray, tau: np.ndarray, rule: ThresholdRule):
    """(flat indices of the entries of s that `rule` keeps at tau, of s's shape, and h(s, tau) there).

    Hard keeps |s| >= tau; soft and SCAD keep |s| > tau and NaN, and their
    formula runs on the kept entries alone, with the bits of the
    whole-array computation.  h is +0.0 at every other entry, and a kept
    entry whose h is zero (hard's exact zeros at tau = 0) is +0.0 too; NaN
    signs and nonzero bits are the formula's.
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
    return kept, np.where(values == 0, 0.0, values)


def sparse_idio_cov(residuals_hat: np.ndarray, rule: ThresholdRule) -> SparseCovariance:
    """Thresholded covariance of estimated residuals (N x T input), held as its blocks.

    The result is exactly symmetric.  A residual array that is neither C-
    nor F-contiguous (a strided view) is copied to C order first, so that
    each row block's product runs in BLAS.
    """
    (e,), omega = _estimates(residuals_hat, [rule])
    return SparseCovariance(e, omega, sum(np.count_nonzero(v) - b.size for b, v in zip(e.blocks, e.values)))


def _estimates(residuals_hat: np.ndarray, rules) -> tuple[list[_Blocks], float]:
    """(the estimate at each rule, as `_Blocks`; omega) of N x T residuals, from one pass over S's upper row blocks."""
    U = np.atleast_2d(np.asarray(residuals_hat, dtype=float))
    if not (U.flags.c_contiguous or U.flags.f_contiguous):
        U = np.ascontiguousarray(U)
    n, t = U.shape
    if t < 2:
        raise DegenerateDataError("need at least two time periods")
    d = np.einsum("it,it->i", U, U) / t
    if not np.all(d > 0):  # a NaN variance would give NaN thresholds
        bad = int(np.argmin(d))
        raise DegenerateDataError(f"residual variance of series {bad} is not positive ({d[bad]:.3g})")
    omega = float(np.sqrt(np.log(n) / t) + 1.0 / np.sqrt(n))
    step = max(1, _BLOCK_ENTRIES // n)  # S[i : i + step, i:], divided by T in place
    upper_rows = ((i, operator.itruediv(U[i : i + step] @ U[i:].T, t)) for i in range(0, n, step))
    return _threshold(upper_rows, d, omega, rules), omega


def _threshold(row_blocks, d: np.ndarray, omega: float, rules) -> list[_Blocks]:
    """`_Blocks` of a symmetric S with diagonal d, thresholded at each rule, from its row blocks (i, S[i : i + k, i:]).

    A row block holds at most max(`_BLOCK_ENTRIES`, N) entries.  It is
    thresholded at every rule, and is not written to; its tau is formed in
    one reused buffer.  Its nonzeros above the diagonal are the edges: they
    are hooked into that rule's component labels while the block is in
    cache, and kept with their values until the partition is known
    (`_assemble`).
    """
    labels, edges = [np.arange(d.size) for _ in rules], [[] for _ in rules]
    work = np.empty((2, max(_BLOCK_ENTRIES, d.size)))  # each row block's sqrt(d_i d_j) and tau, reused
    for i, s in row_blocks:
        root, tau = (w[: s.size].reshape(s.shape) for w in work)
        np.sqrt(np.multiply.outer(d[i : i + s.shape[0]], d[i:], out=root), out=root)
        above = (np.arange(s.shape[1]) > np.arange(s.shape[0])[:, None]).ravel()
        for k, rule in enumerate(rules):
            np.multiply(root, rule.constant_C, out=tau)
            tau *= omega
            kept, values = _shrink(s, tau, rule)
            upper = above[kept] & (values != 0)
            kept, values = kept[upper], values[upper]
            labels[k] = _components(labels[k], *(j + i for j in np.divmod(kept, s.shape[1])))
            edges[k].append((i, s.shape[1], kept.astype(np.min_scalar_type(s.size - 1)), values))
    del work, root, tau  # before the blocks are built
    return [_assemble(lab, e, d) for lab, e in zip(labels, edges)]


def _assemble(labels: np.ndarray, edges, d: np.ndarray) -> _Blocks:
    """The `_Blocks` of component labels, diagonal d, and the edges above the diagonal, one upper row block at a time.

    A row block S[i : i + k, i : i + w] gives (i, w, its edges' flat
    indices in the block, in the smallest unsigned type that holds them,
    their values).  The blocks' submatrices are views of one buffer, into
    which each row block's edges are written and mirrored.
    """
    blocks, singles = _partition(labels)
    buffer = np.zeros(sum(b.size**2 for b in blocks))
    pos, at, values, offset = np.zeros_like(labels), np.zeros_like(labels), [], 0
    for b in blocks:
        pos[b] = np.arange(b.size)  # a member's place in its block
        at[b] = offset + b.size * pos[b]  # where its row starts in the buffer
        values.append(buffer[offset : offset + b.size**2].reshape(b.size, b.size))
        np.fill_diagonal(values[-1], d[b])
        offset += b.size**2
    while edges:  # the last (narrowest) row block first, each freed once written
        i, width, places, x = edges.pop()
        lo, hi = (j + i for j in np.divmod(places.astype(np.intp), width))
        buffer[at[lo] + pos[hi]] = x
        buffer[at[hi] + pos[lo]] = x
    return _Blocks(blocks, values, singles, d)


def _as_blocks(a: np.ndarray) -> _Blocks:
    """A square matrix as `_Blocks` over its partition `_blocks(a)`; a block of consecutive indices is a view of `a`."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"covariance must be a square matrix, got shape {a.shape}")
    blocks, singles = _blocks(a)
    return _Blocks(blocks, [a[_block_index(b)] for b in blocks], singles, np.diagonal(a).copy())


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

    A block of at least `_LANCZOS_MIN` members is gathered into a
    contiguous array and takes `_lanczos_norm`; a smaller block, or one
    whose norm Lanczos does not certify, takes all its eigenvalues
    (`eigvalsh`).  So a view of a block and a gathered copy give the same
    bits.  A certified norm is within 1e-14 of its size of an eigenvalue of
    the block.  It is not proved to be the extreme one: a small residual
    shows that theta is near *some* eigenvalue, and a start vector nearly
    orthogonal to the extreme eigenvector could miss it for many steps.
    """
    blocks, singles = partition
    norm = np.abs(np.diagonal(e)[singles]).max(initial=0.0)
    for b in blocks:
        block = e[_block_index(b)]
        top = _lanczos_norm(np.ascontiguousarray(block)) if b.size >= _LANCZOS_MIN else None
        if top is None:
            w = np.linalg.eigvalsh(block)
            top = max(-w[0], w[-1])
        norm = max(norm, top)
    return float(norm)


def _lanczos_norm(a: np.ndarray) -> float | None:
    """The largest |eigenvalue| of the symmetric n x n array a by Lanczos, or None when it is not certified.

    Lanczos starts from `_LANCZOS_SEED`'s first n normal draws, which have
    no symmetry (a persymmetric block's skew-symmetric eigenvectors are
    orthogonal to a symmetric start), and orthogonalizes each new vector
    twice against all the earlier ones.  Every fourth step k, and at the
    last, the Ritz values of the k x k tridiagonal are computed; the one
    largest in absolute value, theta, is returned once its residual
    beta_k |s_k| (s its eigenvector) is at most 1e-14 |theta|, and at k = n,
    where the Ritz values are a's eigenvalues.  None after
    `_LANCZOS_STEPS` steps, or at a breakdown (beta_k ~ 0 with k < n), where
    the Krylov space is invariant and may hold no extreme eigenvector.
    """
    n = a.shape[0]
    steps = min(_LANCZOS_STEPS, n)
    q, t = np.empty((steps, n)), np.zeros((steps, steps))  # the Lanczos vectors, and the tridiagonal
    start = np.random.default_rng(_LANCZOS_SEED).standard_normal(n)
    q[0] = start / np.linalg.norm(start)
    scale = 0.0  # the largest entry of the tridiagonal so far, at most ||a||
    for k in range(1, steps + 1):
        w = a @ q[k - 1]
        t[k - 1, k - 1] = q[k - 1] @ w
        for _ in range(2):
            w -= q[:k].T @ (q[:k] @ w)
        beta = np.linalg.norm(w)
        scale = max(scale, abs(t[k - 1, k - 1]))
        if not beta > 1e-14 * scale and k < n:  # a NaN block falls back too
            return None
        scale = max(scale, beta)
        if k % 4 == 0 or k == steps:
            theta, s = np.linalg.eigh(t[:k, :k])
            j = 0 if -theta[0] > theta[-1] else -1
            if k == n or beta * abs(s[-1, j]) <= 1e-14 * abs(theta[j]):
                return float(abs(theta[j]))
        if k < steps:
            q[k] = w / beta
            t[k - 1, k] = t[k, k - 1] = beta
    return None


def invert_sparse_cov(cov: SparseCovariance | np.ndarray) -> np.ndarray:
    """Inverse of a thresholded covariance, repaired to be positive definite.

    Thresholding does not guarantee positive definiteness; if the smallest
    eigenvalue is at or below a floor of 1e-6 times the mean diagonal, the
    diagonal is shifted up by (floor - lambda_min) before inverting, with a
    warning.  A mean diagonal at or below zero leaves no positive floor and
    raises DegenerateDataError; a non-square matrix raises DimensionError.
    The reported covariance itself is never modified.  The inverse is
    computed on the connected blocks of the nonzero pattern (an estimate's
    own blocks), so entries outside the blocks are exact zeros.

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
    blocks = cov.estimate if isinstance(cov, SparseCovariance) else _as_blocks(np.asarray(cov, dtype=float))
    return blocks.inverse().dense()
