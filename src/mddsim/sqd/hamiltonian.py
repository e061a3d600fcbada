"""Hamiltonian matrix elements between determinants, and subspace diagonalization.

A determinant is a 0/1 occupation row of length 2*norb: entry p is spatial
orbital p of the alpha sector, entry norb + p orbital p of the beta sector.
A subspace is a (dim, 2*norb) array of such rows, the layout of the sampled
bit strings. The fermionic ordering places all alpha spin orbitals before all
beta spin orbitals, each sector ordered by orbital index, so excitation
parities factorize per sector.

Matrix elements follow the excitation-degree (Slater-Condon) rules for the
Hamiltonian

    H = sum_{pr,s} h_pr a+_{ps} a_{rs}
      + 1/2 sum_{prqs,st} (pr|qs) a+_{ps} a+_{qt} a_{st'} a_{rs'}

with (pr|qs) the chemists'-notation two-electron integrals.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .fcidump import FciData

MAX_DENSE_DIM = 4000

# The Lanczos iteration stops once its Ritz residual is at most a fraction of
# the matrix's largest absolute row sum, a bound on its norm: this one for the
# whole space, _LOOSE_TOL for a batch subspace, before its inverse iteration.
_LANCZOS_TOL = 1e-12
_LOOSE_TOL = 1e-6
# Gaussian with a fixed seed, so that a start (a prefix) has a component in
# every eigenvector, whatever symmetry the ground state has
_LANCZOS_START = np.random.default_rng(0).standard_normal(MAX_DENSE_DIM)
# dim steps span the space, so the iteration takes at most min(dim, this):
# its basis never outgrows the dense limit's matrix
_LANCZOS_STEPS = MAX_DENSE_DIM
# A join block holds at most this many candidate row pairs, 128 KB for each
# of its index arrays at any dimension: small enough to stay in cache
_JOIN_BLOCK = 1 << 14


def all_determinants(norb: int, n_alpha: int, n_beta: int) -> np.ndarray:
    """The full configuration space at fixed per-sector electron counts, as
    uint8 occupation rows: alpha-major, each sector's occupied orbitals in
    ``itertools.combinations`` order."""
    def sector(count):
        combos = np.array(list(combinations(range(norb), count)), dtype=np.intp)
        bits = np.zeros((len(combos), norb), dtype=np.uint8)
        bits[np.arange(len(combos))[:, None], combos.reshape(len(combos), count)] = 1
        return bits

    alpha, beta = sector(n_alpha), sector(n_beta)
    return np.hstack([np.repeat(alpha, len(beta), axis=0), np.tile(beta, (len(alpha), 1))])


def _bit_rows(dets, norb: int) -> np.ndarray:
    """The subspace as an array, after checking that it is nonempty, holds
    integers or booleans, has shape (dim, 2*norb) and only 0/1 values."""
    rows = np.asarray(dets)
    if rows.shape[:1] == (0,):
        raise ValueError("subspace is empty")
    if rows.dtype != bool and not np.issubdtype(rows.dtype, np.integer):
        raise ValueError(f"occupation rows must hold integers or booleans, not {rows.dtype}")
    if rows.ndim != 2 or rows.shape[1] != 2 * norb:
        raise ValueError(f"occupation rows must have shape (dim, {2 * norb}), got {rows.shape}")
    bad = np.flatnonzero(((rows != 0) & (rows != 1)).any(axis=1))
    if bad.size:
        raise ValueError(f"row {bad[0]} {rows[bad[0]].tolist()} holds a value other than 0 or 1")
    return rows


def _check_rows(dets, fci: FciData) -> np.ndarray:
    """The subspace as (dim, 2*norb) int8 bits, after the checks of
    ``_bit_rows``, the dense limit and that every row places n_alpha and
    n_beta electrons in its sectors. With these fixed counts a string pair's
    excitation degree is its electron count less its common occupations.
    Duplicate rows are found by the build, from the rows' string indices."""
    rows = _bit_rows(dets, fci.norb)
    norb = fci.norb
    if len(rows) > MAX_DENSE_DIM:
        raise ValueError(f"subspace dimension {len(rows)} exceeds dense limit {MAX_DENSE_DIM}")
    bits = rows.astype(np.int8)
    bad = np.flatnonzero((bits[:, :norb].sum(axis=1) != fci.n_alpha)
                         | (bits[:, norb:].sum(axis=1) != fci.n_beta))
    if bad.size:
        raise ValueError(f"row {bad[0]} {bits[bad[0]].tolist()} does not place {fci.n_alpha} "
                         f"alpha and {fci.n_beta} beta electrons in {norb} orbitals")
    return bits


def occupation_keys(rows: np.ndarray, norb: int) -> np.ndarray:
    """One uint64 per 0/1 occupation row: its alpha bits above its beta bits,
    each sector's top orbital most significant. Ascending keys are the rows in
    ascending (alpha, beta) bitmask order; 2*norb <= 64 bits fit."""
    shifts = np.concatenate([np.arange(norb, 2 * norb), np.arange(norb)]).astype(np.uint64)
    return (np.asarray(rows).astype(np.uint64) << shifts).sum(axis=1, dtype=np.uint64)


def _positions(bits: np.ndarray, count: int) -> np.ndarray:
    """Ascending indices of the set bits of each row; every row holds ``count``."""
    return np.nonzero(bits)[1].reshape(len(bits), count)


def _parity(bits: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise (-1)^(set bits strictly between orbitals a and b), as floats."""
    orb = np.arange(bits.shape[1])
    lo, hi = np.minimum(a, b)[:, None], np.maximum(a, b)[:, None]
    between = ((orb > lo) & (orb < hi) & (bits != 0)).sum(axis=1)
    return 1.0 - 2.0 * (between % 2)


def _excitation(frm: np.ndarray, to: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise (hole, particle, parity) of a one-orbital difference."""
    hole = np.argmax(frm > to, axis=1)
    part = np.argmax(to > frm, axis=1)
    return hole, part, _parity(frm, hole, part)


# Each element class below adds its terms in the order of the scalar
# Slater-Condon rules that the tests keep as its oracle (tests/helpers.py), so
# every entry is bit-identical to theirs.

def _diagonal_elements(occ_a: np.ndarray, occ_b: np.ndarray, fci: FciData) -> np.ndarray:
    h, eri = fci.h, fci.eri

    def one_body(occ):
        total = np.zeros(len(occ))
        for p in occ.T:
            total = total + h[p, p]
        return total

    energy = one_body(occ_a) + one_body(occ_b)
    for occ in (occ_a, occ_b):
        for k in range(occ.shape[1]):
            p = occ[:, k]
            for q in occ[:, k + 1:].T:
                energy = energy + (eri[p, p, q, q] - eri[p, q, q, p])
    for p in occ_a.T:
        for q in occ_b.T:
            energy = energy + eri[p, p, q, q]
    return energy


def _double_elements(frm: np.ndarray, to: np.ndarray, fci: FciData) -> np.ndarray:
    """Same-sector doubles, signed as two sequential singles."""
    m, n = _positions(frm > to, 2).T
    p, q = _positions(to > frm, 2).T
    rows = np.arange(len(frm))
    intermediate = frm.copy()
    intermediate[rows, m] = 0
    intermediate[rows, p] = 1
    sign = _parity(frm, m, p) * _parity(intermediate, n, q)
    return sign * (fci.eri[m, p, n, q] - fci.eri[m, q, n, p])


class _Sector:
    """One spin sector of a subspace, by its distinct occupation strings.

    ``index`` maps each row to its string and ``occ`` holds each string's
    occupied orbitals. ``pairs[d]`` lists the ordered string pairs (frm, to)
    of excitation degree d = 0, 1, 2, ascending in (frm, to), and
    ``reverse[d]`` the id of each pair's reverse. Over the degree-1 pairs the
    sector tabulates hole, particle and sign, and the single element's
    one-body and same-sector terms; over the degree-2 pairs, the double
    element.
    """

    def __init__(self, bits: np.ndarray, count: int, fci: FciData):
        weights = np.left_shift(1, np.arange(bits.shape[1], dtype=np.int64))
        _, first, self.index = np.unique(bits @ weights, return_index=True, return_inverse=True)
        strings = bits[first]
        self.occ = _positions(strings, count)
        # int8 products are exact below 128 orbitals
        degree = count - strings @ strings.T
        self.pairs = [np.nonzero(degree == d) for d in range(3)]
        n = len(strings)
        self._keys = [frm * n + to for frm, to in self.pairs]
        self.reverse = [np.searchsorted(key, to * n + frm)
                        for key, (frm, to) in zip(self._keys, self.pairs)]
        frm, to = strings[self.pairs[1][0]], strings[self.pairs[1][1]]
        self.hole, self.part, self.sign = _excitation(frm, to)
        self.single = fci.h[self.hole, self.part]
        # a sector without electrons has no pairs, and no common orbitals to list
        for r in _positions(frm & to, max(count - 1, 0)).T:
            self.single = self.single + (fci.eri[self.hole, self.part, r, r]
                                         - fci.eri[self.hole, r, r, self.part])
        self.double = _double_elements(strings[self.pairs[2][0]], strings[self.pairs[2][1]], fci)

    def links(self, degree: int, upper: bool) -> tuple[np.ndarray, np.ndarray]:
        """Per row, the first id and the number of the pairs of this degree
        from its string; if ``upper``, only those to a later string."""
        n = len(self.occ)
        frm = np.arange(n)
        start = np.searchsorted(self._keys[degree], frm * n + (frm + 1 if upper else 0))
        stop = np.searchsorted(self._keys[degree], frm * n + n)
        return start[self.index], (stop - start)[self.index]


def _join(alpha: _Sector, beta: _Sector, d_alpha: int, d_beta: int, row_of: np.ndarray):
    """Every row pair (to, frm), to < frm, whose alpha strings differ in
    ``d_alpha`` orbitals and beta strings in ``d_beta``, with the ids of its
    alpha and beta string pairs from frm to to, yielded as arrays per block of
    consecutive rows. Each row's alpha pairs of degree d_alpha are joined with
    its beta pairs of degree d_beta, and the strings they reach are looked up
    in ``row_of``, which holds dim where no row has them. One sector of
    nonzero degree lists only its pairs to a later string, so each row pair is
    met once, then oriented. A block joins at most ``_JOIN_BLOCK`` pairs, or
    one row's if that row has more."""
    start_a, count_a = alpha.links(d_alpha, upper=d_alpha > 0)
    start_b, count_b = beta.links(d_beta, upper=d_alpha == 0)
    per_row = count_a * count_b
    dim = len(per_row)
    # row r's pairs are candidates first[r] up to ends[r] of the whole join
    ends = np.cumsum(per_row)
    first = ends - per_row
    lo = 0
    while lo < dim:
        hi = max(int(np.searchsorted(ends, first[lo] + _JOIN_BLOCK, side="right")), lo + 1)
        frm = np.repeat(np.arange(lo, hi), per_row[lo:hi])
        k_a, k_b = np.divmod(np.arange(first[lo], ends[hi - 1]) - first[frm], count_b[frm])
        pair_a, pair_b = start_a[frm] + k_a, start_b[frm] + k_b
        to = row_of[alpha.pairs[d_alpha][1][pair_a], beta.pairs[d_beta][1][pair_b]]
        found = to < dim
        to, frm, pair_a, pair_b = to[found], frm[found], pair_a[found], pair_b[found]
        flip = to > frm
        yield (np.where(flip, frm, to), np.where(flip, to, frm),
               np.where(flip, alpha.reverse[d_alpha][pair_a], pair_a),
               np.where(flip, beta.reverse[d_beta][pair_b], pair_b))
        lo = hi


@np.errstate(over="ignore", invalid="ignore")
def _hamiltonian_triplets(dets, fci: FciData) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The subspace matrix, entry [i, j] equal to <dets[i]| H |dets[j]>, as
    int32 rows, int32 columns and values sorted by (row, col): every entry but
    +0.0, the value of each cell left out, so a -0.0 entry is kept.

    A pair's excitation depends only on its pair of alpha strings and its
    pair of beta strings, so each sector tabulates its string pairs of degree
    <= 2 once (``_Sector``). The row pairs of degree <= 2, the nonzero
    pattern, are those string pairs joined across the sectors (``_join``),
    one element class and one block of rows at a time, and each class gathers
    its elements from the tables. Any subset of rows, in any order, builds
    this way. An element that overflows to inf or nan raises ValueError.
    """
    bits = _check_rows(dets, fci)
    norb, dim = fci.norb, len(bits)
    alpha = _Sector(bits[:, :norb], fci.n_alpha, fci)
    beta = _Sector(bits[:, norb:], fci.n_beta, fci)
    cells = alpha.index * len(beta.occ) + beta.index
    order = np.argsort(cells, kind="stable")
    same = np.flatnonzero(cells[order[1:]] == cells[order[:-1]])
    if same.size:
        # the stable sort lists each cell's rows in row order: name the first
        # repeated pair (i, j), i < j, in row-major order
        first = same[np.argmin(order[same])]
        raise ValueError(f"row {order[first + 1]} repeats row {order[first]}: "
                         "determinants must be distinct")
    # each sector has at most dim strings, so the table has at most dim x dim
    # entries; int32 halves it, and dim is below the dense limit
    row_of = np.full((len(alpha.occ), len(beta.occ)), dim, dtype=np.int32)
    row_of[alpha.index, beta.index] = np.arange(dim)
    occ_a, occ_b = alpha.occ[alpha.index], beta.occ[beta.index]

    def single(sector, pair, other):
        hole, part = sector.hole[pair], sector.part[pair]
        value = sector.single[pair]
        for r in other.T:
            value = value + fci.eri[hole, part, r, r]
        return sector.sign[pair] * value

    def mixed(a, b):
        return (alpha.sign[a] * beta.sign[b]
                * fci.eri[alpha.hole[a], alpha.part[a], beta.hole[b], beta.part[b]])

    # <dets[i]| H |dets[j]> excites row j (the "from" side) into row i. An
    # entry's key is row * dim + col, below 2^24 at the dense limit
    keys, values = [], []

    def keep(to, frm, value):
        # +0.0 is the one float whose bits are all zero: -0.0, inf and nan
        # stay. Ids and take beat a boolean mask, whose branches mispredict
        kept = np.flatnonzero(value.view(np.int64))
        to, frm, value = to.take(kept), frm.take(kept), value.take(kept)
        keys.append((to * dim + frm).astype(np.int32))
        values.append(value)
        return to, frm, value

    diagonal = np.arange(dim)
    keep(diagonal, diagonal, _diagonal_elements(occ_a, occ_b, fci))
    for d_alpha, d_beta, element in (
            (1, 0, lambda frm, a, b: single(alpha, a, occ_b[frm])),
            (0, 1, lambda frm, a, b: single(beta, b, occ_a[frm])),
            (2, 0, lambda frm, a, b: alpha.double[a]),
            (0, 2, lambda frm, a, b: beta.double[b]),
            (1, 1, lambda frm, a, b: mixed(a, b))):
        for to, frm, a, b in _join(alpha, beta, d_alpha, d_beta, row_of):
            to, frm, value = keep(to, frm, element(frm, a, b))
            keys.append((frm * dim + to).astype(np.int32))
            values.append(value)
    # sorted as key * 2^32 + entry id, in place: an int64 sort is faster than
    # an argsort. Each name is rebound as soon as it can be, freeing the
    # array it held
    values = np.concatenate(values)
    if not np.isfinite(values).all():
        raise ValueError("the subspace Hamiltonian is not finite: integrals too large")
    keys = np.concatenate(keys, dtype=np.int64)
    keys <<= 32
    keys |= np.arange(len(keys))
    keys.sort()
    values = values.take(keys & 0xFFFFFFFF)
    keys >>= 32
    keys = keys.astype(np.int32)
    # a floor division by one integer is vectorized, where divmod is not
    rows = keys // dim
    return rows, keys - rows * dim, values


class SpaceHamiltonian:
    """The Hamiltonian on the span of ``dets``, built once, on ``dim`` rows.
    ``triplets`` holds its entries as (row, col, value) arrays sorted by
    (row, col), rows and columns in the row order of ``dets``: every entry the
    build writes but +0.0, the value of each cell they leave out.

    The matrix of a subspace spanned by some of these rows is gathered from
    its rows' triplets instead of being built again. A pair's element does
    not depend on which of its rows comes first when the integrals are
    exactly 8-fold symmetric, as parsed ones are (each record sets its whole
    permutation orbit), so the gather is then bitwise the build in the
    subspace's own row order, signed zeros included. An element that
    overflows to inf or nan raises ValueError here, so no gathered one can.
    """

    def __init__(self, dets, fci: FciData):
        self.fci = fci
        self.triplets = _hamiltonian_triplets(dets, fci)
        keys = occupation_keys(dets, fci.norb)
        self.dim = len(keys)
        self._order = np.argsort(keys)
        self._keys = keys[self._order]
        # row r's triplets are those from _starts[r] up to _starts[r + 1]
        self._starts = np.searchsorted(self.triplets[0], np.arange(self.dim + 1, dtype=np.int32))

    def submatrix(self, dets) -> np.ndarray:
        """The matrix of the subspace spanned by ``dets``, a (dim, 2*norb)
        array of distinct 0/1 rows that are all in the space, in their order:
        zeros, with each of their rows' triplets whose column is one of their
        rows written in place."""
        rows = _bit_rows(dets, self.fci.norb)
        keys = occupation_keys(rows, self.fci.norb)
        at = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
        bad = np.flatnonzero(self._keys[at] != keys)
        if bad.size:
            raise ValueError(f"row {bad[0]} {rows[bad[0]].tolist()} is not a determinant "
                             "of the space the Hamiltonian was built on")
        order = np.argsort(at, kind="stable")
        same = np.flatnonzero(at[order[1:]] == at[order[:-1]])
        if same.size:
            raise ValueError(f"row {order[same[0] + 1]} repeats row {order[same[0]]}: "
                             "determinants must be distinct")
        idx = self._order[at]
        k = len(idx)
        # each space row's position in the subspace, k where it has none
        position = np.full(self.dim, k, dtype=np.int32)
        position[idx] = np.arange(k)
        start = self._starts[idx]
        count = self._starts[idx + 1] - start
        ends = np.cumsum(count)
        # the ids of their rows' triplets, row by row; take gathers faster
        # than fancy indexing
        entry = np.repeat(start - ends + count, count)
        entry += np.arange(len(entry))
        _, cols, values = self.triplets
        col = position.take(cols.take(entry))
        inside = np.flatnonzero(col < k)
        matrix = np.zeros(k * k)
        matrix[np.repeat(np.arange(0, k * k, k), count).take(inside) + col.take(inside)] = \
            values.take(entry.take(inside))
        return matrix.reshape(k, k)

    def ground_state(self) -> tuple[float, np.ndarray]:
        """Ground eigenpair of the whole space: the lowest eigenvalue
        including the core energy, and a unit ground vector in the row order
        the space was built in, by :func:`_lanczos_ground` on the nonzero
        triplets. Raises ValueError if the iteration does not converge."""
        rows, cols, values = self.triplets
        nonzero = np.flatnonzero(values)
        # each product indexes by them: intp saves a cast per step
        value, vector = _lanczos_ground(rows[nonzero].astype(np.intp),
                                        cols[nonzero].astype(np.intp), values[nonzero], self.dim)
        return float(value + self.fci.core_energy), vector


def _lanczos_ground(rows: np.ndarray, cols: np.ndarray, values: np.ndarray,
                    dim: int) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of the symmetric dim x dim matrix whose nonzero
    entries are ``values`` at (``rows``, ``cols``): the :func:`_lanczos` Ritz
    pair to ``_LANCZOS_TOL``, with products summed row by row by
    ``np.bincount`` and each basis vector orthogonalized twice."""
    # scaled by a power of two, which is exact, so that its entries lie below
    # 1 in magnitude and no sum or norm of the iteration under- or overflows
    exponent = np.frexp(np.abs(values).max(initial=0.0))[1]
    values = np.ldexp(values, -exponent)
    bound = np.bincount(rows, weights=np.abs(values), minlength=dim).max()
    theta, vector = _lanczos(lambda v: np.bincount(rows, weights=values * v[cols], minlength=dim),
                             dim, _LANCZOS_TOL * bound, passes=2)
    return float(np.ldexp(theta, exponent)), vector


@np.errstate(invalid="ignore")  # a NaN raises ValueError in _lanczos, without a warning first
def _dense_ground(matrix: np.ndarray) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of the symmetric ``matrix``, which it overwrites.
    Scaled as in :func:`_lanczos_ground` and centred on its mean diagonal, so
    that one orthogonalization pass keeps the basis orthogonal, H gives a loose
    :func:`_lanczos` pair (theta, u); x = (H - theta I)^-1 u, normalized, and
    its Rayleigh quotient are exact to roundoff."""
    dim = len(matrix)
    exponent = np.frexp(np.abs(matrix).max())[1]
    matrix = np.ldexp(matrix, -exponent, out=matrix)
    centre = matrix.trace() / dim
    matrix.flat[::dim + 1] -= centre
    tol = _LOOSE_TOL * np.abs(matrix).sum(axis=1).max()
    theta, vector = _lanczos(matrix.__matmul__, dim, tol, passes=1)
    matrix.flat[::dim + 1] -= theta
    try:
        vector = np.linalg.solve(matrix, vector)
        vector /= math.sqrt(vector @ vector)
    except np.linalg.LinAlgError:
        pass  # theta is an eigenvalue to the last bit, with the Ritz vector its eigenvector
    return float(np.ldexp(centre + theta + vector @ (matrix @ vector), exponent)), vector


@np.errstate(invalid="ignore")  # a NaN raises ValueError below, without a warning first
def _lanczos(product, dim: int, tol: float, passes: int) -> tuple[float, np.ndarray]:
    """Lowest Ritz pair (value, unit vector) of the symmetric dim x dim
    operator ``product`` (v -> H v), whose entries lie below 1 in magnitude,
    by Lanczos iteration from ``_LANCZOS_START``: the same bytes on every call.

    Each new basis vector is orthogonalized against the whole basis
    ``passes`` times. The iteration stops once the Ritz residual, |beta|
    times the last entry of the tridiagonal's ground vector (``eigh``), is at
    most ``tol``; a breakdown, when the basis spans an invariant subspace,
    meets that at once. It is checked at step 20, 8 steps later, then where
    the residual's geometric fall between the last two checks meets ``tol``
    (at most half the steps so far later), and at a breakdown. It raises
    ValueError on a value that is not finite (a NaN or infinite entry), or
    with no convergence after min(dim, ``_LANCZOS_STEPS``) steps.
    """
    # grown by doubling: a dim x dim basis up front slows later allocations
    basis = np.empty((min(dim, 32), dim))
    basis[0] = _LANCZOS_START[:dim] / np.linalg.norm(_LANCZOS_START[:dim])
    alphas, betas = [], []
    steps, check, last = min(dim, _LANCZOS_STEPS), 20, None
    for k in range(steps):
        done = basis[:k + 1]
        w = product(done[k])
        for n in range(passes):
            overlaps = done @ w
            if n == 0:
                alphas.append(overlaps[k])
            w = w - overlaps @ done
        beta = math.sqrt(w @ w)
        if not math.isfinite(beta):
            raise ValueError("the Lanczos iteration met a value that is not finite")
        if beta <= tol or k + 1 in (check, steps):
            theta, ritz = np.linalg.eigh(np.diag(alphas) + np.diag(betas, -1))  # reads L only
            residual = beta * abs(ritz[-1, 0])
            if residual <= tol:
                vector = ritz[:, 0] @ done
                return theta[0], vector / math.sqrt(vector @ vector)
            if k + 1 == steps:
                break
            ahead = (math.log(tol / residual) / math.log(residual / last[1]) * (k - last[0])
                     if last and residual < last[1] else 8)
            last, check = (k, residual), k + 1 + min(max(math.ceil(ahead), 2), (k + 1) // 2)
        betas.append(beta)
        if k + 1 == len(basis):
            basis = np.vstack([basis, np.empty((min(len(basis), dim - len(basis)), dim))])
        np.divide(w, beta, out=basis[k + 1])
    raise ValueError(f"the Lanczos ground state did not converge in {len(alphas)} steps")


def project_and_diagonalize(dets, space: SpaceHamiltonian) -> tuple[float, np.ndarray]:
    """Ground eigenpair of the Hamiltonian projected on the subspace spanned
    by ``dets``, a (dim, 2*norb) array of distinct 0/1 occupation rows (bool
    or any integer dtype), all in the span of ``space``.

    The k x k subspace matrix, the only dense array of the solve, is gathered
    from the triplets of ``space``; build that once, on the rows themselves
    or on a space that holds them. Returns the lowest
    eigenvalue including the core energy and the normalized ground
    eigenvector in the row basis. Enlarging the subspace can only lower the
    returned energy (variational).

    Only the lowest eigenpair is computed, by :func:`_dense_ground`. The
    vector's sign is arbitrary, and for a degenerate ground state it is some
    unit vector in the ground eigenspace.

    The recovery loop calls it on each batch subspace. The reference ground
    state of the whole space is :meth:`SpaceHamiltonian.ground_state`, whose
    sparse Lanczos iteration costs far less than this dense solve there.
    """
    energy, vector = _dense_ground(space.submatrix(dets))
    return energy + space.fci.core_energy, vector
