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

from itertools import combinations

import numpy as np

from .._lazy import lazy_import
from .fcidump import FciData

MAX_DENSE_DIM = 4000

# The Lanczos ground state stops once its Ritz residual is at most this
# fraction of the matrix's largest absolute row sum, a bound on its norm.
_LANCZOS_TOL = 1e-12
_LANCZOS_SEED = 0  # of the Gaussian start vector
# dim steps span the space, so the iteration takes at most min(dim, this):
# its basis never outgrows the dense limit's matrix
_LANCZOS_STEPS = MAX_DENSE_DIM

linalg = lazy_import("scipy.linalg")  # the eigh of subspaces and of Lanczos' tridiagonal


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


def _join(alpha: _Sector, beta: _Sector, d_alpha: int, d_beta: int,
          row_of: np.ndarray) -> tuple[np.ndarray, ...]:
    """Every row pair (to, frm), to < frm, whose alpha strings differ in
    ``d_alpha`` orbitals and beta strings in ``d_beta``, with the ids of its
    alpha and beta string pairs from frm to to. Each row's alpha pairs of
    degree d_alpha are joined with its beta pairs of degree d_beta, and the
    strings they reach are looked up in ``row_of``, which holds dim where no
    row has them. One sector of nonzero degree lists only its pairs to a later
    string, so each row pair is met once, then oriented."""
    start_a, count_a = alpha.links(d_alpha, upper=d_alpha > 0)
    start_b, count_b = beta.links(d_beta, upper=d_alpha == 0)
    per_row = count_a * count_b
    dim = len(per_row)
    frm = np.repeat(np.arange(dim), per_row)
    k_a, k_b = np.divmod(np.arange(len(frm)) - np.repeat(np.cumsum(per_row) - per_row, per_row),
                         count_b[frm])
    pair_a, pair_b = start_a[frm] + k_a, start_b[frm] + k_b
    to = row_of[alpha.pairs[d_alpha][1][pair_a], beta.pairs[d_beta][1][pair_b]]
    found = to < dim
    to, frm, pair_a, pair_b = to[found], frm[found], pair_a[found], pair_b[found]
    flip = to > frm
    return (np.where(flip, frm, to), np.where(flip, to, frm),
            np.where(flip, alpha.reverse[d_alpha][pair_a], pair_a),
            np.where(flip, beta.reverse[d_beta][pair_b], pair_b))


@np.errstate(over="ignore", invalid="ignore")
def _hamiltonian_matrix(dets, fci: FciData) -> np.ndarray:
    """Dense subspace matrix, entry [i, j] equal to <dets[i]| H |dets[j]>.

    A pair's excitation depends only on its pair of alpha strings and its
    pair of beta strings, so each sector tabulates its string pairs of degree
    <= 2 once (``_Sector``). The row pairs of degree <= 2, the nonzero
    pattern, are those string pairs joined across the sectors (``_join``),
    one element class at a time, and each class gathers its elements from
    the tables. Any subset of rows, in any order, builds this way. A matrix
    that overflows to inf or nan raises ValueError.
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

    rows = np.arange(dim)
    entries = [(rows, rows, _diagonal_elements(occ_a, occ_b, fci))]
    for d_alpha, d_beta, element in (
            (1, 0, lambda frm, a, b: single(alpha, a, occ_b[frm])),
            (0, 1, lambda frm, a, b: single(beta, b, occ_a[frm])),
            (2, 0, lambda frm, a, b: alpha.double[a]),
            (0, 2, lambda frm, a, b: beta.double[b]),
            (1, 1, lambda frm, a, b: mixed(a, b))):
        to, frm, a, b = _join(alpha, beta, d_alpha, d_beta, row_of)
        entries.append((to, frm, element(frm, a, b)))
    # allocated once the joins' temporaries are freed, so that they never
    # coexist with it
    matrix = np.zeros((dim, dim))
    # <dets[i]| H |dets[j]> excites row j (the "from" side) into row i
    for to, frm, values in entries:
        if not np.isfinite(values).all():
            raise ValueError("the subspace Hamiltonian is not finite: integrals too large")
        matrix[to, frm] = matrix[frm, to] = values
    return matrix


class SpaceHamiltonian:
    """The Hamiltonian on the span of ``dets``, built once; ``matrix`` is the
    dense matrix in the row order of ``dets``.

    The matrix of a subspace spanned by some of these rows is gathered from
    it, ``matrix.take(idx, 0).take(idx, 1)``, instead of being built again. A
    pair's element does not depend on which of its rows comes first when the
    integrals are exactly 8-fold symmetric, as parsed ones are (each record
    sets its whole permutation orbit), so the gather is then bitwise the build
    in the subspace's own row order. A matrix that overflows to inf or nan
    raises ValueError here, so no gathered one can.
    """

    def __init__(self, dets, fci: FciData):
        self.fci = fci
        self.matrix = _hamiltonian_matrix(dets, fci)
        keys = occupation_keys(dets, fci.norb)
        self._order = np.argsort(keys)
        self._keys = keys[self._order]

    def submatrix(self, dets) -> np.ndarray:
        """The matrix of the subspace spanned by ``dets``, a (dim, 2*norb)
        array of distinct 0/1 rows that are all in the space, in their order."""
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
        return self.matrix.take(idx, 0).take(idx, 1)

    def ground_state(self) -> tuple[float, np.ndarray]:
        """Ground eigenpair of the whole space: the lowest eigenvalue
        including the core energy, and a unit ground vector in the row order
        the space was built in, by :func:`_lanczos_ground` on the matrix's
        nonzeros. Raises ValueError if the iteration does not converge."""
        rows, cols = np.divmod(np.flatnonzero(self.matrix != 0), len(self.matrix))
        value, vector = _lanczos_ground(rows, cols, self.matrix[rows, cols], len(self.matrix))
        return float(value + self.fci.core_energy), vector


@np.errstate(invalid="ignore")  # a NaN raises ValueError below, without a warning first
def _lanczos_ground(rows: np.ndarray, cols: np.ndarray, values: np.ndarray,
                    dim: int) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of the symmetric dim x dim matrix whose nonzero
    entries are ``values`` at (``rows``, ``cols``), by Lanczos iteration.

    The start vector is Gaussian with a fixed seed, so it has a component in
    every eigenvector, whatever symmetry the ground state has, and the result
    is the same bytes on every call. Each product sums the entries row by row
    with ``np.bincount``, and each new basis vector is orthogonalized against
    the whole basis twice. The iteration stops once the Ritz residual, |beta|
    times the last entry of the tridiagonal's ground vector, is at most
    ``_LANCZOS_TOL`` times the largest absolute row sum; a breakdown, when
    the basis spans an invariant subspace, meets that at once. It raises
    ValueError if it meets a value that is not finite (a NaN or infinite
    entry), or has not converged after min(dim, ``_LANCZOS_STEPS``) steps.
    """
    # scaled by a power of two, which is exact, so that its entries lie below
    # 1 in magnitude and no sum or norm of the iteration under- or overflows
    exponent = np.frexp(np.abs(values).max(initial=0.0))[1]
    values = np.ldexp(values, -exponent)
    scale = np.bincount(rows, weights=np.abs(values), minlength=dim).max()
    start = np.random.default_rng(_LANCZOS_SEED).standard_normal(dim)
    basis = (start / np.linalg.norm(start))[None, :]
    alphas, betas = [], []
    for _ in range(min(dim, _LANCZOS_STEPS)):
        w = np.bincount(rows, weights=values * basis[-1][cols], minlength=dim)
        overlaps = basis @ w
        alphas.append(overlaps[-1])
        w = w - overlaps @ basis
        w = w - (basis @ w) @ basis
        beta = np.linalg.norm(w)
        if not np.isfinite(beta):
            raise ValueError("the Lanczos iteration met a value that is not finite")
        theta, ritz = linalg.eigh_tridiagonal(alphas, betas, select="i", select_range=(0, 0))
        if beta * abs(ritz[-1, 0]) <= _LANCZOS_TOL * scale:
            vector = ritz[:, 0] @ basis
            return float(np.ldexp(theta[0], exponent)), vector / np.linalg.norm(vector)
        betas.append(beta)
        basis = np.vstack([basis, w / beta])
    raise ValueError(f"the Lanczos ground state did not converge in {len(alphas)} steps")


def project_and_diagonalize(dets, space: SpaceHamiltonian) -> tuple[float, np.ndarray]:
    """Ground eigenpair of the Hamiltonian projected on the subspace spanned
    by ``dets``, a (dim, 2*norb) array of distinct 0/1 occupation rows (bool
    or any integer dtype), all in the span of ``space``.

    The subspace matrix is gathered from ``space``; build that once, on the
    rows themselves or on a space that holds them. Returns the lowest
    eigenvalue including the core energy and the normalized ground
    eigenvector in the row basis. Enlarging the subspace can only lower the
    returned energy (variational).

    Only the lowest eigenpair is computed (LAPACK ``syevr`` through
    ``scipy.linalg.eigh`` with ``subset_by_index``), never the whole
    spectrum. The vector's sign is arbitrary, and for a degenerate ground
    state it is some unit vector in the ground eigenspace.

    The recovery loop calls it on each batch subspace. The reference ground
    state of the whole space is :meth:`SpaceHamiltonian.ground_state`, whose
    sparse Lanczos iteration costs far less than this dense solve there.
    """
    # the gathered matrix is a fresh array, exactly symmetric (each pair's
    # element is written to both triangles), so its transpose is the same
    # matrix in the Fortran order that LAPACK overwrites in place
    vals, vecs = linalg.eigh(space.submatrix(dets).T, subset_by_index=[0, 0], overwrite_a=True,
                             check_finite=False)
    return float(vals[0] + space.fci.core_energy), vecs[:, 0]
