"""Determinant-space Hamiltonian matrix elements and subspace diagonalization.

A determinant is a pair of bitmasks over spatial orbitals (bit p set means
orbital p occupied in that spin sector). The fermionic ordering places all
alpha spin orbitals before all beta spin orbitals, each sector ordered by
orbital index, so excitation parities factorize per sector.

Matrix elements follow the excitation-degree rules for the Hamiltonian

    H = sum_{pr,s} h_pr a+_{ps} a_{rs}
      + 1/2 sum_{prqs,st} (pr|qs) a+_{ps} a+_{qt} a_{st'} a_{rs'}

with (pr|qs) the chemists'-notation two-electron integrals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .fcidump import FciData

MAX_DENSE_DIM = 4000


@dataclass(frozen=True)
class Determinant:
    """Electron configuration as per-sector orbital bitmasks."""

    alpha: int
    beta: int

    def __post_init__(self) -> None:
        for name in ("alpha", "beta"):
            mask = getattr(self, name)
            if isinstance(mask, bool) or not isinstance(mask, (int, np.integer)):
                raise ValueError(f"{name} occupation mask must be an integer, got {mask!r}")
            if mask < 0:
                raise ValueError("occupation masks must be nonnegative")

    def occupations(self, norb: int) -> np.ndarray:
        """Spin-orbital occupation vector, alpha block then beta block."""
        bits = [(self.alpha >> p) & 1 for p in range(norb)]
        bits += [(self.beta >> p) & 1 for p in range(norb)]
        return np.array(bits, dtype=float)


def _occ_list(mask: int) -> list[int]:
    out = []
    p = 0
    while mask >> p:
        if (mask >> p) & 1:
            out.append(p)
        p += 1
    return out


def _parity_between(mask: int, a: int, b: int) -> int:
    """(-1)^(number of occupied orbitals strictly between a and b)."""
    lo, hi = (a, b) if a < b else (b, a)
    window = ((1 << hi) - 1) & ~((1 << (lo + 1)) - 1)
    return -1 if bin(mask & window).count("1") % 2 else 1


def excitation_degree(det_i: Determinant, det_j: Determinant) -> int:
    return (bin(det_i.alpha ^ det_j.alpha).count("1")
            + bin(det_i.beta ^ det_j.beta).count("1")) // 2


def hartree_fock_determinant(norb: int, n_alpha: int, n_beta: int) -> Determinant:
    return Determinant((1 << n_alpha) - 1, (1 << n_beta) - 1)


def all_determinants(norb: int, n_alpha: int, n_beta: int) -> list[Determinant]:
    """The full configuration space at fixed per-sector electron counts."""
    from itertools import combinations

    def masks(count):
        return [sum(1 << p for p in combo) for combo in combinations(range(norb), count)]

    return [Determinant(a, b) for a in masks(n_alpha) for b in masks(n_beta)]


def _diagonal_element(det: Determinant, fci: FciData) -> float:
    h, eri = fci.h, fci.eri
    alpha, beta = _occ_list(det.alpha), _occ_list(det.beta)
    energy = sum(h[p, p] for p in alpha) + sum(h[p, p] for p in beta)
    for occ in (alpha, beta):
        for idx, p in enumerate(occ):
            for q in occ[idx + 1:]:
                energy += eri[p, p, q, q] - eri[p, q, q, p]
    for p in alpha:
        for q in beta:
            energy += eri[p, p, q, q]
    return float(energy)


def _single_element(hole: int, part: int, same: list[int], other: list[int],
                    sign: int, fci: FciData) -> float:
    h, eri = fci.h, fci.eri
    value = h[hole, part]
    for r in same:
        value += eri[hole, part, r, r] - eri[hole, r, r, part]
    for r in other:
        value += eri[hole, part, r, r]
    return float(sign * value)


def _single_excitation(mask_from: int, mask_to: int) -> tuple[int, int, int]:
    """(hole, particle, parity) for a one-orbital difference within a sector."""
    diff = mask_from ^ mask_to
    hole = (diff & mask_from).bit_length() - 1
    part = (diff & mask_to).bit_length() - 1
    return hole, part, _parity_between(mask_from, hole, part)


def _double_same_sector(mask_from: int, mask_to: int, fci: FciData) -> float:
    diff = mask_from ^ mask_to
    holes = _occ_list(diff & mask_from)
    parts = _occ_list(diff & mask_to)
    (m, n), (p, q) = holes, parts  # each ascending
    # apply the excitation as two sequential singles to track the parity
    sign = _parity_between(mask_from, m, p)
    intermediate = (mask_from & ~(1 << m)) | (1 << p)
    sign *= _parity_between(intermediate, n, q)
    value = fci.eri[m, p, n, q] - fci.eri[m, q, n, p]
    return float(sign * value)


def slater_condon(det_i: Determinant, det_j: Determinant, fci: FciData) -> float:
    """Hamiltonian matrix element <det_i| H |det_j> in Hartree.

    Zero for excitation degree above two; Hermitian by construction since the
    integral tables are real-symmetric.
    """
    d_alpha = bin(det_i.alpha ^ det_j.alpha).count("1") // 2
    d_beta = bin(det_i.beta ^ det_j.beta).count("1") // 2
    degree = d_alpha + d_beta
    if degree > 2:
        return 0.0
    if degree == 0:
        return _diagonal_element(det_j, fci)
    if degree == 1:
        if d_alpha == 1:
            hole, part, sign = _single_excitation(det_j.alpha, det_i.alpha)
            same = _occ_list(det_j.alpha & det_i.alpha)
            other = _occ_list(det_j.beta)
        else:
            hole, part, sign = _single_excitation(det_j.beta, det_i.beta)
            same = _occ_list(det_j.beta & det_i.beta)
            other = _occ_list(det_j.alpha)
        return _single_element(hole, part, same, other, sign, fci)
    if d_alpha == 2:
        return _double_same_sector(det_j.alpha, det_i.alpha, fci)
    if d_beta == 2:
        return _double_same_sector(det_j.beta, det_i.beta, fci)
    hole_a, part_a, sign_a = _single_excitation(det_j.alpha, det_i.alpha)
    hole_b, part_b, sign_b = _single_excitation(det_j.beta, det_i.beta)
    return float(sign_a * sign_b * fci.eri[hole_a, part_a, hole_b, part_b])


def _check_subspace(dets: list[Determinant], fci: FciData) -> None:
    """Every determinant must place n_alpha and n_beta electrons in the first
    norb orbitals; the vectorized build relies on these fixed counts."""
    for det in dets:
        for mask, count in ((det.alpha, fci.n_alpha), (det.beta, fci.n_beta)):
            if mask >> fci.norb or bin(mask).count("1") != count:
                raise ValueError(f"{det} does not place {fci.n_alpha} alpha and {fci.n_beta} "
                                 f"beta electrons in {fci.norb} orbitals")


def _sector_bits(masks: list[int], norb: int) -> np.ndarray:
    """(dim, norb) int8 occupations of one spin sector, for masks of any width."""
    width = (norb + 7) // 8
    raw = np.frombuffer(b"".join(int(m).to_bytes(width, "little") for m in masks), dtype=np.uint8)
    bits = np.unpackbits(raw.reshape(len(masks), width), axis=1, count=norb, bitorder="little")
    return bits.view(np.int8)


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


# Each element class below adds its terms in the order of the scalar rules
# above, so every entry is bit-identical to ``slater_condon``.

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


def _single_elements(frm: np.ndarray, to: np.ndarray, count: int, other: np.ndarray,
                     fci: FciData) -> np.ndarray:
    """Single excitations in a sector of ``count`` electrons; ``other`` holds
    the occupied orbitals of the other sector."""
    h, eri = fci.h, fci.eri
    hole, part, sign = _excitation(frm, to)
    value = h[hole, part]
    for r in _positions(frm & to, count - 1).T:
        value = value + (eri[hole, part, r, r] - eri[hole, r, r, part])
    for r in other.T:
        value = value + eri[hole, part, r, r]
    return sign * value


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


def _mixed_double_elements(frm_a: np.ndarray, to_a: np.ndarray, frm_b: np.ndarray,
                           to_b: np.ndarray, fci: FciData) -> np.ndarray:
    hole_a, part_a, sign_a = _excitation(frm_a, to_a)
    hole_b, part_b, sign_b = _excitation(frm_b, to_b)
    return sign_a * sign_b * fci.eri[hole_a, part_a, hole_b, part_b]


def _hamiltonian_matrix(dets: list[Determinant], fci: FciData) -> np.ndarray:
    """Dense subspace matrix, entry [i, j] equal to ``slater_condon(dets[i], dets[j], fci)``.

    Pairs are screened by excitation degree, read from common-occupation
    counts; only the upper-triangle pairs of degree <= 2 are evaluated, one
    element class at a time, each as vector operations over its pairs.
    """
    _check_subspace(dets, fci)
    norb, n_a, n_b = fci.norb, fci.n_alpha, fci.n_beta
    alpha = _sector_bits([d.alpha for d in dets], norb)
    beta = _sector_bits([d.beta for d in dets], norb)
    occ_a, occ_b = _positions(alpha, n_a), _positions(beta, n_b)
    # allocated first, so that the screening temporaries are freed on top of it
    # and a repeated build reuses their heap space instead of growing past it
    matrix = np.zeros((len(dets), len(dets)))
    # the degree is the electron count minus the common occupations; the int8
    # dim x dim products are exact below 128 orbitals
    i, j = np.nonzero(np.triu(alpha @ alpha.T + beta @ beta.T >= n_a + n_b - 2, k=1))
    d_alpha = n_a - (alpha[i] & alpha[j]).sum(axis=1)
    d_beta = n_b - (beta[i] & beta[j]).sum(axis=1)
    np.fill_diagonal(matrix, _diagonal_elements(occ_a, occ_b, fci))

    # <dets[i]| H |dets[j]> excites row j (the "from" side) into row i
    def fill(select, build):
        if select.any():
            to, frm = i[select], j[select]
            matrix[to, frm] = matrix[frm, to] = build(to, frm)

    fill((d_alpha == 1) & (d_beta == 0),
         lambda to, frm: _single_elements(alpha[frm], alpha[to], n_a, occ_b[frm], fci))
    fill((d_alpha == 0) & (d_beta == 1),
         lambda to, frm: _single_elements(beta[frm], beta[to], n_b, occ_a[frm], fci))
    fill(d_alpha == 2, lambda to, frm: _double_elements(alpha[frm], alpha[to], fci))
    fill(d_beta == 2, lambda to, frm: _double_elements(beta[frm], beta[to], fci))
    fill((d_alpha == 1) & (d_beta == 1),
         lambda to, frm: _mixed_double_elements(alpha[frm], alpha[to], beta[frm], beta[to], fci))
    return matrix


def project_and_diagonalize(dets: list[Determinant], fci: FciData) -> tuple[float, np.ndarray]:
    """Ground eigenpair of the Hamiltonian projected on the given subspace.

    Returns the lowest eigenvalue including the core energy and the
    normalized ground eigenvector in the determinant basis. Enlarging the
    subspace can only lower the returned energy (variational). Every
    determinant must hold the integrals' electron counts in their orbitals.

    Only the lowest eigenpair is computed (LAPACK ``syevr`` through
    ``scipy.linalg.eigh`` with ``subset_by_index``), never the whole
    spectrum. The vector's sign is arbitrary, and for a degenerate ground
    state it is some unit vector in the ground eigenspace.
    """
    if not dets:
        raise ValueError("subspace is empty")
    if len(set(dets)) != len(dets):
        raise ValueError("determinants must be distinct")
    dim = len(dets)
    if dim > MAX_DENSE_DIM:
        raise ValueError(f"subspace dimension {dim} exceeds dense limit {MAX_DENSE_DIM}")
    vals, vecs = scipy.linalg.eigh(_hamiltonian_matrix(dets, fci), subset_by_index=[0, 0])
    return float(vals[0] + fci.core_energy), vecs[:, 0]
