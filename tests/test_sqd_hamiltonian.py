"""Integral parsing and determinant-space Hamiltonian tests.

The brute-force oracle builds the full second-quantized operator from sparse
Jordan-Wigner ladder matrices, a path fully independent of the
excitation-rule implementation it checks. The scalar Slater-Condon rules in
``helpers`` are checked against it and are in turn the bit-identity oracle of
the vectorized build of the whole determinant space and of its gathers.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mddsim.sqd import (
    FciData,
    ParseError,
    SpaceHamiltonian,
    all_determinants,
    hubbard_dimer_energy,
    hubbard_dimer_fcidump,
    parse_fcidump,
    project_and_diagonalize,
    random_fcidump,
    write_fcidump,
)
from mddsim.sqd import hamiltonian
from mddsim.sqd.fcidump import MAX_NORB, SYM_TOL
from mddsim.sqd.hamiltonian import _dense_ground, _lanczos_ground

from helpers import (
    Determinant,
    benchmark_ring,
    dense,
    dense_scan_ground,
    determinants,
    excitation_degree,
    fock_index,
    fock_space_hamiltonian,
    hamiltonian_matrix,
    hartree_fock_determinant,
    row_pair_hamiltonian,
    slater_condon,
    slater_condon_matrix,
)

MINIMAL = """&FCI NORB=2,NELEC=2,MS2=0,
 ORBSYM=1,1,
 ISYM=1,
&END
  0.75    1 1 1 1
  0.44    2 2 2 2
  0.36    2 2 1 1
  0.18    2 1 2 1
 -1.25    1 1 0 0
 -0.47    2 2 0 0
  0.09    2 1 0 0
  0.71    0 0 0 0
"""


class TestParse:
    def test_minimal_file_fields(self):
        fci = parse_fcidump(MINIMAL)
        assert fci.norb == 2 and fci.nelec == 2 and fci.ms2 == 0
        assert fci.core_energy == 0.71
        assert fci.h[0, 0] == -1.25 and fci.h[0, 1] == 0.09
        assert fci.eri[0, 0, 0, 0] == 0.75

    def test_symmetry_completion(self):
        fci = parse_fcidump(MINIMAL)
        # (21|21) record populates every 8-fold image, e.g. queried as (12|12)
        assert fci.eri[0, 1, 0, 1] == 0.18
        assert fci.eri[0, 0, 1, 1] == 0.36  # (22|11) queried as (11|22)

    def test_round_trip_is_identity(self):
        text = random_fcidump(4, 4, seed=11)
        assert write_fcidump(parse_fcidump(text)) == text

    def test_error_carries_line_number(self):
        bad = MINIMAL.replace("  0.36    2 2 1 1", "  0.36    2 9 1 1")
        with pytest.raises(ParseError, match="line 7"):
            parse_fcidump(bad)
        with pytest.raises(ParseError, match="non-numeric"):
            parse_fcidump(MINIMAL.replace("0.75", "zz"))
        with pytest.raises(ParseError, match="&FCI"):
            parse_fcidump("NORB=2\n&END\n")

    def test_orbital_energy_records_are_range_checked_and_dropped(self):
        energies = " -0.52    1 0 0 0\n  0.31    2 0 0 0\n"
        fci, ref = parse_fcidump(MINIMAL + energies), parse_fcidump(MINIMAL)
        assert np.array_equal(fci.h, ref.h) and np.array_equal(fci.eri, ref.eri)
        assert fci.core_energy == ref.core_energy
        with pytest.raises(ParseError, match="line 13: orbital index 3 out of range"):
            parse_fcidump(MINIMAL + "  0.31    3 0 0 0\n")
        with pytest.raises(ParseError, match="orbital index -1 out of range"):
            parse_fcidump(MINIMAL + "  0.31   -1 0 0 0\n")

    def test_conflicting_duplicate_rejected(self):
        bad = MINIMAL + "  0.99    1 1 1 1\n"
        with pytest.raises(ParseError, match="conflicting"):
            parse_fcidump(bad)

    def test_fortran_exponent_marker(self):
        fci = parse_fcidump(MINIMAL.replace("0.75", "7.5D-01"))
        assert fci.eri[0, 0, 0, 0] == 0.75

    def test_independent_dense_diagonalization(self):
        # FCI energy from the module equals diagonalizing the sector block of
        # the brute-force operator built from the same arrays
        fci = parse_fcidump(random_fcidump(4, 2, seed=5))
        full = fock_space_hamiltonian(fci)
        space = SpaceHamiltonian(fci)
        idx = [fock_index(row) for row in space.dets]
        block = full[np.ix_(idx, idx)]
        expected = np.linalg.eigvalsh(block)[0] + fci.core_energy
        energy, _ = project_and_diagonalize(space.dets, space)
        assert energy == pytest.approx(expected, abs=1e-10)

    def test_non_finite_values_rejected(self):
        for token in ("nan", "inf", "-Infinity", "1D999"):
            with pytest.raises(ParseError, match="line 7: non-finite"):
                parse_fcidump(MINIMAL.replace("0.36", token))

    def test_inconsistent_spin_is_a_parse_error(self):
        for header in ("NELEC=3,MS2=0", "NELEC=2,MS2=4", "NELEC=-2,MS2=0"):
            with pytest.raises(ParseError, match="line 1: inconsistent"):
                parse_fcidump(MINIMAL.replace("NELEC=2,MS2=0", header))

    def test_norb_bounded_before_allocation(self):
        # MAX_NORB + 1 needs under 10 MB and numpy refuses 10**6 before allocating,
        # so neither can exhaust memory even where the bound is missing
        for norb in (0, MAX_NORB + 1, 10**6):
            with pytest.raises(ParseError, match="line 1: NORB must lie in"):
                parse_fcidump(MINIMAL.replace("NORB=2", f"NORB={norb}"))
        with pytest.raises(ParseError, match="more than 9 digits"):
            parse_fcidump(MINIMAL.replace("NORB=2", "NORB=" + "9" * 5000))


values = st.floats(-1e3, 1e3) | st.just(0.0)


@st.composite
def fci_data(draw):
    """Integral tables with 8-fold symmetry, zeros included, and a consistent
    electron count and spin."""
    norb = draw(st.integers(1, 4))
    nelec = draw(st.integers(0, 2 * norb))
    ms2 = draw(st.sampled_from(range(-nelec, nelec + 1, 2)))
    h = np.zeros((norb, norb))
    for i in range(norb):
        for j in range(i + 1):
            h[i, j] = h[j, i] = draw(values)
    eri = np.zeros((norb,) * 4)
    pairs = [(i, j) for i in range(norb) for j in range(i + 1)]
    for a, (i, j) in enumerate(pairs):
        for k, l in pairs[:a + 1]:
            value = draw(values)
            for p, q, r, s in ((i, j, k, l), (k, l, i, j)):
                eri[p, q, r, s] = eri[q, p, r, s] = eri[p, q, s, r] = eri[q, p, s, r] = value
    return FciData(norb=norb, nelec=nelec, ms2=ms2, h=h, eri=eri, core_energy=draw(values))


PARSE_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@PARSE_PROPERTY
@given(fci=fci_data())
def test_parse_inverts_write(fci):
    back = parse_fcidump(write_fcidump(fci))
    assert (back.norb, back.nelec, back.ms2) == (fci.norb, fci.nelec, fci.ms2)
    assert np.array_equal(back.h, fci.h) and np.array_equal(back.eri, fci.eri)
    assert back.core_energy == fci.core_energy


junk_lines = (st.text(alphabet=" -+.0123456789eEdDnaifNORBLCMS=&/,", max_size=30)
              | st.builds("{} {} {} {} {}".format,
                          st.sampled_from(["nan", "inf", "-inf", "1D999", "0.5", "zz"]),
                          *[st.integers(-1, 5)] * 4))
headers = st.builds("&FCI NORB={},NELEC={},MS2={},".format,
                    st.integers(-1, 5), st.integers(-3, 9), st.integers(-5, 5))


@PARSE_PROPERTY
@given(fci=fci_data(), data=st.data())
def test_malformed_input_raises_only_parse_error(fci, data):
    lines = write_fcidump(fci).splitlines()
    at = data.draw(st.integers(0, len(lines)))
    edit = data.draw(st.sampled_from(["replace", "insert", "truncate", "header"]))
    if edit == "replace":
        lines[min(at, len(lines) - 1)] = data.draw(junk_lines)
    elif edit == "insert":
        lines.insert(at, data.draw(junk_lines))
    elif edit == "truncate":
        lines = lines[:at]
    else:
        lines[0] = data.draw(headers)
    try:
        parse_fcidump("\n".join(lines))
    except ParseError:
        pass


class TestSlaterCondon:
    def test_diagonal_rule(self):
        fci = parse_fcidump(MINIMAL)
        det = hartree_fock_determinant(2, 1, 1)  # both electrons in orbital 0
        expected = 2 * fci.h[0, 0] + fci.eri[0, 0, 0, 0]
        assert slater_condon(det, det, fci) == pytest.approx(expected, abs=1e-14)

    def test_triple_excitation_vanishes(self):
        fci = parse_fcidump(random_fcidump(4, 4, seed=2))
        det_i = Determinant(alpha=0b0011, beta=0b0011)
        det_j = Determinant(alpha=0b1100, beta=0b0101)
        assert excitation_degree(det_i, det_j) == 3
        assert slater_condon(det_i, det_j, fci) == 0.0

    @pytest.mark.parametrize("norb,na,nb,seed", [(2, 1, 1, 0), (3, 2, 1, 1), (4, 2, 2, 4)])
    def test_all_pairs_match_fock_space_oracle(self, norb, na, nb, seed):
        fci = parse_fcidump(random_fcidump(norb, na + nb, ms2=na - nb, seed=seed))
        full = fock_space_hamiltonian(fci)
        rows = all_determinants(norb, na, nb)
        for ri, di in zip(rows, determinants(rows)):
            for rj, dj in zip(rows, determinants(rows)):
                oracle = full[fock_index(ri), fock_index(rj)]
                assert slater_condon(di, dj, fci) == pytest.approx(oracle, abs=1e-10)

    def test_hermiticity(self):
        fci = parse_fcidump(random_fcidump(4, 4, seed=9))
        dets = determinants(all_determinants(4, 2, 2))
        rng = np.random.default_rng(0)
        for _ in range(60):
            a, b = rng.integers(len(dets), size=2)
            assert slater_condon(dets[a], dets[b], fci) == pytest.approx(
                slater_condon(dets[b], dets[a], fci), abs=1e-12)


class TestProjectAndDiagonalize:
    def test_full_space_recovers_fci_energy(self):
        fci = parse_fcidump(hubbard_dimer_fcidump())
        space = SpaceHamiltonian(fci)
        assert np.array_equal(space.dets, all_determinants(2, 1, 1))
        energy, ground = project_and_diagonalize(space.dets, space)
        assert energy == pytest.approx(hubbard_dimer_energy(), abs=1e-10)
        assert np.linalg.norm(ground) == pytest.approx(1.0, abs=1e-12)

    def test_single_determinant_gives_diagonal(self):
        fci = parse_fcidump(MINIMAL)
        det = hartree_fock_determinant(2, 1, 1)
        row = np.array([[1, 0, 1, 0]])
        energy, ground = project_and_diagonalize(row, SpaceHamiltonian(fci))
        assert energy == pytest.approx(slater_condon(det, det, fci) + fci.core_energy, abs=1e-14)
        assert abs(ground[0]) == pytest.approx(1.0)

    def test_variational_monotonicity(self):
        fci = parse_fcidump(random_fcidump(4, 4, seed=13))
        space = SpaceHamiltonian(fci)
        dets = space.dets
        rng = np.random.default_rng(3)
        order = rng.permutation(len(dets))
        previous = np.inf
        for size in (1, 4, 9, 16, 25, len(dets)):
            energy, _ = project_and_diagonalize(dets[order[:size]], space)
            assert energy <= previous + 1e-12
            previous = energy

    def test_empty_subspace_rejected(self):
        fci = parse_fcidump(MINIMAL)
        for empty in ([], np.empty((0, 4), dtype=np.uint8)):
            with pytest.raises(ValueError, match="subspace is empty"):
                project_and_diagonalize(empty, SpaceHamiltonian(fci))
        # three alpha electrons do not fit in two orbitals: the space itself is empty
        crowded = FciData(norb=2, nelec=6, ms2=0, h=fci.h, eri=fci.eri, core_energy=0.0)
        with pytest.raises(ValueError, match="subspace is empty"):
            SpaceHamiltonian(crowded)

    def test_duplicates_rejected(self):
        fci = parse_fcidump(MINIMAL)
        rows = np.array([[1, 0, 1, 0], [1, 0, 1, 0]])
        with pytest.raises(ValueError, match="row 1 repeats row 0: determinants must be distinct"):
            project_and_diagonalize(rows, SpaceHamiltonian(fci))

    @pytest.mark.parametrize("dets,culprit", [
        (np.array([[1, 1, 0, 0, 2, 0, 0, 0]]), 0),                                 # a 2 in a bit
        (np.array([[1, 1, 0, 0, 1, 1, 0, 0], [1, 1, 0, 0, 1, 1, 0, 2**40]]), 1),  # far out of range
        (np.array([[1, 0, 0, 0, 1, 1, 0, 0], [1, 1, 1, 0, 1, 1, 0, 0]]), 0),      # mixed alpha counts
        (np.array([[1, 1, 0, 0, 1, 1, 0, 0], [1, 1, 0, 0, 0, 0, 0, 1]]), 1),      # too few beta
    ])
    def test_foreign_determinants_rejected(self, dets, culprit):
        # a value other than 0 or 1, or a row of other electron counts, which
        # is no row of the space
        fci = parse_fcidump(random_fcidump(4, 4, seed=2))
        with pytest.raises(ValueError, match=re.escape(f"row {culprit} {dets[culprit].tolist()}")):
            project_and_diagonalize(dets, SpaceHamiltonian(fci))

    @pytest.mark.parametrize("rows", [
        [[1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0]],
        np.array([[1, 1, 0, 0, 1, 1, 0, 0]], dtype=np.float64),
        np.array([list("11001100")]),
        np.array([[1, 1, 0, 0, 1, 1, 0, None]]),
        [Determinant(0b11, 0b11)],
    ], ids=["python-floats", "float64", "strings", "objects", "bitmask-pairs"])
    def test_non_integer_rows_rejected(self, rows):
        # bool rows are integers here: they are accepted below
        fci = parse_fcidump(random_fcidump(4, 4, seed=2))
        with pytest.raises(ValueError, match="must hold integers or booleans"):
            project_and_diagonalize(rows, SpaceHamiltonian(fci))

    def test_numpy_integer_masks_accepted(self):
        # a plain list, numpy integer and bool rows all give the scalar element
        fci = parse_fcidump(random_fcidump(4, 4, seed=2))
        row = [1, 1, 0, 0, 1, 0, 1, 0]
        plain = Determinant(0b11, 0b101)
        want = slater_condon(plain, plain, fci) + fci.core_energy
        space = SpaceHamiltonian(fci)
        for rows in ([row], np.array([row], dtype=np.int64), np.array([row], dtype=np.uint16),
                     np.array([row], dtype=bool)):
            energy, ground = project_and_diagonalize(rows, space)
            assert energy == want
            assert abs(ground[0]) == 1.0

    def test_degenerate_ground_state_gives_vector_in_eigenspace(self):
        # one alpha electron in three orbitals: the subspace matrix is h, with
        # eigenvalues -1, -1 and +1; the ground eigenspace is the complement of
        # the +1 eigenvector (1, 1, 0) / sqrt(2)
        h = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
        fci = FciData(norb=3, nelec=1, ms2=1, h=h, eri=np.zeros((3,) * 4), core_energy=0.5)
        space = SpaceHamiltonian(fci)
        assert np.array_equal(dense(space), h)
        energy, ground = project_and_diagonalize(space.dets, space)
        assert energy == pytest.approx(-0.5, abs=1e-14)
        assert np.linalg.norm(ground) == pytest.approx(1.0, abs=1e-12)
        assert abs(ground @ np.array([1.0, 1.0, 0.0])) / np.sqrt(2) < 1e-10


def perturbed_integrals(norb: int, n_alpha: int, n_beta: int, seed: int) -> FciData:
    """``random_fcidump`` tables plus an asymmetric perturbation below the
    1e-12 symmetry tolerance, so that an index-order slip in the build (a
    hole and a particle swapped) changes the last bits of an element."""
    fci = parse_fcidump(random_fcidump(norb, n_alpha + n_beta, ms2=n_alpha - n_beta, seed=seed))
    rng = np.random.default_rng(seed)
    return FciData(norb=norb, nelec=fci.nelec, ms2=fci.ms2,
                   h=fci.h + rng.uniform(-4e-13, 4e-13, fci.h.shape),
                   eri=fci.eri + rng.uniform(-4e-13, 4e-13, fci.eri.shape),
                   core_energy=fci.core_energy)


def random_subspace(norb: int, n_alpha: int, n_beta: int, dim: int,
                    rng: np.random.Generator) -> np.ndarray:
    """``dim`` distinct occupation rows (fewer if the space is smaller), in
    random order."""
    space = all_determinants(norb, n_alpha, n_beta)
    return space[rng.permutation(len(space))[:dim]]


def assert_build_matches_scalar_loop(norb, n_alpha, n_beta, dim, seed):
    # the perturbed integrals make an element depend on which of its rows is
    # excited into the other, so ``dim`` rows are taken in the space's order,
    # in which the build, as the scalar loop, excites the later row
    fci = perturbed_integrals(norb, n_alpha, n_beta, seed)
    space = SpaceHamiltonian(fci)
    pick = np.sort(np.random.default_rng(seed).permutation(space.dim)[:dim])
    built = dense(space)[np.ix_(pick, pick)]
    oracle = slater_condon_matrix(space.dets[pick], fci)
    assert np.array_equal(built, oracle), np.max(np.abs(built - oracle))


BUILD_PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


@BUILD_PROPERTY
@given(data=st.data())
def test_build_is_bit_identical_to_scalar_loop(data):
    norb = data.draw(st.integers(1, 10), label="norb")
    n_alpha = data.draw(st.integers(0, norb), label="n_alpha")
    # a space above the dense limit is rejected before it is built
    n_beta = data.draw(st.sampled_from([n for n in range(norb + 1) if math.comb(norb, n_alpha)
                                        * math.comb(norb, n) <= hamiltonian.MAX_DENSE_DIM]),
                       label="n_beta")
    dim = data.draw(st.integers(1, 60), label="dim")
    assert_build_matches_scalar_loop(norb, n_alpha, n_beta, dim,
                                     data.draw(st.integers(0, 2**16), label="seed"))


@pytest.mark.parametrize("norb,n_alpha,n_beta,dim", [
    (7, 3, 3, 200),   # the benchmark's sector, every element class
    (6, 4, 2, 120),   # n_alpha != n_beta
    (5, 3, 0, 10),    # empty beta sector
    (4, 4, 2, 6),     # full alpha sector
    (10, 10, 10, 1),  # one determinant: both sectors full
    (1, 0, 0, 1),     # no electrons
])
def test_build_edge_sectors_match_scalar_loop(norb, n_alpha, n_beta, dim):
    assert_build_matches_scalar_loop(norb, n_alpha, n_beta, dim, seed=norb * 100 + dim)


@pytest.mark.parametrize("norb", range(1, 7))
def test_every_small_space_is_the_scalar_loop(norb):
    # every filling of up to 6 orbitals: the triplets are the row-pair build
    # and the scalar loop bit for bit, and the ground state has the bytes of
    # the Lanczos pair on the dense matrix's row-major nonzeros
    for n_alpha in range(norb + 1):
        for n_beta in range(norb + 1):
            fci = perturbed_integrals(norb, n_alpha, n_beta, seed=10 * n_alpha + n_beta)
            space = SpaceHamiltonian(fci)
            built = dense(space)
            assert built.tobytes() == row_pair_hamiltonian(space.dets, fci).tobytes()
            assert np.array_equal(built, slater_condon_matrix(space.dets, fci))
            energy, ground = space.ground_state()
            want_energy, want_ground = dense_scan_ground(built, fci)
            assert energy == want_energy and ground.tobytes() == want_ground.tobytes()


GATHER_ORACLE_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                                  database=None)


@GATHER_ORACLE_PROPERTY
@given(data=st.data())
def test_gathers_are_the_scalar_loop(data):
    # parsed integrals are exactly 8-fold symmetric, so a gather of rows in
    # any order is the scalar loop on them, whichever row it excites
    norb, n_alpha, n_beta = draw_sectors(data)
    seed = data.draw(st.integers(0, 2**16), label="seed")
    fci = parse_fcidump(random_fcidump(norb, n_alpha + n_beta, ms2=n_alpha - n_beta, seed=seed))
    space = SpaceHamiltonian(fci)
    rows = space.dets[np.random.default_rng(seed).permutation(space.dim)]
    rows = rows[:data.draw(st.integers(1, min(space.dim, 40)), label="dim")]
    gathered, oracle = space.submatrix(rows), slater_condon_matrix(rows, fci)
    assert np.array_equal(gathered, oracle)
    assert np.array_equal(np.signbit(gathered), np.signbit(oracle))


def test_space_is_sized_before_it_is_enumerated(monkeypatch):
    # 16 orbitals at half filling span 12,870^2 = 165,636,900 determinants
    # (5.3 GB of rows): the size alone rejects them
    def refuse(*args):
        raise AssertionError("no sector may be enumerated above the dense limit")

    monkeypatch.setattr(hamiltonian, "_sector_strings", refuse)
    monkeypatch.setattr(hamiltonian, "all_determinants", refuse)
    fci = FciData(norb=16, nelec=16, ms2=0, h=-np.eye(16), eri=np.zeros((16,) * 4),
                  core_energy=0.0)
    with pytest.raises(ValueError, match="^subspace dimension 165636900 exceeds dense limit 4000$"):
        SpaceHamiltonian(fci)


def test_build_accepts_numpy_integer_masks():
    # gathers of bool rows and of any integer dtype give the scalar loop's matrix
    fci = parse_fcidump(random_fcidump(4, 4, seed=2))
    space = SpaceHamiltonian(fci)
    oracle = slater_condon_matrix(space.dets, fci)
    assert np.array_equal(dense(space), oracle)
    for dtype in (bool, np.int8, np.int64, np.uint64):
        assert np.array_equal(space.submatrix(space.dets.astype(dtype)), oracle)


@pytest.mark.parametrize("norb,n_alpha,n_beta", [(4, 3, 1), (3, 2, 0)])
def test_build_matches_fock_space_oracle(norb, n_alpha, n_beta):
    fci = parse_fcidump(random_fcidump(norb, n_alpha + n_beta, ms2=n_alpha - n_beta, seed=3))
    space = SpaceHamiltonian(fci)
    dets = space.dets[np.random.default_rng(0).permutation(space.dim)]
    idx = [fock_index(row) for row in dets]
    full = fock_space_hamiltonian(fci)
    np.testing.assert_allclose(space.submatrix(dets), full[np.ix_(idx, idx)], rtol=0, atol=1e-10)


def assert_gather_is_the_row_pair_build(dets, fci):
    gathered, oracle = SpaceHamiltonian(fci).submatrix(dets), row_pair_hamiltonian(dets, fci)
    assert gathered.shape == oracle.shape and gathered.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("rows", ["full", "shuffled", "subset-300"])
@pytest.mark.parametrize("seed", [0, 3, 7])
def test_build_is_the_row_pair_build_on_the_benchmark_ring(seed, rows):
    # the scalar loop is too slow at 1,225 rows; the row-pair build is its
    # bitwise equal on every smaller case above. The ring's integrals are
    # parsed, so a gather in any row order is the row-pair build's
    dets = all_determinants(7, 3, 3)
    if rows != "full":
        dets = dets[np.random.default_rng(seed).permutation(len(dets))]
    assert_gather_is_the_row_pair_build(dets[:300] if rows == "subset-300" else dets,
                                        benchmark_ring(seed))


BENCHMARK_SIZE_PROPERTY = settings(max_examples=10, deadline=None, derandomize=True,
                                   database=None)


@BENCHMARK_SIZE_PROPERTY
@given(data=st.data())
def test_build_is_the_row_pair_build_at_the_benchmark_size(data):
    # perturbed random integrals make every element class nonzero and an
    # index slip visible; 7 orbitals hold 1,225 determinants at both
    # fillings. The rows keep the space's order, in which both builds excite
    # the later row
    n_alpha = data.draw(st.sampled_from([3, 4]), label="n_alpha")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    dim = data.draw(st.sampled_from([1225, 300, data.draw(st.integers(1, 1225), label="size")]),
                    label="dim")
    dets = all_determinants(7, n_alpha, 3)
    dets = dets[np.sort(np.random.default_rng(seed).permutation(len(dets))[:dim])]
    assert_gather_is_the_row_pair_build(dets, perturbed_integrals(7, n_alpha, 3, seed))


@pytest.mark.parametrize("sector", ["alpha", "beta"])
@pytest.mark.parametrize("norb,n_alpha,n_beta", [(7, 3, 3), (6, 2, 4), (4, 4, 1), (7, 3, 7)],
                         ids=["benchmark", "unequal", "full-alpha", "full-beta"])
def test_build_with_one_string_in_a_sector(sector, norb, n_alpha, n_beta):
    # the rows that share one alpha (or one beta) string, in the space's
    # order: their block holds only the other sector's excitations. A full
    # sector has one string, so the whole space is such a block and its build
    # meets only the other sector's join
    fci = perturbed_integrals(norb, n_alpha, n_beta, seed=norb)
    space = SpaceHamiltonian(fci)
    half = slice(0, norb) if sector == "alpha" else slice(norb, 2 * norb)
    pick = space.dets[np.random.default_rng(norb).integers(space.dim), half]
    dets = space.dets[(space.dets[:, half] == pick).all(axis=1)]
    assert np.array_equal(space.submatrix(dets), slater_condon_matrix(dets, fci))
    assert_gather_is_the_row_pair_build(dets, fci)


DUPLICATES_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@DUPLICATES_PROPERTY
@given(data=st.data())
def test_repeated_rows_are_named_as_by_the_row_pair_build(data):
    # several repeats, of several rows: a gather and the row-pair build name
    # the repeat of the earliest repeated row, and its first repeat
    norb, n_alpha, n_beta = draw_sectors(data)
    seed = data.draw(st.integers(0, 2**16), label="seed")
    fci = parse_fcidump(random_fcidump(norb, n_alpha + n_beta, ms2=n_alpha - n_beta, seed=seed))
    rng = np.random.default_rng(seed)
    rows = random_subspace(norb, n_alpha, n_beta, data.draw(st.integers(1, 20), label="dim"), rng)
    for _ in range(data.draw(st.integers(1, 4), label="repeats")):
        rows = np.insert(rows, rng.integers(len(rows) + 1), rows[rng.integers(len(rows))], axis=0)
    messages = []
    for build in (SpaceHamiltonian(fci).submatrix, lambda rows: row_pair_hamiltonian(rows, fci)):
        with pytest.raises(ValueError, match="repeats row") as error:
            build(rows)
        messages.append(str(error.value))
    assert messages[0] == messages[1]


def traced_build(fci) -> tuple[SpaceHamiltonian, int]:
    """A space built once untraced, then again under ``tracemalloc``, and
    the traced build's peak in bytes."""
    SpaceHamiltonian(fci)
    tracemalloc.start()
    try:
        space = SpaceHamiltonian(fci)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return space, peak


def test_build_memory_at_the_benchmark_size():
    # the ring's 1,225 x 1,225 matrix (12.0 MB) holds 116,865 entries that
    # are not +0.0, 7.8% of its cells: 1.9 MB of triplets. The dense build
    # peaked at 16.8 MB, 1.4 times the matrix; the blocked triplet build peaks
    # at 4.1 MB. The bounds: a tenth of the cells, and half the matrix
    space, peak = traced_build(benchmark_ring(0))
    rows, cols, values = space.triplets
    assert rows.dtype == cols.dtype == np.int32
    assert len(values) == 116865 < 1225 * 1225 / 10
    assert peak < 0.5 * 1225 * 1225 * 8


def test_build_memory_near_the_dense_limit():
    # 8 orbitals and 10 electrons, the frozen-core N2 space: 3,136
    # determinants, whose dense matrix would take 78.7 MB. All 990,976 of its
    # entries are nonzero (15.9 MB of triplets); the build peaks at 32.7 MB,
    # where the dense build peaked at 97.3 MB
    space, peak = traced_build(parse_fcidump(random_fcidump(8, 10)))
    assert space.dim == 3136 <= hamiltonian.MAX_DENSE_DIM
    assert len(space.triplets[2]) == 990976
    assert peak < 0.5 * 3136 * 3136 * 8


def assert_matches_full_spectrum_oracle(dets, fci):
    """``project_and_diagonalize`` against ``np.linalg.eigh`` of the
    row-pair build's matrix: the energy, a unit vector with a small residual,
    and, where the ground state is separated from the rest, the oracle's
    vector up to sign."""
    matrix = row_pair_hamiltonian(dets, fci)
    vals, vecs = np.linalg.eigh(matrix)
    energy, ground = project_and_diagonalize(dets, SpaceHamiltonian(fci))
    assert energy == pytest.approx(vals[0] + fci.core_energy, abs=1e-12)
    assert np.linalg.norm(ground) == pytest.approx(1.0, abs=1e-12)
    residual = matrix @ ground - (energy - fci.core_energy) * ground
    assert np.linalg.norm(residual) <= 1e-10
    if len(vals) == 1 or vals[1] - vals[0] > 1e-6:
        assert abs(ground @ vecs[:, 0]) >= 1 - 1e-10


EIGEN_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@EIGEN_PROPERTY
@given(data=st.data())
def test_lowest_eigenpair_matches_full_spectrum(data):
    norb = data.draw(st.integers(1, 6), label="norb")
    n_alpha = data.draw(st.integers(0, norb), label="n_alpha")
    n_beta = data.draw(st.integers(0, norb), label="n_beta")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    fci = parse_fcidump(random_fcidump(norb, n_alpha + n_beta, ms2=n_alpha - n_beta, seed=seed))
    space = math.comb(norb, n_alpha) * math.comb(norb, n_beta)
    dim = data.draw(st.integers(1, space), label="dim")
    dets = random_subspace(norb, n_alpha, n_beta, dim, np.random.default_rng(seed))
    assert_matches_full_spectrum_oracle(dets, fci)


@pytest.mark.parametrize("norb,n_alpha,n_beta,dim", [
    (4, 2, 2, 1),     # one determinant
    (6, 3, 3, 400),   # the full space, in random order
    (5, 3, 0, 10),    # empty beta sector
])
def test_lowest_eigenpair_edge_subspaces(norb, n_alpha, n_beta, dim):
    fci = parse_fcidump(random_fcidump(norb, n_alpha + n_beta, ms2=n_alpha - n_beta, seed=dim))
    dets = random_subspace(norb, n_alpha, n_beta, dim, np.random.default_rng(norb))
    assert_matches_full_spectrum_oracle(dets, fci)


ROWS_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@ROWS_PROPERTY
@given(data=st.data())
def test_malformed_rows_raise_and_dtypes_agree(data):
    norb = data.draw(st.integers(1, 6), label="norb")
    n_alpha = data.draw(st.integers(0, norb), label="n_alpha")
    n_beta = data.draw(st.integers(0, norb), label="n_beta")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    fci = parse_fcidump(random_fcidump(norb, n_alpha + n_beta, ms2=n_alpha - n_beta, seed=seed))
    space = math.comb(norb, n_alpha) * math.comb(norb, n_beta)
    rows = random_subspace(norb, n_alpha, n_beta, data.draw(st.integers(1, min(space, 40))),
                           np.random.default_rng(seed))

    # the same subspace as bool, uint8 and int64 rows: the same eigenpair
    full = SpaceHamiltonian(fci)
    energy, ground = project_and_diagonalize(rows.astype(bool), full)
    for dtype in (np.uint8, np.int64):
        other_energy, other_ground = project_and_diagonalize(rows.astype(dtype), full)
        assert other_energy == energy and np.array_equal(other_ground, ground)

    kind = data.draw(st.sampled_from(["width", "value", "count", "duplicate", "empty"]),
                     label="kind")
    bad = rows.astype(np.int64)
    at = data.draw(st.integers(0, len(rows) - 1), label="at")
    col = data.draw(st.integers(0, 2 * norb - 1), label="col")
    if kind == "width":
        bad = bad[:, :-1] if data.draw(st.booleans(), label="narrow") else np.hstack([bad, bad])
        message = re.escape(f"shape (dim, {2 * norb}), got {bad.shape}")
    elif kind == "value":
        bad[at, col] = data.draw(st.sampled_from([2, -1, 3, 2**40]), label="value")
        message = re.escape(f"row {at} {bad[at].tolist()} holds a value other than 0 or 1")
    elif kind == "count":
        bad[at, col] ^= 1
        message = re.escape(f"row {at} {bad[at].tolist()} is not a determinant of the space")
    elif kind == "duplicate":
        where = data.draw(st.integers(0, len(rows)), label="where")
        bad = np.insert(bad, where, bad[at], axis=0)
        first, second = sorted((at + (at >= where), where))
        message = f"row {second} repeats row {first}: determinants must be distinct"
    else:
        bad = bad[:0]
        message = "subspace is empty"
    with pytest.raises(ValueError, match=message):
        project_and_diagonalize(bad, full)


GATHER_PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def draw_sectors(data):
    norb = data.draw(st.integers(1, 6), label="norb")
    return (norb, data.draw(st.integers(0, norb), label="n_alpha"),
            data.draw(st.integers(0, norb), label="n_beta"))


@GATHER_PROPERTY
@given(data=st.data())
def test_gathered_subspace_is_bit_identical_to_build(data):
    # parsed integrals are exactly 8-fold symmetric, so a pair's element does
    # not depend on which row comes first: the gather is the row-pair build,
    # signed zeros included, in any row order
    norb, n_alpha, n_beta = draw_sectors(data)
    seed = data.draw(st.integers(0, 2**16), label="seed")
    fci = parse_fcidump(random_fcidump(norb, n_alpha + n_beta, ms2=n_alpha - n_beta, seed=seed))
    full = SpaceHamiltonian(fci)
    dim = data.draw(st.integers(1, full.dim), label="dim")
    rows = random_subspace(norb, n_alpha, n_beta, dim, np.random.default_rng(seed))
    for order in (rows, rows[::-1], full.dets[::-1][:dim]):
        gathered, built = full.submatrix(order), row_pair_hamiltonian(order, fci)
        assert np.array_equal(gathered, built)
        assert np.array_equal(np.signbit(gathered), np.signbit(built))


def test_gather_keeps_signed_zeros():
    # a zero integral times a -1 parity is -0.0: a dense gather keeps its sign
    # bit, where adding into zeros (as a sparse toarray does) would not
    fci = parse_fcidump(random_fcidump(4, 4, seed=1))
    fci = FciData(norb=4, nelec=4, ms2=0, h=np.where(np.eye(4) > 0, fci.h, 0.0),
                  eri=np.zeros((4,) * 4), core_energy=0.0)
    built = hamiltonian_matrix(fci)
    assert np.signbit(built[built == 0]).any()
    space = SpaceHamiltonian(fci)
    gathered = space.submatrix(space.dets[::-1])
    assert np.array_equal(np.signbit(gathered), np.signbit(built[::-1, ::-1]))


@GATHER_PROPERTY
@given(data=st.data())
def test_gather_agrees_with_build_within_symmetry_tolerance(data):
    # integrals symmetric only to SYM_TOL: which row comes first changes each
    # integral an element adds by at most SYM_TOL. An element adds at most
    # 2 nelec + 1 of them (a single's h term, two per common orbital of its
    # sector and one per orbital of the other), so a flat 1e-12 would not hold
    norb, n_alpha, n_beta = draw_sectors(data)
    seed = data.draw(st.integers(0, 2**16), label="seed")
    fci = perturbed_integrals(norb, n_alpha, n_beta, seed)
    assert np.max(np.abs(fci.h - fci.h.T)) <= SYM_TOL
    full = SpaceHamiltonian(fci)
    rows = random_subspace(norb, n_alpha, n_beta, data.draw(st.integers(1, full.dim)),
                           np.random.default_rng(seed))
    np.testing.assert_allclose(full.submatrix(rows), row_pair_hamiltonian(rows, fci), rtol=0,
                               atol=(2 * fci.nelec + 1) * SYM_TOL)


@GATHER_PROPERTY
@given(data=st.data())
def test_gather_rejects_rows_outside_the_space(data):
    norb, n_alpha, n_beta = draw_sectors(data)
    seed = data.draw(st.integers(0, 2**16), label="seed")
    fci = parse_fcidump(random_fcidump(norb, n_alpha + n_beta, ms2=n_alpha - n_beta, seed=seed))
    full = SpaceHamiltonian(fci)
    rows = random_subspace(norb, n_alpha, n_beta, data.draw(st.integers(1, full.dim)),
                           np.random.default_rng(seed)).astype(np.int64)
    at = data.draw(st.integers(0, len(rows) - 1), label="at")
    col = data.draw(st.integers(0, 2 * norb - 1), label="col")
    kind = data.draw(st.sampled_from(["count", "value", "carry", "duplicate"]), label="kind")
    bad = rows.copy()
    if kind == "count":
        bad[at, col] ^= 1
        message = re.escape(f"row {at} {bad[at].tolist()} is not a determinant of the space")
    elif kind == "value":
        bad[at, col] = data.draw(st.sampled_from([2, -1, 3, 2**40]), label="value")
        message = re.escape(f"row {at} {bad[at].tolist()} holds a value other than 0 or 1")
    elif kind == "carry":
        # a 2 in a sector's top orbital would set bit norb of that sector's
        # key, in the beta sector the alpha sector's bit 0
        top = data.draw(st.sampled_from([norb - 1, 2 * norb - 1]), label="top")
        bad[at, top] = 2
        message = re.escape(f"row {at} {bad[at].tolist()} holds a value other than 0 or 1")
    else:
        bad = np.insert(bad, 0, bad[at], axis=0)
        message = f"row {at + 1} repeats row 0: determinants must be distinct"
    with pytest.raises(ValueError, match=message):
        full.submatrix(bad)
    with pytest.raises(ValueError, match=message):
        project_and_diagonalize(bad, full)


def test_gathered_eigenpair_is_the_built_one():
    # the eigenpair of the row-pair build's matrix of the same rows, in their order
    fci = parse_fcidump(random_fcidump(5, 6, seed=4))
    full = SpaceHamiltonian(fci)
    rows = random_subspace(5, 3, 3, 40, np.random.default_rng(4))
    gathered_energy, gathered_ground = project_and_diagonalize(rows, full)
    built_energy, built_ground = _dense_ground(row_pair_hamiltonian(rows, fci))
    assert gathered_energy == built_energy + fci.core_energy
    assert np.array_equal(gathered_ground, built_ground)
    # the space's own triplets are gathered from, never handed to LAPACK to overwrite
    before = dense(full)
    project_and_diagonalize(full.dets, full)
    assert np.array_equal(dense(full), before)


def zeroed_integrals(fci: FciData, rng: np.random.Generator) -> FciData:
    """``fci`` with a symmetric random half of h and every two-electron
    integral but the on-site (ii|ii) set to zero: still exactly 8-fold
    symmetric, and many elements are then a zero integral times a parity,
    -0.0 where the parity is -1."""
    upper = np.triu(rng.random(fci.h.shape) < 0.5)
    sites = np.arange(fci.norb)
    eri = np.zeros_like(fci.eri)
    eri[sites, sites, sites, sites] = fci.eri[sites, sites, sites, sites]
    return FciData(norb=fci.norb, nelec=fci.nelec, ms2=fci.ms2,
                   h=np.where(upper | upper.T, fci.h, 0.0), eri=eri,
                   core_energy=fci.core_energy)


def assert_triplets_are_the_dense_build(fci, order, rng):
    """The space's triplets, a gathered subspace and the ground state against
    the dense oracles, bit for bit: the triplets scattered into zeros are the
    dense build, signed zeros included; a gather of the space's rows in
    ``order`` (built, reversed, shuffled or a shuffled subset) is the dense
    matrix's; the ground state has the bytes of the Lanczos pair on the dense
    matrix's row-major nonzeros."""
    space = SpaceHamiltonian(fci)
    oracle = hamiltonian_matrix(fci)
    rows, cols, values = space.triplets
    assert (np.diff(rows.astype(np.int64) * space.dim + cols) > 0).all()
    assert not ((values == 0) & ~np.signbit(values)).any()
    built = dense(space)
    assert np.array_equal(built, oracle)
    assert np.array_equal(np.signbit(built), np.signbit(oracle))
    pick = {"built": np.arange(space.dim), "reversed": np.arange(space.dim)[::-1],
            "shuffled": rng.permutation(space.dim),
            "subset": rng.permutation(space.dim)[:rng.integers(1, space.dim + 1)]}[order]
    gathered, want = space.submatrix(space.dets[pick]), oracle[np.ix_(pick, pick)]
    assert np.array_equal(gathered, want)
    assert np.array_equal(np.signbit(gathered), np.signbit(want))
    energy, ground = space.ground_state()
    want_energy, want_ground = dense_scan_ground(oracle, fci)
    assert energy == want_energy and ground.tobytes() == want_ground.tobytes()


TRIPLETS_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@TRIPLETS_PROPERTY
@given(data=st.data())
def test_triplets_are_the_dense_build(data):
    # whole parsed spaces of up to 7 orbitals at any filling, some with zeroed
    # integrals, gathered in the built, a reversed or a shuffled row order, or
    # as a subset
    norb = data.draw(st.integers(1, 7), label="norb")
    n_alpha = data.draw(st.integers(0, norb), label="n_alpha")
    n_beta = data.draw(st.integers(0, norb), label="n_beta")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    rng = np.random.default_rng(seed)
    fci = parse_fcidump(random_fcidump(norb, n_alpha + n_beta, ms2=n_alpha - n_beta, seed=seed))
    if data.draw(st.booleans(), label="zeroed"):
        fci = zeroed_integrals(fci, rng)
    order = data.draw(st.sampled_from(["built", "reversed", "shuffled", "subset"]), label="order")
    assert_triplets_are_the_dense_build(fci, order, rng)


@pytest.mark.parametrize("order", ["built", "reversed", "shuffled"])
@pytest.mark.parametrize("seed", [0, 3, 7])
def test_triplets_are_the_dense_build_on_the_benchmark_ring(seed, order):
    # the ring's zero integrals leave 105,840 entries -0.0 and 11,025 nonzero
    assert_triplets_are_the_dense_build(benchmark_ring(seed), order, np.random.default_rng(seed))


@pytest.mark.parametrize("block", [1, 7, 100, 4096])
def test_triplets_do_not_depend_on_the_join_block(block, monkeypatch):
    # a block of 1 joins one row at a time, each past the bound; the others
    # split rows' runs of candidates at every offset
    monkeypatch.setattr(hamiltonian, "_JOIN_BLOCK", block)
    assert_triplets_are_the_dense_build(perturbed_integrals(6, 3, 2, seed=block), "subset",
                                        np.random.default_rng(block))


def assert_ground_state_matches_dense(space: SpaceHamiltonian):
    """``ground_state`` against ``np.linalg.eigh`` of the space's matrix: the
    energy to 1e-12, a unit vector with residual at most 1e-9, and, where the
    ground state is separated by more than 1e-6, the dense vector up to sign."""
    matrix = dense(space)
    vals, vecs = np.linalg.eigh(matrix)
    energy, ground = space.ground_state()
    core = space.fci.core_energy
    assert energy == pytest.approx(vals[0] + core, abs=1e-12)
    assert np.linalg.norm(ground) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(matrix @ ground - (energy - core) * ground) <= 1e-9
    if len(vals) == 1 or vals[1] - vals[0] > 1e-6:
        assert abs(ground @ vecs[:, 0]) == pytest.approx(1.0, abs=1e-10)
    return energy, ground


LANCZOS_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@LANCZOS_PROPERTY
@given(data=st.data())
def test_lanczos_ground_state_matches_dense_eigh(data):
    # whole parsed spaces of up to 7 orbitals at any filling
    norb = data.draw(st.integers(1, 7), label="norb")
    n_alpha = data.draw(st.integers(0, norb), label="n_alpha")
    n_beta = data.draw(st.integers(0, norb), label="n_beta")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    fci = parse_fcidump(random_fcidump(norb, n_alpha + n_beta, ms2=n_alpha - n_beta, seed=seed))
    assert_ground_state_matches_dense(SpaceHamiltonian(fci))


@pytest.mark.parametrize("n_alpha,n_beta,seed", [(3, 3, 0), (3, 3, 7), (4, 3, 1)])
def test_lanczos_ground_state_at_the_benchmark_size(n_alpha, n_beta, seed):
    # 7 orbitals hold 1,225 determinants at these fillings, the sqd-large space
    fci = parse_fcidump(random_fcidump(7, n_alpha + n_beta, ms2=n_alpha - n_beta, seed=seed))
    space = SpaceHamiltonian(fci)
    assert space.dim == 1225
    assert_ground_state_matches_dense(space)


def diagonal_triplets(diagonal: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rows = np.flatnonzero(diagonal)
    return rows, rows, diagonal[rows]


@pytest.mark.parametrize("diagonal,want", [
    (np.arange(600.0), 0.0),                          # ARPACK's eigsh returned 1
    (np.repeat([0.0, 1.0], 300), 0.0),                # ARPACK's eigsh returned 1
    (np.ones(600), 1.0),                              # ARPACK's vector changed per call
], ids=["diag-0-to-599", "zeros-and-ones", "identity"])
def test_lanczos_on_the_arpack_failures(diagonal, want):
    value, vector = _lanczos_ground(*diagonal_triplets(diagonal), len(diagonal))
    assert value == pytest.approx(want, abs=1e-12)
    assert np.linalg.norm(diagonal * vector - value * vector) <= 1e-9
    again = _lanczos_ground(*diagonal_triplets(diagonal), len(diagonal))
    assert again[0] == value and again[1].tobytes() == vector.tobytes()


@pytest.mark.parametrize("magnitude", [1e-300, 1e-170, 1e160, 1e300])
def test_lanczos_at_extreme_magnitudes(magnitude):
    # the entries are scaled by a power of two first: unscaled, the squares
    # of 1e-170 entries underflow to a false breakdown at the first step, and
    # those of 1e160 entries overflow
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((30, 30))
    matrix = matrix + matrix.T
    rows, cols = np.nonzero(matrix)
    value, vector = _lanczos_ground(rows, cols, magnitude * matrix[rows, cols], 30)
    want = np.linalg.eigvalsh(matrix)[0]
    assert value / magnitude == pytest.approx(want, rel=1e-13)
    assert np.linalg.norm(matrix @ vector - want * vector) <= 1e-9


def test_lanczos_rejects_non_finite_entries():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="not finite"):
            _lanczos_ground(np.array([0, 1]), np.array([0, 1]), np.array([1.0, bad]), 2)


def assert_dense_ground_matches_eigh(matrix: np.ndarray, scale: float = 1.0) -> None:
    """``_dense_ground`` against the full spectrum of ``np.linalg.eigh``, in
    units of ``scale``: the energy to 1e-12 and, for a simple ground state,
    the squared amplitudes to 1e-13; a degenerate ground state's vector must
    lie in its eigenspace, whose projector leaves it unchanged to 1e-13."""
    vals, vecs = np.linalg.eigh(matrix / scale)
    energy, vector = _dense_ground(matrix.copy())
    assert energy / scale == pytest.approx(vals[0], abs=1e-12)
    assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-13)
    eigenspace = vecs[:, vals - vals[0] <= 1e-9]
    if eigenspace.shape[1] == 1:
        assert np.abs(vector**2 - eigenspace[:, 0]**2).max() <= 1e-13
    else:
        assert np.linalg.norm(vector - eigenspace @ (eigenspace.T @ vector)) <= 1e-13


@pytest.fixture
def singular_solves(monkeypatch):
    """One entry per ``np.linalg.solve`` call that found its matrix exactly singular."""
    solve, singular = np.linalg.solve, []

    def spy(a, b):
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            singular.append(True)
            raise
    monkeypatch.setattr(np.linalg, "solve", spy)
    return singular


@pytest.mark.parametrize("matrix,singular", [
    (np.array([[-0.75]]), True),                                 # dimension 1
    (np.diag([2.0] * 6), True),                                  # breaks down at once
    (np.diag([3.0, -1.0, 0.5, 7.0, -1.0 + 2**-40]), False),      # a diagonal, near-degenerate
    (np.kron(np.eye(3), [[0.0, 1.0], [1.0, 0.0]]), True),        # -1 three times: degenerate
    (-np.ones((4, 4)), True),                                    # -4 once, below a triple 0
], ids=["dim-1", "identity", "diagonal", "degenerate", "rank-one"])
def test_dense_ground_at_breakdowns_and_exact_shifts(matrix, singular, singular_solves):
    # where the Ritz value is an eigenvalue to the last bit, (H - theta I) is
    # exactly singular and the Ritz vector is kept
    assert_dense_ground_matches_eigh(matrix)
    assert bool(singular_solves) == singular


@pytest.mark.parametrize("exponent", [-1000, -600, 600, 1000])
def test_dense_ground_at_extreme_magnitudes(exponent):
    # scaled by 2^exponent, which is exact; unscaled, the Lanczos sums of
    # 2^600 entries would overflow and those of 2^-600 entries underflow
    rng = np.random.default_rng(1)
    matrix = rng.standard_normal((40, 40))
    matrix = matrix + matrix.T
    assert_dense_ground_matches_eigh(np.ldexp(matrix, exponent), scale=2.0**exponent)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dense_ground_rejects_non_finite_entries(bad):
    # a ValueError, never a traceback or a RuntimeWarning (which tier-1 makes errors)
    matrix = np.diag([1.0, 2.0, 3.0])
    matrix[0, 2] = matrix[2, 0] = bad
    with pytest.raises(ValueError, match="not finite"):
        _dense_ground(matrix)


DENSE_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@DENSE_PROPERTY
@given(data=st.data())
def test_dense_ground_matches_eigh(data):
    # Gaussian symmetric matrices, shifted far off zero as a deep core shifts
    # a batch matrix, where one orthogonalization pass needs the centring
    dim = data.draw(st.integers(1, 80), label="dim")
    offset = data.draw(st.sampled_from([0.0, 30.0, -1e3]), label="offset")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    matrix = rng.standard_normal((dim, dim))
    matrix = matrix + matrix.T + offset * np.eye(dim)
    vals = np.linalg.eigvalsh(matrix)
    if dim > 1 and vals[1] - vals[0] < 1e-2 * np.abs(vals).max():
        # a close pair: the amplitudes of any solver are only good to roundoff / gap
        energy, vector = _dense_ground(matrix.copy())
        assert energy == pytest.approx(vals[0], abs=1e-12 * np.abs(vals).max())
        assert np.linalg.norm(matrix @ vector - energy * vector) <= 1e-12 * np.abs(vals).max()
    else:
        assert_dense_ground_matches_eigh(matrix, scale=np.abs(vals).max())


@DENSE_PROPERTY
@given(data=st.data())
def test_batch_subspace_ground_state_matches_eigh(data):
    # random subspaces of parsed spaces of up to 6 orbitals, as the recovery draws them
    norb = data.draw(st.integers(1, 6), label="norb")
    n_alpha = data.draw(st.integers(0, norb), label="n_alpha")
    n_beta = data.draw(st.integers(0, norb), label="n_beta")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    fci = parse_fcidump(random_fcidump(norb, n_alpha + n_beta, ms2=n_alpha - n_beta, seed=seed))
    full = SpaceHamiltonian(fci)
    rows = random_subspace(norb, n_alpha, n_beta, data.draw(st.integers(1, full.dim)),
                           np.random.default_rng(seed))
    matrix = row_pair_hamiltonian(rows, fci)
    energy, vector = project_and_diagonalize(rows, full)
    vals, vecs = np.linalg.eigh(matrix)
    assert energy - fci.core_energy == pytest.approx(vals[0], abs=1e-12)
    if len(vals) == 1 or vals[1] - vals[0] > 1e-2:
        assert np.abs(vector**2 - vecs[:, 0]**2).max() <= 1e-13

def test_ground_state_repeats_bytes():
    fci = parse_fcidump(random_fcidump(6, 6, seed=1))
    space = SpaceHamiltonian(fci)
    energy, ground = space.ground_state()
    for again in (space.ground_state(), SpaceHamiltonian(fci).ground_state()):
        assert again[0] == energy and again[1].tobytes() == ground.tobytes()


@pytest.mark.parametrize("norb,nelec,ms2", [(2, 4, 0), (3, 6, 0), (2, 1, 1), (2, 3, -1)],
                         ids=["dim-1", "dim-1-norb-3", "dim-2", "dim-2-beta"])
def test_ground_state_of_one_and_two_determinants(norb, nelec, ms2):
    # the Krylov space fills the whole space at once: a breakdown, not a failure
    fci = parse_fcidump(random_fcidump(norb, nelec, ms2=ms2, seed=5))
    space = SpaceHamiltonian(fci)
    assert space.dim == (1 if nelec == 2 * norb else 2)
    assert_ground_state_matches_dense(space)


def test_ground_state_in_a_degenerate_eigenspace():
    # the matrix is h, with eigenvalues -1, -1 and +1 (as in the dense test
    # above): any unit vector orthogonal to (1, 1, 0) is a ground state
    h = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    fci = FciData(norb=3, nelec=1, ms2=1, h=h, eri=np.zeros((3,) * 4), core_energy=0.5)
    energy, ground = assert_ground_state_matches_dense(SpaceHamiltonian(fci))
    assert energy == pytest.approx(-0.5, abs=1e-14)
    assert abs(ground @ np.array([1.0, 1.0, 0.0])) < 1e-10


def test_ground_state_odd_under_spin_exchange():
    # with spin-free integrals and n_alpha = n_beta, H commutes with the row
    # permutation that swaps each row's alpha and beta halves. Here the ground
    # state is odd under it, so a start vector even under it would never reach
    # it; the Gaussian start does
    fci = parse_fcidump(random_fcidump(3, 2, seed=1))
    space = SpaceHamiltonian(fci)
    dets = space.dets.tolist()
    swap = [dets.index(row[3:] + row[:3]) for row in dets]
    matrix = dense(space)
    assert np.array_equal(matrix[np.ix_(swap, swap)], matrix)
    vals, vecs = np.linalg.eigh(matrix)
    assert vecs[swap, 0] @ vecs[:, 0] == pytest.approx(-1.0, abs=1e-12)
    assert vals[1] - vals[0] > 0.1
    _, ground = assert_ground_state_matches_dense(space)
    assert np.allclose(ground[swap], -ground, atol=1e-10)

def test_one_hamiltonian_build_per_sqd_recover_run(tmp_path, monkeypatch):
    from mddsim.cli import main

    calls = []
    build = hamiltonian._hamiltonian_triplets

    def counted(fci):
        calls.append((fci.norb, fci.n_alpha, fci.n_beta))
        return build(fci)

    monkeypatch.setattr(hamiltonian, "_hamiltonian_triplets", counted)
    cfg = tmp_path / "config.json"
    cfg.write_text('{"experiment": "sqd-recover", "fcidump": "random-8"}')
    assert main(["run", "--config", str(cfg), "--seed", "0", "--out", str(tmp_path / "out")]) == 0
    assert calls == [(4, 2, 2)]
