"""Configuration-recovery loop tests: weighting, bit correction, sampling,
and the end-to-end self-consistent iteration."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mddsim.sqd import (
    RecoveryConfig,
    SpaceHamiltonian,
    hubbard_dimer_fcidump,
    hubbard_dimer_energy,
    noisy_sampler,
    parse_fcidump,
    project_and_diagonalize,
    random_fcidump,
    recover_configuration,
    self_consistent_recovery,
    weight_w,
)
from mddsim.experiments import ExperimentConfig
from mddsim.sqd import recovery
from mddsim.sqd.hamiltonian import occupation_keys
from mddsim.sqd.recovery import _draw_batch, _solve_batch

from helpers import (benchmark_ring, determinants, recover_configuration_loop,
                     self_consistent_recovery_every_batch, weight_w_scalar)


def cli_recovery(seed: int) -> RecoveryConfig:
    """The recovery settings of an ``sqd-recover`` run at its defaults."""
    return ExperimentConfig(experiment="sqd-recover", seed=seed).recovery


@pytest.fixture(scope="module")
def toy():
    fci = parse_fcidump(random_fcidump(4, 4, seed=42))
    space = SpaceHamiltonian(fci)
    dets = space.dets
    energy, ground = project_and_diagonalize(dets, space)
    return space, dets, energy, ground


class TestWeight:
    def test_anchor_points(self):
        assert weight_w(0.0, h=0.5, delta=0.01) == 0.0
        assert weight_w(0.5, h=0.5, delta=0.01) == pytest.approx(0.01)
        assert weight_w(1.0, h=0.5, delta=0.01) == pytest.approx(1.0)

    def test_continuous_and_monotone(self):
        h = 0.3
        ys = np.linspace(0.0, 1.0, 401)
        vals = [weight_w(float(y), h=h, delta=0.01) for y in ys]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        left = weight_w(h - 1e-12, h=h, delta=0.01)
        right = weight_w(h + 1e-12, h=h, delta=0.01)
        assert abs(left - right) < 1e-9

    def test_filling_factor_validation(self):
        with pytest.raises(ValueError, match="filling"):
            weight_w(0.5, h=0.0, delta=0.01)
        with pytest.raises(ValueError, match="filling"):
            weight_w(0.5, h=1.0, delta=0.01)

    def test_array_matches_scalar_oracle(self):
        # bit for bit, on either side of h and at both ends, in the input's shape
        ys = np.array([[0.0, 0.1, 0.3], [0.3 + 1e-16, 0.7, 1.0]])
        for h, delta in ((0.3, 0.01), (0.5, 0.25), (2 / 7, 1e-300)):
            got = weight_w(ys, h, delta)
            assert got.shape == ys.shape
            assert np.array_equal(got, [[weight_w_scalar(y, h, delta) for y in row] for row in ys])
        assert isinstance(weight_w(0.25, h=0.5, delta=0.01), float)

    def test_deviation_outside_unit_interval_rejected(self):
        for ys in (np.array([0.5, np.nextafter(1.0, 2.0)]), np.array([-1e-300]), np.array([np.nan])):
            with pytest.raises(ValueError, match="deviation"):
                weight_w(ys, h=0.5, delta=0.01)


class TestRecoverConfiguration:
    # one-row, one-sector blocks: the single-sector corrections of the loop
    def test_matching_count_unchanged(self):
        rng = np.random.default_rng(0)
        bits = np.array([1, 0, 1, 0], dtype=np.uint8)
        out = recover_configuration(bits[None], np.full(4, 0.5), [2], rng, 0.01)[0]
        np.testing.assert_array_equal(out, bits)

    def test_deficit_of_one_flips_exactly_one(self):
        rng = np.random.default_rng(1)
        bits = np.array([1, 0, 0, 0], dtype=np.uint8)
        out = recover_configuration(bits[None], np.full(4, 0.5), [2], rng, 0.01)[0]
        assert out.sum() == 2
        assert np.sum(out != bits) == 1
        assert np.all(out >= bits)  # only 0 -> 1 flips

    def test_surplus_only_clears_bits(self):
        rng = np.random.default_rng(2)
        bits = np.array([1, 1, 1, 0], dtype=np.uint8)
        out = recover_configuration(bits[None], np.full(4, 0.5), [1], rng, 0.01)[0]
        assert out.sum() == 1
        assert np.all(out <= bits)

    def test_indicator_occupancy_recovers_unique_target(self):
        # with a 0/1 occupancy the weights concentrate entirely on the target
        # orbitals, so every corrupted draw converges to the one valid pattern
        target = np.array([1, 1, 0, 0], dtype=np.uint8)
        occupancy = target.astype(float)
        rng = np.random.default_rng(3)
        hits = 0
        for _ in range(1000):
            corrupted = np.array([[1, 0, 0, 0]], dtype=np.uint8)
            out = recover_configuration(corrupted, occupancy, [2], rng, 0.01)[0]
            hits += np.array_equal(out, target)
        assert hits == 1000

    def test_zero_weight_fallback_is_uniform(self):
        rng = np.random.default_rng(4)
        bits = np.zeros((1, 4), dtype=np.uint8)
        out = recover_configuration(bits, np.zeros(4), [1], rng, 0.01)[0]
        assert out.sum() == 1

    def test_impossible_correction_rejected(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="cannot place"):
            recover_configuration(np.zeros((1, 3), dtype=np.uint8), np.zeros(3), [5], rng, 0.01)

    def test_occupancy_one_ulp_above_one_is_clamped(self):
        # a batch occupancy is a sum of squared amplitudes, so an orbital held
        # by every batch row can read 1 + 2^-52; its empty bit must still flip
        occupancy = np.array([np.nextafter(1.0, 2.0), 1.0, 1.0, 0.0, 0.0])
        bits = np.array([[0, 1, 1, 0, 0]], dtype=np.uint8)
        out = recover_configuration(bits, occupancy, [3], np.random.default_rng(7), 0.01)[0]
        np.testing.assert_array_equal(out, [1, 1, 1, 0, 0])

    @pytest.mark.parametrize("n_target", [0, 4])
    def test_empty_or_full_sector_leaves_no_choice(self, n_target):
        # the filling factor would be 0 or 1, where the flip weight is undefined
        for bits in ([1, 0, 1, 0], [0, 0, 0, 1], [1, 1, 1, 0]):
            out = recover_configuration(np.array([bits], dtype=np.uint8), np.full(4, 0.5),
                                        [n_target], np.random.default_rng(8), 0.01)[0]
            np.testing.assert_array_equal(out, np.full(4, n_target // 4))
            assert out.dtype == np.uint8

    def test_length_mismatch_rejected(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError, match="lengths"):
            recover_configuration(np.zeros((1, 3), dtype=np.uint8), np.zeros(4), [1], rng, 0.01)


class TestNoisySampler:
    def test_zero_flip_rate_gives_valid_configurations(self, toy):
        _, dets, _, ground = toy
        samples = noisy_sampler(ground, dets, flip_rate=0.0, shots=200, seed=7)
        alpha_counts = samples[:, :4].sum(axis=1)
        beta_counts = samples[:, 4:].sum(axis=1)
        assert np.all(alpha_counts == 2) and np.all(beta_counts == 2)

    def test_corruption_fraction_matches_binomial(self, toy):
        _, dets, _, ground = toy
        rate, m = 0.5, 8
        samples = noisy_sampler(ground, dets, flip_rate=rate, shots=10_000, seed=8)
        valid = ((samples[:, :4].sum(axis=1) == 2) & (samples[:, 4:].sum(axis=1) == 2)).mean()
        # exact probability that independent flips preserve both sector counts:
        # each sector has 2 ones and 2 zeros; the count is preserved when the
        # number of 1->0 flips equals the number of 0->1 flips
        def sector_preserved(p):
            total = 0.0
            for k in range(3):
                total += (math.comb(2, k) * p**k * (1 - p) ** (2 - k)) ** 2
            return total
        expected = sector_preserved(rate) ** 2
        assert valid == pytest.approx(expected, abs=0.02)

    def test_seeded_determinism(self, toy):
        _, dets, _, ground = toy
        a = noisy_sampler(ground, dets, 0.1, 100, seed=9)
        b = noisy_sampler(ground, dets, 0.1, 100, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_flip_rate_validation(self, toy):
        _, dets, _, ground = toy
        with pytest.raises(ValueError, match="flip rate"):
            noisy_sampler(ground, dets, 1.0, 10, seed=0)


class TestSelfConsistentRecovery:
    def test_noiseless_samples_reach_exact_energy_at_iteration_zero(self):
        fci = parse_fcidump(hubbard_dimer_fcidump())
        space = SpaceHamiltonian(fci)
        dets = space.dets
        _, ground = project_and_diagonalize(dets, space)
        samples = noisy_sampler(ground, dets, flip_rate=0.0, shots=400, seed=10)
        config = RecoveryConfig(iterations=2, num_batches=4, samples_per_batch=400,
                                delta=0.01, seed=0)
        report = self_consistent_recovery(samples, space, config)
        assert report["status"] == "ok"
        exact = hubbard_dimer_energy()
        for batch_energy in report["energies"][0]:
            assert batch_energy == pytest.approx(exact, abs=1e-10)

    def test_noise_recovery_improves_energy(self, toy):
        space, dets, e_fci, ground = toy
        wins = 0
        for seed in range(8):
            samples = noisy_sampler(ground, dets, flip_rate=0.05, shots=300, seed=seed)
            config = RecoveryConfig(iterations=5, num_batches=10, samples_per_batch=300,
                                    delta=0.01, seed=seed)
            report = self_consistent_recovery(samples, space, config)
            errors = [abs(m - e_fci) for m in report["mean_energies"]]
            wins += errors[-1] < errors[0]
        assert wins >= 7

    def test_deterministic_for_fixed_inputs(self, toy):
        space, dets, _, ground = toy
        samples = noisy_sampler(ground, dets, flip_rate=0.05, shots=200, seed=11)
        config = RecoveryConfig(iterations=3, num_batches=5, samples_per_batch=120,
                                delta=0.01, seed=4)
        a = self_consistent_recovery(samples, space, config)
        b = self_consistent_recovery(samples, space, config)
        assert a == b

    def test_valid_configurations_never_discarded(self, toy):
        space, dets, _, ground = toy
        samples = noisy_sampler(ground, dets, flip_rate=0.1, shots=200, seed=12)
        n_valid = int(((samples[:, :4].sum(axis=1) == 2)
                       & (samples[:, 4:].sum(axis=1) == 2)).sum())
        config = RecoveryConfig(iterations=4, num_batches=3, samples_per_batch=100,
                                delta=0.01, seed=1)
        report = self_consistent_recovery(samples, space, config)
        assert report["pool_sizes"][0] == n_valid
        assert all(size >= n_valid for size in report["pool_sizes"])
        assert all(size == samples.shape[0] for size in report["pool_sizes"][1:])

    def test_no_valid_configurations_reports_failure(self, toy):
        space, _, _, _ = toy
        bad = np.ones((10, 8), dtype=np.uint8)  # every sector overfull
        report = self_consistent_recovery(bad, space, cli_recovery(0))
        assert report["status"] == "no-valid-configurations"
        assert report["energies"] == []

    def test_occupancy_sums_to_electron_count(self, toy):
        space, dets, _, ground = toy
        samples = noisy_sampler(ground, dets, flip_rate=0.02, shots=300, seed=13)
        config = RecoveryConfig(iterations=3, num_batches=6, samples_per_batch=300,
                                delta=0.01, seed=2)
        report = self_consistent_recovery(samples, space, config)
        for occ in np.array(report["occupancies"]):
            assert occ.sum() == pytest.approx(space.fci.nelec, abs=1e-8)
            assert np.all(occ >= -1e-12) and np.all(occ <= 1 + 1e-12)

    def test_batch_matches_per_sample_loop(self):
        # one bitmask determinant per sample, deduplicated, sorted by (alpha,
        # beta), occupations accumulated amplitude by amplitude; nine orbitals
        # span two bytes of each sector's mask
        fci = parse_fcidump(random_fcidump(9, 4, seed=3))
        space = SpaceHamiltonian(fci)
        pool = space.dets
        _, rows = _draw_batch(pool, 300, np.random.default_rng(5))
        energy, occupancy = _solve_batch(rows, space)
        batch = pool[np.random.default_rng(5).choice(len(pool), size=300, replace=False)]
        subspace = sorted(set(determinants(batch)), key=lambda d: (d.alpha, d.beta))
        rows = np.array([[(d.alpha >> p) & 1 for p in range(9)] + [(d.beta >> p) & 1 for p in range(9)]
                         for d in subspace])
        want_energy, want_ground = project_and_diagonalize(rows, space)
        want = np.zeros(18)
        for amplitude, row in zip(want_ground, rows):
            want += (amplitude**2) * row
        assert energy == want_energy
        assert np.array_equal(occupancy, want)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            replace(cli_recovery(0), iterations=0)
        with pytest.raises(ValueError):
            replace(cli_recovery(0), delta=1.5)


VARIATIONAL_PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)


@VARIATIONAL_PROPERTY
@given(data=st.data())
def test_batch_energies_lie_above_the_lanczos_reference(data):
    # a subspace's lowest eigenvalue is never below the whole space's, and a
    # Lanczos iteration stopped early leaves its Ritz value above that too: a
    # batch that spans (nearly) the whole space then falls below the reference
    norb = data.draw(st.integers(1, 6), label="norb")
    n_alpha = data.draw(st.integers(0, norb), label="n_alpha")
    n_beta = data.draw(st.integers(0, norb), label="n_beta")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    fci = parse_fcidump(random_fcidump(norb, n_alpha + n_beta, ms2=n_alpha - n_beta, seed=seed))
    space = SpaceHamiltonian(fci)
    dets = space.dets
    reference, ground = space.ground_state()
    samples = noisy_sampler(ground, dets, flip_rate=0.02, shots=400, seed=seed)
    config = RecoveryConfig(iterations=2, num_batches=3, samples_per_batch=200,
                            delta=0.01, seed=seed)
    report = self_consistent_recovery(samples, space, config)
    batches = [energy for batch in report["energies"] for energy in batch]
    assert report["status"] != "ok" or min(batches) >= reference - 1e-10


class BoundaryDraws(np.random.Generator):
    """A generator whose uniform number for each ``choice(k, p=...)`` lies
    exactly on an entry below 1 of the cumulative distribution that choice
    searches, one ulp below an entry, or at 0, picked by its own stream; ``draws`` records
    them. These are the numbers at which a search on the wrong side, an
    undivided cumulative sum or a regrouped row sum picks another candidate,
    and a uniform draw almost never hits one of them."""

    def __init__(self, seed: int):
        super().__init__(np.random.PCG64(seed))
        self.draws, self._p = [], None

    def choice(self, a, p=None):
        self._p = np.asarray(p, dtype=float)
        return super().choice(a, p=p)

    def random(self, size=None, dtype=np.float64, out=None):
        cdf = self._p.cumsum()
        cdf /= cdf[-1]
        options = np.concatenate([cdf[cdf < 1.0], np.nextafter(cdf, 0.0), [0.0]])  # in [0, 1)
        self.draws.append(options[self.integers(len(options))])
        return np.array(self.draws[-1])


class Replay(np.random.Generator):
    """A generator whose one ``random(n)`` call returns the recorded draws."""

    def __init__(self, draws: list[float]):
        super().__init__(np.random.PCG64(0))
        self._draws = np.array(draws, dtype=float)

    def random(self, size=None, dtype=np.float64, out=None):
        assert size == len(self._draws)
        return self._draws


RECOVERY_PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def draw_block(data):
    """Rows of 1-3 sectors of 1-9 orbitals, any filling (0 and norb too), up
    to 400 of them; the occupancy uniform, equal to the first row's bits (all
    its weights zero), or mixing uniform entries with 0, 1 and one ulp above 1."""
    norb = data.draw(st.integers(1, 9), label="norb")
    targets = data.draw(st.lists(st.integers(0, norb), min_size=1, max_size=3), label="targets")
    count = data.draw(st.integers(0, 400), label="rows")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    width = norb * len(targets)
    rows = (rng.random((count, width)) < rng.random()).astype(np.uint8)
    kind = data.draw(st.sampled_from(["uniform", "bits", "edges"]), label="occupancy")
    if kind == "uniform" or count == 0:
        occupancy = rng.random(width)
    elif kind == "bits":
        occupancy = rows[0].astype(float)
    else:
        occupancy = np.where(rng.random(width) < 0.5, rng.random(width),
                             rng.choice([0.0, 1.0, np.nextafter(1.0, 2.0)], size=width))
    delta = data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), label="delta")
    return rows, occupancy, targets, delta


@RECOVERY_PROPERTY
@given(data=st.data())
def test_batch_recovery_is_the_per_row_loop(data):
    rows, occupancy, targets, delta = draw_block(data)
    seed = data.draw(st.integers(0, 2**32 - 1), label="stream")
    got = recover_configuration(rows, occupancy, targets, np.random.default_rng(seed), delta)
    want = recover_configuration_loop(rows, occupancy, targets, np.random.default_rng(seed), delta)
    assert got.dtype == np.uint8
    assert np.array_equal(got, want)


@RECOVERY_PROPERTY
@given(data=st.data())
def test_batch_recovery_picks_what_choice_picks_at_boundary_draws(data):
    rows, occupancy, targets, delta = draw_block(data)
    oracle = BoundaryDraws(data.draw(st.integers(0, 2**32 - 1), label="stream"))
    want = recover_configuration_loop(rows, occupancy, targets, oracle, delta)
    got = recover_configuration(rows, occupancy, targets, Replay(oracle.draws), delta)
    assert np.array_equal(got, want)


def test_one_correction_call_per_iteration(toy, monkeypatch):
    space, dets, _, ground = toy
    samples = noisy_sampler(ground, dets, flip_rate=0.1, shots=200, seed=14)
    calls = []
    monkeypatch.setattr(recovery, "recover_configuration",
                        lambda rows, *args, **kwargs: calls.append(len(rows))
                        or recover_configuration(rows, *args, **kwargs))
    config = RecoveryConfig(iterations=4, num_batches=2, samples_per_batch=50, delta=0.01, seed=3)
    report = self_consistent_recovery(samples, space, config)
    invalid = samples.shape[0] - report["pool_sizes"][0]
    assert invalid > 0 and calls == [invalid] * 3


ORACLE_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@ORACLE_PROPERTY
@given(data=st.data())
def test_recovery_is_the_solve_every_batch_loop(data):
    # the pool holds the valid samples at iteration 0 and every sample later,
    # so a batch of the sample count is drawn from a pool of its size from
    # iteration 1 on, and a smaller or a larger batch from one larger or smaller
    norb = data.draw(st.integers(1, 5), label="norb")
    n_alpha = data.draw(st.integers(0, norb), label="n_alpha")
    n_beta = data.draw(st.integers(0, norb), label="n_beta")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    fci = parse_fcidump(random_fcidump(norb, n_alpha + n_beta, ms2=n_alpha - n_beta, seed=seed))
    space = SpaceHamiltonian(fci)
    dets = space.dets
    _, ground = space.ground_state()
    shots = data.draw(st.integers(1, 150), label="shots")
    flip_rate = data.draw(st.sampled_from([0.0, 0.05, 0.3]), label="flip_rate")
    samples = noisy_sampler(ground, dets, flip_rate=flip_rate, shots=shots, seed=seed)
    size = {"smaller": max(1, shots // 2), "equal": shots, "larger": 2 * shots}[
        data.draw(st.sampled_from(["smaller", "equal", "larger"]), label="batch")]
    config = RecoveryConfig(iterations=data.draw(st.integers(3, 5), label="iterations"),
                            num_batches=data.draw(st.integers(1, 6), label="num_batches"),
                            samples_per_batch=size, delta=0.01, seed=seed)
    assert (self_consistent_recovery(samples, space, config)
            == self_consistent_recovery_every_batch(samples, space, config))


@pytest.fixture(scope="module")
def ring_samples():
    def sample(seed):
        fci = benchmark_ring(seed)
        space = SpaceHamiltonian(fci)
        dets = space.dets
        _, ground = space.ground_state()
        return space, noisy_sampler(ground, dets, flip_rate=0.05, shots=300, seed=seed)
    return sample


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_recovery_is_the_solve_every_batch_loop_on_the_benchmark_ring(ring_samples, seed):
    space, samples = ring_samples(seed)
    config = cli_recovery(seed)
    assert (self_consistent_recovery(samples, space, config)
            == self_consistent_recovery_every_batch(samples, space, config))


def test_one_solve_per_distinct_subspace(ring_samples, monkeypatch):
    # the defaults draw batches of the sample count: from iteration 1 on, all
    # of an iteration's batches are the whole pool, one new subspace each
    space, samples = ring_samples(0)
    drawn, solved, starts = [], [], []

    def draw(*args):
        keys, rows = _draw_batch(*args)
        drawn.append(keys.tobytes())
        return keys, rows

    def solve(rows, space):
        solved.append(occupation_keys(rows, space.fci.norb).tobytes())
        return project_and_diagonalize(rows, space)

    def correct(*args, **kwargs):
        starts.append(len(solved))
        return recover_configuration(*args, **kwargs)

    monkeypatch.setattr(recovery, "_draw_batch", draw)
    monkeypatch.setattr(recovery, "project_and_diagonalize", solve)
    monkeypatch.setattr(recovery, "recover_configuration", correct)
    config = cli_recovery(0)
    assert config.samples_per_batch == samples.shape[0]
    self_consistent_recovery(samples, space, config)
    assert len(drawn) == config.iterations * config.num_batches
    assert solved == list(dict.fromkeys(drawn))
    assert len(starts) == config.iterations - 1
    assert np.diff(starts + [len(solved)]).tolist() == [1] * (config.iterations - 1)
