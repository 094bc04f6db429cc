"""Tests for covariance factorization and replicate-keyed sampling.

Oracles: hand-computed Cholesky factors, Monte Carlo moments with
standard-error bars, the replicate-keying contract (stream i depends
only on the master seed and i), numpy's own SeedSequence and Generator
for the bulk-seeded streams (``oracle.replicate_stream``), and
scipy.special.ndtri for the Cephes port of the inverse normal CDF.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fracfield.sampler
from fracfield import (EquationKind, NumericalError, PointGrid,
                       cov_matrix, factor_psd, sample_field)
from fracfield.covariance import CovarianceMatrix
from fracfield.sampler import (_EXP_M2, _ndtri, _openblas_thread_api,
                               _stream_uniforms)
from oracle import _uniforms, replicate_stream, standard_normals


def make_cov(entries):
    entries = np.asarray(entries, dtype=float)
    points = tuple((1.0, float(j)) for j in range(entries.shape[0]))
    return CovarianceMatrix(points=points, entries=entries)


@pytest.fixture(scope="module")
def wave_cov():
    """The 561-node covariance of the sim_wave benchmark: wave, H = 0.3,
    on a 17 x 33 grid of [0, 1] x [-1, 1]."""
    grid = PointGrid(horizon=1.0, half_width=1.0, n_t=16, n_x=32)
    return cov_matrix(EquationKind.WAVE, 0.3, np.stack(grid.nodes(), axis=1))


class TestFactorPsd:
    def test_identity_needs_no_jitter(self):
        factor = factor_psd(make_cov(np.eye(3)))
        assert np.array_equal(factor.lower, np.eye(3))
        assert factor.jitter_used == 0.0

    def test_known_two_by_two(self):
        # [[4, 2], [2, 3]] factors as [[2, 0], [1, sqrt(2)]].
        factor = factor_psd(make_cov([[4.0, 2.0], [2.0, 3.0]]))
        expected = np.array([[2.0, 0.0], [1.0, math.sqrt(2.0)]])
        assert np.allclose(factor.lower, expected, rtol=1e-15, atol=0)
        assert factor.jitter_used == 0.0

    def test_zero_matrix_degenerates_exactly(self):
        factor = factor_psd(make_cov(np.zeros((4, 4))))
        assert np.array_equal(factor.lower, np.zeros((4, 4)))
        assert factor.jitter_used == 0.0

    def test_zero_variance_nodes_keep_zero_rows(self):
        # Nodes 0 and 2 are deterministic; the rest is positive definite
        # and factors without jitter, as the t = 0 rows of a grid do.
        block = np.array([[2.0, 0.5, 0.1], [0.5, 1.0, 0.3], [0.1, 0.3, 1.5]])
        a = np.zeros((5, 5))
        a[np.ix_([1, 3, 4], [1, 3, 4])] = block
        factor = factor_psd(make_cov(a))
        assert factor.jitter_used == 0.0
        assert not factor.lower[[0, 2]].any()
        assert not factor.lower[:, [0, 2]].any()
        assert np.array_equal(factor.lower, np.tril(factor.lower))
        assert np.allclose(factor.lower @ factor.lower.T, a,
                           rtol=1e-15, atol=1e-15)

    @pytest.mark.parametrize("c", [0.1, 1e-9])
    def test_zero_variance_with_covariance_raises(self, c):
        # Jitter would absorb c = 1e-9; a zero variance rules it out.
        a = np.array([[0.0, c], [c, 1.0]])
        with pytest.raises(NumericalError, match="zero variance"):
            factor_psd(make_cov(a))

    def test_singular_psd_climbs_jitter_ladder(self):
        # Rank-one matrix: exact Cholesky fails, tiny jitter fixes it.
        v = np.array([1.0, 2.0, 3.0])
        factor = factor_psd(make_cov(np.outer(v, v)))
        assert 0.0 < factor.jitter_used <= 1e-6 * 9.0
        recon = factor.lower @ factor.lower.T
        assert np.allclose(recon, np.outer(v, v), atol=1e-5)

    def test_indefinite_matrix_raises(self):
        # The ladder's cap is 1e-6 of the largest variance.
        with pytest.raises(NumericalError,
                           match=r"\(max jitter tried 1\.000e-06\)$"):
            factor_psd(make_cov([[1.0, 2.0], [2.0, 1.0]]))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            factor_psd(make_cov([[1.0, 0.5], [0.4, 1.0]]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            factor_psd(make_cov([[1.0, np.nan], [np.nan, 1.0]]))


def identity_normals(master_seed, n_replicates, k):
    """The package's normals of replicates 0 .. n_replicates - 1, k per
    replicate: sample_field on an identity factor returns them as is."""
    factor = factor_psd(make_cov(np.eye(k)))
    return sample_field(factor, master_seed, n_replicates).values


class TestReplicateStream:
    """The oracle's per-replicate keying."""

    def test_same_key_same_stream(self):
        a = replicate_stream(42, 7).standard_normal(5)
        b = replicate_stream(42, 7).standard_normal(5)
        assert np.array_equal(a, b)

    def test_different_replicates_differ(self):
        a = replicate_stream(42, 0).standard_normal(5)
        b = replicate_stream(42, 1).standard_normal(5)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = replicate_stream(1, 0).standard_normal(5)
        b = replicate_stream(2, 0).standard_normal(5)
        assert not np.array_equal(a, b)

    def test_negative_replicate_rejected(self):
        with pytest.raises(ValueError):
            replicate_stream(0, -1)

    def test_negative_seed_rejected_naming_it(self):
        # Not numpy's "expected non-negative integer", which names no key.
        with pytest.raises(ValueError,
                           match="^master_seed must be >= 0, got -1$"):
            replicate_stream(-1, 0)


class TestStreamUniforms:
    """The bulk route against the oracle ``_uniforms(replicate_stream(
    seed, i), k)``: 100,000 indices in all, over one- and two-word spawn
    keys and seeds of one to five 32-bit words."""

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 32, 2 ** 64 + 1,
                                      2 ** 128 + 3])
    def test_bit_identical_to_replicate_stream(self, seed):
        indices = np.concatenate([np.arange(10_000),
                                  np.arange(2 ** 32 - 5_000, 2 ** 32 + 5_000)])
        assert {0, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 5} <= set(indices.tolist())
        got = _stream_uniforms(seed, indices, np.empty((indices.size, 3)))
        want = np.stack([_uniforms(replicate_stream(seed, i), 3)
                         for i in indices.tolist()])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_any_row_length_and_order(self):
        # Row j depends on indices[j] alone, at every row length.
        indices = [2 ** 63 + 9, 7, 2 ** 32 + 5, 7]
        for k in (0, 1, 561):
            got = _stream_uniforms(2 ** 40, indices,
                                   np.empty((len(indices), k)))
            want = np.stack([_uniforms(replicate_stream(2 ** 40, i), k)
                             for i in indices])
            assert np.array_equal(got, want)

    def test_negative_seed_raises_before_any_work(self):
        out = np.full((2, 3), np.nan)
        with pytest.raises(ValueError,
                           match="^master_seed must be >= 0, got -1$"):
            _stream_uniforms(-1, [0, 1], out)
        assert np.isnan(out).all()
        factor = factor_psd(make_cov(np.eye(2)))
        with pytest.raises(ValueError,
                           match="^master_seed must be >= 0, got -1$"):
            sample_field(factor, -1, 3)

    def test_non_integer_seed_raises_type_error(self):
        # As SeedSequence does; a float seed is not truncated.
        factor = factor_psd(make_cov(np.eye(2)))
        with pytest.raises(TypeError):
            sample_field(factor, 1.5, 3)


class TestStandardNormals:
    """The package's normals, drawn through sample_field."""

    def test_deterministic_and_finite(self):
        a = identity_normals(3, 1000, 100)
        b = identity_normals(3, 1000, 100)
        assert np.array_equal(a, b)
        assert np.all(np.isfinite(a))

    def test_moments_within_four_se(self):
        z = identity_normals(12345, 2000, 100)
        n = z.size
        assert abs(z.mean()) <= 4.0 / math.sqrt(n)
        assert abs(z.var() - 1.0) <= 4.0 * math.sqrt(2.0 / (n - 1))

    def test_extreme_draws_stay_finite(self, monkeypatch):
        ndtri = pytest.importorskip("scipy.special").ndtri
        # The top 53 bits 0 and 2**53 - 1 bound the draw range, and
        # around 2**52 the half-cell offset is lost to rounding.  Only the
        # top one, whose midpoint rounds to 1, differs from the unclamped
        # transform, which maps it to +inf.
        ks = np.array([0, 2 ** 52 - 1, 2 ** 52, 2 ** 53 - 2, 2 ** 53 - 1],
                      dtype=np.uint64)

        class Stub:
            # Every raw word carries ks in its top 53 bits and ones in
            # the 11 bits below, which the uniforms drop.
            def __init__(self, seed):
                pass

            def random_raw(self, size):
                assert size == ks.size
                return ks << 11 | 0x7FF

        monkeypatch.setattr(fracfield.sampler, "PCG64", Stub)
        u = _stream_uniforms(0, [0], np.empty((1, ks.size)))
        z = _ndtri(u[0])
        unclamped = ndtri((ks + 0.5) * 2.0 ** -53)
        assert np.all(np.isfinite(z))
        assert np.array_equal(z[:-1].view(np.uint64),
                              unclamped[:-1].view(np.uint64))
        assert unclamped[-1] == np.inf
        assert z[-1] == ndtri(np.nextafter(1.0, 0.0))

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_never_degenerate(self, seed):
        z = identity_normals(seed, 1, 64)[0]
        assert np.all(np.isfinite(z))
        assert np.ptp(z) > 0.0


class TestSampleField:
    def test_replicate_prefix_stable_across_batch_size(self):
        # Replicate i must not depend on how many replicates are drawn.
        factor = factor_psd(make_cov([[2.0, 0.5], [0.5, 1.0]]))
        big = sample_field(factor, 99, 8).values
        small = sample_field(factor, 99, 3).values
        assert np.array_equal(big[:3], small)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 129, 200])
    def test_replicate_prefix_stable_at_full_size(self, wave_cov, n):
        # At k = 561 the rows of one product depend on its row count
        # unless the product runs in blocks of a fixed size; n runs over
        # the block edges.
        factor = factor_psd(wave_cov)
        big = sample_field(factor, 3, 400).values
        assert np.array_equal(sample_field(factor, 3, n).values, big[:n])

    def test_memory_beyond_the_output_does_not_grow(self, wave_cov):
        # Sampling holds a few 64-row arrays besides its output, so
        # doubling the replicates adds the extra output and no more.
        # Measured at k = 561, R from 64 to 400 and three seeds: 0.99 to
        # 1.012 times the extra output bytes (drawing all replicates'
        # normals at once read 5.6 to 6.2).
        factor = factor_psd(wave_cov)
        k = factor.lower.shape[0]

        def traced_peak(n):
            tracemalloc.start()
            try:
                sample_field(factor, 4, n)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        extra = traced_peak(512) - traced_peak(256)
        assert extra <= 1.25 * 256 * k * 8

    def test_bits_do_not_depend_on_blas_threads(self, wave_cov):
        blas = _openblas_thread_api()
        if blas is None:
            pytest.skip("numpy does not link OpenBLAS here")
        get, set_ = blas
        host = get()
        try:
            set_(1)
            one = factor_psd(wave_cov)
            set_(2)
            if get() != 2:
                pytest.skip("OpenBLAS does not run 2 threads here")
            two = factor_psd(wave_cov)
            assert np.array_equal(two.lower, one.lower)
            assert np.array_equal(sample_field(two, 5, 130).values,
                                  sample_field(one, 5, 130).values)
            # The sampler restores the count it found.
            assert get() == 2
        finally:
            set_(host)

    def test_marginal_variances_within_four_se(self):
        sigma2 = np.array([4.0, 0.25])
        factor = factor_psd(make_cov(np.diag(sigma2)))
        n = 20000
        sample = sample_field(factor, 2024, n).values
        est = sample.var(axis=0, ddof=1)
        se = sigma2 * math.sqrt(2.0 / (n - 1))
        assert np.all(np.abs(est - sigma2) <= 4.0 * se)

    def test_cross_covariance_within_four_se(self):
        entries = np.array([[1.0, 0.6], [0.6, 1.0]])
        factor = factor_psd(make_cov(entries))
        n = 20000
        sample = sample_field(factor, 7, n).values
        est = float(np.mean(sample[:, 0] * sample[:, 1]))
        # Var of the product of two standard normals with correlation r
        # is 1 + r^2.
        se = math.sqrt((1.0 + 0.6 ** 2) / n)
        assert abs(est - 0.6) <= 4.0 * se

    def test_degenerate_factor_yields_zero_field(self):
        factor = factor_psd(make_cov(np.zeros((3, 3))))
        sample = sample_field(factor, 5, 10)
        assert np.array_equal(sample.values, np.zeros((10, 3)))

    def test_replicate_count_validated(self):
        factor = factor_psd(make_cov(np.eye(2)))
        with pytest.raises(ValueError):
            sample_field(factor, 0, 0)

    @pytest.mark.parametrize("eqn", [EquationKind.HEAT, EquationKind.WAVE])
    def test_linear_field_variance_roundtrip(self, eqn):
        # End to end: covariance -> factor -> samples reproduce the
        # diagonal within Monte Carlo error.
        points = [(1.0, 0.0), (1.0, 0.6), (2.0, -0.3)]
        cov = cov_matrix(eqn, 0.5, points)
        n = 20000
        sample = sample_field(factor_psd(cov), 31, n).values
        est = sample.var(axis=0, ddof=1)
        truth = np.diag(cov.entries)
        se = truth * math.sqrt(2.0 / (n - 1))
        assert np.all(np.abs(est - truth) <= 4.0 * se)


class TestNdtriPort:
    def test_stream_draws_bit_identical_to_scipy(self):
        ndtri = pytest.importorskip("scipy.special").ndtri
        u = _uniforms(np.random.default_rng(2024), 1_000_000)
        assert np.array_equal(_ndtri(u).view(np.uint64),
                              ndtri(u).view(np.uint64))

    def test_branch_edges_bit_identical_to_scipy(self):
        ndtri = pytest.importorskip("scipy.special").ndtri
        # The central branch ends at exp(-2) and 1 - exp(-2); the tail
        # switches from P1/Q1 to P2/Q2 at sqrt(-2 ln y) = 8, y = exp(-32).
        edges = [_EXP_M2, 1.0 - _EXP_M2, math.exp(-32.0),
                 1.0 - math.exp(-32.0), 0.5, 2.0 ** -54,
                 np.nextafter(1.0, 0.0), 5e-324]
        u = np.array([np.nextafter(e, d) for e in edges
                      for d in (0.0, 1.0)] + edges)
        u = u[(u > 0.0) & (u < 1.0)]
        assert np.array_equal(_ndtri(u).view(np.uint64),
                              ndtri(u).view(np.uint64))

    def test_sample_field_uses_standard_normals(self):
        # sample_field transforms a block's uniforms in one call; the
        # normals are those of standard_normals, replicate by replicate.
        factor = factor_psd(make_cov(np.eye(5)))
        values = sample_field(factor, 11, 4).values
        for i in range(4):
            z = standard_normals(replicate_stream(11, i), 5)
            assert np.array_equal(values[i], z)

    def test_every_block_uses_standard_normals(self):
        # Three blocks of 64 replicates, the last one partly filled.
        factor = factor_psd(make_cov(np.eye(70)))
        values = sample_field(factor, 2 ** 64 + 1, 130).values
        for i in range(130):
            z = standard_normals(replicate_stream(2 ** 64 + 1, i), 70)
            assert np.array_equal(values[i], z)
