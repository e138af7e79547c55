import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosondos import (
    ConeViolationError,
    ModelParams,
    SpectrumHistogram,
    assemble_H,
    assemble_K,
    dos_curve,
    mc_dos,
    spectrum_X,
)
from bosondos import ensemble
from bosondos.ensemble import draw_sample, quadrature_K
from bosondos.linalg import cholesky_psd, skew_spectrum
from clean_model import delta_k, dispersion

RMT = ModelParams(a=0.75, N=4, M=6, b=1.0, nu=0.0)
CHAIN = ModelParams(d=1, extents=(4,), N=2, M=3, b=0.8, nu=1.0)


def symplectic_J(N):
    eye, zero = np.eye(N), np.zeros((N, N))
    return np.block([[zero, eye], [-eye, zero]])


def quadrature_U(N):
    """Per-site change of basis (a, a*) = U (q, p)."""
    return np.kron([[1.0, 1.0j], [1.0, -1.0j]], np.eye(N)) / np.sqrt(2.0)


def complex_couplings(params, child):
    """The couplings L_j = (A_j | conj(A_j)) of ``draw_sample(params,
    child)`` in the (a, a*) basis, drawn one site at a time: the real, then
    the imaginary parts of A_j, each of variance b / (4N)."""
    rng = np.random.default_rng(child)
    std = np.sqrt(params.b / (4.0 * params.N))
    shape = (params.M, params.N)
    blocks = []
    for _ in range(params.n_sites):
        A = std * rng.normal(size=shape) + 1j * std * rng.normal(size=shape)
        blocks.append(np.hstack([A, A.conj()]))
    return blocks


def complex_H(params, blocks, K=None):
    """H = i Sigma3 K + blockdiag(L_j^dagger L_j) in the (a, a*) basis."""
    N, n_sites = params.N, len(blocks)
    s3 = np.tile(np.repeat([1.0, -1.0], N), n_sites)
    dim = 2 * N * n_sites
    H = np.zeros((dim, dim), complex) if K is None else 1j * s3[:, None] * K
    for j, L in enumerate(blocks):
        sl = slice(2 * N * j, 2 * N * (j + 1))
        H[sl, sl] += L.conj().T @ L
    return H


def complex_reference_spectrum(params, blocks, K=None):
    """Frequencies from the (a, a*)-basis reduction C^dagger Sigma3 C of
    ``complex_H``, in complex arithmetic."""
    s3 = np.tile(np.repeat([1.0, -1.0], params.N), len(blocks))
    C, _ = cholesky_psd(complex_H(params, blocks, K))
    R = C.conj().T @ (s3[:, None] * C)
    return np.linalg.eigvalsh(0.5 * (R + R.conj().T))


def lattice_K(params):
    """The real deterministic term of H, or None on a single site."""
    return None if params.extents is None else quadrature_K(assemble_K(params), params.N)


class TestDrawSample:
    @pytest.mark.parametrize("params", [RMT, CHAIN], ids=["flat", "chain"])
    def test_matches_the_complex_coupling_form(self, params):
        # H = U^dagger (i Sigma3 K + blockdiag(L_j^dagger L_j)) U with L built
        # in (a, a*) form from the same seeded draws
        K = None if params.extents is None else assemble_K(params)
        U = np.kron(np.eye(params.n_sites), quadrature_U(params.N))
        for seed in range(3):
            child = np.random.SeedSequence(seed)
            want = U.conj().T @ complex_H(params, complex_couplings(params, child), K) @ U
            H = draw_sample(params, child, K=lattice_K(params))
            assert H.dtype == float
            assert np.abs(H - want).max() <= 1e-14 * np.abs(want).max()

    def test_zero_disorder_gives_zero_coupling(self):
        params = ModelParams(d=1, extents=(4,), N=2, M=3, b=0.0, nu=1.0)
        K = lattice_K(params)
        assert np.array_equal(draw_sample(params, np.random.SeedSequence(0), K=K), K)

    def test_trace_moment(self):
        # on the flat band E Tr H = E Tr L^dagger L = M b: Tr L^dagger L =
        # 2 Tr A^dagger A and each of the M*N entries of A has second moment
        # b/(2N)
        params = ModelParams(a=0.75, N=2, M=3, b=0.7, nu=0.0)
        traces = np.array([np.trace(draw_sample(params, child))
                           for child in np.random.SeedSequence(42).spawn(10_000)])
        stderr = traces.std(ddof=1) / np.sqrt(traces.size)
        assert abs(traces.mean() - params.M * params.b) <= 3.0 * stderr

    def test_requires_sampling_parameters(self):
        with pytest.raises(ValueError, match="M and N"):
            draw_sample(ModelParams(a=0.75, b=1.0, nu=0.0), np.random.SeedSequence(0))

    @pytest.mark.parametrize("N, M, b", [(4, 8, 1.0), (8, 12, 1.0), (3, 11, 0.7), (16, 8, 2.0)])
    def test_second_moment_sum_rule(self, N, M, b):
        # the flat band's sum rule E mean(mu^2) = a b^2 (a - 1/(2N)), exact at
        # every N: sum mu^2 = -Tr (J H)^2, a quartic in the entries of W of
        # variance b/(4N).  The 1/(2N) term is 9-23 standard errors here
        params = ModelParams(N=N, M=M, b=b, nu=0.0)
        want = params.a * b * b * (params.a - 1.0 / (2 * N))
        for seed in (0, 1):
            m2 = np.array([np.mean(spectrum_X(draw_sample(params, child), N) ** 2)
                           for child in np.random.SeedSequence(seed).spawn(2000)])
            stderr = m2.std(ddof=1) / np.sqrt(m2.size)
            assert abs(m2.mean() - want) <= 3.0 * stderr


class TestLocalR:
    """The single-site random generator R = J H of a flat-band draw, which
    is all of X at nu = 0 on one site."""

    def test_rank_deficiency_below_critical_ratio(self):
        # H = 2 W^T W inherits rank min(M, 2N): kernel dimension 2N - M
        w = np.linalg.eigvalsh(draw_sample(RMT, np.random.SeedSequence(1)))
        n_zero = int(np.sum(np.abs(w) < 1e-12 * w.max()))
        assert n_zero == 2 * RMT.N - RMT.M

    def test_full_rank_at_critical_ratio(self):
        params = ModelParams(a=1.0, N=4, M=8, b=1.0, nu=0.0)
        w = np.linalg.eigvalsh(draw_sample(params, np.random.SeedSequence(2)))
        assert w.min() > 0

    def test_symplectic_condition(self):
        J = symplectic_J(RMT.N)
        R = J @ draw_sample(RMT, np.random.SeedSequence(3))
        resid = R + J @ R.T @ np.linalg.inv(J)
        assert np.abs(resid).max() <= 1e-13 * np.abs(R).max()

    def test_reduction_is_psd(self):
        # -J R = H is the reduction i Sigma3 R in the quadrature basis
        w = np.linalg.eigvalsh(draw_sample(RMT, np.random.SeedSequence(4)))
        assert w.min() >= -1e-12 * w.max()


class TestAssembleH:
    def test_clean_limit_spectrum(self):
        # b = 0: H = i Sigma3 K with per-mode eigenvalues {nu, nu(1-delta_k)}
        params = ModelParams(d=1, extents=(8,), N=2, M=4, b=0.0, nu=1.3)
        K = lattice_K(params)
        H = assemble_H(params, np.zeros((8, params.M, 2 * params.N)), K)
        w = np.linalg.eigvalsh(H)
        per_mode = []
        for m in range(8):
            dlt = float(delta_k([2 * np.pi * m / 8]))
            per_mode += [1.3, 1.3 * (1 - dlt)] * params.N
        assert np.allclose(np.sort(w), np.sort(per_mode), atol=1e-12)

    def test_flat_band_single_site_is_gram_matrix(self):
        # in the quadrature basis H is the Gram matrix of the real L U,
        # with L U = sqrt(2) W
        L = complex_couplings(RMT, np.random.SeedSequence(5))[0]
        LU = L @ quadrature_U(RMT.N)
        assert np.abs(LU.imag).max() <= 1e-15 * np.abs(LU).max()
        gram = LU.real.T @ LU.real
        H = assemble_H(RMT, LU.real[np.newaxis] / np.sqrt(2.0))
        assert H.dtype == float
        assert np.abs(H - gram).max() <= 1e-14 * np.abs(gram).max()

    @pytest.mark.parametrize("params", [
        ModelParams(d=3, extents=(3, 4, 5), N=2, M=3, b=0.8, nu=1.0),
        ModelParams(d=2, extents=(4, 3), N=3, M=7, b=0.8, nu=0.0),
    ], ids=["lattice", "nu=0"])
    def test_every_site_gains_its_own_gram_block(self, params):
        n, sites = 2 * params.N, params.n_sites
        W = np.random.default_rng(3).normal(size=(sites, params.M, n))
        K = lattice_K(params)
        K_blocks = (np.zeros((sites, n, sites, n)) if K is None
                    else K.reshape(sites, n, sites, n))
        H_blocks = assemble_H(params, W, K).reshape(sites, n, sites, n)
        for j in range(sites):
            # bitwise the per-site sum, and exactly symmetric
            block = H_blocks[j, :, j]
            assert np.array_equal(block, K_blocks[j, :, j] + 2.0 * (W[j].T @ W[j]))
            assert np.array_equal(block, block.T)
            others = np.arange(sites) != j
            assert np.array_equal(H_blocks[j][:, others], K_blocks[j][:, others])

    def test_quadrature_K_is_the_rotated_generator(self):
        params = ModelParams(d=1, extents=(3,), N=2, M=3, b=0.8, nu=1.0)
        K = assemble_K(params)
        U = np.kron(np.eye(3), quadrature_U(2))
        s3 = np.tile(np.repeat([1.0, -1.0], 2), 3)
        want = U.conj().T @ (1j * s3[:, None] * K) @ U
        got = quadrature_K(K, params.N)
        assert got.dtype == float
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    def test_quadrature_K_rejects_a_generator_off_the_reality_condition(self):
        params = ModelParams(d=1, extents=(3,), N=2, M=3, b=0.8, nu=1.0)
        K = assemble_K(params)
        K[0, 1] += 0.1  # a real entry: i*Sigma3*K stops being Hermitian-real
        with pytest.raises(ValueError, match="reality condition"):
            quadrature_K(K, params.N)

    @pytest.mark.parametrize("shape", [(6, 6), (4, 8), (16,)],
                             ids=["not-a-multiple", "not-square", "1-d"])
    def test_quadrature_K_rejects_a_generator_of_the_wrong_shape(self, shape):
        with pytest.raises(ValueError, match="not a square multiple of 2N=4"):
            quadrature_K(np.zeros(shape, dtype=complex), 2)

    def test_hermiticity(self):
        H = draw_sample(CHAIN, np.random.SeedSequence(6), K=lattice_K(CHAIN))
        assert np.abs(H - H.T).max() <= 1e-13 * np.abs(H).max()

    def test_complex_generator_rejected(self):
        W = np.ones((4, CHAIN.M, 2 * CHAIN.N))
        with pytest.raises(ValueError, match="quadrature_K"):
            assemble_H(CHAIN, W, assemble_K(CHAIN))

    def test_K_required_on_lattice(self):
        W = np.ones((4, CHAIN.M, 2 * CHAIN.N))
        with pytest.raises(ValueError, match="nu = 0"):
            assemble_H(CHAIN, W, K=None)

    def test_band_count_required(self):
        with pytest.raises(ValueError, match="band count N"):
            assemble_H(ModelParams(a=1.0, b=1.0), np.ones((1, 2, 2)))

    def test_deterministic_term_of_the_wrong_shape_rejected(self):
        # a larger K would be returned as H, its extra rows untouched
        W = np.ones((4, CHAIN.M, 2 * CHAIN.N))
        with pytest.raises(ValueError, match=r"K has shape \(18, 18\), expected \(16, 16\)"):
            assemble_H(CHAIN, W, np.zeros((18, 18)))

    @pytest.mark.parametrize("W", [
        np.ones((3, 3, 4)),  # one site short
        np.ones((4, 4, 4)),  # M + 1 rows
        np.ones((4, 3, 2)),  # the (a) half of a coupling alone
        np.ones((4, 3, 4), dtype=complex),  # a complex L = (A | conj(A))
    ], ids=["sites", "rows", "columns", "complex"])
    def test_coupling_of_the_wrong_shape_rejected(self, W):
        with pytest.raises(ValueError, match=r"not real \(n_sites, M, 2N\)"):
            assemble_H(CHAIN, W, lattice_K(CHAIN))


class TestSpectrumX:
    def test_clean_chain_frequencies(self):
        params = ModelParams(d=1, extents=(8,), N=1, M=2, b=0.0, nu=1.0)
        H = draw_sample(params, np.random.SeedSequence(0), K=lattice_K(params))
        mu = spectrum_X(H, params.N)
        want = np.sort(np.repeat([dispersion([2 * np.pi * m / 8], 1.0) for m in range(8)], 2))
        assert np.allclose(np.sort(np.abs(mu)), want, atol=1e-7)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_pairing(self, seed):
        H = draw_sample(RMT, np.random.SeedSequence(seed))
        mu = spectrum_X(H, RMT.N)
        assert np.allclose(np.sort(mu), np.sort(-mu), atol=1e-9 * max(1.0, np.abs(mu).max()))

    def test_tiny_size_characteristic_polynomial_oracle(self):
        # n = 4: roots of det(lambda - X) via the naive coefficient route
        params = ModelParams(a=1.0, N=2, M=4, b=1.0, nu=0.0)
        H = draw_sample(params, np.random.SeedSequence(9))
        mu = spectrum_X(H, params.N)
        # X = -i Sigma3 H in the (a, a*) basis is J H in the quadrature basis
        X = symplectic_J(params.N) @ H
        roots = np.roots(np.poly(X))
        # the roots are purely imaginary -i*mu; compare as such (sorting
        # complex values would order by real-part rounding noise)
        assert np.abs(roots.real).max() < 1e-8
        assert np.allclose(np.sort(roots.imag), np.sort(-mu), atol=1e-8)

    @pytest.mark.parametrize(
        "params",
        [
            ModelParams(a=0.5, N=8, M=8, b=1.0, nu=0.0),
            ModelParams(a=0.25, N=16, M=8, b=1.0, nu=0.0),
            ModelParams(a=11 / 16, N=8, M=11, b=1.0, nu=0.0),
            ModelParams(a=1.5, N=16, M=48, b=1.0, nu=0.0),
            ModelParams(d=1, extents=(6,), N=2, M=3, b=0.8, nu=1.0),
            ModelParams(d=2, extents=(4, 4), N=2, M=3, b=0.63, nu=1.0),
        ],
        ids=["N8M8", "N16M8", "N8M11", "N16M48", "chain6", "square4x4"],
    )
    def test_matches_complex_reduction(self, params):
        K = None if params.extents is None else assemble_K(params)
        for seed in range(3):
            child = np.random.SeedSequence(seed)
            mu = spectrum_X(draw_sample(params, child, K=lattice_K(params)), params.N)
            want = complex_reference_spectrum(params, complex_couplings(params, child), K)
            assert np.all(np.diff(mu) >= 0)
            # at odd M a zero mode of X sits in a 2x2 Jordan block, which the
            # Cholesky shift splits by ~sqrt(shift) ~ 1e-8, differently in
            # each arithmetic; every other mode agrees to rounding
            scale = np.abs(want).max()
            split = np.abs(want) <= 1e-6 * scale
            assert np.array_equal(split, np.abs(mu) <= 1e-6 * scale)
            assert np.abs(mu - want)[~split].max() <= 1e-12 * scale
            if params.M % 2 == 0:
                assert np.abs(mu - want).max() <= 1e-12 * scale

    @pytest.mark.parametrize("N, M", [(8, 8), (16, 8), (8, 12), (4, 2)])
    def test_zero_modes_are_the_rank_deficit(self, N, M):
        # even M: exactly 2N - M = 2N (1 - a) frequencies vanish
        params = ModelParams(N=N, M=M, b=1.0, nu=0.0)
        for seed in range(5):
            mu = spectrum_X(draw_sample(params, np.random.SeedSequence(seed)), N)
            zero = np.abs(mu) <= 1e-8 * np.abs(mu).max()
            assert zero.sum() == 2 * N - M

    @pytest.mark.parametrize(
        "params, n_samples",
        [
            (ModelParams(d=1, extents=(6,), N=2, M=3, b=0.8, nu=1.0), 3),
            (ModelParams(d=2, extents=(4, 4), N=2, M=3, b=0.63, nu=1.0), 3),
            # the benchmark's mc-lattice configuration
            (ModelParams(d=1, extents=(32,), N=8, M=12, b=0.63, nu=1.0), 1),
        ],
        ids=["chain6", "square4x4", "mc-lattice"],
    )
    def test_definite_H_takes_the_gram_route(self, params, n_samples, monkeypatch):
        K = lattice_K(params)
        Hs = [draw_sample(params, child, K=K)
              for child in np.random.SeedSequence(0).spawn(n_samples)]
        gram, calls = ensemble.skew_spectrum_gram, []
        monkeypatch.setattr(ensemble, "skew_spectrum_gram",
                            lambda S: calls.append(S.shape) or gram(S))
        mus = [spectrum_X(H, params.N) for H in Hs]
        assert len(calls) == n_samples
        monkeypatch.setattr(ensemble, "skew_spectrum_gram", skew_spectrum)
        for H, mu in zip(Hs, mus):
            want = spectrum_X(H, params.N)
            scale = np.abs(want).max()
            # well conditioned, so the Gram route answered rather than the SVD
            assert np.abs(want).min() > 1e-3 * scale
            assert np.abs(mu - want).max() <= 1e-12 * scale

    def test_ill_conditioned_definite_H_takes_the_svd_route(self, monkeypatch):
        # the weakly disordered chain keeps its acoustic mode near 0
        params = ModelParams(d=1, extents=(16,), N=2, M=3, b=1e-8, nu=1.0)
        H = draw_sample(params, np.random.SeedSequence(2), K=lattice_K(params))
        mu = spectrum_X(H, params.N)
        monkeypatch.setattr(ensemble, "skew_spectrum_gram", skew_spectrum)
        want = spectrum_X(H, params.N)
        assert cholesky_psd(H)[1] == 0.0
        assert np.abs(want).min() < 1e-3 * np.abs(want).max()
        assert np.array_equal(mu, want)

    def test_complex_H_rejected(self):
        with pytest.raises(ValueError, match="quadrature"):
            spectrum_X(np.eye(4, dtype=complex), 2)

    def test_dimension_must_be_a_multiple_of_2N(self):
        with pytest.raises(ValueError, match="H dimension 6 is not a multiple of 2N=4"):
            spectrum_X(np.eye(6), 2)

    def test_cone_violation_detected(self):
        H = np.diag([1.0, 1.0, -0.5, 1.0])
        with pytest.raises(ConeViolationError):
            spectrum_X(H, 1)

    def test_cone_membership_of_samples(self):
        for seed in range(4):
            H = draw_sample(RMT, np.random.SeedSequence(seed))
            w = np.linalg.eigvalsh(H)
            assert w.min() >= -1e-10 * np.abs(w).max()


def concatenated_histogram(params, n_samples, bins, seed, omega_max=None):
    """``mc_dos``'s bookkeeping done on all spectra at once: the spawned
    seeds, one concatenated |mu| array, full-size masks and one
    ``np.histogram``.  Returns (counts, edges, zero modes, overflow,
    zero_tol)."""
    K = lattice_K(params)
    values = np.concatenate([
        np.abs(spectrum_X(draw_sample(params, child, K=K), params.N))
        for child in np.random.SeedSequence(seed).spawn(n_samples)
    ])
    zero_tol = 1e-8 * float(values.max())
    nonzero = values[values > zero_tol]
    top = float(nonzero.max()) if nonzero.size else 1.0
    hi = top if omega_max is None else omega_max
    binned = nonzero[nonzero <= hi]
    counts, edges = np.histogram(binned, bins=bins, range=(0.0, hi))
    return counts, edges, values.size - nonzero.size, nonzero.size - binned.size, zero_tol


def traced_peak(params, n_samples):
    """tracemalloc's peak over one ``mc_dos`` run, in bytes."""
    tracemalloc.start()
    try:
        mc_dos(params, n_samples=n_samples, bins=20, seed=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMcDos:
    def test_single_auxiliary_dimension_flagged(self):
        # the run carries one note, however many samples it draws; drawing a
        # sample is silent
        params = ModelParams(a=0.25, N=2, M=1, b=1.0, nu=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draw_sample(params, np.random.SeedSequence(0))
            hist = mc_dos(params, n_samples=3, bins=4, seed=0)
        assert len(hist.notes) == 1 and "M >= 2" in hist.notes[0]
        assert mc_dos(RMT, n_samples=3, bins=4, seed=0).notes == ()

    @pytest.mark.parametrize(
        "params, n_samples, seed",
        [
            (RMT, 10, 3),
            # a < 1/2: most modes are zero, so median|mu| is itself a zero mode
            (ModelParams(a=0.25, N=16, M=8, b=1.0, nu=0.0), 20, 0),
            # the benchmark's mc-flat ensemble at its check seed: zero modes
            # split by the Cholesky shift sit near 1e-8
            (ModelParams(a=0.75, N=8, M=12, b=1.0, nu=0.0), 3000, 20101),
        ],
        ids=["a0.75", "a0.25", "mc-flat-20101"],
    )
    def test_zero_mode_fraction_from_rank_nullity(self, params, n_samples, seed):
        hist = mc_dos(params, n_samples=n_samples, bins=20, seed=seed)
        assert hist.zero_mode_fraction == (2 * params.N - params.M) / (2 * params.N)

    @pytest.mark.xfail(strict=True, reason="at odd M one zero mode sits in a 2x2 "
                       "Jordan block, which the Cholesky shift splits to about "
                       "zero_tol; the rank-based flat-band path would book it")
    @pytest.mark.parametrize("N, M, n_samples", [(8, 11, 200), (1, 1, 50)])
    def test_odd_M_books_every_zero_mode(self, N, M, n_samples):
        # 2N - M zero modes of H's kernel, plus the Jordan pair's partner
        # (1112 of 1200 at (8, 11) and 0 of 100 at (1, 1) are booked today)
        params = ModelParams(N=N, M=M, b=1.0, nu=0.0)
        hist = mc_dos(params, n_samples=n_samples, bins=20, seed=0)
        assert hist.zero_mode_count == n_samples * (2 * N - M + 1)

    def test_hard_edge_flat_band_books_as_the_svd_route(self, monkeypatch):
        # M = 2N: H is definite, but the spectrum runs down to the hard edge
        # at 0, so samples take both routes
        params = ModelParams(a=1.0, N=8, M=16, b=1.0, nu=0.0)
        hist = mc_dos(params, n_samples=200, bins=40, seed=0)
        monkeypatch.setattr(ensemble, "skew_spectrum_gram", skew_spectrum)
        want = mc_dos(params, n_samples=200, bins=40, seed=0)
        assert np.array_equal(hist.counts, want.counts)
        assert hist.zero_mode_count == want.zero_mode_count
        assert hist.overflow_count == want.overflow_count
        np.testing.assert_allclose(hist.bin_edges, want.bin_edges, rtol=1e-12, atol=0)

    # the benchmark's mc-flat ensemble: 3000 samples of 16 values span
    # several of the tail's row blocks
    MC_FLAT = ModelParams(N=8, M=12, b=1.0, nu=0.0)

    @pytest.mark.parametrize(
        "params, n_samples, bins, omega_max",
        [
            (MC_FLAT, 3000, 100, None),
            (MC_FLAT, 3000, 100, 2.0),
            # every zero mode lies above omega_max, and none may be booked
            # as overflow as well
            (ModelParams(N=8, M=11, b=1.0, nu=0.0), 200, 10, 1e-9),
        ],
        ids=["mc-flat", "mc-flat-overflow", "zero-modes-past-omega-max"],
    )
    def test_matches_the_concatenated_bookkeeping(self, params, n_samples, bins, omega_max):
        hist = mc_dos(params, n_samples=n_samples, bins=bins, seed=0, omega_max=omega_max)
        counts, edges, zero_count, overflow, zero_tol = concatenated_histogram(
            params, n_samples, bins, seed=0, omega_max=omega_max)
        assert np.array_equal(hist.counts, counts)
        assert np.array_equal(hist.bin_edges, edges)
        assert hist.zero_mode_count == zero_count
        assert hist.overflow_count == overflow
        assert hist.zero_tol == zero_tol
        assert (overflow > 0) == (omega_max is not None)

    def test_memory_is_one_float_per_eigenvalue(self):
        # past one row block of the tail, the traced peak grows by the |mu|
        # array's 8 bytes per eigenvalue (12 allowed); holding every
        # spectrum, seed and full-size mask at once costs over 40
        params = ModelParams(N=32, M=48, b=1.0, nu=0.0)
        mc_dos(params, n_samples=2, bins=20, seed=1)  # first-call allocations
        small, large = 150, 600
        growth = traced_peak(params, large) - traced_peak(params, small)
        assert growth <= 12 * (large - small) * 2 * params.N

    def test_bookkeeping_identity(self):
        hist = mc_dos(RMT, n_samples=10, bins=20, seed=3)
        assert hist.counts.sum() + hist.zero_mode_count == hist.total_eigenvalues
        integral = 2.0 * np.sum(hist.densities * hist.widths)
        assert integral + hist.zero_mode_fraction == pytest.approx(1.0, abs=1e-12)

    def test_seed_determinism(self):
        a = mc_dos(RMT, n_samples=5, bins=16, seed=123)
        b = mc_dos(RMT, n_samples=5, bins=16, seed=123)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.bin_edges, b.bin_edges)
        c = mc_dos(RMT, n_samples=5, bins=16, seed=124)
        assert not np.array_equal(a.counts, c.counts)

    def test_weak_disorder_reproduces_clean_chain(self):
        params = ModelParams(d=1, extents=(16,), N=2, M=3, b=1e-8, nu=1.0)
        hist = mc_dos(params, n_samples=5, bins=24, seed=2)
        ks = 2 * np.pi * np.arange(16) / 16
        eps_k = np.array([dispersion([k], 1.0) for k in ks])
        counts, _ = np.histogram(np.repeat(eps_k, 2 * params.N), bins=hist.bin_edges)
        dens = counts * 5 / (2.0 * hist.total_eigenvalues * hist.widths)
        l1 = np.sum(np.abs(hist.densities - dens) * hist.widths)
        assert l1 <= 1e-6

    def test_moment_identity_with_lattice(self):
        # E[(2N|L|)^-1 Tr(i Sigma3 X)] = nu + a b, independent of the solver
        params = ModelParams(d=1, extents=(4,), N=2, M=3, b=0.8, nu=1.0)
        K = lattice_K(params)
        dim = K.shape[0]
        traces = []
        for child in np.random.SeedSequence(77).spawn(300):
            H = draw_sample(params, child, K=K)
            traces.append(np.trace(H).real / dim)
        traces = np.asarray(traces)
        want = params.nu + params.a * params.b
        stderr = traces.std(ddof=1) / np.sqrt(traces.size)
        assert abs(traces.mean() - want) <= 3.0 * stderr

    def test_flat_band_gap_depleted(self):
        # above the critical ratio the sampled spectrum respects the gap up
        # to finite-size leakage
        params = ModelParams(a=2.0, b=1.0, N=16, M=64, nu=0.0)
        hist = mc_dos(params, n_samples=100, bins=60, seed=5)
        inside = hist.bin_edges[1:] <= 0.25  # well inside the mean-field gap
        assert hist.densities[inside].max(initial=0.0) <= 0.02

    def test_convergence_toward_mean_field(self):
        # L1 distance to the mean-field curve decreases with N at fixed a
        curve_grid = np.linspace(0.005, 3.0, 500)
        curve = dos_curve(curve_grid, 1e-6, ModelParams(a=1.0, b=1.0, nu=0.0))
        distances = []
        # equal eigenvalue totals per N so the sampling noise is comparable
        for N, n_samples in ((8, 2000), (16, 1000), (32, 500)):
            params = ModelParams(a=1.0, N=N, M=2 * N, b=1.0, nu=0.0)
            hist = mc_dos(params, n_samples=n_samples, bins=50, seed=9)
            interp = np.interp(hist.bin_centers, curve_grid, curve.rho)
            distances.append(float(np.sum(np.abs(hist.densities - interp) * hist.widths)))
        assert distances[0] > distances[1] > distances[2]

    def test_single_site_requires_flat_band(self):
        params = ModelParams(d=1, a=0.75, N=2, M=3, b=1.0, nu=1.0)
        with pytest.raises(ValueError, match="extents"):
            mc_dos(params, n_samples=2, bins=8, seed=0)

    @pytest.mark.parametrize("omega_max", [0.0, -1.0, float("nan"), float("inf")])
    def test_histogram_range_must_be_positive_and_finite(self, omega_max):
        params = ModelParams(N=2, M=3, b=1.0, nu=0.0)
        with pytest.raises(ValueError, match="omega_max must be positive and finite"):
            mc_dos(params, n_samples=2, bins=3, seed=0, omega_max=omega_max)

    def test_samples_and_bins_must_be_positive(self):
        with pytest.raises(ValueError, match="n_samples must be at least 1"):
            mc_dos(RMT, n_samples=0, bins=3, seed=0)
        with pytest.raises(ValueError, match="bins must be at least 1"):
            mc_dos(RMT, n_samples=2, bins=0, seed=0)

    def test_histogram_bookkeeping_must_add_up(self):
        # 3 binned + 1 zero mode + 1 overflow books 5 of 6 eigenvalues
        with pytest.raises(ValueError, match="bookkeeping broken: 5 binned"):
            SpectrumHistogram(bin_edges=np.array([0.0, 1.0, 2.0]), counts=np.array([1, 2]),
                              total_eigenvalues=6, zero_mode_count=1, zero_tol=1e-8,
                              seed=0, overflow_count=1)
