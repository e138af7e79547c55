import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosondos import ConeViolationError, ModelParams, SpectrumHistogram, dos_curve, mc_dos
from bosondos import ensemble, linalg
from bosondos.ensemble import assemble_H, draw_sample, spectrum_X
from bosondos.linalg import cholesky_psd, skew_spectrum
from bosondos.model import assemble_K
from clean_model import complex_K, delta_k, dense_reference_spectrum, dispersion, fresh_H

RMT = ModelParams(a=0.75, N=4, M=6, b=1.0, nu=0.0)
CHAIN = ModelParams(d=1, extents=(4,), N=2, M=3, b=0.8, nu=1.0)
# the benchmark's mc-lattice ensemble
MC_LATTICE = ModelParams(d=1, extents=(32,), N=8, M=12, b=0.63, nu=1.0)


def symplectic_J(N):
    eye, zero = np.eye(N), np.zeros((N, N))
    return np.block([[zero, eye], [-eye, zero]])


def quadrature_U(N):
    """Per-site change of basis (a, a*) = U (q, p)."""
    return np.kron([[1.0, 1.0j], [1.0, -1.0j]], np.eye(N)) / np.sqrt(2.0)


def complex_couplings(params, child):
    """The couplings L_j = (A_j | conj(A_j)) of ``draw_sample(params,
    child, H)`` in the (a, a*) basis, drawn one site at a time: the real,
    then the imaginary parts of A_j, each of variance b / (4N)."""
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
    ``complex_H``, in complex arithmetic; H + sigma*I = C C^dagger at the
    first of ``cholesky_psd``'s shifts sigma that factors."""
    s3 = np.tile(np.repeat([1.0, -1.0], params.N), len(blocks))
    H = complex_H(params, blocks, K)
    eps, scale = np.finfo(float).eps, H.diagonal().real.max()
    for m in (0.0, eps, 1e2 * eps, 1e4 * eps, linalg.SHIFT_TOL):
        try:
            C = np.linalg.cholesky(H + m * scale * np.eye(len(H)))
            break
        except np.linalg.LinAlgError:
            pass
    else:
        raise AssertionError("complex H is not positive semidefinite")
    R = C.conj().T @ (s3[:, None] * C)
    return np.linalg.eigvalsh(0.5 * (R + R.conj().T))


def gram_svd_route(G, skew):
    """``gram_spectrum``'s signature on the SVD route, patched in to force
    that route on the S of either route."""
    return skew_spectrum(skew())


def recorded(monkeypatch, module, name):
    """Patch ``module.name`` to call through and record each call as
    [args, result], the result None while the call runs or if it raised;
    returns the list of records."""
    fn, calls = getattr(module, name), []

    def record(*args):
        call = [args, None]
        calls.append(call)
        call[1] = fn(*args)
        return call[1]

    monkeypatch.setattr(module, name, record)
    return calls


def dense_rotation_H(params, W):
    """H as a dense formula builds it: i Sigma3 K over all dim columns,
    rotated by u^dagger on each site's rows and by u on each site's columns,
    its real part, and each site's Gram block 2 W_j^T W_j added on the
    diagonal."""
    N, sites = params.N, params.n_sites
    n, dim = 2 * N, 2 * N * sites
    u = quadrature_U(N)
    B = 1j * np.tile(np.repeat([1.0, -1.0], N), sites)[:, None] * complex_K(params)
    Hq = (u.conj().T @ B.reshape(sites, n, dim)).reshape(dim * sites, n) @ u
    H = Hq.reshape(dim, dim).real.copy()
    for j in range(sites):
        H[j * n:(j + 1) * n, j * n:(j + 1) * n] += 2.0 * (W[j].T @ W[j])
    return H


class TestDrawSample:
    @pytest.mark.parametrize("params", [RMT, CHAIN], ids=["flat", "chain"])
    def test_matches_the_complex_coupling_form(self, params):
        # H = U^dagger (i Sigma3 K + blockdiag(L_j^dagger L_j)) U with L built
        # in (a, a*) form from the same seeded draws
        K = None if params.extents is None else complex_K(params)
        U = np.kron(np.eye(params.n_sites), quadrature_U(params.N))
        for seed in range(3):
            child = np.random.SeedSequence(seed)
            want = U.conj().T @ complex_H(params, complex_couplings(params, child), K) @ U
            H = draw_sample(params, child, fresh_H(params))
            assert H.dtype == float
            assert np.abs(H - want).max() <= 1e-14 * np.abs(want).max()

    def test_zero_disorder_gives_zero_coupling(self):
        params = ModelParams(d=1, extents=(4,), N=2, M=3, b=0.0, nu=1.0)
        H = draw_sample(params, np.random.SeedSequence(0), fresh_H(params))
        assert np.array_equal(H, assemble_K(params, fresh_H(params)))

    def test_trace_moment(self):
        # on the flat band E Tr H = E Tr L^dagger L = M b: Tr L^dagger L =
        # 2 Tr A^dagger A and each of the M*N entries of A has second moment
        # b/(2N)
        params = ModelParams(a=0.75, N=2, M=3, b=0.7, nu=0.0)
        traces = np.array([np.trace(draw_sample(params, child, fresh_H(params)))
                           for child in np.random.SeedSequence(42).spawn(10_000)])
        stderr = traces.std(ddof=1) / np.sqrt(traces.size)
        assert abs(traces.mean() - params.M * params.b) <= 3.0 * stderr

    def test_requires_sampling_parameters(self):
        with pytest.raises(ValueError, match="M and N"):
            draw_sample(ModelParams(a=0.75, b=1.0, nu=0.0), np.random.SeedSequence(0),
                        np.empty((2, 2)))

    @pytest.mark.parametrize("N, M, b", [(4, 8, 1.0), (8, 12, 1.0), (3, 11, 0.7), (16, 8, 2.0)])
    def test_second_moment_sum_rule(self, N, M, b):
        # the flat band's sum rule E mean(mu^2) = a b^2 (a - 1/(2N)), exact at
        # every N: sum mu^2 = -Tr (J H)^2, a quartic in the entries of W of
        # variance b/(4N).  The 1/(2N) term is 9-23 standard errors here
        params = ModelParams(N=N, M=M, b=b, nu=0.0)
        want = params.a * b * b * (params.a - 1.0 / (2 * N))
        for seed in (0, 1):
            H = fresh_H(params)
            m2 = np.array([np.mean(spectrum_X(draw_sample(params, child, H), params) ** 2)
                           for child in np.random.SeedSequence(seed).spawn(2000)])
            stderr = m2.std(ddof=1) / np.sqrt(m2.size)
            assert abs(m2.mean() - want) <= 3.0 * stderr


class TestLocalR:
    """The single-site random generator R = J H of a flat-band draw, which
    is all of X at nu = 0 on one site."""

    def test_rank_deficiency_below_critical_ratio(self):
        # H = 2 W^T W inherits rank min(M, 2N): kernel dimension 2N - M
        w = np.linalg.eigvalsh(draw_sample(RMT, np.random.SeedSequence(1), fresh_H(RMT)))
        n_zero = int(np.sum(np.abs(w) < 1e-12 * w.max()))
        assert n_zero == 2 * RMT.N - RMT.M

    def test_full_rank_at_critical_ratio(self):
        params = ModelParams(a=1.0, N=4, M=8, b=1.0, nu=0.0)
        w = np.linalg.eigvalsh(draw_sample(params, np.random.SeedSequence(2), fresh_H(params)))
        assert w.min() > 0

    def test_symplectic_condition(self):
        J = symplectic_J(RMT.N)
        R = J @ draw_sample(RMT, np.random.SeedSequence(3), fresh_H(RMT))
        resid = R + J @ R.T @ np.linalg.inv(J)
        assert np.abs(resid).max() <= 1e-13 * np.abs(R).max()

    def test_reduction_is_psd(self):
        # -J R = H is the reduction i Sigma3 R in the quadrature basis
        w = np.linalg.eigvalsh(draw_sample(RMT, np.random.SeedSequence(4), fresh_H(RMT)))
        assert w.min() >= -1e-12 * w.max()


class TestAssembleH:
    def test_clean_limit_spectrum(self):
        # b = 0: H = i Sigma3 K with per-mode eigenvalues {nu, nu(1-delta_k)}
        params = ModelParams(d=1, extents=(8,), N=2, M=4, b=0.0, nu=1.3)
        H = assemble_H(params, np.zeros((8, params.M, 2 * params.N)), fresh_H(params))
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
        H = assemble_H(RMT, LU.real[np.newaxis] / np.sqrt(2.0), fresh_H(RMT))
        assert H.dtype == float
        assert np.abs(H - gram).max() <= 1e-14 * np.abs(gram).max()

    @pytest.mark.parametrize("params", [
        ModelParams(d=3, extents=(3, 4, 5), N=2, M=3, b=0.8, nu=1.0),
        ModelParams(d=2, extents=(4, 3), N=3, M=7, b=0.8, nu=0.0),
    ], ids=["lattice", "nu=0"])
    def test_every_site_gains_its_own_gram_block(self, params):
        n, sites = 2 * params.N, params.n_sites
        W = np.random.default_rng(3).normal(size=(sites, params.M, n))
        K_blocks = assemble_K(params, fresh_H(params)).reshape(sites, n, sites, n)
        H_blocks = assemble_H(params, W, fresh_H(params)).reshape(sites, n, sites, n)
        for j in range(sites):
            # bitwise the per-site sum, and exactly symmetric
            block = H_blocks[j, :, j]
            assert np.array_equal(block, K_blocks[j, :, j] + 2.0 * (W[j].T @ W[j]))
            assert np.array_equal(block, block.T)
            others = np.arange(sites) != j
            assert np.array_equal(H_blocks[j][:, others], K_blocks[j][:, others])

    @pytest.mark.parametrize("params", [
        ModelParams(d=1, extents=(32,), N=8, M=12, b=0.63, nu=1.0),
        ModelParams(d=3, extents=(3, 4, 5), N=2, M=3, b=0.63, nu=1.0),
        ModelParams(d=2, extents=(3, 7), N=3, M=5, b=0.63, nu=1.0),
        ModelParams(d=1, extents=(3,), N=2, M=3, b=0.8, nu=1.0),
    ], ids=["chain32", "3x4x5", "3x7", "chain3"])
    def test_block_term_gives_the_dense_rotation(self, params):
        # the closed-form term is exact; the rotation of the dense complex
        # generator leaves rounding of up to one ulp on the on-site diagonal
        W = np.random.default_rng(4).normal(size=(params.n_sites, params.M, 2 * params.N))
        H = assemble_H(params, W, fresh_H(params))
        want = dense_rotation_H(params, W)
        assert np.abs(H - want).max() <= 1e-15 * np.abs(want).max()

    @pytest.mark.parametrize("params", [RMT, CHAIN], ids=["flat", "chain"])
    def test_overwrites_a_given_array(self, params):
        W = np.random.default_rng(5).normal(size=(params.n_sites, params.M, 2 * params.N))
        dim = 2 * params.N * params.n_sites
        out = np.full((dim, dim), np.nan)
        assert assemble_H(params, W, out) is out
        assert np.array_equal(out, assemble_H(params, W, fresh_H(params)))

    def test_hermiticity(self):
        H = draw_sample(CHAIN, np.random.SeedSequence(6), fresh_H(CHAIN))
        assert np.abs(H - H.T).max() <= 1e-13 * np.abs(H).max()

    def test_single_site_requires_nu_zero(self):
        params = ModelParams(a=0.75, N=2, M=3, b=1.0, nu=1.0)
        W = np.ones((1, params.M, 2 * params.N))
        with pytest.raises(ValueError, match=r"extents=None\) requires nu = 0"):
            assemble_H(params, W, fresh_H(params))

    def test_band_count_required(self):
        with pytest.raises(ValueError, match="sampling requires both M and N"):
            assemble_H(ModelParams(a=1.0, b=1.0), np.ones((1, 2, 2)), np.empty((2, 2)))

    @pytest.mark.parametrize("W", [
        np.ones((3, 3, 4)),  # one site short
        np.ones((4, 4, 4)),  # M + 1 rows
        np.ones((4, 3, 2)),  # the (a) half of a coupling alone
        np.ones((4, 3, 4), dtype=complex),  # a complex L = (A | conj(A))
    ], ids=["sites", "rows", "columns", "complex"])
    def test_coupling_of_the_wrong_shape_rejected(self, W):
        with pytest.raises(ValueError, match=r"not real \(n_sites, M, 2N\)"):
            assemble_H(CHAIN, W, fresh_H(CHAIN))


class TestSpectrumX:
    def test_clean_chain_frequencies(self):
        params = ModelParams(d=1, extents=(8,), N=1, M=2, b=0.0, nu=1.0)
        H = draw_sample(params, np.random.SeedSequence(0), fresh_H(params))
        mu = spectrum_X(H, params)
        want = np.sort(np.repeat([dispersion([2 * np.pi * m / 8], 1.0) for m in range(8)], 2))
        assert np.allclose(np.sort(np.abs(mu)), want, atol=1e-7)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_pairing(self, seed):
        H = draw_sample(RMT, np.random.SeedSequence(seed), fresh_H(RMT))
        mu = spectrum_X(H, RMT)
        assert np.allclose(np.sort(mu), np.sort(-mu), atol=1e-9 * max(1.0, np.abs(mu).max()))

    def test_tiny_size_characteristic_polynomial_oracle(self):
        # n = 4: roots of det(lambda - X) via the naive coefficient route
        params = ModelParams(a=1.0, N=2, M=4, b=1.0, nu=0.0)
        H = draw_sample(params, np.random.SeedSequence(9), fresh_H(params))
        mu = spectrum_X(H.copy(), params)
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
        K = None if params.extents is None else complex_K(params)
        for seed in range(3):
            child = np.random.SeedSequence(seed)
            mu = spectrum_X(draw_sample(params, child, fresh_H(params)), params)
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
            H = draw_sample(params, np.random.SeedSequence(seed), fresh_H(params))
            mu = spectrum_X(H, params)
            zero = np.abs(mu) <= 1e-8 * np.abs(mu).max()
            assert zero.sum() == 2 * N - M

    @pytest.mark.parametrize(
        "params, n_samples",
        [
            (ModelParams(d=1, extents=(6,), N=2, M=3, b=0.8, nu=1.0), 3),
            (ModelParams(d=2, extents=(4, 4), N=2, M=3, b=0.63, nu=1.0), 3),
            # the benchmark's mc-lattice configuration
            (MC_LATTICE, 1),
        ],
        ids=["chain6", "square4x4", "mc-lattice"],
    )
    def test_definite_H_takes_the_gram_route(self, params, n_samples, monkeypatch):
        # at nu > 0 a sample eliminates its p blocks first: one unshifted
        # cholesky_psd of the half-size Schur complement and one Gram
        # eigensolve of H's size; the dense route never runs
        Hs = [draw_sample(params, child, fresh_H(params))
              for child in np.random.SeedSequence(0).spawn(n_samples)]
        dim = len(Hs[0])
        factored = recorded(monkeypatch, ensemble, "cholesky_psd")
        grams = recorded(monkeypatch, ensemble, "gram_spectrum")
        dense = recorded(monkeypatch, ensemble, "_dense_spectrum")
        mus = [spectrum_X(H.copy(), params) for H in Hs]
        assert [(args[0].shape, result[1]) for args, result in factored] == [
            ((dim // 2, dim // 2), 0.0)] * n_samples
        assert [args[0].shape for args, _ in grams] == [(dim, dim)] * n_samples
        assert not dense
        monkeypatch.setattr(ensemble, "gram_spectrum", gram_svd_route)
        for H, mu in zip(Hs, mus):
            want = spectrum_X(H, params)
            scale = np.abs(want).max()
            # well conditioned, so the Gram route answered rather than the SVD
            assert np.abs(want).min() > 1e-3 * scale
            assert np.abs(mu - want).max() <= 1e-12 * scale

    def test_ill_conditioned_definite_H_takes_the_svd_route(self, monkeypatch):
        # the weakly disordered chain keeps its acoustic mode near 0: the
        # p-first route factors it with no shift, and the Gram guard hands
        # the S built from its blocks to the SVD
        params = ModelParams(d=1, extents=(16,), N=2, M=3, b=1e-8, nu=1.0)
        H = draw_sample(params, np.random.SeedSequence(2), fresh_H(params))
        dim = len(H)
        factored = recorded(monkeypatch, ensemble, "cholesky_psd")
        svds = recorded(monkeypatch, linalg, "skew_spectrum")
        mu = spectrum_X(H.copy(), params)
        assert [(args[0].shape, result[1]) for args, result in factored] == [
            ((dim // 2, dim // 2), 0.0)]
        assert len(svds) == 1 and np.array_equal(svds[0][1], mu)
        monkeypatch.setattr(ensemble, "gram_spectrum", gram_svd_route)
        want = spectrum_X(H.copy(), params)
        assert cholesky_psd(H)[1] == 0.0
        assert np.abs(want).min() < 1e-3 * np.abs(want).max()
        assert np.array_equal(mu, want)

    @pytest.mark.parametrize(
        "params",
        [
            ModelParams(d=1, extents=(6,), N=2, M=3, b=0.8, nu=1.0),
            ModelParams(d=2, extents=(4, 4), N=2, M=3, b=0.63, nu=1.0),
            ModelParams(d=2, extents=(3, 7), N=3, M=5, b=0.63, nu=1.0),
            ModelParams(d=3, extents=(3, 4, 5), N=1, M=2, b=0.63, nu=1.0),
            MC_LATTICE,
            ModelParams(d=1, extents=(6,), N=2, M=1, b=0.8, nu=1.0),
            # weak clean term and M < N: the p blocks are nearly singular
            ModelParams(d=1, extents=(8,), N=4, M=3, b=0.63, nu=1e-3),
        ],
        ids=["chain6", "square4x4", "lattice-3x7", "lattice-3x4x5", "mc-lattice",
             "M1", "nu1e-3-M<N"],
    )
    def test_matches_the_dense_reference(self, params):
        for child in np.random.SeedSequence(0).spawn(2):
            H = draw_sample(params, child, fresh_H(params))
            want = dense_reference_spectrum(H, params.N)
            mu = spectrum_X(H, params)
            assert np.abs(mu - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize(
        "params",
        [
            # the clean chain's acoustic q mode is an exact zero mode
            ModelParams(d=1, extents=(8,), N=2, M=3, b=0.0, nu=1.0),
            # the p blocks are rank M < N to rounding
            ModelParams(d=1, extents=(8,), N=4, M=3, b=0.63, nu=1e-300),
        ],
        ids=["b0", "nu1e-300-M<N"],
    )
    def test_singular_lattice_H_takes_the_dense_route(self, params):
        for seed in range(3):
            H = draw_sample(params, np.random.SeedSequence(seed), fresh_H(params))
            want = ensemble._dense_spectrum(H.copy(), params.N)
            assert np.array_equal(spectrum_X(H, params), want)

    def test_q_asymmetry_within_check_hermitian_matches_the_dense_route(self):
        # a q-q entry of H off by 0.9e-12 max|H|, within check_hermitian's
        # tolerance: the Schur complement carries it against its own smaller
        # scale, and the p-first route must answer as the dense one does
        params = ModelParams(d=1, extents=(6,), N=2, M=3, b=0.63, nu=1.0)
        H = draw_sample(params, np.random.SeedSequence(0), fresh_H(params))
        H[0, 4] += 0.9e-12 * np.abs(H).max()
        linalg.check_hermitian(H)
        want = ensemble._dense_spectrum(H.copy(), params.N)
        mu = spectrum_X(H, params)
        assert np.abs(mu - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize(
        "params, seed, half",
        [
            (MC_LATTICE, 0, True),
            # a shifted H, which goes to the SVD directly
            (ModelParams(N=8, M=12, b=1.0, nu=0.0), 0, False),
            # a definite H whose Gram route hands S to the SVD
            (ModelParams(d=1, extents=(16,), N=2, M=3, b=1e-8, nu=1.0), 2, True),
        ],
        ids=["gram", "shifted", "gram-to-svd"],
    )
    def test_consumes_H_as_scratch(self, params, seed, half, monkeypatch):
        # the result is that of an untouched copy; H itself is overwritten,
        # with the Gram matrix (and any S) on the p-first route, whose one
        # factorization is half-size, and with T and S^T S on the dense one
        H = draw_sample(params, np.random.SeedSequence(seed), fresh_H(params))
        want = spectrum_X(H.copy(), params)
        kept = H.copy()
        factored = recorded(monkeypatch, ensemble, "cholesky_psd")
        assert np.array_equal(spectrum_X(H, params), want)
        assert not np.array_equal(H, kept)
        size = len(H) // 2 if half else len(H)
        assert [args[0].shape for args, _ in factored] == [(size, size)]

    @pytest.mark.parametrize("params, child, factored, svds", [
        (MC_LATTICE, np.random.SeedSequence(0), [("half", False)], 0),
        (ModelParams(d=1, extents=(16,), N=2, M=3, b=1e-8, nu=1.0),
         np.random.SeedSequence(2), [("half", False)], 1),
        # the mc-flat flags
        (ModelParams(N=8, M=12, b=1.0, nu=0.0), np.random.SeedSequence(0),
         [("dense", True)], 1),
        # the singular chain's first sample: the Schur complement needs a
        # shift, and the dense route answers
        (ModelParams(d=1, extents=(3,), N=9, M=2, b=0.63, nu=1.0),
         np.random.SeedSequence(0, spawn_key=(0,)), [("half", True), ("dense", True)], 1),
    ], ids=["gram", "gram-to-svd", "dense-shifted", "schur-shift-to-dense"])
    def test_checks_H_once_on_every_route(self, params, child, factored, svds, monkeypatch):
        # one check_hermitian per sample, whichever route answers: the
        # kernels behind the routes trust it
        H = draw_sample(params, child, fresh_H(params))
        half = len(H) // 2
        checks = recorded(monkeypatch, linalg, "check_hermitian")
        calls = recorded(monkeypatch, ensemble, "cholesky_psd")
        dense_svds = recorded(monkeypatch, ensemble, "skew_spectrum")
        gram_svds = recorded(monkeypatch, linalg, "skew_spectrum")
        spectrum_X(H, params)
        assert len(checks) == 1
        assert [("half" if len(args[0]) == half else "dense", bool(result[1]))
                for args, result in calls] == factored
        assert len(dense_svds) + len(gram_svds) == svds

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("params", [RMT, CHAIN], ids=["nu0", "nu>0"])
    def test_non_finite_H_rejected(self, params, bad):
        # symmetric, so only the finiteness check can catch it
        H = draw_sample(params, np.random.SeedSequence(0), fresh_H(params))
        H[0, 1] = H[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            spectrum_X(H, params)

    @pytest.mark.parametrize("params", [RMT, CHAIN], ids=["nu0", "nu>0"])
    def test_asymmetric_H_rejected(self, params):
        H = draw_sample(params, np.random.SeedSequence(0), fresh_H(params))
        H[0, 1] += 2.0 * linalg.HERMITIAN_TOL * np.abs(H).max()
        with pytest.raises(ValueError, match="not Hermitian"):
            spectrum_X(H, params)

    def test_H_it_cannot_overwrite_in_place_rejected(self):
        H = draw_sample(CHAIN, np.random.SeedSequence(0), fresh_H(CHAIN))
        readonly = H.copy()
        readonly.flags.writeable = False
        for bad in (np.asfortranarray(H), H[::2, ::2], readonly):
            with pytest.raises(ValueError, match="writable C-contiguous float64"):
                spectrum_X(bad, CHAIN)

    def test_complex_H_rejected(self):
        with pytest.raises(ValueError, match="quadrature"):
            spectrum_X(np.eye(4, dtype=complex), ModelParams(N=2, M=3, b=1.0))

    def test_dimension_must_be_a_multiple_of_2N(self):
        with pytest.raises(ValueError, match="H dimension 6 is not a multiple of 2N=4"):
            spectrum_X(np.eye(6), ModelParams(N=2, M=3, b=1.0))

    def test_off_site_p_entry_rejected(self):
        # one p-p bond between sites 0 and 1, which the p-first route would
        # drop: the clean term couples sites through q only
        H = draw_sample(CHAIN, np.random.SeedSequence(0), fresh_H(CHAIN))
        p0, p1 = CHAIN.N, 3 * CHAIN.N
        H[p0, p1] = H[p1, p0] = -0.1
        with pytest.raises(ValueError, match="p entry outside its site's diagonal block"):
            spectrum_X(H, CHAIN)

    def test_cone_violation_detected(self):
        H = np.diag([1.0, 1.0, -0.5, 1.0])
        with pytest.raises(ConeViolationError):
            spectrum_X(H, ModelParams(N=1, M=1, b=1.0))

    @pytest.mark.parametrize("entry, factored", [
        # site 0's first p: its p block does not factor
        ("p", ["dense"]),
        # site 0's first q: the p blocks factor, the Schur complement is
        # indefinite
        ("q", ["half", "dense"]),
    ])
    def test_cone_violation_at_positive_nu_detected(self, entry, factored, monkeypatch):
        # the dense route, which owns the shift ladder, gives the verdict
        H = draw_sample(CHAIN, np.random.SeedSequence(0), fresh_H(CHAIN))
        i = CHAIN.N if entry == "p" else 0
        H[i, i] = -0.5
        dim = len(H)
        calls = recorded(monkeypatch, ensemble, "cholesky_psd")
        with pytest.raises(ConeViolationError):
            spectrum_X(H, CHAIN)
        sizes = {"half": (dim // 2, dim // 2), "dense": (dim, dim)}
        assert [args[0].shape for args, _ in calls] == [sizes[f] for f in factored]

    def test_cone_membership_of_samples(self):
        for seed in range(4):
            H = draw_sample(RMT, np.random.SeedSequence(seed), fresh_H(RMT))
            w = np.linalg.eigvalsh(H)
            assert w.min() >= -1e-10 * np.abs(w).max()


def concatenated_histogram(params, n_samples, bins, seed, omega_max=None,
                           spectrum=spectrum_X):
    """``mc_dos``'s bookkeeping done on all spectra at once: the spawned
    seeds, one concatenated |mu| array, full-size masks and one
    ``np.histogram``, with each sample's frequencies from
    ``spectrum(H, params)``.  Returns (counts, edges, zero modes, overflow,
    zero_tol)."""
    values = np.concatenate([
        np.abs(spectrum(draw_sample(params, child, fresh_H(params)), params))
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
            draw_sample(params, np.random.SeedSequence(0), fresh_H(params))
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

    @pytest.mark.xfail(strict=True, reason="both routes leave the 6 zero modes "
                       "of H's 3-dimensional kernel at 1e-9 to 1e-8 of max|mu|, "
                       "which straddles zero_tol; the rank-based count would "
                       "book them")
    def test_lattice_kernel_books_every_zero_mode(self):
        # M = 2 couplings leave 7 of each site's 9 q directions free, and a
        # q vector uniform over the 3 sites in their common null space is
        # untouched by the clean term: H has an exact 3-dimensional kernel,
        # so X has 6 zero modes per sample (104 of 120 are booked today)
        params = ModelParams(d=1, extents=(3,), N=9, M=2, b=0.63, nu=1.0)
        hist = mc_dos(params, n_samples=20, bins=10, seed=0)
        assert hist.zero_mode_count == 20 * 6

    def test_hard_edge_flat_band_books_as_the_svd_route(self, monkeypatch):
        # M = 2N: H is definite, but the spectrum runs down to the hard edge
        # at 0, so samples take both routes
        params = ModelParams(a=1.0, N=8, M=16, b=1.0, nu=0.0)
        hist = mc_dos(params, n_samples=200, bins=40, seed=0)
        monkeypatch.setattr(ensemble, "gram_spectrum", gram_svd_route)
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
            # lattices, whose one reused H must carry nothing from sample to
            # sample: the mc-lattice ensemble, a 3 x 7 lattice that wraps
            # round at L = 3, and one with no clean term
            (MC_LATTICE, 4, 50, None),
            (ModelParams(d=2, extents=(3, 7), N=3, M=5, b=0.63, nu=1.0), 3, 10, None),
            (ModelParams(d=2, extents=(4, 3), N=3, M=7, b=0.63, nu=0.0), 3, 10, None),
        ],
        ids=["mc-flat", "mc-flat-overflow", "zero-modes-past-omega-max",
             "mc-lattice", "lattice-3x7", "lattice-4x3-nu0"],
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

    @pytest.mark.parametrize("seed", [0, 20101])
    def test_mc_lattice_counts_match_the_dense_reference(self, seed):
        # the benchmark's mc-lattice run: 6 samples and the CLI's 100 bins
        hist = mc_dos(MC_LATTICE, n_samples=6, bins=100, seed=seed)
        counts, edges, zero_count, overflow, _ = concatenated_histogram(
            MC_LATTICE, 6, 100, seed,
            spectrum=lambda H, params: dense_reference_spectrum(H, params.N))
        assert np.array_equal(hist.counts, counts)
        assert hist.zero_mode_count == zero_count == 0
        assert hist.overflow_count == overflow == 0
        np.testing.assert_allclose(hist.bin_edges, edges, rtol=1e-14, atol=0)

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
        dim = 2 * params.N * params.n_sites
        traces = []
        for child in np.random.SeedSequence(77).spawn(300):
            H = draw_sample(params, child, fresh_H(params))
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
