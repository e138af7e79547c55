import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosondos import ModelParams
from bosondos.model import assemble_K
from clean_model import complex_K, delta_k, dispersion, k1_block

wavevectors = st.lists(
    st.floats(min_value=0.0, max_value=2 * np.pi, exclude_max=True),
    min_size=1,
    max_size=3,
)


def test_delta_k_reference_points():
    assert delta_k([0.0], d=1) == 1.0
    assert delta_k([np.pi, np.pi], d=2) == -1.0
    assert abs(delta_k([np.pi / 2] * 3, d=3)) < 1e-16


def test_delta_k_dimension_mismatch():
    with pytest.raises(ValueError, match="expected d=2"):
        delta_k([0.1, 0.2, 0.3], d=2)


@given(wavevectors)
@settings(max_examples=50)
def test_delta_k_bounded(k):
    assert -1.0 <= delta_k(k) <= 1.0


def test_dispersion_reference_points():
    assert dispersion([np.pi], nu=1.0, d=1) == pytest.approx(np.sqrt(2.0), abs=1e-15)
    assert dispersion([0.0, 0.0], nu=2.5) == 0.0


def test_dispersion_sound_speed_d2():
    # small-|k| slope is nu / sqrt(2 d) = 0.5 for d = 2, nu = 1
    # (|k| large enough that 1 - delta_k is not all cancellation)
    for direction in ([1.0, 0.0], [0.6, 0.8]):
        k = 1e-3 * np.asarray(direction)
        slope = dispersion(k, nu=1.0) / np.linalg.norm(k)
        assert slope == pytest.approx(0.5, rel=1e-6)


@given(wavevectors, st.floats(min_value=0.1, max_value=5.0))
@settings(max_examples=50)
def test_dispersion_squared_identity(k, nu):
    val = dispersion(k, nu)
    assert val**2 == pytest.approx(nu**2 * (1.0 - delta_k(k)), rel=1e-13, abs=1e-13)


def test_k1_block_diagonal_case():
    # delta = 0 at k = pi/2: block is -(i/2) diag(2, -2) with eigenvalues +/- i
    B = k1_block([np.pi / 2], nu=1.0)
    assert np.allclose(B, -0.5j * np.diag([2.0, -2.0]), atol=1e-15)
    ev = np.linalg.eigvals(B)
    assert sorted(ev.imag) == pytest.approx([-1.0, 1.0], abs=1e-12)


def test_k1_block_zone_center_nilpotent():
    B = k1_block([0.0], nu=1.0)
    assert np.allclose(B, -0.5j * np.array([[1, -1], [1, -1]]), atol=1e-15)
    # both eigenvalues vanish and the block is nilpotent
    assert np.allclose(B @ B, 0.0, atol=1e-15)


def test_k1_block_eigenvalues_match_dispersion():
    rng = np.random.default_rng(7)
    for _ in range(20):
        d = rng.integers(1, 4)
        k = rng.uniform(0, 2 * np.pi, size=d)
        nu = rng.uniform(0.2, 3.0)
        # oracle: roots of the closed-form characteristic polynomial
        # lambda^2 + nu^2 (1 - delta)
        lam = nu * np.sqrt(1.0 - delta_k(k))
        got = np.linalg.eigvals(k1_block(k, nu))
        assert np.abs(got.real).max() < 1e-12
        assert np.allclose(np.sort(got.imag), [-lam, lam], atol=1e-12)


@pytest.fixture(scope="module")
def chain8():
    params = ModelParams(d=1, extents=(8,), N=1, M=2, b=0.1, nu=1.0)
    return params, complex_K(params)


def test_assemble_K_spectrum_matches_dispersion(chain8):
    _, K = chain8
    ev = np.linalg.eigvals(K)
    expected = np.sort(
        np.repeat([dispersion([2 * np.pi * m / 8], 1.0) for m in range(8)], 2)
    )
    # the k = 0 acoustic block is defective (nilpotent), so a dense
    # non-Hermitian solve splits its double zero at the sqrt(eps) level
    assert np.allclose(np.sort(np.abs(ev.imag)), expected, atol=1e-7)
    assert np.abs(ev.real).max() < 1e-7


def test_assemble_K_purely_imaginary_paired_spectrum(chain8):
    _, K = chain8
    ev = np.linalg.eigvals(K)
    assert np.abs(ev.real).max() < 1e-7
    # +/- pairing as a multiset identity on the imaginary parts
    assert np.allclose(np.sort(ev.imag), np.sort(-ev.imag), atol=1e-7)


def test_assemble_K_symplectic_condition(chain8):
    _, K = chain8
    J = np.kron(np.eye(8), [[0.0, 1.0], [-1.0, 0.0]])
    assert np.abs(K + J @ K.T @ np.linalg.inv(J)).max() < 1e-14


def test_assemble_K_stability_cone(chain8):
    _, K = chain8
    S3 = np.kron(np.eye(8), np.diag([1.0, -1.0]))
    H = 1j * S3 @ K
    assert np.abs(H - H.conj().T).max() < 1e-14
    w = np.linalg.eigvalsh(H)
    # minimum eigenvalue 0 at the k = 0 acoustic mode
    assert abs(w[0]) < 1e-12
    expected = np.sort(
        np.concatenate(
            [[1.0, 1.0 - np.cos(2 * np.pi * m / 8)] for m in range(8)]
        )
    )
    assert np.allclose(np.sort(w), expected, atol=1e-12)


@pytest.mark.parametrize("d,extents,N", [(1, (8,), 2), (2, (4, 3), 3), (3, (3, 4, 5), 2)])
def test_assemble_K_blocks_are_the_closed_form(d, extents, N):
    # bitwise nu Id_2N on each site and -nu/(2d) diag(Id_N, 0) on each
    # directed bond, the bonds at each site's -1 and +1 neighbour per axis,
    # and zero everywhere else
    params = ModelParams(d=d, extents=extents, N=N, M=4, b=0.1, nu=0.7)
    H = assemble_K(params)
    sites, n = params.n_sites, 2 * N
    onsite = params.nu * np.eye(n)
    bond = -params.nu / (2 * d) * np.diag(np.repeat([1.0, 0.0], N))
    assert H.dtype == float and H.shape == (sites * n, sites * n)
    blocks = H.reshape(sites, n, sites, n)
    nonzero = 0
    for j in range(sites):
        for k in range(sites):
            block = blocks[j, :, k]
            step = (np.subtract(np.unravel_index(k, extents), np.unravel_index(j, extents))
                    % np.asarray(extents))
            moved = np.flatnonzero(step)
            if j == k:
                assert np.array_equal(block, onsite)
            elif len(moved) == 1 and step[moved[0]] in (1, extents[moved[0]] - 1):
                # one axis moved by +1 or -1 (L - 1 modulo L), the others fixed
                assert np.array_equal(block, bond)
            else:
                assert not block.any()
            nonzero += bool(block.any())
    assert nonzero == (1 + 2 * d) * sites


@pytest.mark.parametrize("d,extents", [(1, (8,)), (2, (4, 3)), (3, (3, 4, 5))])
def test_assemble_K_fourier_consistency(d, extents):
    # the symbol of the term's site blocks is u^dagger (i Sigma3
    # k1_block(k)) u (x) Id_N = nu diag((1 - dlt_k) Id_N, Id_N), with
    # (a, a*) = u (q, p)
    N = 2
    params = ModelParams(d=d, extents=extents, N=N, M=4, b=0.1, nu=0.7)
    row = assemble_K(params).reshape(params.n_sites, 2 * N, params.n_sites, 2 * N)[0]
    sites = np.array(np.unravel_index(np.arange(params.n_sites), extents)).T
    u = np.kron([[1.0, 1.0j], [1.0, -1.0j]], np.eye(N)) / np.sqrt(2.0)
    s3 = np.repeat([1.0, -1.0], N)
    for m in np.ndindex(*extents):
        k = 2 * np.pi * np.asarray(m, dtype=float) / np.asarray(extents)
        phases = np.exp(-1j * sites @ k)
        symbol = np.einsum("j,ajb->ab", phases, row)
        closed = params.nu * np.diag(np.repeat([1.0 - delta_k(k), 1.0], N))
        rotated = u.conj().T @ (1j * s3[:, None] * np.kron(k1_block(k, params.nu), np.eye(N))) @ u
        # the phases e^{-i k.r} carry rounding; the term itself does not
        assert np.abs(symbol - closed).max() <= 1e-14 * params.nu
        assert np.abs(rotated - closed).max() <= 1e-14 * params.nu


def test_assemble_K_memory_is_H_itself():
    # the mc-lattice flags: the term is written into the sample's own H
    # (dim = 512, 2 MB), with no other array of that size alongside it
    params = ModelParams(d=1, extents=(32,), N=8, M=12, b=0.63, nu=1.0)
    dim = 2 * params.N * params.n_sites
    tracemalloc.start()
    try:
        assemble_K(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= dim * dim * 8 + 64 * 1024


def test_assemble_K_overwrites_a_given_array():
    # a reused H starts over from the clean term, whatever it held, and an
    # array whose block views would be copies is rejected
    params = ModelParams(d=2, extents=(4, 3), N=2, M=3, b=0.1, nu=0.7)
    dim = 2 * params.N * params.n_sites
    out = np.full((dim, dim), np.nan)
    assert assemble_K(params, out) is out
    assert np.array_equal(out, assemble_K(params))
    for bad in (np.empty((dim, dim)).T, np.empty((dim, dim), np.float32),
                np.empty((dim, dim + 1))):
        with pytest.raises(ValueError, match="C-contiguous float64"):
            assemble_K(params, bad)


def test_assemble_K_rejects_short_dimensions():
    params = ModelParams(d=1, extents=None, a=0.5, b=0.1, nu=1.0)
    with pytest.raises(ValueError, match="finite lattice"):
        assemble_K(params)
    # a short dimension is rejected where the model is built
    with pytest.raises(ValueError, match="at least 3 sites"):
        ModelParams(d=1, extents=(2,), N=1, M=2, b=0.1, nu=1.0)


def test_assemble_K_requires_the_band_count():
    params = ModelParams(d=1, extents=(4,), a=0.75, b=0.1, nu=1.0)
    with pytest.raises(ValueError, match="band count N"):
        assemble_K(params)


class TestModelParams:
    def test_ratio_derived_from_M_and_N(self):
        p = ModelParams(a=None, N=4, M=6, b=1.0)
        assert p.a == 0.75

    def test_inconsistent_ratio_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            ModelParams(a=0.8, N=4, M=6, b=1.0)

    def test_consistent_ratio_accepted(self):
        p = ModelParams(a=0.75, N=4, M=6, b=1.0)
        assert p.a == 0.75

    def test_cpa_mode_needs_only_a(self):
        p = ModelParams(a=1.5, b=2.0)
        assert p.M is None and p.N is None

    def test_both_scales_zero_rejected(self):
        with pytest.raises(ValueError, match="cannot both vanish"):
            ModelParams(a=1.0, b=0.0, nu=0.0)

    def test_negative_disorder_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(a=1.0, b=-0.5, nu=1.0)

    def test_extents_dimension_checked(self):
        with pytest.raises(ValueError, match="extents"):
            ModelParams(d=2, extents=(8,), a=1.0, b=1.0, nu=1.0)

    def test_M_without_N_rejected(self):
        with pytest.raises(ValueError, match="together"):
            ModelParams(a=1.0, M=4, b=1.0)

    def test_nonfinite_scales_rejected(self):
        for name in ("a", "b", "nu"):
            for bad in (float("nan"), float("inf")):
                given = {"a": 1.0, "b": 1.0, "nu": 1.0, name: bad}
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    ModelParams(**given)

    @pytest.mark.parametrize("d", [0, 1.5])
    def test_dimension_must_be_a_positive_integer(self, d):
        with pytest.raises(ValueError, match="d must be a positive integer"):
            ModelParams(d=d, a=1.0, b=1.0)

    @pytest.mark.parametrize("name,bad", [("N", 0), ("N", 1.5), ("M", 0), ("M", 2.5)])
    def test_band_counts_must_be_positive_integers(self, name, bad):
        counts = {"N": 2, "M": 4, name: bad}
        with pytest.raises(ValueError, match=f"{name} must be a positive integer"):
            ModelParams(b=1.0, **counts)

    def test_ratio_or_band_counts_required(self):
        with pytest.raises(ValueError, match="either a or the pair"):
            ModelParams(b=1.0)

    @pytest.mark.parametrize("a", [0.0, -0.5])
    def test_ratio_must_be_positive(self, a):
        with pytest.raises(ValueError, match="a must be positive"):
            ModelParams(a=a, b=1.0)

    def test_extents_must_be_positive(self):
        # at least 3 sites per dimension, for the oracle and the mean field
        for extents in ((4, 0), (4, 2), (-3, 4)):
            with pytest.raises(ValueError, match="at least 3 sites"):
                ModelParams(d=2, extents=extents, a=1.0, b=1.0, nu=1.0)
        assert ModelParams(d=2, extents=(3, 3), a=1.0, b=1.0, nu=1.0).n_sites == 9

    @pytest.mark.parametrize("d,extents", [(1, (3.7,)), (2, (4, 5.5)), (2, "33")],
                             ids=["fraction", "one-fraction", "string"])
    def test_extents_must_be_integers(self, d, extents):
        # each was once truncated quietly: (3.7,) to (3,) and "33" to (3, 3)
        with pytest.raises(ValueError, match="extents must be integers"):
            ModelParams(d=d, extents=extents, a=1.0, b=1.0, nu=1.0)
        assert ModelParams(d=2, extents=(4.0, 3), a=1.0, b=1.0, nu=1.0).extents == (4, 3)
