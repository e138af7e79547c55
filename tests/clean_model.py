"""Closed forms of the clean (b = 0) model, its dense complex generator and
the dense textbook reduction of a sample's H, the references that tests
hold ``assemble_K``, the zone means and the oracle to."""

import numpy as np

from bosondos.linalg import skew_spectrum


def delta_k(k, d=None):
    """Scaled lattice-Laplacian symbol (1/d) * sum_i cos(k_i), always in [-1, 1].

    ``k`` is a length-d wavevector or an array of them stacked along the
    leading axes.
    """
    k = np.asarray(k, dtype=float)
    if k.ndim == 0:
        k = k[np.newaxis]
    if d is not None and k.shape[-1] != d:
        raise ValueError(
            f"wavevector has {k.shape[-1]} components, expected d={d}"
        )
    return np.cos(k).mean(axis=-1)


def dispersion(k, nu, d=None):
    """Clean single-boson frequency nu * sqrt(1 - delta_k(k)) >= 0."""
    arg = 1.0 - delta_k(k, d)
    # rounding can push 1 - delta to -1e-17 at the zone center
    return nu * np.sqrt(np.clip(arg, 0.0, None))


def k1_block(k, nu, d=None):
    """Momentum-space 2x2 block of the deterministic generator.

    Returns -(i*nu/2) * [[2 - dlt, -dlt], [dlt, -2 + dlt]] with dlt the
    scaled Laplacian symbol at ``k``; its eigenvalues are +/- i*dispersion(k)
    (characteristic polynomial lambda^2 + nu^2 (1 - dlt)).
    """
    dlt = float(delta_k(k, d))
    return -0.5j * nu * np.array(
        [[2.0 - dlt, -dlt], [dlt, -2.0 + dlt]], dtype=complex
    )


def complex_K(params):
    """Real-space deterministic generator on the periodic lattice.

    Returns the dense block matrix of dimension 2N * n_sites, ordered
    site-major with the (a, a*) split inside each site.  On-site blocks are
    -(i*nu/2) diag(2, -2) (x) Id_N; each directed nearest-neighbor bond
    carries -(i*nu/2) (1/(2d)) [[-1, -1], [1, 1]] (x) Id_N, so that the
    discrete Fourier transform is the momentum-space block
    -(i*nu/2) [[2 - dlt_k, -dlt_k], [dlt_k, -2 + dlt_k]] (x) Id_N, with
    dlt_k = (1/d) sum_i cos(k_i) the scaled Laplacian symbol; its
    eigenvalues are +/- i*nu*sqrt(1 - dlt_k), the clean dispersion.

    Both are written through the (site, band, site, band) view of K: the
    on-site block on its diagonal, the bond block at each site's -1 and +1
    neighbour along every axis, read off ``np.roll`` of the site-index grid.
    """
    d, N, nu = params.d, params.N, params.nu
    n, nsite = 2 * N, params.n_sites
    onsite = -0.5j * nu * np.diag([2.0, -2.0])
    # factor 1/(2d): the symbol of the adjacency operator is 2d * dlt_k,
    # so each directed bond carries delta_{jj'} = 1/(2d)
    bond = -0.5j * nu / (2.0 * d) * np.array([[-1.0, -1.0], [1.0, 1.0]])
    site = np.arange(nsite)
    grid = site.reshape(params.extents)
    neighbours = np.stack([np.roll(grid, step, axis).ravel()
                           for axis in range(d) for step in (1, -1)], axis=1)
    K = np.zeros((n * nsite, n * nsite), dtype=complex)
    blocks = K.reshape(nsite, n, nsite, n)
    blocks[site, :, site] = np.kron(onsite, np.eye(N))
    # L >= 3: a site's 2d neighbours are distinct, so each bond is written once
    blocks[site[:, None], :, neighbours] = np.kron(bond, np.eye(N))
    return K


def dense_reference_spectrum(H, N):
    """Frequencies of a definite quadrature-basis H, the textbook way:
    H = C C^T from ``np.linalg.cholesky``, S = C^T J C with
    J = [[0, I_N], [-I_N, 0]] on each site's (q, p) block, and the SVD of
    ``skew_spectrum``."""
    eye, zero = np.eye(N), np.zeros((N, N))
    J = np.kron(np.eye(len(H) // (2 * N)), np.block([[zero, eye], [-eye, zero]]))
    C = np.linalg.cholesky(H)
    return skew_spectrum(C.T @ J @ C)
