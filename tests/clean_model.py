"""Closed forms of the clean (b = 0) model, the references that tests hold
``assemble_K``, the zone means and the oracle to."""

import numpy as np


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
