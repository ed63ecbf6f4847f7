import numpy as np
from hypothesis import settings

from angval.grassmann import Subspace

# Property tests draw the same examples on every run and never time out: the
# timing of a single example varies too much between runs to gate on.
settings.register_profile("angval", derandomize=True, deadline=None, database=None)
settings.load_profile("angval")


def haar_subspace(rng, d, s):
    """Random s-dimensional subspace of R^d from a QR'd Gaussian matrix."""
    m = rng.standard_normal((d, s))
    q, r = np.linalg.qr(m)
    q = q * np.sign(np.diag(r))
    return Subspace(q)


def random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))
