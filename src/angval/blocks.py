"""Block propagation shared by the discrete and continuous systems.

An orbit of subspaces is carried in blocks: B nodes are reached from one
orthonormal basis by the products M_j ... M_1 of the step maps and
orthonormalized together.  That is as accurate as stepping while the
products stay well conditioned, so B is the longest leading run of
products, up to _MAX_BLOCK, whose condition number is at most _BLOCK_COND.
A constant system has one step matrix M, whose powers are formed once.
A discrete time-varying system is carried in segments of _SEGMENT maps
instead, formed for a whole chunk at once, so that the cost of a step does
not depend on where the condition numbers cut the blocks.
"""

from __future__ import annotations

import numpy as np

from .errors import StepUnstable

_MAX_BLOCK = 256
_SEGMENT = 16
_BLOCK_COND = 1e4
_RANK_TOL = 1e-10  # qr_thin's default

# overflow/invalid during a blown-up step is reported via StepUnstable, not
# as a numpy warning
_quiet = np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _conditioned(prods):
    """Mask of the members of a (..., d, d) stack whose condition numbers
    are at most _BLOCK_COND."""
    finite = np.all(np.isfinite(prods), axis=(-2, -1))
    cond = np.full(finite.shape, np.inf)
    sigma = np.linalg.svd(prods[finite], compute_uv=False)
    cond[finite] = sigma[:, 0] / sigma[:, -1]
    return cond <= _BLOCK_COND  # 0/0 is nan: a zero product fails too


def _well_conditioned(prods):
    """Length, at least 1, of the longest leading run of a (B, d, d) stack
    whose condition numbers are at most _BLOCK_COND."""
    ok = _conditioned(prods)
    return len(prods) if ok.all() else max(int(np.argmin(ok)), 1)


@_quiet
def _unit_powers(m, nsteps):
    """Stack (B, d, d) of the powers of one step matrix M, each scaled to
    unit norm, which keeps the spans they carry and keeps long blocks of
    growing or decaying steps from overflowing or underflowing."""
    powers = m[None]
    cap = min(_MAX_BLOCK, nsteps)
    while len(powers) < cap:
        powers = np.concatenate([powers, powers @ powers[-1]])
        powers /= np.linalg.norm(powers, axis=(1, 2), keepdims=True)
    return powers[: _well_conditioned(powers[:cap])]


def _prefix_products(maps):
    """Products M_j ... M_1 (j = 1..n) of a (..., n, d, d) stack of n maps
    each, each product scaled to unit norm, by a scan of about log2(n)
    stacked products."""
    prods = maps / np.linalg.norm(maps, axis=(-2, -1), keepdims=True)
    span = 1
    while span < prods.shape[-3]:
        head, tail, lag = prods[..., :span, :, :], prods[..., span:, :, :], prods[..., :-span, :, :]
        prods = np.concatenate([head, tail @ lag], axis=-3)
        prods /= np.linalg.norm(prods, axis=(-2, -1), keepdims=True)
        span *= 2
    return prods


def _cut_blocks(chunks):
    """Yield (unit-scaled products, ends) for the blocks of a stream of
    chunks (maps, ends), where ends is aligned with the maps of its chunk.
    Blocks never span two chunks; after a block is cut short, the next forms
    its products only up to that length, and each block that is not cut
    doubles the length tried."""
    tried = _MAX_BLOCK
    for maps, ends in chunks:
        j = 0
        while j < len(maps):
            prods = _prefix_products(maps[j : j + tried])
            b = _well_conditioned(prods)
            yield prods[:b], ends[j : j + b]
            tried = b if b < len(prods) else min(2 * tried, _MAX_BLOCK)
            j += b


def _segment_blocks(chunks):
    """Yield (products, ends) for the blocks of a stream of chunks (maps,
    ends), with the unit-scaled products of K blocks of B nodes each in a
    (K, B, d, d) stack and ends aligned with their nodes.  Each chunk is cut
    into segments of _SEGMENT maps (identity maps pad the last one; the
    nodes past ends are padding), whose products come from one scan and one
    condition test; a segment that fails the test is cut by _cut_blocks."""
    for maps, ends in chunks:
        n, d = maps.shape[:2]
        k = -(-n // _SEGMENT)
        pad = np.broadcast_to(np.eye(d), (k * _SEGMENT - n, d, d))
        prods = _prefix_products(np.concatenate([maps, pad]).reshape(k, _SEGMENT, d, d))
        i = 0
        for j in [*np.flatnonzero(~_conditioned(prods).all(axis=1)), k]:
            if j > i:
                yield prods[i:j], ends[i * _SEGMENT : j * _SEGMENT]
            if j < k:
                seg = slice(j * _SEGMENT, (j + 1) * _SEGMENT)
                yield from ((p[None], e) for p, e in _cut_blocks([(maps[seg], ends[seg])]))
            i = j + 1


def _orthonormalize(w):
    """Orthonormal factor of a (d, s) basis or of each member of an (n, d, s)
    stack, with diag R >= 0 and qr_thin's rank test; an overflowed or
    rank-deficient basis raises StepUnstable."""
    scale = np.sqrt(np.einsum("...ij,...ij->...", w, w))
    if not np.isfinite(scale).all():
        raise StepUnstable("propagated basis overflowed or has non-finite entries")
    if w.shape[-1] == 1:
        # one column: R is its norm, and the rank test is "nonzero column"
        if not (scale > 0.0).all():
            raise StepUnstable("propagated basis lost rank")
        return w / scale[..., None, None]
    q, r = np.linalg.qr(w)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    if (np.abs(diag) <= _RANK_TOL * scale[..., None]).any():
        raise StepUnstable("propagated basis lost rank")
    return q * np.sign(diag)[..., None, :]
