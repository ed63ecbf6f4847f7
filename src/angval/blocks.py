"""Block propagation shared by the discrete and continuous systems.

An orbit of subspaces is carried in blocks: B nodes are reached from one
orthonormal basis by the products M_j ... M_1 of the step maps and
orthonormalized together, as accurate as stepping while the products stay
well conditioned: kappa <= _BLOCK_COND, decided as an SVD would by two
determinant bounds with margins of 2, and by an SVD where they do not.
A constant system's step matrix M has its powers formed once, up to
_MAX_BLOCK of them.  A time-varying system is carried in segments of
_SEGMENT maps, formed for a whole chunk of maps at once and halved where
they fail the test, so the cost of a step does not depend on where the
condition numbers would cut a longer block.  _carry turns either stream of
blocks into orthonormal nodes.

A pass carries a (C, d, s) stack of bases (one basis is a stack of one)
that share each block's products; each member gets the bits of its own
pass.  A constant system's B powers multiply each member as one (B d, d)
matrix, one BLAS call per member: the bits of B stacked products.  The
search (search.run_search) sizes the stacks.

_running_sums, the one reader of both classes' per-node increments, sums
them at sample nodes for every member in memory bounded by the block,
_HELD and the samples; only continuous.propagate_subspace stores per-node
values.
"""

from __future__ import annotations

import numpy as np

from .errors import RankDeficient, StepUnstable
from .linalg import qr, singular_values

_MAX_BLOCK = 256
_SEGMENT = 16
_BLOCK_COND = 1e4
_HELD = 1 << 14  # member nodes per cumsum of _running_sums

# overflow/invalid during a blown-up step is reported via StepUnstable, not
# as a numpy warning
_quiet = np.errstate(over="ignore", invalid="ignore", divide="ignore")


@_quiet
def _conditioned(prods):
    """Mask of the members of a (..., d, d) stack whose condition numbers
    kappa, by singular_values, are at most _BLOCK_COND.  lo <= kappa < 2 lo^d
    for lo = ||P||_F/(sqrt(d) |det P|^(1/d)) (Guggenheimer et al. 1995), so
    a member passes at 2 lo^d <= _BLOCK_COND/2, fails at lo > 2 _BLOCK_COND,
    and only the rest take the SVD.  det (an LU) and the SVD are each exact
    for a P + E with ||E|| = O(eps ||P||), which moves kappa by O(eps kappa):
    far inside the margins of 2, so every decision is the SVD's.  lo reads P
    scaled by its largest entry; a zero or non-finite member is nan, fails."""
    d = prods.shape[-1]
    unit = prods / np.abs(prods).max(axis=(-2, -1), keepdims=True)
    lo = np.linalg.norm(unit, axis=(-2, -1)) / np.sqrt(d) / np.abs(np.linalg.det(unit)) ** (1 / d)
    ok = 2 * lo**d <= _BLOCK_COND / 2
    open_ = ~ok & (lo <= 2 * _BLOCK_COND)
    if open_.any():
        sigma = singular_values(prods[open_])
        ok[open_] = sigma[:, 0] / sigma[:, -1] <= _BLOCK_COND
    return ok


@_quiet
def _unit_powers(m, nsteps):
    """Stack (B, d, d) of the powers of one step matrix M: M itself alone at
    nsteps = 1, else each scaled to unit norm, which keeps their spans and
    keeps long blocks of growing or decaying steps from overflowing.  B, at
    least 1, is the longest leading run that passes the condition test."""
    powers = m[None]
    cap = min(_MAX_BLOCK, nsteps)
    while len(powers) < cap:
        powers = np.concatenate([powers, powers @ powers[-1]])
        powers /= np.linalg.norm(powers, axis=(1, 2), keepdims=True)
    ok = _conditioned(powers[:cap])
    return powers[: cap if ok.all() else max(int(np.argmin(ok)), 1)]


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


def _power_blocks(powers, n):
    """Blocks (products, node indices) of n steps of one step matrix, from
    the stack of its unit-scaled powers."""
    for k in range(0, n, len(powers)):
        yield powers[None, : n - k], range(k + 1, n + 1)[: len(powers)]


def _segment_blocks(chunks, size=_SEGMENT):
    """Yield (products, ends) for a stream of chunks (maps, ends): the
    unit-scaled products of K segments of `size` maps in a (K, size, d, d)
    stack, from one scan and one condition test per chunk, with ends aligned
    with their nodes (identity maps pad the last segment; the nodes past
    ends are padding).  Each run of segments that fail the test is halved by
    the same rule; a single map is always accepted, as it is one step."""
    for maps, ends in chunks:
        n, d = maps.shape[:2]
        k = -(-n // size)
        pad = np.broadcast_to(np.eye(d), (k * size - n, d, d))
        prods = _prefix_products(np.concatenate([maps, pad]).reshape(k, size, d, d))
        ok = _conditioned(prods).all(axis=1) if size > 1 else np.ones(k, dtype=bool)
        cuts = [*np.flatnonzero(ok[1:] != ok[:-1]) + 1]
        for i, j in zip([0, *cuts], [*cuts, k]):
            run = slice(i * size, j * size)
            if ok[i]:
                yield prods[i:j], ends[run]
            else:
                yield from _segment_blocks([(maps[run], ends[run])], size // 2)


def _carry(b0, blocks):
    """Yield (nodes, ends, node indices) for a stream of blocks (products,
    ends): the (C, n, d, s) orthonormal bases the products reach from each
    member of the (C, d, s) stack b0, node 0 and padding dropped.  Each of
    the K segments of a block starts from the end nodes of the one before.
    A non-finite or rank-deficient basis of any member raises StepUnstable."""
    q, k = b0, 1
    c, d, s = b0.shape
    try:
        for prods, ends in blocks:
            starts = [q]
            for p in prods[:-1]:
                starts.append(qr(p[-1] @ starts[-1])[0])
            # a lone segment needs no stack of starts
            w = prods[0].reshape(-1, d) @ q if len(prods) == 1 else prods @ np.stack(starts, axis=1)[:, :, None]
            nodes = qr(w.reshape(-1, d, s))[0].reshape(c, -1, d, s)[:, : len(ends)]
            yield nodes, ends, range(k, k + nodes.shape[1])
            q, k = nodes[:, -1], k + nodes.shape[1]
    except (RankDeficient, FloatingPointError) as exc:
        raise StepUnstable("propagated basis: %s" % exc) from exc


def _held(blocks):
    """Runs (first node, (C, n) increments) of a stream of blocks (increments,
    node indices, bases), joined until their C rows span _HELD nodes."""
    held = []
    for inc, nodes, _ in blocks:
        if not held:
            lo = nodes[0]
        held.append(inc)
        if (nodes[-1] - lo) * len(inc) >= _HELD:
            yield lo, np.concatenate(held, axis=1)
            held = []
    if held:
        yield lo, np.concatenate(held, axis=1)


@_quiet
def _running_sums(blocks, samples, start=0):
    """(C, samples) sums and increments at the sorted sample nodes of a
    stream of blocks ((C, n) increments, node indices, bases), which runs
    under _quiet here.  A member's sum at node j adds its increments of
    nodes start..j one at a time in node order, as np.cumsum does, by one
    cumsum along the rows of each run of _held."""
    sums, total, ptr = None, 0.0, 0
    for lo, run in _held(blocks):
        if sums is None:
            sums, values = np.empty((2, len(run), len(samples)))
        if start > lo:
            run[:, : start - lo] = 0.0  # nodes before start add nothing
        end = samples.searchsorted(lo + run.shape[1])
        at = samples[ptr:end] - lo
        values[:, ptr:end] = run[:, at]
        run[:, 0] += total
        total = np.cumsum(run, axis=1, out=run)[:, -1].copy()
        sums[:, ptr:end] = run[:, at]
        ptr = end
    return sums, values
