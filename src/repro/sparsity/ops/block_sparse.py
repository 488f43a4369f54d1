"""Block-sparse attention operators (SDD / DSD) and the fused training op.

The attention computation under a per-head block mask decomposes into two
sparse matrix multiplications (paper Section VI-A):

* **SDD** (``sparse = dense x dense``): only the score blocks listed in the
  layout are computed from Q and K;
* **DSD** (``dense = sparse x dense``): the sparse probability blocks are
  multiplied with V to produce the dense context.

:func:`block_sparse_attention` is the fused autograd op used during
fine-tuning.  It runs both products over **row panels**: the
``(head, query-row)`` softmax segments are grouped by their number of
active blocks ``l`` (:class:`~repro.sparsity.ops.geometry_cache.PanelGroup`),
and each group's K/V blocks are gathered into contiguous ``l * block``-wide
panels.  A segment's scores are then one ``block x l*block`` matmul, its
softmax is a plain last-axis softmax, and its context and dQ rows are one
matmul each that lands directly on the segment's row — the per-block work
is done by BLAS and the Python overhead is one short loop over the groups.
Only dK/dV, whose blocks are shared across query rows, go through a
(head, key-column)-sorted segmented reduce.  The custom backward touches
exactly the same blocks as the forward, realising the paper's observation
that inactive positions drop out of the gradient computation as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.sparsity.ops.geometry_cache import (
    BlockGeometry,
    LayoutGeometryCache,
    compute_block_geometry,
    segment_geometry,
)
from repro.sparsity.ops.layout import MultiHeadLayout
from repro.tensor import Tensor
from repro.tensor import arena as _arena
from repro.tensor import fused as _fused
from repro.tensor import plan as _plan
from repro.tensor import reference as _reference
from repro.tensor.tensor import custom_op

_NEG_INF = np.float32(-1e9)


def _segment_sum(arr: np.ndarray, starts: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
    """Per-segment sum along axis 1 (replaces ``np.add.reduceat``).

    ``reduceat`` walks its fast path element by element; a short Python loop
    issuing one contiguous-slab ``np.add.reduce`` per segment keeps the
    reduction inside NumPy's pairwise SIMD loop instead (measured ~6x faster
    at the dK/dV column-segment shapes), with the per-segment Python
    overhead amortised over the whole ``(batch, ..., block)`` slab.  Edge
    semantics mirror ``reduceat``: a length-1 (or degenerate empty) segment
    passes ``arr[:, starts[i]]`` through unchanged.
    """
    n = arr.shape[1]
    n_seg = starts.shape[0]
    for i in range(n_seg):
        s = starts[i]
        e = starts[i + 1] if i + 1 < n_seg else n
        if e - s <= 1:
            np.copyto(out[:, i], arr[:, s])
        else:
            np.add.reduce(arr[:, s:e], axis=1, out=out[:, i])
    return out


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _pad_to_blocks(x: np.ndarray, block_size: int, axis: int) -> np.ndarray:
    """Zero-pad ``x`` along ``axis`` so its length is a block multiple."""
    length = x.shape[axis]
    remainder = length % block_size
    if remainder == 0:
        return x
    pad = [(0, 0)] * x.ndim
    pad[axis] = (0, block_size - remainder)
    return np.pad(x, pad)


def _blockify(x: np.ndarray, block_size: int) -> np.ndarray:
    """(batch, heads, seq, dim) -> (batch, heads, n_blocks, block, dim)."""
    batch, heads, seq, dim = x.shape
    n_blocks = seq // block_size
    return x.reshape(batch, heads, n_blocks, block_size, dim)


def _stage_blocks(x: np.ndarray, block_size: int, alloc):
    """View ``(batch, heads, seq, dim)`` as ``(batch, heads*n_blocks, bs, dim)``.

    Contiguous inputs are a free view; a head-transposed input would copy
    inside ``reshape``, so it is staged into an ``alloc`` buffer instead.
    Returns the block view and the ``(buffer, source)`` copy that refreshes
    it, ``None`` for a plain view.
    """
    batch, heads, seq, dim = x.shape
    shape = (batch, heads * (seq // block_size), block_size, dim)
    if x.flags["C_CONTIGUOUS"]:
        return x.reshape(shape), None
    buf = alloc(shape, x.dtype)
    return buf, (buf.reshape(x.shape), x)


def _flat_blocks(x: np.ndarray, block_size: int) -> np.ndarray:
    """Pad and stage ``x`` now, any copy landing in a recycled arena buffer."""
    flat, fill = _stage_blocks(_pad_to_blocks(x, block_size, axis=2),
                               block_size, _arena.empty)
    if fill is not None:
        np.copyto(*fill)
    return flat


def _scatter_to_cols(contrib: np.ndarray, order: np.ndarray,
                     geom: BlockGeometry) -> np.ndarray:
    """Accumulate per-block dK/dV contributions onto their (head, col) blocks.

    ``order`` maps each (head, col)-sorted block to its position in
    ``contrib``; the sorted stack is summed per column with one contiguous
    segmented reduce, and ``col_source`` places the sums (and a trailing
    zero block for uncovered columns).  Returns
    ``(batch, heads, n_blocks * bs, dim)``.
    """
    batch, _, bs, dim = contrib.shape
    layout = geom.layout
    contrib_sorted = np.take(contrib, order, axis=1, mode="clip",
                             out=_arena.empty(contrib.shape, contrib.dtype))
    n_cols = geom.col_starts.shape[0]
    seg = _arena.empty((batch, n_cols + 1, bs, dim), contrib.dtype)
    _segment_sum(contrib_sorted, geom.col_starts, seg)
    seg[:, n_cols] = 0.0
    out = np.take(seg, geom.col_source, axis=1, mode="clip",
                  out=_arena.empty((batch, layout.n_heads * layout.n_blocks,
                                    bs, dim), contrib.dtype))
    _arena.release(contrib_sorted, seg)
    return out.reshape(batch, layout.n_heads, layout.n_blocks * bs, dim)


# ---------------------------------------------------------------------------
# standalone SDD / DSD kernels (numpy level, used by the operator benchmarks)
# ---------------------------------------------------------------------------

@dataclass
class BlockSparseMatrix:
    """Blocks of a sparse (batch, heads, seq, seq) matrix plus their layout."""

    data: np.ndarray            # (batch, nnz, block, block)
    layout: MultiHeadLayout
    seq_len: int

    def to_dense(self) -> np.ndarray:
        """Materialise the dense (batch, heads, seq, seq) matrix (tests only)."""
        bs = self.layout.block_size
        batch = self.data.shape[0]
        full = self.layout.n_blocks * bs
        dense = np.zeros((batch, self.layout.n_heads, full, full), dtype=self.data.dtype)
        for idx, (h, r, c) in enumerate(zip(self.layout.heads, self.layout.rows,
                                            self.layout.cols)):
            dense[:, h, r * bs:(r + 1) * bs, c * bs:(c + 1) * bs] = self.data[:, idx]
        return dense[:, :, :self.seq_len, :self.seq_len]


def block_sparse_sdd(q: np.ndarray, k: np.ndarray, layout: MultiHeadLayout,
                     scale: float = 1.0) -> BlockSparseMatrix:
    """Compute only the active blocks of ``Q @ K^T`` (SDD kernel).

    ``q``/``k`` have shape ``(batch, heads, seq, dim)``; the result holds the
    ``(batch, nnz, block, block)`` stack of active score blocks.
    """
    bs = layout.block_size
    seq_len = q.shape[2]
    q_pad = _blockify(_pad_to_blocks(q, bs, axis=2), bs)
    k_pad = _blockify(_pad_to_blocks(k, bs, axis=2), bs)
    q_blk = q_pad[:, layout.heads, layout.rows]                 # (batch, nnz, bs, dim)
    k_blk = k_pad[:, layout.heads, layout.cols]
    scores = np.matmul(q_blk, np.swapaxes(k_blk, -1, -2)) * scale
    return BlockSparseMatrix(data=scores, layout=layout, seq_len=seq_len)


def block_sparse_dsd(blocks: BlockSparseMatrix, v: np.ndarray) -> np.ndarray:
    """Multiply sparse probability blocks with dense ``V`` (DSD kernel).

    Returns the dense context of shape ``(batch, heads, seq, dim)``.
    """
    layout = blocks.layout
    bs = layout.block_size
    batch, _, seq_len, dim = v.shape
    v_pad = _blockify(_pad_to_blocks(v, bs, axis=2), bs)
    v_blk = v_pad[:, layout.heads, layout.cols]                 # (batch, nnz, bs, dim)
    ctx_blk = np.matmul(blocks.data, v_blk)                     # (batch, nnz, bs, dim)

    starts = layout.row_segment_starts
    _, seg_heads, seg_rows = segment_geometry(layout)
    ctx_seg = np.add.reduceat(ctx_blk, starts, axis=1)          # (batch, nseg, bs, dim)
    out = np.zeros((batch, layout.n_heads, layout.n_blocks, bs, dim), dtype=v.dtype)
    out[:, seg_heads, seg_rows] = ctx_seg
    return out.reshape(batch, layout.n_heads, layout.n_blocks * bs, dim)[:, :, :seq_len]


def dense_attention_reference(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                              mask: Optional[np.ndarray] = None,
                              scale: Optional[float] = None) -> np.ndarray:
    """Plain dense softmax attention used as the comparison baseline."""
    scale = float(scale) if scale is not None else float(1.0 / np.sqrt(q.shape[-1]))
    scores = np.matmul(q, np.swapaxes(k, -1, -2)) * scale
    if mask is not None:
        scores = np.where(mask, scores, _NEG_INF)
    scores = scores - scores.max(axis=-1, keepdims=True)
    probs = np.exp(scores)
    if mask is not None:
        probs = probs * mask
    denom = probs.sum(axis=-1, keepdims=True)
    probs = probs / _fused.guard_zero_rows(denom)
    return np.matmul(probs, v)


# ---------------------------------------------------------------------------
# fused block-sparse attention (autograd op used during fine-tuning)
# ---------------------------------------------------------------------------

class _Panels:
    """Forward buffers of the row-panel kernel and their per-group views.

    ``alloc`` is ``np.empty`` for plan-owned buffers (recorded branch) or
    the arena's ``empty`` (interpreted branch).  One flat score buffer holds
    every group's ``(batch, n_segs, bs, l*bs)`` panel contiguously; it
    leaves the forward as the *unnormalised* ``exp(s - rowmax)`` stack and
    ``red`` as its row sums, which is all the backward reads.  The context
    carries one trailing zero row for the uncovered (head, row) slots
    ``row_source`` points at.
    """

    def __init__(self, geom: BlockGeometry, batch: int, head_dim: int,
                 dtype, alloc):
        bs = geom.layout.block_size
        nseg, nnz = geom.q_gather.shape[0], geom.kv_gather.shape[0]
        self.geom = geom
        self.qs = alloc((batch, nseg, bs, head_dim), dtype)
        self.kp = alloc((batch, nnz, bs, head_dim), dtype)
        self.vp = alloc((batch, nnz, bs, head_dim), dtype)
        self.scores = alloc((batch * nnz * bs * bs,), dtype)
        self.red = alloc((batch, nseg, bs), dtype)
        self.zero_rows = alloc((batch, nseg, bs), bool)
        self.ctx = alloc((batch, nseg + 1, bs, head_dim), dtype)
        self.groups = []
        self.max_panel = 0          # largest group's score-panel size
        for g in geom.groups:
            n_segs, width = g.segs.stop - g.segs.start, g.length * bs
            offset = batch * g.blocks.start * bs * bs
            size = batch * n_segs * bs * width
            self.max_panel = max(self.max_panel, size)
            probs = self.scores[offset:offset + size]
            self.groups.append((
                g, self.qs[:, g.segs], _panel(self.kp, g, bs),
                _panel(self.vp, g, bs),
                probs.reshape(batch, n_segs, bs, width),
                self.red[:, g.segs], self.zero_rows[:, g.segs],
                self.ctx[:, g.segs]))


def _panel(stack: np.ndarray, group, bs: int) -> np.ndarray:
    """A group's panel-ordered blocks as ``(batch, n_segs, l*bs, dim)`` rows.

    The reshape only splits and merges the contiguous block axes of a
    C-contiguous stack, so it is always a view (matmuls write through it).
    """
    batch, _, _, dim = stack.shape
    n_segs = group.segs.stop - group.segs.start
    return stack[:, group.blocks].reshape(batch, n_segs, group.length * bs, dim)


def _panel_forward(p: _Panels, scale: float, q_flat: np.ndarray,
                   k_flat: np.ndarray, v_flat: np.ndarray,
                   out_flat: np.ndarray) -> None:
    """Row-panel SDD -> softmax -> DSD over the ``p`` buffers.

    Shared verbatim by the recorded thunk and the interpreted path (bitwise
    capture parity).  The softmax scale is folded into the gathered Q
    blocks and the normalisation into the context rows (``E @ V / rowsum``
    instead of a divide over the score panel); masks are applied only to
    each group's leading partly-masked strip, and the post-exp re-zeroing
    plus the zero-sum guard run only for groups with a query row that has
    no valid key.
    """
    geom = p.geom
    np.take(q_flat, geom.q_gather, axis=1, mode="clip", out=p.qs)
    p.qs *= scale
    np.take(k_flat, geom.kv_gather, axis=1, mode="clip", out=p.kp)
    np.take(v_flat, geom.kv_gather, axis=1, mode="clip", out=p.vp)
    for g, q, k, v, s, red, zero_rows, ctx in p.groups:
        np.matmul(q, np.swapaxes(k, -1, -2), out=s)
        if g.neg_mask is not None:
            strip = s[..., :g.neg_mask.shape[-1]]
            np.copyto(strip, _NEG_INF, where=g.neg_mask)
        # Row max: fmax skips the NaN check that makes max ~1.3x slower.
        np.fmax.reduce(s, axis=-1, out=red)
        s -= red[..., None]
        np.exp(s, out=s)
        if g.empty_rows:              # every slot of such a row is in the strip
            np.copyto(strip, 0.0, where=g.neg_mask)
        s.sum(axis=-1, out=red)
        if g.empty_rows:
            _fused.guard_zero_rows(red, scratch=zero_rows)
        np.matmul(s, v, out=ctx)
        ctx /= red[..., None]
    p.ctx[:, -1] = 0.0
    np.take(p.ctx, geom.row_source, axis=1, mode="clip", out=out_flat)


def block_sparse_attention(q: Tensor, k: Tensor, v: Tensor, layout: MultiHeadLayout,
                           scale: Optional[float] = None,
                           cache: Optional[LayoutGeometryCache] = None,
                           streaming: Optional[bool] = None) -> Tensor:
    """Fused block-sparse ``softmax(QK^T) V`` with a block-sparse backward.

    Parameters
    ----------
    q, k, v:
        Tensors of shape ``(batch, heads, seq, head_dim)``.
    layout:
        Active blocks per head, produced by the layout pool (predicted
        patterns) or from exposer masks (oracle mode).
    scale:
        Score scaling; defaults to ``1/sqrt(head_dim)``.
    cache:
        Optional :class:`~repro.sparsity.ops.geometry_cache.LayoutGeometryCache`.
        When given, the derived index geometry (row panels, element masks,
        the column-sorted backward permutation) is looked up instead of
        recomputed — repeated layouts across fine-tuning steps then pay zero
        index-construction cost.  Results are identical either way.
    streaming:
        Route through :func:`streaming_block_sparse_attention` (score
        scratch proportional to the number of query-row segments instead of
        the number of active blocks).  ``None`` follows the global
        :func:`repro.tensor.fused.streaming_attention_enabled` switch.

    The softmax normalises over the *union of active blocks in each query
    row*, with causal masking inside diagonal blocks.  The backward pass
    computes gradients for Q, K and V only through the active blocks, so both
    compute and gradient work scale with ``layout.nnz`` rather than with the
    full ``seq²`` score matrix.

    The whole SDD -> softmax -> DSD chain is one tape node over the row
    panels (module docstring).  The forward keeps one score-sized buffer,
    the unnormalised exponentials; the backward uses the
    ``rowsum(dOut * Out)`` softmax delta, so dQ needs no reduction across
    blocks and that buffer is its only score-sized input.  With
    :func:`repro.tensor.fused.set_fused_kernels` disabled the call routes to
    the primitive-composition twin
    :func:`repro.tensor.reference.block_sparse_attention` instead, so the
    sparse path participates in the same fused/taped A-B switch as the dense
    kernels.
    """
    bs = layout.block_size
    batch, n_heads, seq_len, head_dim = q.shape
    if n_heads != layout.n_heads:
        raise ValueError(f"layout has {layout.n_heads} heads, tensors have {n_heads}")

    if not _fused.fused_kernels_enabled():
        return _reference.block_sparse_attention(q, k, v, layout, scale=scale)
    if streaming is None:
        streaming = _fused.streaming_attention_enabled()
    if streaming:
        return streaming_block_sparse_attention(q, k, v, layout, scale=scale,
                                                cache=cache)

    scale = float(scale) if scale is not None else float(1.0 / np.sqrt(head_dim))
    dtype = q.data.dtype
    geom = (cache.lookup(layout, seq_len) if cache is not None
            else compute_block_geometry(layout, seq_len))
    n_blocks = layout.n_blocks
    flat_shape = (batch, n_heads * n_blocks, bs, head_dim)

    rec = _plan._RECORDER
    if rec is not None and seq_len % bs != 0:
        # Padding allocates per call; no stable replay form — run interpreted.
        rec.fail("block-sparse attention over a padded sequence")
        rec = None
    if rec is not None:
        # Recorded form: the panel chain over plan-owned buffers (the arena
        # must never reclaim plan state), replayed as one entry.
        staged = [_stage_blocks(x.data, bs, np.empty) for x in (q, k, v)]
        copies = tuple(fill for _, fill in staged if fill is not None)
        (q_flat, _), (k_flat, _), (v_flat, _) = staged
        p = _Panels(geom, batch, head_dim, dtype, np.empty)
        out_flat = np.empty(flat_shape, dtype)

        def run():
            for fill in copies:
                np.copyto(*fill)
            _panel_forward(p, scale, q_flat, k_flat, v_flat, out_flat)

        run()
        rec.record(run, tag="block_sparse_attention")
    else:
        q_flat, k_flat, v_flat = (_flat_blocks(x.data, bs) for x in (q, k, v))
        p = _Panels(geom, batch, head_dim, dtype, _arena.empty)
        out_flat = _arena.empty(flat_shape, dtype)
        _panel_forward(p, scale, q_flat, k_flat, v_flat, out_flat)
        _arena.release(q_flat, k_flat, v_flat, p.zero_rows)
    padded = (batch, n_heads, n_blocks * bs, head_dim)
    out = out_flat.reshape(padded)[:, :, :seq_len]

    def backward(grad_out: np.ndarray):
        dout_flat = _flat_blocks(grad_out, bs)
        dout = np.take(dout_flat, geom.q_gather, axis=1, mode="clip",
                       out=_arena.empty(p.qs.shape, dtype))
        _arena.release(dout_flat)
        # With P = E / rowsum: dV = E^T dOut' and dS = E * (dOut' V^T - delta')
        # for dOut' = dOut / rowsum and delta' = rowsum(dOut' * Out).
        dout /= p.red[..., None]
        delta = np.einsum("...ij,...ij->...i", dout, p.ctx[:, :-1],
                          out=_arena.empty(p.red.shape, dtype))
        dk_stack = _arena.empty(p.kp.shape, dtype)
        dv_stack = _arena.empty(p.kp.shape, dtype)
        dq_rows = _arena.empty(p.ctx.shape, dtype)
        dp_buf = _arena.empty((p.max_panel,), dtype)
        for g, q_g, k_g, v_g, s, _, _, _ in p.groups:
            dout_g = dout[:, g.segs]
            np.matmul(np.swapaxes(s, -1, -2), dout_g,
                      out=_panel(dv_stack, g, bs))
            # dS = E * (dP' - delta'), in the dP scratch.
            dp = dp_buf[:s.size].reshape(s.shape)
            np.matmul(dout_g, np.swapaxes(v_g, -1, -2), out=dp)
            dp -= delta[:, g.segs, :, None]
            dp *= s
            np.matmul(dp, k_g, out=dq_rows[:, g.segs])
            # q_g carries the scale already: dK = dS^T (scale * Q).
            np.matmul(np.swapaxes(dp, -1, -2), q_g,
                      out=_panel(dk_stack, g, bs))
        _arena.release(dout, delta, dp_buf)
        dq_rows[:, -1] = 0.0
        dq_rows *= scale
        dq = np.take(dq_rows, geom.row_source, axis=1, mode="clip",
                     out=_arena.empty(flat_shape, dtype))
        dk = _scatter_to_cols(dk_stack, geom.col_order, geom)
        dv = _scatter_to_cols(dv_stack, geom.col_order, geom)
        # The forward buffers are dead once the three gradients exist;
        # recycling them lets the next layer's backward reuse them.  In the
        # recorded branch they are plan-owned and release ignores them.
        _arena.release(dq_rows, dk_stack, dv_stack, p.qs, p.kp, p.vp,
                       p.scores, p.red, p.ctx)
        return (dq.reshape(padded)[:, :, :seq_len], dk[:, :, :seq_len],
                dv[:, :, :seq_len])

    return custom_op(out, (q, k, v), backward)


# ---------------------------------------------------------------------------
# streaming block-sparse attention (prefix-scheduled online softmax)
# ---------------------------------------------------------------------------

def _stream_bs_forward(q_seg, k_stream, v_stream, neg_mask, mask_f32, scale,
                       rounds, s_buf, red, corr, m_buf, lse, zero_rows, pv,
                       acc, out5, out5_flat, seg_heads, seg_rows,
                       row_uncovered):
    """Online-softmax sweep over the stream-ordered active blocks.

    Round ``j`` processes the j-th active block of every live segment; the
    descending-length stream order makes the live set a prefix, so all state
    updates are prefix-slice operations on the ``(batch, nseg, ...)``
    buffers.  Shared verbatim by the recorded thunk and the interpreted path
    (bitwise capture parity).  After the sweep ``lse`` holds the per-row
    logsumexp for the recompute backward and ``acc`` the normalised
    per-segment context blocks.
    """
    m_buf.fill(-np.inf)
    lse.fill(0.0)
    acc.fill(0.0)
    for p, o0, o1 in rounds:
        s = s_buf[:, :p]
        np.matmul(q_seg[:, :p], np.swapaxes(k_stream[:, o0:o1], -1, -2),
                  out=s)
        s *= scale
        np.copyto(s, _NEG_INF, where=neg_mask[None, o0:o1])
        s.max(axis=-1, out=red[:, :p])
        np.maximum(m_buf[:, :p], red[:, :p], out=red[:, :p])
        np.subtract(m_buf[:, :p], red[:, :p], out=corr[:, :p])
        np.exp(corr[:, :p], out=corr[:, :p])
        np.copyto(m_buf[:, :p], red[:, :p])
        s -= m_buf[:, :p, :, None]
        np.exp(s, out=s)
        np.multiply(s, mask_f32[None, o0:o1], out=s)
        lse[:, :p] *= corr[:, :p]
        s.sum(axis=-1, out=red[:, :p])
        lse[:, :p] += red[:, :p]
        acc[:, :p] *= corr[:, :p, :, None]
        np.matmul(s, v_stream[:, o0:o1], out=pv[:, :p])
        acc[:, :p] += pv[:, :p]
    _fused.guard_zero_rows(lse, scratch=zero_rows)
    acc /= lse[..., None]
    np.log(lse, out=lse)
    lse += m_buf
    out5[:, seg_heads, seg_rows] = acc
    if row_uncovered.size:
        out5_flat[:, row_uncovered] = 0.0


def streaming_block_sparse_attention(q: Tensor, k: Tensor, v: Tensor,
                                     layout: MultiHeadLayout,
                                     scale: Optional[float] = None,
                                     cache: Optional[LayoutGeometryCache] = None
                                     ) -> Tensor:
    """Streaming twin of :func:`block_sparse_attention`.

    Identical math (union-of-active-blocks softmax, causal element masking,
    :func:`repro.tensor.fused.guard_zero_rows` for zero-active-block rows)
    but the score workspace is ``(batch, n_segments, block, block)`` instead
    of ``(batch, nnz, block, block)``: the kernel walks each query-row
    segment's active blocks one round at a time with online max/sum
    rescaling (the :class:`~repro.sparsity.ops.geometry_cache.StreamGeometry`
    prefix schedule), and the recompute backward re-streams the same rounds
    with the saved per-row logsumexp, writing each block's dK/dV
    contribution exactly once into a stream-ordered stack that the existing
    column-sorted segmented reduce then accumulates.  Results differ from
    the materializing kernel only by accumulation order.
    """
    bs = layout.block_size
    batch, n_heads, seq_len, head_dim = q.shape
    if n_heads != layout.n_heads:
        raise ValueError(f"layout has {layout.n_heads} heads, tensors have {n_heads}")
    if not _fused.fused_kernels_enabled():
        return _reference.block_sparse_attention(q, k, v, layout, scale=scale)

    scale = float(scale) if scale is not None else float(1.0 / np.sqrt(head_dim))
    dtype = q.data.dtype
    geom = (cache.lookup(layout, seq_len) if cache is not None
            else compute_block_geometry(layout, seq_len))
    st = geom.stream
    nnz = layout.nnz
    n_blocks = layout.n_blocks
    nseg = st.order.shape[0]
    padded_len = n_blocks * bs
    rounds = tuple((int(c), int(st.offsets[i]), int(st.offsets[i + 1]))
                   for i, c in enumerate(st.counts))
    neg_mask, mask_f32 = st.neg_mask, st.mask_f32
    q_gather, kv_gather = st.q_gather, st.kv_gather
    seg_heads, seg_rows = st.seg_heads, st.seg_rows
    row_uncovered = st.row_uncovered
    out_shape5 = (batch, n_heads, n_blocks, bs, head_dim)

    rec = _plan._RECORDER
    if rec is not None and seq_len % bs != 0:
        rec.fail("streaming block-sparse attention over a padded sequence")
        rec = None
    if rec is not None:
        staged = [_stage_blocks(x.data, bs, np.empty) for x in (q, k, v)]
        copies = tuple(fill for _, fill in staged if fill is not None)
        (q_flat, _), (k_flat, _), (v_flat, _) = staged
        q_seg = np.empty((batch, nseg, bs, head_dim), dtype)
        k_stream = np.empty((batch, nnz, bs, head_dim), dtype)
        v_stream = np.empty((batch, nnz, bs, head_dim), dtype)
        s_buf = np.empty((batch, nseg, bs, bs), dtype)
        red = np.empty((batch, nseg, bs), dtype)
        corr = np.empty((batch, nseg, bs), dtype)
        m_buf = np.empty((batch, nseg, bs), dtype)
        lse = np.empty((batch, nseg, bs), dtype)
        zero_rows = np.empty((batch, nseg, bs), bool)
        pv = np.empty((batch, nseg, bs, head_dim), dtype)
        acc = np.empty((batch, nseg, bs, head_dim), dtype)
        out5 = np.empty(out_shape5, dtype)
        out5_flat = out5.reshape(batch, n_heads * n_blocks, bs, head_dim)

        def run():
            for fill in copies:
                np.copyto(*fill)
            np.take(q_flat, q_gather, axis=1, mode="clip", out=q_seg)
            np.take(k_flat, kv_gather, axis=1, mode="clip", out=k_stream)
            np.take(v_flat, kv_gather, axis=1, mode="clip", out=v_stream)
            _stream_bs_forward(q_seg, k_stream, v_stream, neg_mask, mask_f32,
                               scale, rounds, s_buf, red, corr, m_buf, lse,
                               zero_rows, pv, acc, out5, out5_flat,
                               seg_heads, seg_rows, row_uncovered)

        run()
        rec.record(run, tag="streaming_block_sparse_attention")
        out = out5.reshape(batch, n_heads, padded_len, head_dim)[:, :, :seq_len]
    else:
        q_flat, k_flat, v_flat = (_flat_blocks(x.data, bs) for x in (q, k, v))
        q_seg = np.take(q_flat, q_gather, axis=1, mode="clip",
                        out=_arena.empty((batch, nseg, bs, head_dim), dtype))
        k_stream = np.take(k_flat, kv_gather, axis=1, mode="clip",
                           out=_arena.empty((batch, nnz, bs, head_dim), dtype))
        v_stream = np.take(v_flat, kv_gather, axis=1, mode="clip",
                           out=_arena.empty((batch, nnz, bs, head_dim), dtype))
        _arena.release(q_flat, k_flat, v_flat)
        s_buf = _arena.empty((batch, nseg, bs, bs), dtype)
        red = _arena.empty((batch, nseg, bs), dtype)
        corr = _arena.empty((batch, nseg, bs), dtype)
        m_buf = _arena.empty((batch, nseg, bs), dtype)
        lse = _arena.empty((batch, nseg, bs), dtype)
        zero_rows = _arena.empty((batch, nseg, bs), bool)
        pv = _arena.empty((batch, nseg, bs, head_dim), dtype)
        acc = _arena.empty((batch, nseg, bs, head_dim), dtype)
        out5 = _arena.empty(out_shape5, dtype)
        out5_flat = out5.reshape(batch, n_heads * n_blocks, bs, head_dim)
        _stream_bs_forward(q_seg, k_stream, v_stream, neg_mask, mask_f32,
                           scale, rounds, s_buf, red, corr, m_buf, lse,
                           zero_rows, pv, acc, out5, out5_flat,
                           seg_heads, seg_rows, row_uncovered)
        # q_seg/k_stream/v_stream/acc/lse survive for the recompute backward.
        _arena.release(s_buf, red, corr, m_buf, zero_rows, pv)
        out = out5.reshape(batch, n_heads, padded_len, head_dim)[:, :, :seq_len]

    def backward(grad_out: np.ndarray):
        dout_flat = _flat_blocks(grad_out, bs)
        dout_seg = np.take(dout_flat, q_gather, axis=1, mode="clip",
                           out=_arena.empty((batch, nseg, bs, head_dim),
                                            dtype))
        _arena.release(dout_flat)

        # delta = rowsum(dOut * Out) per segment row (acc holds the
        # normalised per-segment output blocks).
        tmp = np.multiply(dout_seg, acc,
                          out=_arena.empty((batch, nseg, bs, head_dim), dtype))
        delta = tmp.sum(axis=-1,
                        out=_arena.empty((batch, nseg, bs), dtype))
        _arena.release(tmp)

        sb = _arena.empty((batch, nseg, bs, bs), dtype)
        dpb = _arena.empty((batch, nseg, bs, bs), dtype)
        dv_stack = _arena.empty((batch, nnz, bs, head_dim), dtype)
        dk_stack = _arena.empty((batch, nnz, bs, head_dim), dtype)
        dq_scratch = _arena.empty((batch, nseg, bs, head_dim), dtype)
        dq_acc = _arena.zeros((batch, nseg, bs, head_dim), np.float32)
        for p, o0, o1 in rounds:
            s = sb[:, :p]
            # Probability tile from the saved logsumexp — same masked-fill /
            # exp / re-mask sequence as the forward, minus the running max.
            np.matmul(q_seg[:, :p], np.swapaxes(k_stream[:, o0:o1], -1, -2),
                      out=s)
            s *= scale
            np.copyto(s, _NEG_INF, where=neg_mask[None, o0:o1])
            s -= lse[:, :p, :, None]
            np.exp(s, out=s)
            np.multiply(s, mask_f32[None, o0:o1], out=s)
            np.matmul(np.swapaxes(s, -1, -2), dout_seg[:, :p],
                      out=dv_stack[:, o0:o1])
            dp = dpb[:, :p]
            np.matmul(dout_seg[:, :p],
                      np.swapaxes(v_stream[:, o0:o1], -1, -2), out=dp)
            dp -= delta[:, :p, :, None]
            dp *= s
            dp *= scale
            np.matmul(dp, k_stream[:, o0:o1], out=dq_scratch[:, :p])
            dq_acc[:, :p] += dq_scratch[:, :p]
            np.matmul(np.swapaxes(dp, -1, -2), q_seg[:, :p],
                      out=dk_stack[:, o0:o1])
        _arena.release(sb, dpb, dq_scratch, dout_seg, delta)

        dv = _scatter_to_cols(dv_stack, st.col_order, geom)
        _arena.release(dv_stack)
        dk = _scatter_to_cols(dk_stack, st.col_order, geom)
        _arena.release(dk_stack)

        dq5 = _arena.empty(out_shape5, np.float32)
        dq5[:, seg_heads, seg_rows] = dq_acc
        if row_uncovered.size:
            dq5.reshape(batch, n_heads * n_blocks, bs, head_dim)[
                :, row_uncovered] = 0.0
        # acc/lse and the gathered streams are plan-owned in the recorded
        # branch (release ignores them there) and arena buffers otherwise.
        _arena.release(dq_acc, q_seg, k_stream, v_stream, acc, lse)
        dq = dq5.reshape(batch, n_heads, padded_len, head_dim)
        return (dq[:, :, :seq_len], dk[:, :, :seq_len], dv[:, :, :seq_len])

    return custom_op(out, (q, k, v), backward)
