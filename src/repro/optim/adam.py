"""Adam and AdamW optimizers with flattened single-buffer state.

Adam keeps two FP32 moment buffers per trainable parameter; this is exactly
the optimizer state whose elimination for frozen parameters gives PEFT its
optimizer-step savings (Table I) and part of its memory savings (Figure 8).

Since the flattening pass, the moment buffers of all parameters live in
*one* contiguous ``m`` and one contiguous ``v`` array, with per-parameter
views exposed through :attr:`Adam._m` / :attr:`Adam._v` for introspection.
:meth:`Adam.step` gathers the gradients into a matching flat buffer and runs
the entire elementwise update — moment EMAs, bias correction, the final
``lr * m_hat / (sqrt(v_hat) + eps)`` — as a handful of whole-buffer NumPy
calls instead of a Python loop over parameters.  The flat arithmetic is
ordered exactly like the per-parameter loop, so both paths produce bitwise
identical trajectories (asserted by the optimizer equivalence tests); the
loop path remains for steps where some parameters have no gradient (e.g.
unused adapters) and for mixed-dtype parameter sets.

The flat layout is chosen only when it actually wins: profiling shows the
whole-buffer update beats the loop when parameters are *small and numerous*
(BitFit biases, prompt embeddings, low-rank adapter factors — the PEFT
regime this repo centres on, measured ~3x), because there the per-parameter
NumPy call overhead dominates.  For large matrices (full fine-tuning) the
loop's per-parameter working set stays cache-resident while flat buffers
stream through memory, so parameter sets whose mean size exceeds
:data:`FLAT_MEAN_SIZE_THRESHOLD` elements keep per-parameter state and the
loop path.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from repro.nn.module import Parameter
from repro.optim.base import Optimizer

# Mean parameter size (elements) above which the per-parameter loop path is
# kept: small-and-many parameters are call-overhead-bound (flat wins ~3x),
# big matrices are memory-bound (the loop's cache-resident chunks win).
FLAT_MEAN_SIZE_THRESHOLD = 4096


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) over the provided (trainable) parameters."""

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3,
                 betas=(0.9, 0.999), eps: float = 1e-8, weight_decay: float = 0.0):
        super().__init__(params, lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self.weight_decay = weight_decay

        dtypes = {p.data.dtype for p in self.params}
        sizes = [int(p.data.size) for p in self.params]
        self._flat_m: Optional[np.ndarray] = None
        # Loop-path scratch (lazily sized per dtype); also needed by flat
        # layouts, whose step() falls back to the loop when a parameter has
        # no gradient.
        self._loop_scratch = {}
        flatten = (len(dtypes) == 1
                   and sum(sizes) / len(sizes) <= FLAT_MEAN_SIZE_THRESHOLD)
        if flatten:
            dtype = dtypes.pop()
            offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
            total = int(offsets[-1])
            # One contiguous buffer per state array, plus exactly two
            # param-population-sized scratch buffers: the gathered gradient
            # (which the update is later written into, once the moment EMAs
            # have consumed it) and one temporary for the EMA/denominator
            # products.  ``state_size_bytes`` reports m+v only, matching the
            # loop path and the analytic memory model.
            self._flat_m = np.zeros(total, dtype=dtype)
            self._flat_v = np.zeros(total, dtype=dtype)
            self._flat_grad = np.empty(total, dtype=dtype)
            self._flat_tmp = np.empty(total, dtype=dtype)

            def views(flat: np.ndarray) -> List[np.ndarray]:
                return [flat[offsets[i]:offsets[i + 1]].reshape(p.data.shape)
                        for i, p in enumerate(self.params)]

            self._m = views(self._flat_m)
            self._v = views(self._flat_v)
            self._grad_views = views(self._flat_grad)
        else:  # mixed dtypes or big-matrix regime: per-parameter buffers
            self._m = [np.zeros_like(p.data) for p in self.params]
            self._v = [np.zeros_like(p.data) for p in self.params]

    def _scratch_views(self, shape, dtype):
        """Two reusable max-parameter-sized scratch views of ``shape``.

        They keep the loop path allocation-free: the seed's expression form
        (``m_hat = m / bias1`` etc.) heap-allocated several parameter-sized
        temporaries per parameter per step, which is what the tracemalloc
        steadiness gate flags on replayed steps.
        """
        pair = self._loop_scratch.get(dtype.str)
        if pair is None:
            size = max(int(p.data.size) for p in self.params
                       if p.data.dtype == dtype)
            pair = (np.empty(size, dtype), np.empty(size, dtype))
            self._loop_scratch[dtype.str] = pair
        n = int(np.prod(shape, dtype=np.int64))
        return pair[0][:n].reshape(shape), pair[1][:n].reshape(shape)

    def _apply_weight_decay(self, param: Parameter, grad: np.ndarray) -> np.ndarray:
        if self.weight_decay:
            return grad + self.weight_decay * param.data
        return grad

    def _apply_weight_decay_flat(self) -> None:
        """Fold L2 decay into the gathered flat gradient (coupled Adam form)."""
        if self.weight_decay:
            for param, gview in zip(self.params, self._grad_views):
                gview += self.weight_decay * param.data

    def _step_param(self, index: int, param: Parameter,
                    bias1: float, bias2: float) -> None:
        """Per-parameter update (fallback path; allocation-free).

        Every elementwise op matches the original expression form
        one-for-one (scalar multiplies commuted where needed — IEEE float
        multiplication is bitwise commutative), so trajectories are bitwise
        identical to the seed's temporaries-allocating version.
        """
        t1, t2 = self._scratch_views(param.data.shape, param.data.dtype)
        grad = param.grad
        if self.weight_decay and type(self) is Adam:
            # grad + weight_decay * param.data, into scratch (commuted add).
            np.multiply(param.data, self.weight_decay, out=t2)
            t2 += grad
            grad = t2
        else:
            grad = self._apply_weight_decay(param, grad)
        m = self._m[index]
        v = self._v[index]
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=t1)
        m += t1
        v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=t1)
        t1 *= grad
        v += t1                                # grad (and t2) dead from here
        np.divide(v, bias2, out=t2)            # v_hat
        np.sqrt(t2, out=t2)
        t2 += self.eps
        np.divide(m, bias1, out=t1)            # m_hat
        t1 *= self.lr
        t1 /= t2
        param.data -= t1

    def _step_flat(self, bias1: float, bias2: float) -> None:
        """Whole-buffer update; arithmetic ordered exactly like the loop."""
        for param, gview in zip(self.params, self._grad_views):
            np.copyto(gview, param.grad)
        self._apply_weight_decay_flat()
        m, v = self._flat_m, self._flat_v
        g, tmp = self._flat_grad, self._flat_tmp
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=tmp)
        m += tmp
        v *= self.beta2
        np.multiply(g, 1.0 - self.beta2, out=tmp)
        tmp *= g
        v += tmp
        # The gradient buffer is dead from here on; reuse it for the update.
        np.divide(v, bias2, out=tmp)          # v_hat
        np.sqrt(tmp, out=tmp)
        tmp += self.eps
        np.divide(m, bias1, out=g)            # m_hat
        g *= self.lr
        g /= tmp
        for param, gview in zip(self.params, self._grad_views):
            param.data -= gview

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - self.beta1 ** t
        bias2 = 1.0 - self.beta2 ** t
        if self._flat_m is not None and all(p.grad is not None for p in self.params):
            self._step_flat(bias1, bias2)
            return
        for index, param in enumerate(self.params):
            if param.grad is None:
                continue
            self._step_param(index, param, bias1, bias2)

    # -- flat gradient access (data-parallel exchange) --------------------------
    #
    # The distributed trainer exchanges gradients as ONE contiguous buffer per
    # step (see repro.runtime.comms.GradientAllReducer) — the flat layout this
    # optimizer already maintains for its own update is exactly the transport
    # format, so the gather/scatter below reuse the flat-path offsets when
    # they exist and derive the same layout otherwise (big-matrix regimes keep
    # per-parameter moment state but still exchange through one buffer).

    def _grad_offsets(self) -> np.ndarray:
        offsets = getattr(self, "_grad_offset_cache", None)
        if offsets is None:
            sizes = [int(p.data.size) for p in self.params]
            offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
            self._grad_offset_cache = offsets
        return offsets

    def grad_layout(self):
        """``(total_elements, dtype)`` of the flat gradient population.

        Raises ``ValueError`` for mixed-dtype parameter sets: the shared
        gradient segment is a single typed buffer.
        """
        dtypes = {p.data.dtype for p in self.params}
        if len(dtypes) != 1:
            raise ValueError("data-parallel gradient exchange requires a "
                             f"uniform parameter dtype, got {sorted(map(str, dtypes))}")
        return int(self._grad_offsets()[-1]), dtypes.pop()

    def gather_flat_grad(self, out: np.ndarray) -> None:
        """Copy every ``param.grad`` into the flat buffer ``out`` in place.

        Parameters without a gradient contribute zeros (their reduced mean is
        then exactly the mean of the ranks that did produce one, scaled by
        the participating fraction — in practice every trainable parameter
        receives a gradient each step).
        """
        offsets = self._grad_offsets()
        flat = out.reshape(-1)
        for index, param in enumerate(self.params):
            view = flat[offsets[index]:offsets[index + 1]]
            if param.grad is None:
                view[:] = 0
            else:
                np.copyto(view.reshape(param.data.shape), param.grad)

    def scatter_flat_grad(self, flat: np.ndarray) -> None:
        """Copy the flat buffer back into every ``param.grad``, in place.

        In-place (``np.copyto``) so captured/compiled steps keep their
        recorded gradient buffers; a parameter whose gradient is missing gets
        a fresh array.
        """
        offsets = self._grad_offsets()
        flat = flat.reshape(-1)
        for index, param in enumerate(self.params):
            view = flat[offsets[index]:offsets[index + 1]].reshape(param.data.shape)
            if param.grad is None:
                param.grad = view.copy()
            else:
                np.copyto(param.grad, view)

    # -- detachable per-tenant state (serving) ---------------------------------
    #
    # The multi-tenant service pages whole optimizer states in and out as it
    # switches adapters: parameters and the m/v moments travel as flat slabs
    # in the same offset layout as the gradient exchange above.  Everything is
    # ``np.copyto``-based so the live parameter/moment buffers keep their
    # identity — compiled plans recorded against them stay valid.

    def gather_flat_params(self, out: np.ndarray) -> None:
        """Copy every ``param.data`` into the flat buffer ``out`` in place."""
        offsets = self._grad_offsets()
        flat = out.reshape(-1)
        for index, param in enumerate(self.params):
            np.copyto(flat[offsets[index]:offsets[index + 1]]
                      .reshape(param.data.shape), param.data)

    def scatter_flat_params(self, flat: np.ndarray) -> None:
        """Copy the flat buffer back into every ``param.data``, in place."""
        offsets = self._grad_offsets()
        flat = flat.reshape(-1)
        for index, param in enumerate(self.params):
            np.copyto(param.data,
                      flat[offsets[index]:offsets[index + 1]]
                      .reshape(param.data.shape))

    def gather_flat_state(self, out_m: np.ndarray, out_v: np.ndarray) -> None:
        """Copy the m/v moment buffers into flat slabs, in place."""
        if self._flat_m is not None:
            np.copyto(out_m.reshape(-1), self._flat_m)
            np.copyto(out_v.reshape(-1), self._flat_v)
            return
        offsets = self._grad_offsets()
        fm, fv = out_m.reshape(-1), out_v.reshape(-1)
        for index, param in enumerate(self.params):
            lo, hi = offsets[index], offsets[index + 1]
            np.copyto(fm[lo:hi].reshape(param.data.shape), self._m[index])
            np.copyto(fv[lo:hi].reshape(param.data.shape), self._v[index])

    def scatter_flat_state(self, m: np.ndarray, v: np.ndarray) -> None:
        """Copy flat m/v slabs back into the live moment buffers, in place."""
        if self._flat_m is not None:
            np.copyto(self._flat_m, m.reshape(-1))
            np.copyto(self._flat_v, v.reshape(-1))
            return
        offsets = self._grad_offsets()
        fm, fv = m.reshape(-1), v.reshape(-1)
        for index, param in enumerate(self.params):
            lo, hi = offsets[index], offsets[index + 1]
            np.copyto(self._m[index], fm[lo:hi].reshape(param.data.shape))
            np.copyto(self._v[index], fv[lo:hi].reshape(param.data.shape))

    def state_size_bytes(self) -> int:
        return int(sum(m.nbytes + v.nbytes for m, v in zip(self._m, self._v)))


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter, 2019)."""

    def _apply_weight_decay(self, param: Parameter, grad: np.ndarray) -> np.ndarray:
        if self.weight_decay:
            # Decoupled decay applied directly to the weights.
            param.data -= self.lr * self.weight_decay * param.data
        return grad

    def _apply_weight_decay_flat(self) -> None:
        if self.weight_decay:
            for param in self.params:
                param.data -= self.lr * self.weight_decay * param.data
