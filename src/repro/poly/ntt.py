"""Negacyclic Number-Theoretic Transform (Sec. 2.3, Sec. 5.2).

Multiplication in R_q = Z_q[x]/(x^N + 1) is a *negacyclic* convolution.  With
``psi`` a primitive 2N-th root of unity mod q (and ``omega = psi^2`` the N-th
root), the negacyclic NTT

    NTT(a)[j] = sum_i a_i * psi^(i*(2j+1))  mod q

linearizes it: ``NTT(a*b) = NTT(a) ⊙ NTT(b)`` with no zero padding.

Two classes, one transform, one set of tables per prime chain:

- :class:`RnsNttContext`: the *batched residue-matrix engine*.  Polynomials in
  R_Q live as limb-major (L, N) uint64 matrices (one row per RNS limb — the
  paper's RVecs); the context stacks the per-limb twiddle tables and runs
  every butterfly stage across *all* limbs in a single numpy op.
  ``forward``/``inverse`` additionally accept stacks of residue matrices
  (``(..., L, N)``) so e.g. the key switch transforms all its digit matrices
  in one call, and ``start=`` a run of the basis' limbs alone.  Every call
  runs as a loop of cache-sized blocks (:data:`BLOCK_ELEMS`) through a
  per-thread workspace, so concurrent callers (server worker threads,
  registry builds) never share one.  Results are bit-identical to the
  one-limb transform of each row.  Tables are built per prime *chain*, not
  per moduli tuple: :func:`get_rns_context` runs every prefix of a chain on
  its tables.  At small rings a call is one block whose cost is mostly
  fixed (~100 numpy calls on strided views, see :data:`BLOCK_ELEMS`), so the
  schemes make one call per HE step, not one per term.
- :class:`NttContext`: the one-limb facade, ``(N,)`` vectors in and out; it
  holds no tables and runs on ``get_rns_context(n, (q,))``.

Hot-path design (see :mod:`repro.poly.kernels` for the primitive proofs): a
merged-twist Harvey-style lazy transform with **zero divisions**, run at the
paper's word size: a residue vector is N x 32-bit words (Sec. 5.3), and so
is the workspace.  The psi twist is folded into per-stage twiddles
(``psi^brv(j)`` tables, Longa–Naehrig style), each Cooley–Tukey butterfly
uses Shoup multiplication with precomputed scaled twiddles and keeps values
in the extended range ``[0, 4q)`` with a single conditional subtract per
butterfly, and one exact reduction happens at the end of the transform.  To
keep every numpy pass striding over contiguous runs, the stage pipeline is
split in two phases around a ``G x C`` matrix transpose (the four-step
layout trick, Sec. 5.2): phase 1 runs the large-span stages in natural
layout, phase 2 runs the small-span stages on the transposed matrix where
the short spans become the leading axis, and a single fused gather produces
natural-order output.  The inverse mirrors the pipeline with
Gentleman–Sande butterflies and folds ``n^{-1}`` into a final Shoup
multiply.  A uint64 input is narrowed by its copy into the workspace and a
uint32 one is copied as is; the final gather writes a uint32 ``out=``
directly and a uint64 one through one widening copy.

Lazy-range proof sketch (per butterfly; ``w < q`` a uint32 twiddle,
``ws = floor(w * 2^32 / q) < 2^32`` its uint64 partner): inputs are
``x < 4q < 2^32``, so the one wide product ``x * ws < 2^64`` cannot wrap.
Its high word ``est`` is the true quotient ``floor(x*w / q)`` or one less,
because the estimate's error ``x*r / (q * 2^32)`` (``r < q``) is below
``x / 2^32 < 1``.  Hence ``t = x*w - q*est`` lies in ``[0, 2q)``, below
``2^31``, and is exact on low words alone: two wrapping uint32 multiplies
and a subtract (:func:`~repro.poly.kernels.shoup_mul32`).  Then
``lo' = cond_sub(lo, 2q) in [0, 2q)`` (the ``min(x, x - c)`` trick holds in
uint32 for ``x < 2c <= 2^32``), and ``new_lo = lo' + t in [0, 4q)``,
``new_hi = lo' + (2q - t) in (0, 4q)`` re-establish the invariant below
``2^32``.  Every intermediate is congruent mod q to the textbook ``%``
butterfly's value and the final reduction is exact, so the output is the
strict transform's bit for bit (the test oracle,
``tests/kernel_oracles.py::ntt_reference``).  A CT stage is 9 passes over
half a block, 8 of them uint32.

Invariant: every modulus must satisfy ``q < 2**30``, the engine's one bound
(:data:`repro.rns.crt.MAX_MODULUS`), so that ``4q`` fits the uint32 word.
Both context constructors take bare moduli, so they check each against it
rather than silently wrapping.  Transform inputs must be reduced (``[0, q)``
per limb) — the engine-wide invariant, which the narrowing cast relies on
and ``REPRO_KERNEL_DEBUG=1`` asserts at its entry.

Outputs are in natural order, so NTT-domain automorphisms are plain index
permutations (see :mod:`repro.poly.automorphism`).
"""

from __future__ import annotations

import threading
from functools import lru_cache

import numpy as np

from repro.obs.profile import count_kernel, instrument
from repro.poly import kernels
from repro.poly.kernels import cond_sub
from repro.rns.crt import check_modulus_width
from repro.rns.primes import primitive_root_of_unity

#: Below this transform size the two-phase transpose layout buys nothing.
_SINGLE_PHASE_MAX_N = 32

#: Elements per transform block — the unit of cache residency
#: (:meth:`RnsNttContext._run`): a block, its workspace (18 bytes an element)
#: and its twiddles (12) should sit in L2 for the ~100 numpy passes of a
#: transform, yet be large enough to amortise those calls (~110 us a block).
#: Forward / inverse microseconds per row on this box, by elements per block:
#: (18, 18, 1024) 8 K 46/57, 24 K 31/36, 36 K 28/33, 48 K 27/33, 96 K 27/33,
#: whole 34/38; (18, 4096) 8 K 179/205, 24 K 129/155, 36 K 120/141,
#: 96 K 114/138, whole 113/134; (16, 16384) 8 K 574/605, 24 K 565/646,
#: 36 K 479/550, 48 K 461/529, 96 K 460/537, whole 623/637.  At N = 512
#: every HE step is one block and the fixed cost dominates: forward (1, 512)
#: 124-161 us, (3, 512) 158-191 us, (2, 4, 512) 197-265 us (min of 7 x 200
#: calls, same box), i.e. ~110 us a call whatever its rows.
BLOCK_ELEMS = 36 * 1024

_scratch = threading.local()


def _workspace(block: np.ndarray):
    """This thread's scratch for transforming ``block``: two uint32 buffers
    of its shape (working copy, transpose target) and the half-block
    temporaries, flat: three uint32 and the uint64 one of the Shoup products.

    All are views of one allocation that lives as long as the thread and
    grows to the largest block seen, which the driver bounds by
    ``max(BLOCK_ELEMS, N)``: (3.5 * 4 + 4) bytes * 36 864 = 648 KiB per
    thread up to N = 16384.  Nothing a transform returns aliases it.
    """
    size, half = block.size, block.size // 2
    buf = getattr(_scratch, "buf", None)
    if buf is None or buf.size < 9 * half:
        buf = _scratch.buf = np.empty(9 * half, dtype=np.uint32)
    wide = buf[:size].view(np.uint64)
    a, b = buf[size:2 * size], buf[2 * size:3 * size]
    halves = tuple(buf[i * half:(i + 1) * half] for i in (6, 7, 8))
    return a.reshape(block.shape), b.reshape(block.shape), halves + (wide,)


def _as_residues(x) -> np.ndarray:
    """``x`` as uint32 (kept) or uint64, refusing the cast that corrupts: a
    negative residue wraps to ~2^64 and comes back as unreduced garbage."""
    x = np.asarray(x)
    if x.dtype.kind == "i" and x.size and int(x.min()) < 0:
        raise ValueError("residues must be non-negative (reduce mod q first)")
    return x if x.dtype == np.uint32 else x.astype(np.uint64, copy=False)


class _LazyPlan:
    """Precomputed stage schedule for the merged-twist lazy transform.

    Owns, per direction, the stacked ``(L, N)`` uint32 twiddle tables
    ``W[l, j] = psi_l^{bitrev(j)}`` (forward; ``psi^{-1}`` for inverse) with
    their uint64 Shoup partners ``floor(W * 2^32 / q)``, sliced into
    per-stage broadcast views, plus the fused input/output permutations.
    Plans are immutable after construction and therefore safe to share
    across threads.
    """

    def __init__(self, n: int, moduli, w_fwd: np.ndarray, w_inv: np.ndarray,
                 n_inv_col: np.ndarray, c_size: int | None = None):
        level = len(moduli)
        self.n = n
        q64 = np.array(moduli, dtype=np.uint64).reshape(-1, 1)
        self.q_col = q64.astype(np.uint32)
        self.two_q_col = self.q_col * np.uint32(2)

        def partner(w):  # w < q < 2^30, so w << 32 fits a uint64 exactly
            return (w << np.uint64(32)) // q64

        ws_fwd, ws_inv = partner(w_fwd), partner(w_inv)
        w_fwd, w_inv = w_fwd.astype(np.uint32), w_inv.astype(np.uint32)
        self.n_inv_col = n_inv_col.astype(np.uint32)
        self.n_inv_shoup = partner(n_inv_col)

        # Phase split: stages with butterfly span t >= C run in natural
        # layout; spans t < C run on the transposed G x C matrix where the
        # span lives on the (now leading) C axis and the contiguous inner
        # axis has length G.
        brv = _bit_reverse_indices(n)
        if c_size is None:
            if n <= _SINGLE_PHASE_MAX_N:
                c_size = 1
            else:
                c_size = 1 << ((n.bit_length() - 1) // 2)
        g_size = n // c_size
        self.c_size = c_size
        self.g_size = g_size

        def phase1_views(w, ws):
            out = []
            m = 1
            while m <= max(1, n // (2 * c_size)):
                t = n // (2 * m)
                out.append((m, t, np.ascontiguousarray(w[:, m:2 * m, None]),
                            np.ascontiguousarray(ws[:, m:2 * m, None])))
                m *= 2
            return out

        def phase2_views(w, ws):
            # Stage m's conceptual block index for transposed position
            # (cb, j, g) is g*cm + cb (cm = C*m/n blocks along the C axis),
            # so the twiddle view is W[:, m:2m] reshaped (G, cm) and
            # transposed to (cm, 1, G) — broadcast over the span axis j.
            out = []
            m = n // c_size
            while m <= n // 2 and c_size > 1:
                t = n // (2 * m)
                cm = c_size // (2 * t)
                view = w[:, m:2 * m].reshape(level, g_size, cm)
                views = ws[:, m:2 * m].reshape(level, g_size, cm)
                out.append((cm, t,
                            np.ascontiguousarray(view.transpose(0, 2, 1)[:, :, None, :]),
                            np.ascontiguousarray(views.transpose(0, 2, 1)[:, :, None, :])))
                m *= 2
            return out

        self.fwd_p1 = phase1_views(w_fwd, ws_fwd)
        self.fwd_p2 = phase2_views(w_fwd, ws_fwd)
        self.inv_p1 = phase1_views(w_inv, ws_inv)
        self.inv_p2 = phase2_views(w_inv, ws_inv)

        # Fused output gather: natural slot j reads buffer position
        # (brv(j) mod C) * G + brv(j) // C of the transposed layout.
        if c_size > 1:
            self.out_perm = (brv % c_size) * g_size + brv // c_size
        else:
            self.out_perm = brv
        in_perm = np.empty(n, dtype=np.int64)
        in_perm[self.out_perm] = np.arange(n)
        self.in_perm = in_perm

        # Broadcast constants for the 3-D (phase 1) and 4-D (phase 2) views.
        self._c3 = (self.q_col[:, :, None], self.two_q_col[:, :, None])
        self._c4 = tuple(c[:, :, None] for c in self._c3)

    # ------------------------------------------------------------- butterflies
    def _ct_stage(self, lo, hi, w, ws, consts, first: bool, tmp) -> None:
        """Cooley–Tukey lazy butterfly: ``(lo, hi) -> (lo + w*hi, lo - w*hi)``
        with values kept in ``[0, 4q)`` (see module docstring proof).

        The first stage's inputs are fully reduced (``< q < 2q``), so its
        ``lo`` conditional subtract is skipped.  Every pass writes through
        ``out=``: into the half-block buffers ``tmp``, the final sums
        directly into the (strided) destination views.
        """
        q, two_q = consts
        est, t, lo2, wide = [b.reshape(lo.shape) for b in tmp]
        kernels.shoup_mul32(hi, w, ws, q, wide, est, out=t)
        if first:
            lo2 = lo
        else:
            cond_sub(lo, two_q, out=lo2, tmp=lo2)
        np.subtract(two_q, t, out=est)
        np.add(lo2, est, out=hi)
        np.add(lo2, t, out=lo)

    def _gs_stage(self, lo, hi, w, ws, consts, tmp) -> None:
        """Gentleman–Sande lazy butterfly: ``(lo, hi) -> (lo + hi,
        w*(lo - hi))`` with the halving deferred into the final ``n^{-1}``.

        ``x = lo + (2q - hi)`` is formed before ``lo`` is overwritten; the
        product lands in ``hi`` with its last pass.
        """
        q, two_q = consts
        x, s, v, wide = [b.reshape(lo.shape) for b in tmp]
        np.subtract(two_q, hi, out=x)
        np.add(lo, x, out=x)
        np.add(lo, hi, out=s)
        cond_sub(s, two_q, out=lo, tmp=v)
        kernels.shoup_mul32(x, w, ws, q, wide, s, out=hi)

    def _transpose(self, src: np.ndarray, dst: np.ndarray,
                   rows: int, cols: int) -> None:
        lead = src.shape[:-1]
        np.copyto(dst.reshape(lead + (cols, rows)),
                  src.reshape(lead + (rows, cols)).swapaxes(-2, -1))

    # -------------------------------------------------------------- transforms
    def _cut(self, rows: slice, inverse: bool):
        """What a transform of limbs ``rows`` reads, cut to those rows: the
        columns q, 2q, n^-1 and its partner, then per phase the broadcast
        constants and stage views."""
        phases = ((self._c3, self.inv_p1 if inverse else self.fwd_p1),
                  (self._c4, self.inv_p2 if inverse else self.fwd_p2))
        return tuple(c[rows] for c in (self.q_col, self.two_q_col,
                                       self.n_inv_col, self.n_inv_shoup)) + tuple(
            (tuple(c[rows] for c in consts),
             [(m, t, w[rows], ws[rows]) for m, t, w, ws in stages])
            for consts, stages in phases)

    def forward(self, limbs: np.ndarray, out: np.ndarray, cut) -> np.ndarray:
        """Merged-twist negacyclic NTT of one block into ``out``.

        ``limbs`` holds the limbs ``cut`` (:meth:`_cut`) was cut to (reduced,
        any leading axes, uint32 or uint64, read before ``out`` is written);
        ``out`` is C-contiguous, uint32 or uint64, of the same shape, may be
        ``limbs``, and receives reduced natural-order values.
        """
        q, two_q, _, _, (c3, p1), (c4, p2) = cut
        kernels._validate_reduced(limbs, q, "ntt forward")
        lead = limbs.shape[:-1]
        a, b, tmp = _workspace(limbs)
        np.copyto(a, limbs)  # the narrowing cast: residues are < q < 2^30
        for i, (m, t, w, ws) in enumerate(p1):
            blocks = a.reshape(lead + (m, 2 * t))
            self._ct_stage(blocks[..., :t], blocks[..., t:], w, ws, c3,
                           i == 0, tmp)
        if self.c_size > 1:
            self._transpose(a, b, self.g_size, self.c_size)
            a, b = b, a
            for cm, t, w, ws in p2:
                blocks = a.reshape(lead + (cm, 2 * t, self.g_size))
                self._ct_stage(blocks[..., :t, :], blocks[..., t:, :], w, ws,
                               c4, False, tmp)
        cond_sub(a, two_q, out=a, tmp=b)
        cond_sub(a, q, out=a, tmp=b)
        gather = out if out.dtype == np.uint32 else b
        np.take(a, self.out_perm, axis=-1, out=gather, mode="clip")
        if gather is b:
            np.copyto(out, b)
        return out

    def inverse(self, evals: np.ndarray, out: np.ndarray, cut) -> np.ndarray:
        """Inverse of :meth:`forward` (same contract, an inverse ``cut``),
        ``n^{-1}`` fused into the final pass."""
        q, _, n_inv, n_inv_shoup, (c3, p1), (c4, p2) = cut
        kernels._validate_reduced(evals, q, "ntt inverse")
        lead = evals.shape[:-1]
        a, b, tmp = _workspace(evals)
        np.copyto(b, evals)
        np.take(b, self.in_perm, axis=-1, out=a, mode="clip")
        if self.c_size > 1:
            for cm, t, w, ws in reversed(p2):
                blocks = a.reshape(lead + (cm, 2 * t, self.g_size))
                self._gs_stage(blocks[..., :t, :], blocks[..., t:, :], w, ws,
                               c4, tmp)
            self._transpose(a, b, self.c_size, self.g_size)
            a, b = b, a
        for m, t, w, ws in reversed(p1):
            blocks = a.reshape(lead + (m, 2 * t))
            self._gs_stage(blocks[..., :t], blocks[..., t:], w, ws, c3, tmp)
        half = self.n // 2
        for cols in (slice(half), slice(half, None)):  # the scratch is half
            x = a[..., cols]
            kernels.shoup_mul32(x, n_inv, n_inv_shoup, q,
                                tmp[3].reshape(x.shape), b[..., cols], out=x)
        return cond_sub(a, q, out=out, tmp=b)


class NttContext:
    """Length-N negacyclic NTTs modulo one prime q: the one-limb case of
    :class:`RnsNttContext`, on ``q``'s chain tables.  Holds no tables."""

    def __init__(self, n: int, q: int):
        _check_ntt_modulus(n, q)
        self.n = n
        self.q = q

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        """Negacyclic NTT: coefficient domain -> evaluation (NTT) domain."""
        return get_rns_context(self.n, (self.q,)).forward(
            self._one_limb(coeffs))[0]

    def inverse(self, evals: np.ndarray) -> np.ndarray:
        """Inverse negacyclic NTT: evaluation domain -> coefficient domain."""
        return get_rns_context(self.n, (self.q,)).inverse(
            self._one_limb(evals))[0]

    def _one_limb(self, x) -> np.ndarray:
        x = _as_residues(x)
        if x.shape != (self.n,):
            raise ValueError(f"expected shape ({self.n},), got {x.shape}")
        return x[None]

    def negacyclic_multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Polynomial product in R_q via NTT ⊙ NTT."""
        return self.inverse(self.forward(a) * self.forward(b) % np.uint64(self.q))


class RnsNttContext:
    """Batched negacyclic NTT over an RNS basis: (L, N) matrices in one shot.

    Stacks one table row per limb so every butterfly stage runs across all
    limbs (and any leading batch axes) in a single numpy op —
    ``forward``/``inverse`` accept ``(..., L, N)`` stacks.  Outputs are
    bit-identical to transforming each row on its own.

    Row l of every table depends on ``q_l`` alone, so a context whose
    moduli start ``chain``'s runs on ``chain``'s tables (:meth:`_adopt`).
    """

    def __init__(self, n: int, moduli: tuple[int, ...], *,
                 chain: "RnsNttContext | None" = None):
        self.n = n
        self.moduli = tuple(moduli)
        self._all = slice(0, len(self.moduli))
        if chain is not None and chain.moduli[:self.level] != self.moduli:
            raise ValueError("chain= must start with these moduli")
        self._adopt(chain or self)

    def _adopt(self, chain: "RnsNttContext") -> None:
        """Run on ``chain``'s plan (``self``: build its own), with its views
        cut to this basis here, once.  One attribute, so a transform running
        meanwhile reads the old tables or the new, never a mix."""
        self._chain = chain._chain if chain is not self else self
        plan = self._build() if chain is self else self._chain._tables[0]
        self._tables = (plan, (plan._cut(self._all, False),
                               plan._cut(self._all, True)))

    def _build(self) -> _LazyPlan:
        """The plan, from each modulus' ``psi^i`` and ``psi^-i`` rows and
        ``n^-1`` (``np.take`` keeps C order, so the plan's views copy)."""
        n, moduli = self.n, self.moduli
        for q in moduli:
            _check_ntt_modulus(n, q)
        psis = [primitive_root_of_unity(2 * n, q) for q in moduli]
        psi = _power_rows(psis, n, moduli)
        psi_inv = _power_rows([pow(p, -1, q) for p, q in zip(psis, moduli)],
                              n, moduli)
        n_inv = np.array([[pow(n, -1, q)] for q in moduli], dtype=np.uint64)
        brv = _bit_reverse_indices(n)
        return _LazyPlan(n, moduli, np.take(psi, brv, axis=1),
                         np.take(psi_inv, brv, axis=1), n_inv)

    @property
    def level(self) -> int:
        return len(self.moduli)

    @instrument("ntt_forward")
    def forward(self, limbs: np.ndarray, *, start: int | None = None,
                out: np.ndarray | None = None) -> np.ndarray:
        """All-limb negacyclic NTT: ``(..., L, N)`` coefficient -> evaluation.

        With ``start``, ``limbs`` is ``(..., k, N)``: limbs ``start .. start
        + k`` of the basis alone.  uint32 ``limbs`` are read without a
        widening copy.  Writes ``out`` (C-contiguous, uint32 or uint64, of
        ``limbs``' shape, and may be ``limbs``) or a fresh uint64 array,
        never the input otherwise; values are bit-identical whatever the
        dtypes, ``out`` or the blocks :meth:`_run` cuts the call into.
        """
        return self._run(limbs, start, out, inverse=False)

    @instrument("ntt_inverse")
    def inverse(self, evals: np.ndarray, *, start: int | None = None,
                out: np.ndarray | None = None) -> np.ndarray:
        """All-limb inverse negacyclic NTT: ``(..., L, N)`` evaluation ->
        coeff; same ``start`` / dtype / ``out`` contract as :meth:`forward`."""
        return self._run(evals, start, out, inverse=True)

    def _run(self, arr, start: int | None, out: np.ndarray | None,
             inverse: bool) -> np.ndarray:
        """The block driver: cut ``arr`` into blocks of about
        :data:`BLOCK_ELEMS` elements and transform each on its own.

        A block is a run of whole leading ``(k, N)`` matrices when one
        fits, else a limb range of one matrix, transformed with the same
        range of the plan's stage views (per-limb tables are independent, so
        any cut is bit-identical to the whole).  A call that is one block
        (every HE step at N = 512) runs the plan on ``arr`` as it came;
        larger calls loop over their blocks.
        """
        arr = _as_residues(arr)
        level = len(self.moduli)
        if arr.ndim < 2 or arr.shape[-1] != self.n or (
            arr.shape[-2] != level if start is None
            else not 0 <= start <= level - arr.shape[-2]
        ):
            raise ValueError(f"expected trailing shape ({level}, {self.n}), or a "
                             f"run of limbs from start=; got {arr.shape}, {start}")
        out = np.empty(arr.shape, np.uint64) if out is None else out
        if out.shape != arr.shape or not out.flags.c_contiguous or \
                out.dtype not in (np.uint32, np.uint64):
            raise ValueError(f"out= must be C-contiguous uint32/64, {arr.shape}")
        start = start or 0
        count_kernel("ntt_inverse" if inverse else "ntt_forward", "rows",
                     arr.size // self.n)
        k, n = arr.shape[-2:]
        per_block = max(1, BLOCK_ELEMS // n)  # rows of N
        if arr.size <= per_block * n:  # one block: no reshape
            self._transform(arr, out, slice(start, start + k), inverse)
            return out
        src, dst = arr.reshape(-1, k, n), out.reshape(-1, k, n)
        if k <= per_block:
            lead_step, limb_step = per_block // k, k
        else:
            lead_step, limb_step = 1, per_block
        for i in range(0, src.shape[0], lead_step):
            for j in range(0, k, limb_step):
                stop = min(j + limb_step, k)
                self._transform(
                    src[i:i + lead_step, j:stop], dst[i:i + lead_step, j:stop],
                    slice(start + j, start + stop), inverse)
        return out

    def _transform(self, src: np.ndarray, dst: np.ndarray, rows: slice,
                   inverse: bool) -> None:
        """One block (limbs ``rows`` of the basis) from ``src`` into ``dst``."""
        plan, whole = self._tables
        cut = whole[inverse] if rows == self._all else plan._cut(rows, inverse)
        (plan.inverse if inverse else plan.forward)(src, dst, cut)


_rns_contexts: dict[tuple[int, tuple[int, ...]], RnsNttContext] = {}
_rns_lock = threading.Lock()


def get_rns_context(n: int, moduli: tuple[int, ...]) -> RnsNttContext:
    """Shared, cached batched context for a moduli tuple, on one plan per
    prime chain, not per tuple: every basis the engine transforms at is a
    prefix of one chain (a level drops top limbs; the variant-2 ``Q ∪ P``
    takes the next primes).  A tuple runs on the tables of the longest
    cached tuple it prefixes, and a new chain takes its cached prefixes
    over.  The first request builds under a lock: concurrent callers get one.
    """
    ctx = _rns_contexts.get((n, moduli))
    if ctx is None:
        with _rns_lock:
            ctx = _rns_contexts.get((n, moduli)) or _cache_on_chain(n, moduli)
    return ctx


def _cache_on_chain(n: int, moduli: tuple[int, ...]) -> RnsNttContext:
    level = len(moduli)
    kin = [c for (m, _), c in _rns_contexts.items() if m == n]
    chains = [c._chain for c in kin if c.moduli[:level] == moduli]
    ctx = _rns_contexts[n, moduli] = RnsNttContext(
        n, moduli, chain=max(chains, key=lambda c: c.level, default=None))
    if not chains:  # a new chain: move the cached prefixes onto it
        for c in kin:
            if c.moduli == moduli[:c.level] and c._chain.level < level:
                c._adopt(ctx)
    return ctx


@lru_cache(maxsize=None)
def _bit_reverse_indices(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.int64)
    for _ in range(bits):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    return rev


def _power_rows(roots, n: int, moduli) -> np.ndarray:
    """Row l: ``roots[l]^0 .. roots[l]^(n-1) mod moduli[l]`` as (L, n)
    uint64, doubling the filled prefix per pass (products of residues
    below ``2^32`` fit a uint64)."""
    q_col = np.array(moduli, dtype=np.uint64).reshape(-1, 1)
    out = np.ones((len(moduli), n), dtype=np.uint64)
    m = 1
    while m < n:
        step = np.array([[pow(r, m, q)] for r, q in zip(roots, moduli)],
                        dtype=np.uint64)
        np.remainder(out[:, :m] * step, q_col, out=out[:, m:2 * m])
        m *= 2
    return out


def _check_ntt_modulus(n: int, q: int) -> None:
    """Raise ValueError unless N is a power of two >= 2 and ``q`` is below
    ``2^30`` with ``2N | q - 1``."""
    if n & (n - 1) or n < 2:
        raise ValueError(f"N must be a power of two >= 2, got {n}")
    if (q - 1) % (2 * n) != 0:
        raise ValueError(f"q = {q} is not NTT-friendly for N = {n}")
    check_modulus_width(q)


def naive_negacyclic_multiply(a, b, q: int) -> np.ndarray:
    """O(N^2) schoolbook negacyclic convolution; the test oracle for the NTT."""
    a = [int(x) % q for x in a]
    b = [int(x) % q for x in b]
    n = len(a)
    out = [0] * n
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            k = i + j
            term = ai * bj
            if k < n:
                out[k] = (out[k] + term) % q
            else:
                out[k - n] = (out[k - n] - term) % q
    return np.array(out, dtype=np.uint64)
