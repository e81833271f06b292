"""Slot-level request batching: many clients, one ciphertext.

The paper's economics (Sec. 2.3): an F1-scale ciphertext carries tens of
thousands of coefficients/slots, and every homomorphic op pays for all of
them whether they hold useful data or not.  A single client request that
uses a width-``w`` vector leaves the other ``N - w`` lanes idle.  The
:class:`SlotBatcher` reclaims them by packing ``k`` independent requests
for the *same program* into disjoint lanes of one set of input vectors,
running the program once, and demultiplexing per-request output blocks —
k requests for one request's price.

Packing is only sound when every program op acts lane-wise on the packed
layout, which depends on the scheme's plaintext semantics (defined by
:mod:`repro.sim.reference`):

- **CKKS** values live in N/2 canonical-embedding slots and *every* DSL op
  except ROTATE is slot-wise (including ct x ct MUL) — so any
  rotation-free CKKS program batches, with per-request plains tiled into
  each block.  A ROTATE is *also* batchable when every step is
  non-negative: the packed ciphertext is rotated once globally, then a
  0/1 plaintext mask zeroes the lanes that received a neighbor block's
  values — exactly the lanes a solo run's zero padding would leave empty,
  since leftward rotation keeps each request's data inside its own block.
  Negative steps move data *rightwards* past the block edge (where solo
  runs keep it and a mask would destroy it), so they stay unbatchable.
- **BGV** values are coefficient vectors; ADD/SUB/ADD_PLAIN/MOD_SWITCH are
  coefficient-wise, but MUL/MUL_PLAIN are negacyclic convolutions.  A
  ct x ct MUL mixes blocks irrecoverably (cross terms land on diagonal
  offsets), so programs containing one do not batch.  MUL_PLAIN *does*
  batch when the plain operand is shared by every request (the usual case
  — model weights): convolution is shift-equivariant, so
  ``(x << j*S) * p == (x * p) << j*S`` as long as blocks are spaced widely
  enough that products never spill into the next block.  The stride
  therefore grows by ``plain_width - 1`` per MUL_PLAIN *on the deepest
  dependency chain* (parallel branches overlay the same lanes), and
  ADD_PLAIN plains are tiled per request while MUL_PLAIN plains stay
  shared and untiled.

:class:`SlotBatcher` checks these rules at construction
(:func:`unbatchable_reason`), computes the layout (stride, capacity), and
exposes ``pack`` / ``unpack`` / ``run``.  Under-filled batches are first
class: ``occupancy(k) = k / capacity`` is reported per batch so serving
telemetry makes wasted lanes visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.backends import resolve_backend
from repro.dsl.program import OpKind, Program
from repro.obs.trace import tracer


class BatchUnsupported(ValueError):
    """This program cannot be slot-batched; serve it one request at a time."""


@dataclass
class Request:
    """One client request: values for the program's INPUT/INPUT_PLAIN ops.

    ``seed`` pins per-request randomness (generated default inputs) for
    runs served one at a time; it travels *with the request* through
    whatever executor/process ends up running it, so seeded runs are
    deterministic across process boundaries.

    ``level`` is the request's arrival depth: the number of RNS limbs its
    fresh inputs carry, at most the program's declared input level
    (``None`` means "at the program's level", the common case).  Requests
    at different levels still share a batch: packing mod-switches every
    cohort down to the shallowest request's waterline before the program
    runs (see :func:`level_alignment_plan`).

    ``trace`` is the observability join key (``repro.obs``): minted by
    the server at submit when tracing is on, it travels with the request
    over the replica wire so every span recorded for this
    request — in any process — lands on one stitched timeline.
    """

    inputs: dict[int, np.ndarray] = field(default_factory=dict)
    plains: dict[int, np.ndarray] = field(default_factory=dict)
    seed: int | None = None
    level: int | None = None
    trace: str | None = None


@dataclass(frozen=True)
class BatchLayout:
    """How a specific batch maps onto the packed ciphertext.

    Produced by :meth:`SlotBatcher.layout` and handed to value backends as
    the ``batch_layout`` run argument; it is ``None`` (and omitted) for
    the plain uniform case, so single-request and rotation-free
    uniform-level runs execute exactly as before.  The dataclass is frozen
    and holds only primitives, so it pickles across the process-pool
    executor boundary unchanged.

    ``levels[j]`` is request j's arrival level; ``base_level`` the
    program's declared input level.  ``masked_rotations`` tells the
    interpreter to follow every ROTATE with the 0/1 block-edge mask
    (CKKS-only; always False when the program has no rotations).
    """

    scheme: str
    width: int
    stride: int
    count: int
    base_level: int
    levels: tuple[int, ...]
    masked_rotations: bool


#: The envelope assumes the repo's default 28-bit limbs: ``Delta`` (the
#: CKKS encoding scale) is one limb wide and rotation masks cost half a
#: limb (``mul_mask`` encodes at ``2^14 ~ sqrt(Delta)``).
_LIMB_BITS = 28
_MASK_BITS = _LIMB_BITS // 2
#: Headroom reserved above the accumulated scale for the plaintext value
#: and noise: the phase ``scale * v`` must stay under Q/2 at every op, so
#: batched CKKS values are assumed to stay below ~2^5 in magnitude.
_VALUE_MARGIN_BITS = 6
#: Scale-mismatch adds amplify both sides by up to 2^20 so the fixup
#: constant keeps enough bits (see FunctionalSim._matched_ckks).
_AMP_BITS = 20


def _added_scale(s0, s1):
    """Scale state after a CKKS add: ``(delta_exp, pow2_bits, exact)``.

    Scales are exactly ``Delta^a * 2^m`` until a rescale divides by a
    prime limb.  Equal Delta-exponents give an exact power-of-two ratio,
    which `_matched_ckks` fixes up with no amplification; anything else
    may amplify both addends by up to ``2^_AMP_BITS`` unless the ratio is
    already wide enough to encode accurately.
    """
    a0, m0, e0 = s0
    a1, m1, e1 = s1
    if e0 and e1 and a0 == a1:
        return (a0, max(m0, m1), True)
    b0 = _LIMB_BITS * a0 + m0
    b1 = _LIMB_BITS * a1 + m1
    big = s0 if b0 >= b1 else s1
    if abs(b0 - b1) >= _AMP_BITS:
        return big
    return (big[0], big[1] + _AMP_BITS, False)


def _ckks_min_level(program: Program, base: int) -> int:
    """Deepest arrival level at which every op's phase still fits Q.

    Walks the op graph tracking each ciphertext's scale as
    ``Delta^a * 2^m`` (plus an exactness flag that survives everything but
    rescaling).  An op shifted ``delta`` levels down keeps its value iff
    its modulus still dominates its phase:
    ``_LIMB_BITS * (op.level - delta) >= scale_bits + _VALUE_MARGIN_BITS``.
    The batch may shift only as deep as the *tightest* op allows.
    """
    state: dict[int, tuple[int, int, bool]] = {}
    max_delta = base - 1
    for op in program.ops:
        kind = op.kind
        if kind is OpKind.INPUT:
            s = (1, 0, True)
        elif kind is OpKind.INPUT_PLAIN:
            continue
        elif kind in (OpKind.ADD, OpKind.SUB):
            s = _added_scale(state[op.args[0]], state[op.args[1]])
        elif kind is OpKind.MUL:
            a0, m0, e0 = state[op.args[0]]
            a1, m1, e1 = state[op.args[1]]
            s = (a0 + a1, m0 + m1, e0 and e1)
        elif kind is OpKind.MUL_PLAIN:
            a, m, e = state[op.args[0]]
            s = (a + 1, m, e)
        elif kind is OpKind.ROTATE:
            # Batched CKKS rotations are always masked (rotate-then-mask).
            a, m, e = state[op.args[0]]
            s = (a, m + _MASK_BITS, e)
        elif kind is OpKind.MOD_SWITCH:
            # Mirrors FunctionalSim._level_drop: rescale (divide by one
            # prime limb) only while the result keeps >= sqrt(Delta) of
            # scale, else the value-preserving mod-down.
            a, m, e = state[op.args[0]]
            if _LIMB_BITS * a + m - _LIMB_BITS >= _MASK_BITS:
                s = (a - 1, m, False)
            else:
                s = (a, m, e)
        else:  # ADD_PLAIN keeps the ct scale; OUTPUT inherits its arg.
            s = state[op.args[0]]
        state[op.op_id] = s
        a, m, _ = s
        need = -(-(_LIMB_BITS * a + m + _VALUE_MARGIN_BITS) // _LIMB_BITS)
        max_delta = min(max_delta, op.level - need)
    return base - max(0, max_delta)


def level_alignment_plan(program: Program) -> dict:
    """The per-program cross-level batching envelope.

    ``base_level`` is the program's declared input depth (what a
    ``level=None`` request means); ``min_level`` the deepest arrival level
    a request may have while every op still keeps enough limbs after the
    whole graph is shifted down by the request's deficit.  Shifting is
    sound because BGV modulus switching preserves the plaintext exactly
    and CKKS ``mod_switch`` preserves value and scale, so a program run
    ``delta`` levels lower computes the same function.

    BGV only needs one limb everywhere (the plaintext lives mod t,
    independent of Q).  CKKS is bounded by *scale headroom*: the phase is
    ``scale * v`` with the scale compounding through every multiplicative
    op (one limb per MUL_PLAIN, half a limb per rotation mask), and once
    it crowds the shifted modulus the values wrap and decrypt to noise —
    :func:`_ckks_min_level` walks the graph to find the deepest safe
    shift.
    """
    input_levels = [op.level for op in program.ops if op.kind is OpKind.INPUT]
    base = max(input_levels, default=1)
    if program.scheme == "ckks":
        min_level = _ckks_min_level(program, base)
    else:
        min_op = min((op.level for op in program.ops), default=1)
        min_level = max(1, base - (min_op - 1))
    return {
        "base_level": base,
        "min_level": min(base, min_level),
        "input_levels": tuple(input_levels),
    }


def check_request_level(plan: dict, level: int) -> None:
    """Admission-time validation of a request's arrival level."""
    lo, hi = plan["min_level"], plan["base_level"]
    if not lo <= level <= hi:
        raise ValueError(
            f"request level {level} outside this program's batchable range "
            f"[{lo}, {hi}] (inputs at level {hi}; deeper arrivals would "
            f"drop some op below one limb)"
        )


def solo_layout(program: Program, level: int) -> BatchLayout:
    """A one-request layout: run the whole program ``base - level`` limbs
    lower, with the request owning every lane.

    This is how unbatchable programs (and batches of one) honor a
    request's arrival level — same INPUT lowering as a real batch, no
    packing and no rotation masks.
    """
    plan = level_alignment_plan(program)
    check_request_level(plan, level)
    lanes = program.n // 2 if program.scheme == "ckks" else program.n
    return BatchLayout(
        scheme="ckks" if program.scheme == "ckks" else "bgv",
        width=lanes, stride=lanes, count=1,
        base_level=plan["base_level"], levels=(level,),
        masked_rotations=False,
    )


def _coerce(request) -> Request:
    if isinstance(request, Request):
        return request
    if isinstance(request, tuple) and len(request) == 2:
        return Request(inputs=request[0] or {}, plains=request[1] or {})
    raise TypeError(f"not a request: {request!r} (want Request or (inputs, plains))")


def unbatchable_reason(program: Program) -> str | None:
    """Why this program cannot be slot-batched, or None if it can.

    CKKS ROTATE batches when every step is non-negative (lowered to
    rotate-then-mask; see the module docstring) — negative steps push
    request data rightwards across its block edge, where the mask that
    keeps neighbor blocks out would also destroy the request's own values.
    BGV ROTATE is a coefficient automorphism (index map ``i -> i*3^s``)
    that scatters lanes across the whole ring, so it never batches.  For
    BGV (coefficient semantics) ct x ct MUL is a full negacyclic
    convolution whose cross-request terms cannot be separated; and a plain
    input that feeds both a MUL_PLAIN (must stay shared/untiled) and an
    ADD_PLAIN (must be tiled per request) has no consistent packing.
    """
    kinds = {op.kind for op in program.ops}
    if OpKind.ROTATE in kinds:
        if program.scheme != "ckks":
            return ("BGV ROTATE is a coefficient automorphism that scatters "
                    "values across the whole ring")
        if any(op.rotate_steps < 0 for op in program.ops
               if op.kind is OpKind.ROTATE):
            return ("CKKS ROTATE with negative steps pushes request values "
                    "across their block edge where the batch mask would "
                    "destroy them")
    if program.scheme != "ckks":
        if OpKind.MUL in kinds:
            return ("BGV ct x ct MUL is a negacyclic convolution that mixes "
                    "request blocks")
        for op in program.ops:
            if op.kind is not OpKind.INPUT_PLAIN:
                continue
            consumers = {program.ops[u].kind for u in op.users}
            if OpKind.MUL_PLAIN in consumers and OpKind.ADD_PLAIN in consumers:
                return (f"plain input {op.op_id} feeds both MUL_PLAIN "
                        f"(needs a shared operand) and ADD_PLAIN (needs a "
                        f"tiled one)")
    return None


class SlotBatcher:
    """Packs k same-signature requests into one program invocation.

    ``width`` is the per-request vector length every request must respect.
    For BGV, ``plain_width`` (default ``width``) bounds each shared
    MUL_PLAIN operand; the inter-request stride grows by
    ``plain_width - 1`` per MUL_PLAIN on the deepest dependency chain so
    convolution products never cross block boundaries.  ``capacity`` is
    how many requests one ciphertext carries at this layout.
    """

    def __init__(self, program: Program, *, width: int,
                 plain_width: int | None = None, max_batch: int | None = None):
        reason = unbatchable_reason(program)
        if reason is not None:
            raise BatchUnsupported(
                f"program {program.name!r} cannot be slot-batched: {reason}"
            )
        if width < 1:
            raise ValueError("width must be >= 1")
        self.program = program
        self.scheme = "ckks" if program.scheme == "ckks" else "bgv"
        self.width = width
        self.plain_width = width if plain_width is None else plain_width
        self._lanes = program.n // 2 if self.scheme == "ckks" else program.n
        # BGV convolution growth is a per-value property: each MUL_PLAIN on
        # a value's dependency path widens it by plain_width - 1.  The
        # stride only needs to contain the *widest* value the program ever
        # holds (the deepest MUL_PLAIN chain), not one growth per MUL_PLAIN
        # op in the program — parallel branches share the same lanes.  The
        # same per-op growth numbers give each OUTPUT its own demux width,
        # so multi-output programs demux each output at its exact extent.
        self._growth = self._convolution_growth(program)
        max_growth = max(self._growth, default=0)
        if self.scheme == "ckks":
            self.stride = width
        else:
            self.stride = width + max_growth * (self.plain_width - 1)
        self.rotation_steps = tuple(sorted({
            op.rotate_steps for op in program.ops
            if op.kind is OpKind.ROTATE and op.rotate_steps
        }))
        # Rotate-then-mask keeps blocks separate only while no rotation
        # wraps the *last* block's data around to lane 0 (np.roll / slot
        # rotation is cyclic); every interior block edge is handled by the
        # mask, the ring edge is not.
        if self.rotation_steps:
            max_step = max(self.rotation_steps)
            if self.stride + max_step > self._lanes:
                raise BatchUnsupported(
                    f"rotation by {max_step} wraps the last request block "
                    f"around the ring edge (stride {self.stride}, "
                    f"{self._lanes} lanes); shrink width or the ring"
                )
        self.level_plan = level_alignment_plan(program)
        self.output_widths: dict[int, int] = {
            op.op_id: (width if self.scheme == "ckks"
                       else width + self._growth[op.op_id]
                       * (self.plain_width - 1))
            for op in program.ops if op.kind is OpKind.OUTPUT
        }
        capacity = self._lanes // self.stride
        if capacity < 1:
            raise BatchUnsupported(
                f"stride {self.stride} exceeds the {self._lanes} available "
                f"lanes at N={program.n}; shrink width or grow the ring"
            )
        self.capacity = capacity if max_batch is None else min(capacity, max_batch)
        # Plain ops whose operand stays shared/untiled (BGV MUL_PLAIN).
        self._shared_plains = {
            op.op_id
            for op in program.ops
            if op.kind is OpKind.INPUT_PLAIN and self.scheme != "ckks"
            and any(program.ops[u].kind is OpKind.MUL_PLAIN for u in op.users)
        }
        self._input_ids = [
            op.op_id for op in program.ops if op.kind is OpKind.INPUT
        ]
        self._plain_ids = [
            op.op_id for op in program.ops if op.kind is OpKind.INPUT_PLAIN
        ]

    # ---------------------------------------------------------------- layout
    @staticmethod
    def _convolution_growth(program: Program) -> list[int]:
        """Per-op count of MUL_PLAIN ops on the deepest dependency path.

        Growth propagates as the max over arguments (parallel branches
        overlay the same lanes; chained multiplies accumulate), plus one
        for the op itself when it is a MUL_PLAIN.
        """
        growth = [0] * len(program.ops)
        for op in program.ops:
            g = max((growth[a] for a in op.args), default=0)
            if op.kind is OpKind.MUL_PLAIN:
                g += 1
            growth[op.op_id] = g
        return growth

    def occupancy(self, k: int) -> float:
        return k / self.capacity

    def check_request(self, request, *, require_inputs: bool = True) -> None:
        """Validate one request against this layout without packing.

        Used at admission time so a malformed request is rejected on its
        own ``submit`` call instead of poisoning the batch it would have
        joined.  With ``require_inputs`` every INPUT op must carry a value
        (batched serving cannot generate per-request defaults).
        """
        request = _coerce(request)
        if request.level is not None:
            check_request_level(self.level_plan, request.level)
        if require_inputs:
            missing = [op_id for op_id in self._input_ids
                       if op_id not in request.inputs]
            if missing:
                raise ValueError(
                    f"request is missing values for INPUT ops {missing}; "
                    f"batched serving needs every encrypted input supplied"
                )
        for op_id, values in request.inputs.items():
            self._checked(values, self.width, f"input {op_id}")
        for op_id, values in request.plains.items():
            limit = (self.plain_width if op_id in self._shared_plains
                     else self.width)
            self._checked(values, limit, f"plain {op_id}")

    def shared_plain_values(self, request) -> dict[int, np.ndarray]:
        """This request's MUL_PLAIN operands, normalized (missing -> [1]).

        The serving layer compares these across a bucket at admission time
        so a request with divergent shared weights is rejected on its own
        submit instead of failing the batch it would have joined.
        """
        request = _coerce(request)
        return {
            op_id: np.asarray(request.plains.get(op_id, np.ones(1))).reshape(-1)
            for op_id in self._shared_plains
        }

    def _dtype(self):
        return np.complex128 if self.scheme == "ckks" else np.int64

    def _checked(self, values, limit: int, what: str) -> np.ndarray:
        arr = np.asarray(values).reshape(-1)
        if arr.shape[0] > limit:
            raise ValueError(
                f"{what} has {arr.shape[0]} values; the batch layout allows "
                f"at most {limit}"
            )
        return arr

    # ------------------------------------------------------------- pack/unpack
    def pack(self, requests) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
        """k requests -> one (inputs, plains) pair for ``repro.run``.

        Request j occupies lanes ``[j*stride, j*stride + width)``.  Missing
        plains default to ``[1]`` (per request), matching solo-run
        semantics; every INPUT op must be present in every request.

        Each packed vector is assembled on a C-contiguous ``(k, stride)``
        block buffer (one reshaped view of the flat lane array) instead of
        k strided writes.
        """
        requests = [_coerce(r) for r in requests]
        k = len(requests)
        if not 1 <= k <= self.capacity:
            raise ValueError(
                f"batch of {k} requests outside [1, {self.capacity}] for "
                f"this layout"
            )
        dtype = self._dtype()
        inputs: dict[int, np.ndarray] = {}
        for op_id in self._input_ids:
            vecs = []
            for j, req in enumerate(requests):
                if op_id not in req.inputs:
                    raise ValueError(
                        f"request {j} is missing a value for INPUT op {op_id}"
                    )
                vecs.append(self._checked(
                    req.inputs[op_id], self.width, f"request {j} input {op_id}"
                ))
            inputs[op_id] = self._pack_blocks(vecs, dtype)
        plains: dict[int, np.ndarray] = {}
        for op_id in self._plain_ids:
            if op_id in self._shared_plains:
                plains[op_id] = self._shared_plain(op_id, requests)
                continue
            vecs = [
                self._checked(
                    req.plains.get(op_id, np.ones(1)), self.width,
                    f"request {j} plain {op_id}",
                )
                for j, req in enumerate(requests)
            ]
            plains[op_id] = self._pack_blocks(vecs, dtype)
        return inputs, plains

    def _pack_blocks(self, vecs: list[np.ndarray], dtype) -> np.ndarray:
        """Write per-request vectors into the block-diagonal lane layout.

        The first ``k*stride`` lanes are viewed as a C-contiguous
        ``(k, stride)`` matrix so equal-width batches (the common case)
        land in one stacked assignment with unit-stride rows; values and
        casts are exactly those of the old per-request strided writes.
        """
        k = len(vecs)
        packed = np.zeros(self._lanes, dtype=dtype)
        block = packed[: k * self.stride].reshape(k, self.stride)
        widths = {vec.shape[0] for vec in vecs}
        if len(widths) == 1 and len({vec.dtype for vec in vecs}) == 1:
            w = widths.pop()
            if w:
                block[:, :w] = vecs  # one C-level (k, w) gather + cast
        else:
            for j, vec in enumerate(vecs):
                block[j, : vec.shape[0]] = vec
        return packed

    def _shared_plain(self, op_id: int, requests: list[Request]) -> np.ndarray:
        """A MUL_PLAIN operand: identical across the batch, passed untiled."""
        first = self._checked(
            requests[0].plains.get(op_id, np.ones(1)), self.plain_width,
            f"shared plain {op_id}",
        )
        for j, req in enumerate(requests[1:], start=1):
            other = np.asarray(req.plains.get(op_id, np.ones(1))).reshape(-1)
            if other.shape != first.shape or not np.array_equal(other, first):
                raise BatchUnsupported(
                    f"plain input {op_id} feeds a BGV MUL_PLAIN and must be "
                    f"identical across the batch; request {j} differs"
                )
        return first

    def unpack(self, outputs: dict[int, np.ndarray], k: int) -> list[dict[int, np.ndarray]]:
        """One packed output dict -> k per-request output dicts.

        Each output is demuxed at its *own* width (``output_widths``):
        ``width`` plus that output's convolution growth for BGV, so a
        program with several OUTPUT handles of differing widths gives every
        request exactly the lanes a solo run would populate — block j of
        output o equals lanes ``[0, output_widths[o])`` of a solo run.

        Demuxing reshapes each packed output into a contiguous ``(k, w)``
        block matrix once (one gather instead of k strided slices).
        """
        per_request: list[dict[int, np.ndarray]] = [{} for _ in range(k)]
        span = k * self.stride
        for out_id, vec in outputs.items():
            arr = np.asarray(vec)
            w = self.output_widths.get(out_id, self.stride)
            if arr.ndim == 1 and arr.shape[0] >= span:
                block = np.ascontiguousarray(
                    arr[:span].reshape(k, self.stride)[:, :w]
                )
                for j in range(k):
                    per_request[j][out_id] = block[j].copy()
            else:  # ragged/short output: keep the strided slice semantics
                for j in range(k):
                    lo = j * self.stride
                    per_request[j][out_id] = arr[lo: lo + w].copy()
        return per_request

    # ---------------------------------------------------------------- levels
    def layout(self, requests) -> BatchLayout | None:
        """The :class:`BatchLayout` this batch needs, or None for the plain
        uniform case (no rotations, every request at the program's level).

        Returning None keeps the default run path byte-for-byte what it
        was before cross-level/rotation batching existed.
        """
        requests = [_coerce(r) for r in requests]
        base = self.level_plan["base_level"]
        levels = []
        for req in requests:
            if req.level is not None:
                check_request_level(self.level_plan, req.level)
            levels.append(base if req.level is None else req.level)
        masked = bool(self.rotation_steps) and self.scheme == "ckks"
        if not masked and all(level == base for level in levels):
            return None
        return BatchLayout(
            scheme=self.scheme, width=self.width, stride=self.stride,
            count=len(requests), base_level=base, levels=tuple(levels),
            masked_rotations=masked,
        )

    # ------------------------------------------------------------------- run
    def run(self, requests, backend="functional", *, seed: int | None = None,
            **run_kw):
        """Pack, execute once on ``backend``, demux.

        Returns ``(per_request_outputs, run_result)`` — the second element
        is the underlying :class:`~repro.backends.RunResult` so callers can
        amortize its modeled/measured time over the batch.
        """
        requests = list(requests)
        tr = tracer()
        # Pack/execute/unpack spans carry the batch's trace ids (recorded
        # coordinator-side under a ThreadExecutor and worker-side under a
        # remote host alike); each span is a no-op while tracing is off.
        traces = [r.trace for r in requests if getattr(r, "trace", None)]
        with tr.span("pack", traces=traces, k=len(requests)):
            inputs, plains = self.pack(requests)
            layout = self.layout(requests)
        if layout is not None:
            run_kw = {**run_kw, "batch_layout": layout}
        backend_label = backend if isinstance(backend, str) else type(backend).__name__
        with tr.span("execute", traces=traces, backend=backend_label):
            result = resolve_backend(backend).run(
                self.program, inputs=inputs, plains=plains, seed=seed, **run_kw
            )
        with tr.span("unpack", traces=traces):
            unpacked = self.unpack(result.outputs, len(requests))
        return unpacked, result
