"""Baseline scheduler: Code Scheduling to minimize Register usage (CSR).

Goodman & Hsu's register-pressure-aware list scheduler [37], applied — as the
paper does in Sec. 8.3 — as the off-chip data-movement scheduler over the
full instruction dataflow graph, treating the scratchpad as the register
file.  The heuristic greedily picks, among ready instructions, the one that
releases the most live values (last uses) net of the value it creates; ties
break toward the original priority.

The paper finds this produces schedules with a large blowup of live
intermediates (it is blind to key-switch-hint reuse across homomorphic
operations) and therefore scratchpad thrashing — Table 5's 4.2x gmean
slowdown.  It is also computationally expensive; we keep the priority queue
implementation honest rather than micro-optimizing it.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.isa import InstructionGraph


def csr_order(graph: InstructionGraph) -> list[int]:
    """Topological order minimizing live-value count, Goodman-Hsu style."""
    num_instructions = len(graph.kind)
    in0, in1, out = graph.in0.tolist(), graph.in1.tolist(), graph.out.tolist()
    user_ptr, users = graph.user_ptr.tolist(), graph.users.tolist()
    remaining_uses = np.diff(graph.user_ptr).tolist()
    # Operands an instruction waits for: those some instruction produces.
    indegree = ((graph.producer[graph.in0] >= 0).astype(np.int64)
                + ((graph.in1 >= 0) & (graph.producer[graph.in1] >= 0))).tolist()

    def score(instr_id: int) -> tuple[int, int]:
        """(negated net released values, original priority)."""
        a, b = in0[instr_id], in1[instr_id]
        if b < 0 or b == a:
            released = remaining_uses[a] == 1 + (b == a)
        else:
            released = (remaining_uses[a] == 1) + (remaining_uses[b] == 1)
        # Creating the output adds one live value.
        return (-(released - 1), instr_id)

    ready = [score(i) for i in range(num_instructions) if indegree[i] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    emitted = [False] * num_instructions

    while ready:
        _, instr_id = heapq.heappop(ready)
        if emitted[instr_id]:
            continue
        # Scores go stale as uses retire; recompute lazily.
        current = score(instr_id)
        if ready and current > ready[0]:
            heapq.heappush(ready, current)
            continue
        emitted[instr_id] = True
        order.append(instr_id)
        remaining_uses[in0[instr_id]] -= 1
        if in1[instr_id] >= 0:
            remaining_uses[in1[instr_id]] -= 1
        output = out[instr_id]
        for user in users[user_ptr[output]:user_ptr[output + 1]]:
            indegree[user] -= 1
            if indegree[user] == 0:
                heapq.heappush(ready, score(user))
    if len(order) != num_instructions:
        raise ValueError("CSR scheduler failed to order all instructions")
    return order
