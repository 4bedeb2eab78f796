"""The tape's level schedule, laid out slot by slot: a test reference.

``engine._schedule`` lays the tape out with numpy index arithmetic.
``reference_schedule`` builds the same ``Schedule`` with per-slot and
per-cell Python lists, the way the engine first did, so the differential
tests in ``test_engine`` can compare every field of the two.
"""

from __future__ import annotations

import numpy as np

from ntpboost.errors import ValidationError
from ntpboost.rnn.engine import _CONST, _NODE, _PROD, _RECIP, _RELU, Level, Schedule


def reference_schedule(tape, graph, node_index, node_slot) -> Schedule:
    """Lay the tape out in levels, and each level in padded buckets.

    One Python pass over the tape, cell by cell: the layout
    ``engine._schedule`` must reproduce field for field.
    """
    num_nodes = len(graph.nodes)
    row = [0] * len(tape)
    level = [0] * len(tape)
    consts = []
    members: dict = {}
    for slot, entry in enumerate(tape):
        op = entry[0]
        if op is _NODE:
            if not 0 <= entry[1] < num_nodes:
                raise ValidationError(f"tape slot {slot} reads node {entry[1]} of {num_nodes}")
            row[slot] = entry[1]
        elif op is _CONST:
            row[slot] = num_nodes + len(consts)
            consts.append(entry[1])
        else:
            children = entry[1] if op is _PROD else [s for _, s in entry[2]]
            if children and not 0 <= min(children) <= max(children) < slot:
                raise ValidationError(f"tape slot {slot} reads a slot not before it")
            level[slot] = 1 + max(map(level.__getitem__, children), default=0)
            # a term-less slot takes one pad term, so its bucket is arity 1's
            bucket = (op, max(len(children), 1).bit_length())
            members.setdefault(level[slot], {}).setdefault(bucket, []).append(slot)

    pad_sum = num_nodes + len(consts)  # -0.0 with weight 1: the exact additive identity
    pad_prod = pad_sum + 1
    consts += [-0.0, 1.0]
    levels = []
    reductions = term_cells = padded_cells = 0
    top = num_nodes + len(consts)
    for depth in sorted(members):
        buckets = members[depth]  # keys sort relu | recip | prod, then by arity
        lo, src, coef, bias, spans, recip_slots = top, [], [], [], [], []
        for (op, _), slots in sorted(buckets.items()):
            if op is _PROD:
                terms = [[(1.0, row[s]) for s in tape[slot][1]] for slot in slots]
                pad = (1.0, pad_prod)
            else:
                terms = [[(c, row[s]) for c, s in tape[slot][2]] for slot in slots]
                pad = (1.0, pad_sum)
                # a zero bias is not added where there are terms
                bias += [
                    -0.0 if ts and tape[slot][1] == 0.0 else tape[slot][1]
                    for slot, ts in zip(slots, terms)
                ]
                if op is _RECIP:
                    recip_slots += slots
            arity = max(1, *map(len, terms))
            cells = [ts[j] if j < len(ts) else pad for j in range(arity) for ts in terms]
            spans.append((op, len(src), arity, top, len(slots)))
            src += [r for _, r in cells]
            if op is not _PROD:
                coef += [c for c, _ in cells]
            for j, slot in enumerate(slots):
                row[slot] = top + j
            top += len(slots)
            term_cells += sum(map(len, terms))
        n_relu = sum(n for op, _, _, _, n in spans if op is _RELU)
        n_sums = n_relu + len(recip_slots)
        coef = np.array(coef)[:, None]
        bias = np.array(bias)[:, None]
        levels.append(
            Level(
                relu=slice(lo, lo + n_relu),
                recip=slice(lo + n_relu, lo + n_sums),
                src=np.array(src, dtype=np.intp),
                buckets=spans,
                sum_cells=len(coef),
                coef=None if (coef == 1.0).all() else coef,
                bias=None if ((bias == 0.0) & np.signbit(bias)).all() else bias,
                recip_slots=np.array(recip_slots, dtype=np.intp),
            )
        )
        reductions += len(spans)
        padded_cells += len(src)

    next_rows = np.arange(num_nodes)
    for name, slot in node_slot.items():
        next_rows[node_index[name]] = row[slot]
    return Schedule(
        num_rows=top,
        const_values=np.array(consts, dtype=np.float64),
        levels=levels,
        next_rows=next_rows,
        reductions=reductions,
        term_cells=term_cells,
        padded_cells=padded_cells,
    )
