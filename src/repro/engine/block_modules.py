"""Lane-wise counter / bit-vector execution for the block scanner.

The scalar interpreter processes each module one byte at a time:
counters hold one register (reset-wins semantics), bit vectors hold a
shift register of token ages (the counting-set representation of
:mod:`repro.nca.counting_sets`, Section 3.2.1).  Those per-byte
recurrences have *closed forms over a block* once the module's input
signals are available over the whole block, which is exactly what the
block sweep computes for every STE anyway -- as a boolean lane, or as
sorted positions when the STE is sparse.  Sparse ``pre`` drivers give
the token entries directly (one position later); inputs a closed form
reads lane-wise (``fst``/``lst`` prefix sums, a free-standing bit
vector's body breaks) are scattered into a lane first:

* **absorbed modules** (a counter or bit vector fused with its single
  body STE, below) -- a token enters at ``e`` where a body signal
  meets the ``pre`` latched one cycle earlier, holds value
  ``t - e + 1`` and lives on ``[e, min(e+hi-1, next body break) - 1]``;
  a counter's token is also cut at the next entry, which resets the
  register.  Occupancy, ``en_out`` (``[e+lo-1, end]``) and the
  auxiliary output (``[e, min(end, e+hi-2)]``) are unions of those
  intervals: one sorted merge over the entries, one fill of the lane.
  Carried registers from the previous block are tokens entered at
  negative positions, so no lane is extended by ``hi``.  Free-standing
  bit vectors take the same form over their gathered body lane.
* **free-standing counter** -- ``count[t]`` follows ``fst`` pulses by
  prefix sums: with ``C = cumsum(fst)`` and ``r[t]`` the latest reset
  position (a ``fst`` pulse arriving with a latched ``pre``),
  ``count[t] = C[t] - C[r[t]] + 1`` after a reset and ``carry + C[t]``
  before any; ``en_out``/``en_fst`` are then elementwise tests against
  ``[lo, hi]`` on ``lst`` cycles.

The catch is wiring: emitted module fragments always close a one-STE
feedback loop (``en_fst`` re-arms the counter body, ``en_body`` holds
the bit-vector body STE), so module lanes and STE lanes are mutually
recursive.  :func:`analyze` recognizes those loop shapes structurally
-- the *absorbed* templates below -- and collapses each loop into a
single node whose closed form covers both the module and its body
STE.  What remains must be acyclic (same-cycle module signals plus
next-cycle enables, jointly); any other feedback (multi-STE counter
bodies, nested counting) rejects the whole tables and the scanner
keeps its optimistic-sweep-plus-rescan fallback.

All closed forms reproduce the interpreter bit for bit: reports,
``ActivityStats`` (including per-module op counts and weighted
bit-vector ops), and the carried scalar state (enable mask, counter
registers, shift registers, latched ``pre``, dirty set) written back
at each block boundary, so vector and scalar blocks interleave freely
mid-stream.
"""

from __future__ import annotations

from typing import Optional

from .tables import (
    KIND_BIT_VECTOR,
    KIND_COUNTER,
    PORT_BODY,
    PORT_FST,
    PORT_LST,
    PORT_PRE,
    SRC_AUX,
    SRC_OUT,
    TransitionTables,
    module_wiring,
)

__all__ = ["ModulePlan", "ModuleProgram", "analyze", "eval_module", "union_points"]


class ModulePlan:
    """One module's vector-execution recipe (see :func:`analyze`)."""

    __slots__ = (
        "index",
        "kind",
        "lo",
        "hi",
        "all_input",
        "weight",
        "reports",
        "report_id",
        "absorbed",
        "fst_stes",
        "fst_mods",
        "lst_stes",
        "lst_mods",
        "body_stes",
        "body_mods",
        "pre_stes",
        "pre_mods",
        "out_targets",
        "aux_targets",
    )


class ModuleProgram:
    """Combined STE+module evaluation order for one tables object.

    ``steps`` interleaves ``(0, ste_index)`` and ``(1, module_index)``
    entries in dependency order; ``absorbed_of`` maps each body STE
    folded into a module's closed form to that module; ``mod_preds``
    lists, per non-absorbed STE, the ``(module, SRC_*)`` outputs that
    enable it (the next-cycle analogue of ``succ_masks``); ``wakes``
    lists, per STE, the nodes (successor STE ``w`` or module ``n + m``)
    its occupancy lane drives.
    """

    __slots__ = ("plans", "steps", "absorbed_of", "mod_preds", "wakes")


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return out


def _try_absorb(
    tables: TransitionTables,
    plan: ModulePlan,
    preds: list[list[int]],
    has_self: list[bool],
    always_eff: list[bool],
    start_flag: list[bool],
    ste_mod_drivers: dict[int, list[tuple[int, int]]],
) -> Optional[int]:
    """The absorbed-loop templates.

    A module qualifies when its auxiliary output re-arms exactly one
    non-always STE ``s`` that is, in turn, the module's only body
    (bit vector) or fst+lst (counter) driver, and ``s`` is enabled by
    precisely the same sources that pulse the module's ``pre`` -- the
    shape :mod:`repro.compiler.emit` produces for every ``Sym``-body
    repetition.  Then ``s``'s occupancy and the module's outputs share
    one closed form and the feedback edge disappears from the graph.
    """
    m = plan.index
    aux_mask = tables.aux_ste_masks[m]
    if aux_mask == 0 or aux_mask & (aux_mask - 1):
        return None  # need exactly one re-armed STE
    s = aux_mask.bit_length() - 1
    if always_eff[s] or has_self[s]:
        return None
    if tables.aux_module_hooks[m]:
        return None
    if plan.all_input:
        return None  # ALL_INPUT loops pair with an always body STE
    if start_flag[s] != tables.module_initial_pre[m]:
        return None
    hooks = tables.ste_module_hooks[s] or ()
    if plan.kind == KIND_BIT_VECTOR:
        if set(hooks) != {(m, PORT_BODY)}:
            return None
        if plan.body_stes != (s,) or plan.body_mods:
            return None
    else:
        if set(hooks) != {(m, PORT_FST), (m, PORT_LST)}:
            return None
        if plan.fst_stes != (s,) or plan.lst_stes != (s,):
            return None
        if plan.fst_mods or plan.lst_mods:
            return None
    # s's enable sources must equal the module's `pre` sources, so
    # "s entered with a latched pre" is exactly "some upstream source
    # fired last cycle" -- the closed forms lean on that equivalence.
    if set(preds[s]) != set(plan.pre_stes):
        return None
    s_mod_drivers = set(ste_mod_drivers.get(s, ())) - {(m, SRC_AUX)}
    if s_mod_drivers != set(plan.pre_mods):
        return None
    return s


def analyze(
    tables: TransitionTables,
    preds: list[list[int]],
    succ_lists: list[list[int]],
    has_self: list[bool],
    always_eff: list[bool],
    start_flag: list[bool],
) -> Optional[ModuleProgram]:
    """Build the combined STE+module program, or ``None`` when these
    tables cannot run module activity inside vector sweeps."""
    n = tables.n_stes
    nm = tables.n_modules
    wiring = module_wiring(tables)

    plans: list[ModulePlan] = []
    for m in range(nm):
        plan = ModulePlan()
        plan.index = m
        plan.kind = tables.module_kinds[m]
        plan.lo = tables.module_lo[m]
        plan.hi = tables.module_hi[m]
        if plan.lo < 1 or plan.hi < plan.lo:
            return None
        plan.all_input = tables.module_all_input[m]
        plan.weight = tables.bv_weights[m]
        plan.reports = tables.module_reports[m]
        plan.report_id = tables.module_report_ids[m]
        sd = wiring.ste_drivers[m]
        md = wiring.module_drivers[m]
        plan.fst_stes = sd.get(PORT_FST, ())
        plan.lst_stes = sd.get(PORT_LST, ())
        plan.body_stes = sd.get(PORT_BODY, ())
        plan.pre_stes = sd.get(PORT_PRE, ())
        plan.fst_mods = md.get(PORT_FST, ())
        plan.lst_mods = md.get(PORT_LST, ())
        plan.body_mods = md.get(PORT_BODY, ())
        plan.pre_mods = md.get(PORT_PRE, ())
        plans.append(plan)

    # module outputs driving each STE, in module order: indexed once
    # for the templates and the per-STE module predecessors below
    ste_mod_drivers: dict[int, list[tuple[int, int]]] = {}
    for m in range(nm):
        for w in _bits(tables.out_ste_masks[m]):
            ste_mod_drivers.setdefault(w, []).append((m, SRC_OUT))
        for w in _bits(tables.aux_ste_masks[m]):
            ste_mod_drivers.setdefault(w, []).append((m, SRC_AUX))

    absorbed_of: dict[int, int] = {}
    for plan in plans:
        s = _try_absorb(
            tables, plan, preds, has_self, always_eff, start_flag, ste_mod_drivers
        )
        plan.absorbed = s
        if s is not None:
            if s in absorbed_of:
                return None  # two modules claiming one body STE
            absorbed_of[s] = plan.index

    # Remaining feedback (aux re-arming a live STE outside a template)
    # would make the sweep order-dependent; the combined topological
    # sort below is the single gate -- templates merely removed the
    # loop edges they proved closed-form-safe.
    for plan in plans:
        if plan.absorbed is not None:
            continue
        for s in _bits(tables.aux_ste_masks[plan.index]):
            if not always_eff[s]:
                return None

    # -- combined dependency graph ------------------------------------------
    # Node ids: STE i -> i (skipping absorbed STEs), module m -> n + m.
    # Edges point driver -> dependent; enables into always-on STEs add
    # no lane dependency (their occupancy is plain membership).
    total = n + nm

    def node_of_ste(i: int) -> int:
        owner = absorbed_of.get(i)
        return i if owner is None else n + owner

    present = [True] * total
    for s in absorbed_of:
        present[s] = False

    adj: list[list[int]] = [[] for _ in range(total)]
    indeg = [0] * total

    def add_edge(a: int, b: int) -> None:
        if a != b:
            adj[a].append(b)
            indeg[b] += 1

    for u in range(n):
        src = node_of_ste(u)
        for w in succ_lists[u]:
            if not always_eff[w]:
                add_edge(src, node_of_ste(w))
        hooks = tables.ste_module_hooks[u]
        if hooks is not None:
            for m, _port in hooks:
                add_edge(src, n + m)
    for m in range(nm):
        src = n + m
        for w in _bits(tables.out_ste_masks[m] | tables.aux_ste_masks[m]):
            if not always_eff[w]:
                add_edge(src, node_of_ste(w))
        for hooks in (tables.out_module_hooks[m], tables.aux_module_hooks[m]):
            if hooks is not None:
                for m2, _port in hooks:
                    add_edge(src, n + m2)

    n_present = sum(present)
    queue = [v for v in range(total) if present[v] and indeg[v] == 0]
    order: list[int] = []
    while queue:
        v = queue.pop()
        order.append(v)
        for w in adj[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if len(order) != n_present:
        return None  # genuine cycle: nested counting / odd wiring

    # Nodes each lane must wake downstream (pruning seeds): STE w is
    # node w, module m is node n + m.  The absorbed STE's own
    # successors are woken through its occupancy lane.
    for plan in plans:
        m = plan.index
        plan.out_targets = tuple(
            w for w in _bits(tables.out_ste_masks[m]) if not always_eff[w]
        ) + _module_nodes(n, tables.out_module_hooks[m])
        plan.aux_targets = tuple(
            w
            for w in _bits(tables.aux_ste_masks[m])
            if not always_eff[w] and w != plan.absorbed
        ) + _module_nodes(n, tables.aux_module_hooks[m])
    wakes = [
        tuple(succ_lists[u]) + _module_nodes(n, tables.ste_module_hooks[u])
        for u in range(n)
    ]

    mod_preds: list[tuple[tuple[int, int], ...]] = [()] * n
    for w, drivers in ste_mod_drivers.items():
        if w not in absorbed_of:
            mod_preds[w] = tuple(drivers)

    program = ModuleProgram()
    program.plans = plans
    program.steps = [
        (0, v) if v < n else (1, v - n) for v in order
    ]
    program.absorbed_of = absorbed_of
    program.mod_preds = mod_preds
    program.wakes = wakes
    return program


def _module_nodes(n: int, hooks) -> tuple[int, ...]:
    """Graph nodes of the modules a lane signals through ``hooks``."""
    if hooks is None:
        return ()
    return tuple(sorted({n + m for m, _port in hooks}))


# -- per-block lane evaluation ---------------------------------------------


def _gather(np, stes, mods, occ, pos, mod_out, mod_aux):
    """OR together driver signals; ``None`` when every driver is idle.

    An STE signal is its dense lane ``occ[u]`` or, when it has none, its
    sorted positions ``pos[u]``; module outputs are always dense lanes.
    When every live driver is sparse the result stays sparse (sorted,
    distinct positions), otherwise it is a dense lane.  The result may
    alias a driver's array -- callers treat it as read-only."""
    lane = None
    owned = False
    points = None
    for u in stes:
        lu = occ[u]
        if lu is None:
            pu = pos[u]
            if pu is not None:
                if points is None:
                    points = [pu]
                else:
                    points.append(pu)
            continue
        if lane is None:
            lane = lu
        elif owned:
            np.logical_or(lane, lu, out=lane)
        else:
            lane = np.logical_or(lane, lu)
            owned = True
    for j, src in mods:
        lj = mod_out[j] if src == SRC_OUT else mod_aux[j]
        if lj is None:
            continue
        if lane is None:
            lane = lj
        elif owned:
            np.logical_or(lane, lj, out=lane)
        else:
            lane = np.logical_or(lane, lj)
            owned = True
    if points is None:
        return lane
    if lane is None:
        return points[0] if len(points) == 1 else union_points(np, points)
    if not owned:
        lane = lane.copy()
    for pu in points:
        lane[pu] = True
    return lane


def union_points(np, parts):
    """Sorted distinct union of several position arrays (a sort and an
    adjacent-duplicate drop: ``np.unique`` takes a slower hash path)."""
    points = np.concatenate(parts)
    points.sort()
    keep = np.empty(len(points), dtype=bool)
    keep[:1] = True
    np.not_equal(points[1:], points[:-1], out=keep[1:])
    return points[keep]


def _is_lane(signal) -> bool:
    return signal.dtype == bool


def _dense(np, blen, signal):
    """``signal`` as a boolean lane (``None`` stays ``None``)."""
    if signal is None or _is_lane(signal):
        return signal
    lane = np.zeros(blen, dtype=bool)
    lane[signal] = True
    return lane


def _fires_last(blen, signal) -> bool:
    """Does a live ``signal`` fire at the block's last position?"""
    if _is_lane(signal):
        return bool(signal[-1])
    return bool(signal[-1] == blen - 1)


def _nonzero_or_none(np, lane):
    if lane is not None and not lane.any():
        return None
    return lane


#: what an evaluator returns for a module that stays silent all block
_SILENT = (None, None, None, False)


def eval_module(np, plan, blen, occ, pos, mod_out, mod_aux, memb, enabled_bit, scalar, acc):
    """Evaluate one module over a block.

    STE drivers arrive as dense lanes (``occ``) or sorted positions
    (``pos``), see :func:`_gather`.

    Returns ``(s_occ, out_lane, aux_lane, arm_aux)``: the absorbed
    body STE's occupancy (``None`` for free-standing modules or when it
    never fires), the ``en_out`` / auxiliary output lanes (``None``
    when silent; always ``None`` for the auxiliary output of an
    absorbed module, whose only reader is its own body STE), and
    whether the module's auxiliary STE targets are enabled for the
    next block.  Stats deltas go into ``acc = [counter_ops, bv_ops,
    bv_weighted]``; module registers / dirty bookkeeping are written
    back to ``scalar`` directly.
    """
    m = plan.index
    prep = _gather(np, plan.pre_stes, plan.pre_mods, occ, pos, mod_out, mod_aux)
    pre0 = scalar._pre[m]

    if plan.kind == KIND_COUNTER:
        if plan.absorbed is not None:
            result = _eval_counter_absorbed(
                np, plan, blen, memb, prep, pre0, enabled_bit, scalar, acc
            )
        else:
            result = _eval_counter_free(
                np, plan, blen, occ, pos, mod_out, mod_aux, prep, pre0, scalar, acc
            )
    elif plan.absorbed is not None:
        result = _eval_bv(np, plan, blen, memb, prep, pre0, scalar, acc, absorbed=True)
    else:
        body = _gather(np, plan.body_stes, plan.body_mods, occ, pos, mod_out, mod_aux)
        body = _dense(np, blen, body)
        result = _eval_bv(np, plan, blen, body, prep, pre0, scalar, acc, absorbed=False)

    # The interpreter's latched ``pre`` lives exactly one cycle, so
    # after a block only the last position's pulse (or ALL_INPUT
    # re-arming) survives; a non-resting latch or a live shift register
    # keeps a module on the interpreter's dirty list.
    pre_last = prep is not None and _fires_last(blen, prep)
    pre = plan.all_input or pre_last
    scalar._pre[m] = pre
    if (pre and not plan.all_input) or scalar._bv[m]:
        scalar._dirty.add(m)
    else:
        scalar._dirty.discard(m)
    s_occ, out, aux, aux_last = result
    # the interpreter's pre-latch loop also enables a bit vector's body
    # STE for the cycle after any pre pulse
    return s_occ, out, aux, aux_last or (pre_last and plan.kind == KIND_BIT_VECTOR)


def _pre_lane(np, blen, prep, pre0):
    """The `pre` value *consumed* at each position: latched one cycle
    earlier (carry at position 0)."""
    lane = np.zeros(blen, dtype=bool)
    lane[0] = pre0
    if prep is not None:
        if _is_lane(prep):
            lane[1:] = prep[:-1]
        else:
            lane[_latched(blen, prep)] = True
    return lane


def _latched(blen, points):
    """Where sparse `pre` pulses are consumed: one position later,
    dropping a pulse at the block's last position (the carry)."""
    if points[-1] == blen - 1:
        points = points[:-1]
    return points + 1


def _eval_counter_free(np, plan, blen, occ, pos, mod_out, mod_aux, prep, pre0, scalar, acc):
    """Free-standing counter: inputs are ordinary lanes, the register
    follows ``fst`` pulses by prefix sums with reset-wins gathers."""
    m = plan.index
    drivers = (occ, pos, mod_out, mod_aux)
    fst = _dense(np, blen, _gather(np, plan.fst_stes, plan.fst_mods, *drivers))
    lst = _dense(np, blen, _gather(np, plan.lst_stes, plan.lst_mods, *drivers))
    c_in = scalar._counts[m]
    if fst is None and lst is None:
        return _SILENT

    if fst is None:
        # register untouched: `lst` only reads it
        out = lst if plan.lo <= c_in <= plan.hi else None
        aux = lst if c_in < plan.hi else None
        acc[0] += int(np.count_nonzero(lst))
    else:
        if plan.all_input:
            resets = fst  # `pre` re-armed every cycle: every fst resets
        else:
            resets = fst & _pre_lane(np, blen, prep, pre0)
        C = np.cumsum(fst)
        idx = np.arange(blen)
        r = np.maximum.accumulate(np.where(resets, idx, -1))
        unreset = r < 0
        count = C - C[np.maximum(r, 0)] + 1
        if unreset.any():
            count[unreset] = C[unreset] + c_in
        scalar._counts[m] = int(count[-1])
        if lst is None:
            out = aux = None
            acc[0] += int(np.count_nonzero(fst))
        else:
            out = lst & (count >= plan.lo) & (count <= plan.hi)
            aux = lst & (count < plan.hi)
            acc[0] += int(np.count_nonzero(fst | lst))
    aux = _nonzero_or_none(np, aux)
    return None, _nonzero_or_none(np, out), aux, aux is not None and bool(aux[-1])


# -- interval closed forms for absorbed counters and bit vectors -----------


def _entries(np, body, prep, pre0, all_input):
    """Ascending positions where a token enters: a body signal meeting
    the `pre` latched one cycle earlier (every body signal when the
    module is ALL_INPUT).  ``prep`` is a lane or sparse positions."""
    if all_input:
        return np.flatnonzero(body)
    if prep is None:
        ent = np.empty(0, dtype=np.intp)
    else:
        if _is_lane(prep):
            ent = np.flatnonzero(prep[:-1]) + 1
        else:
            ent = _latched(len(body), prep)
        ent = ent[body[ent]]
    if pre0 and body[0]:
        ent = np.concatenate(([0], ent))
    return ent


def _token_ends(np, body, ent, hi):
    """Each token's interval: entered at ``ent``, it lives from
    ``max(ent, 0)`` for ``hi`` cycles of age, cut short by the first
    body break at or after that position.  Returns ``(starts, ends)``,
    both ascending; ``ends < starts`` marks a carried token that dies at
    the block's first position."""
    starts = np.maximum(ent, 0)
    breaks = np.flatnonzero(~body)
    next_break = np.append(breaks, len(body))[np.searchsorted(breaks, starts)]
    ends = np.minimum(ent + (hi - 1), next_break - 1)
    return starts, ends


def _lane(np, blen, starts, ends):
    """The boolean lane covering the inclusive intervals ``[starts[i],
    ends[i]]``, whose starts and ends both ascend (empty ones allowed),
    or ``None`` when it covers nothing.

    Clipping each interval to begin after its predecessor's end makes
    them disjoint without changing their union, so one ``np.repeat`` of
    alternating gap/run values fills the lane."""
    k = len(starts)
    bounds = np.empty(2 * k + 2, dtype=np.intp)
    opens = bounds[1:-1:2]
    opens[:] = starts
    np.maximum(opens[1:], ends[:-1] + 1, out=opens[1:])
    np.minimum(opens, blen, out=opens)
    np.maximum(ends + 1, opens, out=bounds[2:-1:2])
    bounds[0] = 0
    bounds[-1] = blen
    lengths = np.diff(bounds)
    if not lengths[1::2].any():
        return None
    values = np.zeros(2 * k + 1, dtype=bool)
    values[1::2] = True
    return np.repeat(values, lengths)


def _eval_counter_absorbed(np, plan, blen, memb, prep, pre0, enabled_bit, scalar, acc):
    """Counter fused with its single body STE ``s``.

    Every entry -- a `pre` pulse landing on ``s``'s membership -- resets
    the register to 1; ``s`` then holds, with the entry's age as its
    register, on ``[e, min(e+hi-1, next break - 1, next entry - 1)]``.
    The carried register is an entry at ``-count``, gated on ``s``'s
    carried enable bit (a carried enable implies ``count < hi``: it came
    from ``en_fst``, which fires only below ``hi``).
    """
    m = plan.index
    hi = plan.hi
    if prep is None and not pre0 and not enabled_bit:
        return _SILENT

    ent = _entries(np, memb, prep, pre0, False)
    if enabled_bit and not pre0:
        ent = np.concatenate(([-scalar._counts[m]], ent))
    starts, ends = _token_ends(np, memb, ent, hi)
    # the next entry resets the register
    np.minimum(ends[:-1], ent[1:] - 1, out=ends[:-1])
    held = _lane(np, blen, starts, ends)
    if held is None:
        return _SILENT

    acc[0] += int(np.count_nonzero(held))  # fst and lst pulse together
    # only a carried entry can be empty, and it comes first; only the
    # last entry can still hold at the block's last position
    age = int(ends[-1] - ent[-1] + 1)
    scalar._counts[m] = age
    out = _lane(np, blen, np.maximum(ent + (plan.lo - 1), 0), ends)
    return held, out, None, bool(ends[-1] == blen - 1 and age < hi)


def _eval_bv(np, plan, blen, body, prep, pre0, scalar, acc, absorbed):
    """Bit vector, fused or free-standing.

    ``body`` is the body-signal lane: the absorbed body STE's symbol
    membership (its occupancy *is* the token-aliveness lane), or the
    gathered body-port drivers.  A token entered at ``e`` holds value
    ``t - e + 1`` on ``[e, min(e+hi-1, next body break - 1)]``; the
    aliveness, ``en_out`` (``[e+lo-1, end]``) and auxiliary
    (``[e, min(end, e+hi-2)]``) lanes are unions of those intervals.
    Carried shift-register bits are tokens entered at negative ``e``.
    """
    m = plan.index
    hi = plan.hi
    v_in = scalar._bv[m]
    if body is None and not absorbed:
        # no body signals at all: a carried value dies (one op) at the
        # first position, exactly like the interpreter's dirty pass
        if v_in:
            acc[1] += 1
            acc[2] += plan.weight
            scalar._bv[m] = 0
        return _SILENT
    if absorbed and v_in == 0 and prep is None and not pre0:
        return _SILENT

    ent = _entries(np, body, prep, pre0, plan.all_input)
    if v_in == 0 and not len(ent):
        if not absorbed:
            # body pulses but nothing ever enters: each pulse is still
            # a (shift-of-zero) op in the interpreter's accounting
            pulses = int(np.count_nonzero(body))
            acc[1] += pulses
            acc[2] += plan.weight * pulses
        # absorbed: the body STE only runs while a token holds it, so
        # with no tokens there are no body signals (and no ops) at all
        return _SILENT

    if v_in:
        # bit j of the register: a token of age j+1 one cycle ago
        ages = np.flatnonzero(
            np.unpackbits(
                np.frombuffer(v_in.to_bytes((hi + 7) // 8, "little"), dtype=np.uint8),
                bitorder="little",
            )
        )
        ent = np.concatenate((-1 - ages[::-1], ent))
    starts, ends = _token_ends(np, body, ent, hi)
    live = _lane(np, blen, starts, ends)

    # one op per body signal or per carried-value decay step (for the
    # absorbed form the body STE's activity *is* the aliveness lane)
    signals = live if absorbed else body
    ops = int(v_in != 0 and (signals is None or not signals[0]))
    if signals is not None:
        ops += int(np.count_nonzero(signals))
    if live is not None:
        ops += int(np.count_nonzero(live[:-1] > signals[1:]))
    acc[1] += ops
    acc[2] += plan.weight * ops

    T = blen - 1
    alive = ent[ends == T]
    if len(alive):
        bits = np.zeros(hi, dtype=bool)
        bits[T - alive] = True  # bit = token age at T, minus one
        scalar._bv[m] = int.from_bytes(
            np.packbits(bits, bitorder="little").tobytes(), "little"
        )
    else:
        scalar._bv[m] = 0
    out = _lane(np, blen, np.maximum(ent + (plan.lo - 1), 0), ends)
    # the youngest live token is below age hi
    aux_last = bool(len(alive) and T - alive[-1] + 1 < hi)
    if absorbed:
        return live, out, None, aux_last
    aux = _lane(np, blen, starts, np.minimum(ends, ent + (hi - 2)))
    return None, out, aux, aux_last
