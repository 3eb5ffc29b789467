"""NumPy bit-parallel block scanner (the ``"block"`` backend).

:class:`~repro.engine.scanner.StreamScanner` interprets the transition
tables one byte at a time; every byte pays Python dispatch for the
enable/match/successor recurrence even though most of the work is
embarrassingly data-parallel across input positions.  This module
trades the per-byte loop for *per-block* vector sweeps, the same move
GPU IDS engines make when they batch the byte->class indirection
(Bellekens et al.): load a block of input, translate it to alphabet
classes in one gather, then evaluate STE occupancy over the whole
block as NumPy boolean lanes or position arrays.

How a block is scanned
----------------------
For a network whose per-cycle activity is STE-only, STE ``v``'s
occupancy over a block satisfies::

    occ[v][t] = memb[v][t] and (always[v]
                                or occ[u][t-1] for some predecessor u
                                or carried enable at t == 0)

where ``memb[v] = class_row[v][byte_class[block]]`` (STEs with the
same symbol set -- run chains -- share one row).  The block's bytes
become classes in one gather, then STEs are evaluated in topological
order; an STE that stays silent prunes its entire downstream cone for
the block -- literal chains die after a couple of levels, which is
where the asymptotic win over the scalar interpreter comes from.  Only
woken steps are visited: a bytearray flags them by position in the
order and ``bytearray.find`` jumps to the next, so a block of the
2,000-rule corpus touches a few hundred of its ~11,000 steps instead
of testing each.

Each live STE holds one of two forms:

* **sparse** -- a sorted ``intp`` array of the positions where it is
  active.  Its candidates are every live predecessor's positions plus
  one (and position 0 on a carried or start enable); one gather,
  ``class_row[v][cls[cand]]``, keeps those where the symbol matches.
  A sentinel class at index ``blen``, which no row matches, drops a
  predecessor's hit at the block's last position without a bounds
  check.  Activations are the array's length, reports its elements,
  and the carried enable is ``positions[-1] == blen - 1``.  No
  block-length work happens at all, so scan cost follows the block's
  activity instead of ``#STEs x block length``.
* **dense** -- a boolean lane, one element per position: membership
  gathered over the whole block, then one shifted AND/OR per live
  predecessor (a sparse predecessor is scattered in).  Always-on heads
  (occupancy is plain membership), self-loop STEs, and every STE whose
  candidates exceed ``_SPARSE_MAX_SHARE`` of the block are dense, and
  so is every STE of a block shorter than ``_SPARSE_MIN_BLOCK`` --
  below it the sparse form's per-STE NumPy calls cost more than its
  gathers save.  Module outputs are always dense lanes.  A dense lane
  hands a sparse successor its ``flatnonzero`` once.

Self-loop STEs (``a+``/``a*`` tails) stay vectorizable through the
run-length closed form: the self-loop holds at ``t`` iff some enable
arrived inside the current unbroken symbol run, i.e.
``last_enable_index >= run_start_index``, both one
``np.maximum.accumulate`` away.  Networks with longer feedback cycles
fall back to the scalar interpreter outright (``vector_ok`` is False).

Stats and reports are exact, not approximate, in either form, so the
backend meets the same ``ActivityStats``-exact contract as the scalar
engine; :attr:`BlockScanner.sweep_stats` counts the sparse and dense
lanes a stream evaluated.

Counter / bit-vector modules
----------------------------
Module-free tables with an acyclic STE graph run through the same
sweep, as a program without module steps.  Module activity runs
*inside* the sweep whenever the combined
STE+module dependency graph is acyclic after
:mod:`repro.engine.block_modules` collapses the emitted one-STE
feedback loops (``en_fst`` re-arming a counter body, ``en_body``
holding a bit-vector body STE) into closed-form nodes: each token
entry lives on one interval of the block, module outputs are unions of
those intervals, free-standing counter registers are prefix sums over
``fst`` lanes, and the carried scalar state (registers, latched
``pre``, dirty set) is written back at every block boundary.  Only
awake modules (dirty, an input lane fired, or an enabled absorbed
body STE) are evaluated.  Such blocks always commit -- no rescans -- and
reports/stats stay exactly equal to the interpreter's.

Tables whose module wiring genuinely cycles (nested counting,
multi-STE counter bodies) fall back to the *optimistic* strategy, an
STE-only sweep of dense lanes: module side effects can only begin at
an STE that drives a module port (``ste_module_hooks``), and those
STEs' occupancy lanes are computed by the sweep anyway.  If no hook STE fired in the block and
every module was at rest when it started, the vector result is
committed; otherwise the block is rescanned by the embedded scalar
:class:`StreamScanner`, which owns all module state.  A streak of
consecutive aborted sweeps (no commit in between) disables further
vector attempts; the disable *decays* -- after enough consecutive
module-quiescent scalar blocks the scanner re-arms sweeps, so a
module-dense burst does not condemn the rest of the stream to scalar
speed.  :attr:`BlockScanner.sweep_stats` surfaces the commit/rescan/
re-enable counters.

NumPy is an optional dependency: importing this module never raises,
and :func:`numpy_or_none` reports what the backend registry should say
when the import failed.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional

from ..mnrl.network import Network
from . import block_modules
from .scanner import Chunk, StreamScanner, coerce_chunk
from .tables import SRC_OUT, TransitionTables, compile_tables

try:  # NumPy is optional: the registry degrades gracefully without it
    import numpy as _np

    _NUMPY_ERROR: Optional[str] = None
except Exception as exc:  # pragma: no cover - exercised via monkeypatch
    _np = None
    _NUMPY_ERROR = f"{type(exc).__name__}: {exc}"

__all__ = [
    "BlockScanner",
    "BlockSweepStats",
    "numpy_or_none",
    "numpy_unavailable_reason",
    "DEFAULT_BLOCK_SIZE",
]

#: Input positions evaluated per vector sweep.  Measured sweet spot on
#: Snort-scale STE-only tables: large enough to amortize per-STE NumPy
#: call overhead, small enough that occupancy lanes stay cache-resident.
DEFAULT_BLOCK_SIZE = 16384

#: Blocks shorter than this evaluate every STE lane densely: at 1 KiB
#: the per-lane NumPy calls of the sparse form cost more than its
#: gathers save (without this cut, 1 KiB blocks of ``snort_like(40)``
#: ran at 0.92x on a 2-vCPU VM).
_SPARSE_MIN_BLOCK = 4096

#: In a long block, an STE whose candidate positions (its live
#: predecessors' positions plus one) number more than this share of
#: the block length is evaluated as a dense lane instead.
_SPARSE_MAX_SHARE = 1 / 16

#: Consecutive vector sweeps discarded (module activity detected, no
#: commit in between) before BlockScanner stops attempting sweeps.
#: Only reachable on tables whose module wiring defeats in-sweep
#: execution (``full_ok`` False).
_RESCAN_LIMIT = 8

#: Consecutive module-quiescent scalar blocks consumed while sweeps
#: are disabled before the scanner re-arms vector sweeping.
_REENABLE_AFTER = 4


def numpy_or_none():
    """The ``numpy`` module, or ``None`` when it cannot be imported."""
    return _np


def numpy_unavailable_reason() -> Optional[str]:
    """Why NumPy is unavailable (``None`` when it imported fine)."""
    if _np is None:
        return _NUMPY_ERROR or "import numpy failed"
    return None


class _BlockProgram:
    """Per-tables derived arrays shared by every :class:`BlockScanner`.

    Building the STE graph and the class-row matrix is O(STEs + edges);
    scanners over the same tables share one program via
    :func:`_program_for`.
    """

    __slots__ = (
        "vector_ok",
        "pure",
        "full_ok",
        "topo",
        "preds",
        "succ_lists",
        "has_self",
        "always_flag",
        "start_flag",
        "report_flag",
        "hook_flag",
        "always_list",
        "always_eff_flag",
        "always_eff_list",
        "start_list",
        "row_of",
        "uniq_rows",
        "cand_rows",
        "sentinel_class",
        "sole_pred",
        "byte_class_arr",
        "mod_plans",
        "steps",
        "mod_preds",
        "step_of",
        "wakes",
        "out_wakes",
        "aux_wakes",
        "always_steps",
        "start_steps",
    )

    def __init__(self, tables: TransitionTables):
        np = _np
        assert np is not None
        n = tables.n_stes
        succ = tables.succ_masks

        preds: list[list[int]] = [[] for _ in range(n)]
        succ_lists: list[list[int]] = [[] for _ in range(n)]
        has_self = [False] * n
        for i in range(n):
            mask = succ[i]
            while mask:
                low = mask & -mask
                mask ^= low
                j = low.bit_length() - 1
                if j == i:
                    has_self[i] = True
                else:
                    preds[j].append(i)
                    succ_lists[i].append(j)

        # Kahn topological order, self-loops excluded (they have a
        # vectorized closed form); any longer cycle makes the block
        # recurrence order-dependent and forces the scalar path.
        indegree = [len(p) for p in preds]
        queue = [i for i in range(n) if indegree[i] == 0]
        topo: list[int] = []
        while queue:
            v = queue.pop()
            topo.append(v)
            for w in succ_lists[v]:
                indegree[w] -= 1
                if indegree[w] == 0:
                    queue.append(w)
        self.vector_ok = len(topo) == n and tables.const_enable_mask == 0
        self.pure = tables.n_modules == 0
        self.topo = topo
        self.preds = preds
        self.succ_lists = succ_lists
        self.has_self = has_self

        self.always_flag = _mask_flags(tables.always_mask, n)
        self.start_flag = _mask_flags(tables.start_mask, n)
        self.report_flag = _mask_flags(tables.report_ste_mask, n)
        self.hook_flag = [hooks is not None for hooks in tables.ste_module_hooks]
        self.always_list = [i for i in range(n) if self.always_flag[i]]
        self.start_list = [i for i in range(n) if self.start_flag[i]]

        # STEs the interpreter enables every cycle regardless of
        # drives: ALL_INPUT starts plus const_enable targets (ALL_INPUT
        # bit vectors re-arming their body).  For lane purposes both
        # mean "occupancy is plain membership".
        const_flag = _mask_flags(tables.const_enable_mask, n)
        self.always_eff_flag = [
            a or c for a, c in zip(self.always_flag, const_flag)
        ]
        self.always_eff_list = [i for i in range(n) if self.always_eff_flag[i]]

        # In-sweep module execution: collapse emitted feedback loops
        # and demand a combined acyclic order (see block_modules).
        mod_program = None
        if tables.n_modules:
            mod_program = block_modules.analyze(
                tables,
                preds,
                succ_lists,
                has_self,
                self.always_eff_flag,
                self.start_flag,
            )
        self.mod_plans = self.steps = self.mod_preds = self.step_of = None
        self.wakes = self.out_wakes = self.aux_wakes = None
        self.always_steps = self.start_steps = None
        if mod_program is None:
            self.full_ok = self.vector_ok and tables.n_modules == 0
            if self.full_ok:
                # module-free: the STE-only program of the same sweep
                self.steps = [(0, v) for v in topo]
                self.mod_preds = [()] * n
                self._index_steps(n, [tuple(s) for s in succ_lists], {}, [])
        else:
            self.full_ok = True
            self.mod_plans = mod_program.plans
            self.steps = mod_program.steps
            self.mod_preds = mod_program.mod_preds
            self._index_steps(
                n, mod_program.wakes, mod_program.absorbed_of, mod_program.plans
            )
        # the sweep's commonest STE: one STE predecessor, nothing else
        self.sole_pred = [
            preds[v][0]
            if len(preds[v]) == 1
            and not (has_self[v] or self.always_eff_flag[v])
            and not (self.mod_preds and self.mod_preds[v])
            else -1
            for v in range(n)
        ]

        # one bool row of n_classes per distinct symbol set; STEs with
        # identical symbol sets (all copies of an unfolded run) share a
        # row, so the per-block membership gather happens once per set
        match_rows = np.zeros((max(n, 1), tables.n_classes or 1), dtype=bool)
        n_bytes = (n + 7) // 8
        for c, mask in enumerate(tables.match_masks):
            bits = np.unpackbits(
                np.frombuffer(mask.to_bytes(n_bytes, "little"), dtype=np.uint8),
                bitorder="little",
            )
            match_rows[:n, c] = bits[:n]
        row_index: dict[bytes, int] = {}
        self.row_of = [0] * n
        for i in range(n):
            key = match_rows[i].tobytes()
            self.row_of[i] = row_index.setdefault(key, len(row_index))
        # one extra all-False column: the sentinel class of position
        # ``blen``, which a sparse candidate filter gathers for a
        # predecessor's last-position hit instead of bounds-checking
        self.sentinel_class = tables.n_classes or 1
        cand_rows = np.zeros((max(len(row_index), 1), self.sentinel_class + 1), dtype=bool)
        self.uniq_rows = cand_rows[:, :-1]
        for i in range(n):
            self.uniq_rows[self.row_of[i]] = match_rows[i]
        self.cand_rows = list(cand_rows)
        # intp, so every membership gather indexes without a conversion
        self.byte_class_arr = np.frombuffer(tables.byte_class, dtype=np.uint8).astype(np.intp)


    def _index_steps(self, n, wakes, absorbed_of, plans) -> None:
        """Re-address wake-ups by step position.  The sweep flags the
        steps it must run in a bytearray indexed by position in
        ``steps`` and jumps between flagged steps with ``find`` -- a
        corpus block wakes a few hundred of its ~11,000 steps.  An
        absorbed STE is addressed by its module's step."""
        step_of = [0] * (n + len(plans))
        for i, (kind, index) in enumerate(self.steps):
            step_of[index if kind == 0 else n + index] = i
        for s, m in absorbed_of.items():
            step_of[s] = step_of[n + m]
        self.step_of = step_of

        def steps_of(nodes):
            return tuple(sorted({step_of[w] for w in nodes}))

        self.wakes = [steps_of(nodes) for nodes in wakes]
        self.out_wakes = [steps_of(plan.out_targets) for plan in plans]
        self.aux_wakes = [steps_of(plan.aux_targets) for plan in plans]
        self.always_steps = steps_of(self.always_eff_list)
        self.start_steps = steps_of(self.start_list)


def _mask_flags(mask: int, n: int) -> list[bool]:
    return [bool((mask >> i) & 1) for i in range(n)]


# Programs are cached per tables object (keyed by id, cleaned up by a
# weakref finalizer) so repeated make_scanner calls over one compiled
# ruleset -- the facade builds a scanner per scan -- do not rebuild
# the graph.  TransitionTables is an eq-comparing dataclass and hence
# unhashable, so a WeakKeyDictionary is not an option.
_PROGRAMS: dict[int, _BlockProgram] = {}


def _program_for(tables: TransitionTables) -> _BlockProgram:
    key = id(tables)
    program = _PROGRAMS.get(key)
    if program is None:
        program = _BlockProgram(tables)
        _PROGRAMS[key] = program
        weakref.finalize(tables, _PROGRAMS.pop, key, None)
    return program


@dataclass(frozen=True)
class BlockSweepStats:
    """Sweep bookkeeping for one :class:`BlockScanner` stream.

    Makes claims like "this workload ran with zero scalar rescans"
    directly assertable instead of inferred from private attributes.
    """

    #: vector sweeps committed (pure or in-lane module blocks)
    committed_blocks: int
    #: sweeps discarded and replayed through the scalar interpreter
    rescans: int
    #: times the vector-disable streak decayed and sweeps re-armed
    reenables: int
    #: currently feeding scalar because of a rescan streak?
    sweeps_disabled: bool
    #: module activity runs inside sweeps on these tables (no-op True
    #: for module-free tables; False means the optimistic/rescan path)
    modules_vectorized: bool
    #: STE lanes evaluated as sorted position arrays
    sparse_lanes: int = 0
    #: STE lanes evaluated as dense boolean lanes
    dense_lanes: int = 0


class BlockScanner:
    """Drop-in :class:`StreamScanner` replacement with block sweeps.

    Same construction, streaming surface (``feed``/``finish``/
    ``reset``), report set, and ``ActivityStats`` as the scalar
    scanner; only the execution strategy differs.  ``feed`` returns the
    chunk's newly observed reports ordered by position (the scalar
    scanner's observation order is also position-ordered; ties between
    simultaneous reports may interleave differently).

    Raises :class:`RuntimeError` when NumPy is unavailable -- resolve
    through :mod:`repro.engine.backends` to degrade gracefully instead.
    """

    def __init__(
        self,
        source: TransitionTables | Network,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ):
        if _np is None:
            raise RuntimeError(
                f"BlockScanner requires numpy ({numpy_unavailable_reason()})"
            )
        if isinstance(source, Network):
            source = compile_tables(source)
        if block_size < 2:
            raise ValueError(f"block_size must be >= 2, got {block_size}")
        self.tables = source
        self.block_size = block_size
        self._scalar = StreamScanner(source)
        self._program = _program_for(source)
        #: total aborted sweeps (monotonic, introspection/tests)
        self._rescans = 0
        #: consecutive aborted sweeps since the last committed block
        self._fruitless = 0
        self._sweeps_disabled = False
        #: committed vector sweeps (monotonic)
        self._committed = 0
        #: disable-streak decays (monotonic)
        self._reenables = 0
        #: module-quiescent bytes consumed since sweeps were disabled
        self._quiet_bytes = 0
        #: STE lanes evaluated sparse / dense (monotonic)
        self._sparse_lanes = 0
        self._dense_lanes = 0

    # the embedded scalar scanner owns all mutable state, so fallback
    # blocks and vector commits observe one single source of truth
    @property
    def reports(self):
        """Distinct ``(position, report_id)`` pairs seen so far."""
        return self._scalar.reports

    @property
    def stats(self):
        return self._scalar.stats

    @property
    def bytes_fed(self) -> int:
        return self._scalar.bytes_fed

    @property
    def sweep_stats(self) -> BlockSweepStats:
        """Commit/rescan/re-enable counters for this stream so far."""
        program = self._program
        return BlockSweepStats(
            committed_blocks=self._committed,
            rescans=self._rescans,
            reenables=self._reenables,
            sweeps_disabled=self._sweeps_disabled,
            modules_vectorized=program.full_ok,
            sparse_lanes=self._sparse_lanes,
            dense_lanes=self._dense_lanes,
        )

    def reset(self) -> None:
        self._scalar.reset()
        self._rescans = 0
        self._fruitless = 0
        self._sweeps_disabled = False
        self._committed = 0
        self._reenables = 0
        self._quiet_bytes = 0
        self._sparse_lanes = 0
        self._dense_lanes = 0

    def finish(self):
        """Mark end-of-stream; returns the distinct report set."""
        return self._scalar.finish()

    def feed(self, chunk: Chunk):
        """Consume one chunk; return reports newly added by it."""
        if self._scalar._finished:
            raise RuntimeError("feed() after finish(); call reset() to rescan")
        chunk = coerce_chunk(chunk)
        program = self._program

        if program.full_ok:
            # module activity (if any) runs inside the sweep: every
            # block commits, the scalar interpreter never replays anything
            arr = _np.frombuffer(chunk, dtype=_np.uint8)
            new: list[tuple[int, Optional[str]]] = []
            length = len(arr)
            offset = 0
            block = self.block_size
            while offset < length:
                end = min(offset + block, length)
                self._vector_block_modules(arr[offset:end], new)
                self._committed += 1
                offset = end
            return new

        if not program.vector_ok:
            return self._scalar.feed(chunk)

        # module tables whose wiring the in-sweep closed forms reject:
        # optimistic STE-only sweeps, replayed on module activity

        arr = _np.frombuffer(chunk, dtype=_np.uint8)
        new = []
        length = len(arr)
        offset = 0
        block = self.block_size
        while offset < length:
            end = min(offset + block, length)
            if self._sweeps_disabled:
                # scalar blocks, but watch for module-quiescent runs
                # long enough to re-arm sweeping
                new.extend(self._scalar_feed_tracked(chunk[offset:end]))
            # modules holding state must see every byte: scalar block
            elif self._scalar._dirty:
                new.extend(self._scalar.feed(chunk[offset:end]))
            elif not self._vector_block(arr[offset:end], new):
                # a module port was signalled mid-block: discard the
                # sweep and replay the block through the interpreter
                self._rescans += 1
                self._fruitless += 1
                new.extend(self._scalar.feed(chunk[offset:end]))
                if self._fruitless >= _RESCAN_LIMIT:
                    # module-dense phase: stop paying for doomed sweeps
                    self._sweeps_disabled = True
                    self._quiet_bytes = 0
            offset = end
        return new

    def _scalar_feed_tracked(self, piece):
        """Scalar feed while sweeps are disabled; decays the disable
        after ``_REENABLE_AFTER`` blocks' worth of module-quiescent
        input so a module-dense burst is not a life sentence."""
        stats = self._scalar.stats
        ops_before = stats.counter_ops + stats.bit_vector_ops
        out = self._scalar.feed(piece)
        module_active = bool(self._scalar._dirty) or (
            stats.counter_ops + stats.bit_vector_ops != ops_before
        )
        if module_active:
            self._quiet_bytes = 0
        else:
            self._quiet_bytes += len(piece)
            if self._quiet_bytes >= _REENABLE_AFTER * self.block_size:
                self._sweeps_disabled = False
                self._fruitless = 0
                self._quiet_bytes = 0
                self._reenables += 1
        return out

    # -- one-shot conveniences (mirror StreamScanner) ----------------------
    def scan(self, data: Chunk):
        """Reset, consume ``data`` as one chunk, finish."""
        self.reset()
        self.feed(data)
        return self.finish()

    def match_ends(self, data: Chunk) -> list[int]:
        """Distinct report positions, for differential testing."""
        self.scan(data)
        return sorted({position for position, _ in self.reports})

    # -- the vector sweep --------------------------------------------------
    def _vector_block(self, arr, new: list) -> bool:
        """Sweep one block of tables with non-vectorizable module wiring;
        commit and return True, or detect module activity and return
        False leaving all state untouched."""
        np = _np
        program = self._program
        tables = self.tables
        scalar = self._scalar
        enabled = scalar._enabled
        cycle = scalar._cycle
        blen = len(arr)

        cls = program.byte_class_arr[arr]
        topo = program.topo
        preds = program.preds
        succ_lists = program.succ_lists
        succ_masks = tables.succ_masks
        has_self = program.has_self
        always_flag = program.always_flag
        start_flag = program.start_flag
        report_flag = program.report_flag
        hook_flag = program.hook_flag
        row_of = program.row_of
        uniq_rows = program.uniq_rows
        rids = tables.ste_report_ids
        at_start = cycle == 0

        n = tables.n_stes
        occ: list = [None] * n
        needed = bytearray(n)
        touched: list[int] = []
        for v in program.always_list:
            needed[v] = 1
            touched.append(v)
        if at_start:
            for v in program.start_list:
                if not needed[v]:
                    needed[v] = 1
                    touched.append(v)
        mask = enabled
        while mask:
            low = mask & -mask
            mask ^= low
            v = low.bit_length() - 1
            if not needed[v]:
                needed[v] = 1
                touched.append(v)

        memb_cache: dict = {}
        idx = None
        activations = 0
        events = 0
        found: list[tuple[int, Optional[str]]] = []
        last_mask = 0
        for v in topo:
            if not needed[v]:
                continue
            row = row_of[v]
            memb = memb_cache.get(row)
            if memb is None:
                memb = uniq_rows[row][cls]
                memb_cache[row] = memb
            entry = bool((enabled >> v) & 1) or (at_start and start_flag[v])
            if always_flag[v]:
                # enabled on every symbol: occupancy is plain membership
                # (a self-loop adds nothing on top of ALL_INPUT)
                lane = memb
            else:
                live = [occ[u] for u in preds[v] if occ[u] is not None]
                if has_self[v]:
                    # self-loop closed form: held at t iff some enable
                    # arrived within the current unbroken symbol run
                    if idx is None:
                        idx = np.arange(blen)
                    drive = np.zeros(blen, dtype=bool)
                    drive[0] = entry
                    for lane_u in live:
                        np.logical_or(drive[1:], lane_u[:-1], out=drive[1:])
                    run_start = np.maximum.accumulate(np.where(memb, 0, idx + 1))
                    last_drive = np.maximum.accumulate(np.where(drive, idx, -1))
                    lane = memb & (last_drive >= run_start)
                elif len(live) == 1:
                    lane = np.empty(blen, dtype=bool)
                    np.logical_and(live[0][:-1], memb[1:], out=lane[1:])
                    lane[0] = entry and bool(memb[0])
                else:
                    lane = np.zeros(blen, dtype=bool)
                    lane[0] = entry
                    for lane_u in live:
                        np.logical_or(lane[1:], lane_u[:-1], out=lane[1:])
                    np.logical_and(lane, memb, out=lane)
            count = int(np.count_nonzero(lane))
            if count == 0:
                continue
            if hook_flag[v]:
                # this STE drives a counter/bit-vector port: the sweep's
                # no-module-activity premise is broken for this block
                return False
            occ[v] = lane
            activations += count
            if report_flag[v]:
                events += count
                rid = rids[v]
                base = cycle + 1
                for position in np.flatnonzero(lane).tolist():
                    found.append((base + position, rid))
            if lane[-1]:
                last_mask |= succ_masks[v]
            for w in succ_lists[v]:
                if not needed[w]:
                    needed[w] = 1
                    touched.append(w)

        # commit: the block held no module activity, so the modules'
        # rest state, pre latches, and counter registers are untouched
        # -- exactly what the interpreter's skip path would have done
        scalar._enabled = last_mask
        scalar._cycle = cycle + blen
        stats = scalar.stats
        stats.cycles += blen
        stats.ste_activations += activations
        stats.reports += events
        if found:
            record = scalar.reports.record
            # by position only: report ids may mix None with str
            found.sort(key=lambda pair: pair[0])
            for pair in found:
                if record(*pair):
                    new.append(pair)
        self._fruitless = 0
        self._committed += 1
        return True

    # -- the module-aware vector sweep --------------------------------------
    def _vector_block_modules(self, arr, new: list) -> None:
        """Sweep one block of ``full_ok`` tables, counter/bit-vector
        activity evaluated in-lane.  Always commits: reports, stats,
        and module registers land exactly where the interpreter would
        have put them, so there is nothing to rescan."""
        np = _np
        program = self._program
        tables = self.tables
        scalar = self._scalar
        enabled = scalar._enabled
        cycle = scalar._cycle
        blen = len(arr)

        # classes of the block plus the sentinel class at position blen
        cls_ext = np.empty(blen + 1, dtype=np.intp)
        cls = cls_ext[:blen]
        np.take(program.byte_class_arr, arr, out=cls)
        cls_ext[blen] = program.sentinel_class
        cut = blen * _SPARSE_MAX_SHARE if blen >= _SPARSE_MIN_BLOCK else -1
        preds = program.preds
        steps = program.steps
        step_of = program.step_of
        wakes = program.wakes
        succ_masks = tables.succ_masks
        has_self = program.has_self
        always_flag = program.always_flag
        always_eff = program.always_eff_flag
        start_flag = program.start_flag
        report_flag = program.report_flag
        row_of = program.row_of
        uniq_rows = program.uniq_rows
        cand_rows = program.cand_rows
        sole_pred = program.sole_pred
        rids = tables.ste_report_ids
        plans = program.mod_plans
        mod_preds = program.mod_preds
        out_wakes = program.out_wakes
        aux_wakes = program.aux_wakes
        out_ste_masks = tables.out_ste_masks
        aux_ste_masks = tables.aux_ste_masks
        union_points = block_modules.union_points
        at_start = cycle == 0
        base = cycle + 1
        last = blen - 1

        # needed[i] flags step i (see _index_steps).  Like the
        # interpreter, a module runs only when dirty or signalled (an
        # input lane fires this block); an absorbed one also when its
        # body STE carries an enable bit.  The rest stay at rest.
        n = tables.n_stes
        # a live STE holds a dense lane (occ), sorted positions (pos),
        # or both once a sparse successor asked a dense lane for its
        # positions; cnt is its activation count (0: silent)
        occ: list = [None] * n
        pos: list = [None] * n
        cnt = [0] * n
        mod_out: list = [None] * tables.n_modules
        mod_aux: list = [None] * tables.n_modules
        needed = bytearray(len(steps))
        for i in program.always_steps:
            needed[i] = 1
        if at_start:
            for i in program.start_steps:
                needed[i] = 1
        # the carried enable bits, unpacked once: testing a bit of the
        # big-int mask costs a shift of the whole mask per STE
        enabled_flag = bytearray(n)
        mask = enabled
        while mask:
            low = mask & -mask
            mask ^= low
            v = low.bit_length() - 1
            enabled_flag[v] = 1
            needed[step_of[v]] = 1
        for m in scalar._dirty:
            needed[step_of[n + m]] = 1

        memb_cache: dict = {}

        def memb_for(v):
            row = row_of[v]
            memb = memb_cache.get(row)
            if memb is None:
                memb = uniq_rows[row][cls]
                memb_cache[row] = memb
            return memb

        def shift_in(lane, u):
            """``lane[t] |= occupancy of u at t - 1``."""
            points = pos[u]
            if points is None:
                np.logical_or(lane[1:], occ[u][:-1], out=lane[1:])
            else:
                if points[-1] == last:
                    points = points[:-1]
                lane[points + 1] = True

        def sparse_points(v, live, mods, entry):
            """STE ``v``'s positions over a long block, or ``None`` when
            its candidates (each live predecessor's positions plus one,
            position 0 on entry) exceed the density cut.  One gather
            filters them: ``cand_rows`` maps the sentinel class of a
            candidate at ``blen`` to False."""
            nonlocal entry_point
            total = entry
            for u in live:
                total += cnt[u]
            if total > cut:
                return None
            parts = []
            for u in live:
                pu = pos[u]
                if pu is None:
                    pu = pos[u] = np.flatnonzero(occ[u])
                parts.append(pu)
            for lane_j in mods:
                pu = np.flatnonzero(lane_j)
                total += len(pu)
                parts.append(pu)
            if total > cut:
                return None
            if entry:
                if entry_point is None:
                    entry_point = np.full(1, -1, dtype=np.intp)
                parts.append(entry_point)
            cand = (parts[0] if len(parts) == 1 else union_points(np, parts)) + 1
            return cand[cand_rows[row_of[v]][cls_ext[cand]]]

        idx = None
        entry_point = None
        activations = 0
        events = 0
        sparse_lanes = dense_lanes = 0
        found: list[tuple[int, Optional[str]]] = []
        acc: list = [0, 0, 0.0]
        # the interpreter seeds every cycle's next_enabled with the
        # const mask (ALL_INPUT bit vectors re-arming their body STE)
        last_mask = tables.const_enable_mask
        next_needed = needed.find
        i = -1
        while True:
            # wakes point forward in step order (always-on STEs, the
            # exception, are flagged up front): jump to the next flag
            i = next_needed(1, i + 1)
            if i < 0:
                break
            step_kind, index = steps[i]
            if step_kind == 0:
                v = index
                entry = enabled_flag[v] or (at_start and start_flag[v])
                points = None
                if always_eff[v]:
                    # enabled on every symbol: occupancy is membership --
                    # except a const-enabled (not always) STE at stream
                    # start, which the cycle-0 base does not include
                    lane = memb_for(v)
                    if at_start and not always_flag[v] and not entry and lane[0]:
                        lane = lane.copy()
                        lane[0] = False
                elif cut > 0 and (u := sole_pred[v]) >= 0 and 0 < cnt[u] <= cut and not entry:
                    # sparse_points for the commonest STE, inlined: its
                    # lone predecessor's positions plus one, filtered
                    points = pos[u]
                    if points is None:
                        points = pos[u] = np.flatnonzero(occ[u])
                    points = points + 1
                    points = points[cand_rows[row_of[v]][cls_ext[points]]]
                else:
                    live = [u for u in preds[v] if cnt[u]]
                    mods = ()
                    if mod_preds[v]:
                        mods = []
                        for j, src in mod_preds[v]:
                            lane_j = mod_out[j] if src == SRC_OUT else mod_aux[j]
                            if lane_j is not None:
                                mods.append(lane_j)
                    if cut >= 0 and not has_self[v]:
                        points = sparse_points(v, live, mods, entry)
                    if points is not None:
                        pass
                    elif has_self[v]:
                        # self-loop closed form: held at t iff some enable
                        # arrived within the current unbroken symbol run
                        memb = memb_for(v)
                        if idx is None:
                            idx = np.arange(blen)
                        drive = np.zeros(blen, dtype=bool)
                        drive[0] = entry
                        for u in live:
                            shift_in(drive, u)
                        for lane_j in mods:
                            np.logical_or(drive[1:], lane_j[:-1], out=drive[1:])
                        run_start = np.maximum.accumulate(np.where(memb, 0, idx + 1))
                        last_drive = np.maximum.accumulate(np.where(drive, idx, -1))
                        lane = memb & (last_drive >= run_start)
                    elif len(live) == 1 and not mods and pos[live[0]] is None:
                        memb = memb_for(v)
                        lane = np.empty(blen, dtype=bool)
                        np.logical_and(occ[live[0]][:-1], memb[1:], out=lane[1:])
                        lane[0] = entry and bool(memb[0])
                    else:
                        lane = np.zeros(blen, dtype=bool)
                        lane[0] = entry
                        for u in live:
                            shift_in(lane, u)
                        for lane_j in mods:
                            np.logical_or(lane[1:], lane_j[:-1], out=lane[1:])
                        np.logical_and(lane, memb_for(v), out=lane)
                if points is not None:
                    sparse_lanes += 1
                    count = len(points)
                    if count == 0:
                        continue
                    pos[v] = points
                    cnt[v] = count
                    activations += count
                    if report_flag[v]:
                        events += count
                        rid = rids[v]
                        for position in points.tolist():
                            found.append((base + position, rid))
                    if points[-1] == last:
                        last_mask |= succ_masks[v]
                    for w in wakes[v]:
                        needed[w] = 1
                    continue
                dense_lanes += 1
                count = int(np.count_nonzero(lane))
                if count == 0:
                    continue
                occ[v] = lane
                cnt[v] = count
                activations += count
                if report_flag[v]:
                    events += count
                    rid = rids[v]
                    for position in np.flatnonzero(lane).tolist():
                        found.append((base + position, rid))
                if lane[-1]:
                    last_mask |= succ_masks[v]
                for w in wakes[v]:
                    needed[w] = 1
            else:
                plan = plans[index]
                s = plan.absorbed
                if s is None:
                    memb = None
                    enabled_bit = False
                else:
                    memb = memb_for(s)
                    enabled_bit = bool(enabled_flag[s])
                s_occ, out_lane, aux_lane, arm_aux = block_modules.eval_module(
                    np,
                    plan,
                    blen,
                    occ,
                    pos,
                    mod_out,
                    mod_aux,
                    memb,
                    enabled_bit,
                    scalar,
                    acc,
                )
                if s_occ is not None:
                    count = int(np.count_nonzero(s_occ))
                    if count:
                        occ[s] = s_occ
                        cnt[s] = count
                        activations += count
                        if report_flag[s]:
                            events += count
                            rid = rids[s]
                            for position in np.flatnonzero(s_occ).tolist():
                                found.append((base + position, rid))
                        if s_occ[-1]:
                            last_mask |= succ_masks[s]
                        for w in wakes[s]:
                            needed[w] = 1
                if out_lane is not None:
                    mod_out[index] = out_lane
                    if plan.reports:
                        count = int(np.count_nonzero(out_lane))
                        events += count
                        rid = plan.report_id
                        for position in np.flatnonzero(out_lane).tolist():
                            found.append((base + position, rid))
                    if out_lane[-1]:
                        last_mask |= out_ste_masks[index]
                    for w in out_wakes[index]:
                        needed[w] = 1
                if aux_lane is not None:
                    mod_aux[index] = aux_lane
                    for w in aux_wakes[index]:
                        needed[w] = 1
                if arm_aux:
                    last_mask |= aux_ste_masks[index]

        scalar._enabled = last_mask
        scalar._cycle = cycle + blen
        stats = scalar.stats
        stats.cycles += blen
        stats.ste_activations += activations
        stats.counter_ops += acc[0]
        stats.bit_vector_ops += acc[1]
        stats.bit_vector_weighted_ops += acc[2]
        stats.reports += events
        self._sparse_lanes += sparse_lanes
        self._dense_lanes += dense_lanes
        if found:
            record = scalar.reports.record
            found.sort(key=lambda pair: pair[0])
            for pair in found:
                if record(*pair):
                    new.append(pair)
