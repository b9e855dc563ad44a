"""Synthetic trace generation from workload phase models.

The paper drives SSim with GEM5 full-system Alpha traces of the
benchmark applications.  Offline we cannot replay those, so this module
synthesizes instruction streams with the same first-order statistics a
phase model specifies: instruction mix (memory references per
instruction, branch fraction), dependency structure targeting the
phase's intrinsic ILP, mispredict rate, and memory reuse matching the
working-set spectrum.  DESIGN.md §2 records this substitution.

There is one generator and one fast decoder for it:

* the scalar reference (``_generate_reference``) draws from
  :class:`random.Random` one call at a time and builds
  :class:`MicroOp` objects;
* with :data:`repro.perf.FAST` on and the compiled kernel loaded
  (:func:`repro.native.batch_core`), ``generate_arrays`` syncs a numpy
  MT19937 to the *same* Mersenne Twister state, pulls one buffer of
  raw 32-bit words, and ``repro_decode_trace`` (``sim/_batchcore.c``)
  decodes CPython's ``random()`` and ``_randbelow`` draws from it, draw
  for draw, straight into :class:`TraceArrays` columns.  The generator
  state and the CPython RNG are then written back, so the ops and
  every later draw are bit-identical to the reference.

``generate`` under FAST is ``generate_arrays(count).to_ops()``.  Without
a compiler (or with ``REPRO_NATIVE=0``) both entry points run the
scalar reference: the kernel makes generation fast, never different.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from typing import List, Tuple

import numpy as np

from repro import native, perf
from repro.analysis import sanitize
from repro.sim.isa import MicroOp, OpKind
from repro.sim.soa import TraceArrays
from repro.workloads.phase import Phase

# Layout constants shared with ``repro_decode_trace`` in
# ``sim/_batchcore.c``; change both together.
_BLOCK_BYTES = 64
_CODE_BASE = 2 << 40
_HOT_SET_BLOCKS = 96
"""Recently-touched blocks re-accessed to realize the phase's L1 hit
rate: ~96 blocks (6 KB) comfortably fit the 16 KB L1."""

_BRANCH_HARD = 1
_BRANCH_EASY = 2
_TAKEN_PROBABILITY = {_BRANCH_HARD: 0.5, _BRANCH_EASY: 0.97}

_TWO_SOURCES = frozenset({OpKind.ALU, OpKind.STORE})
_WRITES_DEST = frozenset({OpKind.ALU, OpKind.LOAD})

_NATIVE_MAX_CODE_BLOCKS = 1 << 20
"""The decoder keeps two tables per code block; larger footprints (and
registers beyond one 32-bit draw) take the scalar reference."""

_RECIP_53 = 1.0 / 9007199254740992.0
"""``2**-53`` — the scale CPython's ``random()`` applies to its 53-bit
mantissa built from two MT output words."""


def _word_budget(count: int, ilp: float) -> int:
    """Initial raw-word buffer for ``count`` ops.

    An op draws about a dozen words plus two per geometric
    dependency-distance step (mean ``ilp + 1`` steps, capped at 64);
    the buffer allows some margin over that, and an overrun retries
    with twice the words.
    """
    steps = min(max(ilp, 1.0) + 1.0, 64.0)
    return int(count * (16.0 + 2.5 * steps)) + 1024


def _mt19937(state: tuple) -> np.random.MT19937:
    """A numpy MT19937 at exactly the ``random.Random`` ``state``.

    Both share the Mersenne Twister layout (624-word key + position),
    and ``random_raw`` yields the 32-bit words CPython consumes.
    """
    internal = state[1]
    bitgen = np.random.MT19937()
    bitgen.state = {
        "bit_generator": "MT19937",
        "state": {
            "key": np.asarray(internal[:-1], dtype=np.uint32),
            "pos": internal[-1],
        },
    }
    return bitgen


class _WordStream:
    """The raw MT words a ``random.Random`` at ``state`` draws next.

    The decoder reads ``words`` and reports how many it used
    (``cursor``); ``resync`` then replays that many words from the
    start state and writes the result into the ``random.Random``, so a
    scalar draw afterwards continues the same stream.
    """

    __slots__ = ("_state", "words", "cursor")

    def __init__(self, state: tuple, size: int) -> None:
        self._state = state
        self.words = _mt19937(state).random_raw(size)
        self.cursor = 0

    def consumed(self) -> int:
        return self.cursor

    def resync(self, rng: random.Random) -> None:
        """Advance ``rng`` past every word consumed from this stream."""
        used = self.consumed()
        bitgen = _mt19937(self._state)
        bitgen.random_raw(used, output=False)
        final = bitgen.state["state"]
        key = tuple(final["key"].tolist())
        rng.setstate(
            (self._state[0], key + (int(final["pos"]),), self._state[2])
        )
        if sanitize.ENABLED and self.cursor + 2 <= self.words.shape[0]:
            # The handed-back RNG's next float must be the stream's next
            # undrawn float — proves the replay lands on the exact word
            # the decoder stopped at.
            probe = random.Random()
            probe.setstate(rng.getstate())
            high, low = self.words[self.cursor : self.cursor + 2].tolist()
            expected = ((high >> 5) * 67108864.0 + (low >> 6)) * _RECIP_53
            actual = probe.random()
            if actual != expected:
                sanitize.violation(
                    "rng-checkpoint",
                    "repro.sim.trace._WordStream",
                    "resync",
                    f"after resync at word {used} the CPython RNG draws "
                    f"{actual!r} but the word stream holds {expected!r}",
                )


@dataclass(frozen=True)
class TraceStats:
    """First-order statistics of a generated trace."""

    instructions: int
    loads: int
    stores: int
    branches: int
    mispredicts: int

    @property
    def memory_fraction(self) -> float:
        if self.instructions == 0:
            return 0.0
        return (self.loads + self.stores) / self.instructions


class TraceGenerator:
    """Generates micro-op traces matching a phase's statistics."""

    def __init__(
        self,
        phase: Phase,
        num_registers: int = 128,
        seed: int = 0,
    ) -> None:
        if num_registers < 8:
            raise ValueError(f"need at least 8 registers, got {num_registers}")
        self.phase = phase
        self.num_registers = num_registers
        self.rng = random.Random(seed)
        self._hot_blocks: deque = deque(maxlen=_HOT_SET_BLOCKS)
        self._sweep_position = [0] * len(phase.working_set)
        self._pc = 0
        self._code_blocks = max(
            phase.code_footprint_kb * 1024 // _BLOCK_BYTES, 1
        )
        # Per-branch-address behaviour for dynamic prediction, as a
        # bias code (``_TAKEN_PROBABILITY``): a "hard" branch is 50/50
        # (a bimodal predictor misses it half the time); an easy one is
        # strongly taken.  The hard fraction is chosen so the emergent
        # mispredict rate matches the phase's specified rate:
        # m ~= 0.5*f + 0.03*(1-f).
        self._branch_bias: dict = {}
        self._branch_target: dict = {}
        self._hard_fraction = min(
            max((phase.mispredict_rate - 0.03) / 0.47, 0.0), 1.0
        )

    def _code_address(self, is_taken_branch: bool) -> int:
        """The next instruction's address: straight-line code advances
        sequentially through the footprint; a taken branch jumps to a
        random block within it (loops, calls)."""
        if is_taken_branch:
            self._pc = self.rng.randrange(self._code_blocks)
        address = _CODE_BASE + self._pc * _BLOCK_BYTES
        # ~16 four-byte instructions per block before advancing.
        if self.rng.random() < 1.0 / 16.0:
            self._pc = (self._pc + 1) % self._code_blocks
        return address

    def _branch_behaviour(self, address: int):
        """(taken, target) for the branch at ``address`` this time."""
        if address not in self._branch_bias:
            hard = self.rng.random() < self._hard_fraction
            self._branch_bias[address] = _BRANCH_HARD if hard else _BRANCH_EASY
            self._branch_target[address] = (
                _CODE_BASE + self.rng.randrange(self._code_blocks) * _BLOCK_BYTES
            )
        bias = _TAKEN_PROBABILITY[self._branch_bias[address]]
        taken = self.rng.random() < bias
        return taken, self._branch_target[address]

    def _dependency_distance(self) -> int:
        """Distance (in ops) to the producer of a source operand.

        A geometric distribution with mean ≈ the phase's ILP: shorter
        dependencies serialize execution, longer ones expose
        parallelism — this is the standard knob for targeting an ILP
        level in synthetic traces.
        """
        mean = max(self.phase.ilp, 1.0)
        p = 1.0 / (mean + 1.0)
        # Geometric sample (at least 1).
        distance = 1
        while self.rng.random() > p and distance < 64:
            distance += 1
        return distance

    def _address(self) -> int:
        """A memory address with working-set-shaped reuse.

        Two levels of locality: with probability ``1 - l1_miss_rate``
        the access re-touches a recently-used block (temporal locality
        the L1 captures, matching the phase's specified L1 behaviour);
        otherwise it goes to the L2-level working set — with
        probability matching each working-set chunk's share, a block
        inside a region of that chunk's size, the remainder being
        streaming traffic over a very large region.
        """
        if self._hot_blocks and self.rng.random() > self.phase.l1_miss_rate:
            return self.rng.choice(self._hot_blocks)
        address = self._cold_address()
        self._hot_blocks.append(address)
        return address

    def _cold_address(self) -> int:
        """Pick an L2-level address: a cyclic sweep over one of the
        working-set regions, or streaming traffic.

        Sweeping (rather than sampling uniformly) matches the phase
        model's step-capture semantics: a region that fits in the L2
        hits on every revisit after the first sweep, while a region
        larger than the L2 thrashes an LRU cache and captures almost
        nothing — the knee structure behind Fig. 1.
        """
        draw = self.rng.random()
        cumulative = 0.0
        previous_fraction = 0.0
        base = 0
        for index, (size_kb, fraction) in enumerate(self.phase.working_set):
            share = fraction - previous_fraction
            cumulative += share
            if draw < cumulative:
                blocks = max(size_kb * 1024 // _BLOCK_BYTES, 1)
                position = self._sweep_position[index]
                self._sweep_position[index] = (position + 1) % blocks
                return base + position * _BLOCK_BYTES
            previous_fraction = fraction
            base += 1 << 30  # distinct region per chunk
        streaming_blocks = (256 << 20) // _BLOCK_BYTES
        return (1 << 34) + self.rng.randrange(streaming_blocks) * _BLOCK_BYTES

    def generate(self, count: int) -> List[MicroOp]:
        """Generate ``count`` micro-ops.

        With :data:`repro.perf.FAST` enabled this decodes the columns
        (:meth:`generate_arrays`) and builds validated ops from them;
        the op sequence and the generator's state afterwards are
        bit-identical to the scalar path.
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        if perf.FAST:
            return self.generate_arrays(count).to_ops()
        return self._generate_reference(count)

    def _generate_reference(self, count: int) -> List[MicroOp]:
        """Scalar reference generator: one ``random.Random`` call per
        draw.  The compiled decoder must replay this draw sequence
        exactly."""
        ops: List[MicroOp] = []
        for op_id in range(count):
            # The first source is the *critical* dependency, at a
            # geometric distance whose mean sets the trace's data-flow
            # ILP.  A possible second source points much further back
            # (usually already complete), so it widens the data-flow
            # graph without shortening the critical path — with two
            # near dependencies per op, the realized ILP would be
            # E[min(d1, d2)], roughly half the target.
            sources = []
            distance = self._dependency_distance()
            producer = op_id - distance
            if producer >= 0 and ops[producer].dest is not None:
                sources.append(ops[producer].dest)
            else:
                sources.append(self.rng.randrange(self.num_registers))
            if self.rng.random() < 0.6:
                stale = op_id - self.rng.randint(16, 64)
                if stale >= 0 and ops[stale].dest is not None:
                    sources.append(ops[stale].dest)
                else:
                    sources.append(self.rng.randrange(self.num_registers))
            dest = self.rng.randrange(self.num_registers)
            draw = self.rng.random()
            mem_fraction = self.phase.mem_refs_per_inst
            branch_fraction = self.phase.branch_fraction
            is_branch = mem_fraction <= draw < mem_fraction + branch_fraction
            code_address = self._code_address(
                is_taken_branch=is_branch and self.rng.random() < 0.6
            )
            kind = OpKind.ALU
            address = taken = target = None
            mispredicted = False
            if draw < mem_fraction:
                kind = OpKind.LOAD if self.rng.random() < 0.7 else OpKind.STORE
                address = self._address()
            elif is_branch:
                kind = OpKind.BRANCH
                taken, target = self._branch_behaviour(code_address)
                mispredicted = self.rng.random() < self.phase.mispredict_rate
            # Only ALU ops and stores read the far source; only ALU ops
            # and loads write a register.
            ops.append(
                MicroOp(
                    op_id=op_id,
                    kind=kind,
                    sources=tuple(sources if kind in _TWO_SOURCES else sources[:1]),
                    dest=dest if kind in _WRITES_DEST else None,
                    address=address,
                    mispredicted=mispredicted,
                    code_address=code_address,
                    taken=taken,
                    branch_target=target,
                )
            )
        return ops

    def generate_arrays(self, count: int) -> TraceArrays:
        """Generate ``count`` micro-ops directly as :class:`TraceArrays`.

        Semantically identical to ``TraceArrays.from_ops(self.generate
        (count))`` — same RNG draw sequence, same generator state
        afterwards.  With FAST on and the compiled kernel loaded it
        decodes straight into columns without building any
        :class:`MicroOp`; this is the entry the batch cycle tier uses.
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        core = native.batch_core() if perf.FAST else None
        if (
            core is not None
            and self._code_blocks <= _NATIVE_MAX_CODE_BLOCKS
            and self.num_registers.bit_length() <= 32
        ):
            return self._generate_native(core, count)
        return TraceArrays.from_ops(self._generate_reference(count))

    def _native_params(self) -> Tuple[np.ndarray, np.ndarray]:
        """The decoder's float and integer parameter blocks."""
        phase = self.phase
        # Summed share by share, exactly as ``_cold_address`` does.
        fractions = [fraction for _size_kb, fraction in phase.working_set]
        shares = [now - before for now, before in zip(fractions, [0.0, *fractions])]
        fparams = np.array(
            [
                1.0 / (max(phase.ilp, 1.0) + 1.0),
                phase.mem_refs_per_inst,
                phase.mem_refs_per_inst + phase.branch_fraction,
                phase.l1_miss_rate,
                phase.mispredict_rate,
                self._hard_fraction,
                *accumulate(shares),
            ],
            dtype=np.float64,
        )
        iparams = np.array(
            [
                self.num_registers,
                self._code_blocks,
                len(phase.working_set),
                *(
                    max(size_kb * 1024 // _BLOCK_BYTES, 1)
                    for size_kb, _fraction in phase.working_set
                ),
            ],
            dtype=np.int64,
        )
        return fparams, iparams

    def _native_state(self) -> Tuple[np.ndarray, ...]:
        """Fresh copies of the generator state in the decoder's layout:
        (scalars, hot set, sweep positions, bias codes, targets, log of
        newly seen code blocks)."""
        state = np.array([self._pc, len(self._hot_blocks), 0], dtype=np.int64)
        hot = np.zeros(_HOT_SET_BLOCKS, dtype=np.int64)
        hot[: len(self._hot_blocks)] = list(self._hot_blocks)
        sweep = np.array(self._sweep_position, dtype=np.int64)
        bias = np.zeros(self._code_blocks, dtype=np.int8)
        target = np.zeros(self._code_blocks, dtype=np.int64)
        if self._branch_bias:
            blocks = [
                (address - _CODE_BASE) // _BLOCK_BYTES
                for address in self._branch_bias
            ]
            bias[blocks] = list(self._branch_bias.values())
            target[blocks] = [
                self._branch_target[address] for address in self._branch_bias
            ]
        first_seen = np.empty(self._code_blocks, dtype=np.int64)
        return state, hot, sweep, bias, target, first_seen

    def _generate_native(self, core, count: int) -> TraceArrays:
        """Decode ``count`` ops through ``repro_decode_trace``.

        The decoder works on copies of the generator state; they, and
        the RNG, are written back only once a decode fits its word
        buffer (an overrun retries from the start with twice the
        words).
        """
        fparams, iparams = self._native_params()
        # Output columns, in the decoder's argument order.
        columns = {
            "kinds": np.empty(count, dtype=np.int8),
            "sources": np.empty((count, 2), dtype=np.int64),
            "dests": np.empty(count, dtype=np.int64),
            "addresses": np.empty(count, dtype=np.int64),
            "mispredicted": np.empty(count, dtype=np.bool_),
            "code_addresses": np.empty(count, dtype=np.int64),
            "taken": np.empty(count, dtype=np.int8),
            "branch_targets": np.empty(count, dtype=np.int64),
        }
        start = self.rng.getstate()
        budget = _word_budget(count, self.phase.ilp)
        used = -1
        while used < 0:
            stream = _WordStream(start, budget)
            tables = self._native_state()
            used = core.decode_trace(
                count, stream.words, fparams, iparams, *tables, *columns.values()
            )
            budget *= 2
        stream.cursor = used
        state, hot, sweep, bias, target, first_seen = tables
        pc, hot_len, seen = state.tolist()
        self._pc = pc
        self._hot_blocks.clear()
        self._hot_blocks.extend(hot[:hot_len].tolist())
        self._sweep_position[:] = sweep.tolist()
        new_blocks = first_seen[:seen]
        for block, code, branch_target in zip(
            new_blocks.tolist(),
            bias[new_blocks].tolist(),
            target[new_blocks].tolist(),
        ):
            address = _CODE_BASE + block * _BLOCK_BYTES
            self._branch_bias[address] = code
            self._branch_target[address] = branch_target
        stream.resync(self.rng)
        # ``from_ops`` sizes the source matrix to the widest op, so a
        # trace where no op drew a second source keeps one column.
        if columns["sources"][:, 1].max() < 0:
            columns["sources"] = columns["sources"][:, :1]
        return TraceArrays(**columns)

    @staticmethod
    def stats(ops: List[MicroOp]) -> TraceStats:
        return TraceStats(
            instructions=len(ops),
            loads=sum(op.kind is OpKind.LOAD for op in ops),
            stores=sum(op.kind is OpKind.STORE for op in ops),
            branches=sum(op.kind is OpKind.BRANCH for op in ops),
            mispredicts=sum(op.mispredicted for op in ops),
        )
