"""FAST vs scalar placement on the fabric itself.

The FAST seed search (a radius sweep over the free mask) must pick the
same seed as the scalar loop that grows a region from every free Slice,
so both modes hand out identical ``Allocation``s — same positions, same
order — or both refuse with the same ``FabricError``.  Two identical
fabrics are driven through the same operation sequence, one per mode.
Non-square grids are included because the rotated-coordinate prefix
sums the sweep uses are where an off-by-one would hide.
"""

import random

from hypothesis import given, settings, strategies as st

from repro import perf
from repro.arch.fabric import Fabric, FabricError, TileKind
from repro.arch.vcore import VCoreConfig

SHAPES = [(8, 8), (12, 7), (5, 16)]

#: The service tier's demand mix as (Slices, banks).
SERVICE_MIX = [(4, 2), (6, 1), (5, 4), (3, 4), (4, 64), (5, 128)]


def _config(slices, banks):
    return VCoreConfig(slices, 64 * banks)


class _Twins:
    """One fabric per mode, driven in lockstep; every result compared."""

    def __init__(self, width, height, bank_ratio=1):
        self.fabrics = {
            fast: Fabric(width=width, height=height, bank_ratio=bank_ratio)
            for fast in (True, False)
        }
        self.released = {}

    def _both(self, call):
        outcomes = {}
        for fast, fabric in self.fabrics.items():
            with perf.fast_paths(fast):
                try:
                    outcomes[fast] = ("ok", call(fabric))
                except FabricError as error:
                    outcomes[fast] = ("error", str(error))
        assert outcomes[True] == outcomes[False]
        return outcomes[True]

    def allocate(self, vcore_id, config):
        return self._both(lambda fabric: fabric.allocate(vcore_id, config))

    def reallocate(self, vcore_id, config):
        return self._both(lambda fabric: fabric.reallocate(vcore_id, config))

    def release(self, vcore_id):
        allocation = self.fabrics[True].allocation_for(vcore_id)
        outcome = self._both(lambda fabric: fabric.release(vcore_id))
        if allocation is not None:
            self.released[vcore_id] = allocation
        return outcome

    def try_allocate_exact(self, vcore_id):
        allocation = self.released.get(vcore_id)
        if allocation is None:
            return None
        return self._both(lambda fabric: fabric.try_allocate_exact(allocation))

    def defragment(self):
        return self._both(lambda fabric: fabric.defragment())

    def assert_same_state(self):
        fast, scalar = self.fabrics[True], self.fabrics[False]
        assert fast.allocations == scalar.allocations
        for kind in (TileKind.SLICE, TileKind.L2_BANK):
            with perf.fast_paths(False):
                expected = scalar._free_positions(kind)
            with perf.fast_paths(True):
                assert fast._free_positions(kind) == expected
                assert fast.count_free(kind) == len(expected)


_SIZES = st.tuples(st.integers(1, 6), st.sampled_from([1, 2, 4, 8, 16]))
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.integers(0, 7), _SIZES),
        st.tuples(st.just("realloc"), st.integers(0, 7), _SIZES),
        st.tuples(st.just("release"), st.integers(0, 7)),
        st.tuples(st.just("exact"), st.integers(0, 7)),
        st.tuples(st.just("defrag")),
    ),
    min_size=1,
    max_size=30,
)


class TestPlacementParity:
    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from(SHAPES),
        bank_ratio=st.sampled_from([1, 2]),
        ops=_OPS,
    )
    def test_random_operation_sequences(self, shape, bank_ratio, ops):
        twins = _Twins(*shape, bank_ratio=bank_ratio)
        for op in ops:
            action = op[0]
            if action == "alloc":
                twins.allocate(op[1], _config(*op[2]))
            elif action == "realloc":
                twins.reallocate(op[1], _config(*op[2]))
            elif action == "release":
                twins.release(op[1])
            elif action == "exact":
                twins.try_allocate_exact(op[1])
            else:
                twins.defragment()
        twins.assert_same_state()

    def test_service_demand_mix_to_near_full(self):
        """A deterministic 24x24 replay of the service tier's demand mix:
        fill until requests fail, then churn at capacity."""
        twins = _Twins(24, 24)
        fabric = twins.fabrics[True]
        rng = random.Random(1009)
        live = []
        refusals = 0
        scarcest = 1.0
        for vcore_id in range(40):
            if live and refusals > 2 and rng.random() < 0.4:
                victim = live.pop(rng.randrange(len(live)))
                twins.release(victim)
                if rng.random() < 0.5:
                    if twins.try_allocate_exact(victim) == ("ok", True):
                        live.append(victim)
                continue
            config = _config(*SERVICE_MIX[rng.randrange(len(SERVICE_MIX))])
            status, _ = twins.allocate(vcore_id, config)
            if status == "ok":
                live.append(vcore_id)
            else:
                refusals += 1
            with perf.fast_paths(True):
                scarcest = min(
                    scarcest,
                    *(
                        fabric.count_free(kind) / fabric.kind_total(kind)
                        for kind in (TileKind.SLICE, TileKind.L2_BANK)
                    ),
                )
        twins.defragment()
        twins.assert_same_state()
        assert refusals > 0
        assert scarcest < 0.05
