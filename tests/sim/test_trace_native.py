"""The compiled trace decoder against the scalar reference generator.

``TraceGenerator.generate_arrays`` decodes through ``repro_decode_trace``
when fast paths are on and the compiled kernel loads.  Every test here
compares its columns *and* the full generator state afterwards (PC, hot
set, sweep positions, branch tables and the CPython RNG) against the
same generator run with ``perf.fast_paths(False)``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native, perf
from repro.analysis import sanitize
from repro.sim import trace as trace_module
from repro.sim.soa import TraceArrays
from repro.sim.trace import TraceGenerator
from repro.workloads.phase import Phase

COLUMNS = tuple(field.name for field in dataclasses.fields(TraceArrays))


@pytest.fixture(autouse=True)
def restore_switches():
    yield
    perf.set_fast_paths(True)
    native.set_native_enabled(True)


@pytest.fixture
def native_core():
    core = native.batch_core()
    if core is None:
        pytest.skip(f"native core unavailable: {native.batch_core_error()}")
    return core


needs_native = pytest.mark.usefixtures("native_core")


def make_phase(**overrides):
    defaults = dict(
        name="p",
        instructions_m=10,
        ilp=3.0,
        mem_refs_per_inst=0.3,
        l1_miss_rate=0.1,
        working_set=((256, 0.6), (2048, 0.9)),
        branch_fraction=0.15,
        mispredict_rate=0.05,
    )
    defaults.update(overrides)
    return Phase(**defaults)


def generator_state(generator):
    return (
        generator._pc,
        list(generator._hot_blocks),
        list(generator._sweep_position),
        dict(generator._branch_bias),
        dict(generator._branch_target),
        generator.rng.getstate(),
    )


def assert_same_arrays(actual, expected):
    for name in COLUMNS:
        np.testing.assert_array_equal(
            getattr(actual, name), getattr(expected, name), err_msg=name
        )


def reference_arrays(generator, count):
    with perf.fast_paths(False):
        return generator.generate_arrays(count)


def assert_native_matches(phase, seed, counts, registers=128):
    """Native batches vs scalar batches from twin generators."""
    fast = TraceGenerator(phase, num_registers=registers, seed=seed)
    reference = TraceGenerator(phase, num_registers=registers, seed=seed)
    for count in counts:
        assert_same_arrays(
            fast.generate_arrays(count), reference_arrays(reference, count)
        )
        assert generator_state(fast) == generator_state(reference)


@needs_native
class TestNativeDecoderParity:
    @settings(max_examples=40, deadline=None)
    @given(
        ilp=st.floats(min_value=0.1, max_value=40.0),
        mem_refs=st.sampled_from([0.0, 0.3, 0.6, 1.0]),
        l1_miss=st.sampled_from([0.0, 0.1, 1.0]),
        branch_fraction=st.sampled_from([0.0, 0.15, 0.4]),
        mispredict=st.sampled_from([0.0, 0.05, 0.5]),
        working_set=st.sampled_from(
            [(), ((128, 1.0),), ((64, 0.2), (512, 0.5), (4096, 0.95))]
        ),
        code_kb=st.sampled_from([0, 1, 8]),
        registers=st.sampled_from([8, 100, 128, 129]),
        seed=st.integers(min_value=0, max_value=2**31),
        counts=st.lists(
            st.integers(min_value=1, max_value=1500), min_size=1, max_size=3
        ),
    )
    def test_edge_phases_match_reference(
        self,
        ilp,
        mem_refs,
        l1_miss,
        branch_fraction,
        mispredict,
        working_set,
        code_kb,
        registers,
        seed,
        counts,
    ):
        phase = make_phase(
            ilp=ilp,
            mem_refs_per_inst=mem_refs,
            l1_miss_rate=l1_miss,
            branch_fraction=branch_fraction,
            mispredict_rate=mispredict,
            working_set=working_set,
            code_footprint_kb=max(code_kb, 1),
        )
        if code_kb == 0:
            # Phase validation rejects a 0 KB footprint; the generator
            # still floors it to one code block, so decode that too.
            object.__setattr__(phase, "code_footprint_kb", 0)
        assert_native_matches(phase, seed, counts, registers=registers)

    def test_native_then_scalar_batch(self):
        phase = make_phase()
        mixed = TraceGenerator(phase, seed=21)
        reference = TraceGenerator(phase, seed=21)
        first = mixed.generate_arrays(900)
        second = reference_arrays(mixed, 900)
        assert_same_arrays(first, reference_arrays(reference, 900))
        assert_same_arrays(second, reference_arrays(reference, 900))
        assert generator_state(mixed) == generator_state(reference)

    def test_scalar_then_native_batch(self):
        phase = make_phase()
        mixed = TraceGenerator(phase, seed=22)
        reference = TraceGenerator(phase, seed=22)
        first = reference_arrays(mixed, 900)
        second = mixed.generate_arrays(900)
        assert_same_arrays(first, reference_arrays(reference, 900))
        assert_same_arrays(second, reference_arrays(reference, 900))
        assert generator_state(mixed) == generator_state(reference)

    def test_overrun_retries_with_a_larger_buffer(self, monkeypatch):
        budgets = []
        original = native.NativeBatchCore.decode_trace

        def recording(self, count, words, *buffers):
            budgets.append(words.shape[0])
            return original(self, count, words, *buffers)

        monkeypatch.setattr(trace_module, "_word_budget", lambda count, ilp: 3)
        monkeypatch.setattr(native.NativeBatchCore, "decode_trace", recording)
        assert_native_matches(make_phase(ilp=40.0), seed=4, counts=[400, 50])
        assert budgets[:2] == [3, 6]
        assert len(budgets) > 10


class TestFallbacks:
    def test_native_off_runs_the_reference(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the compiled decoder must not run")

        monkeypatch.setattr(native.NativeBatchCore, "decode_trace", forbidden)
        native.set_native_enabled(False)
        assert native.batch_core() is None
        assert_native_matches(make_phase(), seed=3, counts=[600, 40])

    @needs_native
    def test_registers_beyond_one_word_take_the_reference(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the compiled decoder must not run")

        monkeypatch.setattr(native.NativeBatchCore, "decode_trace", forbidden)
        assert_native_matches(
            make_phase(), seed=6, counts=[300], registers=2**33
        )


@needs_native
class TestResyncSanitizer:
    def test_clean_resync_passes(self):
        with sanitize.sanitized():
            assert_native_matches(make_phase(), seed=1, counts=[2000, 10])

    def test_off_by_one_resync_is_caught(self, monkeypatch):
        monkeypatch.setattr(
            trace_module._WordStream, "consumed", lambda self: self.cursor + 1
        )
        generator = TraceGenerator(make_phase(), seed=1)
        with sanitize.sanitized():
            with pytest.raises(sanitize.SanitizerViolation) as caught:
                generator.generate_arrays(500)
        assert caught.value.rule == "rng-checkpoint"
