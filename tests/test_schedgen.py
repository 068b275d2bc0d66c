"""Schedule generation: validity, determinism, enumeration counts, pools."""

import hashlib
import json
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maars import kernel
from maars.schedgen import (
    Schedule,
    enumerate_all,
    generate_pool,
    pool_from_dict,
    save_pool,
    simulate_fixed_priority,
    slot_texts,
    unique,
    validate_schedule,
    validate_stack,
)
from maars.taskmodel import TaskSpec, enumerate_specs, hyper_period

from draws import aware_shuffle_schedule, shuffle_schedule
from oracles import content_hash


@pytest.fixture()
def spec2(minimal_ts):
    return TaskSpec(periods=(2, 4), untrusted_periods=(4,))


class TestFixedPriority:
    def test_minimal_schedule(self, minimal_ts, spec2):
        sched = simulate_fixed_priority(minimal_ts, spec2)
        assert sched.slots == (1, 2, 1, 3)
        assert sched.provenance == "fixed-priority"
        assert validate_schedule(minimal_ts, sched) == []


class TestShuffle:
    def test_valid_and_deterministic(self, minimal_ts):
        spec = TaskSpec(periods=(3, 4), untrusted_periods=(4,))
        a = shuffle_schedule(minimal_ts, spec, seed=5)
        b = shuffle_schedule(minimal_ts, spec, seed=5)
        assert a.slots == b.slots
        assert a.seed == 5
        assert validate_schedule(minimal_ts, a) == []

    def test_seeds_cover_multiple_schedules(self, minimal_ts):
        spec = TaskSpec(periods=(3, 4), untrusted_periods=(4,))
        seen = {shuffle_schedule(minimal_ts, spec, seed=s).slots for s in range(40)}
        assert len(seen) > 5

    @given(seed=st.integers(min_value=0, max_value=2**62))
    @settings(max_examples=20, deadline=None)
    def test_lu_shuffle_always_valid(self, lu_ts, seed):
        spec = lu_ts.min_period_spec()
        sched = shuffle_schedule(lu_ts, spec, seed)
        assert validate_schedule(lu_ts, sched) == []


class TestAwareShuffle:
    @given(seed=st.integers(min_value=0, max_value=2**62))
    @settings(max_examples=20, deadline=None)
    def test_always_valid(self, lu_ts, seed):
        spec = lu_ts.min_period_spec()
        sched = aware_shuffle_schedule(lu_ts, spec, seed)
        assert validate_schedule(lu_ts, sched) == []
        assert sched.provenance == "attack-aware"

    def test_differs_from_uniform_shuffle(self, lu_ts):
        spec = lu_ts.min_period_spec()
        aware = {aware_shuffle_schedule(lu_ts, spec, s).slots for s in range(10)}
        plain = {shuffle_schedule(lu_ts, spec, s).slots for s in range(10)}
        assert aware != plain


class TestEnumeration:
    def test_counts_and_uniqueness(self, minimal_ts, spec2):
        pool = enumerate_all(minimal_ts, spec2)
        assert len(pool) == len({s.slots for s in pool})
        for s in pool:
            assert validate_schedule(minimal_ts, s) == []

    def test_enumeration_contains_fp_and_shuffles(self, minimal_ts, spec2):
        universe = {s.slots for s in enumerate_all(minimal_ts, spec2)}
        assert simulate_fixed_priority(minimal_ts, spec2).slots in universe
        for seed in range(25):
            assert shuffle_schedule(minimal_ts, spec2, seed).slots in universe
            assert aware_shuffle_schedule(minimal_ts, spec2, seed).slots in universe


class TestPool:
    def test_generate_pool_dedupes(self, minimal_ts):
        specs = enumerate_specs(minimal_ts)
        pool = generate_pool(minimal_ts, specs, exhaustive=True)
        keys = {(s.spec.all_periods(), s.slots) for s in pool}
        assert len(keys) == len(pool)

    def test_round_trip(self, tmp_path, minimal_ts):
        specs = enumerate_specs(minimal_ts)
        pool = generate_pool(minimal_ts, specs, seeds_per_spec=3)
        path = tmp_path / "pool.json"
        save_pool(minimal_ts, pool, path)
        again = pool_from_dict(json.loads(path.read_text()))
        assert [(s.spec, s.slots, s.provenance, s.seed) for s in again] == [
            (s.spec, s.slots, s.provenance, s.seed) for s in pool
        ]

    @pytest.mark.parametrize("attack_aware", [False, True])
    def test_pool_is_the_one_seed_draws_deduplicated(self, minimal_ts, attack_aware):
        """``generate_pool`` draws every seed of every spec at once; its pool
        is the kernel's one-row draws, spec by spec and seed by seed, with
        the first of each key kept. The 4-slot assignment has few schedules
        and comes twice, so draws repeat within and across specs."""
        specs = [*enumerate_specs(minimal_ts), TaskSpec((2, 4), (4,))]
        aews = [t.aew for t in minimal_ts.trusted]
        one_at_a_time = []
        for i, spec in enumerate(specs):
            periods, l = spec.all_periods(), hyper_period(spec)
            for k in range(8):
                seed = 2**64 - 3 + i * 1_000_003 + k
                if attack_aware:
                    slots = kernel.aware_shuffle(periods, minimal_ts.wcets, aews, 2, l, seed)
                else:
                    slots = kernel.shuffle(periods, minimal_ts.wcets, l, seed)
                provenance = "attack-aware" if attack_aware else "randomized"
                one_at_a_time.append(Schedule(spec, tuple(slots), provenance, seed))
        pool = generate_pool(minimal_ts, specs, seeds_per_spec=8, seed_base=2**64 - 3,
                             attack_aware=attack_aware)
        assert pool == unique(one_at_a_time)
        assert len({s.spec for s in pool}) == 2 < len(pool) < len(one_at_a_time) - 8

    def test_unique_keeps_first_of_each_key_in_order(self, minimal_ts, spec2):
        a, b = enumerate_all(minimal_ts, spec2)[:2]
        a_again = Schedule(spec=a.spec, slots=a.slots, provenance="randomized", seed=7)
        other_spec = Schedule(spec=TaskSpec((3, 4), (4,)), slots=a.slots,
                              provenance="exhaustive")
        assert unique([b, a, a_again, other_spec, b]) == [b, a, other_spec]

    def test_key_repr_is_content_hash_payload(self, minimal_ts, spec2):
        s = simulate_fixed_priority(minimal_ts, spec2)
        assert s.key == ((2, 4, 4), s.slots)
        payload = (tuple(s.spec.all_periods()), s.slots)
        assert repr(s.key) == repr(payload)
        assert content_hash(s) == hashlib.sha256(repr(payload).encode()).hexdigest()[:16]

    def test_content_hash_distinguishes_specs(self, minimal_ts):
        a = simulate_fixed_priority(minimal_ts, TaskSpec((2, 4), (4,)))
        b = simulate_fixed_priority(minimal_ts, TaskSpec((3, 4), (4,)))
        assert content_hash(a) != content_hash(b)


@st.composite
def slot_stacks(draw):
    """A (k, L) stack of task ids 0..12, so that tokens of one and of two
    digits mix, with k and L from 1."""
    k, length = draw(st.integers(1, 5)), draw(st.integers(1, 30))
    row = st.lists(st.integers(0, 12), min_size=length, max_size=length)
    return draw(st.lists(row, min_size=k, max_size=k))


@settings(max_examples=100, deadline=None)
@given(slot_stacks())
def test_slot_texts_are_the_json_arrays_and_tuple_reprs_inside(rows):
    texts = slot_texts(np.array(rows, dtype=np.int32))
    assert texts == [json.dumps(row)[1:-1] for row in rows]
    for row, text in zip(rows, texts):
        assert repr(tuple(row)) == (f"({text},)" if len(row) == 1 else f"({text})")


class TestValidator:
    def test_flags_idle_while_ready(self, minimal_ts, spec2):
        sched = Schedule(spec=spec2, slots=(0, 1, 1, 3), provenance="exhaustive")
        errors = validate_schedule(minimal_ts, sched)
        assert any("idle while jobs are ready" in e for e in errors)

    def test_flags_wrong_job_count(self, minimal_ts, spec2):
        sched = Schedule(spec=spec2, slots=(1, 1, 2, 3), provenance="exhaustive")
        errors = validate_schedule(minimal_ts, sched)
        assert errors

    @pytest.mark.parametrize("slots", [(1, 2, 1, 9), (1, 2, 1, 2.5), (1, 2, 1, 3) * 2,
                                       (True, 2, 1, 3)],
                             ids=["slot-id-out-of-range", "slot-not-int", "two-hyper-periods",
                                  "slot-bool"])
    def test_flags_malformed_schedule_without_raising(self, minimal_ts, spec2, slots):
        sched = Schedule(spec=spec2, slots=slots, provenance="exhaustive")
        assert validate_schedule(minimal_ts, sched)

    @pytest.mark.parametrize("periods", [(2, 4), (3, 4)])
    def test_accepts_exactly_the_enumerated_schedules(self, minimal_ts, periods):
        """Every slot array of the 4-slot hyper-period, and every array one
        replacement or one swap away from a valid schedule of the 12-slot
        one, is valid exactly when the kernel enumerates it, checked one
        schedule at a time and as one stack."""
        spec = TaskSpec(periods, (4,))
        valid = {s.slots for s in enumerate_all(minimal_ts, spec)}
        if periods == (2, 4):
            stack = list(product(range(4), repeat=4))
        else:
            near = set()
            for slots in valid:
                for t, task in product(range(len(slots)), range(4)):
                    near.add(slots[:t] + (task,) + slots[t + 1:])
                for i, j in combinations(range(len(slots)), 2):
                    swapped = list(slots)
                    swapped[i], swapped[j] = slots[j], slots[i]
                    near.add(tuple(swapped))
            stack = sorted(near)
        expected = [slots in valid for slots in stack]
        assert [not errors for errors in validate_stack(minimal_ts, spec, stack)] == expected
        assert [
            not validate_schedule(minimal_ts, Schedule(spec, slots, "exhaustive"))
            for slots in stack
        ] == expected
