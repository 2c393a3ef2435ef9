"""Tests for the canonical state digest."""

import random

import pytest

from repro.errors import SnapshotError
from repro.snapshot import state_digest, state_fingerprints
from repro.snapshot.golden import build_golden_scenario
from tests.snapshot.helpers import FlowCountingQueue


class Plain:
    def __init__(self, **kw):
        self.__dict__.update(kw)

    def ping(self):
        return self.__dict__


class TestCanonicalization:
    def test_deterministic_across_calls(self):
        obj = {"a": [1, 2.5, "x"], "b": (True, None, b"raw")}
        assert state_digest(obj) == state_digest(obj)

    def test_dict_key_order_irrelevant_for_primitive_keys(self):
        assert state_digest({"a": 1, "b": 2}) == state_digest({"b": 2, "a": 1})
        assert state_digest({1: "x", 2: "y"}) == state_digest({2: "y", 1: "x"})

    def test_set_iteration_order_irrelevant(self):
        # Same elements inserted in different orders hash identically —
        # the property that makes digests PYTHONHASHSEED-independent.
        a = set()
        b = set()
        for item in [(1, 100), (1, 101), (2, 7), ("flow", 3)]:
            a.add(item)
        for item in [("flow", 3), (2, 7), (1, 101), (1, 100)]:
            b.add(item)
        assert state_digest(a) == state_digest(b)

    def test_value_differences_detected(self):
        assert state_digest({"a": 1}) != state_digest({"a": 2})
        assert state_digest([1, 2]) != state_digest([2, 1])
        assert state_digest(1.0) != state_digest(1)
        assert state_digest("1") != state_digest(1)
        assert state_digest(set()) != state_digest({})

    def test_float_precision_preserved(self):
        assert state_digest(0.1 + 0.2) != state_digest(0.3)

    def test_shared_object_vs_equal_copies(self):
        # One list referenced twice is not the same state as two equal
        # lists: mutating through one alias diverges differently.
        shared = [1, 2]
        assert state_digest([shared, shared]) != state_digest([[1, 2], [1, 2]])

    def test_cycles_terminate(self):
        a = Plain(name="a")
        b = Plain(name="b", peer=a)
        a.peer = b
        digest = state_digest(a)
        assert isinstance(digest, str) and len(digest) == 64

    def test_random_state_encoded(self):
        rng = random.Random(7)
        before = state_digest(rng)
        rng.random()
        assert state_digest(rng) != before

    def test_bound_method_encodes_function_and_receiver(self):
        a = Plain(x=1)
        b = Plain(x=2)
        hook_a = {"cb": a.ping, "owner": a}
        hook_b = {"cb": b.ping, "owner": b}
        assert state_digest(hook_a) != state_digest(hook_b)

    def test_object_uses_getstate(self):
        class Canonical:
            def __init__(self):
                self.visible = 1
                self.cache = object()  # undigestable, must be excluded

            def __getstate__(self):
                return {"visible": self.visible}

        assert state_digest(Canonical()) == state_digest(Canonical())

    def test_undigestable_object_raises(self):
        class Bad:
            def __getstate__(self):
                raise RuntimeError("nope")

        with pytest.raises(SnapshotError):
            state_digest(Bad())


class TestFingerprints:
    def test_names_the_drifted_section(self):
        a = Plain(clock=1.0, queue=[1, 2], stats={"acks": 5})
        b = Plain(clock=1.0, queue=[1, 2], stats={"acks": 6})
        fa = state_fingerprints(a)
        fb = state_fingerprints(b)
        assert set(fa) == {"clock", "queue", "stats"}
        assert fa["clock"] == fb["clock"]
        assert fa["queue"] == fb["queue"]
        assert fa["stats"] != fb["stats"]

    def test_covers_slots_and_instance_dict(self):
        # This queue keeps PacketQueue's fields in slots and its own in
        # an instance dict: every section of the digested state counts.
        queue = FlowCountingQueue(limit=10)
        fingerprints = state_fingerprints(queue)
        assert list(fingerprints) == sorted(queue.__getstate__())
        assert {"_items", "drops", "enqueues", "limit", "drops_by_flow"} <= set(fingerprints)
        queue.limit = 11
        assert state_fingerprints(queue)["limit"] != fingerprints["limit"]

    def test_sections_of_a_sender_leave_out_its_derived_caches(self):
        scenario = build_golden_scenario("rr")
        sender = scenario.senders[1]
        fingerprints = state_fingerprints(sender)
        assert list(fingerprints) == sorted(sender.__getstate__())
        assert {"flow_id", "cwnd", "snd_una", "phase"} <= set(fingerprints)
        assert not set(fingerprints) & set(type(sender)._DERIVED)
