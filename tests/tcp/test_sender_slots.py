"""The sender's state lives in slots, and every world stays on CPython's
fast attribute path.

CPython 3.11 keeps an ordinary instance's attributes inline (no
``__dict__`` object) until the class's shared key table would need a
30th name, or until something asks for ``obj.__dict__``.  After that
every read and write of the object goes through a dictionary lookup
(``LOAD_ATTR_WITH_HINT``) for the rest of its life.  ``TcpSender`` keeps
its own fields in ``__slots__`` and a variant only its few extra ones in
its instance dict (docs/PERFORMANCE.md "Cost of an ACK").

``dict_census`` walks every ``repro`` object reachable from a world with
``gc.get_referents``, which reports an instance's dict once it has been
built and its inline values before that, and never builds one itself.
"""

import gc
import sys
import types
from collections import Counter

import pytest

from repro.config import TcpConfig
from repro.experiments.common import FlowSpec, build_dumbbell_scenario
from repro.net.loss import UniformLoss
from repro.net.red import RedParams
from repro.net.topology import DumbbellParams
from repro.scenes import FlowPopulation, SceneSpec, WaxmanParams, build_scene
from repro.sim.rng import RngStream
from repro.tcp.factory import VARIANTS

_SKIP = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType, types.CodeType)


def _materialised_dict(obj, referents):
    """True when ``obj``'s instance dict has been built: it is then one
    of the referents, a dict mapping attribute names to the values the
    attributes hold."""
    for ref in referents:
        if type(ref) is dict and ref and all(
            type(name) is str and getattr(obj, name, ref) is value
            for name, value in ref.items()
        ):
            return True
    return False


def dict_census(*roots):
    """``{type name: count}`` of the ``repro`` objects reachable from
    ``roots`` whose instance dict has been built (empty: none has)."""
    seen, found = set(), Counter()
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _SKIP):
            continue
        seen.add(id(obj))
        referents = gc.get_referents(obj)
        cls = type(obj)
        if cls.__module__.startswith("repro.") and _materialised_dict(obj, referents):
            found[cls.__qualname__] += 1
        stack.extend(referents)
    return dict(found)


def figure7_world():
    """Every registered variant, one flow each, on the Figure-7 dumbbell
    (the cell of test_endpoint_call_budget.py, widened)."""
    variants = sorted(VARIANTS)
    return build_dumbbell_scenario(
        flows=[FlowSpec(variant=v, amount_packets=300) for v in variants],
        params=DumbbellParams(
            n_pairs=len(variants),
            bottleneck_bandwidth_bps=10e6,
            bottleneck_delay=0.097,
            side_bandwidth_bps=100e6,
            buffer_packets=200,
        ),
        default_config=TcpConfig(receiver_window=200, initial_ssthresh=100.0),
        forward_loss=UniformLoss(0.01, RngStream(41, "census")),
    )


def wan_world():
    return build_scene(
        SceneSpec(
            family="wan",
            topology=WaxmanParams(n_routers=12, graph_seed=3),
            flows=FlowPopulation(count=8),
            red=RedParams(limit=50),
            seed=5,
            duration=5.0,
        )
    )


needs_311 = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="the inline-values layout and its 30-name limit are CPython 3.11's",
)


@needs_311
@pytest.mark.parametrize("build", [figure7_world, wan_world], ids=["figure7", "wan"])
def test_no_repro_object_has_a_materialised_dict(build):
    world = build()
    assert dict_census(world) == {}
    world.sim.run(until=2.0)
    assert dict_census(world) == {}


@needs_311
def test_the_census_sees_a_materialised_dict():
    world = figure7_world()
    sender = world.senders[1]
    vars(sender)  # asking for the dict builds it
    assert dict_census(world) == {type(sender).__qualname__: 1}


#: The checkpoint state of every sender starts with these, in this
#: order: the fields the base sender's ``__dict__`` held before it had
#: slots.
BASE_STATE = (
    "flow_id", "host", "sim", "config", "dst", "observer", "trace",
    "cwnd", "ssthresh", "snd_una", "snd_nxt", "maxseq", "dupacks",
    "in_recovery", "recover", "_limit", "started", "completed",
    "complete_time", "completion_callbacks", "rto", "_timer", "_rtt_seq",
    "_rtt_sent_at", "packets_sent", "retransmits", "timeouts",
    "_last_send_time", "idle_restarts", "_ecn_react_marker",
    "ecn_reactions", "_suppress_growth",
)

_RR = (
    "phase", "actnum", "ndup", "_retreat_sent", "_sent_this_rtt", "_sent_last_rtt",
    "_no_retransmit_below", "further_losses_detected", "exit_extensions",
    "recovery_episodes",
)
_SACK = ("scoreboard", "_no_retransmit_below", "_pipe")

#: Each variant's own fields, after BASE_STATE.
VARIANT_STATE = {
    "tahoe": (),
    "reno": (),
    "newreno": ("_no_retransmit_below",),
    "sack": _SACK,
    "sack3517": _SACK,
    "rr": _RR,
    "rightedge": ("_no_retransmit_below",),
    "linkung": ("_no_retransmit_below",),
    "vegas": (
        "base_rtt", "last_rtt", "_send_times", "_adjust_marker",
        "_ss_grow_this_round", "ca_adjustments", "expedited_retransmits",
    ),
    "cubic": ("_no_retransmit_below", "_w_max", "_epoch_start", "_w_epoch", "_k"),
    "relentless": ("_no_retransmit_below", "_entry_cwnd", "_episode_losses", "_episode_growth"),
}


def test_every_variant_is_pinned():
    assert set(VARIANT_STATE) == set(VARIANTS)


def test_sender_state_keys_and_order_are_pinned():
    world = figure7_world()
    for _ in range(2):  # freshly built, then mid-transfer
        for flow_id, variant in enumerate(sorted(VARIANTS), start=1):
            expected = list(BASE_STATE + VARIANT_STATE[variant])
            assert list(world.senders[flow_id].__getstate__()) == expected, variant
        world.sim.run(until=3.0)


def test_a_variant_keeps_under_30_names_in_its_dict():
    # CPython 3.11 shares one key table among a class's instances and
    # keeps their values inline only while that table has fewer than 30
    # names; the 30th builds a real dict for every instance from then
    # on.  A variant's own fields must fit: new base-sender fields go
    # into TcpSender.__slots__ instead.
    world = figure7_world()
    world.sim.run(until=3.0)
    for sender in world.senders.values():
        assert len(vars(sender)) < 30, type(sender).__name__
