"""``repro._record.Record`` behaves as the ``@dataclass`` classes it replaced.

The expected strings, digests and hashes below were recorded from the
``@dataclass`` versions of the same classes: a record must print, hash,
pickle and canonicalize exactly as they did, or spec digests, cache keys,
manifests and snapshots would all move.
"""

import hashlib
import pickle

import pytest

from repro._record import FrozenInstanceError, Record, asdict, field, fields, replace
from repro.config import TcpConfig
from repro.experiments.figure6 import Figure6Config
from repro.experiments.figure7 import Figure7Config
from repro.net.packet import SackBlock
from repro.net.topology import DumbbellParams
from repro.runner.grid import GridCell
from repro.runner.spec import TaskSpec

TCP_CONFIG_REPR = (
    "TcpConfig(mss_bytes=1000, ack_bytes=40, initial_cwnd=1.0, "
    "initial_ssthresh=64.0, receiver_window=64, dupack_threshold=3, "
    "initial_rto=3.0, min_rto=1.0, max_rto=64.0, timer_granularity=0.1, "
    "max_burst=4, delayed_ack=False, delayed_ack_timeout=0.2, "
    "sack_block_limit=3, ecn_enabled=False, slow_start_restart=False)"
)

FIG7_QUICK_FIELDS = (
    '{"duration":30.0,"loss_rates":[0.01,0.05,0.1],"loss_start":5.0,'
    '"mss_bytes":1000,"rtt":0.2,"runs_per_point":1,"seed":11,'
    '"variants":["sack","rr"],"warmup":5.0}'
)
FIG7_QUICK_CONFIG = (
    '{"__dataclass__":"repro.experiments.figure7.Figure7Config","fields":'
    + FIG7_QUICK_FIELDS + "}"
)
#: One ``fig7 --quick`` grid cell's spec.
FIG7_CELL_CANONICAL = (
    '{"args":["repro.experiments.figure7:prefix_world",["rr",'
    + FIG7_QUICK_CONFIG
    + '],"repro.experiments.figure7:finish_point",["rr",0.05,'
    + FIG7_QUICK_CONFIG
    + ']],"fn":"repro.runner.grid:run_grid_cell","kwargs":{}}'
)
FIG7_CELL_DIGEST = "3ba650234bbab0f6f9a60e192a4a93f31f33437f949a7b802093dc15d253a651"
#: A spec carrying the three configs a cell is made of.
CONFIGS_CANONICAL = (
    '{"args":["rr",{"__dataclass__":"repro.config.TcpConfig","fields":'
    '{"ack_bytes":40,"delayed_ack":false,"delayed_ack_timeout":0.2,'
    '"dupack_threshold":3,"ecn_enabled":false,"initial_cwnd":1.0,'
    '"initial_rto":3.0,"initial_ssthresh":64.0,"max_burst":4,"max_rto":64.0,'
    '"min_rto":1.0,"mss_bytes":1000,"receiver_window":64,"sack_block_limit":3,'
    '"slow_start_restart":false,"timer_granularity":0.1}},'
    '{"__dataclass__":"repro.net.topology.DumbbellParams","fields":'
    '{"bottleneck_bandwidth_bps":800000.0,"bottleneck_delay":0.05,'
    '"buffer_packets":8,"n_pairs":3,"sender_side_delays":null,'
    '"side_bandwidth_bps":10000000.0,"side_buffer_packets":1000,'
    '"side_delay":0.001,"symmetric_bottleneck":false}}],'
    '"fn":"repro.experiments.figure7:run_point","kwargs":{"config":'
    + FIG7_QUICK_CONFIG
    + "}}"
)
CONFIGS_DIGEST = "1347fc03d22c845ebc7195dfa0faa76f48a5d610bfb4a560da9b63733d10acc4"
#: sha256 prefixes of ``pickle.dumps(obj, protocol=4)``.
PICKLE_DIGESTS = {
    "TcpConfig": "a918da3855378314",
    "DumbbellParams": "1b28840ed3607089",
    "Figure7Config": "c16d9fa4df3da54a",
    "Figure6Config": "4efe93afe12b4e29",
    "SackBlock": "765de5da801bbc8f",
}


def quick_fig7_config():
    config = Figure7Config()
    config.loss_rates = (0.01, 0.05, 0.1)
    config.duration = 30.0
    config.runs_per_point = 1
    return config


def test_repr_is_the_dataclass_repr():
    assert repr(TcpConfig()) == TCP_CONFIG_REPR
    assert repr(SackBlock(1, 3)) == "SackBlock(start=1, end=3)"
    assert repr(Figure6Config()).startswith(
        "Figure6Config(variants=('newreno', 'sack', 'rr'), n_flows=10, "
    )
    assert "red=RedParams(min_th=5.0, " in repr(Figure6Config())


def test_spec_canonical_json_and_digest():
    config = quick_fig7_config()
    cell = GridCell(
        "repro.experiments.figure7:prefix_world",
        ("rr", config),
        "repro.experiments.figure7:finish_point",
        ("rr", 0.05, config),
        label="fig7 rr/p=0.05",
    )
    spec = cell.spec()
    assert spec.canonical() == FIG7_CELL_CANONICAL
    assert spec.digest() == FIG7_CELL_DIGEST
    spec = TaskSpec(
        "repro.experiments.figure7:run_point",
        ("rr", TcpConfig(), DumbbellParams()),
        {"config": config},
    )
    assert spec.canonical() == CONFIGS_CANONICAL
    assert spec.digest() == CONFIGS_DIGEST


def test_frozen_records_hash_their_fields_and_refuse_assignment():
    assert SackBlock(1, 3) == SackBlock(1, 3)
    assert hash(SackBlock(1, 3)) == hash(SackBlock(1, 3)) == hash((1, 3))
    assert hash(TcpConfig()) == hash(TcpConfig(mss_bytes=1000))
    assert len({TcpConfig(), TcpConfig(), TcpConfig(max_burst=0)}) == 2
    block = SackBlock(1, 3)
    with pytest.raises(FrozenInstanceError):
        block.start = 2
    with pytest.raises(AttributeError):
        del block.end
    assert block == SackBlock(1, 3)


def test_mutable_records_are_unhashable_and_compare_by_class():
    config = quick_fig7_config()
    with pytest.raises(TypeError):
        hash(config)
    assert config == quick_fig7_config()
    assert config != Figure7Config()
    assert config.__eq__(object()) is NotImplemented
    # A method the class defines itself wins over the record's.
    assert hash(TaskSpec("m:f")) == hash(TaskSpec("m:f").digest())
    assert 2 in SackBlock(1, 3)


def test_asdict_recurses_into_nested_records():
    assert asdict(Figure6Config()) == {
        "variants": ("newreno", "sack", "rr"),
        "n_flows": 10,
        "initial_flows": 5,
        "stagger_seconds": 0.5,
        "duration": 6.0,
        "prefix_seconds": 3.0,
        "red": {
            "min_th": 5.0, "max_th": 20.0, "max_p": 0.02, "weight": 0.002,
            "limit": 25, "mean_pkt_time": 0.0, "ecn": False, "gentle": False,
        },
        "seed": 7,
    }
    with pytest.raises(TypeError):
        asdict({"not": "a record"})


@pytest.mark.parametrize(
    "record",
    [TcpConfig(), DumbbellParams(), quick_fig7_config(), Figure6Config(), SackBlock(2, 5)],
    ids=lambda record: type(record).__name__,
)
def test_pickle_round_trip_keeps_the_bytes(record):
    data = pickle.dumps(record, protocol=4)
    assert hashlib.sha256(data).hexdigest()[:16] == PICKLE_DIGESTS[type(record).__name__]
    assert pickle.loads(data) == record
    assert list(vars(pickle.loads(data))) == [f.name for f in fields(record)]


class _Point(Record):
    x: int
    y: int = 0
    tags: list = field(default_factory=list)

    def __post_init__(self):
        self.tags.append("init")


def test_init_binds_like_a_generated_signature():
    assert vars(_Point(1)) == {"x": 1, "y": 0, "tags": ["init"]}
    assert vars(_Point(y=2, x=1)) == {"x": 1, "y": 2, "tags": ["init"]}
    assert _Point(1).tags is not _Point(1).tags
    assert "tags" not in vars(_Point) and _Point.y == 0
    for args, kwargs, message in [
        ((), {}, "missing required argument: 'x'"),
        ((1,), {"x": 2}, "multiple values for argument 'x'"),
        ((1,), {"z": 2}, "unexpected keyword argument 'z'"),
        ((1, 2, [], 4), {}, "takes 4 positional arguments but 5 were given"),
    ]:
        with pytest.raises(TypeError, match=message):
            _Point(*args, **kwargs)
    moved = replace(_Point(1, 2), y=5)
    assert (moved.x, moved.y, moved.tags) == (1, 5, ["init", "init"])
    assert [f.name for f in fields(_Point)] == ["x", "y", "tags"]


def test_declaration_errors_match_dataclasses():
    with pytest.raises(TypeError, match="non-default argument 'b'"):
        class _Bad(Record):
            a: int = 0
            b: int
    with pytest.raises(ValueError, match="mutable default"):
        class _Shared(Record):
            items: list = []
