"""Fork semantics + the Figure-5 warm prefix (the warm-started sweep
itself is covered in tests/experiments/test_warmstart_grids.py)."""

from repro.experiments.figure5 import Figure5Config, capture_warm_snapshot
from repro.net.packet import set_uid_state
from repro.snapshot import Snapshot, state_digest
from repro.snapshot.golden import build_golden_scenario

QUICK = Figure5Config(
    variants=("newreno", "rr"),
    drop_counts=(3, 6),
    transfer_packets=300,
    sim_duration=40.0,
)


class TestFork:
    def test_forks_are_independent_worlds(self):
        world = build_golden_scenario("rr")
        world.sim.run(until=1.0)
        snapshot = Snapshot.capture(world)
        forks = snapshot.fork(2)
        assert forks[0] is not forks[1]
        forks[0].senders[1].cwnd = 999.0
        assert forks[1].senders[1].cwnd != 999.0

    def test_mutate_hook_applied_per_fork(self):
        world = build_golden_scenario("rr")
        world.sim.run(until=1.0)
        snapshot = Snapshot.capture(world)

        def tag(world, index):
            world.fork_index = index

        forks = snapshot.fork(3, mutate=tag)
        assert [w.fork_index for w in forks] == [0, 1, 2]

    def test_sequential_forks_run_identically(self):
        """Two forks of one snapshot, run one after the other in the
        same process, finish in identical states (the uid counter is
        re-rewound between runs)."""
        world = build_golden_scenario("sack")
        world.sim.run(until=1.0)
        snapshot = Snapshot.capture(world)
        digests = []
        for world in snapshot.fork(2):
            set_uid_state(snapshot.uid_next)
            world.sim.run(until=20.0)
            digests.append(state_digest(world))
        assert digests[0] == digests[1]


class TestWarmStartedFigure5:
    def test_warm_prefix_stops_short_of_the_loss_point(self):
        snapshot = capture_warm_snapshot("newreno", QUICK)
        world = snapshot.restore()
        assert world.senders[1].maxseq < QUICK.first_drop_seq
