"""``--seed`` -> the inputs each workload hands to the program.

Plain data only (no ``repro`` import): the simulator receives the
generated cells, specs and command lists, never the benchmark seed
itself.  The same seed always gives the same inputs; every loss seed,
scene seed and graph seed below derives from it.
"""

import hashlib
import random

#: ``lossy_recovery``: every sender the package ships on the paper's
#: evaluation path, so a congestion-control refactor moves this workload
#: whichever variant it touches.
ALL_VARIANTS = (
    "tahoe", "reno", "newreno", "sack", "rr",
    "rightedge", "linkung", "vegas", "cubic", "relentless",
)
#: ``observed_recovery``: the five variants the committed reference
#: classifier knows (the golden set).
GOLDEN_VARIANTS = ("tahoe", "reno", "newreno", "sack", "rr")
LOSS_RATES = (0.01, 0.03)
#: Finite transfers (not a fixed simulated duration) keep the amount of
#: simulated work per cell the same whatever the loss realisation, so
#: ten different seeds time (nearly) the same work.
TRANSFER_PACKETS = 2500
#: Generous: the slowest cell seen (tahoe, p=0.03) finishes by ~150 s.
HORIZON_S = 600.0

#: ``paper_sweep``: the grids ``scripts/regenerate_experiments.sh``
#: users run that fit the driver's budget (table5 alone costs more than
#: the other four together; see bench/README.md).
SWEEP_EXPERIMENTS = ("fig5", "fig6", "fig7", "ackloss")


def derive_seed(seed, purpose):
    """A 31-bit seed for ``purpose``, a pure function of ``seed``."""
    digest = hashlib.sha256(f"bench/{seed}/{purpose}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def dumbbell_cells(seed, variants, smoke):
    """One single-flow cell per (variant, p) on the Figure-7 dumbbell.
    All variants face the same loss realisation at a given p."""
    rates = LOSS_RATES[1:] if smoke else LOSS_RATES
    packets = 300 if smoke else TRANSFER_PACKETS
    if smoke:
        variants = tuple(v for v in variants if v in ("sack", "rr"))
    return [
        {
            "id": f"{variant}/p{rate}",
            "variant": variant,
            "loss_rate": rate,
            "loss_seed": derive_seed(seed, f"loss/{rate}"),
            "packets": packets,
            "horizon": HORIZON_S,
        }
        for variant in variants
        for rate in rates
    ]


def lossy_recovery_inputs(seed, smoke=False):
    return {"cells": dumbbell_cells(seed, ALL_VARIANTS, smoke)}


def observed_recovery_inputs(seed, smoke=False):
    return {"cells": dumbbell_cells(seed, GOLDEN_VARIANTS, smoke)}


def wan_red_inputs(seed, smoke=False):
    """A Waxman WAN scene: RED on every core link, long-lived flows."""
    return {
        "n_routers": 10 if smoke else 40,
        "flows": 8 if smoke else 60,
        "graph_seed": derive_seed(seed, "wan/graph"),
        "scene_seed": derive_seed(seed, "wan/scene"),
        "red": {"min_th": 10.0, "max_th": 40.0, "max_p": 0.02, "limit": 120},
        "duration": 0.5 if smoke else 1.5,
        "slice": 0.25,
    }


def paper_sweep_inputs(seed, smoke=False):
    """The CLI calls of one pass, in a seeded order (the experiments
    CLI takes no seed: the grids themselves are the paper's)."""
    experiments = ["fig6"] if smoke else list(SWEEP_EXPERIMENTS)
    random.Random(derive_seed(seed, "sweep/order")).shuffle(experiments)
    return {
        "experiments": experiments,
        "flags": ["--quick", "--jobs", "1", "--cache", "--quiet"],
    }
