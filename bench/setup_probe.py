"""Time one set-up in a fresh process: imports, config load, layouts and
population init, up to the moment ``cosyne.train`` starts its first
generation.  Prints that moment as ``time.monotonic()``, which is
system-wide on Linux, so the caller can subtract its own launch time.

    python3 bench/setup_probe.py <workload> <seed> [scale]
"""

import sys
import time

from workloads import WORKLOADS, bootstrap, build


class _FirstGeneration(Exception):
    pass


def main(argv) -> int:
    workload = WORKLOADS[argv[1]]
    seed = int(argv[2])
    scale = float(argv[3]) if len(argv) > 3 else 1.0
    bootstrap()
    from evoris import cosyne

    setup = build(workload, seed, scale=scale)

    def first_generation(*_args, **_kwargs):
        raise _FirstGeneration(time.monotonic())

    cosyne.sample_episodes = first_generation
    try:
        cosyne.train(setup.train_scenario, setup.policy_cfg, setup.evo,
                     setup.train_seed, agg_cfg=setup.agg_cfg,
                     workers=workload.workers)
    except _FirstGeneration as started:
        print(repr(started.args[0]))
        return 0
    print("train returned without starting a generation", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
