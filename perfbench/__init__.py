"""The repository benchmark: the tune, kernels and fleet paths of the
stack, timed end to end (untraced) and per layer (traced).

Run it with ``python3 perfbench/run.py --workload paper --seed 1
--seconds 25 --trace 0`` from the repository root; ``--help`` lists the
other modes.
"""
