"""Set-up as a user pays it: a fresh interpreter imports subshift and builds a workload's inputs.

run.py times this script end to end from outside. Usage:
    python3 perfbench/setup_probe.py --workload NAME --seed N
"""

import argparse

import checkout


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    checkout.use_checkout_source()
    import workloads

    workloads.make(args.workload, args.seed, checkout.OUT)


if __name__ == "__main__":
    main()
