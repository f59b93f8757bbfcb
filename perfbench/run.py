"""Benchmark entry point.

    python3 perfbench/run.py --workload exact-prove --seed 1 --seconds 20 --trace 0

Runs one workload against the ``apc`` package under ``src/`` of the checkout
this file sits in, checks every output, and prints the metrics as one JSON
object on the last line of standard output. See perfbench/README.md.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def use_checkout_src() -> None:
    """Make ``import apc`` load the package of this checkout and nothing else."""
    src = ROOT / "src"
    if not (src / "apc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no apc package under {src}")
    sys.path.insert(0, str(src))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout_src()
    import runner

    if args.workload not in runner.WORKLOADS:
        raise SystemExit(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(runner.WORKLOADS)}"
        )
    return runner.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)


if __name__ == "__main__":
    sys.exit(main())
