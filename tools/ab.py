"""Time one benchmark command on two source trees in one process, alternating.

    python tools/ab.py PARENT_DIR CHANGE_DIR --workload W --command K --seconds S [--seed N]

Each directory is a checkout whose `src/ratshare` is imported under its
own package name, so both trees live in this process side by side.  The
command is command K (1-3, reported by the benchmark as `cmdK_ref`) of
workload W in this checkout's `bench/workloads.py`, built for each of its
input sets from seed N, for each tree, with one shared temporary
directory so that the paths echoed in `[config]` agree.

Every input set first runs once on each tree, unscored: its result
digests must agree (exit 1 otherwise) and its output must pass the
workload's check.  Then the two trees alternate, on one input set after
another and each going first every other time, until S seconds have
gone by and every set has been timed at least once.  The script prints
each tree's sum over input sets of its fastest time, their ratio (change
over parent), the median ratio of the pairs run, and in how many pairs
the change was faster; the last line holds the same figures as JSON.
A directory without `src/ratshare` exits 2.

Both trees share the process, its interpreter and the host's speed
swings, and each pair's two runs come back to back.  What that leaves
out is the benchmark's own scoring: `bench/run.py` divides by a
reference workload whose fastest sample falls as a run makes more
passes, so its `cmdK_ref` can move when another command's speed does.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from run import MODULES  # noqa: E402
from workloads import INPUT_SETS, WORKLOADS  # noqa: E402

SIDES = ("parent", "change")


def load_tree(checkout: Path, package: str) -> SimpleNamespace:
    """The benchmark's modules of `checkout/src/ratshare`, imported as `package`."""
    source = checkout / "src" / "ratshare"
    spec = importlib.util.spec_from_file_location(
        package, source / "__init__.py", submodule_search_locations=[str(source)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[package] = module
    spec.loader.exec_module(module)
    return SimpleNamespace(**{m: importlib.import_module(f"{package}.{m}") for m in MODULES})


def timed(command) -> tuple[float, str, object]:
    gc.collect()
    start = time.perf_counter()
    material, payload = command.run()
    elapsed = time.perf_counter() - start
    return elapsed, hashlib.sha256(material.encode()).hexdigest(), payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent tree")
    parser.add_argument("change", type=Path, help="checkout of the changed tree")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--command", type=int, required=True, choices=(1, 2, 3))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    for path in (args.parent, args.change):
        if not (path / "src" / "ratshare" / "__init__.py").is_file():
            print(f"ab: no ratshare sources at {path / 'src' / 'ratshare'}", file=sys.stderr)
            return 2
    trees = [load_tree(path.resolve(), f"ratshare_ab_{side}")
             for path, side in zip((args.parent, args.change), SIDES)]
    build = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix="ratshare-ab-") as tmp:
        commands = [[build(mods, args.seed, i, tmp)[args.command - 1] for i in range(INPUT_SETS)]
                    for mods in trees]
        for index in range(INPUT_SETS):
            digests = []
            for side, sets in zip(SIDES, commands):
                _, digest, payload = timed(sets[index])
                problems = sets[index].check(payload)
                if problems:
                    print(f"{side} input set {index} fails its check: {problems[0]}")
                    return 1
                digests.append(digest)
            if digests[0] != digests[1]:
                print(f"input set {index}: result digests differ, parent {digests[0][:12]} "
                      f"change {digests[1][:12]}")
                return 1

        times = [[[] for _ in range(INPUT_SETS)] for _ in SIDES]
        ratios = []
        deadline = time.perf_counter() + args.seconds
        pairs = 0
        while pairs < INPUT_SETS or time.perf_counter() < deadline:
            index = pairs % INPUT_SETS
            order = (0, 1) if pairs % 2 == 0 else (1, 0)
            pair = [0.0, 0.0]
            for side in order:
                pair[side] = timed(commands[side][index])[0]
                times[side][index].append(pair[side])
            ratios.append(pair[1] / pair[0])
            pairs += 1

    best = [sum(min(per_set) for per_set in side_times) for side_times in times]
    result = {
        "workload": args.workload,
        "command": f"cmd{args.command}",
        "seed": args.seed,
        "pairs": pairs,
        "parent_best_s": best[0],
        "change_best_s": best[1],
        "best_ratio": best[1] / best[0],
        "median_pair_ratio": statistics.median(ratios),
        "change_wins": sum(r < 1 for r in ratios),
    }
    print(f"{args.workload} cmd{args.command}, seed {args.seed}: {pairs} pairs over "
          f"{INPUT_SETS} input sets")
    for side, value in zip(SIDES, best):
        print(f"{side}: {value:.6f} s, fastest time per input set, summed")
    print(f"ratio change/parent {result['best_ratio']:.4f}; median pair ratio "
          f"{result['median_pair_ratio']:.4f}; change faster in {result['change_wins']} "
          f"of {pairs} pairs")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
