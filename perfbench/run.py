"""Benchmark of the apmeasure CLI workflows, run from a source checkout.

Usage:
  python3 perfbench/run.py --workload certify|ap_far|match_files \
      --seed N --seconds S --trace 0|1

Every timed command is a fresh `python -m apmeasure.cli` child with
PYTHONPATH set to this checkout's `src`, PYTHONHASHSEED=0 and
APMEASURE_ATOM_CAP unset, run one at a time.  A round is the workload's
list of commands; rounds repeat while the next one should end within S
seconds, and every round's outputs are checked afterwards.

--trace 0 prints the end-to-end metrics: wall_s (the sum over the commands
of each command's median wall time),
peak_rss_mb (largest peak RSS of any timed child) and setup_s (median of
several set-ups).  --trace 1 alternates untraced rounds with rounds run
through tracer.py and prints the per-layer metrics of BENCHMARK.json from
the traced rounds, plus the tracing overhead against the untraced ones.
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 7

sys.path.insert(0, str(HERE))
import oracle  # noqa: E402
from workloads import WORKLOADS, Output  # noqa: E402


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("APMEASURE_ATOM_CAP", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv: list[str], cwd: Path, trace_file: Path | None = None
              ) -> tuple[Output, float, float]:
    """Run one CLI command; returns its output, wall seconds and peak RSS in MB."""
    if trace_file is None:
        cmd = [sys.executable, "-m", "apmeasure.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "tracer.py"), str(trace_file), *argv]
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    output = Output(argv, proc.returncode, out_path.read_text(), err_path.read_text())
    return output, wall, usage.ru_maxrss / 1024


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def set_up(workload, work: Path, seed: int) -> float:
    """Make the inputs and start the CLI once; returns the seconds it took."""
    start = time.perf_counter()
    fresh_dir(work)
    workload.setup(work, seed)
    warm, _, _ = run_child(["--help"], work)
    if warm.code != 0:
        raise SystemExit(f"apmeasure does not start: {warm.stderr.strip()}")
    return time.perf_counter() - start


class Round:
    """One pass over a workload's commands."""

    def __init__(self, index: int, rdir: Path, traced: bool):
        self.index, self.rdir, self.traced = index, rdir, traced
        self.outputs: dict[int, Output] = {}
        self.failed: list[Output] = []
        self.walls: list[float] = []
        self.rss: list[float] = []
        self.traces: list[Path] = []

    def run(self, workload, work: Path) -> None:
        for i, argv in enumerate(workload.commands(work, self.rdir)):
            trace = self.rdir / f"trace-{i}.json" if self.traced else None
            output, wall, rss = run_child(argv, self.rdir, trace)
            self.walls.append(wall)
            self.rss.append(rss)
            if trace is not None:
                self.traces.append(trace)
            if output.code == 0:
                self.outputs[i] = output
            else:
                self.failed.append(output)

    @property
    def wall(self) -> float:
        return sum(self.walls)

    def digest(self) -> str:
        """Hash of every output: stdout of each command and each file it wrote."""
        h = hashlib.sha256()
        for i, out in sorted(self.outputs.items()):
            h.update(f"{i}:{out.stdout}".encode())
        for path in sorted(self.rdir.iterdir()):
            if path.suffix == ".json" and not path.name.startswith("trace-"):
                h.update(path.name.encode() + path.read_bytes())
        return h.hexdigest()


def median_wall(rounds: list[Round]) -> float:
    """Sum over the commands of each command's median wall time across rounds.

    A slow spell that hits one command in one round and another command in
    the next inflates every round's total, but neither command's median.
    """
    return sum(statistics.median(walls) for walls in zip(*(r.walls for r in rounds)))


def layer_metrics(rnd: Round) -> dict[str, float]:
    """Per-layer self time, counters and peak RSS from one traced round."""
    metrics: dict[str, float] = {"cli.self_s": rnd.wall}
    for path in rnd.traces:
        spans = json.loads(path.read_text())["spans"]
        child_time = [0.0] * len(spans)
        for sp in spans:
            duration = sp["end"] - sp["start"]
            if sp["parent"] is None:
                metrics["cli.self_s"] -= duration
            else:
                child_time[sp["parent"]] += duration
        for sp, children in zip(spans, child_time):
            name = sp["name"]
            key = f"{name}.self_s"
            metrics[key] = metrics.get(key, 0.0) + sp["end"] - sp["start"] - children
            for counter, value in sp.get("counters", {}).items():
                key = f"{name}.{counter}"
                metrics[key] = metrics.get(key, 0) + value
            if "rss_mb" in sp:
                key = f"{name}.rss_mb"
                metrics[key] = max(metrics.get(key, 0.0), sp["rss_mb"])
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "apmeasure" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not an apmeasure source checkout "
              f"(needs src/apmeasure and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    workload = WORKLOADS[args.workload]
    base = fresh_dir(OUT / args.workload)
    work = base / "inputs"

    setups = [set_up(workload, work, args.seed) for _ in range(SETUP_REPEATS)]

    # Start another round only if it should end within --seconds, judged by
    # the mean round so far; a traced run has at least one round of each kind.
    rounds: list[Round] = []
    start = time.perf_counter()
    while not rounds or (args.trace and len(rounds) < 2) or \
            time.perf_counter() - start + statistics.mean(r.wall for r in rounds) <= args.seconds:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rnd = Round(len(rounds), fresh_dir(base / f"round-{len(rounds)}"), traced)
        rnd.run(workload, work)
        rounds.append(rnd)

    problems = []
    try:
        oracle.self_check()
    except AssertionError as exc:
        problems.append(f"oracle: {exc}")
    # A round whose outputs are byte-identical to a round already checked
    # and found right needs no second check.
    verified = set()
    for rnd in rounds:
        for out in rnd.failed:
            print(f"round {rnd.index}: `apmeasure {' '.join(out.argv)}` exited {out.code}: "
                  f"{out.stderr.strip()[-300:]}", file=sys.stderr)
            if "FAIL" in out.stdout:
                problems.append(f"round {rnd.index}: `apmeasure {' '.join(out.argv)}` "
                                f"reported a failed check")
        digest = rnd.digest()
        if digest in verified:
            continue
        try:
            found = workload.check(rnd.rdir, rnd.outputs)
        except (KeyError, ValueError, IndexError, OSError) as exc:
            found = [f"malformed output: {exc!r}"]
        problems += [f"round {rnd.index}: {p}" for p in found]
        if not found:
            verified.add(digest)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    plain = [r for r in rounds if not r.traced]
    if args.trace:
        traced = [layer_metrics(r) for r in rounds if r.traced]
        overhead = median_wall([r for r in rounds if r.traced]) / median_wall(plain) - 1
        wanted = spec["per_layer"]
        values = {"trace_overhead_pct": 100 * overhead}
        for m in wanted:
            if m["name"] != "trace_overhead_pct":
                values[m["name"]] = statistics.median(t.get(m["name"], 0) for t in traced)
        unknown = set().union(*traced) - set(values)
        if unknown:
            print(f"error: spans outside BENCHMARK.json: {sorted(unknown)}", file=sys.stderr)
            return 2
    else:
        wanted = spec["end_to_end"]
        values = {
            "wall_s": median_wall(plain),
            "peak_rss_mb": max(max(r.rss) for r in plain),
            "setup_s": statistics.median(setups),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    n_commands = len(workload.commands(work, base))
    result = {
        "correct": not problems,
        "attempted": n_commands * len(rounds),
        "failed": sum(len(r.failed) for r in rounds),
        "metrics": metrics,
    }
    print(f"{args.workload}: seed {args.seed}, {len(rounds)} rounds, "
          f"round walls {[round(r.wall, 3) for r in rounds]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
