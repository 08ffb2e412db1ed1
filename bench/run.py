"""Benchmark of ``fedsim run`` on three workloads.

    python3 bench/run.py --workload protocol-mlp --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 1

Run from the root of a source checkout: fedsim is imported from ``src/``.
Each ``fedsim run`` is a fresh process with a fresh output directory, serial
(``--workers 1``), with the BLAS thread count fixed at 1.  A measured run
repeats cycles until ``--seconds`` have passed (and at least
``MIN_CYCLES`` cycles ran).  With ``--trace 0`` a cycle is one
``training.rounds: 0`` process, whose wall time is the set-up time, and one
full process; the end-to-end metrics are medians over the cycles.  With
``--trace 1`` a cycle is one untraced and one traced full process (see
``tracer.py``); the per-layer metrics are medians over the traced ones
and the tracing overhead is the median of the per-cycle differences.  Every
process's outputs are checked (see ``checks.py``).  The last line printed is
one JSON object: ``correct``, ``attempted``, ``failed`` (processes that did
not exit 0) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from workloads import RATE_LADDER, WORKLOADS, Inputs, Workload, prepare, samples_per_round

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = BENCH / "_work"

MIN_CYCLES = 3
PROCESS_TIMEOUT_S = 60.0
NEW_CYCLE_LIMIT_S = 120.0  # never start a cycle later than this into a run

END_TO_END = {
    "total_s": "s",
    "setup_s": "s",
    "round_ms.p50": "ms",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> tracer span whose self time it reports
SELF_MS = {
    "config.resolve_ms": "config.resolve",
    "data.build_ms": "data.build",
    "data.partition_ms": "data.partition",
    "clustering.cluster_ms": "clustering.cluster",
    "models.init_ms": "models.init",
    "models.extract_overlap_ms": "models.extract_overlap",
    "nn.forward.ms": "nn.forward",
    "nn.backward.ms": "nn.backward",
    "nn.sgd_step.ms": "nn.sgd_step",
    "nn.eval_forward.ms": "nn.eval_forward",
    "losses.cross_entropy.ms": "losses.cross_entropy",
    "losses.kl.ms": "losses.kl",
    "engine.local_update.ms": "engine.local_update",
    "engine.stage1.ms": "engine.stage1",
    "engine.stage2.ms": "engine.stage2",
    "engine.evaluate.ms": "engine.evaluate",
    "engine.heterofl_aggregate.ms": "engine.heterofl_aggregate",
    "engine.run_experiment.ms": "engine.run_experiment",
    "cli.output_ms": "cli.output",
}
CALLS = {
    "nn.forward.calls": "nn.forward",
    "nn.backward.calls": "nn.backward",
    "nn.sgd_step.calls": "nn.sgd_step",
    "losses.cross_entropy.calls": "losses.cross_entropy",
    "losses.kl.calls": "losses.kl",
    "engine.local_update.calls": "engine.local_update",
}
COUNTS = ("engine.local_steps", "engine.local_samples", "engine.distill_steps")
PER_LAYER_UNITS = {
    **{name: "ms" for name in SELF_MS},
    **{name: "count" for name in (*CALLS, *COUNTS)},
    "engine.local_step_us": "us",
    "engine.heterofl_aggregate.alloc_mb": "MB",
    "trace.total_s": "s",
    "trace.unattributed_ms": "ms",
    "trace.overhead_s": "s",
}


@dataclass
class Process:
    code: int
    wall_s: float
    round_times: list[float]  # arrival of each "round k/N" line, from launch
    maxrss_mb: float
    out: Path


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def launch(argv: list[str], out: Path) -> Process:
    """Run one process to its end, timing it and each round line it prints."""

    with open(out.with_suffix(".stderr"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            round_times = [
                time.perf_counter() - start for line in proc.stdout if line.startswith(b"round ")
            ]
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Process(proc.returncode, wall, round_times, usage.ru_maxrss / 1024.0, out)


def load_test_set(inputs: Inputs) -> tuple[np.ndarray, np.ndarray]:
    """The test split the run evaluates on.  The benchmark wrote the images
    itself; blobs come from fedsim's own generator, read once before timing."""

    if inputs.image_test is not None:
        return inputs.image_test
    sys.path.insert(0, str(ROOT / "src"))
    from fedsim.config import build_datasets, load_config_dict, resolve_config

    _, test = build_datasets(resolve_config(load_config_dict(inputs.config_path)))
    return test.features, test.labels


class Session:
    """The processes of one benchmark run of one workload, and their checks."""

    def __init__(self, inputs: Inputs, work: Path):
        self.inputs = inputs
        self.workload: Workload = inputs.workload
        self.work = work
        self.test_x, self.test_y = load_test_set(inputs)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics_text: str | None = None
        self.setups: list[Process] = []
        self.fulls: list[Process] = []
        self.cluster_count = 0  # the same in every full run, as its outputs are
        self.traced: list[tuple[Process, dict]] = []
        self.trace_cost_s: list[float] = []  # traced minus untraced wall, per cycle
        self.serial = 0

    def _run(self, config: Path, traced: bool = False) -> Process | None:
        self.serial += 1
        out = self.work / f"run{self.serial:03d}"
        argv = [sys.executable]
        if traced:
            argv += [str(BENCH / "tracer.py"), str(out.with_suffix(".trace.json"))]
        else:
            argv += ["-m", "fedsim.cli"]
        argv += ["run", "--config", str(config), "--out", str(out)]
        self.attempted += 1
        proc = launch(argv, out)
        if proc.code != 0:
            self.failed += 1
            stderr = out.with_suffix(".stderr").read_text(errors="replace")[-2000:]
            print(f"{self.workload.name}: process exited {proc.code}\n{stderr}", file=sys.stderr)
            return None
        return proc

    def _problem(self, proc: Process, problems: list[str]) -> None:
        for p in problems:
            self.problems.append(f"{proc.out.name}: {p}")
            print(f"{self.workload.name}: {proc.out.name}: {p}", file=sys.stderr)

    def _cluster_problems(self, clusters: list[dict]) -> list[str]:
        if self.workload.designed_tiers:
            return checks.check_designed_tiers(clusters, self.inputs.fleet.tier_of, RATE_LADDER)
        return checks.check_rates_fall(clusters, self.workload.clients)

    def warm_up(self) -> None:
        """One untimed set-up process, so byte-code and file caches are filled."""

        self.setup()
        self.setups.clear()

    def setup(self) -> None:
        proc = self._run(self.inputs.setup_config_path)
        if proc is None:
            return
        self._problem(proc, self._checked(proc, self._setup_problems))
        self.setups.append(proc)

    def full(self, traced: bool = False) -> Process | None:
        proc = self._run(self.inputs.config_path, traced)
        if proc is None:
            return None
        self._problem(proc, self._checked(proc, self._full_problems))
        if traced:
            self.traced.append((proc, json.loads(proc.out.with_suffix(".trace.json").read_text())))
        elif len(proc.round_times) == self.workload.rounds:
            self.fulls.append(proc)
        return proc

    def _checked(self, proc: Process, check) -> list[str]:
        """Problems ``check`` finds in a process's outputs, which are then removed."""

        try:
            return check(proc)
        except (OSError, ValueError, KeyError) as exc:
            return [f"outputs cannot be read: {exc!r}"]
        finally:
            shutil.rmtree(proc.out, ignore_errors=True)

    def _setup_problems(self, proc: Process) -> list[str]:
        problems = []
        if (proc.out / "metrics.jsonl").read_text():
            problems.append("a 0-round run must leave an empty metrics.jsonl")
        report = (proc.out / "cluster_report.txt").read_text()
        return problems + self._cluster_problems(checks.parse_cluster_report(report))

    def _full_problems(self, proc: Process) -> list[str]:
        w = self.workload
        out = proc.out
        problems = []
        text = (out / "metrics.jsonl").read_text()
        if self.metrics_text is None:
            self.metrics_text = text
        elif text != self.metrics_text:
            problems.append("metrics.jsonl differs from the first run of this seed")
        records, found = checks.parse_metrics(text, w.rounds)
        problems += found
        if len(proc.round_times) != w.rounds:
            problems.append(f"printed {len(proc.round_times)} round lines, expected {w.rounds}")
        clusters = checks.parse_cluster_report((out / "cluster_report.txt").read_text())
        self.cluster_count = len(clusters)
        problems += self._cluster_problems(clusters)
        cluster_ckpts = sorted(
            out.glob("checkpoints/cluster*.npz"), key=lambda p: int(p.stem[len("cluster"):])
        )
        if records:
            last = records[-1]
            problems += checks.check_cluster_accuracy(last, cluster_ckpts, self.test_x, self.test_y)
            problems += checks.check_accuracy_floor(last, w.accuracy_floor)
            if w.fedtsa and len(clusters) >= 2:
                problems += checks.check_stage2_kl(records)
        if w.algorithm == "heterofl":
            problems += checks.check_heterofl_prefix(out / "checkpoints" / "global.npz", cluster_ckpts)
        return problems

    def end_to_end(self) -> dict[str, float]:
        gaps, throughput = [], []
        for proc in self.fulls:
            times = proc.round_times
            gaps += list(np.diff(times))
            # round 1 has no line before it, so rounds 2..N are timed
            samples = samples_per_round(self.workload, self.cluster_count) * (len(times) - 1)
            throughput.append(samples / (times[-1] - times[0]))
        return {
            "total_s": statistics.median(p.wall_s for p in self.fulls),
            "setup_s": statistics.median(p.wall_s for p in self.setups),
            "round_ms.p50": statistics.median(gaps) * 1e3,
            "samples_per_s": statistics.median(throughput),
            "peak_rss_mb": statistics.median(p.maxrss_mb for p in self.fulls),
        }

    def per_layer(self) -> dict[str, float]:
        runs = []
        for proc, trace in self.traced:
            self_ms, calls, counts = trace["self_ms"], trace["calls"], trace["counts"]
            v = {name: self_ms.get(span, 0.0) for name, span in SELF_MS.items()}
            v.update({name: calls.get(span, 0) for name, span in CALLS.items()})
            v.update({name: counts.get(name, 0) for name in COUNTS})
            steps = counts.get("engine.local_steps", 0)
            local_ms = trace["inclusive_ms"].get("engine.local_update", 0.0)
            v["engine.local_step_us"] = local_ms * 1e3 / steps if steps else 0.0
            v["engine.heterofl_aggregate.alloc_mb"] = trace["heterofl_alloc_mb"]
            v["trace.total_s"] = proc.wall_s
            v["trace.unattributed_ms"] = proc.wall_s * 1e3 - sum(self_ms.values())
            runs.append(v)
        values = {name: statistics.median(r[name] for r in runs) for name in runs[0]}
        for name in (*CALLS, *COUNTS):
            if len({r[name] for r in runs}) != 1:
                self._problem(self.traced[0][0], [f"{name} differs between traced runs: {[r[name] for r in runs]}"])
            values[name] = runs[0][name]
        values["trace.overhead_s"] = statistics.median(self.trace_cost_s)
        return values

    def result(self, trace: bool) -> dict:
        if trace:
            values = self.per_layer()
            units = PER_LAYER_UNITS
        else:
            values = self.end_to_end()
            units = END_TO_END
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{workload.name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        session = Session(prepare(workload, seed, work), work)
        session.warm_up()
        start = time.perf_counter()
        cycles = 0
        while True:
            if trace:
                plain = session.full()
                traced = session.full(traced=True)
                if plain and traced:
                    session.trace_cost_s.append(traced.wall_s - plain.wall_s)
            else:
                session.setup()
                session.full()
            cycles += 1
            elapsed = time.perf_counter() - start
            if elapsed >= NEW_CYCLE_LIMIT_S or (elapsed >= seconds and cycles >= MIN_CYCLES):
                break
        if not session.fulls or not (session.trace_cost_s if trace else session.setups):
            raise SystemExit(f"{workload.name}: no process completed; nothing to report")
        return session.result(trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still kills its child and removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "fedsim" / "cli.py").is_file():
        print(f"no fedsim source under {ROOT / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        for metric, m in results[name]["metrics"].items():
            print(f"{name:14s} {metric:36s} {m['value']:14.6g} {m['unit']}")
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": m for name, r in results.items() for metric, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
