"""Run ``fedsim run`` in this process with spans around its layers.

    python bench/tracer.py TRACE.json run --config CFG --out DIR

The program is not changed: the public functions that ``fedsim.cli`` and
``fedsim.engine`` call are replaced, as attributes of the module that calls
them, by wrappers that time each call.  ``engine`` imports ``forward_cached``,
``cross_entropy`` and the rest by name, so those are wrapped on
``fedsim.engine``; wrapping them on ``fedsim.nn`` would miss every call the
engine makes.  Each span's self time is its duration minus the wrapped calls
inside it.  At exit the totals go to TRACE.json and the process exits with
``fedsim run``'s own code.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
from collections import defaultdict

import fedsim.cli as cli
import fedsim.engine as engine

# (module, attribute, span, counts calls)
SPANS = (
    (cli, "load_config_dict", "config.resolve", False),
    (cli, "resolve_config", "config.resolve", False),
    (cli, "build_datasets", "data.build", False),
    (engine, "reserve_indices", "data.partition", False),
    (engine, "partition_iid", "data.partition", False),
    (engine, "partition_dirichlet", "data.partition", False),
    (engine, "measure_durations", "clustering.cluster", False),
    (engine, "cluster_profiles", "clustering.cluster", False),
    (cli, "build_model_spec", "models.init", False),
    (engine, "build_pruned_spec", "models.init", False),
    (engine, "init_params", "models.init", False),
    (engine, "overlap_map", "models.init", False),
    (engine, "extract_overlap", "models.extract_overlap", False),
    (cli, "run_experiment", "engine.run_experiment", False),
    (engine, "local_update", "engine.local_update", True),
    (engine, "stage1_aggregate", "engine.stage1", False),
    (engine, "stage2_dml", "engine.stage2", False),
    (engine, "evaluate", "engine.evaluate", False),
    (engine, "heterofl_aggregate", "engine.heterofl_aggregate", False),
    (engine, "forward_cached", "nn.forward", True),
    (engine, "backward_from_cache", "nn.backward", True),
    (engine, "sgd_step", "nn.sgd_step", True),
    (engine, "model_forward", "nn.eval_forward", False),
    (engine, "cross_entropy", "losses.cross_entropy", True),
    (engine, "kl_divergence", "losses.kl", True),
    (engine, "kl_divergence_model_led", "losses.kl", True),
    # the consensus softening inside stage 2 belongs to the KL computation
    (engine, "softmax_with_temperature", "losses.kl", False),
)


class Tracer:
    """Self and inclusive time per span name, plus call and work counts."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.active = defaultdict(int)
        self.stack: list[list[float]] = []  # [start, time spent in wrapped children]
        self.alloc_peak: int | None = None  # tracemalloc peak of the first merge
        self.rounds_end: float | None = None  # when run_experiment returned

    def wrap(self, fn, span: str, counted: bool):
        notes_work = span in ("nn.forward", "nn.sgd_step")
        watches_alloc = span == "engine.heterofl_aggregate"
        ends_rounds = span == "engine.run_experiment"

        def wrapper(*args, **kwargs):
            if notes_work:
                self._note(span, args)
            if counted:
                self.calls[span] += 1
            # every merge allocates the same, and tracemalloc slows the call
            # it watches by about a tenth, so only the first one is watched
            measure_alloc = watches_alloc and self.alloc_peak is None
            if measure_alloc:
                tracemalloc.start()
            self.active[span] += 1
            frame = [time.perf_counter(), 0.0]
            self.stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - frame[0]
                self.stack.pop()
                self.active[span] -= 1
                if measure_alloc:
                    self.alloc_peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                if ends_rounds:
                    self.rounds_end = frame[0] + duration
                self.self_s[span] += duration - frame[1]
                self.inclusive_s[span] += duration
                if self.stack:
                    self.stack[-1][1] += duration

        return wrapper

    def _note(self, span: str, args) -> None:
        if span == "nn.forward" and self.active["engine.local_update"]:
            self.counts["engine.local_steps"] += 1
            self.counts["engine.local_samples"] += len(args[2])
        elif span == "nn.sgd_step" and self.active["engine.stage2"]:
            self.counts["engine.distill_steps"] += 1

    def install(self) -> None:
        for module, attr, span, counted in SPANS:
            setattr(module, attr, self.wrap(getattr(module, attr), span, counted))

    def report(self, output_s: float) -> dict:
        self_ms = {k: v * 1e3 for k, v in self.self_s.items()}
        self_ms["cli.output"] = output_s * 1e3
        return {
            "self_ms": self_ms,
            "inclusive_ms": {k: v * 1e3 for k, v in self.inclusive_s.items()},
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "heterofl_alloc_mb": (self.alloc_peak or 0) / 2**20,
        }


def main(argv: list[str]) -> int:
    out_path, fedsim_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    code = cli.main(fedsim_args)
    # everything after the round loop: cluster report, summary, checkpoints
    output_s = time.perf_counter() - tracer.rounds_end if tracer.rounds_end is not None else 0.0
    with open(out_path, "w") as fh:
        json.dump(tracer.report(output_s), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
