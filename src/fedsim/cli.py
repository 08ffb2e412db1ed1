"""Command-line entry points: run an experiment, profile a fleet, report clusters.

Outputs are designed for reproducibility first: the resolved config is echoed
next to the results (re-running it reproduces the run), per-round metrics are
appended line by line so an interrupted run leaves a valid file, and nothing
in ``metrics.jsonl`` depends on wall time.

Exit codes: 0 success, 1 configuration problem, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path

from fedsim.clustering import format_cluster_report, save_durations
from fedsim.config import (
    ExperimentConfig,
    apply_overrides,
    build_datasets,
    build_model_spec,
    build_profiles,
    load_config_dict,
    resolve_config,
)
from fedsim.engine import RunState, cluster_clients, profile_clients, run_experiment
from fedsim.errors import ConfigError, FedsimError
from fedsim.models import save_checkpoint

SUMMARY_COLUMNS = (
    "algorithm",
    "clusters",
    "rates",
    "rounds",
    "final_client_weighted_accuracy",
    "final_data_weighted_accuracy",
    "final_unweighted_accuracy",
    "final_mean_local_loss",
    "final_stage2_kl",
    "total_wall_seconds",
)


def _clean(value):
    """NaN/inf have no JSON form; they become null rather than corrupt lines."""

    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, list):
        return [_clean(v) for v in value]
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items()}
    return value


def metrics_line(metrics_dict: dict) -> str:
    """One round as one JSON object; floats keep full round-trip precision."""

    return json.dumps(_clean(metrics_dict), allow_nan=False)


def write_summary(path: Path, cfg: ExperimentConfig, result: RunState, wall_seconds: float) -> None:
    final = result.metrics[-1] if result.metrics else None
    row = {
        "algorithm": cfg.fed.algorithm,
        "clusters": len(result.states),
        "rates": ";".join(repr(float(r)) for r in result.assignment.rates),
        "rounds": len(result.metrics),
        "final_client_weighted_accuracy": repr(final.client_weighted_accuracy) if final else "",
        "final_data_weighted_accuracy": repr(final.data_weighted_accuracy) if final else "",
        "final_unweighted_accuracy": repr(final.unweighted_accuracy) if final else "",
        "final_mean_local_loss": (
            repr(final.mean_local_loss) if final and math.isfinite(final.mean_local_loss) else ""
        ),
        "final_stage2_kl": repr(final.stage2_kl) if final else "",
        "total_wall_seconds": repr(wall_seconds),
    }
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_COLUMNS)
        writer.writeheader()
        writer.writerow(row)


def _default_out_dir(config_path: str, cfg: ExperimentConfig) -> Path:
    return Path("runs") / f"{Path(config_path).stem}-{cfg.fed.algorithm}-seed{cfg.fed.master_seed}"


def _load_resolved(args) -> ExperimentConfig:
    raw = load_config_dict(args.config)
    raw = apply_overrides(
        raw,
        seed=getattr(args, "seed", None),
        algorithm=getattr(args, "algo", None),
        out=getattr(args, "out_dir", None),
    )
    return resolve_config(raw)


def cmd_run(args) -> int:
    cfg = _load_resolved(args)

    # everything that can fail fast does so before any output file is touched
    train, test = build_datasets(cfg)
    profiles = build_profiles(cfg)
    base_spec = build_model_spec(cfg, train)

    out_dir = Path(cfg.output["directory"]) if cfg.output["directory"] else _default_out_dir(args.config, cfg)
    metrics_path = out_dir / "metrics.jsonl"
    if metrics_path.exists():
        raise ConfigError(
            f"{metrics_path} already exists; metrics files are append-only, pick a fresh "
            "output directory",
            field="output.directory",
        )

    total_rounds = cfg.fed.rounds
    metrics_file = None

    def open_outputs():
        """Make the output directory, echo the config and open metrics.jsonl, once."""

        nonlocal metrics_file
        if metrics_file is None:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / "config.yaml").write_text(cfg.echo_text())
            metrics_file = metrics_path.open("a")

    def on_round(m):
        open_outputs()
        metrics_file.write(metrics_line(m.as_dict()) + "\n")
        metrics_file.flush()
        print(
            f"round {m.round_index + 1}/{total_rounds}: "
            f"client-weighted accuracy {m.client_weighted_accuracy:.4f}, "
            f"local loss {m.mean_local_loss:.4f}, stage-2 KL {m.stage2_kl:.4f}",
            flush=True,
        )

    try:
        started = time.perf_counter()
        result = run_experiment(cfg.fed, base_spec, train, test, profiles, on_round=on_round)
        wall_seconds = time.perf_counter() - started
        open_outputs()  # a run of zero rounds
    except ConfigError:
        raise  # prepare_run raises every config error, so nothing is written yet
    except BaseException:
        open_outputs()  # a failed run keeps its echo and its complete metrics lines
        raise
    finally:
        if metrics_file is not None:
            metrics_file.close()

    report = format_cluster_report(result.assignment, result.profiles)
    (out_dir / "cluster_report.txt").write_text(report + "\n")
    print(report)
    write_summary(out_dir / "summary.csv", cfg, result, wall_seconds)
    if cfg.output["write_checkpoints"]:
        ck_dir = out_dir / "checkpoints"
        ck_dir.mkdir(exist_ok=True)
        for state in result.states:
            save_checkpoint(ck_dir / f"cluster{state.cluster_id}.npz", state.spec, state.params)
        if result.global_params is not None:
            save_checkpoint(ck_dir / "global.npz", base_spec, result.global_params)

    if result.metrics:
        final = result.metrics[-1]
        print(
            f"done: {len(result.metrics)} rounds, final client-weighted accuracy "
            f"{final.client_weighted_accuracy:.4f}"
        )
    else:
        print("done: 0 rounds (nothing trained)")
    print(f"outputs in {out_dir}")
    return 0


def cmd_profile(args) -> int:
    cfg = _load_resolved(args)
    profiles = profile_clients(cfg.fed, build_profiles(cfg))
    out_path = Path(args.out)
    save_durations(out_path, profiles)
    print(f"wrote {len(profiles)} durations to {out_path}")
    return 0


def cmd_cluster(args) -> int:
    cfg = _load_resolved(args)
    profiles = profile_clients(cfg.fed, build_profiles(cfg))
    report = format_cluster_report(cluster_clients(cfg.fed, profiles), profiles)
    print(report)
    if args.out:
        Path(args.out).write_text(report + "\n")
        print(f"wrote report to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsim",
        description="Deterministic federated-learning simulator with resource clustering.",
    )
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="run a federated experiment from a config file")
    run_p.add_argument("--config", required=True, help="YAML experiment config")
    run_p.add_argument("--seed", type=int, default=None, help="override the master seed")
    run_p.add_argument("--out", dest="out_dir", default=None, help="override the output directory")
    run_p.add_argument("--algo", default=None, help="override the training algorithm")

    profile_p = sub.add_parser("profile", help="measure client durations and write a durations file")
    profile_p.add_argument("--config", required=True, help="YAML experiment config")
    profile_p.add_argument("--seed", type=int, default=None, help="override the master seed")
    profile_p.add_argument("--out", default="durations.csv", help="durations file to write")

    cluster_p = sub.add_parser("cluster", help="print the clustering report without training")
    cluster_p.add_argument("--config", required=True, help="YAML experiment config")
    cluster_p.add_argument("--seed", type=int, default=None, help="override the master seed")
    cluster_p.add_argument("--out", default=None, help="also write the report to this file")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "profile":
            return cmd_profile(args)
        return cmd_cluster(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except FedsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted; metrics written so far remain valid", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
