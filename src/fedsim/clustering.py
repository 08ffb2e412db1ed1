"""Client profiling and density-based resource clustering.

Clients are profiled by how long a fixed reference workload takes.  The
simulator draws durations as ``speed_factor * workload_units * (1 + eps)``
with truncated Gaussian relative noise; real measurements can be supplied via
a durations file instead.

The duration sample is then smoothed with a Gaussian kernel density estimate
(Silverman's rule bandwidth by default) and cut at the local minima of the
estimated density: each valley is a cluster boundary, so the number of
clusters is discovered from the data rather than fixed up front.  One split
is applied at two depths: the whole sample is cut at every valley, and each
part is then re-estimated on its own and cut again at the valleys that dip
below ``REFINE_DEPTH_RATIO`` of both flanks (``refine=False`` stops after the
sample-wide split).  Every cluster receives a width-pruning rate
``t_fastest / t_cluster``, so the fastest cluster's raw rate is 1.0.  With a
discrete ladder of supported rates each rate snaps to the nearest rung, so
the fastest cluster takes the rung nearest 1.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from fedsim.errors import ConfigError, DimensionError

GRID_POINTS = 512


@dataclass(frozen=True)
class ClientProfile:
    """One simulated device: identity, relative speed and measured duration."""

    client_id: int
    speed_factor: float  # seconds per workload unit, > 0
    measured_duration: float | None = None


@dataclass(frozen=True)
class DensityEstimate:
    grid: np.ndarray
    density: np.ndarray


@dataclass(frozen=True, eq=False)
class ClusterAssignment:
    """Clusters over the profiled clients, ordered fastest (0) to slowest."""

    cluster_of: np.ndarray  # cluster index per client, in the profile order clustered
    boundaries: np.ndarray  # interior valley positions, ascending
    cluster_means: np.ndarray  # mean duration per cluster, ascending
    rates: np.ndarray  # width-pruning rate per cluster

    @property
    def cluster_count(self) -> int:
        return int(self.cluster_means.size)

    def members(self, cluster_id: int) -> np.ndarray:
        return np.flatnonzero(self.cluster_of == cluster_id)


def measure_durations(
    profiles: list[ClientProfile], workload_units: float, noise_sd: float, seed
) -> list[ClientProfile]:
    """Simulate profiling: ``speed * units * (1 + eps)``, eps ~ N(0, sd) clipped at 3 sd.

    ``noise_sd`` below 1/3 (the ``clients.profile_noise_sd`` setting) keeps
    durations positive even at the clipping boundary.  Profiles that already
    carry a measured duration are re-measured (the old value is replaced).
    """

    rng = np.random.default_rng(seed)
    eps = rng.normal(0.0, noise_sd, size=len(profiles)) if noise_sd > 0 else np.zeros(len(profiles))
    eps = np.clip(eps, -3.0 * noise_sd, 3.0 * noise_sd)
    return [
        replace(p, measured_duration=float(p.speed_factor * workload_units * (1.0 + e)))
        for p, e in zip(profiles, eps)
    ]


def save_durations(path, profiles: list[ClientProfile]) -> None:
    """Write ``client_id,duration_seconds`` lines (profiles must be measured)."""

    lines = ["# client_id,duration_seconds"]
    for p in profiles:
        if p.measured_duration is None:
            raise ConfigError(f"client {p.client_id} has no measured duration")
        lines.append(f"{p.client_id},{p.measured_duration!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_durations(path) -> dict[int, float]:
    """Parse a durations file written by :func:`save_durations` (or by hand)."""

    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"durations file {p} does not exist")
    out: dict[int, float] = {}
    for lineno, line in enumerate(p.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ConfigError(f"{p}:{lineno}: expected 'client_id,duration', got {line!r}")
        try:
            client_id = int(parts[0])
            duration = float(parts[1])
        except ValueError as exc:
            raise ConfigError(f"{p}:{lineno}: {exc}") from exc
        if not (math.isfinite(duration) and duration > 0):
            raise ConfigError(f"{p}:{lineno}: duration must be positive and finite, got {duration}")
        if client_id in out:
            raise ConfigError(f"{p}:{lineno}: duplicate client id {client_id}")
        out[client_id] = duration
    if not out:
        raise ConfigError(f"{p}: no duration entries found")
    return out


def apply_durations(profiles: list[ClientProfile], durations: dict[int, float]) -> list[ClientProfile]:
    """Attach file-loaded durations to matching profiles; ids must line up."""

    missing = [p.client_id for p in profiles if p.client_id not in durations]
    if missing:
        raise ConfigError(f"durations file lacks entries for clients {missing}")
    extra = sorted(set(durations) - {p.client_id for p in profiles})
    if extra:
        raise ConfigError(f"durations file names unknown clients {extra}")
    return [replace(p, measured_duration=durations[p.client_id]) for p in profiles]


def gaussian_kernel(u: np.ndarray) -> np.ndarray:
    """The standard normal density ``exp(-u^2/2) / sqrt(2 pi)``."""

    u = np.asarray(u, dtype=np.float64)
    return np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)


def _iqr(values: np.ndarray) -> float:
    """``np.percentile(values, 75) - np.percentile(values, 25)`` for two or more
    values, by the same linear method in the same float steps, without the
    ``np.unique`` inside ``np.percentile`` that imports ``numpy.ma``.  Each
    quantile reads its own partition at the indices ``np.percentile``
    partitions at, as a sort may order equal values (``0.0`` and ``-0.0``)
    otherwise."""

    last = values.size - 1

    def at(q: float) -> float:
        index = last * q
        below = math.floor(index)
        ordered = np.partition(values, sorted({0, below, below + 1, last}))
        if np.isnan(ordered[-1]):  # NaN sorts last
            return math.nan
        a, b, t = float(ordered[below]), float(ordered[below + 1]), index - below
        return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t

    return at(0.75) - at(0.25)


def silverman_bandwidth(values: np.ndarray) -> float:
    """``0.9 * min(std, iqr/1.34) * n^(-1/5)`` with a positive floor.

    Degenerate samples (zero spread) fall back to a floor proportional to the
    sample magnitude so the estimate stays well defined.
    """

    values = np.asarray(values, dtype=np.float64)
    n = values.size
    if n < 1:
        raise DimensionError("cannot estimate a bandwidth from an empty sample")
    floor = 1e-3 * max(1.0, float(np.abs(values).max(initial=0.0)))
    if n == 1:
        return floor
    std = float(np.std(values, ddof=1))
    iqr = _iqr(values)
    candidates = [c for c in (std, iqr / 1.34) if c > 0]
    if not candidates:
        return floor
    return max(0.9 * min(candidates) * n ** (-0.2), floor)


def kde_density(durations: np.ndarray, bandwidth: float | None = None) -> DensityEstimate:
    """Gaussian KDE on a 512-point grid spanning ``[min - 3h, max + 3h]``."""

    x = np.asarray(durations, dtype=np.float64)
    if x.size < 1:
        raise DimensionError("cannot estimate a density from an empty sample")
    if bandwidth is None:
        bandwidth = silverman_bandwidth(x)
    h = float(bandwidth)
    grid = np.linspace(x.min() - 3 * h, x.max() + 3 * h, GRID_POINTS)
    density = gaussian_kernel((grid[:, None] - x[None, :]) / h).mean(axis=1) / h
    return DensityEstimate(grid, density)


def _valley_runs(density: np.ndarray) -> list[tuple[int, int]]:
    """Index runs ``[a, b]`` of interior local minima (plateaus as one run)."""

    runs = []
    i = 1
    last = density.size - 1
    while i < last:
        j = i
        while j < last and density[j + 1] == density[i]:
            j += 1
        # run [i, j] of equal density, strictly interior
        if density[i - 1] > density[i] and j < last and density[j + 1] > density[j]:
            runs.append((i, j))
        i = j + 1
    return runs


def _deep_minima(density: np.ndarray, grid: np.ndarray, depth_ratio: float) -> np.ndarray:
    """Interior minima (plateaus at their midpoint) dipping below ``depth_ratio`` of both flanks."""

    runs = _valley_runs(density)
    kept = []
    for k, (a, b) in enumerate(runs):
        left_start = runs[k - 1][1] if k > 0 else 0
        right_end = runs[k + 1][0] if k + 1 < len(runs) else density.size - 1
        left_peak = density[left_start : a + 1].max()
        right_peak = density[b : right_end + 1].max()
        if density[a] <= depth_ratio * min(left_peak, right_peak):
            kept.append(0.5 * (grid[a] + grid[b]))
    return np.asarray(kept, dtype=np.float64)


MIN_REFINE_SIZE = 6
REFINE_DEPTH_RATIO = 0.45


def _split(estimate: DensityEstimate, values: np.ndarray, depth_ratio: float):
    """Cut ``values`` at the valleys of ``estimate`` that dip below ``depth_ratio`` of both flanks.

    Returns each value's part, numbered over the occupied parts in ascending
    order, and the cut between consecutive occupied parts (the last valley
    below the upper part).  A value exactly on a valley joins the lower part.
    """

    minima = _deep_minima(estimate.density, estimate.grid, depth_ratio)
    occupied, part = np.unique(np.searchsorted(minima, values, side="left"), return_inverse=True)
    return part, minima[occupied[1:] - 1]


def cluster_durations(
    durations: np.ndarray,
    bandwidth: float | None = None,
    ladder: tuple[float, ...] | None = None,
    refine: bool = True,
) -> ClusterAssignment:
    """Split durations at density valleys, then rate each cluster.

    The whole sample is split at every valley of its density estimate.  A
    single sample-wide bandwidth oversmooths when cluster scales differ a lot
    (durations of 2 s and 30 s in one sample make Silverman's rule merge
    nearby modes), so with ``refine`` each part is re-estimated on its own
    and split again, until nothing splits further.  Two guards keep this
    from shredding genuine clusters, whose small subsamples give unstable
    estimates: parts smaller than ``MIN_REFINE_SIZE`` or of a single value
    are never re-examined, and a refinement valley only counts when it dips
    below ``REFINE_DEPTH_RATIO`` of both flanking peaks.  Every boundary
    reported is a valley of some (sub)sample's estimate; an explicit
    ``bandwidth`` is reused at every level.

    Clusters are numbered by ascending mean.  A cluster's rate is
    ``fastest_mean / cluster_mean``; with a ladder, each rate snaps to the
    nearest rung and a tie takes the smaller rung, so the fastest cluster
    takes the rung nearest 1.0.
    """

    durations = np.asarray(durations, dtype=np.float64)
    if durations.size < 1:
        raise DimensionError("cannot cluster an empty duration sample")
    # a valley lies strictly below both neighbours, so ratio 1.0 keeps every one
    part, cuts = _split(kde_density(durations, bandwidth), durations, 1.0)
    boundaries = [cuts]
    first = [np.flatnonzero(part == p) for p in range(cuts.size + 1)]
    queue, groups = (first, []) if refine else ([], first)
    while queue:
        idx = queue.pop()
        values = durations[idx]
        if idx.size >= MIN_REFINE_SIZE and values.min() < values.max():
            part, cuts = _split(kde_density(values, bandwidth), values, REFINE_DEPTH_RATIO)
            if cuts.size:
                boundaries.append(cuts)
                queue.extend(idx[part == p] for p in range(cuts.size + 1))
                continue
        groups.append(idx)
    groups.sort(key=lambda g: float(durations[g].mean()))
    cluster_of = np.empty(durations.size, dtype=np.int64)
    for c, group in enumerate(groups):
        cluster_of[group] = c
    means = np.array([durations[g].mean() for g in groups])
    rates = means[0] / means
    if ladder is not None:
        rungs = np.sort(np.asarray(ladder, dtype=np.float64))
        # argmin takes the first of equal distances: the smaller rung
        rates = rungs[np.argmin(np.abs(rungs - rates[:, None]), axis=1)]
    return ClusterAssignment(cluster_of, np.sort(np.concatenate(boundaries)), means, rates)


def cluster_profiles(
    profiles: list[ClientProfile],
    bandwidth: float | None = None,
    ladder: tuple[float, ...] | None = None,
    refine: bool = True,
) -> ClusterAssignment:
    """:func:`cluster_durations` over the measured durations of ``profiles``."""

    durations = []
    for p in profiles:
        if p.measured_duration is None:
            raise ConfigError(f"client {p.client_id} has no measured duration")
        durations.append(p.measured_duration)
    return cluster_durations(np.asarray(durations), bandwidth, ladder, refine)


def format_cluster_report(assignment: ClusterAssignment, profiles: list[ClientProfile]) -> str:
    """Human-readable summary: one line per cluster plus the boundary list."""

    lines = [
        f"clusters: {assignment.cluster_count}",
        "boundaries: "
        + (", ".join(f"{b:.6g}" for b in assignment.boundaries) or "(none)"),
    ]
    for c in range(assignment.cluster_count):
        members = assignment.members(c)
        ids = [profiles[i].client_id for i in members]
        lines.append(
            f"cluster {c}: size={members.size} mean_duration={assignment.cluster_means[c]:.6g}s "
            f"rate={assignment.rates[c]:.4f} clients={ids}"
        )
    return "\n".join(lines)
