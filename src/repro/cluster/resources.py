"""Cluster resource profiles (the paper's Table I configuration space).

A :class:`ResourceProfile` captures everything the resource manager
allocates to one Spark application: cluster shape (nodes, cores), the
executors granted (count, cores each, memory each), and the I/O
throughputs between/within nodes. :class:`ResourceSampler` draws the
varied resource states the paper collects training data under.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from repro.errors import ResourceError

__all__ = ["ResourceProfile", "ResourceSampler", "PAPER_CLUSTER", "MAX_CLUSTER", "RESOURCE_FEATURE_NAMES"]

RESOURCE_FEATURE_NAMES = [
    "node",
    "core",
    "executor",
    "e_core",
    "e_memory_gb",
    "n_throughput_mbps",
    "d_throughput_mbps",
]


@dataclass(frozen=True)
class ResourceProfile:
    """One concrete resource allocation (paper Table I).

    Parameters
    ----------
    nodes:
        Number of worker nodes in the cluster.
    cores_per_node:
        Physical cores per node.
    executors:
        Executor processes granted to the application.
    executor_cores:
        Concurrent task slots per executor ("E-Core").
    executor_memory_gb:
        Heap per executor in GB ("E-Memory").
    network_throughput_mbps:
        Inter-node network throughput ("N-throughput"), MB/s.
    disk_throughput_mbps:
        Per-node disk read/write throughput ("D-throughput"), MB/s.
    """

    nodes: int = 4
    cores_per_node: int = 4
    executors: int = 2
    executor_cores: int = 2
    executor_memory_gb: float = 4.0
    network_throughput_mbps: float = 120.0
    disk_throughput_mbps: float = 150.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ResourceError(f"{f.name} must be finite, got {value!r}")
        if self.nodes < 1 or self.cores_per_node < 1:
            raise ResourceError("cluster must have at least one node and core")
        if self.executors < 1 or self.executor_cores < 1:
            raise ResourceError("application needs at least one executor and core")
        if self.executor_memory_gb <= 0:
            raise ResourceError("executor memory must be positive")
        if self.network_throughput_mbps <= 0 or self.disk_throughput_mbps <= 0:
            raise ResourceError("throughputs must be positive")

    # -- derived quantities -------------------------------------------------
    @property
    def physical_cores(self) -> int:
        """Total physical cores in the cluster."""
        return self.nodes * self.cores_per_node

    @property
    def task_slots(self) -> int:
        """Concurrent task slots, capped by physical cores."""
        return min(self.executors * self.executor_cores, self.physical_cores)

    @property
    def oversubscribed(self) -> bool:
        """Whether requested slots exceed physical cores."""
        return self.executors * self.executor_cores > self.physical_cores

    @property
    def executor_memory_bytes(self) -> float:
        """Executor heap in bytes."""
        return self.executor_memory_gb * 1e9

    @property
    def execution_memory_per_task(self) -> float:
        """Unified-memory execution budget per concurrent task, bytes.

        Spark reserves ~40% of the heap for storage/internal use; the
        rest is shared by the executor's concurrent tasks.
        """
        return 0.6 * self.executor_memory_bytes / self.executor_cores

    @property
    def total_memory_gb(self) -> float:
        """Memory granted to the application across executors."""
        return self.executors * self.executor_memory_gb

    # -- feature extraction (paper eq. 1) --------------------------------
    def as_features(self, maxima: "ResourceProfile | None" = None) -> np.ndarray:
        """Normalize each resource into [0, 1] (paper eq. 1).

        ``maxima`` is the profile describing the system's maximum
        available resources; defaults to :data:`PAPER_CLUSTER` limits.
        """
        maxima = maxima or MAX_CLUSTER
        raw = np.array([
            self.nodes, self.cores_per_node, self.executors, self.executor_cores,
            self.executor_memory_gb, self.network_throughput_mbps,
            self.disk_throughput_mbps,
        ], dtype=np.float64)
        caps = np.array([
            maxima.nodes, maxima.cores_per_node, maxima.executors,
            maxima.executor_cores, maxima.executor_memory_gb,
            maxima.network_throughput_mbps, maxima.disk_throughput_mbps,
        ], dtype=np.float64)
        return np.clip(raw / caps, 0.0, 1.0)

    def with_memory(self, memory_gb: float) -> "ResourceProfile":
        """Copy with a different executor memory (used by sweeps)."""
        return replace(self, executor_memory_gb=memory_gb)

    def __str__(self) -> str:
        return (f"{self.executors}x(cores={self.executor_cores}, "
                f"mem={self.executor_memory_gb:g}GB) on {self.nodes}x"
                f"{self.cores_per_node}c nodes")


#: The cloud cluster of the paper's Table III (4 nodes, 4 cores, 16 GB).
PAPER_CLUSTER = ResourceProfile(
    nodes=4, cores_per_node=4, executors=2, executor_cores=2,
    executor_memory_gb=4.0, network_throughput_mbps=120.0,
    disk_throughput_mbps=150.0,
)

#: Normalization caps: "the maximum available r_j of the system".
MAX_CLUSTER = ResourceProfile(
    nodes=8, cores_per_node=8, executors=8, executor_cores=8,
    executor_memory_gb=16.0, network_throughput_mbps=1000.0,
    disk_throughput_mbps=500.0,
)


@dataclass
class ResourceSampler:
    """Samples the varied resource states queries run under in the cloud.

    Mirrors the paper's data collection: "To approximate the variation
    of resources in a real scenario, we run all queries in multiple
    resource states." Executor count, executor cores, memory, and the
    throughputs all vary within realistic ranges of the base cluster.
    """

    base: ResourceProfile = field(default_factory=lambda: PAPER_CLUSTER)
    executor_choices: tuple[int, ...] = (1, 2, 3, 4)
    core_choices: tuple[int, ...] = (1, 2, 4)
    memory_choices_gb: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    throughput_jitter: float = 0.25

    def sample(self, rng: np.random.Generator) -> ResourceProfile:
        """Draw one resource state."""
        jitter = lambda v: float(v * rng.uniform(1.0 - self.throughput_jitter,
                                                 1.0 + self.throughput_jitter))
        return ResourceProfile(
            nodes=self.base.nodes,
            cores_per_node=self.base.cores_per_node,
            executors=int(rng.choice(self.executor_choices)),
            executor_cores=int(rng.choice(self.core_choices)),
            executor_memory_gb=float(rng.choice(self.memory_choices_gb)),
            network_throughput_mbps=jitter(self.base.network_throughput_mbps),
            disk_throughput_mbps=jitter(self.base.disk_throughput_mbps),
        )

    def sample_many(self, n: int, rng: np.random.Generator) -> list[ResourceProfile]:
        """Draw ``n`` resource states."""
        return [self.sample(rng) for _ in range(n)]
