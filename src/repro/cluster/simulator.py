"""The Spark cluster simulator: (plan, resources) → execution time.

This is the reproduction's stand-in for the paper's real Tencent/Ali
cloud clusters. It executes the Spark stage model:

1. the plan splits into stages at exchange boundaries;
2. each stage runs its tasks in waves over the application's task
   slots, with quantization (a final partial wave wastes slots), skew
   (the slowest task gates the wave), and scheduling overhead;
3. per-stage work comes from the per-operator primitives in
   :mod:`repro.cluster.costfuncs`, which convert observed data volumes
   into CPU/disk/network demand given the memory available per task;
4. CPU time is inflated by a heap-proportional GC term, and stage time
   combines the bottleneck resource with partially-overlapped I/O;
5. a lognormal contention factor models noisy cloud neighbours.

These mechanisms jointly reproduce the paper's Sec. III observations:
runtime is non-monotone in executor memory (spill savings saturate
while GC overhead keeps growing), and the best plan flips with memory
(the broadcast-join cliff moves as the build side fits or not).
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.costfuncs import OperatorCost, SimulatorParams, operator_cost
from repro.cluster.resources import ResourceProfile
from repro.cluster.stages import Stage, split_stages
from repro.errors import SimulationError
from repro.plan.physical import PhysicalPlan

__all__ = ["StageTime", "SimulationResult", "SparkSimulator"]


@dataclass
class StageTime:
    """Timing breakdown of one simulated stage."""

    stage_id: int
    tasks: int
    waves: int
    cpu_seconds: float
    disk_seconds: float
    network_seconds: float
    overhead_seconds: float
    #: Busy plus overhead time, before the contention noise.
    base_seconds: float
    total_seconds: float
    spilled_bytes: float
    broadcast_fallback: bool


@dataclass
class SimulationResult:
    """Outcome of simulating one plan under one resource profile."""

    runtime_seconds: float
    stage_times: list[StageTime] = field(default_factory=list)
    #: CRC-32 of the plan signature; with the run id it seeds the noise.
    plan_key: int = 0

    @property
    def total_spilled_bytes(self) -> float:
        """Bytes spilled to disk across all stages."""
        return sum(s.spilled_bytes for s in self.stage_times)

    @property
    def any_broadcast_fallback(self) -> bool:
        """Whether any broadcast relation failed to fit in memory."""
        return any(s.broadcast_fallback for s in self.stage_times)


class SparkSimulator:
    """Simulates plan execution on a cluster.

    Parameters
    ----------
    params:
        Execution-model constants; defaults are calibrated for this
        repo's data scales.
    seed:
        Seed for the contention-noise stream. Two simulators with the
        same seed produce identical runtimes for identical inputs.
    """

    def __init__(self, params: SimulatorParams | None = None, seed: int = 0) -> None:
        self.params = params or SimulatorParams()
        if self.params.allocation not in ("static", "dynamic"):
            raise SimulationError(
                f"unknown allocation mechanism {self.params.allocation!r}")
        self._seed = seed

    # -- public API ---------------------------------------------------------
    def execute(self, plan: PhysicalPlan, resources: ResourceProfile,
                run_id: int = 0) -> SimulationResult:
        """Simulate ``plan`` under ``resources``.

        Every node must carry cardinality annotations (observed ones
        from :func:`repro.engine.execute_plan`, or at least estimates).
        ``run_id`` varies the contention noise between repeated runs of
        the same (plan, resources) pair.
        """
        for node in plan.nodes():
            if node.obs_rows is None and node.est_rows == 0.0:
                # Plans should be executed (or at least estimated) first;
                # zero-volume plans would simulate as free.
                raise SimulationError(
                    f"node {node.op_name} has no cardinality annotation; "
                    "run execute_plan() or annotate_estimates() first"
                )
        stages = split_stages(plan)
        # Key the contention noise on the plan *content* (not object
        # identity) so equal plans cost the same across processes and
        # repeated pipeline constructions.
        plan_key = zlib.crc32(plan.signature().encode())
        rng = self._noise_rng(plan_key, run_id)
        stage_times = [self._simulate_stage(stage, resources, rng) for stage in stages]
        runtime = self._job_overhead(resources) + sum(s.total_seconds for s in stage_times)
        return SimulationResult(runtime_seconds=runtime, stage_times=stage_times,
                                plan_key=plan_key)

    def execute_mean(self, plan: PhysicalPlan, resources: ResourceProfile,
                     runs: int = 3) -> float:
        """Average runtime over ``runs`` simulations (as the paper does).

        Repeated runs differ only in their contention noise, so run 0 is
        simulated in full and the later runs redraw the noise over its
        pre-noise stage seconds. The mean equals averaging ``runs``
        calls of :meth:`execute` bit for bit.
        """
        if runs < 1:
            raise SimulationError("runs must be >= 1")
        first = self.execute(plan, resources, run_id=0)
        bases = [s.base_seconds for s in first.stage_times]
        overhead = self._job_overhead(resources)
        total = first.runtime_seconds
        for run_id in range(1, runs):
            rng = self._noise_rng(first.plan_key, run_id)
            total += overhead + sum(base * self._noise(rng) for base in bases)
        return total / runs

    # -- internals ----------------------------------------------------------
    def _noise_rng(self, plan_key: int, run_id: int) -> np.random.Generator:
        return np.random.default_rng(
            (self._seed * 1_000_003 + plan_key * 7919 + run_id) % (2 ** 63))

    def _noise(self, rng: np.random.Generator) -> float:
        """One stage's lognormal contention factor."""
        return float(rng.lognormal(mean=0.0, sigma=self.params.noise_sigma))

    def _job_overhead(self, resources: ResourceProfile) -> float:
        startup_executors = (1 if self.params.allocation == "dynamic"
                             else resources.executors)
        return (self.params.job_overhead
                + self.params.executor_startup * startup_executors)

    def _task_count(self, stage: Stage, resources: ResourceProfile) -> tuple[int, float]:
        """(tasks, skew) for one stage.

        Map-side stages split their scan input adaptively; reduce-side
        stages read the fixed shuffle-partition count (Spark's
        ``spark.sql.shuffle.partitions``), whose largest partition is
        ``partition_skew`` times the average under skewed keys. A stage
        fed only by a single-partition exchange runs as one task.
        """
        from repro.plan.physical import (
            ExchangeHashPartition,
            ExchangeSinglePartition,
        )
        boundaries = [type(c.boundary) for c in stage.children
                      if c.boundary is not None]
        reads_hash = ExchangeHashPartition in boundaries
        reads_single = ExchangeSinglePartition in boundaries
        if reads_hash:
            return self.params.shuffle_partitions, self.params.partition_skew
        if reads_single:
            return 1, 1.0
        input_bytes = sum(node.bytes for node in stage.nodes if not node.children)
        input_bytes *= self.params.data_scale
        tasks = max(1, int(math.ceil(input_bytes / self.params.bytes_per_task)))
        return min(tasks, self.params.max_tasks_per_stage), self.params.map_side_skew

    def _simulate_stage(self, stage: Stage, resources: ResourceProfile,
                        rng: np.random.Generator) -> StageTime:
        params = self.params
        tasks, partition_skew = self._task_count(stage, resources)
        total = OperatorCost()
        for node in stage.nodes:
            total.add(operator_cost(node, resources, params, tasks, partition_skew))

        acquire_time = 0.0
        if params.allocation == "dynamic":
            # Under dynamic allocation the application holds only the
            # executors this stage can use; scaling up costs latency.
            wanted = max(1, math.ceil(tasks / resources.executor_cores))
            active_executors = min(resources.executors, wanted)
            acquire_time = params.executor_acquire_latency * active_executors
            slots = min(active_executors * resources.executor_cores,
                        resources.physical_cores)
        else:
            active_executors = resources.executors
            slots = resources.task_slots
        waves = max(1, int(math.ceil(tasks / slots)))
        # Quantization: the final partial wave still takes a full wave.
        effective_parallelism = tasks / waves
        # Straggler skew: the slowest task gates each wave.
        skew = 1.0 + params.skew_factor * (1.0 - 1.0 / tasks)
        # GC: heap-proportional CPU inflation (bigger heaps pause longer).
        gc_factor = 1.0 + params.gc_cost_per_gb * resources.executor_memory_gb
        cpu_time = total.cpu_seconds / max(effective_parallelism, 1.0) * skew * gc_factor

        # Disk parallelism is per node actually hosting executors.
        active_nodes = min(active_executors, resources.nodes)
        disk_time = total.disk_bytes / (resources.disk_throughput_mbps * 1e6 * active_nodes)
        network_time = total.network_bytes / (
            resources.network_throughput_mbps * 1e6 * active_nodes)

        # Pipelining hides most of the non-bottleneck work.
        components = sorted([cpu_time, disk_time, network_time], reverse=True)
        busy = components[0] + (1.0 - params.overlap_fraction) * sum(components[1:])

        overhead = (params.wave_overhead * waves + params.task_overhead * tasks
                    + acquire_time)
        base_seconds = busy + overhead
        total_seconds = base_seconds * self._noise(rng)
        return StageTime(
            stage_id=stage.stage_id,
            tasks=tasks,
            waves=waves,
            cpu_seconds=cpu_time,
            disk_seconds=disk_time,
            network_seconds=network_time,
            overhead_seconds=overhead,
            base_seconds=base_seconds,
            total_seconds=total_seconds,
            spilled_bytes=total.spilled_bytes,
            broadcast_fallback=total.broadcast_fallback,
        )
