"""The in situ cosmology-tools framework driver (paper Figure 4).

:class:`CosmologyToolsFramework` turns a :class:`FrameworkConfig` into the
hook table of a :class:`~repro.hacc.simulation.HACCSimulation` run: at each
configured time step the input particles are handed to the scheduled
analysis tools, and the results are collected per (tool, step) for run-time
inspection or for writing to storage — the postprocessing mode the paper
uses.
"""

from __future__ import annotations

import inspect
from collections.abc import Mapping
from typing import Any, Iterator

from ..core.tessellate import DistributedTessellation
from ..diy.comm import Communicator, run_parallel
from ..hacc.simulation import HACCSimulation, SimulationConfig, run_with_recovery
from ..observe import trace as _trace
from .config import FrameworkConfig
from .tools import TOOL_REGISTRY, AnalysisTool

__all__ = ["CosmologyToolsFramework", "InsituResults", "run_simulation_with_tools"]


class CosmologyToolsFramework:
    """Couples analysis tools to a simulation via its step hooks.

    Parameters
    ----------
    config:
        Which tools fire at which steps, with their parameters.
    registry:
        Tool-name resolution table; defaults to the built-in registry.
        Use :meth:`register` to add custom tools before instantiation.
    """

    def __init__(
        self,
        config: FrameworkConfig,
        registry: dict[str, type[AnalysisTool]] | None = None,
    ) -> None:
        self.config = config
        registry = dict(TOOL_REGISTRY if registry is None else registry)
        self.tools: list[AnalysisTool] = []
        self._tool_configs = []
        for tc in config.tools:
            cls = registry.get(tc.tool)
            if cls is None:
                raise ValueError(
                    f"unknown tool {tc.tool!r}; registered: {sorted(registry)}"
                )
            accepted = inspect.signature(cls).parameters
            unknown = sorted(set(tc.params) - set(accepted))
            if unknown and not any(
                p.kind is p.VAR_KEYWORD for p in accepted.values()
            ):
                raise ValueError(
                    f"unknown parameters for tool {tc.tool!r}: {unknown}; "
                    f"accepted: {sorted(accepted)}"
                )
            self.tools.append(cls(**tc.params))
            self._tool_configs.append(tc)
        #: results[tool_name][step] -> tool result
        self.results: dict[str, dict[int, Any]] = {t.name: {} for t in self.tools}
        # Live subscribers (the Catalyst-style run-time connection of paper
        # Figure 4): callbacks fired as each tool result is produced.
        self._subscribers: dict[str, list] = {}

    def subscribe(self, tool_name: str, callback) -> None:
        """Register ``callback(step, a, result)`` for a tool's live output.

        This is the run-time consumption mode the paper implements through
        ParaView Catalyst: instead of (or in addition to) writing results
        to storage for postprocessing, a live consumer sees each result the
        moment the in situ tool produces it.  Callbacks run on every rank;
        rank-dependent consumers should check their communicator (with
        one, a tessellation arrives as this rank's
        :class:`~repro.core.tessellate.DistributedTessellation`).
        """
        if tool_name not in self.results:
            raise ValueError(
                f"unknown tool {tool_name!r}; configured: {sorted(self.results)}"
            )
        self._subscribers.setdefault(tool_name, []).append(callback)

    @staticmethod
    def register(cls: type[AnalysisTool]) -> type[AnalysisTool]:
        """Class decorator adding a custom tool to the global registry."""
        if not cls.name:
            raise ValueError("tool class must define a nonempty 'name'")
        TOOL_REGISTRY[cls.name] = cls
        return cls

    # ------------------------------------------------------------------
    def hooks_for(self, sim: HACCSimulation, comm: Communicator | None):
        """Hook table for ``HACCSimulation.run`` firing the scheduled tools."""
        return self._hook_table(sim.config.nsteps, comm)

    def _hook_table(self, nsteps: int, comm: Communicator | None):
        table: dict[int, list] = {}
        for tool, tc in zip(self.tools, self._tool_configs):
            for step in tc.schedule(nsteps):
                table.setdefault(step, []).append(self._make_hook(tool, comm))
        return table

    def _make_hook(self, tool: AnalysisTool, comm: Communicator | None):
        def hook(sim: HACCSimulation, step: int, a: float) -> None:
            # Tools earlier in the config see a context of results already
            # produced at this step, so e.g. the void finder can consume
            # the tessellation tool's output instead of recomputing it.
            context = {
                name: per_step[step]
                for name, per_step in self.results.items()
                if step in per_step
            }
            with _trace.span(
                "insitu-tool",
                rank=comm.rank if comm is not None else 0,
                cat="insitu",
                tool=tool.name,
                step=step,
            ):
                result = tool.run(sim, step, a, comm, context=context)
            self.results[tool.name][step] = result
            for callback in self._subscribers.get(tool.name, []):
                callback(step, a, result)

        return hook

    def run(
        self,
        sim_config: SimulationConfig,
        comm: Communicator | None = None,
        *,
        checkpoint_dir: str | None = None,
        checkpoint_every: int = 0,
        resume: bool = False,
    ) -> "CosmologyToolsFramework":
        """Run a full simulation with this framework attached (one rank's
        view when ``comm`` is given; serial otherwise).  Returns ``self``.

        With ``checkpoint_dir`` set the run goes through
        :func:`repro.hacc.simulation.run_with_recovery`: every
        ``checkpoint_every`` steps the full simulation state is written
        crash-consistently, and ``resume=True`` restarts from the newest
        valid checkpoint — in situ tools are *not* re-fired for steps the
        interrupted run already analyzed (their results for those steps
        live in the earlier run's output, not in :attr:`results`).
        """
        table = self._hook_table(sim_config.nsteps, comm)
        if checkpoint_dir is not None:
            sim = run_with_recovery(
                sim_config,
                comm,
                checkpoint_dir=checkpoint_dir,
                checkpoint_every=checkpoint_every,
                resume=resume,
                hooks=table,
            )
            self._resumed_step = sim.recovery.resumed_step
        else:
            sim = HACCSimulation(sim_config, comm=comm)
            sim.run(hooks=table)
        self._simulation_seconds = sim.simulation_seconds()
        return self

    @property
    def simulation_seconds(self) -> float:
        """Wall-clock spent in simulation stepping during :meth:`run`."""
        return getattr(self, "_simulation_seconds", 0.0)

    @property
    def resumed_step(self) -> int:
        """Step the last :meth:`run` resumed from (-1 if it started fresh
        or ran without checkpointing)."""
        return getattr(self, "_resumed_step", -1)


class InsituResults(Mapping):
    """Per-tool result store plus run-level metrics.

    Behaves exactly like the ``{tool_name: {step: result}}`` mapping the
    driver used to return (indexing, iteration, ``in``), and additionally
    carries :attr:`simulation_seconds` — the cross-rank maximum wall-clock
    time spent stepping the simulation itself, i.e. the denominator for the
    paper's "analysis costs X% of simulation" accounting.
    """

    def __init__(
        self,
        results: dict[str, dict[int, Any]],
        simulation_seconds: float,
        resumed_step: int = -1,
    ) -> None:
        self._results = results
        self.simulation_seconds = simulation_seconds
        #: step the run resumed from (-1 for a fresh / non-checkpointed run)
        self.resumed_step = resumed_step

    def __getitem__(self, tool_name: str) -> dict[int, Any]:
        return self._results[tool_name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._results)

    def __len__(self) -> int:
        return len(self._results)

    def __repr__(self) -> str:
        return (
            f"InsituResults(tools={sorted(self._results)}, "
            f"simulation_seconds={self.simulation_seconds:.3g})"
        )


def run_simulation_with_tools(
    sim_config: SimulationConfig,
    framework_config: FrameworkConfig | dict,
    nranks: int = 1,
    backend: str = "thread",
    checkpoint_dir: str | None = None,
    checkpoint_every: int = 0,
    resume: bool = False,
) -> InsituResults:
    """Convenience driver: simulate with tools attached; return results.

    Analysis products (catalogs, histograms, trees, frames) are identical
    on every rank, so the rank-0 result store is returned, wrapped in an
    :class:`InsituResults` that also reports the max-over-ranks simulation
    stepping time.  Inside the parallel region a tessellation is a
    :class:`~repro.core.tessellate.DistributedTessellation` per rank; each
    rank's result carries its own block back, and here, outside the
    region and without a collective, those blocks are joined into the
    plain :class:`~repro.core.tessellate.Tessellation` the store holds.

    ``backend`` selects the SPMD substrate — ``"thread"`` (default) or
    ``"process"`` (one OS process per rank; true hardware parallelism for
    compute-bound in situ analysis) — see
    :func:`repro.diy.comm.run_parallel`.  Tool results are identical
    between the two.

    ``checkpoint_dir``/``checkpoint_every``/``resume`` enable the
    crash-recovery path of :meth:`CosmologyToolsFramework.run`; on a
    resumed run :attr:`InsituResults.resumed_step` reports the restart
    point and only steps after it appear in the result store.
    """
    if isinstance(framework_config, dict):
        framework_config = FrameworkConfig.from_dict(framework_config)

    # Module-level worker + picklable configs: the process backend can lease
    # persistent pool workers for the whole simulation instead of forking.
    results = run_parallel(
        nranks,
        _framework_worker,
        sim_config,
        framework_config,
        checkpoint_dir,
        checkpoint_every,
        resume,
        backend=backend,
    )
    sim_seconds = max(seconds for _, seconds, _ in results)
    return InsituResults(
        _joined([r[0] for r in results]),
        sim_seconds,
        resumed_step=results[0][2],
    )


def _joined(stores: list[dict[str, dict[int, Any]]]) -> dict[str, dict[int, Any]]:
    """Rank 0's result store with every tessellation handle replaced by the
    :class:`~repro.core.tessellate.Tessellation` of all ranks' blocks."""
    for tool, per_step in stores[0].items():
        for step, result in per_step.items():
            if isinstance(result, DistributedTessellation):
                per_step[step] = result.join_blocks(
                    [store[tool][step].block for store in stores]
                )
    return stores[0]


def _framework_worker(
    comm: Communicator,
    sim_config: SimulationConfig,
    framework_config: FrameworkConfig,
    checkpoint_dir: str | None,
    checkpoint_every: int,
    resume: bool,
):
    """Rank worker for :func:`run_simulation_with_tools` (picklable)."""
    fw = CosmologyToolsFramework(framework_config)
    fw.run(
        sim_config,
        comm=comm if comm.size > 1 else None,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
        resume=resume,
    )
    return fw.results, fw.simulation_seconds, fw.resumed_step
