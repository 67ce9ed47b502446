"""Configuration of the in situ cosmology-tools framework (paper Figure 4).

The simulation input deck names which analysis tools run and at which time
steps.  :class:`FrameworkConfig` is the parsed form: a list of
:class:`ToolConfig` entries, each selecting a registered tool by name, a
step schedule, and tool-specific parameters.

Schedules accept either an explicit step list (``steps=[11, 21, 31]``) or a
cadence (``every=10`` — fire after every 10th step, plus optionally the
final step).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["ToolConfig", "FrameworkConfig"]


@dataclass(frozen=True)
class ToolConfig:
    """One tool activation in the input deck."""

    tool: str
    steps: tuple[int, ...] = ()
    every: int | None = None
    include_final: bool = True
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.tool:
            raise ValueError("tool name must be nonempty")
        if self.every is not None and self.every < 1:
            raise ValueError(f"every must be >= 1, got {self.every}")
        if not self.steps and self.every is None and not self.include_final:
            raise ValueError(f"tool {self.tool!r} would never fire")
        object.__setattr__(self, "steps", tuple(int(s) for s in self.steps))

    def schedule(self, nsteps: int) -> list[int]:
        """Concrete step indices (1-based; 0 = initial conditions)."""
        fire: set[int] = set()
        for s in self.steps:
            if not 0 <= s <= nsteps:
                raise ValueError(f"step {s} outside [0, {nsteps}]")
            fire.add(s)
        if self.every is not None:
            fire.update(range(self.every, nsteps + 1, self.every))
        if self.include_final and (self.steps or self.every is not None):
            fire.add(nsteps)
        if not fire and self.include_final:
            fire.add(nsteps)
        return sorted(fire)


@dataclass(frozen=True)
class FrameworkConfig:
    """The analysis section of a simulation input deck."""

    tools: tuple[ToolConfig, ...]

    def __post_init__(self) -> None:
        names = [t.tool for t in self.tools]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tool entries: {names}")
        object.__setattr__(self, "tools", tuple(self.tools))

    @classmethod
    def from_dict(cls, spec: dict[str, Any]) -> "FrameworkConfig":
        """Parse the dict form used in examples and tests::

            {"tools": [
                {"tool": "tessellation", "every": 10,
                 "params": {"ghost": 4.0}},
                {"tool": "halo_finder", "steps": [100],
                 "params": {"linking_length": 0.2}},
            ]}
        """
        entries = spec.get("tools")
        if not isinstance(entries, list) or not entries:
            raise ValueError("config must contain a nonempty 'tools' list")
        tools = []
        for e in entries:
            if not isinstance(e, dict) or "tool" not in e:
                raise ValueError(f"tool entry needs a 'tool' name, got {e!r}")
            known = {"tool", "steps", "every", "include_final", "params"}
            extra = set(e) - known
            if extra:
                raise ValueError(f"unknown tool-config keys: {sorted(extra)}")
            tools.append(
                ToolConfig(
                    tool=e["tool"],
                    steps=tuple(e.get("steps", ())),
                    every=e.get("every"),
                    include_final=e.get("include_final", True),
                    params=dict(e.get("params", {})),
                )
            )
        return cls(tools=tuple(tools))
