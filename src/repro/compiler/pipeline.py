"""End-to-end compilation driver: DSL program -> static schedule + stats."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.compiler.csr_scheduler import csr_order
from repro.compiler.cycle_scheduler import CycleSchedule, schedule_cycles
from repro.compiler.data_scheduler import DataMovementSchedule, schedule_data_movement
from repro.compiler.hecompiler import KsChoice, TranslationResult, compile_to_instructions
from repro.core.config import F1Config
from repro.dsl.program import Program


@dataclass
class CompiledProgram:
    program: Program
    translation: TranslationResult
    movement: DataMovementSchedule
    schedule: CycleSchedule
    config: F1Config

    @property
    def makespan(self) -> int:
        return self.schedule.makespan

    @property
    def time_ms(self) -> float:
        return self.schedule.time_ms

    def retimed(self, config: F1Config) -> "CompiledProgram":
        """This program cycle-scheduled for another architecture.

        Phases 1 and 2 read the architecture only through the scratchpad
        capacity, so a config that keeps it (other FUs, cluster counts, HBM
        bandwidth) shares this translation and data movement and needs phase
        3 alone.  A different capacity is refused rather than recompiled.
        """
        capacity = config.scratchpad_capacity_rvecs(self.program.n)
        if capacity != self.movement.capacity_rvecs:
            raise ValueError(
                f"{config.name} holds {capacity} residue vectors, the data "
                f"movement was scheduled for {self.movement.capacity_rvecs}: "
                "compile_program() it instead"
            )
        schedule = schedule_cycles(self.translation.graph, self.movement, config)
        return replace(self, schedule=schedule, config=config)

    def traffic_breakdown_bytes(self) -> dict:
        return self.movement.traffic.breakdown(self.config.rvec_bytes(self.program.n))

    def summary(self) -> dict:
        return {
            "program": self.program.name,
            "n": self.program.n,
            "instructions": len(self.translation.graph.kind),
            "makespan_cycles": self.makespan,
            "time_ms": round(self.time_ms, 4),
            "offchip_bytes": sum(self.traffic_breakdown_bytes().values()),
            "fu_utilization": {
                k: round(v, 3) for k, v in self.schedule.fu_utilization().items()
            },
            "hbm_utilization": round(self.schedule.hbm_utilization(), 3),
        }


def compile_program(
    program: Program,
    config: F1Config | None = None,
    *,
    ks_choice: KsChoice | None = None,
    scheduler: str = "f1",
) -> CompiledProgram:
    """Run all three compiler phases.

    ``scheduler`` selects the phase-2 instruction order: "f1" (the paper's,
    i.e. phase-1 priority order) or "csr" (the Goodman-Hsu baseline of
    Sec. 8.3 / Table 5).
    """
    config = config or F1Config()
    translation = compile_to_instructions(
        program, ks_choice=ks_choice,
        capacity_rvecs=config.scratchpad_capacity_rvecs(program.n),
    )
    order = None
    if scheduler == "csr":
        order = csr_order(translation.graph)
    elif scheduler != "f1":
        raise ValueError(f"unknown scheduler {scheduler!r}")
    movement = schedule_data_movement(
        translation.graph, translation.outputs, config, order=order
    )
    schedule = schedule_cycles(translation.graph, movement, config)
    return CompiledProgram(
        program=program,
        translation=translation,
        movement=movement,
        schedule=schedule,
        config=config,
    )
