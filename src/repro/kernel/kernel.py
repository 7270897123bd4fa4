"""The FlexStep kernel: Algorithm 1's context switch over the Table I ISA.

A deliberately small partitioned kernel: every core has its own EDF
ready queue; the kernel time-multiplexes tasks in quanta of simulated
cycles and performs the paper's context-switch sequence at every
switch.  Between switches the SoC's own co-sim scheduler
(:meth:`FlexStepSoC.run`, bounded at the quantum's end) advances every
core in clock order; the kernel steps no core itself.  The switch:

.. code-block:: none

    if G.Main_IDs.contain(core):     M.check.disable()
    elif G.Checker_IDs.contain(core): C.check_state(idle)
    Kernel.Intr(DISABLE)
    Kernel.Context.save(current)
    next = Kernel.Find_next()
    if next.new_release: G.Configure(...); Kernel.Context.init(next)
    else:                Kernel.Context.restore(next)
    Kernel.Intr(ENABLE)
    if G.Main_IDs.contain(core):     M.associate(...); M.check.enable()
    elif G.Checker_IDs.contain(core) and next.checker_thread:
                                      C.check_state(busy)
    Kernel.Context.jalr(current->pc)

Checker cores run the dedicated checker thread (Algorithm 2) whenever
no higher-priority ready task claims them — demonstrating Fig. 1(c)'s
"verification preempted by a non-verification task" capability: while
the checker thread is switched out, segments simply buffer in the DBC
(backpressuring the main core only if the buffers fill).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..core.registers import CSR_MTVEC
from ..errors import SchedulerError
from ..flexstep.soc import CoreAttr, FlexStepSoC
from ..sim.trace import TraceRecorder
from .task import KernelTask, TaskState

#: Cycles charged to a core for one context switch (trap entry, queue
#: manipulation, state save/restore).
CONTEXT_SWITCH_CYCLES = 60


@dataclass
class KernelStats:
    context_switches: int = 0
    tasks_finished: int = 0


class FlexKernel:
    """Quantum-driven partitioned EDF kernel over a FlexStepSoC.

    ``quantum_cycles`` is the simulated time between context switches.
    """

    def __init__(self, soc: FlexStepSoC, *,
                 quantum_cycles: int = 2000,
                 trace: Optional[TraceRecorder] = None):
        self.soc = soc
        self.control = soc.control
        self.quantum = quantum_cycles
        self.trace = trace if trace is not None \
            else TraceRecorder(enabled=False)
        self.stats = KernelStats()
        n = soc.config.num_cores
        self.ready: list[list[KernelTask]] = [[] for _ in range(n)]
        self.current: list[Optional[KernelTask]] = [None] * n
        #: Desired verification wiring: main core -> checker core ids.
        self._wiring: dict[int, tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    # configuration & task admission
    # ------------------------------------------------------------------

    def wire_verification(self, main_id: int,
                          checker_ids: Sequence[int]) -> None:
        """Declare which checker core(s) serve ``main_id`` and spawn the
        dedicated checker thread on each (Algorithm 2)."""
        ids = tuple(checker_ids)
        self._wiring[main_id] = ids
        mains = set(self._wiring)
        checkers = {c for cs in self._wiring.values() for c in cs}
        self.control.configure(mains, checkers)
        self.control.associate(main_id, ids)
        for cid in ids:
            if not any(t.checker_thread for t in self.ready[cid]):
                self.ready[cid].append(KernelTask(
                    name=f"checker@{cid}", program=None,
                    checker_thread=True, deadline=float("inf")))

    def spawn(self, core_id: int, task: KernelTask) -> None:
        """Admit ``task`` to ``core_id``'s ready queue."""
        if task.program is None and not task.checker_thread:
            raise SchedulerError(f"task {task.name} has no program")
        task.state = TaskState.NEW if task.context is None \
            else TaskState.READY
        self.ready[core_id].append(task)

    # ------------------------------------------------------------------
    # Algorithm 1: context switch
    # ------------------------------------------------------------------

    def context_switch(self, core_id: int) -> Optional[KernelTask]:
        """Switch ``core_id`` to its next task (EDF order)."""
        core = self.soc.cores[core_id]
        attr = self.control.attr_of(core_id)
        # lines 3-7: switch off checking around the switch
        if attr is CoreAttr.MAIN:
            self.control.check_disable(core_id)
        elif attr is CoreAttr.CHECKER:
            self.control.check_state(core_id, busy=False)
        # line 8: Kernel.Intr(DISABLE) — implicit: the switch itself is
        # atomic with respect to simulated instruction execution.
        current = self.current[core_id]
        # line 11: Kernel.Context.save(current)
        if current is not None and current.state is TaskState.RUNNING:
            if not current.checker_thread:
                current.context = core.snapshot()
            current.state = TaskState.READY
            self.ready[core_id].append(current)
        # line 12: Find_next — EDF over the ready queue; the checker
        # thread has an infinite deadline and loses every tie, so real
        # tasks preempt it.
        queue = self.ready[core_id]
        if not queue:
            self.current[core_id] = None
            return None
        queue.sort(key=lambda t: (t.deadline, t.checker_thread, t.name))
        nxt = queue.pop(0)
        # lines 13-19: init or restore the next task's context
        if nxt.checker_thread:
            pass  # its "context" is the checker engine's state
        elif nxt.new_release:
            # line 15/16: configure + Kernel.Context.init(next)
            self.soc.memory.load_segment(nxt.program.data.words)
            core.load_program(nxt.program)
            self._point_mtvec(core, nxt)
        else:
            core.restore(nxt.context)
            core.program = nxt.program
            core.halted = False
            self._point_mtvec(core, nxt)
        nxt.state = TaskState.RUNNING
        self.current[core_id] = nxt
        # lines 22-28: re-enable checking according to core attribute
        if attr is CoreAttr.MAIN:
            if nxt.verification and not nxt.checker_thread:
                self.control.associate(core_id, self._wiring[core_id])
                self.control.check_enable(core_id)
        elif attr is CoreAttr.CHECKER and nxt.checker_thread:
            self.control.check_state(core_id, busy=True)
        core.stats.cycles += CONTEXT_SWITCH_CYCLES
        self.stats.context_switches += 1
        self.trace.record(core.stats.cycles, "context_switch",
                          nxt.name, core=core_id)
        return nxt

    @staticmethod
    def _point_mtvec(core, task: KernelTask) -> None:
        handler = task.program.labels.get("_trap_handler")
        if handler is not None:
            core.csrs.raw_write(CSR_MTVEC, handler)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(self, *, max_quanta: int = 10_000) -> KernelStats:
        """Run quanta of simulated time until every user task finished
        and the checkers drained.

        Each quantum retires the tasks whose core halted, context-
        switches every core and runs the SoC's own scheduler up to a
        horizon one quantum past the latest core clock.  Once no user
        task is left, one unbounded run drains the checkers.
        """
        horizon = 0
        for _ in range(max_quanta):
            self._retire_finished()
            for core_id in range(self.soc.config.num_cores):
                self.context_switch(core_id)
            if not self._user_tasks_left():
                self.soc.run()
                return self.stats
            latest = max(core.stats.cycles for core in self.soc.cores)
            horizon = max(horizon, latest) + self.quantum
            self.soc.run(max_cycles=horizon)
        raise SchedulerError(
            f"kernel did not finish within {max_quanta} quanta")

    def _retire_finished(self) -> None:
        for core_id, task in enumerate(self.current):
            core = self.soc.cores[core_id]
            if task is None or task.checker_thread or not core.halted:
                continue
            task.state = TaskState.FINISHED
            self.current[core_id] = None
            self.stats.tasks_finished += 1
            self.soc.retire_main(core_id)
            self.trace.record(core.stats.cycles, "task_finished",
                              task.name, core=core_id)

    def _user_tasks_left(self) -> bool:
        return any(not t.checker_thread
                   for core_id, cur in enumerate(self.current)
                   for t in (cur, *self.ready[core_id]) if t is not None)
