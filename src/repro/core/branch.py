"""Branch prediction model (Table II: 512-entry BHT, 28 BTB, 6 RAS).

Direction prediction uses 2-bit saturating counters; indirect-jump
targets come from the BTB (FIFO replacement); call/return pairs use the
return-address stack.  The core charges the mispredict penalty whenever
either the predicted direction or the predicted target is wrong.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..config import BranchPredictorConfig


@dataclass
class BranchStats:
    predictions: int = 0
    mispredictions: int = 0


class BranchPredictor:
    """Combined BHT + BTB + RAS predictor."""

    def __init__(self, config: BranchPredictorConfig | None = None):
        self.config = config or BranchPredictorConfig()
        # 2-bit counters initialised weakly-taken.
        self._bht = [2] * self.config.bht_entries
        self._btb: OrderedDict[int, int] = OrderedDict()
        self._ras: list[int] = []
        self.stats = BranchStats()

    def _bht_index(self, pc: int) -> int:
        return (pc >> 2) % self.config.bht_entries

    # -- conditional branches -----------------------------------------

    def update_branch(self, pc: int, taken: bool) -> bool:
        """Train on the resolved branch; returns True on mispredict."""
        idx = self._bht_index(pc)
        predicted = self._bht[idx] >= 2
        if taken and self._bht[idx] < 3:
            self._bht[idx] += 1
        elif not taken and self._bht[idx] > 0:
            self._bht[idx] -= 1
        self.stats.predictions += 1
        mispredicted = predicted != taken
        if mispredicted:
            self.stats.mispredictions += 1
        return mispredicted

    # -- indirect jumps (jalr) ------------------------------------------

    def update_target(self, pc: int, target: int) -> bool:
        """Train the BTB; returns True on target mispredict."""
        predicted = self._btb.get(pc)
        if pc in self._btb:
            self._btb[pc] = target
        else:
            if len(self._btb) >= self.config.btb_entries:
                self._btb.popitem(last=False)
            self._btb[pc] = target
        self.stats.predictions += 1
        mispredicted = predicted != target
        if mispredicted:
            self.stats.mispredictions += 1
        return mispredicted

    # -- return-address stack -------------------------------------------

    def push_return(self, return_addr: int) -> None:
        """Record a call's return address (bounded depth)."""
        self._ras.append(return_addr)
        if len(self._ras) > self.config.ras_entries:
            self._ras.pop(0)

    def pop_return(self) -> int | None:
        return self._ras.pop() if self._ras else None
