"""Branch predictor model tests.

The core only trains the predictor, so predictions are observed through
the mispredict flag each ``update_*`` call returns.
"""

from repro.config import BranchPredictorConfig
from repro.core import BranchPredictor


class TestBHT:
    def test_initial_prediction_weakly_taken(self):
        pred = BranchPredictor()
        assert pred.update_branch(0x40, taken=True) is False

    def test_trains_not_taken(self):
        pred = BranchPredictor()
        for _ in range(3):
            pred.update_branch(0x40, taken=False)
        assert pred.update_branch(0x40, taken=False) is False

    def test_saturates(self):
        pred = BranchPredictor()
        for _ in range(10):
            pred.update_branch(0x40, taken=True)
        # one contrary outcome should not flip a saturated counter
        pred.update_branch(0x40, taken=False)
        assert pred.update_branch(0x40, taken=True) is False

    def test_mispredict_reported(self):
        pred = BranchPredictor()
        assert pred.update_branch(0x40, taken=False) is True  # predicted T
        assert pred.update_branch(0x40, taken=False) is False

    def test_stats_counted(self):
        pred = BranchPredictor()
        pred.update_branch(0, True)
        pred.update_branch(0, False)
        assert pred.stats.predictions == 2
        assert pred.stats.mispredictions == 1

    def test_aliasing_uses_table_size(self):
        pred = BranchPredictor(BranchPredictorConfig(bht_entries=4))
        for _ in range(3):
            pred.update_branch(0x0, taken=False)
        # pc 0x40 >> 2 = 16 ≡ 0 (mod 4): aliases with pc 0
        assert pred.update_branch(0x40, taken=False) is False


class TestBTB:
    def test_unknown_target_none(self):
        """A pc with no BTB entry predicts no target, so any mispredicts."""
        assert BranchPredictor().update_target(0x80, 0x200) is True

    def test_learns_target(self):
        pred = BranchPredictor()
        pred.update_target(0x80, 0x200)
        assert pred.update_target(0x80, 0x200) is False

    def test_fifo_capacity_eviction(self):
        pred = BranchPredictor(BranchPredictorConfig(btb_entries=2))
        pred.update_target(0x0, 0x100)
        pred.update_target(0x4, 0x200)
        pred.update_target(0x8, 0x300)   # evicts 0x0
        assert pred.update_target(0x8, 0x300) is False
        assert pred.update_target(0x0, 0x100) is True

    def test_target_mispredict_flag(self):
        pred = BranchPredictor()
        assert pred.update_target(0x80, 0x200) is True   # cold
        assert pred.update_target(0x80, 0x200) is False  # learned
        assert pred.update_target(0x80, 0x300) is True   # changed


class TestRAS:
    def test_push_pop(self):
        pred = BranchPredictor()
        pred.push_return(0x44)
        assert pred.pop_return() == 0x44
        assert pred.pop_return() is None

    def test_bounded_depth(self):
        pred = BranchPredictor(BranchPredictorConfig(ras_entries=2))
        for addr in (0x10, 0x20, 0x30):
            pred.push_return(addr)
        assert pred.pop_return() == 0x30
        assert pred.pop_return() == 0x20
        assert pred.pop_return() is None  # 0x10 was pushed out
