"""Fig. 4 — performance slowdown of Parsec (a) and SPECint (b) under
LockStep, FlexStep and Nzdc.

Shape assertions (paper values: FlexStep 1.07 % / 1.24 % geomean;
Nzdc 57.7 % / 91.5 %):

* LockStep adds no main-core slowdown (1.0 exactly).
* FlexStep's geomean slowdown stays in the low single-percent band.
* Nzdc is tens of percent — roughly 1.5×–2× slower than FlexStep's
  runtime, with SPECint hit harder than Parsec.
"""

from repro.analysis.slowdown import SlowdownRow, geomean_row
from repro.analysis.reporting import format_fig4
from repro.scenarios import Scenario, run_scenario


def _run_suite(suite, instructions):
    result = run_scenario(Scenario(
        name=f"fig4-{suite}", kind="slowdown", workloads=(suite,),
        target_instructions=instructions))
    rows = [SlowdownRow(**row) for row in result.payload["rows"]]
    return rows, geomean_row(rows)


class TestFig4a:
    def test_parsec(self, benchmark, bench_instructions):
        rows, geo = benchmark.pedantic(
            lambda: _run_suite("parsec", bench_instructions),
            rounds=1, iterations=1)
        print("\n" + format_fig4([*rows, geo],
                                 "Fig. 4(a): Parsec v3 slowdown"))
        assert all(r.lockstep == 1.0 for r in rows)
        assert 1.0 <= geo.flexstep <= 1.03      # paper: 1.0107
        assert 1.35 <= geo.nzdc <= 1.95         # paper: 1.577
        for r in rows:
            assert r.flexstep < (r.nzdc or 10.0)


class TestFig4b:
    def test_specint(self, benchmark, bench_instructions):
        rows, geo = benchmark.pedantic(
            lambda: _run_suite("specint", bench_instructions),
            rounds=1, iterations=1)
        print("\n" + format_fig4([*rows, geo],
                                 "Fig. 4(b): SPECint CPU2006 slowdown"))
        assert 1.0 <= geo.flexstep <= 1.03      # paper: 1.0124
        assert 1.55 <= geo.nzdc <= 2.2          # paper: 1.915


class TestCrossSuite:
    def test_spec_nzdc_worse_than_parsec(self, benchmark,
                                         bench_instructions):
        """Paper: Nzdc hurts SPEC (91.5 %) more than Parsec (57.7 %)."""
        (_, parsec_geo), (_, spec_geo) = benchmark.pedantic(
            lambda: (_run_suite("parsec", bench_instructions),
                     _run_suite("specint", bench_instructions)),
            rounds=1, iterations=1)
        assert spec_geo.nzdc > parsec_geo.nzdc
