"""Per-benchmark synthetic workload profiles.

Parameter choices are drawn from published characterisations of Parsec
and SPECint2006 (instruction-mix and working-set studies) at the level
of precision that matters here: memory-operation density drives MAL
traffic and backpressure; branch density and predictability drive IPC;
syscall rate drives privilege-switch segment cuts; ALU share drives the
Nzdc duplication overhead; working-set size drives cache behaviour.

``nzdc_compiles`` mirrors the paper's note that Nzdc "fails to compile
on some workloads (e.g., bodytrack, ferret, gcc)".
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class WorkloadProfile:
    """Characteristic mix of one benchmark."""

    name: str
    suite: str                    # "parsec" | "specint"
    mem_ratio: float              # fraction of user instrs touching memory
    store_fraction: float         # of memory ops, fraction that are stores
    branch_ratio: float           # fraction of user instrs that branch
    branch_entropy: float         # 0 = fully biased, 1 = coin-flip
    amo_ratio: float = 0.0        # fraction of user instrs that are AMOs
    mul_ratio: float = 0.02       # multiply share of ALU work
    dead_alu_fraction: float = 0.30  # ALU results dead to stores/branches
    nzdc_branch_check: float = 0.5   # fraction of branches nZDC cross-checks
    syscall_interval: int = 4000  # user instructions between ecalls
    working_set_words: int = 4096 # power of two
    nzdc_compiles: bool = True
    seed: int = 1

    def __post_init__(self) -> None:
        total = self.mem_ratio + self.branch_ratio + self.amo_ratio
        if total >= 0.9:
            raise ValueError(
                f"{self.name}: mix leaves no room for ALU work ({total})")
        if self.working_set_words & (self.working_set_words - 1):
            raise ValueError(
                f"{self.name}: working_set_words must be a power of two")


def _p(name: str, **kw) -> WorkloadProfile:
    return WorkloadProfile(name=name, suite="parsec", **kw)


def _s(name: str, **kw) -> WorkloadProfile:
    return WorkloadProfile(name=name, suite="specint", **kw)


#: Parsec v3 simmedium-style profiles (paper Figs. 4a, 6, 7).
PARSEC: tuple[WorkloadProfile, ...] = (
    _p("blackscholes", mem_ratio=0.18, store_fraction=0.25,
       branch_ratio=0.08, branch_entropy=0.15, mul_ratio=0.02,
       dead_alu_fraction=0.65, nzdc_branch_check=0.4,
       syscall_interval=20000, working_set_words=1024, seed=11),
    _p("bodytrack", mem_ratio=0.27, store_fraction=0.30,
       branch_ratio=0.14, branch_entropy=0.45, amo_ratio=0.004,
       syscall_interval=3500, working_set_words=8192,
       nzdc_compiles=False, seed=12),
    _p("ferret", mem_ratio=0.30, store_fraction=0.32,
       branch_ratio=0.15, branch_entropy=0.50, amo_ratio=0.006,
       syscall_interval=2500, working_set_words=16384,
       nzdc_compiles=False, seed=13),
    _p("dedup", mem_ratio=0.33, store_fraction=0.38,
       dead_alu_fraction=0.50, nzdc_branch_check=0.4,
       branch_ratio=0.13, branch_entropy=0.40, amo_ratio=0.008,
       syscall_interval=2000, working_set_words=16384, seed=14),
    _p("fluidanimate", mem_ratio=0.29, store_fraction=0.35,
       dead_alu_fraction=0.50, nzdc_branch_check=0.4,
       branch_ratio=0.10, branch_entropy=0.30, amo_ratio=0.010,
       syscall_interval=5000, working_set_words=8192, seed=15),
    _p("swaptions", mem_ratio=0.20, store_fraction=0.28,
       branch_ratio=0.09, branch_entropy=0.20, mul_ratio=0.02,
       dead_alu_fraction=0.65, nzdc_branch_check=0.4,
       syscall_interval=15000, working_set_words=2048, seed=16),
    _p("x264", mem_ratio=0.31, store_fraction=0.30,
       dead_alu_fraction=0.50, nzdc_branch_check=0.4,
       branch_ratio=0.12, branch_entropy=0.35, amo_ratio=0.003,
       syscall_interval=3000, working_set_words=8192, seed=17),
    _p("streamcluster", mem_ratio=0.35, store_fraction=0.20,
       dead_alu_fraction=0.50, nzdc_branch_check=0.4,
       branch_ratio=0.11, branch_entropy=0.25, amo_ratio=0.005,
       syscall_interval=6000, working_set_words=32768, seed=18),
)

#: Full SPECint CPU2006 profiles (paper Fig. 4b).
SPECINT: tuple[WorkloadProfile, ...] = (
    _s("bzip2", mem_ratio=0.26, store_fraction=0.30,
       branch_ratio=0.13, branch_entropy=0.40,
       dead_alu_fraction=0.15, nzdc_branch_check=1.0,
       syscall_interval=8000, working_set_words=8192, seed=21),
    _s("gcc", mem_ratio=0.32, store_fraction=0.35,
       branch_ratio=0.17, branch_entropy=0.55,
       syscall_interval=2500, working_set_words=16384,
       nzdc_compiles=False, seed=22),
    _s("mcf", mem_ratio=0.35, store_fraction=0.25,
       branch_ratio=0.15, branch_entropy=0.50,
       dead_alu_fraction=0.15, nzdc_branch_check=1.0,
       syscall_interval=9000, working_set_words=32768, seed=23),
    _s("gobmk", mem_ratio=0.25, store_fraction=0.32,
       branch_ratio=0.16, branch_entropy=0.60,
       dead_alu_fraction=0.15, nzdc_branch_check=1.0,
       syscall_interval=7000, working_set_words=8192, seed=24),
    _s("hmmer", mem_ratio=0.28, store_fraction=0.30,
       branch_ratio=0.08, branch_entropy=0.15, mul_ratio=0.03,
       dead_alu_fraction=0.20, nzdc_branch_check=1.0,
       syscall_interval=12000, working_set_words=4096, seed=25),
    _s("sjeng", mem_ratio=0.24, store_fraction=0.30,
       branch_ratio=0.16, branch_entropy=0.55,
       dead_alu_fraction=0.15, nzdc_branch_check=1.0,
       syscall_interval=9000, working_set_words=8192, seed=26),
    _s("libquantum", mem_ratio=0.22, store_fraction=0.25,
       branch_ratio=0.12, branch_entropy=0.10, mul_ratio=0.05,
       dead_alu_fraction=0.15, nzdc_branch_check=1.0,
       syscall_interval=15000, working_set_words=16384, seed=27),
    _s("h264ref", mem_ratio=0.30, store_fraction=0.35,
       branch_ratio=0.10, branch_entropy=0.30, mul_ratio=0.04,
       dead_alu_fraction=0.15, nzdc_branch_check=1.0,
       syscall_interval=5000, working_set_words=8192, seed=28),
    _s("omnetpp", mem_ratio=0.33, store_fraction=0.35,
       branch_ratio=0.15, branch_entropy=0.50,
       dead_alu_fraction=0.15, nzdc_branch_check=1.0,
       syscall_interval=3000, working_set_words=16384, seed=29),
    _s("astar", mem_ratio=0.30, store_fraction=0.28,
       branch_ratio=0.15, branch_entropy=0.45,
       dead_alu_fraction=0.15, nzdc_branch_check=1.0,
       syscall_interval=8000, working_set_words=16384, seed=30),
    _s("xalancbmk", mem_ratio=0.34, store_fraction=0.33,
       branch_ratio=0.17, branch_entropy=0.50,
       dead_alu_fraction=0.15, nzdc_branch_check=1.0,
       syscall_interval=2500, working_set_words=16384, seed=31),
)

_BY_NAME = {p.name: p for p in (*PARSEC, *SPECINT)}


def get_profile(name: str) -> WorkloadProfile:
    """Look up a profile by benchmark name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; known: {sorted(_BY_NAME)}"
        ) from None


_SUITES = {
    "parsec": PARSEC,
    "specint": SPECINT,
    "all": (*PARSEC, *SPECINT),
}


def resolve_profiles(names: "str | tuple | list",
                     ) -> tuple[WorkloadProfile, ...]:
    """Resolve a workload mix to profiles.

    ``names`` is a suite name (``"parsec"``, ``"specint"``, ``"all"``),
    a benchmark name, or a sequence mixing both.  Duplicates collapse
    to the first occurrence, order preserved — the scenario catalog's
    one lookup path for "which workloads does this run".
    """
    if isinstance(names, str):
        names = (names,)
    out: list[WorkloadProfile] = []
    seen: set[str] = set()
    for name in names:
        group = _SUITES.get(name)
        profiles = group if group is not None else (get_profile(name),)
        for profile in profiles:
            if profile.name not in seen:
                seen.add(profile.name)
                out.append(profile)
    return tuple(out)
