"""Workload profile and generator tests."""

import hashlib

import pytest

from repro.config import SoCConfig
from repro.flexstep import FlexStepSoC
from repro.workloads import (
    PARSEC,
    SPECINT,
    GeneratorOptions,
    build_program,
    get_profile,
)
from repro.workloads.generator import (
    KERNEL_COUNTER_ADDR,
    RESULT_ADDR,
    trap_handler_address,
)
from repro.workloads.profiles import WorkloadProfile
from repro.isa.instructions import OpKind


#: ``target_instructions`` of the programs each golden digest covers.
GOLDEN_TARGETS = (2_000, 6_000, 20_000, 25_000, 30_000)

#: SHA-256 per (profile, mode) over the programs built at every
#: ``GOLDEN_TARGETS`` size (see :func:`program_digest`).  Pinned from the
#: assembler-built generator, so a direct emitter must reproduce its
#: programs bit for bit: every catalog profile in ``plain`` mode, and in
#: ``nzdc`` mode wherever Nzdc compiles it.
GOLDEN_DIGESTS = {
    ("blackscholes", "plain"):
        "689e91ebf8d7493d30d635d070b33ae49a2c5888be1c460fc801112b15eb815c",
    ("blackscholes", "nzdc"):
        "c7cd55fdd9c671c0a64b9d04d46e19e8ea95d02d09d56dc31842d97dd46d9c49",
    ("bodytrack", "plain"):
        "780e92c55bbb0a917bc6e67a08928ec80d17173bb80cd585d4f4319a51d12bed",
    ("ferret", "plain"):
        "f767e36f9fcea1bb9acc0982ee01265b1fc52e8bf8194f4af32db85e407fcd8f",
    ("dedup", "plain"):
        "f2680d687071910d4e4e9239e98bb96f528d57dba75b26b01843b69458249d2d",
    ("dedup", "nzdc"):
        "1ad923d970b6335713328f9b925dd7a1fdaf37dfdb98c4a14179ec02c335ed8c",
    ("fluidanimate", "plain"):
        "01123ef4152ef6cad38c3f218b328dce26e3338246339708057a2215b5153a3d",
    ("fluidanimate", "nzdc"):
        "7bc1de92c630e2ed46573f53000a74d3e235ffc4bb16cb0ee5886540278f59d3",
    ("swaptions", "plain"):
        "93119365052883c2b5a79cca05deeabbc6130fd83d8f89e1b5bed573be5996f6",
    ("swaptions", "nzdc"):
        "cdbf5fb3196d5ecdcc1731815bb9f83230afdbde83cf70ef4ad8f0c68e54ec7b",
    ("x264", "plain"):
        "ddaf509f2c3da23e06f493b230de4eb894351892bd1d94ebec144436f256911c",
    ("x264", "nzdc"):
        "ee70359ed725187c708bbec9b71885a8bd75ba1f58e097f0481229ecdce9fa2c",
    ("streamcluster", "plain"):
        "6ed8ca451cb84afe7f36891708dcf86d4b2ae540ab6629a639f63107f7855e83",
    ("streamcluster", "nzdc"):
        "49c45dac26af7c99a4e0445131e9494a6320cb783153855756a8e92fb4632ca7",
    ("bzip2", "plain"):
        "2171694cb481be8911096e4ffed6eb8c61c266efebfab2e357f832e59c2f83e7",
    ("bzip2", "nzdc"):
        "c09a40d5a0d053ac955f517521e869d174e1b08335b3210a70f92d4c1ed946bd",
    ("gcc", "plain"):
        "cc3a1cbaf503d64350abc2660942b2f94ea91a8981dce4b886192097de02e8c9",
    ("mcf", "plain"):
        "ee506a79b3f0c3cfa12dce752d548efe62e0011d3f647c8d91ab195611ba66d2",
    ("mcf", "nzdc"):
        "1785927f343b546b0dd95bda1ebf6316714f750c2de90c575734371efb979579",
    ("gobmk", "plain"):
        "288c0097ce2671794bfa0d37c321ed457d119e9283b7feafce51dd5c4c5ee8b9",
    ("gobmk", "nzdc"):
        "ca62f1827d600543f8c753df85ca8b320b9f3b9a438fde2581c3fb2a1751615f",
    ("hmmer", "plain"):
        "c3b687649ee0dac97531205d79dcb5085cd135a0df2f52e0a2b9bd54cb440ed7",
    ("hmmer", "nzdc"):
        "c1318cf5505156c5c91041565657801a8d3991d659c45aa889a1e1ddd04c0ea5",
    ("sjeng", "plain"):
        "d1a2b63498f4bcb4c717a845beb6c8b8ee66c1ab0146ae4b2dd5067f23fc0ded",
    ("sjeng", "nzdc"):
        "4a00a88ccffef98ed6799281ad9ba07e2907a58b2ab20d522f6c0a94dd7707d6",
    ("libquantum", "plain"):
        "d67fd81bfd64638eaf6a0d23f1d5b0d058be6375ce3f1a955e65bb692849620d",
    ("libquantum", "nzdc"):
        "394dd94a3a446bce946b5fb09a9a240d05264324f260f8f0e7977c4235c21c17",
    ("h264ref", "plain"):
        "d811b32bfdda397f511d29ba27cf0262b3bb8181e35dd7aa9dac0359deaa51d9",
    ("h264ref", "nzdc"):
        "cecf30caa8e3bafed2f7ebed14bb4d8adf0e0415c4333c25bb8a2757e9cec8fd",
    ("omnetpp", "plain"):
        "4466f694131e4f9c81f9b30d8054ef2bdfcff1b2ecd9dbab519d33a67756d593",
    ("omnetpp", "nzdc"):
        "d32187edd7888733136c53d740fbdd427ac6dccfdf93bf5c295019ce39dff730",
    ("astar", "plain"):
        "e94d6db8766824483148ae10e7eb19af36b892cade0d903aede03ff44dc6fa43",
    ("astar", "nzdc"):
        "b3ad615c9bc084e4e9faa8b0722f45f6389ee33c686771cbfeaebcd3fb414539",
    ("xalancbmk", "plain"):
        "458a3aea21db89dd4a3bd730fb955377eb853c437e9c27e8cd29bb021e782521",
    ("xalancbmk", "nzdc"):
        "49b64c7fe992752837e99f446300e904f097f36532d1fd110ebc8668d2b5e8c1",
}


def program_digest(programs):
    """One digest over each program's full contents.

    Per instruction ``(op, rd, rs1, rs2, imm, label)``: ``label`` has
    ``compare=False`` on :class:`Instruction`, so it is hashed
    explicitly.  Then the labels in definition order, the data words,
    ``name``, ``base`` and ``entry``.
    """
    h = hashlib.sha256()
    for p in programs:
        for inst in p.instructions:
            h.update(repr((inst.op, inst.rd, inst.rs1, inst.rs2, inst.imm,
                           inst.label)).encode())
        h.update(repr(list(p.labels.items())).encode())
        h.update(repr(list(p.data.words.items())).encode())
        h.update(repr((p.name, p.base, p.entry)).encode())
    return h.hexdigest()


def run_program(program, max_instructions=3_000_000):
    soc = FlexStepSoC(SoCConfig(num_cores=1))
    soc.load_program(0, program)
    soc.run(max_instructions=max_instructions)
    return soc


class TestProfiles:
    def test_suite_sizes_match_paper(self):
        assert len(PARSEC) == 8      # Fig. 4(a) workloads
        assert len(SPECINT) == 11    # full SPECint CPU2006

    def test_lookup(self):
        assert get_profile("dedup").suite == "parsec"
        assert get_profile("mcf").suite == "specint"
        with pytest.raises(KeyError):
            get_profile("doom")

    def test_nzdc_compile_failures_match_paper(self):
        broken = {p.name for p in (*PARSEC, *SPECINT)
                  if not p.nzdc_compiles}
        assert broken == {"bodytrack", "ferret", "gcc"}

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            WorkloadProfile(name="x", suite="parsec", mem_ratio=0.5,
                            store_fraction=0.3, branch_ratio=0.5,
                            branch_entropy=0.5)
        with pytest.raises(ValueError):
            WorkloadProfile(name="x", suite="parsec", mem_ratio=0.2,
                            store_fraction=0.3, branch_ratio=0.1,
                            branch_entropy=0.5, working_set_words=1000)


class TestGenerator:
    def test_program_runs_to_halt(self):
        prog = build_program(get_profile("dedup"),
                             GeneratorOptions(target_instructions=8000))
        soc = run_program(prog)
        core = soc.cores[0]
        assert core.halted
        # halted on the main path (not the nzdc error stub, which does
        # not exist here; and x14 was stored to the result slot)
        assert soc.memory.read_word(RESULT_ADDR) == core.regs.read(14)
        assert core.stats.instructions > 4000

    def test_deterministic(self):
        opts = GeneratorOptions(target_instructions=5000)
        a = build_program(get_profile("x264"), opts)
        b = build_program(get_profile("x264"), opts)
        assert [str(i) for i in a] == [str(i) for i in b]

    def test_distinct_profiles_distinct_programs(self):
        opts = GeneratorOptions(target_instructions=5000)
        a = build_program(get_profile("x264"), opts)
        b = build_program(get_profile("mcf"), opts)
        assert [str(i) for i in a] != [str(i) for i in b]

    def test_instruction_budget_respected(self):
        prog = build_program(get_profile("bzip2"),
                             GeneratorOptions(target_instructions=20000))
        soc = run_program(prog)
        executed = soc.cores[0].stats.instructions
        assert 0.5 * 20000 <= executed <= 2.0 * 20000

    def test_syscalls_reach_kernel(self):
        prog = build_program(get_profile("dedup"),
                             GeneratorOptions(target_instructions=15000))
        soc = run_program(prog)
        assert soc.memory.read_word(KERNEL_COUNTER_ADDR) > 0
        assert trap_handler_address(prog) is not None

    def test_mix_contains_expected_kinds(self):
        prog = build_program(get_profile("fluidanimate"),
                             GeneratorOptions(target_instructions=5000))
        kinds = {inst.info.kind for inst in prog}
        assert {OpKind.LOAD, OpKind.STORE, OpKind.AMO, OpKind.BRANCH,
                OpKind.ALU}.issubset(kinds)

    def test_memory_density_scales_with_profile(self):
        opts = GeneratorOptions(target_instructions=10000)
        heavy = run_program(build_program(get_profile("streamcluster"),
                                          opts))
        light = run_program(build_program(get_profile("blackscholes"),
                                          opts))
        heavy_ratio = heavy.cores[0].stats.memory_ops \
            / heavy.cores[0].stats.instructions
        light_ratio = light.cores[0].stats.memory_ops \
            / light.cores[0].stats.instructions
        assert heavy_ratio > light_ratio

    def test_bad_options_rejected(self):
        with pytest.raises(ValueError):
            GeneratorOptions(mode="fancy")
        with pytest.raises(ValueError):
            GeneratorOptions(target_instructions=10,
                             block_instructions=100)


class TestNzdcMode:
    def test_nzdc_program_is_bigger_but_same_work(self):
        opts = GeneratorOptions(target_instructions=8000)
        plain = build_program(get_profile("hmmer"), opts)
        nzdc = build_program(
            get_profile("hmmer"),
            GeneratorOptions(target_instructions=8000, mode="nzdc"))
        assert len(nzdc) > len(plain)
        # same algorithmic result
        r_plain = run_program(plain).memory.read_word(RESULT_ADDR)
        r_nzdc = run_program(nzdc).memory.read_word(RESULT_ADDR)
        assert r_plain == r_nzdc

    def test_nzdc_never_false_positives(self):
        """A fault-free nzdc run must not trip its own error stub."""
        for name in ("dedup", "sjeng"):
            prog = build_program(
                get_profile(name),
                GeneratorOptions(target_instructions=8000, mode="nzdc"))
            soc = run_program(prog)
            # reaching the _nzdc_err stub would halt at its second
            # instruction; the clean path halts right after the final
            # result store in main
            err = prog.labels["_nzdc_err"]
            handler = prog.labels["_trap_handler"]
            halted_at = soc.cores[0].pc - 4
            assert not err <= halted_at < handler, name

    def test_nzdc_slower_than_plain(self):
        opts = GeneratorOptions(target_instructions=8000)
        plain = run_program(build_program(get_profile("gobmk"), opts))
        nzdc = run_program(build_program(
            get_profile("gobmk"),
            GeneratorOptions(target_instructions=8000, mode="nzdc")))
        slowdown = nzdc.cores[0].stats.cycles \
            / plain.cores[0].stats.cycles
        assert slowdown > 1.3

    def test_nzdc_rejected_for_noncompiling_profiles(self):
        with pytest.raises(ValueError):
            build_program(get_profile("gcc"),
                          GeneratorOptions(target_instructions=5000,
                                           mode="nzdc"))

    def test_nzdc_verifiable_under_flexstep(self):
        """Nzdc instrumentation and FlexStep checking can coexist."""
        prog = build_program(
            get_profile("hmmer"),
            GeneratorOptions(target_instructions=6000, mode="nzdc"))
        from ..conftest import make_verified_soc
        soc = make_verified_soc(prog)
        stats = soc.run()
        assert stats.segments_failed == 0


class TestGoldenPrograms:
    def test_every_catalog_build_is_pinned(self):
        builds = {(p.name, mode) for p in (*PARSEC, *SPECINT)
                  for mode in ("plain", "nzdc")
                  if mode == "plain" or p.nzdc_compiles}
        assert set(GOLDEN_DIGESTS) == builds

    @pytest.mark.parametrize("name,mode", sorted(GOLDEN_DIGESTS))
    def test_program_matches_golden(self, name, mode):
        profile = get_profile(name)
        programs = [
            build_program(profile, GeneratorOptions(
                target_instructions=target, mode=mode))
            for target in GOLDEN_TARGETS]
        assert program_digest(programs) == GOLDEN_DIGESTS[name, mode]
