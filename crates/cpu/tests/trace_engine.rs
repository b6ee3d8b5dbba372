//! Trace-tier contract tests: bit-identity with the block and step
//! engines, counter behaviour, and every invalidation edge re-proven for
//! traces — self-modifying code inside and across trace pages, unmapping
//! (the module-unload shape), stage-2 execute revocation, generation
//! re-stamping, slot recycling, and the per-call retirement bound.

use camo_cpu::{trace, Cpu, CpuStats, Step};
use camo_isa::{encode, AddrMode, Insn, PacKey, Reg, SysReg};
use camo_mem::{
    AccessType, El, Frame, MemFault, Memory, S1Attr, S2Attr, TableId, KERNEL_BASE, PAGE_SIZE,
};

/// Loads `insns` at KERNEL_BASE (text), with a data page above and a
/// writable+executable page at +2 pages for self-modifying tests.
fn machine(insns: &[Insn]) -> (Cpu, Memory) {
    let mut mem = Memory::new();
    let table = mem.new_table();
    let text = mem.map_new(table, KERNEL_BASE, S1Attr::kernel_text());
    mem.map_new(table, KERNEL_BASE + PAGE_SIZE, S1Attr::kernel_data());
    // Writable AND executable (self-modifying-code playground).
    mem.map_new(
        table,
        KERNEL_BASE + 2 * PAGE_SIZE,
        S1Attr {
            el0_read: false,
            el0_write: false,
            el0_exec: false,
            el1_write: true,
            el1_exec: true,
        },
    );
    for (i, insn) in insns.iter().enumerate() {
        mem.phys_mut()
            .write_u32(text.base() + 4 * i as u64, encode(insn))
            .unwrap();
    }
    let mut cpu = Cpu::default();
    cpu.state.pc = KERNEL_BASE;
    cpu.state
        .set_sysreg(SysReg::Ttbr0El1, TableId::from_raw(table.raw()).raw());
    cpu.state.set_sysreg(SysReg::Ttbr1El1, table.raw());
    cpu.state.set_sysreg(SysReg::VbarEl1, KERNEL_BASE + 0x8000);
    cpu.state
        .set_pauth_key(camo_isa::PauthKey::IB, camo_qarma::QarmaKey::new(7, 9));
    cpu.state.sp_el1 = KERNEL_BASE + 2 * PAGE_SIZE - 64;
    (cpu, mem)
}

/// A hot loop with loads, stores, PAC sign/auth, and immediate-accumulate
/// runs (the superop-folding shape). 200 iterations: far past
/// [`trace::HOT_THRESHOLD`], so the loop block promotes and the trace
/// serves the bulk of the retirement.
fn hot_loop_program(iters: u16) -> Vec<Insn> {
    vec![
        Insn::Movz {
            rd: Reg::x(0),
            imm16: iters,
            shift: 0,
        },
        Insn::Movz {
            rd: Reg::x(1),
            imm16: 0,
            shift: 0,
        },
        Insn::Adr {
            rd: Reg::x(19),
            offset: PAGE_SIZE as i32 - 2 * 4,
        },
        // loop (index 3):
        Insn::AddImm {
            rd: Reg::x(1),
            rn: Reg::x(1),
            imm12: 3,
            shifted: false,
        },
        Insn::AddImm {
            rd: Reg::x(1),
            rn: Reg::x(1),
            imm12: 4,
            shifted: false,
        },
        Insn::Str {
            rt: Reg::x(1),
            rn: Reg::x(19),
            mode: AddrMode::Unsigned(16),
        },
        Insn::Ldr {
            rt: Reg::x(2),
            rn: Reg::x(19),
            mode: AddrMode::Unsigned(16),
        },
        Insn::Pac {
            key: PacKey::IB,
            rd: Reg::x(2),
            rn: Reg::x(0),
        },
        Insn::Aut {
            key: PacKey::IB,
            rd: Reg::x(2),
            rn: Reg::x(0),
        },
        Insn::SubImm {
            rd: Reg::x(0),
            rn: Reg::x(0),
            imm12: 1,
            shifted: false,
        },
        Insn::Cbnz {
            rt: Reg::x(0),
            offset: -4 * 7,
        },
        Insn::Brk { imm: 0x42 },
    ]
}

/// Drives `cpu` with `step` or `run_block` until a `BrkTrap` surfaces.
fn drive(cpu: &mut Cpu, mem: &mut Memory, blocks: bool) {
    for _ in 1..1_000_000 {
        let step = if blocks {
            cpu.run_block(mem).expect("benign program")
        } else {
            cpu.step(mem).expect("benign program")
        };
        if let Step::BrkTrap { imm } = step {
            assert_eq!(imm, 0x42);
            return;
        }
    }
    panic!("program never reached its BRK");
}

enum Engine {
    Step,
    Blocks,
    Traces,
}

fn configure(cpu: &mut Cpu, engine: &Engine) {
    match engine {
        Engine::Step | Engine::Blocks => cpu.set_trace_engine(false),
        Engine::Traces => assert!(cpu.trace_engine(), "traces default on"),
    }
}

fn run_arm(program: &[Insn], engine: Engine) -> (Cpu, Memory) {
    let (mut cpu, mut mem) = machine(program);
    configure(&mut cpu, &engine);
    drive(&mut cpu, &mut mem, !matches!(engine, Engine::Step));
    (cpu, mem)
}

fn assert_arch_identical(a: &Cpu, b: &Cpu) {
    assert_eq!(a.state.gprs, b.state.gprs, "register files diverged");
    assert_eq!(a.state.pc, b.state.pc);
    assert_eq!(a.cycles(), b.cycles(), "cycle counts diverged");
    assert!(
        a.stats().arch_eq(&b.stats()),
        "architectural counters diverged: {:?} vs {:?}",
        a.stats(),
        b.stats()
    );
}

#[test]
fn hot_loop_forms_a_trace_and_stays_bit_identical() {
    let program = hot_loop_program(200);
    let (cpu_s, _) = run_arm(&program, Engine::Step);
    let (cpu_b, _) = run_arm(&program, Engine::Blocks);
    let (cpu_t, _) = run_arm(&program, Engine::Traces);
    assert_arch_identical(&cpu_t, &cpu_s);
    assert_arch_identical(&cpu_t, &cpu_b);
    let stats = cpu_t.stats();
    assert!(stats.trace_misses > 0, "the hot loop installed a trace");
    // One hit is the expected shape: a looping trace retires up to
    // TRACE_CALL_INSNS per entry, so the whole remaining loop fits in a
    // single trace execution.
    assert!(
        stats.trace_hits > 0,
        "the installed trace actually ran: {stats:?}"
    );
    let off = cpu_b.stats();
    assert_eq!(
        (off.trace_hits, off.trace_misses, off.trace_invalidations),
        (0, 0, 0),
        "trace tier off is off"
    );
}

#[test]
fn stats_merge_and_delta_cover_trace_counters() {
    let a = CpuStats {
        trace_hits: 7,
        trace_misses: 3,
        trace_invalidations: 2,
        ..CpuStats::default()
    };
    let mut b = a;
    b.merge(&a);
    assert_eq!(
        (b.trace_hits, b.trace_misses, b.trace_invalidations),
        (14, 6, 4)
    );
    let d = b.delta_since(&a);
    assert_eq!(
        (d.trace_hits, d.trace_misses, d.trace_invalidations),
        (7, 3, 2)
    );
    // Simulator-observability counters: invisible to arch_eq.
    assert!(a.arch_eq(&b));
}

/// A store executed *inside* a warm trace that hits one of the trace's
/// own pages must side-exit after the store and invalidate the trace at
/// its next entry — with the architectural outcome bit-identical to the
/// step path. The loop lives on the writable+executable page; phase 1
/// stores to the data page (trace forms and runs), phase 2 redirects the
/// store into the loop's own page.
#[test]
fn store_into_own_trace_page_side_exits_and_invalidates() {
    let smc_page = KERNEL_BASE + 2 * PAGE_SIZE;
    let loop_body = [
        Insn::AddImm {
            rd: Reg::x(1),
            rn: Reg::x(1),
            imm12: 1,
            shifted: false,
        },
        Insn::Str {
            rt: Reg::x(1),
            rn: Reg::x(19),
            mode: AddrMode::Unsigned(0),
        },
        Insn::SubImm {
            rd: Reg::x(0),
            rn: Reg::x(0),
            imm12: 1,
            shifted: false,
        },
        Insn::Cbnz {
            rt: Reg::x(0),
            offset: -4 * 3,
        },
        Insn::Brk { imm: 0x42 },
    ];
    let run = |traces: bool, use_blocks: bool| {
        let (mut cpu, mut mem) = machine(&[]);
        cpu.set_trace_engine(traces);
        let ctx = cpu.translation_ctx();
        let pa = mem.translate(&ctx, smc_page, AccessType::Execute).unwrap();
        for (i, insn) in loop_body.iter().enumerate() {
            mem.phys_mut()
                .write_u32(pa + 4 * i as u64, encode(insn))
                .unwrap();
        }
        // Phase 1: store to the data page — the loop is benign and hot.
        cpu.state.pc = smc_page;
        cpu.state.gprs[0] = 100;
        cpu.state.gprs[1] = 0;
        cpu.state.gprs[19] = KERNEL_BASE + PAGE_SIZE;
        drive(&mut cpu, &mut mem, use_blocks);
        assert_eq!(cpu.state.gprs[1], 100);
        let warm = cpu.stats();
        // Phase 2: the store now lands in the loop's own code page (a
        // data slot past the code — the *frame* write version moves
        // regardless of which bytes change).
        cpu.state.pc = smc_page;
        cpu.state.gprs[0] = 50;
        cpu.state.gprs[1] = 0;
        cpu.state.gprs[19] = smc_page + 0x800;
        drive(&mut cpu, &mut mem, use_blocks);
        assert_eq!(cpu.state.gprs[1], 50, "self-page stores stay correct");
        (cpu, warm)
    };
    let (cpu_t, warm) = run(true, true);
    let (cpu_s, _) = run(false, false);
    assert_arch_identical(&cpu_t, &cpu_s);
    assert!(warm.trace_hits > 0, "phase 1 ran the trace");
    assert!(
        cpu_t.stats().trace_invalidations > warm.trace_invalidations,
        "phase 2's self-page stores moved the page version: the trace \
         must be discarded at re-entry, not silently re-run"
    );
}

/// Builds a loop spanning two adjacent text pages (the tier-1 blocks end
/// at the page boundary and chain across it, so the trace stitches blocks
/// from both pages and stamps both). Returns the machine plus the loop
/// head VA and the physical address of the second page's `SubImm`.
fn cross_page_machine() -> (Cpu, Memory, u64, u64) {
    let mut mem = Memory::new();
    let table = mem.new_table();
    let p1 = mem.map_new(table, KERNEL_BASE, S1Attr::kernel_text());
    let p2 = mem.map_new(table, KERNEL_BASE + PAGE_SIZE, S1Attr::kernel_text());
    let boundary = KERNEL_BASE + PAGE_SIZE;
    // loop: (boundary-8) add x1,#2 ; (boundary-4) add x1,#3
    //       [page boundary]
    //       (boundary)   sub x0,#1 ; (boundary+4) cbnz x0, loop
    //       (boundary+8) brk #0x42
    let insns: [(u64, Insn); 5] = [
        (
            p1.base() + PAGE_SIZE - 8,
            Insn::AddImm {
                rd: Reg::x(1),
                rn: Reg::x(1),
                imm12: 2,
                shifted: false,
            },
        ),
        (
            p1.base() + PAGE_SIZE - 4,
            Insn::AddImm {
                rd: Reg::x(1),
                rn: Reg::x(1),
                imm12: 3,
                shifted: false,
            },
        ),
        (
            p2.base(),
            Insn::SubImm {
                rd: Reg::x(0),
                rn: Reg::x(0),
                imm12: 1,
                shifted: false,
            },
        ),
        (
            p2.base() + 4,
            Insn::Cbnz {
                rt: Reg::x(0),
                offset: -12,
            },
        ),
        (p2.base() + 8, Insn::Brk { imm: 0x42 }),
    ];
    for (pa, insn) in &insns {
        mem.phys_mut().write_u32(*pa, encode(insn)).unwrap();
    }
    let mut cpu = Cpu::default();
    cpu.state
        .set_sysreg(SysReg::Ttbr0El1, TableId::from_raw(table.raw()).raw());
    cpu.state.set_sysreg(SysReg::Ttbr1El1, table.raw());
    cpu.state.set_sysreg(SysReg::VbarEl1, KERNEL_BASE + 0x8000);
    (cpu, mem, boundary - 8, p2.base())
}

/// Patching code on the *second* page of a two-page trace must be caught
/// by the per-page write-version stamps at trace entry.
#[test]
fn smc_across_trace_pages_invalidates_at_entry() {
    let run = |traces: bool, use_blocks: bool| {
        let (mut cpu, mut mem, loop_va, sub_pa) = cross_page_machine();
        cpu.set_trace_engine(traces);
        // Phase 1: warm the cross-page loop.
        cpu.state.pc = loop_va;
        cpu.state.gprs[0] = 200;
        cpu.state.gprs[1] = 0;
        drive(&mut cpu, &mut mem, use_blocks);
        assert_eq!(cpu.state.gprs[1], 200 * 5);
        let warm = cpu.stats();
        // Patch the second page: sub #1 becomes sub #2.
        mem.phys_mut()
            .write_u32(
                sub_pa,
                encode(&Insn::SubImm {
                    rd: Reg::x(0),
                    rn: Reg::x(0),
                    imm12: 2,
                    shifted: false,
                }),
            )
            .unwrap();
        // Phase 2: an even counter now finishes in half the iterations.
        cpu.state.pc = loop_va;
        cpu.state.gprs[0] = 100;
        cpu.state.gprs[1] = 0;
        drive(&mut cpu, &mut mem, use_blocks);
        assert_eq!(cpu.state.gprs[1], 50 * 5, "patched bytes executed");
        (cpu, warm)
    };
    let (cpu_t, warm) = run(true, true);
    let (cpu_s, _) = run(false, false);
    assert_arch_identical(&cpu_t, &cpu_s);
    assert!(warm.trace_hits > 0, "the cross-page trace ran in phase 1");
    assert!(
        cpu_t.stats().trace_invalidations > warm.trace_invalidations,
        "the second page's moved write version must kill the trace"
    );
}

/// Unmapping one page of a multi-page trace (the module-unload shape)
/// must be caught at the very next entry even though the *entry* page
/// still translates: the generation bump forces the per-page permission
/// re-walk, the second page's walk fails and discards the trace, and
/// tier 1 then raises the translation fault at the architecturally
/// correct instruction — the first one on the unmapped page.
#[test]
fn unmap_discards_the_trace_and_faults_next_entry() {
    let (mut cpu, mut mem, loop_va, _) = cross_page_machine();
    cpu.state.pc = loop_va;
    cpu.state.gprs[0] = 200;
    cpu.state.gprs[1] = 0;
    drive(&mut cpu, &mut mem, true);
    let warm = cpu.stats();
    assert!(warm.trace_hits > 0, "cross-page trace is warm");
    let table = TableId::from_raw(cpu.state.sysreg(SysReg::Ttbr1El1));
    assert!(mem.unmap(table, KERNEL_BASE + PAGE_SIZE));
    cpu.state.pc = loop_va;
    cpu.state.gprs[0] = 10;
    // First call: the entry page still maps, so the trace is probed; the
    // re-walk of the unmapped page discards it, and tier 1 runs the
    // first page's block and chains into the fault.
    let step = loop {
        match cpu.run_block(&mut mem).expect("vectored, not fatal") {
            Step::Executed => continue,
            other => break other,
        }
    };
    assert!(
        matches!(
            step,
            Step::FaultTaken {
                fault: MemFault::Translation { .. }
            }
        ),
        "unmapped trace page must raise the translation fault, got {step:?}"
    );
    assert_eq!(cpu.state.el, El::El1, "vectored to EL1");
    assert!(
        cpu.stats().trace_invalidations > warm.trace_invalidations,
        "the failed per-page re-walk discarded the trace"
    );
}

/// A stage-2 execute revocation must fault the next trace entry even
/// though the trace (and its stage-1 mapping) is warm — the generation
/// bump forces the re-walk, which now fails at stage 2.
#[test]
fn stage2_exec_revocation_faults_next_trace_entry() {
    let program = hot_loop_program(200);
    let (mut cpu, mut mem) = machine(&program);
    drive(&mut cpu, &mut mem, true);
    assert!(cpu.stats().trace_hits > 0, "trace is warm");
    let ctx = cpu.translation_ctx();
    let pa = mem.translate(&ctx, KERNEL_BASE, AccessType::Read).unwrap();
    mem.protect_stage2(
        Frame::containing(pa),
        S2Attr {
            read: true,
            write: false,
            exec: false,
        },
    )
    .unwrap();
    cpu.state.pc = KERNEL_BASE;
    let step = cpu.run_block(&mut mem).expect("vectored, not fatal");
    assert!(
        matches!(
            step,
            Step::FaultTaken {
                fault: MemFault::Stage2 { .. }
            }
        ),
        "revoked execute must fault the trace entry, got {step:?}"
    );
}

/// A generation bump with unchanged bytes (module churn, fork storms —
/// one bump per op) must *re-stamp* the trace after a successful per-page
/// re-walk, not discard it: the whole fleet's traces surviving constant
/// remapping is what makes the tier worth having.
#[test]
fn generation_bump_restamps_the_trace_in_place() {
    let program = hot_loop_program(200);
    let (mut cpu, mut mem) = machine(&program);
    drive(&mut cpu, &mut mem, true);
    let warm = cpu.stats();
    assert!(warm.trace_hits > 0, "trace is warm");
    let table = TableId::from_raw(cpu.state.sysreg(SysReg::Ttbr1El1));
    mem.map_new(table, KERNEL_BASE + 32 * PAGE_SIZE, S1Attr::kernel_data());
    cpu.state.pc = KERNEL_BASE;
    drive(&mut cpu, &mut mem, true);
    let stats = cpu.stats();
    assert_eq!(
        stats.trace_invalidations, warm.trace_invalidations,
        "unrelated remapping must not invalidate the trace"
    );
    assert!(
        stats.trace_hits > warm.trace_hits,
        "the re-stamped trace kept serving"
    );
    assert_eq!(
        stats.trace_misses, warm.trace_misses,
        "no re-install was needed"
    );
}

/// Mirror of the trace cache's slot hash (`trace::trace_slot`), used to
/// construct aliasing hot loops; see the block-engine twin for the
/// kept-in-sync argument.
fn trace_slot(pa: u64) -> usize {
    const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
    ((pa >> 2).wrapping_mul(GOLDEN) >> 53) as usize & (trace::TRACE_CACHE_SIZE - 1)
}

/// Two hot loops whose entry addresses alias one trace slot: installing
/// the second evicts the first, and re-running the first must re-install
/// and execute its own ops — never the slot's previous occupant's.
#[test]
fn recycled_trace_slot_never_serves_the_evicted_trace() {
    let (mut cpu, mut mem) = machine(&[]);
    let table = TableId::from_raw(cpu.state.sysreg(SysReg::Ttbr1El1));
    let mut seen: std::collections::HashMap<usize, (u64, u64)> = std::collections::HashMap::new();
    let mut pair = None;
    for i in 0..100_000u64 {
        let va = KERNEL_BASE + (16 + i) * PAGE_SIZE;
        let frame = mem.map_new(table, va, S1Attr::kernel_text());
        let pa = frame.base();
        if let Some(&first) = seen.get(&trace_slot(pa)) {
            pair = Some((first, (va, pa)));
            break;
        }
        seen.insert(trace_slot(pa), (va, pa));
    }
    let ((va_a, pa_a), (va_b, pa_b)) = pair.expect("a collision among 100k frames");
    // Each page hosts: loop: add x1,#k ; sub x0,#1 ; cbnz loop ; brk.
    for (pa, k) in [(pa_a, 3u16), (pa_b, 5u16)] {
        let insns = [
            Insn::AddImm {
                rd: Reg::x(1),
                rn: Reg::x(1),
                imm12: k,
                shifted: false,
            },
            Insn::SubImm {
                rd: Reg::x(0),
                rn: Reg::x(0),
                imm12: 1,
                shifted: false,
            },
            Insn::Cbnz {
                rt: Reg::x(0),
                offset: -8,
            },
            Insn::Brk { imm: 0x42 },
        ];
        for (i, insn) in insns.iter().enumerate() {
            mem.phys_mut()
                .write_u32(pa + 4 * i as u64, encode(insn))
                .unwrap();
        }
    }
    let run_loop = |cpu: &mut Cpu, mem: &mut Memory, va: u64| {
        cpu.state.pc = va;
        cpu.state.gprs[0] = 300;
        cpu.state.gprs[1] = 0;
        drive(cpu, mem, true);
        cpu.state.gprs[1]
    };
    assert_eq!(run_loop(&mut cpu, &mut mem, va_a), 300 * 3);
    let after_a = cpu.stats();
    assert!(after_a.trace_hits > 0, "loop A traced");
    assert_eq!(run_loop(&mut cpu, &mut mem, va_b), 300 * 5, "B's own ops");
    let after_b = cpu.stats();
    assert!(after_b.trace_misses > after_a.trace_misses, "B installed");
    assert_eq!(
        run_loop(&mut cpu, &mut mem, va_a),
        300 * 3,
        "A re-ran its own ops after eviction, not B's"
    );
    assert!(
        cpu.stats().trace_misses > after_b.trace_misses,
        "A re-installed into the recycled slot"
    );
}

/// One `run_block` call into a looping trace retires at most
/// [`trace::TRACE_CALL_INSNS`] instructions — the same per-call bound as
/// tier 1's chain cap, so kernel instruction budgets keep their
/// documented overshoot bound with the trace tier on.
#[test]
fn trace_call_retirement_is_bounded() {
    let program = hot_loop_program(200);
    let (mut cpu, mut mem) = machine(&program);
    // Warm the loop trace.
    drive(&mut cpu, &mut mem, true);
    assert!(cpu.stats().trace_hits > 0);
    // Re-enter at the loop head (past the Movz prologue, which would
    // reset the counter) with a counter far past the per-call bound.
    cpu.state.pc = KERNEL_BASE + 4 * 3;
    cpu.state.gprs[0] = 1_000_000;
    cpu.state.gprs[1] = 0;
    let before = cpu.stats().instructions;
    cpu.run_block(&mut mem).expect("mid-loop return");
    let retired = cpu.stats().instructions - before;
    assert!(
        retired <= trace::TRACE_CALL_INSNS,
        "one call retired {retired} > bound {}",
        trace::TRACE_CALL_INSNS
    );
    assert!(
        retired > trace::TRACE_CALL_INSNS / 2,
        "a looping trace should get close to the bound, retired {retired}"
    );
}
