//! Layer rows: host time of single public calls into each layer, on
//! fixed inputs.
//!
//! Each row warms its layer up, then times `BATCHES` batches and reports
//! the median cost per call (or per simulated instruction for the cpu
//! tiers). These are the numbers the criterion benches in
//! `crates/bench/benches` only print.

use crate::stats::median;
use camo_codegen::CfiScheme;
use camo_cpu::pac::PacUnit;
use camo_isa::decode;
use camo_kernel::{Kernel, KernelConfig};
use camo_mem::{AccessType, El, Memory, S1Attr, TranslationCtx, KERNEL_BASE};
use camo_qarma::{Qarma, QarmaKey, Sigma, PAC_ROUNDS};
use std::hint::black_box;
use std::time::Instant;

const BATCHES: usize = 9;
const KEY: (u64, u64) = (0x84be_85ce_9804_e94b, 0xec28_02d4_e0a4_88e9);
const GETPID: u64 = 172;

/// Median over `BATCHES` of `batch()`, which returns `(nanoseconds,
/// units of work)`.
fn per_unit(mut batch: impl FnMut() -> (f64, u64)) -> f64 {
    batch(); // warm-up
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let (ns, units) = batch();
            ns / units.max(1) as f64
        })
        .collect();
    median(&samples)
}

fn timed(n: u64, mut call: impl FnMut(u64)) -> (f64, u64) {
    let start = Instant::now();
    for i in 0..n {
        call(i);
    }
    (start.elapsed().as_nanos() as f64, n)
}

/// The Figure-2 call loop through `Cpu::call` with the given tiers on,
/// per simulated instruction.
fn call_loop_ns_per_insn(blocks: bool, traces: bool) -> f64 {
    let (mut cpu, mut mem, driver_va) = camo_bench::fig2::build_call_loop(CfiScheme::Camouflage);
    cpu.set_block_engine(blocks);
    cpu.set_trace_engine(traces);
    let iters: u64 = 20_000;
    per_unit(|| {
        let start = Instant::now();
        let result = cpu
            .call(&mut mem, driver_va, &[iters], 64 * iters + 1024)
            .expect("the call loop runs");
        (start.elapsed().as_nanos() as f64, result.instructions)
    })
}

/// `Kernel::syscall(getpid)` on a warm default-configuration machine.
fn syscall_ns() -> f64 {
    let mut kernel = Kernel::boot(KernelConfig::default()).expect("boot");
    per_unit(|| {
        timed(2_000, |_| {
            kernel.syscall(GETPID, 0).expect("getpid runs");
        })
    })
}

/// `camo_isa::decode` over the words of the protected kernel image.
fn decode_ns() -> f64 {
    let kernel = Kernel::boot(KernelConfig::default()).expect("boot");
    let words: Vec<u32> = kernel
        .image()
        .image()
        .to_bytes()
        .chunks_exact(4)
        .map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]]))
        .collect();
    per_unit(|| {
        let start = Instant::now();
        for &w in &words {
            black_box(decode(black_box(w)));
        }
        (start.elapsed().as_nanos() as f64, words.len() as u64)
    })
}

/// `Memory::translate` over 64 mapped kernel pages with the software TLB
/// on (every lookup a hit once warm) or off (every lookup a walk).
fn translate_ns(caching: bool) -> f64 {
    let mut mem = Memory::new();
    let table = mem.new_table();
    let pages: Vec<u64> = (0..64).map(|i| KERNEL_BASE + i * 4096).collect();
    for &va in &pages {
        mem.map_new(table, va, S1Attr::kernel_data());
    }
    mem.set_caching(caching);
    let ctx = TranslationCtx {
        ttbr0: table,
        ttbr1: table,
        el: El::El1,
        tbi_user: true,
    };
    per_unit(|| {
        timed(20_000, |i| {
            let va = pages[(i % 64) as usize] + (i & 0xff) * 8;
            black_box(mem.translate(&ctx, black_box(va), AccessType::Read)).expect("mapped");
        })
    })
}

/// A warm-schedule QARMA MAC — what the PAC unit computes on a memo miss.
fn qarma_mac_ns() -> f64 {
    let cipher = Qarma::new(QarmaKey::new(KEY.0, KEY.1), Sigma::Sigma1, PAC_ROUNDS);
    per_unit(|| {
        timed(20_000, |i| {
            black_box(cipher.mac(black_box(0xffff_0000_1234_5678 ^ i), 42));
        })
    })
}

/// `PacUnit::add_pac` on one hot call site, so every sign hits the memo.
fn sign_memo_hit_ns() -> f64 {
    let mut unit = PacUnit::new();
    let key = QarmaKey::new(KEY.0, KEY.1);
    let ptr = KERNEL_BASE + 0x1230;
    per_unit(|| {
        timed(50_000, |_| {
            black_box(unit.add_pac(black_box(ptr), 0x7fff_f000, key, true));
        })
    })
}

/// Every layer row, in host nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rows {
    /// `Kernel::syscall(getpid)` on a warm machine, per call.
    pub syscall_ns: f64,
    /// The fig. 2 call loop on the step tier (blocks and traces off), per
    /// simulated instruction.
    pub step_ns_per_insn: f64,
    /// The same loop on the block tier, per insn.
    pub block_ns_per_insn: f64,
    /// The same loop on the trace tier, per insn.
    pub trace_ns_per_insn: f64,
    /// `camo_isa::decode`, per word.
    pub decode_ns: f64,
    /// `Memory::translate` hitting the software TLB.
    pub translate_ns_hit: f64,
    /// `Memory::translate` walking the tables (TLB off).
    pub translate_ns_walk: f64,
    /// A warm-schedule `Qarma::mac`.
    pub qarma_mac_ns: f64,
    /// `PacUnit::add_pac` hitting the MAC memo.
    pub sign_ns_memo_hit: f64,
}

/// Measures every layer row.
pub fn measure() -> Rows {
    Rows {
        syscall_ns: syscall_ns(),
        step_ns_per_insn: call_loop_ns_per_insn(false, false),
        block_ns_per_insn: call_loop_ns_per_insn(true, false),
        trace_ns_per_insn: call_loop_ns_per_insn(true, true),
        decode_ns: decode_ns(),
        translate_ns_hit: translate_ns(true),
        translate_ns_walk: translate_ns(false),
        qarma_mac_ns: qarma_mac_ns(),
        sign_ns_memo_hit: sign_memo_hit_ns(),
    }
}
