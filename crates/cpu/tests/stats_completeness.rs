//! Completeness audit for [`CpuStats`] aggregation.
//!
//! `merge` and `delta_since` must each cover *every* counter field, and `arch_eq` must keep its architectural /
//! observability split intact. These tests are written so that adding a
//! new counter to `CpuStats` without teaching the aggregators about it
//! fails here (the exhaustive struct literal below stops compiling the
//! moment a field is added, and the distinct-value sweeps catch a field
//! that compiles but is skipped at runtime).

use camo_cpu::CpuStats;

/// An exhaustive `CpuStats` literal with every field distinct and
/// non-zero. No `..Default::default()` tail on purpose: a new field
/// makes this a compile error, which is the audit tripwire.
fn distinct() -> CpuStats {
    CpuStats {
        instructions: 1,
        pac_signs: 2,
        pac_auth_ok: 3,
        pac_auth_fail: 4,
        pac_auth_fail_instr: 5,
        pac_auth_fail_data: 6,
        key_writes: 7,
        exceptions: 8,
        tlb_hits: 9,
        tlb_misses: 10,
        icache_hits: 11,
        icache_misses: 12,
        pac_memo_hits: 13,
        pac_memo_misses: 14,
        ipis: 15,
        block_hits: 16,
        block_misses: 17,
        block_invalidations: 18,
        chain_follows: 19,
        trace_hits: 20,
        trace_misses: 21,
        trace_invalidations: 22,
    }
}

/// Field accessors, one per counter, used to sweep "flip exactly one
/// field" scenarios. Paired with `distinct()`, this list is the runtime
/// half of the audit: it must name all 22 fields.
fn fields() -> Vec<(&'static str, fn(&mut CpuStats) -> &mut u64, bool)> {
    // (name, accessor, architectural?) — architectural fields are the
    // ones arch_eq compares; the rest are observability-only and must
    // NOT affect arch_eq (engines and caches may legally change them).
    vec![
        ("instructions", |s: &mut CpuStats| &mut s.instructions, true),
        ("pac_signs", |s: &mut CpuStats| &mut s.pac_signs, true),
        ("pac_auth_ok", |s: &mut CpuStats| &mut s.pac_auth_ok, true),
        (
            "pac_auth_fail",
            |s: &mut CpuStats| &mut s.pac_auth_fail,
            true,
        ),
        (
            "pac_auth_fail_instr",
            |s: &mut CpuStats| &mut s.pac_auth_fail_instr,
            true,
        ),
        (
            "pac_auth_fail_data",
            |s: &mut CpuStats| &mut s.pac_auth_fail_data,
            true,
        ),
        ("key_writes", |s: &mut CpuStats| &mut s.key_writes, true),
        ("exceptions", |s: &mut CpuStats| &mut s.exceptions, true),
        ("tlb_hits", |s: &mut CpuStats| &mut s.tlb_hits, false),
        ("tlb_misses", |s: &mut CpuStats| &mut s.tlb_misses, false),
        ("icache_hits", |s: &mut CpuStats| &mut s.icache_hits, false),
        (
            "icache_misses",
            |s: &mut CpuStats| &mut s.icache_misses,
            false,
        ),
        (
            "pac_memo_hits",
            |s: &mut CpuStats| &mut s.pac_memo_hits,
            false,
        ),
        (
            "pac_memo_misses",
            |s: &mut CpuStats| &mut s.pac_memo_misses,
            false,
        ),
        ("ipis", |s: &mut CpuStats| &mut s.ipis, true),
        ("block_hits", |s: &mut CpuStats| &mut s.block_hits, false),
        (
            "block_misses",
            |s: &mut CpuStats| &mut s.block_misses,
            false,
        ),
        (
            "block_invalidations",
            |s: &mut CpuStats| &mut s.block_invalidations,
            false,
        ),
        (
            "chain_follows",
            |s: &mut CpuStats| &mut s.chain_follows,
            false,
        ),
        ("trace_hits", |s: &mut CpuStats| &mut s.trace_hits, false),
        (
            "trace_misses",
            |s: &mut CpuStats| &mut s.trace_misses,
            false,
        ),
        (
            "trace_invalidations",
            |s: &mut CpuStats| &mut s.trace_invalidations,
            false,
        ),
    ]
}

#[test]
fn field_list_is_complete() {
    // Exhaustive on purpose (no `..`): a new CpuStats field fails to
    // compile here until it is listed, and the count then forces the
    // accessor list to follow.
    let CpuStats {
        instructions,
        pac_signs,
        pac_auth_ok,
        pac_auth_fail,
        pac_auth_fail_instr,
        pac_auth_fail_data,
        key_writes,
        exceptions,
        tlb_hits,
        tlb_misses,
        icache_hits,
        icache_misses,
        pac_memo_hits,
        pac_memo_misses,
        ipis,
        block_hits,
        block_misses,
        block_invalidations,
        chain_follows,
        trace_hits,
        trace_misses,
        trace_invalidations,
    } = distinct();
    let all = [
        instructions,
        pac_signs,
        pac_auth_ok,
        pac_auth_fail,
        pac_auth_fail_instr,
        pac_auth_fail_data,
        key_writes,
        exceptions,
        tlb_hits,
        tlb_misses,
        icache_hits,
        icache_misses,
        pac_memo_hits,
        pac_memo_misses,
        ipis,
        block_hits,
        block_misses,
        block_invalidations,
        chain_follows,
        trace_hits,
        trace_misses,
        trace_invalidations,
    ];
    assert_eq!(
        fields().len(),
        all.len(),
        "field accessor list out of sync with CpuStats"
    );
}

#[test]
fn merge_covers_every_field() {
    let s = distinct();
    let mut merged = CpuStats::default();
    merged.merge(&s);
    assert_eq!(merged, s, "merge into zero must reproduce the input");

    // Distinct values mean a skipped field shows up as exactly one
    // mismatch; doubling everything catches += vs = typos too.
    let mut doubled = s;
    doubled.merge(&s);
    for (name, get, _) in fields() {
        let mut single = s;
        let mut twice = doubled;
        assert_eq!(
            *get(&mut twice),
            2 * *get(&mut single),
            "merge missed field {name}"
        );
    }
}

#[test]
fn delta_since_covers_every_field() {
    let s = distinct();
    assert_eq!(
        s.delta_since(&CpuStats::default()),
        s,
        "delta from zero must reproduce the totals"
    );
    assert_eq!(
        s.delta_since(&s),
        CpuStats::default(),
        "delta from self must be all-zero — a skipped field stays non-zero"
    );
}

#[test]
fn arch_eq_splits_architectural_from_observability() {
    let base = distinct();
    for (name, get, architectural) in fields() {
        let mut bumped = base;
        *get(&mut bumped) += 1000;
        if architectural {
            assert!(
                !base.arch_eq(&bumped),
                "arch_eq ignored architectural field {name}"
            );
        } else {
            assert!(
                base.arch_eq(&bumped),
                "arch_eq must ignore observability field {name} — engines may change it"
            );
        }
    }
}
