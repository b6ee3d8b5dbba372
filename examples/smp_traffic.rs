//! SMP traffic: boot a multi-core cluster, migrate tasks between cores
//! with their PAuth key slots, trip the cluster-wide panic threshold from
//! a sibling core, then fan a syscall workload out across sharded
//! machines on host threads.
//!
//! ```sh
//! cargo run --release --example smp_traffic
//! ```

use camouflage::kernel::{KernelConfig, KernelError, KernelEvent};
use camouflage::smp::{Cluster, FleetDriver, FleetPlan};
use camouflage::workloads::TenantSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ── In-machine SMP ──────────────────────────────────────────────────
    let mut cluster = Cluster::protected(4)?;
    println!("booted a {}-core protected cluster", cluster.cpu_count());
    for cpu in cluster.kernel().cpus() {
        println!(
            "  core {}: {} key-register writes at boot (per-CPU XOM setter run)",
            cpu.id(),
            cpu.stats().key_writes
        );
    }

    // Tasks spread across runqueues; each runs on its home core with its
    // own per-thread user keys.
    let mut tids = Vec::new();
    for name in ["web", "db", "cache"] {
        let (tid, cpu) = cluster.spawn(name)?;
        println!("spawned {name:>5} as tid {tid} on core {cpu}");
        tids.push(tid);
    }
    for &tid in &tids {
        let out = cluster.run_task(tid, 4, 172, 0)?;
        assert!(out.fault.is_none());
    }

    // Migration: the thread_struct key slots live in shared memory, so
    // the destination core restores the task's own keys on next entry.
    let migrant = tids[0];
    cluster.kernel_mut().migrate_task(migrant, 3)?;
    let out = cluster.run_task(migrant, 4, 63, 3)?;
    println!(
        "migrated tid {migrant} to core 3; post-migration read returned {} ({} cycles)",
        out.x0, out.cycles
    );

    // The §5.4 panic threshold is cluster-wide: forged pointers guessed
    // on core 1 halt the whole machine.
    let mut cfg = KernelConfig::default();
    cfg.cpus = 2;
    cfg.pac_panic_threshold = 4;
    let mut victim = Cluster::boot(cfg)?;
    let kernel = victim.kernel_mut();
    let target = kernel.symbol("dev_read");
    let halt = loop {
        let work = kernel.init_work("dev_poll")?;
        let ctx = kernel.mem().kernel_ctx(kernel.kernel_table());
        let slot = work + u64::from(camouflage::kernel::layout::work_struct::FUNC);
        kernel.mem_mut().write_u64(&ctx, slot, target).unwrap();
        kernel.set_current_cpu(1); // guess from the sibling core
        match kernel.run_work(work) {
            Ok(_) => continue,
            Err(KernelError::PacPanic { failures }) => break failures,
            Err(e) => return Err(e.into()),
        }
    };
    let observed_on_1 = victim
        .kernel()
        .events()
        .iter()
        .filter(|e| matches!(e, KernelEvent::PacFailure { cpu: 1, .. }))
        .count();
    println!(
        "sibling-core brute force: halted after {halt} failures, {observed_on_1} observed on core 1"
    );

    // ── Host-parallel sharding ──────────────────────────────────────────
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("\nsharded traffic (host has {host_cores} core(s)):");
    println!(
        "{:>7} {:>10} {:>14} {:>16}",
        "shards", "syscalls", "wall st/s", "capacity st/s"
    );
    for shards in [1, 2, 4] {
        // One lmbench tenant whose syscall quota is split across shards.
        let plan = FleetPlan::new(
            shards,
            0xCAF0_0D5E,
            vec![TenantSpec::lmbench("lmbench", 4_000)],
        );
        let par = FleetDriver::drive(&plan)?;
        let seq = FleetDriver::drive_sequential(&plan)?;
        assert!(
            par.simulation_identical(&seq),
            "sharding mode is architecturally invisible"
        );
        println!(
            "{:>7} {:>10} {:>14.0} {:>16.0}",
            shards,
            par.syscalls,
            par.steps_per_sec(),
            seq.capacity_steps_per_sec()
        );
    }
    println!("capacity scales with shards; wall scaling follows on multi-core hosts");
    Ok(())
}
