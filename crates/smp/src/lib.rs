//! Multi-core Camouflage machines and a host-parallel traffic driver.
//!
//! The paper's key-management design is inherently per-CPU: every core
//! re-installs the kernel keys through the XOM setter on kernel entry and
//! restores the current task's user keys from `thread_struct` on exit, and
//! those `thread_struct` slots follow the task as the scheduler migrates
//! it between cores (§6.1.1). This crate supplies both halves of the SMP
//! story the single-`Machine` reproduction lacked:
//!
//! * **In-machine SMP** — [`Cluster`]: N simulated cores sharing one
//!   physical memory, stage-1/stage-2 configuration, and cluster-wide TLB
//!   generation, with per-core sysreg files and PAuth key registers,
//!   per-CPU runqueues with migration and balancing, and IPIs for
//!   reschedule/TLB-shootdown. A 1-CPU cluster is bit-identical to
//!   [`camo_core::Machine`].
//! * **Host-parallel fleet** — [`FleetDriver`]: M independent machines
//!   (each optionally a cluster) served by a pool of host workers that
//!   each claim the next shard and run it to completion, running an
//!   arbitrary mix of [`camo_workloads::Workload`] tenants on a deterministic
//!   weighted-fair simulated schedule (per-tenant priorities and
//!   simulated-cycle budgets with throttling), every quota partitioned
//!   deterministically by seed, with per-tenant
//!   [`camo_cpu::CpuStats`]/cycle attribution and simulated-cycle latency
//!   percentiles. This is where wall-clock throughput scales — shard
//!   count is decoupled from host thread count, and the simulated totals
//!   are bit-identical across any worker count or drive mode
//!   ([`FleetReport::simulation_identical`]). With
//!   [`FleetPlan::telemetry`] on, every [`TenantReport`] also carries the
//!   tenant's time series of stat-delta windows.
//!
//! # Example
//!
//! ```
//! use camo_smp::Cluster;
//!
//! let mut cluster = Cluster::protected(2)?;
//! let tid = cluster.kernel_mut().spawn("worker")?;
//! cluster.kernel_mut().migrate_task(tid, 1)?;
//! let out = cluster.run_task(tid, 1, 172, 0)?; // getpid on core 1
//! assert!(out.fault.is_none());
//! # Ok::<(), camo_kernel::KernelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod driver;
mod scheduler;

pub use cluster::{Cluster, ClusterStats};
pub use driver::{
    shard_seed, ExecProfile, FleetDriver, FleetPlan, FleetReport, FleetShardReport, TenantReport,
};
pub use scheduler::TenantSched;
