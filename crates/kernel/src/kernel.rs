//! The kernel: boot, syscall machinery, scheduling, modules, workqueues.

use crate::image::{build_user_program, syscall_by_nr, KernelImage};
use crate::layout::{
    self, file_struct, task_struct, type_consts, upcall, KEYSETTER_VA, PT_X8, RODATA_BASE,
    USER_STACK_PAGES, USER_STACK_TOP, USER_TEXT_BASE, VECTORS_VA,
};
use crate::objects::{FileKind, FileTable, KernelEvent, PacPolicy, Task, Tid};
use crate::sched::Scheduler;
use camo_analysis::verify_image;
use camo_boot::Bootloader;
use camo_codegen::{CodegenConfig, Image, Program, ProtectionLevel, StaticPointerTable};
use camo_cpu::pac::{classify_pac_failure, looks_like_pac_failure};
use camo_cpu::{Cpu, CpuError, HwFeatures, IpiKind, Step, CALL_SENTINEL};
use camo_isa::{encode, Reg, SysReg};
use camo_mem::{El, Frame, Memory, S1Attr, TableId, PAGE_SIZE};
use camo_qarma::QarmaKey;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Kernel build & boot configuration.
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// Instrumentation level (§6.1's none / backward-edge / full).
    pub protection: ProtectionLevel,
    /// Overrides the backward-edge scheme (default: Camouflage). Used to
    /// boot SP-only or PARTS kernels for the Figure 2 comparison and the
    /// replay-attack matrix.
    pub scheme_override: Option<camo_codegen::CfiScheme>,
    /// §5.5 backward-compatible build (hint-space PAuth forms only).
    pub compat_v80: bool,
    /// Boot entropy (keys, user-key generation).
    pub seed: u64,
    /// §5.4 PAC-failure panic threshold.
    pub pac_panic_threshold: u32,
    /// Whether the simulated core implements ARMv8.3-PAuth.
    pub pauth_hw: bool,
    /// User program blocks `(name, alu, mem)` available to every process.
    pub user_blocks: Vec<(String, usize, usize)>,
    /// Enables the simulator's fast-path caches: the software TLB in the
    /// memory system, the CPU's decoded-instruction cache, and the PAC
    /// unit's warm QARMA key schedules.
    ///
    /// Architecturally invisible — cycle counts, faults and attack
    /// outcomes are bit-identical on or off; only wall-clock simulation
    /// speed changes. Default on; turn off for cache A/B measurements
    /// (`perfcheck` does).
    pub fast_caches: bool,
    /// Enables the basic-block translation engine: the kernel's run loops
    /// drive every core through [`camo_cpu::Cpu::run_block`], executing
    /// cached straight-line blocks with the fetch permission walk hoisted
    /// to block entry and per-block stats batching.
    ///
    /// Architecturally invisible like [`KernelConfig::fast_caches`] —
    /// cycles, instructions, faults, attack verdicts and every
    /// [`camo_cpu::CpuStats::arch_eq`] counter are bit-identical on or
    /// off; only wall-clock speed and the cache-observability counters
    /// change. (The one boundary: the run loops' hang-detection budgets
    /// are checked between engine invocations, so a program within one
    /// block-call of the [`KernelError::Hung`] backstop may overshoot it
    /// slightly with the engine on — see `KCALL_BUDGET`.) Default on;
    /// `perfcheck --blocks` measures the A/B.
    pub block_engine: bool,
    /// Enables the trace tier of the translation engine: hot block chains
    /// are promoted into flattened, guard-checked traces with threaded
    /// (pre-resolved function-pointer) dispatch and per-site PAC memos —
    /// see [`camo_cpu::trace`]. Nested inside the block path, so it only
    /// runs while [`KernelConfig::block_engine`] is also on.
    ///
    /// Same contract as [`KernelConfig::block_engine`]: architecturally
    /// invisible, bit-identical cycles/instructions/faults/attack
    /// verdicts, same budget-overshoot boundary (a looping trace retires
    /// at most the per-call bound tier 1 already had). Default on;
    /// `perfcheck --traces` measures the A/B.
    pub trace_engine: bool,
    /// Number of simulated CPUs. The default (1) is the paper's
    /// uniprocessor evaluation machine and is bit-identical to the
    /// pre-SMP kernel; larger values boot a cluster: every core gets its
    /// own sysreg file and PAuth key registers, runs the XOM key setter
    /// at boot, and owns a runqueue. All cores share one physical memory,
    /// stage-1/stage-2 configuration, and the cluster-wide translation
    /// generation (the TLB-shootdown backbone).
    pub cpus: usize,
    /// Enables the telemetry plane: executors driving this kernel (e.g.
    /// `TenantRun` in `camo_workloads`) record a per-tenant time series
    /// of stat-delta windows ([`camo_cpu::telemetry::StatWindow`]). The
    /// kernel itself holds no telemetry state; executors read this flag
    /// from [`Kernel::config`].
    ///
    /// Architecturally invisible like [`KernelConfig::fast_caches`]: the
    /// plane only *reads* the per-op stat deltas executors already
    /// compute — it never touches simulated state or the boot RNG — so
    /// cycles, instructions, faults and every counter are bit-identical
    /// on or off. Default off; `perfcheck --telemetry` gates the A/B.
    pub telemetry: bool,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            protection: ProtectionLevel::Full,
            scheme_override: None,
            compat_v80: false,
            seed: 0xCAF0_0D5E,
            pac_panic_threshold: 16,
            pauth_hw: true,
            user_blocks: vec![("stub".to_string(), 2, 1)],
            fast_caches: true,
            block_engine: true,
            trace_engine: true,
            cpus: 1,
            telemetry: false,
        }
    }
}

impl KernelConfig {
    /// A configuration at `level` with everything else default.
    pub fn with_protection(level: ProtectionLevel) -> Self {
        KernelConfig {
            protection: level,
            ..KernelConfig::default()
        }
    }

    /// The matching instrumentation configuration.
    pub fn codegen(&self) -> CodegenConfig {
        let mut cfg = CodegenConfig {
            compat_v80: self.compat_v80,
            ..CodegenConfig::for_level(self.protection)
        };
        if self.protection != ProtectionLevel::None {
            if let Some(scheme) = self.scheme_override {
                cfg.scheme = scheme;
            }
        }
        cfg
    }
}

/// Fatal kernel conditions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// §5.4: the PAC-failure threshold was reached; the system halts.
    PacPanic {
        /// Failures recorded when the panic tripped.
        failures: u32,
    },
    /// The simulated CPU hit an unrecoverable state.
    Cpu(CpuError),
    /// A module failed §4.1 verification.
    ModuleRejected {
        /// Human-readable violation descriptions.
        violations: Vec<String>,
    },
    /// Operation on a dead or unknown task.
    BadTask(Tid),
    /// A run exceeded its step budget.
    Hung,
    /// Every `struct file` slot of the file heap backs an open fd.
    FileHeapExhausted,
}

impl core::fmt::Display for KernelError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            KernelError::PacPanic { failures } => {
                write!(f, "kernel panic: {failures} PAC authentication failures")
            }
            KernelError::Cpu(e) => write!(f, "cpu error: {e}"),
            KernelError::ModuleRejected { violations } => {
                write!(f, "module rejected: {} violations", violations.len())
            }
            KernelError::BadTask(tid) => write!(f, "no live task {tid}"),
            KernelError::Hung => write!(f, "simulation exceeded its step budget"),
            KernelError::FileHeapExhausted => write!(f, "no free struct file slot"),
        }
    }
}

impl std::error::Error for KernelError {}

impl From<CpuError> for KernelError {
    fn from(e: CpuError) -> Self {
        KernelError::Cpu(e)
    }
}

/// Details of a fault observed during a kernel-internal call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultInfo {
    /// Faulting address (`FAR_EL1`).
    pub far: u64,
    /// PC of the faulting instruction (`ELR_EL1`).
    pub elr: u64,
    /// Whether the address carries the PAC-failure signature.
    pub pac_failure: bool,
}

/// Result of executing a kernel function or user program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOutcome {
    /// x0 at completion (return value).
    pub x0: u64,
    /// Cycles consumed.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// The fault that aborted execution, if any.
    pub fault: Option<FaultInfo>,
    /// Syscalls completed (user runs).
    pub syscalls: u64,
}

/// Hot-path symbol VAs, resolved once at boot.
///
/// The syscall dispatch upcall runs per simulated syscall; resolving its
/// targets through the image's name map (a `HashMap` keyed by `String`,
/// plus a `format!` per lookup) costs more host time than the simulated
/// work of a short syscall, so the run loop uses these instead.
#[derive(Debug, Clone)]
struct HotSymbols {
    ret_to_user: u64,
    syscall_ret_glue: u64,
    restore_user_keys: u64,
    /// `(nr, sys_<name> VA)` for every modeled syscall, in table order.
    sys_bodies: Vec<(u64, u64)>,
    /// `(block name, user_main_<name> VA)` for every user block.
    user_entries: Vec<(String, u64)>,
}

/// A loaded kernel module.
#[derive(Debug, Clone)]
pub struct ModuleHandle {
    /// Load address.
    pub base_va: u64,
    /// The module's linked image.
    pub image: Image,
    /// The frames backing the module's text, in page order: owned by the
    /// module and freed when it is unloaded.
    frames: Vec<Frame>,
}

/// The simulated machine: CPU + memory + the kernel proper.
#[derive(Debug)]
pub struct Kernel {
    cfg: KernelConfig,
    codegen_cfg: CodegenConfig,
    /// The cluster's cores. Every core borrows the one shared [`Memory`]
    /// below when it steps; per-core state (sysregs, PAuth key registers,
    /// decoded-instruction cache, PAC unit) lives inside each [`Cpu`].
    cpus: Vec<Cpu>,
    /// Index of the core currently driving execution.
    cur_cpu: usize,
    sched: Scheduler,
    mem: Memory,
    boot: Bootloader,
    kimage: KernelImage,
    kernel_table: TableId,
    user_frames: Vec<(u64, Frame)>,
    tasks: Vec<Task>,
    current: usize,
    files: FileTable,
    policy: PacPolicy,
    events: Vec<KernelEvent>,
    modules: Vec<ModuleHandle>,
    rng: StdRng,
    /// File-heap slots never handed out yet start here; slots of closed
    /// files wait in `free_file_slots` and are reused LIFO first.
    next_file_slot: u64,
    free_file_slots: Vec<u64>,
    next_work_slot: u64,
    next_tid: Tid,
    /// Tids released by [`Kernel::exit_task`], reused LIFO by `spawn` so a
    /// fork/exit churn workload cannot exhaust the fixed stack/task-struct
    /// VA regions.
    free_tids: Vec<Tid>,
    /// Monotonic module-slot allocator (slots freed by
    /// [`Kernel::unload_module`] are preferred, LIFO).
    next_module_slot: u64,
    free_module_slots: Vec<u64>,
    hot: HotSymbols,
}

/// Pages backing each of the file and work heaps.
const HEAP_PAGES: u64 = 8;
/// `struct file` slots in the file heap.
const FILE_SLOTS: u64 = HEAP_PAGES * PAGE_SIZE / file_struct::SIZE;

/// Retired-instruction budget for a single kernel-internal call.
///
/// A hang-detection backstop, denominated in *instructions* so the block
/// engine does not change when it trips: the run loops check it between
/// engine invocations, so with the engine on a run may overshoot by at
/// most one call's worth of instructions (`MAX_CHAIN * MAX_BLOCK_INSNS`)
/// before the check fires — a bound the trace tier preserves, since an
/// internally-looping trace stops its call at that same instruction
/// count (`camo_cpu::trace::TRACE_CALL_INSNS`). A program living that
/// close to the backstop is outside the simulator's contract — benign
/// workloads sit orders of magnitude below it.
const KCALL_BUDGET: u64 = 1_000_000;
/// Retired-instruction budget for a user program run (same backstop
/// semantics as [`KCALL_BUDGET`]).
const RUN_BUDGET: u64 = 200_000_000;

impl Kernel {
    /// Boots a machine with `cfg`: builds and loads the kernel image,
    /// installs the XOM key setter, writes the vector table and rodata ops
    /// tables, seals everything through the hypervisor, installs the kernel
    /// keys by *executing* the setter, and spawns the init task.
    pub fn boot(cfg: KernelConfig) -> Result<Kernel, KernelError> {
        let codegen_cfg = cfg.codegen();
        let mut mem = Memory::new();
        mem.set_caching(cfg.fast_caches);
        let kernel_table = mem.new_table();
        let boot = Bootloader::new(cfg.seed);
        let kimage = KernelImage::build(codegen_cfg);
        boot.load_image(&mut mem, kernel_table, kimage.image());
        let setter = boot.install_keysetter(&mut mem, kernel_table, KEYSETTER_VA);

        // Vector page: branches to the entry stubs.
        let vec_frame = mem.map_new(kernel_table, VECTORS_VA, S1Attr::kernel_text());
        let vectors = [
            (camo_cpu::vector::SYNC_SAME_EL, "el1_sync_entry"),
            (camo_cpu::vector::IRQ_SAME_EL, "irq_entry"),
            (camo_cpu::vector::SYNC_LOWER_EL, "el0_sync_entry"),
            (camo_cpu::vector::IRQ_LOWER_EL, "irq_entry"),
        ];
        for (off, sym) in vectors {
            let target = kimage.symbol(sym);
            let site = VECTORS_VA + off;
            let b = camo_isa::Insn::B {
                offset: i32::try_from(target.wrapping_sub(site) as i64)
                    .expect("vector branch in range"),
            };
            mem.phys_mut()
                .write_u32(vec_frame.base() + off, encode(&b))
                .expect("vector frame backed");
        }
        boot.hypervisor()
            .seal_read_exec(&mut mem, vec_frame)
            .expect("boot order");

        // Read-only operations tables (§4.4): function pointers stored
        // unsigned in memory no one can write.
        let rodata_frame = mem.map_new(kernel_table, RODATA_BASE, S1Attr::kernel_rodata());
        let members: [(u16, &str); 6] = [
            (layout::file_operations::LLSEEK, "dev_llseek"),
            (layout::file_operations::READ, "dev_read"),
            (layout::file_operations::WRITE, "dev_write"),
            (layout::file_operations::POLL, "dev_poll"),
            (layout::file_operations::OPEN, "dev_open"),
            (layout::file_operations::RELEASE, "dev_release"),
        ];
        for kind in FileKind::ALL {
            let table_off = kind.ops_va() - RODATA_BASE;
            for (member, sym) in members {
                mem.phys_mut()
                    .write_u64(
                        rodata_frame.base() + table_off + u64::from(member),
                        kimage.symbol(sym),
                    )
                    .expect("rodata frame backed");
            }
        }
        boot.hypervisor()
            .seal_read_only(&mut mem, rodata_frame)
            .expect("boot order");

        // Kernel heap pages: file objects and work items.
        for page in 0..HEAP_PAGES {
            mem.map_new(
                kernel_table,
                file_heap_base() + page * PAGE_SIZE,
                S1Attr::kernel_data(),
            );
            mem.map_new(
                kernel_table,
                work_heap_base() + page * PAGE_SIZE,
                S1Attr::kernel_data(),
            );
        }

        // User program text (shared frames, mapped per process).
        let blocks: Vec<(&str, usize, usize)> = cfg
            .user_blocks
            .iter()
            .map(|(n, a, m)| (n.as_str(), *a, *m))
            .collect();
        let user_image = build_user_program(&blocks).link(USER_TEXT_BASE);
        let ubytes = user_image.to_bytes();
        let mut user_frames = Vec::new();
        for (page, chunk) in ubytes.chunks(PAGE_SIZE as usize).enumerate() {
            let frame = mem.alloc_frame();
            mem.phys_mut()
                .write_bytes(frame.base(), chunk)
                .expect("fresh frame backed");
            user_frames.push((USER_TEXT_BASE + page as u64 * PAGE_SIZE, frame));
        }

        // Resolve the run loop's hot symbols once (see [`HotSymbols`]).
        let hot = HotSymbols {
            ret_to_user: kimage.symbol("ret_to_user"),
            syscall_ret_glue: kimage.symbol("syscall_ret_glue"),
            restore_user_keys: kimage.symbol("restore_user_keys"),
            sys_bodies: crate::image::SYSCALLS
                .iter()
                .map(|spec| (spec.nr, kimage.symbol(&format!("sys_{}", spec.name))))
                .collect(),
            user_entries: cfg
                .user_blocks
                .iter()
                .map(|(name, _, _)| {
                    let entry = user_image
                        .symbol(&format!("user_main_{name}"))
                        .expect("every user block gets an entry");
                    (name.clone(), entry)
                })
                .collect(),
        };

        assert!(cfg.cpus > 0, "a machine has at least one CPU");
        let mut cpus = Vec::with_capacity(cfg.cpus);
        for id in 0..cfg.cpus {
            let mut cpu = Cpu::with_id(
                HwFeatures {
                    pauth: cfg.pauth_hw,
                },
                id,
            );
            cpu.set_caching(cfg.fast_caches);
            cpu.set_block_engine(cfg.block_engine);
            cpu.set_trace_engine(cfg.trace_engine);
            cpu.state.set_sysreg(SysReg::Ttbr1El1, kernel_table.raw());
            cpu.state.set_sysreg(SysReg::Ttbr0El1, kernel_table.raw());
            cpu.state.set_sysreg(SysReg::VbarEl1, VECTORS_VA);
            cpus.push(cpu);
        }

        let mut kernel = Kernel {
            policy: PacPolicy::new(cfg.pac_panic_threshold),
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x5eed_0000_0001),
            codegen_cfg,
            sched: Scheduler::new(cfg.cpus),
            cpus,
            cur_cpu: 0,
            mem,
            boot,
            kimage,
            kernel_table,
            user_frames,
            tasks: Vec::new(),
            current: 0,
            files: FileTable::new(),
            events: Vec::new(),
            modules: Vec::new(),
            next_file_slot: 0,
            free_file_slots: Vec::new(),
            next_work_slot: 0,
            next_tid: 0,
            free_tids: Vec::new(),
            next_module_slot: 0,
            free_module_slots: Vec::new(),
            hot,
            cfg,
        };

        // Install the kernel keys by running the XOM setter — the §5.1
        // boot-time key installation, executed instruction by instruction,
        // once per core: key registers are per-CPU state, so every core of
        // the cluster executes the setter with its own register file (the
        // secondary-boot path of §6.1.1). This must precede any
        // kernel-code signing (task SPs, f_ops).
        if kernel.protected() {
            for cpu in 0..kernel.cpus.len() {
                kernel.cur_cpu = cpu;
                let out = kernel.kexec(setter.va, &[])?;
                debug_assert!(out.fault.is_none());
            }
            kernel.cur_cpu = 0;
        }

        // Init task (tid 0): gives later kernel calls a stack.
        let init = kernel.spawn("init")?;
        debug_assert_eq!(init, 0);

        kernel.boot.finalize(&mut kernel.mem);
        Ok(kernel)
    }

    fn protected(&self) -> bool {
        self.cfg.protection != ProtectionLevel::None && self.cfg.pauth_hw
    }

    /// The boot configuration.
    pub fn config(&self) -> &KernelConfig {
        &self.cfg
    }

    /// The instrumentation configuration the kernel was built with.
    pub fn codegen_config(&self) -> CodegenConfig {
        self.codegen_cfg
    }

    /// The kernel image (symbol lookups, listings).
    pub fn image(&self) -> &KernelImage {
        &self.kimage
    }

    /// Resolves a kernel symbol.
    pub fn symbol(&self, name: &str) -> u64 {
        self.kimage.symbol(name)
    }

    /// The simulated memory system.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable memory access — this is the attacker's arbitrary
    /// read/write primitive from the §3.1 threat model (and the loader's
    /// tool). Stage-2-protected pages still refuse writes.
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// The CPU currently driving execution.
    pub fn cpu(&self) -> &Cpu {
        &self.cpus[self.cur_cpu]
    }

    /// Mutable access to the current CPU (attack setup, inspection).
    pub fn cpu_mut(&mut self) -> &mut Cpu {
        &mut self.cpus[self.cur_cpu]
    }

    /// Simultaneous mutable access to the current CPU and memory — what an
    /// external driver needs to single-step the machine itself.
    pub fn cpu_mem_mut(&mut self) -> (&mut Cpu, &mut Memory) {
        (&mut self.cpus[self.cur_cpu], &mut self.mem)
    }

    /// Number of CPUs in this machine.
    pub fn cpu_count(&self) -> usize {
        self.cpus.len()
    }

    /// Index of the CPU currently driving execution.
    pub fn current_cpu(&self) -> usize {
        self.cur_cpu
    }

    /// Selects the CPU that subsequent [`Kernel::kexec`]-style calls run
    /// on (the cluster driver's "run this on core N" primitive).
    /// [`Kernel::run_user`] overrides this with the task's home CPU.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn set_current_cpu(&mut self, cpu: usize) {
        assert!(cpu < self.cpus.len(), "no CPU {cpu}");
        self.cur_cpu = cpu;
    }

    /// A specific core of the cluster.
    pub fn cpu_at(&self, cpu: usize) -> &Cpu {
        &self.cpus[cpu]
    }

    /// Mutable access to a specific core.
    pub fn cpu_at_mut(&mut self, cpu: usize) -> &mut Cpu {
        &mut self.cpus[cpu]
    }

    /// All cores, in id order.
    pub fn cpus(&self) -> &[Cpu] {
        &self.cpus
    }

    /// The per-CPU runqueues.
    pub fn sched(&self) -> &Scheduler {
        &self.sched
    }

    /// Posts an IPI from the current CPU to `to_cpu`.
    ///
    /// # Panics
    ///
    /// Panics if `to_cpu` is out of range.
    pub fn send_ipi(&mut self, to_cpu: usize, kind: IpiKind) {
        self.cpus[to_cpu].post_ipi(kind);
    }

    /// Cluster-wide TLB shootdown initiated by the current CPU: performs
    /// the broadcast invalidation on the shared memory system and posts a
    /// [`IpiKind::TlbShootdown`] IPI to every *other* core (the initiator
    /// invalidated locally by doing the flush).
    pub fn tlb_shootdown(&mut self) {
        self.mem.tlb_flush();
        for cpu in 0..self.cpus.len() {
            if cpu != self.cur_cpu {
                self.cpus[cpu].post_ipi(IpiKind::TlbShootdown);
            }
        }
    }

    /// Migrates `tid` to `to_cpu`'s runqueue. The task's `thread_struct`
    /// (and with it the per-thread PAuth key slots) lives in the shared
    /// cluster memory, so the keys follow for free: the next entry to user
    /// mode runs `restore_user_keys` *on the destination core*, loading
    /// this task's keys into that core's key registers. Sends a reschedule
    /// IPI to both cores involved.
    ///
    /// # Errors
    ///
    /// [`KernelError::BadTask`] if `tid` is not a live task.
    ///
    /// # Panics
    ///
    /// Panics if `to_cpu` is out of range.
    pub fn migrate_task(&mut self, tid: Tid, to_cpu: usize) -> Result<(), KernelError> {
        assert!(to_cpu < self.cpus.len(), "no CPU {to_cpu}");
        self.task_index(tid)?;
        if let Some(from) = self.sched.migrate(tid, to_cpu) {
            self.apply_move(tid, from, to_cpu);
        }
        Ok(())
    }

    /// Runs the load balancer: evens out runqueue lengths, updating task
    /// homes and posting reschedule IPIs for every move. Returns the
    /// number of tasks moved.
    pub fn balance(&mut self) -> usize {
        let moves = self.sched.balance();
        for &(tid, from, to) in &moves {
            self.apply_move(tid, from, to);
        }
        moves.len()
    }

    /// Bookkeeping for one runqueue move (the queues themselves were
    /// already updated by the scheduler): re-home the task, log the event,
    /// and post reschedule IPIs to both cores involved.
    fn apply_move(&mut self, tid: Tid, from: usize, to: usize) {
        if let Some(task) = self.tasks.iter_mut().find(|t| t.tid == tid) {
            task.cpu = to;
        }
        self.events
            .push(KernelEvent::TaskMigrated { tid, from, to });
        self.cpus[from].post_ipi(IpiKind::Reschedule);
        self.cpus[to].post_ipi(IpiKind::Reschedule);
    }

    /// Loaded modules.
    pub fn modules(&self) -> &[ModuleHandle] {
        &self.modules
    }

    /// The kernel-half translation table.
    pub fn kernel_table(&self) -> TableId {
        self.kernel_table
    }

    /// Logged events.
    pub fn events(&self) -> &[KernelEvent] {
        &self.events
    }

    /// Moves every logged event into `into` (which is cleared first) and
    /// leaves the kernel's own buffer empty *with its capacity retained*.
    ///
    /// This is the take-and-clear sampling primitive for per-op drivers:
    /// one caller-owned buffer and the kernel's internal one are reused
    /// across ops, so polling events after every tiny operation (the
    /// module-churn tenant logs several per op) allocates only until both
    /// buffers reach steady-state capacity, then never again.
    pub fn take_events(&mut self, into: &mut Vec<KernelEvent>) {
        into.clear();
        into.append(&mut self.events);
    }

    /// PAC failures recorded so far.
    pub fn pac_failures(&self) -> u32 {
        self.policy.failures()
    }

    /// Live task ids.
    pub fn tasks(&self) -> impl Iterator<Item = &Task> {
        self.tasks.iter()
    }

    /// The currently scheduled task.
    pub fn current_task(&self) -> &Task {
        &self.tasks[self.current]
    }

    fn task_index(&self, tid: Tid) -> Result<usize, KernelError> {
        self.tasks
            .iter()
            .position(|t| t.tid == tid && t.alive)
            .ok_or(KernelError::BadTask(tid))
    }

    /// Creates a task: kernel stack, `task_struct`, fresh per-thread user
    /// keys (the §2.2 `exec()` behaviour), a user address space with the
    /// shared program text, and a pre-opened `/dev/zero` file at fd ≥ 3.
    ///
    /// Tids released by [`Kernel::exit_task`] are reused (LIFO, like PID
    /// recycling): a recycled tid's kernel stack and `task_struct` pages
    /// are already mapped and every live field is re-initialised below.
    /// The user table and user-stack frames come from the memory system's
    /// free lists, so a fork/exit storm runs in bounded address space and
    /// bounded memory.
    pub fn spawn(&mut self, name: &str) -> Result<Tid, KernelError> {
        let tid = match self.free_tids.pop() {
            Some(tid) => tid,
            None => {
                let tid = self.next_tid;
                self.next_tid += 1;
                tid
            }
        };

        // Kernel stack (16 KiB at a 64 KiB stride, §4.2). Recycled tids
        // already have these pages mapped; fresh tids get new frames.
        let stack_base = layout::stack_top(tid) - layout::STACK_SIZE;
        for page in 0..(layout::STACK_SIZE / PAGE_SIZE) {
            let va = stack_base + page * PAGE_SIZE;
            if self.mem.table(self.kernel_table).lookup(va).is_none() {
                self.mem
                    .map_new(self.kernel_table, va, S1Attr::kernel_data());
            }
        }
        // task_struct page.
        let ts_va = layout::task_struct_va(tid);
        if self.mem.table(self.kernel_table).lookup(ts_va).is_none() {
            self.mem
                .map_new(self.kernel_table, ts_va, S1Attr::kernel_data());
        }
        let kctx = self.mem.kernel_ctx(self.kernel_table);
        self.mem
            .write_u64(&kctx, ts_va + u64::from(task_struct::TID), u64::from(tid))
            .expect("task page mapped");

        // Per-thread user keys (IB, IA, DB) into thread_struct.
        let user_keys = [
            QarmaKey::new(self.rng.gen(), self.rng.gen()),
            QarmaKey::new(self.rng.gen(), self.rng.gen()),
            QarmaKey::new(self.rng.gen(), self.rng.gen()),
        ];
        for (i, key) in user_keys.iter().enumerate() {
            let off = u64::from(task_struct::USER_KEYS) + 16 * i as u64;
            self.mem
                .write_u64(&kctx, ts_va + off, key.w0)
                .expect("task page mapped");
            self.mem
                .write_u64(&kctx, ts_va + off + 8, key.k0)
                .expect("task page mapped");
        }
        // Seed the switch context: parked LR, so a switch into this task
        // unwinds to the kernel's call driver.
        let cc = ts_va + u64::from(task_struct::CPU_CONTEXT);
        self.mem
            .write_u64(&kctx, cc + 80 + 8, CALL_SENTINEL)
            .expect("task page mapped");

        // User address space: program text (shared frames) + private
        // stack frames.
        let user_table = self.mem.new_table();
        for &(va, frame) in &self.user_frames {
            self.mem.map(user_table, va, frame, S1Attr::user_text());
        }
        let user_stack: [Frame; USER_STACK_PAGES] = core::array::from_fn(|i| {
            self.mem.map_new(
                user_table,
                USER_STACK_TOP - (i as u64 + 1) * PAGE_SIZE,
                S1Attr::user_data(),
            )
        });

        // Place the new task on the least-loaded runqueue (always CPU 0
        // on a uniprocessor, preserving the pre-SMP behaviour exactly).
        let cpu = self.sched.place(tid);
        self.tasks.push(Task {
            tid,
            name: name.to_string(),
            user_table,
            user_stack,
            fd: 0, // opened below
            alive: true,
            user_keys,
            cpu,
            pac_failures: 0,
        });

        // Seed the signed saved-SP via kernel code (fork does this with
        // PAuth instructions, §5.2).
        let sp0 = layout::stack_top(tid) - 512;
        let init_sp = self.symbol("task_init_sp");
        self.kexec(init_sp, &[ts_va, sp0])?;

        // Pre-open a /dev/zero file so fd-based syscalls have a target.
        let (fd, _) = self.open_file(FileKind::DevZero)?;
        if let Some(task) = self.tasks.iter_mut().find(|t| t.tid == tid) {
            task.fd = fd;
        }
        Ok(tid)
    }

    /// Allocates and initialises a `struct file`, signing its `f_ops`
    /// through kernel code (`set_file_ops`, §5.3).
    ///
    /// The file's heap slot is returned for reuse only when an fd that
    /// names it is closed ([`Kernel::close_fd`]); a file never installed
    /// in the fd table keeps its slot.
    ///
    /// # Errors
    ///
    /// [`KernelError::FileHeapExhausted`] when every slot backs a live
    /// file; signing failures from the kernel call.
    pub fn alloc_file(&mut self, kind: FileKind) -> Result<u64, KernelError> {
        let va = self.alloc_file_raw()?;
        let kctx = self.mem.kernel_ctx(self.kernel_table);
        self.mem
            .write_u64(&kctx, va + u64::from(file_struct::F_OPS), kind.ops_va())
            .expect("file heap mapped");
        if self.protected() && self.codegen_cfg.protect_pointers {
            let sign = self.symbol("sign_slot_db");
            self.kexec(
                sign,
                &[
                    va,
                    va + u64::from(file_struct::F_OPS),
                    u64::from(type_consts::FILE_F_OPS),
                ],
            )?;
        }
        Ok(va)
    }

    /// The file object behind `fd`.
    pub fn file_of_fd(&self, fd: u64) -> Option<u64> {
        self.files.get(fd)
    }

    /// Allocates a signed `struct file` *and* installs it in the file
    /// table, returning `(fd, file_va)` — the `open()` composite of
    /// [`Kernel::alloc_file`] plus fd bookkeeping.
    ///
    /// # Errors
    ///
    /// Propagates failures from [`Kernel::alloc_file`].
    pub fn open_file(&mut self, kind: FileKind) -> Result<(u64, u64), KernelError> {
        let va = self.alloc_file(kind)?;
        let fd = self.files.insert(va);
        Ok((fd, va))
    }

    /// Closes `fd` and returns its file's heap slot to the free list, so a
    /// later allocation reuses it. Fd numbers are never reused. Returns
    /// the closed file's VA, or `None` if `fd` was not open.
    pub fn close_fd(&mut self, fd: u64) -> Option<u64> {
        let va = self.files.remove(fd)?;
        self.free_file_slots
            .push((va - file_heap_base()) / file_struct::SIZE);
        Some(va)
    }

    /// Allocates a `work_struct` and initialises its protected callback
    /// (`INIT_WORK`): raw store, then in-kernel signing (§4.6).
    pub fn init_work(&mut self, func_sym: &str) -> Result<u64, KernelError> {
        let capacity = HEAP_PAGES * PAGE_SIZE / layout::work_struct::SIZE;
        let va = work_heap_base() + (self.next_work_slot % capacity) * layout::work_struct::SIZE;
        self.next_work_slot += 1;
        let func = self.symbol(func_sym);
        let kctx = self.mem.kernel_ctx(self.kernel_table);
        self.mem
            .write_u64(&kctx, va + u64::from(layout::work_struct::FUNC), func)
            .expect("work heap mapped");
        if self.protected() && self.codegen_cfg.protect_pointers {
            let sign = self.symbol("sign_slot_ia");
            self.kexec(
                sign,
                &[
                    va,
                    va + u64::from(layout::work_struct::FUNC),
                    u64::from(type_consts::WORK_FUNC),
                ],
            )?;
        }
        Ok(va)
    }

    /// Runs a queued work item: authenticate its callback and call it
    /// (§4.4 forward-edge CFI).
    pub fn run_work(&mut self, work_va: u64) -> Result<ExecOutcome, KernelError> {
        let f = self.symbol("run_work");
        self.kexec(f, &[work_va])
    }

    /// Context-switches between two live tasks by executing
    /// `cpu_switch_to` (§5.2).
    pub fn context_switch(&mut self, from: Tid, to: Tid) -> Result<ExecOutcome, KernelError> {
        let from_idx = self.task_index(from)?;
        let to_idx = self.task_index(to)?;
        self.cpus[self.cur_cpu].state.el = El::El1;
        self.cpus[self.cur_cpu].state.sp_el1 = layout::stack_top(from) - 512;
        let f = self.symbol("cpu_switch_to");
        let out = self.kexec(
            f,
            &[
                self.tasks[from_idx].tid as u64 * 0 + layout::task_struct_va(from),
                layout::task_struct_va(to),
            ],
        )?;
        if out.fault.is_none() {
            self.current = to_idx;
        }
        Ok(out)
    }

    /// Context-switches a task out of existence: `exit()`. The task's
    /// entry is removed, its runqueue slot freed, and its tid pushed onto
    /// the free pool for reuse by a later [`Kernel::spawn`] (PID
    /// recycling) — which is what keeps a fork/exit churn workload inside
    /// the fixed stack and `task_struct` VA regions. The kernel stack and
    /// `task_struct` pages stay mapped for the recycled tid. What the task
    /// owns is freed: its pre-opened fd, its user address-space table and
    /// its private user-stack frames (the shared user text stays), so the
    /// churn also runs in bounded memory.
    ///
    /// Unlike the §5.4 kill path ([`KernelEvent::TaskKilled`]), a graceful
    /// exit leaves no dead entry behind for forensics — there is nothing
    /// to examine.
    ///
    /// # Errors
    ///
    /// [`KernelError::BadTask`] for init (tid 0), a dead task, or an
    /// unknown tid.
    pub fn exit_task(&mut self, tid: Tid) -> Result<(), KernelError> {
        if tid == 0 {
            return Err(KernelError::BadTask(tid)); // init never exits
        }
        let idx = self.task_index(tid)?;
        self.sched.remove(tid);
        self.release_task(idx);
        self.events.push(KernelEvent::TaskExited { tid });
        Ok(())
    }

    /// Reaps a task the §5.4 policy killed: removes the dead entry left
    /// behind for forensics and recycles its tid exactly like a graceful
    /// exit. An adversarial workload that provokes kills at a steady rate
    /// needs this to stay inside the fixed stack/`task_struct` VA strides.
    ///
    /// # Errors
    ///
    /// [`KernelError::BadTask`] for init (tid 0), a task that is still
    /// alive (use [`Kernel::exit_task`]), or an unknown tid.
    pub fn reap_task(&mut self, tid: Tid) -> Result<(), KernelError> {
        if tid == 0 {
            return Err(KernelError::BadTask(tid));
        }
        let idx = self
            .tasks
            .iter()
            .position(|t| t.tid == tid && !t.alive)
            .ok_or(KernelError::BadTask(tid))?;
        self.release_task(idx);
        self.events.push(KernelEvent::TaskReaped { tid });
        Ok(())
    }

    /// Removes the task at `idx` and releases what it owns: its
    /// pre-opened fd, its user table and its private user-stack frames
    /// (never the shared user-text frames); then frees its tid.
    fn release_task(&mut self, idx: usize) {
        let task = self.tasks.remove(idx);
        match self.current.cmp(&idx) {
            core::cmp::Ordering::Greater => self.current -= 1,
            core::cmp::Ordering::Equal => self.current = 0, // fall back to init
            core::cmp::Ordering::Less => {}
        }
        self.close_fd(task.fd);
        let table_freed = self.mem.free_table(task.user_table);
        debug_assert!(table_freed, "a task owns its user table");
        for frame in task.user_stack {
            let freed = self.mem.free_frame(frame);
            debug_assert!(freed, "a task owns its user-stack frames");
        }
        self.free_tids.push(task.tid);
    }

    /// Loads a kernel module: §4.1 static verification first, then map,
    /// then §4.6 in-kernel signing of its static pointer table. Load slots
    /// freed by [`Kernel::unload_module`] are reused (LIFO) before fresh
    /// address space is consumed.
    pub fn load_module(
        &mut self,
        program: Program,
        statics: &StaticPointerTable,
    ) -> Result<ModuleHandle, KernelError> {
        let slot = match self.free_module_slots.pop() {
            Some(slot) => slot,
            None => {
                let slot = self.next_module_slot;
                self.next_module_slot += 1;
                slot
            }
        };
        let base = layout::MODULES_BASE + slot * layout::MODULE_STRIDE;
        let image = program.link(base);
        let violations = verify_image(&image.to_words());
        if !violations.is_empty() {
            self.free_module_slots.push(slot); // nothing was mapped
            self.events.push(KernelEvent::ModuleRejected {
                violations: violations.len(),
            });
            return Err(KernelError::ModuleRejected {
                violations: violations.iter().map(|v| v.to_string()).collect(),
            });
        }
        let frames: Vec<Frame> = image
            .to_bytes()
            .chunks(PAGE_SIZE as usize)
            .enumerate()
            .map(|(page, chunk)| {
                let frame = self.mem.map_new(
                    self.kernel_table,
                    base + page as u64 * PAGE_SIZE,
                    S1Attr::kernel_text(),
                );
                self.mem
                    .phys_mut()
                    .write_bytes(frame.base(), chunk)
                    .expect("fresh frame backed");
                frame
            })
            .collect();
        // Sign the module's statically-initialised pointers in kernel code.
        // On failure the text is unmapped and freed and the slot returned,
        // so a hostile statics table cannot leak module address space or
        // frames.
        if self.protected() && self.codegen_cfg.protect_pointers {
            for entry in statics.entries() {
                let sym = match entry.key {
                    camo_isa::PacKey::IA | camo_isa::PacKey::IB => "sign_slot_ia",
                    _ => "sign_slot_db",
                };
                let f = self.symbol(sym);
                if let Err(e) = self.kexec(
                    f,
                    &[
                        entry.object_base(),
                        entry.location,
                        u64::from(entry.type_const),
                    ],
                ) {
                    self.release_module_text(base, &frames);
                    self.free_module_slots.push(slot);
                    return Err(e);
                }
            }
        }
        let handle = ModuleHandle {
            base_va: base,
            image,
            frames,
        };
        self.modules.push(handle.clone());
        Ok(handle)
    }

    /// Unloads a module: unmaps every page of its text from the kernel
    /// table (the TLB-generation bump makes any cached translation of the
    /// module unservable from the next fetch on any core — the shootdown
    /// half of `delete_module`), frees the text frames the module owns,
    /// and returns its load slot to the free pool for reuse by the next
    /// [`Kernel::load_module`]. A freed frame's write version only grows,
    /// so a module reloaded onto the same VA and PA is re-decoded, never
    /// served from a cache of the old body.
    ///
    /// # Errors
    ///
    /// [`KernelError::BadTask`] is never returned; an unknown `base_va`
    /// yields [`KernelError::ModuleRejected`] with one pseudo-violation so
    /// callers get a descriptive error without a new variant.
    pub fn unload_module(&mut self, base_va: u64) -> Result<(), KernelError> {
        let Some(idx) = self.modules.iter().position(|m| m.base_va == base_va) else {
            return Err(KernelError::ModuleRejected {
                violations: vec![format!("no module loaded at {base_va:#x}")],
            });
        };
        let handle = self.modules.remove(idx);
        self.release_module_text(base_va, &handle.frames);
        self.free_module_slots
            .push((base_va - layout::MODULES_BASE) / layout::MODULE_STRIDE);
        self.events.push(KernelEvent::ModuleUnloaded { base_va });
        Ok(())
    }

    /// Unmaps a module's text pages from the kernel table and frees the
    /// frames behind them.
    fn release_module_text(&mut self, base_va: u64, frames: &[Frame]) {
        for (page, &frame) in frames.iter().enumerate() {
            let unmapped = self
                .mem
                .unmap(self.kernel_table, base_va + page as u64 * PAGE_SIZE);
            let freed = self.mem.free_frame(frame);
            debug_assert!(unmapped && freed, "module text was mapped and owned");
        }
    }

    /// Executes a kernel function at EL1 with the current task's stack,
    /// handling upcalls and faults per kernel policy.
    ///
    /// # Errors
    ///
    /// [`KernelError::PacPanic`] when the §5.4 threshold trips;
    /// [`KernelError::Cpu`]/[`KernelError::Hung`] on simulation failure.
    pub fn kexec(&mut self, fn_va: u64, args: &[u64]) -> Result<ExecOutcome, KernelError> {
        assert!(args.len() <= 8, "at most eight register arguments");
        let cur = self.cur_cpu;
        // Kernel entry on this core: acknowledge pending IPIs. Reschedule
        // needs no action here (the caller already chose what to run) and
        // TlbShootdown's invalidation happened when the initiator flushed
        // the shared memory system — the ack is the protocol's other half
        // (and allocation-free: kexec runs per tiny op under the fleet).
        self.cpus[cur].ack_ipis();
        self.cpus[cur].state.el = El::El1;
        // Kernel context runs under the kernel keys: every real entry to
        // EL1 passes through an exception vector whose prologue executes
        // the XOM key setter (§6.1.1) before any kernel code can sign or
        // authenticate. `kexec` models a call *from* kernel context, so the
        // setter already ran on the way in — install the keys host-side and
        // charge nothing; the entry path that is simulated end-to-end
        // (`el0_sync_entry`) still executes the setter and pays for it.
        if self.protected() {
            for key in [
                camo_isa::PauthKey::IA,
                camo_isa::PauthKey::IB,
                camo_isa::PauthKey::DA,
                camo_isa::PauthKey::DB,
                camo_isa::PauthKey::GA,
            ] {
                self.cpus[cur]
                    .state
                    .set_pauth_key(key, self.boot.keys().key(key));
            }
        }
        if self.cpus[cur].state.sp_el1 == 0 {
            self.cpus[cur].state.sp_el1 = layout::stack_top(self.current_tid()) - 512;
        }
        let tpidr = self
            .tasks
            .get(self.current)
            .map(|t| t.struct_va())
            .unwrap_or(0);
        self.cpus[cur].state.set_sysreg(SysReg::TpidrEl1, tpidr);
        for (i, &a) in args.iter().enumerate() {
            self.cpus[cur].state.gprs[i] = a;
        }
        self.cpus[cur].state.write(Reg::LR, CALL_SENTINEL);
        self.cpus[cur].state.pc = fn_va;
        let c0 = self.cpus[cur].cycles();
        let i0 = self.cpus[cur].stats().instructions;
        // Hang backstop: budget denominated in retired instructions (so
        // the block engine cannot change when it trips), with the call
        // count as a secondary bound against non-advancing steps.
        for _ in 0..KCALL_BUDGET {
            if self.cpus[cur].stats().instructions - i0 >= KCALL_BUDGET {
                break;
            }
            match self.cpus[cur].run_block(&mut self.mem)? {
                Step::SentinelReturn => {
                    return Ok(ExecOutcome {
                        x0: self.cpus[cur].state.gprs[0],
                        cycles: self.cpus[cur].cycles() - c0,
                        instructions: self.cpus[cur].stats().instructions - i0,
                        fault: None,
                        syscalls: 0,
                    })
                }
                Step::BrkTrap { imm } if imm == upcall::EL1_FAULT => {
                    let info = self.note_kernel_fault()?;
                    return Ok(ExecOutcome {
                        x0: self.cpus[cur].state.gprs[0],
                        cycles: self.cpus[cur].cycles() - c0,
                        instructions: self.cpus[cur].stats().instructions - i0,
                        fault: Some(info),
                        syscalls: 0,
                    });
                }
                _ => continue,
            }
        }
        Err(KernelError::Hung)
    }

    fn current_tid(&self) -> Tid {
        self.tasks.get(self.current).map(|t| t.tid).unwrap_or(0)
    }

    /// Applies kernel fault policy to an EL1 fault the caller observed
    /// while driving the CPU itself (the attack framework's entry point
    /// into §5.4 handling).
    ///
    /// # Errors
    ///
    /// [`KernelError::PacPanic`] when the failure threshold trips.
    pub fn observe_el1_fault(&mut self) -> Result<FaultInfo, KernelError> {
        self.note_kernel_fault()
    }

    /// Classifies and logs a kernel-mode fault; trips the §5.4 panic
    /// policy on PAC-failure signatures. The policy counter is cluster
    /// global: failures observed by *any* core accumulate toward the same
    /// threshold (per-task counts are kept alongside for forensics).
    fn note_kernel_fault(&mut self) -> Result<FaultInfo, KernelError> {
        let cpu = self.cur_cpu;
        let far = self.cpus[cpu].state.sysreg(SysReg::FarEl1);
        let elr = self.cpus[cpu].state.sysreg(SysReg::ElrEl1);
        let class = classify_pac_failure(far, true);
        let tid = self.current_tid();
        if let Some(kind) = class {
            self.events.push(KernelEvent::PacFailure {
                far,
                elr,
                tid,
                cpu,
                kind,
            });
            if let Some(task) = self.tasks.iter_mut().find(|t| t.tid == tid) {
                task.pac_failures += 1;
            }
            if self.policy.record_failure() {
                return Err(KernelError::PacPanic {
                    failures: self.policy.failures(),
                });
            }
        } else {
            self.events.push(KernelEvent::KernelFault { far, tid });
        }
        // Default policy: the offending process is killed (§5.4).
        self.events.push(KernelEvent::TaskKilled { tid });
        self.kill_task(tid);
        // The faulting kernel context is never resumed (its task is dead),
        // so the core abandons its EL1 stack — which may hold a poisoned
        // SP if the fault was a failed SP authentication in
        // `cpu_switch_to` — and re-derives it on the next kernel entry.
        self.cpus[cpu].state.sp_el1 = 0;
        Ok(FaultInfo {
            far,
            elr,
            pac_failure: class.is_some(),
        })
    }

    /// Marks `tid` dead and removes it from its runqueue.
    fn kill_task(&mut self, tid: Tid) {
        if let Some(task) = self.tasks.iter_mut().find(|t| t.tid == tid) {
            task.alive = false;
        }
        self.sched.remove(tid);
    }

    /// Runs a user program: `iterations` × (user block + one syscall `nr`
    /// with first argument `arg0`), fully simulated from `ERET`-free user
    /// entry through every kernel entry/exit.
    pub fn run_user(
        &mut self,
        tid: Tid,
        block: &str,
        iterations: u64,
        nr: u64,
        arg0: u64,
    ) -> Result<ExecOutcome, KernelError> {
        let idx = self.task_index(tid)?;
        self.current = idx;
        // Run on the task's home CPU — migration moves the home, and with
        // it where the user keys get restored. Entering the kernel on this
        // core acknowledges its pending IPIs (see kexec).
        let cur = self.tasks[idx].cpu;
        self.cur_cpu = cur;
        self.cpus[cur].ack_ipis();
        let task_va = self.tasks[idx].struct_va();
        let user_table = self.tasks[idx].user_table;
        let stack_top = self.tasks[idx].stack_top();
        self.cpus[cur]
            .state
            .set_sysreg(SysReg::Ttbr0El1, user_table.raw());
        self.cpus[cur].state.set_sysreg(SysReg::TpidrEl1, task_va);
        self.cpus[cur].state.sp_el1 = stack_top;

        // exec(): provision the user keys by running the kernel's restore
        // path (reads thread_struct, writes this core's key registers).
        if self.protected() {
            let f = self.hot.restore_user_keys;
            self.kexec(f, &[])?;
            self.cpus[cur].state.sp_el1 = stack_top;
        }

        let entry = self
            .hot
            .user_entries
            .iter()
            .find(|(name, _)| name == block)
            .map(|&(_, va)| va)
            .unwrap_or_else(|| panic!("unknown user block {block}"));
        self.cpus[cur].state.el = El::El0;
        self.cpus[cur].state.sp_el0 = USER_STACK_TOP - 2 * PAGE_SIZE;
        self.cpus[cur].state.pc = entry;
        self.cpus[cur].state.gprs[0] = iterations;
        self.cpus[cur].state.gprs[1] = nr;
        self.cpus[cur].state.gprs[2] = arg0;

        let c0 = self.cpus[cur].cycles();
        let i0 = self.cpus[cur].stats().instructions;
        let mut syscalls = 0u64;
        // Same hang-backstop shape as kexec: instruction-denominated
        // budget, call count as the secondary bound.
        for _ in 0..RUN_BUDGET {
            if self.cpus[cur].stats().instructions - i0 >= RUN_BUDGET {
                break;
            }
            match self.cpus[cur].run_block(&mut self.mem)? {
                Step::BrkTrap { imm } => match imm {
                    x if x == upcall::SYSCALL => {
                        self.dispatch_syscall()?;
                        syscalls += 1;
                    }
                    x if x == upcall::USER_DONE => {
                        return Ok(ExecOutcome {
                            x0: self.cpus[cur].state.gprs[0],
                            cycles: self.cpus[cur].cycles() - c0,
                            instructions: self.cpus[cur].stats().instructions - i0,
                            fault: None,
                            syscalls,
                        });
                    }
                    x if x == upcall::EL1_FAULT => {
                        let info = self.note_kernel_fault()?;
                        return Ok(ExecOutcome {
                            x0: self.cpus[cur].state.gprs[0],
                            cycles: self.cpus[cur].cycles() - c0,
                            instructions: self.cpus[cur].stats().instructions - i0,
                            fault: Some(info),
                            syscalls,
                        });
                    }
                    x if x == upcall::EL0_FAULT => {
                        let tid = self.current_tid();
                        self.events.push(KernelEvent::TaskKilled { tid });
                        self.kill_task(tid);
                        let far = self.cpus[cur].state.sysreg(SysReg::FarEl1);
                        let elr = self.cpus[cur].state.sysreg(SysReg::ElrEl1);
                        return Ok(ExecOutcome {
                            x0: self.cpus[cur].state.gprs[0],
                            cycles: self.cpus[cur].cycles() - c0,
                            instructions: self.cpus[cur].stats().instructions - i0,
                            fault: Some(FaultInfo {
                                far,
                                elr,
                                pac_failure: looks_like_pac_failure(far, true),
                            }),
                            syscalls,
                        });
                    }
                    x if x == upcall::IRQ => {
                        self.cpus[cur].return_from_exception();
                    }
                    _ => {
                        return Err(KernelError::Cpu(CpuError::TimedOut { steps: 0 }));
                    }
                },
                _ => continue,
            }
        }
        Err(KernelError::Hung)
    }

    /// One complete syscall round-trip from the current task.
    pub fn syscall(&mut self, nr: u64, arg0: u64) -> Result<ExecOutcome, KernelError> {
        let tid = self.current_tid();
        self.run_user(tid, "stub", 1, nr, arg0)
    }

    /// The `SYSCALL` upcall: read the number from `pt_regs`, apply
    /// host-side semantics, and redirect the PC into the syscall body with
    /// the return glue as LR.
    fn dispatch_syscall(&mut self) -> Result<(), KernelError> {
        let cur = self.cur_cpu;
        let sp = self.cpus[cur].state.sp_el1;
        let kctx = self.cpus[cur].translation_ctx();
        let nr = self
            .mem
            .read_u64(&kctx, sp + u64::from(PT_X8))
            .expect("pt_regs mapped");
        let a0 = self.mem.read_u64(&kctx, sp).expect("pt_regs mapped");
        let a1 = self.mem.read_u64(&kctx, sp + 8).expect("pt_regs mapped");
        let a2 = self.mem.read_u64(&kctx, sp + 16).expect("pt_regs mapped");

        let Some(spec) = syscall_by_nr(nr) else {
            // -ENOSYS; straight to the exit path.
            self.mem
                .write_u64(&mut kctx.clone(), sp, (-38i64) as u64)
                .expect("pt_regs mapped");
            self.cpus[cur].state.pc = self.hot.ret_to_user;
            return Ok(());
        };

        // Host-side semantics (the parts of the C kernel outside the
        // measured instruction paths).
        let default_file = self.files.get(3).unwrap_or(0);
        let (body_args, ret): ([u64; 3], u64) = match spec.name {
            "getpid" => ([0, 0, 0], u64::from(self.current_tid())),
            "read" | "write" => {
                let file = self.files.get(a0).unwrap_or(default_file);
                ([file, a1, a2], a2)
            }
            "fstat" | "select" => {
                let file = self.files.get(a0).unwrap_or(default_file);
                ([file, a1, a2], 0)
            }
            "open_close" => {
                // open + close: the fd number is consumed and its slot
                // freed at once. The body signs `f_ops` into the slot
                // before any later allocation can hand it out again.
                let file = self.alloc_file_raw()?;
                let fd = self.files.insert(file);
                self.close_fd(fd);
                ([file, FileKind::DevZero.ops_va(), 0], fd)
            }
            _ => ([default_file, a1, a2], 0),
        };
        self.mem
            .write_u64(&mut kctx.clone(), sp, ret)
            .expect("pt_regs mapped");
        self.cpus[cur].state.gprs[0] = body_args[0];
        self.cpus[cur].state.gprs[1] = body_args[1];
        self.cpus[cur].state.gprs[2] = body_args[2];
        self.cpus[cur]
            .state
            .write(Reg::LR, self.hot.syscall_ret_glue);
        self.cpus[cur].state.pc = self
            .hot
            .sys_bodies
            .iter()
            .find(|&&(n, _)| n == nr)
            .map(|&(_, va)| va)
            .expect("spec came from the same table");
        Ok(())
    }

    /// Allocates a file *without* signing (the open syscall body performs
    /// the `set_file_ops` signing itself; §5.3): a closed file's slot if
    /// any, otherwise a never-used one. A live file's slot is never
    /// handed out.
    fn alloc_file_raw(&mut self) -> Result<u64, KernelError> {
        let slot = match self.free_file_slots.pop() {
            Some(slot) => slot,
            None if self.next_file_slot < FILE_SLOTS => {
                self.next_file_slot += 1;
                self.next_file_slot - 1
            }
            None => return Err(KernelError::FileHeapExhausted),
        };
        let va = file_heap_base() + slot * file_struct::SIZE;
        let kctx = self.mem.kernel_ctx(self.kernel_table);
        self.mem
            .write_u64(&kctx, va + u64::from(file_struct::FLAGS), 1)
            .expect("file heap mapped");
        Ok(va)
    }
}

/// Base of the file-object heap page.
pub fn file_heap_base() -> u64 {
    layout::KDATA_BASE + 0x10_0000
}

/// Base of the work-item heap page.
pub fn work_heap_base() -> u64 {
    layout::KDATA_BASE + 0x20_0000
}

#[cfg(test)]
mod tests {
    use super::*;

    fn booted(level: ProtectionLevel) -> Kernel {
        Kernel::boot(KernelConfig::with_protection(level)).expect("boot")
    }

    #[test]
    fn boots_at_all_protection_levels() {
        for level in ProtectionLevel::ALL {
            let k = booted(level);
            assert_eq!(k.tasks().count(), 1, "{level}: init task");
            assert_eq!(k.pac_failures(), 0, "{level}");
        }
    }

    #[test]
    fn kernel_keys_are_installed_by_running_the_setter() {
        let k = booted(ProtectionLevel::Full);
        // The CPU's IB key registers now hold the boot keys...
        let ib = k.cpu().state.pauth_key(camo_isa::PauthKey::IB);
        assert_ne!(ib, QarmaKey::new(0, 0));
        // ...and they were written by MSRs, not host pokes.
        assert!(k.cpu().stats().key_writes >= 6);
    }

    #[test]
    fn baseline_kernel_never_touches_key_registers() {
        let k = booted(ProtectionLevel::None);
        assert_eq!(k.cpu().stats().key_writes, 0);
    }

    #[test]
    fn getpid_round_trip() {
        let mut k = booted(ProtectionLevel::Full);
        let out = k.syscall(172, 0).expect("syscall");
        assert_eq!(out.x0, 0, "init's tid");
        assert_eq!(out.syscalls, 1);
        assert!(out.fault.is_none());
        assert!(out.cycles > 100, "a syscall costs real cycles");
    }

    #[test]
    fn read_dispatches_through_authenticated_f_ops() {
        let mut k = booted(ProtectionLevel::Full);
        let auth_before = k.cpu().stats().pac_auth_ok;
        let out = k.syscall(63, 3).expect("read");
        assert!(out.fault.is_none());
        // The user stub leaves x2 = arg0, and read returns its length
        // argument (a2), so the syscall result echoes arg0.
        assert_eq!(out.x0, 3);
        assert!(
            k.cpu().stats().pac_auth_ok > auth_before,
            "f_ops was authenticated"
        );
    }

    #[test]
    fn protected_syscall_costs_more_than_baseline() {
        let mut base = booted(ProtectionLevel::None);
        let mut full = booted(ProtectionLevel::Full);
        let b = base.syscall(172, 0).unwrap().cycles;
        let f = full.syscall(172, 0).unwrap().cycles;
        assert!(f > b, "full protection must cost more ({f} vs {b} cycles)");
        // Double-digit percentage on a null syscall (Figure 3's shape).
        assert!(f * 100 > b * 110, "expected >10% overhead, got {f}/{b}");
    }

    #[test]
    fn context_switch_signs_and_verifies_sp() {
        let mut k = booted(ProtectionLevel::Full);
        let a = k.spawn("a").unwrap();
        let b = k.spawn("b").unwrap();
        let auth0 = k.cpu().stats().pac_auth_ok;
        let out = k.context_switch(a, b).expect("switch");
        assert!(out.fault.is_none());
        assert!(k.cpu().stats().pac_auth_ok > auth0, "SP was authenticated");
        assert_eq!(k.current_task().tid, b);
        // And back.
        let out = k.context_switch(b, a).expect("switch back");
        assert!(out.fault.is_none());
        assert_eq!(k.current_task().tid, a);
    }

    #[test]
    fn work_item_round_trip() {
        let mut k = booted(ProtectionLevel::Full);
        let work = k.init_work("dev_poll").expect("init_work");
        let out = k.run_work(work).expect("run_work");
        assert!(out.fault.is_none());
    }

    #[test]
    fn forged_work_pointer_is_caught() {
        let mut k = booted(ProtectionLevel::Full);
        let work = k.init_work("dev_poll").expect("init_work");
        // Attacker overwrites the signed callback with a raw pointer.
        let target = k.symbol("dev_read");
        let kctx = k.mem().kernel_ctx(k.kernel_table());
        let slot = work + u64::from(layout::work_struct::FUNC);
        k.mem_mut().write_u64(&kctx, slot, target).unwrap();
        let out = k.run_work(work).expect("no panic yet");
        let fault = out.fault.expect("authentication must fail");
        assert!(fault.pac_failure, "fault carries the PAC signature");
        assert_eq!(k.pac_failures(), 1);
    }

    #[test]
    fn pac_panic_threshold_halts_the_kernel() {
        let mut cfg = KernelConfig::with_protection(ProtectionLevel::Full);
        cfg.pac_panic_threshold = 3;
        let mut k = Kernel::boot(cfg).expect("boot");
        let target = k.symbol("dev_read");
        for attempt in 0..3 {
            let work = k.init_work("dev_poll").expect("init_work");
            let kctx = k.mem().kernel_ctx(k.kernel_table());
            let slot = work + u64::from(layout::work_struct::FUNC);
            k.mem_mut().write_u64(&kctx, slot, target).unwrap();
            match k.run_work(work) {
                Ok(out) => {
                    assert!(attempt < 2, "third failure must panic");
                    assert!(out.fault.expect("fault").pac_failure);
                }
                Err(KernelError::PacPanic { failures }) => {
                    assert_eq!(attempt, 2);
                    assert_eq!(failures, 3);
                    return;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        panic!("panic threshold never tripped");
    }

    #[test]
    fn module_with_key_read_is_rejected() {
        let mut k = booted(ProtectionLevel::Full);
        let cfg = k.codegen_config();
        let mut p = Program::new(cfg);
        let mut evil = camo_codegen::FunctionBuilder::new("evil_init", cfg);
        evil.ins(camo_isa::Insn::Mrs {
            rt: Reg::x(0),
            sr: SysReg::ApibKeyLoEl1,
        });
        p.push(evil.build());
        let err = k
            .load_module(p, &StaticPointerTable::new())
            .expect_err("must be rejected");
        match err {
            KernelError::ModuleRejected { violations } => {
                assert_eq!(violations.len(), 1);
                assert!(violations[0].contains("apibkeylo_el1"));
            }
            e => panic!("unexpected error {e}"),
        }
        assert!(matches!(
            k.events().last(),
            Some(KernelEvent::ModuleRejected { violations: 1 })
        ));
    }

    #[test]
    fn clean_module_loads_and_runs() {
        let mut k = booted(ProtectionLevel::Full);
        let cfg = k.codegen_config();
        let mut p = Program::new(cfg);
        let mut f = camo_codegen::FunctionBuilder::new("mod_entry", cfg).locals(32);
        f.ins(camo_isa::Insn::AddImm {
            rd: Reg::x(0),
            rn: Reg::x(0),
            imm12: 1,
            shifted: false,
        });
        p.push(f.build());
        let handle = k
            .load_module(p, &StaticPointerTable::new())
            .expect("clean module loads");
        let entry = handle.image.symbol("mod_entry").unwrap();
        let out = k.kexec(entry, &[41]).expect("module code runs");
        assert_eq!(out.x0, 42);
        assert!(out.fault.is_none());
    }

    #[test]
    fn exited_tids_are_recycled() {
        let mut k = booted(ProtectionLevel::Full);
        let a = k.spawn("a").unwrap();
        assert!(k.run_user(a, "stub", 1, 172, 0).unwrap().fault.is_none());
        k.exit_task(a).expect("graceful exit");
        assert!(
            k.tasks().all(|t| t.tid != a),
            "exited task leaves no entry behind"
        );
        assert!(matches!(
            k.run_user(a, "stub", 1, 172, 0),
            Err(KernelError::BadTask(_))
        ));
        // The next fork reuses the tid (bounded stack/task-struct VA), and
        // the recycled task is fully functional with fresh user keys.
        let b = k.spawn("b").unwrap();
        assert_eq!(b, a, "tid recycled LIFO");
        let out = k.run_user(b, "stub", 2, 63, 3).unwrap();
        assert!(out.fault.is_none());
        assert_eq!(out.syscalls, 2);
    }

    #[test]
    fn exit_task_refuses_init_and_the_dead() {
        let mut k = booted(ProtectionLevel::Full);
        assert!(matches!(k.exit_task(0), Err(KernelError::BadTask(0))));
        let a = k.spawn("a").unwrap();
        k.exit_task(a).unwrap();
        assert!(matches!(k.exit_task(a), Err(KernelError::BadTask(_))));
    }

    #[test]
    fn fork_exit_storm_stays_in_bounded_va() {
        // 200 spawn/exit cycles would blow through the 64-entry stack
        // stride region without tid recycling.
        let mut k = booted(ProtectionLevel::Full);
        for round in 0..200 {
            let tid = k.spawn(&format!("churn-{round}")).unwrap();
            assert!(tid < 4, "recycling keeps the tid space dense, got {tid}");
            let out = k.run_user(tid, "stub", 1, 172, 0).unwrap();
            assert_eq!(out.x0, u64::from(tid), "getpid sees the recycled tid");
            k.exit_task(tid).unwrap();
        }
    }

    #[test]
    fn kill_reap_storm_recycles_tids_without_aliasing_live_keys() {
        // An adversarial churn: every round spawns two tasks, one dies
        // under the §5.4 policy (forged saved SP caught on the switch
        // path) and is reaped, the other exits gracefully. Sixty rounds
        // would burn 120 fresh tids — and blow past the 64-entry stack
        // stride region — without recycling through both the exit and the
        // reap paths; and a recycled tid must never resurrect a live
        // task's PAC keys.
        let mut cfg = KernelConfig::default();
        cfg.pac_panic_threshold = u32::MAX; // the storm dwarfs any sane threshold
        let mut k = Kernel::boot(cfg).expect("boot");
        let anchor = k.spawn("anchor").unwrap();
        let anchor_keys = k
            .tasks()
            .find(|t| t.tid == anchor)
            .map(|t| t.user_keys)
            .unwrap();
        let mut drained = Vec::new();
        k.take_events(&mut drained);
        for round in 0..60 {
            let victim = k.spawn(&format!("victim-{round}")).unwrap();
            let target = k.spawn(&format!("target-{round}")).unwrap();
            // Dense tid space: init + anchor + two churn slots.
            assert!(
                victim < 4 && target < 4,
                "round {round}: recycling failed, got tids {victim}/{target}"
            );
            // Both VA strides derive from the tid and stay inside the
            // fixed regions.
            for tid in [victim, target] {
                let top = layout::stack_top(tid);
                assert!(
                    (layout::STACKS_BASE
                        ..layout::STACKS_BASE + 4 * layout::STACK_STRIDE + layout::STACK_SIZE)
                        .contains(&top),
                    "round {round}: stack stride escaped the region"
                );
            }
            // Fresh keys per spawn: no live task pair shares a user key.
            let live: Vec<_> = k
                .tasks()
                .filter(|t| t.alive && t.tid != 0)
                .map(|t| (t.tid, t.user_keys))
                .collect();
            for (i, (ta, ka)) in live.iter().enumerate() {
                for (tb, kb) in &live[i + 1..] {
                    assert!(
                        ka.iter().zip(kb.iter()).all(|(a, b)| a != b),
                        "round {round}: tasks {ta} and {tb} alias a user PAC key"
                    );
                }
            }
            // Forge the target's saved SP; the switch path authenticates
            // it and the §5.4 policy kills the current (victim) task.
            let kctx = k.mem().kernel_ctx(k.kernel_table());
            let slot = layout::task_struct_va(target) + u64::from(task_struct::SAVED_SP);
            k.mem_mut()
                .write_u64(&kctx, slot, layout::stack_top(target) - 512)
                .unwrap();
            let entry = k.run_user(victim, "stub", 1, 172, 0).unwrap();
            assert!(entry.fault.is_none(), "round {round}: benign entry faulted");
            let switch = k.context_switch(victim, target).unwrap();
            assert!(
                switch.fault.is_some_and(|f| f.pac_failure),
                "round {round}: forged SP escaped authentication"
            );
            // The kill leaves a dead entry for forensics; reap recycles it.
            assert!(
                k.tasks().any(|t| t.tid == victim && !t.alive),
                "round {round}: killed task gone before reap"
            );
            k.reap_task(victim).unwrap();
            k.exit_task(target).unwrap();
            k.take_events(&mut drained);
            assert_eq!(
                drained
                    .drain(..)
                    .map(|e| match e {
                        KernelEvent::PacFailure { tid, .. } => ("pac", tid),
                        KernelEvent::TaskKilled { tid } => ("killed", tid),
                        KernelEvent::TaskReaped { tid } => ("reaped", tid),
                        KernelEvent::TaskExited { tid } => ("exited", tid),
                        other => panic!("round {round}: unexpected event {other:?}"),
                    })
                    .collect::<Vec<_>>(),
                vec![
                    ("pac", victim),
                    ("killed", victim),
                    ("reaped", victim),
                    ("exited", target)
                ],
                "round {round}: the storm must produce exactly one kill"
            );
        }
        // The long-lived anchor survived sixty kill/reap rounds with its
        // keys intact and its kernel entry path clean.
        let survivor = k.tasks().find(|t| t.tid == anchor).expect("anchor lives");
        assert!(survivor.alive);
        assert_eq!(survivor.user_keys, anchor_keys, "anchor keys untouched");
        let out = k.run_user(anchor, "stub", 1, 172, 0).unwrap();
        assert!(out.fault.is_none());
        assert_eq!(out.x0, u64::from(anchor), "getpid sees the anchor tid");
    }

    fn tiny_module(k: &Kernel, name: &str) -> Program {
        let cfg = k.codegen_config();
        let mut p = Program::new(cfg);
        let mut f = camo_codegen::FunctionBuilder::new(name, cfg).locals(32);
        f.ins(camo_isa::Insn::AddImm {
            rd: Reg::x(0),
            rn: Reg::x(0),
            imm12: 2,
            shifted: false,
        });
        p.push(f.build());
        p
    }

    #[test]
    fn unloaded_module_slot_is_reused_and_unmapped() {
        let mut k = booted(ProtectionLevel::Full);
        let p = tiny_module(&k, "gen0_init");
        let first = k.load_module(p, &StaticPointerTable::new()).unwrap();
        k.unload_module(first.base_va).expect("unload");
        assert!(k.modules().is_empty());
        assert!(
            k.mem()
                .table(k.kernel_table())
                .lookup(first.base_va)
                .is_none(),
            "module text must be unmapped after unload"
        );
        assert!(matches!(
            k.events().last(),
            Some(KernelEvent::ModuleUnloaded { .. })
        ));
        // The slot comes back: the next load lands at the same base.
        let p = tiny_module(&k, "gen1_init");
        let second = k.load_module(p, &StaticPointerTable::new()).unwrap();
        assert_eq!(second.base_va, first.base_va, "slot recycled");
        let entry = second.image.symbol("gen1_init").unwrap();
        assert_eq!(k.kexec(entry, &[40]).unwrap().x0, 42);
    }

    #[test]
    fn unload_module_kills_cached_blocks_mid_run() {
        // The block engine is on by default: running a module's entry
        // caches its translated blocks. Unloading must make those blocks
        // unreachable — the next fetch of the old VA faults — and a fresh
        // module at the recycled base must execute its *own* code, never
        // the stale translation.
        let mut k = booted(ProtectionLevel::Full);
        assert!(k.config().block_engine);
        assert!(k.config().trace_engine);
        let p = tiny_module(&k, "gen0_init"); // +2 per call
        let first = k.load_module(p, &StaticPointerTable::new()).unwrap();
        let entry = first.image.symbol("gen0_init").unwrap();
        for round in 0..4 {
            assert_eq!(k.kexec(entry, &[round]).unwrap().x0, round + 2);
        }
        k.unload_module(first.base_va).expect("unload");
        // The cached block must not resurrect unloaded text: fetching the
        // old entry VA now takes a translation fault into the kernel.
        let out = k.kexec(entry, &[0]).expect("vectored, not fatal");
        let fault = out.fault.expect("unloaded text must not execute");
        assert!(!fault.pac_failure, "plain translation fault, not PAC");
        // A different module recycles the slot at the same base VA; its
        // entry runs *its* code (+1), not the stale +2 translation.
        let cfg = k.codegen_config();
        let mut p = Program::new(cfg);
        let mut f = camo_codegen::FunctionBuilder::new("gen1_init", cfg).locals(32);
        f.ins(camo_isa::Insn::AddImm {
            rd: Reg::x(0),
            rn: Reg::x(0),
            imm12: 1,
            shifted: false,
        });
        p.push(f.build());
        let second = k.load_module(p, &StaticPointerTable::new()).unwrap();
        assert_eq!(second.base_va, first.base_va, "slot recycled");
        let entry2 = second.image.symbol("gen1_init").unwrap();
        assert_eq!(k.kexec(entry2, &[10]).unwrap().x0, 11);
    }

    #[test]
    fn take_events_reuses_buffers_across_ops() {
        let mut k = booted(ProtectionLevel::Full);
        let mut buf = Vec::new();
        k.take_events(&mut buf);
        let boot_events = buf.len();
        let tid = k.spawn("w").unwrap();
        k.exit_task(tid).unwrap();
        k.take_events(&mut buf);
        assert!(
            buf.iter()
                .any(|e| matches!(e, KernelEvent::TaskExited { .. })),
            "events since the last take are delivered"
        );
        assert!(k.events().is_empty(), "kernel buffer drained");
        let cap = buf.capacity();
        // A second take-and-clear round reuses both allocations.
        let tid = k.spawn("w2").unwrap();
        k.exit_task(tid).unwrap();
        k.take_events(&mut buf);
        assert!(buf.capacity() >= 1 && buf.capacity() <= cap.max(4));
        assert_eq!(buf.len(), 1, "only the new events, not {boot_events}");
    }

    #[test]
    fn unload_of_unknown_base_is_an_error() {
        let mut k = booted(ProtectionLevel::Full);
        assert!(k.unload_module(layout::MODULES_BASE).is_err());
    }

    #[test]
    fn module_churn_stays_in_bounded_va() {
        let mut k = booted(ProtectionLevel::Full);
        let mut last = None;
        for round in 0..32 {
            let p = tiny_module(&k, &format!("churn{round}_init"));
            let h = k.load_module(p, &StaticPointerTable::new()).unwrap();
            if let Some(prev) = last {
                assert_eq!(h.base_va, prev, "load/unload churn reuses one slot");
            }
            last = Some(h.base_va);
            k.unload_module(h.base_va).unwrap();
        }
    }

    /// Live frames and live stage-1 tables.
    fn footprint(k: &Kernel) -> (usize, usize) {
        (k.mem().phys().frame_count(), k.mem().table_count())
    }

    /// Runs `round` 200 times and checks the footprint after every round
    /// equals the footprint after the first.
    fn assert_flat_storm(k: &mut Kernel, what: &str, mut round: impl FnMut(&mut Kernel, u32)) {
        round(k, 0);
        let settled = footprint(k);
        for i in 1..200 {
            round(k, i);
            assert_eq!(footprint(k), settled, "{what}: round {i} grew memory");
        }
    }

    #[test]
    fn spawn_exit_storm_keeps_frames_and_tables_flat() {
        let mut k = booted(ProtectionLevel::Full);
        assert_flat_storm(&mut k, "spawn/exit", |k, i| {
            let tid = k.spawn(&format!("churn-{i}")).unwrap();
            assert!(k.run_user(tid, "stub", 1, 172, 0).unwrap().fault.is_none());
            k.exit_task(tid).unwrap();
        });
    }

    #[test]
    fn spawn_kill_reap_storm_keeps_frames_and_tables_flat() {
        let mut cfg = KernelConfig::default();
        cfg.pac_panic_threshold = u32::MAX;
        let mut k = Kernel::boot(cfg).expect("boot");
        assert_flat_storm(&mut k, "spawn/kill/reap", |k, i| {
            let victim = k.spawn(&format!("victim-{i}")).unwrap();
            let target = k.spawn(&format!("target-{i}")).unwrap();
            let kctx = k.mem().kernel_ctx(k.kernel_table());
            let slot = layout::task_struct_va(target) + u64::from(task_struct::SAVED_SP);
            k.mem_mut()
                .write_u64(&kctx, slot, layout::stack_top(target) - 512)
                .unwrap();
            assert!(k
                .run_user(victim, "stub", 1, 172, 0)
                .unwrap()
                .fault
                .is_none());
            let switch = k.context_switch(victim, target).unwrap();
            assert!(switch.fault.is_some_and(|f| f.pac_failure), "round {i}");
            k.reap_task(victim).unwrap();
            k.exit_task(target).unwrap();
        });
    }

    #[test]
    fn module_load_unload_storm_keeps_frames_and_tables_flat() {
        let mut k = booted(ProtectionLevel::Full);
        assert_flat_storm(&mut k, "module load/unload", |k, i| {
            let p = tiny_module(k, &format!("churn{i}_init"));
            let h = k.load_module(p, &StaticPointerTable::new()).unwrap();
            let entry = h.image.symbol(&format!("churn{i}_init")).unwrap();
            assert_eq!(
                k.kexec(entry, &[u64::from(i)]).unwrap().x0,
                u64::from(i) + 2
            );
            k.unload_module(h.base_va).unwrap();
        });
    }

    #[test]
    fn module_reloaded_onto_the_same_va_and_pa_runs_its_new_body_on_every_tier() {
        // (fast caches, blocks, traces): uncached step, cached step,
        // blocks, traces. Enough calls to promote the body into a trace.
        let calls = 3 * u64::from(camo_cpu::trace::HOT_THRESHOLD);
        let tiers = [
            (false, false, false),
            (true, false, false),
            (true, true, false),
            (true, true, true),
        ];
        for (fast_caches, block_engine, trace_engine) in tiers {
            let mut cfg = KernelConfig::default();
            cfg.fast_caches = fast_caches;
            cfg.block_engine = block_engine;
            cfg.trace_engine = trace_engine;
            let mut k = Kernel::boot(cfg).expect("boot");
            let tier = format!("caches={fast_caches} blocks={block_engine} traces={trace_engine}");
            let old = k
                .load_module(tiny_module(&k, "body_init"), &StaticPointerTable::new())
                .unwrap();
            let text_pa = |k: &Kernel, va: u64| {
                k.mem()
                    .table(k.kernel_table())
                    .lookup(va)
                    .map(|e| e.frame)
                    .expect("module text mapped")
            };
            let old_frame = text_pa(&k, old.base_va);
            let entry = old.image.symbol("body_init").unwrap();
            for n in 0..calls {
                assert_eq!(k.kexec(entry, &[n]).unwrap().x0, n + 2, "{tier}");
            }
            k.unload_module(old.base_va).unwrap();
            // Same name and size, different body: +1 instead of +2.
            let cfg = k.codegen_config();
            let mut p = Program::new(cfg);
            let mut f = camo_codegen::FunctionBuilder::new("body_init", cfg).locals(32);
            f.ins(camo_isa::Insn::AddImm {
                rd: Reg::x(0),
                rn: Reg::x(0),
                imm12: 1,
                shifted: false,
            });
            p.push(f.build());
            let new = k.load_module(p, &StaticPointerTable::new()).unwrap();
            assert_eq!(new.base_va, old.base_va, "{tier}: same VA");
            assert_eq!(text_pa(&k, new.base_va), old_frame, "{tier}: same PA");
            assert_eq!(new.image.symbol("body_init").unwrap(), entry);
            for n in 0..calls {
                assert_eq!(k.kexec(entry, &[n]).unwrap().x0, n + 1, "{tier}");
            }
        }
    }

    #[test]
    fn open_close_storm_reuses_file_slots() {
        // Far more opens than the heap has slots: each open_close frees
        // its slot, and the long-lived fd 3 keeps authenticating.
        let mut k = booted(ProtectionLevel::Full);
        let mut last_fd = 0;
        for _ in 0..2 * FILE_SLOTS {
            let out = k.syscall(56, 0).unwrap();
            assert!(out.fault.is_none());
            assert!(out.x0 > last_fd, "fd numbers are never reused");
            last_fd = out.x0;
        }
        let out = k.syscall(63, 3).unwrap();
        assert!(out.fault.is_none());
        assert_eq!(k.pac_failures(), 0);
    }

    #[test]
    fn a_full_file_heap_is_an_error_never_an_alias() {
        let mut k = booted(ProtectionLevel::Full);
        let mut live = std::collections::HashSet::new();
        live.insert(k.file_of_fd(3).unwrap());
        let err = loop {
            match k.open_file(FileKind::DevNull) {
                Ok((_, va)) => assert!(live.insert(va), "slot {va:#x} handed out twice"),
                Err(e) => break e,
            }
        };
        assert_eq!(err, KernelError::FileHeapExhausted);
        assert_eq!(live.len() as u64, FILE_SLOTS);
        // Closing one fd makes exactly its slot available again.
        let va = k.close_fd(4).expect("fd 4 is open");
        assert_eq!(k.open_file(FileKind::Pipe).unwrap().1, va);
        assert_eq!(k.close_fd(4), None, "already closed");
    }
}
