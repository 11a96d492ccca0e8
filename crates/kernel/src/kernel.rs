//! The kernel proper: configuration, boot, process creation and the run
//! loop.
//!
//! A [`Kernel`] owns the [`Machine`]. Every structure the crash kernel later
//! needs is written through to simulated physical memory ([`crate::layout`]);
//! the host-side [`ProcHandle`]s hold only addresses, caches and the program
//! objects (which are themselves reconstructible from memory — see
//! [`crate::program`]).

use crate::{
    error::KernelError,
    fs::Fs,
    kheap::KHeap,
    layout::{
        self, FileTable, HandoffBlock, KernelHeader, ProcDesc, SigTable, VmaDesc, HANDOFF_FRAMES,
        IDT_MAGIC, MAX_FDS, NSIG,
    },
    program::{Program, ProgramRegistry, StepResult, PROG_STATE_VADDR},
    swap::SwapArea,
    syscall::KernelApi,
    term::TermHandle,
    KernelResult,
};
use ow_layout::Record;
use ow_simhw::{
    clock::CYCLES_PER_SEC,
    machine::{FrameOwner, Machine},
    paging::VA_LIMIT,
    AddressSpace, FrameAllocator, Pfn, PhysAddr, PAGE_SIZE,
};
use ow_trace::{Counter, EventKind, Histogram, PanicStep, TraceRing};
use std::collections::VecDeque;

/// Cycle costs of the boot phases (Table 6's time model).
#[derive(Debug, Clone)]
pub struct BootCosts {
    /// BIOS + boot loader (cold boot only; the crash kernel skips it, §6).
    pub bios: u64,
    /// Hardware detection.
    pub hw_detect: u64,
    /// Per-device driver initialization.
    pub driver_init_per_device: u64,
    /// Filesystem mount (or format on first boot).
    pub fs_mount: u64,
    /// Swap-area initialization.
    pub swap_init: u64,
    /// Base system services (init scripts up to a usable shell).
    pub services: u64,
}

impl Default for BootCosts {
    fn default() -> Self {
        // At CYCLES_PER_SEC = 1 GHz these yield a cold boot of around a
        // minute, matching the magnitude of the paper's Table 6.
        BootCosts {
            bios: 11 * CYCLES_PER_SEC,
            hw_detect: 17 * CYCLES_PER_SEC,
            driver_init_per_device: 4 * CYCLES_PER_SEC,
            fs_mount: 7 * CYCLES_PER_SEC,
            swap_init: 2 * CYCLES_PER_SEC,
            services: 15 * CYCLES_PER_SEC,
        }
    }
}

/// Charges one boot phase to the clock and logs it, part by part. When
/// `probe` names a validation probe, the parts are discounted instead: one
/// entry under that name costing an eighth of each part. The eighth is an
/// assumed figure, not modeled work.
fn boot_phase(
    machine: &mut Machine,
    log: &mut Vec<(String, u64)>,
    parts: &[(&str, u64)],
    probe: Option<&str>,
) {
    let mut charge = |name: &str, cycles: u64| {
        machine.clock.charge(cycles);
        log.push((name.to_string(), cycles));
    };
    match probe {
        Some(name) => charge(name, parts.iter().map(|&(_, cycles)| cycles / 8).sum()),
        None => {
            for &(name, cycles) in parts {
                charge(name, cycles);
            }
        }
    }
}

/// The incremental robustness fixes of §6 that raised the successful
/// resurrection rate from 89% to 97%+. All enabled by default; the ablation
/// benchmark disables them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RobustnessFixes {
    /// Watchdog-timer NMI on stall detection (hangs become microreboots).
    pub watchdog_nmi: bool,
    /// Fixed double-fault handler (KDump originally stopped the system).
    pub doublefault_handler: bool,
    /// KDump hardening: no recursion while printing the stack, no reliance
    /// on the validity of the current process descriptor.
    pub kdump_hardening: bool,
}

impl Default for RobustnessFixes {
    fn default() -> Self {
        RobustnessFixes {
            watchdog_nmi: true,
            doublefault_handler: true,
            kdump_hardening: true,
        }
    }
}

impl RobustnessFixes {
    /// The pre-fix configuration (the paper's first 89% result).
    pub fn legacy() -> Self {
        RobustnessFixes {
            watchdog_nmi: false,
            doublefault_handler: false,
            kdump_hardening: false,
        }
    }
}

/// Kernel configuration.
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// Kernel build version.
    pub version: u32,
    /// Frames for the kernel's own region (header + heap).
    pub kernel_frames: u64,
    /// Frames reserved for the crash kernel (the paper used 64 MB; scaled).
    pub crash_frames: u64,
    /// Enable the memory-protected mode (§4): user space unmapped during
    /// kernel execution, page-table switch + TLB flush on every syscall.
    pub user_protection: bool,
    /// Robustness fixes (§6).
    pub fixes: RobustnessFixes,
    /// Boot phase costs.
    pub boot_costs: BootCosts,
    /// §7 future-work optimization: the crash kernel skips hardware
    /// detection and full driver re-initialization by exploiting the device
    /// information of the crashed main kernel ("the exact hardware
    /// configuration information is known by the time of a crash"). Only a
    /// short validation probe is paid. Shrinks Table 6's interruption time.
    pub fast_crash_boot: bool,
    /// §4 hardening: maintain a checksum over every process descriptor so
    /// corruption of resurrection-critical state cannot go undetected. Adds
    /// runtime overhead on every descriptor update.
    pub desc_checksums: bool,
    /// Frames reserved at the very top of RAM for the `ow-trace` flight
    /// recorder (header + record ring). 0 disables tracing; the region
    /// survives panics and morphing, like pstore/ramoops.
    pub trace_frames: u64,
    /// Syscall-count cadence of the epoch-checkpoint writer: every N
    /// completed syscalls the kernel seals the resurrection-critical
    /// record set (the <80 KB Table 4 state) into the reserved region
    /// next to the trace ring, and the panic path seals one final epoch
    /// so rollback-in-place can resume the same generation without
    /// replaying anything. 0 disables epoch checkpointing entirely.
    pub checkpoint_interval: u64,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            version: 1,
            kernel_frames: 512, // 2 MiB kernel region
            crash_frames: 1024, // 4 MiB crash reservation
            user_protection: false,
            fixes: RobustnessFixes::default(),
            boot_costs: BootCosts::default(),
            fast_crash_boot: false,
            desc_checksums: false,
            trace_frames: 16, // 64 KiB: 1 header frame + ~1280 record slots
            checkpoint_interval: 32,
        }
    }
}

/// Host-side socket endpoint state (the peer is the workload driver).
#[derive(Debug, Default)]
pub struct SockHandle {
    /// Socket id within the process.
    pub sid: u32,
    /// Address of the in-kernel `SockDesc`.
    pub desc_addr: PhysAddr,
    /// Messages from the remote peer awaiting `sock_recv`.
    pub inbox: VecDeque<Vec<u8>>,
    /// Messages sent by the process awaiting pickup by the driver.
    pub outbox: VecDeque<Vec<u8>>,
    /// Whether the socket is open.
    pub open: bool,
}

/// Run state mirror plus host-side process bookkeeping.
pub struct ProcHandle {
    /// Process id.
    pub pid: u64,
    /// Process name (executable identity).
    pub name: String,
    /// Address of the in-memory [`ProcDesc`].
    pub desc_addr: PhysAddr,
    /// The process address space.
    pub asp: AddressSpace,
    /// The running program (absent briefly while stepping, and permanently
    /// once exited).
    pub program: Option<Box<dyn Program>>,
    /// Mirror of the descriptor's run state.
    pub state: u32,
    /// Step counter == saved program counter.
    pub step: u64,
    /// Deliver [`crate::Errno::Restart`] on the next syscall (set after a
    /// microreboot interrupted an in-flight call, §3.5).
    pub deliver_restart: bool,
    /// Exit code when exited.
    pub exit_code: Option<u64>,
    /// Host-side socket endpoints.
    pub sockets: Vec<SockHandle>,
    /// Resource-failure bitmask from resurrection (0 on a normal process).
    pub resurrection_failures: u32,
}

impl std::fmt::Debug for ProcHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcHandle")
            .field("pid", &self.pid)
            .field("name", &self.name)
            .field("state", &self.state)
            .field("step", &self.step)
            .finish()
    }
}

/// Why the kernel panicked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicCause {
    /// An oops/BUG in kernel code.
    Oops(&'static str),
    /// A double fault (exception while servicing an exception).
    DoubleFault,
    /// A silent stall (infinite loop / lost wakeup); only the watchdog can
    /// turn this into a microreboot.
    Stall,
    /// A panic whose handling itself is sabotaged (stack printing recursion
    /// or a corrupted current-process descriptor) — survivable only with
    /// KDump hardening.
    CorruptedPanicPath,
}

/// Outcome of the panic path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PanicOutcome {
    /// Control was handed to the crash kernel.
    Handoff(HandoffInfo),
    /// The system halted; only a full (cold) reboot recovers it. All
    /// volatile state is lost — this is Table 5's "failure to boot the
    /// crash kernel".
    SystemHalted(&'static str),
}

/// Everything the crash kernel needs to take over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandoffInfo {
    /// Frame of the dead kernel's header.
    pub dead_kernel_frame: Pfn,
    /// First frame of the crash-kernel reservation.
    pub crash_base: Pfn,
    /// Frames in the reservation.
    pub crash_frames: u64,
    /// Microreboot generation of the dead kernel.
    pub generation: u32,
}

/// What a crash-kernel boot may trust of the dead kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashBoot {
    /// Boot for a warm morph: when the dead kernel left a valid
    /// [`layout::WarmSeal`], the sealed CRCs vouch for the state the
    /// hardware, mount, swap and service phases would rebuild, so each
    /// shrinks to a validation probe. Without a valid seal it boots cold.
    Warm,
    /// Boot for a cold morph: every phase runs in full.
    Cold,
    /// Boot a restart-only generation: every phase runs in full, and a
    /// mismatched layout version is tolerated because this kernel never
    /// parses the dead kernel's structures.
    RestartOnly,
}

/// A fault queued by the injector, to manifest at the next opportunity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingFault {
    /// The panic cause it will manifest as.
    pub cause: PanicCause,
    /// Whether it strikes inside a system call (so the call is aborted and
    /// later retried with [`crate::Errno::Restart`]).
    pub in_syscall: bool,
}

/// Events produced by one scheduler step.
#[derive(Debug, PartialEq, Eq)]
pub enum RunEvent {
    /// A process ran one step.
    Stepped(u64),
    /// A process exited.
    Exited(u64, u64),
    /// No runnable process.
    Idle,
    /// The kernel panicked; inspect [`Kernel::panicked`].
    Panicked,
}

/// Specification for spawning a process.
pub struct SpawnSpec {
    /// Process name (executable identity in the [`ProgramRegistry`]).
    pub name: String,
    /// The program to run.
    pub program: Box<dyn Program>,
    /// Anonymous heap pages mapped from [`PROG_STATE_VADDR`].
    pub heap_pages: u64,
    /// Stack pages at the top of the address space.
    pub stack_pages: u64,
    /// Terminal to attach (by id).
    pub term: Option<u32>,
}

impl SpawnSpec {
    /// A spec with reasonable defaults.
    pub fn new(name: &str, program: Box<dyn Program>) -> Self {
        SpawnSpec {
            name: name.to_string(),
            program,
            heap_pages: 64,
            stack_pages: 4,
            term: None,
        }
    }
}

/// The operating system kernel.
pub struct Kernel {
    /// The hardware.
    pub machine: Machine,
    /// Configuration this kernel booted with.
    pub config: KernelConfig,
    /// Program registry (the "on-disk executables").
    pub registry: ProgramRegistry,
    /// First frame of this kernel's region.
    pub base_frame: Pfn,
    /// General-purpose frame allocator (user pages, page tables, cache).
    pub falloc: FrameAllocator,
    /// Kernel heap inside the kernel region.
    pub kheap: KHeap,
    /// Mounted root filesystem.
    pub fs: Fs,
    /// Swap areas (index 0 and 1; `active_swap` selects this kernel's).
    pub swaps: Vec<SwapArea>,
    /// Which swap area this kernel writes to (init scripts choose by
    /// generation parity, §3.2).
    pub active_swap: usize,
    /// Processes.
    pub procs: Vec<ProcHandle>,
    /// Next pid.
    pub next_pid: u64,
    /// Terminals.
    pub terms: Vec<TermHandle>,
    /// Whether this kernel booted as a crash kernel.
    pub is_crash: bool,
    /// Microreboot generation (0 = cold boot).
    pub generation: u32,
    /// Crash-kernel reservation, when loaded.
    pub crash_region: Option<(Pfn, u64)>,
    /// Set once the kernel has panicked.
    pub panicked: Option<PanicOutcome>,
    /// Fault queued by the injector.
    pub pending_fault: Option<PendingFault>,
    /// Boot phases and their cycle costs.
    pub boot_log: Vec<(String, u64)>,
    /// Round-robin scheduling cursor.
    pub sched_cursor: usize,
    /// Page-table switches performed (protection-mode diagnostics).
    pub pt_switches: u64,
    /// Physical address of the terminal table.
    pub term_table_addr: PhysAddr,
    /// Pipes (host handles; descriptors in the in-memory pipe table).
    pub pipes: Vec<crate::ipc::PipeHandle>,
    /// Physical address of the pipe table.
    pub pipe_table_addr: PhysAddr,
    /// The armed flight-recorder ring (`None` when tracing is disabled).
    pub trace: Option<TraceRing>,
    /// Cycle stamp of the most recent syscall entry (inter-arrival and
    /// latency histograms; host-side scratch, not resurrection state).
    pub last_syscall_enter: u64,
    /// Whether this crash kernel booted warm: a valid [`layout::WarmSeal`]
    /// let it charge validation probes instead of full re-initialization.
    pub warm_booted: bool,
    /// First frame of the trace region (host-side mirror of the handoff
    /// block's geometry; the epoch-checkpoint slots sit immediately below).
    pub trace_base: Pfn,
    /// Completed-syscall sequence number (the epoch-checkpoint cadence
    /// counter; also the freshness stamp sealed into every epoch).
    pub syscall_seq: u64,
    /// Monotonic epoch counter of the checkpoint writer (selects the A/B
    /// slot by parity).
    pub ckpt_epoch: u64,
    /// `syscall_seq` at the last sealed epoch (cadence bookkeeping).
    pub last_ckpt_seq: u64,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("base_frame", &self.base_frame)
            .field("generation", &self.generation)
            .field("is_crash", &self.is_crash)
            .field("procs", &self.procs.len())
            .field("panicked", &self.panicked)
            .finish()
    }
}

/// Maximum terminals.
pub const MAX_TERMS: u32 = 8;

impl Kernel {
    /// Physical address of this kernel's header.
    pub fn header_addr(&self) -> PhysAddr {
        self.base_frame * PAGE_SIZE as u64
    }

    /// Cold-boots the system: BIOS, hardware detection, drivers, filesystem
    /// (formatting a blank root device), swap, crash-kernel load.
    ///
    /// The machine must already carry a root device named `"sda"` and two
    /// swap devices `"swap0"` and `"swap1"`.
    pub fn boot_cold(
        machine: Machine,
        config: KernelConfig,
        registry: ProgramRegistry,
    ) -> KernelResult<Kernel> {
        Kernel::boot_common(machine, config, registry, HANDOFF_FRAMES, 0, None).map_err(|(e, _)| e)
    }

    /// Boots the crash kernel inside its reservation after a handoff. Uses
    /// only the reserved region for its own memory (§3.2); skips BIOS.
    /// `kind` says what the boot may trust of the dead kernel. On failure
    /// the [`Machine`] comes back so the caller can try again — the
    /// resurrection supervisor boots a restart-only generation on it.
    pub fn try_boot_crash(
        machine: Machine,
        config: KernelConfig,
        registry: ProgramRegistry,
        handoff: HandoffInfo,
        kind: CrashBoot,
    ) -> Result<Kernel, (KernelError, Box<Machine>)> {
        // First instruction of the crash kernel, so to speak: nothing has
        // been read from the dead kernel yet.
        ow_crashpoint::crash_point!("kernel.crashboot.init.begin");
        Kernel::boot_common(
            machine,
            config,
            registry,
            handoff.crash_base,
            handoff.generation + 1,
            Some(kind),
        )
    }

    /// Shared boot sequence; `crash` is `None` for a cold boot.
    fn boot_common(
        mut machine: Machine,
        config: KernelConfig,
        registry: ProgramRegistry,
        base_frame: Pfn,
        generation: u32,
        crash: Option<CrashBoot>,
    ) -> Result<Kernel, (KernelError, Box<Machine>)> {
        let cold = crash.is_none();
        let mut boot_log = Vec::new();
        let costs = config.boot_costs.clone();

        if cold {
            boot_phase(&mut machine, &mut boot_log, &[("bios", costs.bios)], None);
        }
        // A warm boot needs the dead kernel's seal. The probe checks only
        // its presence and generation; the per-structure CRCs are
        // revalidated by the orchestrator before anything is adopted.
        let warm = crash == Some(CrashBoot::Warm) && Kernel::probe_warm_seal(&machine).is_some();
        // §7 optimization: the dead kernel's hardware inventory is still in
        // memory; a crash kernel may validate it with a short probe instead
        // of re-detecting and re-initializing every device from scratch.
        let ndev = machine.devices().len() as u64;
        boot_phase(
            &mut machine,
            &mut boot_log,
            &[
                ("hw_detect", costs.hw_detect),
                ("drivers", costs.driver_init_per_device * ndev),
            ],
            (!cold && (config.fast_crash_boot || warm)).then_some("hw_validate"),
        );

        // Memory layout for this kernel.
        let total_frames = machine.frames();
        let kernel_end = base_frame + config.kernel_frames;
        if cold {
            machine.set_owner_range(0, HANDOFF_FRAMES, FrameOwner::Handoff);
        }
        machine.set_owner_range(base_frame, config.kernel_frames, FrameOwner::Kernel);

        // General allocator: on a cold boot, everything between the kernel
        // region and the (future) crash reservation; for a crash kernel,
        // only the remainder of its own reservation — resurrection must not
        // step outside it until morphing (§3.3). The trace region sits
        // above everything at the very top of RAM so it survives panics,
        // reboots and morphing without ever being reallocated.
        let (gen_base, gen_end, trace_base, trace_frames) = if cold {
            if config.trace_frames >= total_frames / 4 {
                return Err((
                    KernelError::Inval("trace region too large"),
                    Box::new(machine),
                ));
            }
            let trace_base = total_frames - config.trace_frames;
            // The epoch-checkpoint slots sit between the crash reservation
            // and the trace ring, so they too survive panics and morphing.
            (
                kernel_end,
                trace_base - layout::CKPT_FRAMES - config.crash_frames,
                trace_base,
                config.trace_frames,
            )
        } else {
            let (h, _) = match HandoffBlock::read(&machine.phys) {
                Ok(v) => v,
                Err(e) => return Err((e.into(), Box::new(machine))),
            };
            // A crash kernel of a different layout generation must refuse
            // the handoff: every descriptor it would parse out of the dead
            // kernel's memory could silently mean something else. A
            // restart-only generation-2 crash kernel may tolerate the
            // mismatch — it never parses those descriptors.
            if h.layout_version != layout::LAYOUT_VERSION && crash != Some(CrashBoot::RestartOnly) {
                return Err((
                    KernelError::LayoutGeneration {
                        stored: h.layout_version,
                        expected: layout::LAYOUT_VERSION,
                    },
                    Box::new(machine),
                ));
            }
            // A wild write can leave a CRC-valid block whose reservation
            // runs past RAM; sizing the allocator from it would abort the
            // host instead of failing this boot.
            let Some(crash_end) = h
                .crash_base
                .checked_add(h.crash_frames)
                .filter(|&end| end <= total_frames)
            else {
                return Err((
                    KernelError::Inval("crash reservation outside RAM"),
                    Box::new(machine),
                ));
            };
            (kernel_end, crash_end, h.trace_base, h.trace_frames)
        };
        if gen_base >= gen_end {
            return Err((
                KernelError::Inval("kernel region too large"),
                Box::new(machine),
            ));
        }
        let falloc = FrameAllocator::new(gen_base, (gen_end - gen_base) as usize);

        // Kernel heap occupies the kernel region after the header page,
        // stopping short of the warm-seal region at the top (the panic
        // path writes the seal there with plain stores — it must never
        // collide with a heap allocation).
        if config.kernel_frames <= 1 + layout::SEAL_FRAMES {
            return Err((
                KernelError::Inval("kernel region too small for heap and seal"),
                Box::new(machine),
            ));
        }
        let kheap = KHeap::new(
            (base_frame + 1) * PAGE_SIZE as u64,
            (config.kernel_frames - 1 - layout::SEAL_FRAMES) * PAGE_SIZE as u64,
        );

        // Filesystem: mount, formatting on first cold boot.
        let sda = match machine.device_by_name("sda").map(|d| d.id) {
            Some(id) => id,
            None => return Err((KernelError::Inval("no root device"), Box::new(machine))),
        };
        let fs = match Fs::mount(&mut machine, sda) {
            Ok(fs) => fs,
            Err(_) if cold => match Fs::format(&mut machine, sda, 128) {
                Ok(fs) => fs,
                Err(e) => return Err((e, Box::new(machine))),
            },
            Err(e) => return Err((e, Box::new(machine))),
        };
        // The seal's page-cache CRC vouches for the buffer state a full
        // mount would rebuild; a warm boot pays only a superblock probe.
        boot_phase(
            &mut machine,
            &mut boot_log,
            &[("fs_mount", costs.fs_mount)],
            warm.then_some("fs_validate"),
        );

        let mut kernel = Kernel {
            machine,
            config,
            registry,
            base_frame,
            falloc,
            kheap,
            fs,
            swaps: Vec::new(),
            active_swap: (generation % 2) as usize,
            procs: Vec::new(),
            next_pid: 1,
            terms: Vec::new(),
            is_crash: !cold,
            generation,
            crash_region: None,
            panicked: None,
            pending_fault: None,
            boot_log,
            sched_cursor: 0,
            pt_switches: 0,
            term_table_addr: 0,
            pipes: Vec::new(),
            pipe_table_addr: 0,
            trace: None,
            last_syscall_enter: 0,
            warm_booted: warm,
            trace_base,
            syscall_seq: 0,
            ckpt_epoch: 0,
            last_ckpt_seq: 0,
        };

        // Everything past this point can fail without losing the machine:
        // it lives inside the kernel struct now, so a failed finish phase
        // hands it back to the caller (the resurrection supervisor reuses
        // it for a generation-2 crash kernel).
        match kernel.boot_finish(cold, trace_base, trace_frames) {
            Ok(()) => Ok(kernel),
            Err(e) => Err((e, Box::new(kernel.machine))),
        }
    }

    /// Boot phases that run after the kernel struct exists: flight
    /// recorder, swap areas, terminal/pipe tables, base services, CPU
    /// reset, header/handoff publication, watchdog.
    fn boot_finish(&mut self, cold: bool, trace_base: Pfn, trace_frames: u64) -> KernelResult<()> {
        let kernel = self;
        let total_frames = kernel.machine.frames();
        let generation = kernel.generation;
        let base_frame = kernel.base_frame;

        // Arm the flight recorder for this generation. The crash kernel
        // re-arms (and thus zeroes) the ring: the dead kernel's record was
        // already recovered from raw memory before try_boot_crash ran. Arming
        // happens before any subsystem that emits events.
        if trace_frames >= TraceRing::MIN_FRAMES && trace_base + trace_frames <= total_frames {
            kernel
                .machine
                .set_owner_range(trace_base, trace_frames, FrameOwner::Trace);
            kernel.trace = TraceRing::arm(
                &mut kernel.machine.phys,
                trace_base,
                trace_frames,
                generation,
            );
            kernel.trace_event(EventKind::Armed, 0, generation as u64, trace_base);
        }

        // Swap areas: descriptors + bitmaps in kernel memory. The init
        // scripts pick the active partition by generation parity so the
        // crash kernel never touches the main kernel's swapped pages.
        // The swap descriptors form a fixed-size array reachable from the
        // kernel header (§3.3), so they must be contiguous.
        let swap_names = ["swap0", "swap1"];
        let swap_array = kernel
            .kheap
            .alloc(layout::SwapDesc::SIZE * swap_names.len() as u64)
            .ok_or(KernelError::NoMemory)?;
        for (i, name) in swap_names.iter().enumerate() {
            let dev = kernel
                .machine
                .device_by_name(name)
                .map(|d| d.id)
                .ok_or(KernelError::Inval("missing swap device"))?;
            let nslots = (kernel.machine.device(dev).size() / PAGE_SIZE as u64) as u32;
            let desc_addr = swap_array + i as u64 * layout::SwapDesc::SIZE;
            let bitmap = kernel
                .kheap
                .alloc(nslots as u64)
                .ok_or(KernelError::NoMemory)?;
            let mut area = SwapArea::init(&mut kernel.machine, dev, name, desc_addr, bitmap)?;
            area.trace = kernel.trace;
            kernel.swaps.push(area);
        }
        // The sealed slot bitmap is adoptable; a warm boot's initialization
        // shrinks to a descriptor probe.
        let warm = kernel.warm_booted;
        boot_phase(
            &mut kernel.machine,
            &mut kernel.boot_log,
            &[("swap_init", kernel.config.boot_costs.swap_init)],
            warm.then_some("swap_validate"),
        );

        // Terminal and pipe tables.
        kernel.term_table_addr = kernel
            .kheap
            .alloc(layout::TermDesc::SIZE * MAX_TERMS as u64)
            .ok_or(KernelError::NoMemory)?;
        kernel.pipe_table_addr = kernel
            .kheap
            .alloc(layout::PipeDesc::SIZE * crate::ipc::MAX_PIPES as u64)
            .ok_or(KernelError::NoMemory)?;

        // Base services. A warm boot restarts only the supervision shims
        // and lets the sealed state stand in for the rest.
        boot_phase(
            &mut kernel.machine,
            &mut kernel.boot_log,
            &[("services", kernel.config.boot_costs.services)],
            warm.then_some("services_warm"),
        );

        // The crash kernel restarts the processors that the dying kernel's
        // NMI broadcast halted; without this, the next panic's broadcast
        // would find them already halted and skip the context save,
        // leaving stale contexts from the previous generation in the save
        // areas.
        for cpu in &mut kernel.machine.cpus {
            cpu.reset();
        }

        // Protection mode is a property of the machine (which page-table set
        // is live while the kernel runs).
        kernel.machine.user_protection = kernel.config.user_protection;

        // Invalidate this kernel's warm-seal region before anything is
        // published: a stale seal from an earlier occupant of these frames
        // must never be adopted after this kernel's own panic.
        layout::WarmSeal::invalid().write(
            &mut kernel.machine.phys,
            layout::seal_addr(base_frame, kernel.config.kernel_frames),
        )?;

        // Same discipline for the epoch-checkpoint slots below the trace
        // ring: both A/B slots are invalidated at every boot so an epoch
        // sealed by an earlier occupant of these frames can never roll
        // this kernel back. The frames are tagged like the trace region so
        // they survive the cold morph's reclaim and are never adopted.
        if trace_base >= layout::CKPT_FRAMES && trace_base <= total_frames {
            kernel.machine.set_owner_range(
                layout::ckpt_region_base(trace_base),
                layout::CKPT_FRAMES,
                FrameOwner::Trace,
            );
            for slot in 0..layout::CKPT_SLOTS {
                layout::EpochCheckpoint::invalid().write(
                    &mut kernel.machine.phys,
                    layout::ckpt_slot_addr(trace_base, slot),
                )?;
            }
        }

        // Publish the kernel header and (on cold boot) the handoff block.
        kernel.write_header()?;
        if cold {
            HandoffBlock {
                layout_version: layout::LAYOUT_VERSION,
                active_kernel_frame: base_frame,
                crash_base: 0,
                crash_frames: 0,
                crash_entry_ok: 0,
                idt_stamp: IDT_MAGIC,
                save_area: layout::SAVE_AREA_ADDR,
                generation,
                trace_base,
                trace_frames,
            }
            .write(&mut kernel.machine.phys)?;
            layout::write_idt_gates(&mut kernel.machine.phys)?;
            kernel.load_crash_kernel()?;
        } else {
            // The crash kernel is now the active kernel; a fresh crash
            // kernel is only installed when it morphs (§3.6).
            let (mut h, _) = HandoffBlock::read(&kernel.machine.phys)?;
            h.active_kernel_frame = base_frame;
            h.generation = generation;
            h.crash_entry_ok = 0;
            h.write(&mut kernel.machine.phys)?;
        }

        // Arm the watchdog if that fix is enabled.
        if kernel.config.fixes.watchdog_nmi {
            let now = kernel.machine.clock.now();
            kernel.machine.watchdog.enable(now);
        }

        Ok(())
    }

    /// (Re)writes this kernel's header from current state.
    pub fn write_header(&mut self) -> KernelResult<()> {
        let proc_head = self
            .procs
            .iter()
            .find(|p| p.state != layout::pstate::EXITED)
            .map(|p| p.desc_addr)
            .unwrap_or(0);
        let header = KernelHeader {
            version: self.config.version,
            base_frame: self.base_frame,
            nframes: self.config.kernel_frames,
            proc_head,
            nprocs: self
                .procs
                .iter()
                .filter(|p| p.state != layout::pstate::EXITED)
                .count() as u64,
            swap_array: self.swaps.first().map(|s| s.desc_addr).unwrap_or(0),
            nswap: self.swaps.len() as u32,
            is_crash: self.is_crash as u32,
            term_table: self.term_table_addr,
            nterms: self.terms.len() as u32,
            pipe_table: self.pipe_table_addr,
            npipes: self.pipes.len() as u32,
        };
        let addr = self.header_addr();
        header.write(&mut self.machine.phys, addr)?;
        Ok(())
    }

    /// Probes the dead kernel's warm seal: present, marked valid, and
    /// stamped with the dead generation. Returns the seal without checking
    /// any per-structure CRC — adoption decisions revalidate those against
    /// the actual dead bytes.
    pub fn probe_warm_seal(machine: &Machine) -> Option<layout::WarmSeal> {
        let (h, _) = HandoffBlock::read(&machine.phys).ok()?;
        let (dead, _) =
            layout::KernelHeader::read(&machine.phys, h.active_kernel_frame * PAGE_SIZE as u64)
                .ok()?;
        let addr = layout::seal_addr(dead.base_frame, dead.nframes);
        let (seal, _) = layout::WarmSeal::read(&machine.phys, addr).ok()?;
        (seal.valid != 0 && seal.generation == h.generation).then_some(seal)
    }

    /// Copies a frame and charges the cost model for it — the one shared
    /// accounting site for every resurrection copy: eager page copies, shm
    /// restores, and lazy copy-on-access pulls.
    pub fn copy_frame_charged(&mut self, src: Pfn, dst: Pfn) -> Result<(), ow_simhw::MemError> {
        self.machine.phys.copy_frame(src, dst)?;
        let cost = self.machine.cost.page_copy;
        self.machine.clock.charge(cost);
        Ok(())
    }

    /// Allocates a general frame and tags its owner.
    pub fn alloc_frame(&mut self, owner: FrameOwner) -> KernelResult<Pfn> {
        let pfn = self.falloc.alloc().ok_or(KernelError::NoMemory)?;
        self.machine.set_owner(pfn, owner);
        Ok(pfn)
    }

    /// Frees a general frame and clears its tag.
    pub fn free_frame(&mut self, pfn: Pfn) {
        self.falloc.free(pfn);
        self.machine.set_owner(pfn, FrameOwner::Free);
    }

    /// Appends a cycle-stamped record to the flight recorder, if armed.
    pub fn trace_event(&mut self, kind: EventKind, pid: u64, arg0: u64, arg1: u64) {
        if let Some(ring) = self.trace {
            let now = self.machine.clock.now();
            ring.emit(&mut self.machine.phys, now, kind, pid, arg0, arg1);
        }
    }

    /// Adds `n` to a metrics counter, if the recorder is armed.
    pub fn trace_counter(&mut self, counter: Counter, n: u64) {
        if let Some(ring) = self.trace {
            ring.counter_add(&mut self.machine.phys, counter, n);
        }
    }

    /// Records one histogram sample, if the recorder is armed.
    pub fn trace_hist(&mut self, hist: Histogram, value: u64) {
        if let Some(ring) = self.trace {
            ring.hist_record(&mut self.machine.phys, hist, value);
        }
    }

    /// Records a panic-path step, if the recorder is armed. The panic path
    /// itself calls this — tracing must never be able to re-fault it, which
    /// is why every ring operation is infallible.
    pub fn trace_panic_step(&mut self, step: PanicStep, detail: u64) {
        if let Some(ring) = self.trace {
            let now = self.machine.clock.now();
            ring.emit_panic_step(&mut self.machine.phys, now, step, detail);
        }
    }

    /// Finds a process handle.
    pub fn proc(&self, pid: u64) -> KernelResult<&ProcHandle> {
        self.procs
            .iter()
            .find(|p| p.pid == pid)
            .ok_or(KernelError::NoProc(pid))
    }

    /// Finds a process handle mutably.
    pub fn proc_mut(&mut self, pid: u64) -> KernelResult<&mut ProcHandle> {
        self.procs
            .iter_mut()
            .find(|p| p.pid == pid)
            .ok_or(KernelError::NoProc(pid))
    }

    /// Rewrites the in-memory process list (`next` pointers plus the header
    /// head/count) to match the handle order.
    pub fn sync_proc_list(&mut self) -> KernelResult<()> {
        let live: Vec<PhysAddr> = self
            .procs
            .iter()
            .filter(|p| p.state != layout::pstate::EXITED)
            .map(|p| p.desc_addr)
            .collect();
        for (i, &addr) in live.iter().enumerate() {
            let next = live.get(i + 1).copied().unwrap_or(0);
            self.machine
                .phys
                .write_u64(addr + layout::proc_off::NEXT, next)?;
        }
        self.write_header()
    }

    /// Creates a process: address space, VMAs, descriptor, file table and
    /// signal table, all in kernel/physical memory; then links it into the
    /// process list. This shares its core with `clone()` as in §3.7.
    pub fn spawn(&mut self, spec: SpawnSpec) -> KernelResult<u64> {
        let pid = self.next_pid;
        self.next_pid += 1;

        let asp = {
            let Kernel {
                machine, falloc, ..
            } = self;
            AddressSpace::new(&mut machine.phys, falloc).ok_or(KernelError::NoMemory)?
        };
        self.machine
            .set_owner(asp.root(), FrameOwner::PageTable { pid });

        // Kernel structures.
        let files_addr = self
            .kheap
            .alloc(FileTable::SIZE)
            .ok_or(KernelError::NoMemory)?;
        FileTable { fds: [0; MAX_FDS] }.write(&mut self.machine.phys, files_addr)?;
        let sig_addr = self
            .kheap
            .alloc(SigTable::SIZE)
            .ok_or(KernelError::NoMemory)?;
        SigTable {
            handlers: [0; NSIG],
        }
        .write(&mut self.machine.phys, sig_addr)?;

        // VMAs: heap (includes the program header page) + stack.
        let heap_start = PROG_STATE_VADDR;
        let heap_end = heap_start + spec.heap_pages * PAGE_SIZE as u64;
        let stack_end = VA_LIMIT;
        let stack_start = stack_end - spec.stack_pages * PAGE_SIZE as u64;
        if heap_end > stack_start {
            return Err(KernelError::Inval("heap overlaps stack"));
        }
        let stack_vma = self
            .kheap
            .alloc(VmaDesc::SIZE)
            .ok_or(KernelError::NoMemory)?;
        VmaDesc {
            start: stack_start,
            end: stack_end,
            flags: layout::vmaflags::READ | layout::vmaflags::WRITE | layout::vmaflags::STACK,
            file: 0,
            file_off: 0,
            next: 0,
        }
        .write(&mut self.machine.phys, stack_vma)?;
        let heap_vma = self
            .kheap
            .alloc(VmaDesc::SIZE)
            .ok_or(KernelError::NoMemory)?;
        VmaDesc {
            start: heap_start,
            end: heap_end,
            flags: layout::vmaflags::READ | layout::vmaflags::WRITE,
            file: 0,
            file_off: 0,
            next: stack_vma,
        }
        .write(&mut self.machine.phys, heap_vma)?;

        // Descriptor.
        let desc_addr = self
            .kheap
            .alloc(ProcDesc::SIZE)
            .ok_or(KernelError::NoMemory)?;
        let desc = ProcDesc {
            pid,
            state: layout::pstate::RUNNABLE,
            name: spec.name.clone(),
            crash_proc: 0,
            page_root: asp.root(),
            mm_head: heap_vma,
            files: files_addr,
            sig: sig_addr,
            term_id: spec.term.unwrap_or(u32::MAX),
            shm_head: 0,
            sock_head: 0,
            res_in_use: 0,
            in_syscall: 0,
            saved_pc: 0,
            saved_sp: stack_end,
            saved_regs: [0; 8],
            checksum: 0,
            next: 0,
        };
        let mut desc = desc;
        if self.config.desc_checksums {
            desc.checksum = desc.compute_checksum();
        }
        desc.write(&mut self.machine.phys, desc_addr)?;

        self.procs.push(ProcHandle {
            pid,
            name: spec.name,
            desc_addr,
            asp,
            program: Some(spec.program),
            state: layout::pstate::RUNNABLE,
            step: 0,
            deliver_restart: false,
            exit_code: None,
            sockets: Vec::new(),
            resurrection_failures: 0,
        });
        self.sync_proc_list()?;
        Ok(pid)
    }

    /// Creates a bare process shell for the resurrection engine: descriptor,
    /// empty file/signal tables and an empty address space — no VMAs, no
    /// program. The crash kernel fills everything in from the dead kernel's
    /// memory. This is the `clone()` path shared with `spawn` (§3.7).
    pub fn create_raw_process(&mut self, name: &str) -> KernelResult<u64> {
        let pid = self.next_pid;
        self.next_pid += 1;
        let asp = {
            let Kernel {
                machine, falloc, ..
            } = self;
            AddressSpace::new(&mut machine.phys, falloc).ok_or(KernelError::NoMemory)?
        };
        self.machine
            .set_owner(asp.root(), FrameOwner::PageTable { pid });
        let files_addr = self
            .kheap
            .alloc(FileTable::SIZE)
            .ok_or(KernelError::NoMemory)?;
        FileTable { fds: [0; MAX_FDS] }.write(&mut self.machine.phys, files_addr)?;
        let sig_addr = self
            .kheap
            .alloc(SigTable::SIZE)
            .ok_or(KernelError::NoMemory)?;
        SigTable {
            handlers: [0; NSIG],
        }
        .write(&mut self.machine.phys, sig_addr)?;
        let desc_addr = self
            .kheap
            .alloc(ProcDesc::SIZE)
            .ok_or(KernelError::NoMemory)?;
        let mut desc = ProcDesc {
            pid,
            state: layout::pstate::RUNNABLE,
            name: name.to_string(),
            crash_proc: 0,
            page_root: asp.root(),
            mm_head: 0,
            files: files_addr,
            sig: sig_addr,
            term_id: u32::MAX,
            shm_head: 0,
            sock_head: 0,
            res_in_use: 0,
            in_syscall: 0,
            saved_pc: 0,
            saved_sp: VA_LIMIT,
            saved_regs: [0; 8],
            checksum: 0,
            next: 0,
        };
        if self.config.desc_checksums {
            desc.checksum = desc.compute_checksum();
        }
        desc.write(&mut self.machine.phys, desc_addr)?;
        self.procs.push(ProcHandle {
            pid,
            name: name.to_string(),
            desc_addr,
            asp,
            program: None,
            state: layout::pstate::RUNNABLE,
            step: 0,
            deliver_restart: false,
            exit_code: None,
            sockets: Vec::new(),
            resurrection_failures: 0,
        });
        self.sync_proc_list()?;
        Ok(pid)
    }

    /// Read-modify-writes a process descriptor in memory.
    pub fn update_desc(&mut self, pid: u64, f: impl FnOnce(&mut ProcDesc)) -> KernelResult<()> {
        let addr = self.proc(pid)?.desc_addr;
        let (mut desc, _) = ProcDesc::read(&self.machine.phys, addr)?;
        f(&mut desc);
        if self.config.desc_checksums {
            desc.checksum = desc.compute_checksum();
        } else {
            desc.checksum = 0;
        }
        desc.write(&mut self.machine.phys, addr)?;
        // Keep the host mirror coherent.
        let p = self.proc_mut(pid)?;
        p.state = desc.state;
        p.step = desc.saved_pc;
        Ok(())
    }

    /// Recomputes the §4 integrity checksum after an in-place update of a
    /// descriptor field. A no-op when checksums are disabled; when enabled,
    /// the re-read + recompute is the runtime overhead §4 predicts.
    pub fn reseal_desc(&mut self, pid: u64) -> KernelResult<()> {
        if !self.config.desc_checksums {
            return Ok(());
        }
        let addr = self.proc(pid)?.desc_addr;
        // Read without checksum validation (it is stale right now): blank
        // the stored checksum first.
        self.machine
            .phys
            .write_u64(addr + layout::proc_off::CHECKSUM, 0)?;
        let (mut desc, _) = ProcDesc::read(&self.machine.phys, addr)?;
        desc.checksum = desc.compute_checksum();
        self.machine
            .phys
            .write_u64(addr + layout::proc_off::CHECKSUM, desc.checksum)?;
        // The recompute touches the whole descriptor.
        let bw = self.machine.cost.mem_bytes_per_cycle.max(1);
        self.machine.clock.charge(ProcDesc::SIZE / bw);
        Ok(())
    }

    /// Reaps an exited process: frees its user frames, page tables and
    /// kernel structures.
    pub fn reap(&mut self, pid: u64) -> KernelResult<()> {
        let idx = self
            .procs
            .iter()
            .position(|p| p.pid == pid)
            .ok_or(KernelError::NoProc(pid))?;
        let desc_addr = self.procs[idx].desc_addr;
        let asp = self.procs[idx].asp;
        let (desc, _) = ProcDesc::read(&self.machine.phys, desc_addr)?;

        // Close open files (writes back dirty cache).
        for fd in 0..MAX_FDS as u32 {
            let _ = self.file_close(pid, fd);
        }

        // Free user frames and swap slots.
        let mut mapped = Vec::new();
        asp.for_each_mapped(&self.machine.phys, |va, pte| mapped.push((va, pte)))?;
        for (_va, pte) in mapped {
            let flags = pte.flags();
            if flags.contains(ow_simhw::PteFlags::SWAPPED) {
                let slot = pte.pfn() as u32;
                let area = self.swaps[self.active_swap].clone();
                let _ = area.free_slot(&mut self.machine, slot);
            } else if flags.contains(ow_simhw::PteFlags::PRESENT)
                && !flags.contains(ow_simhw::PteFlags::LAZY)
            {
                // Shared (shm) frames are freed with the segment, not here.
                // Lazy pages still point at dead-generation frames outside
                // this allocator (the owner map can agree by pid collision
                // across generations); the next morph accounts for them.
                // So do frames a crash kernel adopted from the dead image
                // before morphing: they are not this allocator's to free.
                if self.falloc.contains(pte.pfn())
                    && matches!(self.machine.owner(pte.pfn()), FrameOwner::User { pid: p } if p == pid)
                {
                    self.free_frame(pte.pfn());
                }
            }
        }
        // Free page-table frames.
        {
            let Kernel {
                machine, falloc, ..
            } = self;
            // Re-tag first, then free through the allocator.
            asp.free_tables(&machine.phys, falloc)?;
        }

        // Close sockets: free their descriptors and payload buffers. Only
        // handles still marked open — closed ones already freed theirs.
        let socks: Vec<_> = self.procs[idx]
            .sockets
            .iter()
            .filter(|s| s.open)
            .map(|s| s.desc_addr)
            .collect();
        for addr in socks {
            if let Ok((sock, _)) = crate::layout::SockDesc::read(&self.machine.phys, addr) {
                self.free_frame(sock.outbuf_pfn);
                self.kheap.free(addr, crate::layout::SockDesc::SIZE);
            }
        }

        // Free kernel structures: VMA chain, file table, signal table, desc.
        let mut vma_addr = desc.mm_head;
        while vma_addr != 0 {
            let (vma, _) = VmaDesc::read(&self.machine.phys, vma_addr)?;
            self.kheap.free(vma_addr, VmaDesc::SIZE);
            vma_addr = vma.next;
        }
        self.kheap.free(desc.files, FileTable::SIZE);
        self.kheap.free(desc.sig, SigTable::SIZE);
        self.kheap.free(desc_addr, ProcDesc::SIZE);

        self.procs.remove(idx);
        self.sync_proc_list()?;
        Ok(())
    }

    /// Marks a process state both host-side and in its descriptor.
    pub fn set_proc_state(&mut self, pid: u64, state: u32) -> KernelResult<()> {
        let p = self.proc_mut(pid)?;
        p.state = state;
        let addr = p.desc_addr;
        self.machine
            .phys
            .write_u32(addr + layout::proc_off::STATE, state)?;
        self.reseal_desc(pid)?;
        Ok(())
    }

    /// Runs one scheduler step: picks the next runnable process and executes
    /// one program step. Detects queued between-step faults and watchdog
    /// expiry.
    pub fn run_step(&mut self) -> RunEvent {
        if self.panicked.is_some() {
            return RunEvent::Panicked;
        }

        // Between-step fault manifestation.
        if let Some(f) = self.pending_fault {
            if !f.in_syscall {
                self.pending_fault = None;
                self.do_panic(f.cause);
                return RunEvent::Panicked;
            }
        }

        // Watchdog: the kernel pets it while healthy.
        let now = self.machine.clock.now();
        self.machine.watchdog.pet(now);

        let n = self.procs.len();
        if n == 0 {
            return RunEvent::Idle;
        }
        let mut pid = None;
        for off in 0..n {
            let i = (self.sched_cursor + off) % n;
            if self.procs[i].state == layout::pstate::RUNNABLE && self.procs[i].program.is_some() {
                pid = Some(self.procs[i].pid);
                self.sched_cursor = (i + 1) % n;
                break;
            }
        }
        let Some(pid) = pid else {
            return RunEvent::Idle;
        };

        // Mark the CPU as running this thread (panic-time context save).
        self.machine.cpus[0].current_pid = pid;

        // Take the program out to split the borrow.
        let mut program = {
            let p = self.proc_mut(pid).expect("pid exists");
            p.program.take().expect("program present")
        };
        let result = {
            let mut api = KernelApi::new(self, pid);
            program.step(&mut api)
        };

        if self.panicked.is_some() {
            // The kernel died under this process; the host program object is
            // garbage now (resurrection rebuilds from memory).
            return RunEvent::Panicked;
        }

        match result {
            StepResult::Running => {
                {
                    let mut api = KernelApi::new(self, pid);
                    program.save_state(&mut api);
                }
                if self.panicked.is_some() {
                    return RunEvent::Panicked;
                }
                let p = self.proc_mut(pid).expect("pid exists");
                p.program = Some(program);
                p.step += 1;
                let step = p.step;
                let addr = p.desc_addr;
                let _ = self
                    .machine
                    .phys
                    .write_u64(addr + layout::proc_off::SAVED_PC, step);
                let _ = self.reseal_desc(pid);
                self.machine.cpus[0].ctx.pc = step;
                RunEvent::Stepped(pid)
            }
            StepResult::Exited(code) => {
                {
                    let p = self.proc_mut(pid).expect("pid exists");
                    p.exit_code = Some(code);
                    p.state = layout::pstate::EXITED;
                }
                let _ = self.set_proc_state(pid, layout::pstate::EXITED);
                let _ = self.reap(pid);
                RunEvent::Exited(pid, code)
            }
        }
    }

    /// Runs until `pred` is true, a panic occurs, or `max_steps` elapses.
    /// Returns the number of steps executed.
    pub fn run_until(&mut self, max_steps: u64, mut pred: impl FnMut(&Kernel) -> bool) -> u64 {
        let mut steps = 0;
        while steps < max_steps {
            if pred(self) || self.panicked.is_some() {
                break;
            }
            match self.run_step() {
                RunEvent::Panicked => break,
                RunEvent::Idle => break,
                _ => steps += 1,
            }
        }
        steps
    }

    /// Total simulated seconds elapsed.
    pub fn seconds(&self) -> f64 {
        self.machine.clock.seconds()
    }
}
