//! The workload-driver abstraction used by the fault-injection campaign.
//!
//! Each experiment in §6 runs an application under a driven workload whose
//! progress is logged on a *remote* computer, so the correct state of the
//! application is known at every point in time; after resurrection the
//! application's data is checked against that log. A [`Workload`] bundles
//! the driver, the shadow model (the "remote log"), and the verifier.
//!
//! The client side of every protocol lives here once: the socket servers'
//! request batch (`request_batch`), the editors' keystroke batch
//! (`keystroke_batch`) and the check against the log (`verify_shadow`).
//! Each application supplies only what differs: its wire codec, its request
//! or key generator and its shadow apply function.

use ow_kernel::{Kernel, Program, SpawnSpec};

/// Table 2 metadata for one application.
#[derive(Debug, Clone)]
pub struct AppMeta {
    /// Application name.
    pub name: &'static str,
    /// Whether a crash procedure is required for resurrection.
    pub crash_procedure: &'static str,
    /// Lines of application code modified to support Otherworld.
    pub modified_lines: u32,
}

/// Result of post-resurrection data verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyResult {
    /// Application data matches the remote log exactly.
    Intact,
    /// Application survived but its data diverges from the log (Table 5's
    /// "data corruption" column).
    Corrupted(String),
    /// The application process is gone.
    Missing,
}

/// A driveable, verifiable application workload.
pub trait Workload {
    /// Process name (must match the registry entry).
    fn name(&self) -> &'static str;

    /// Spawns the application and performs initial setup; returns its pid.
    fn setup(&mut self, k: &mut Kernel) -> u64;

    /// Drives the workload forward: inject input (keystrokes, queries,
    /// messages), advance the scheduler, and extend the shadow model.
    /// Called repeatedly; each call should make a small amount of progress.
    fn drive(&mut self, k: &mut Kernel, pid: u64);

    /// After a microreboot: lets the driver re-establish its side of any
    /// non-resurrectable channels (reconnecting clients to new sockets),
    /// mirroring how the paper's remote clients reconnect.
    fn reconnect(&mut self, k: &mut Kernel, pid: u64) {
        let _ = (k, pid);
    }

    /// Verifies the application's data against the shadow model.
    fn verify(&mut self, k: &mut Kernel, pid: u64) -> VerifyResult;

    /// Spawns the application and drives `batches` batches; returns its
    /// pid.
    fn start(&mut self, k: &mut Kernel, batches: u32) -> u64 {
        let pid = self.setup(k);
        for _ in 0..batches {
            self.drive(k, pid);
        }
        pid
    }

    /// After a microreboot: reconnects, then lets the resurrected
    /// application settle (finish reloads, reopen sockets) before it is
    /// verified or driven again.
    fn settle(&mut self, k: &mut Kernel, pid: u64) {
        self.reconnect(k, pid);
        for _ in 0..SETTLE_STEPS {
            k.run_step();
        }
    }
}

/// Scheduler steps [`Workload::settle`] runs after reconnecting.
pub(crate) const SETTLE_STEPS: u32 = 8;

impl<W: Workload + ?Sized> Workload for Box<W> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn setup(&mut self, k: &mut Kernel) -> u64 {
        (**self).setup(k)
    }
    fn drive(&mut self, k: &mut Kernel, pid: u64) {
        (**self).drive(k, pid)
    }
    fn reconnect(&mut self, k: &mut Kernel, pid: u64) {
        (**self).reconnect(k, pid)
    }
    fn verify(&mut self, k: &mut Kernel, pid: u64) -> VerifyResult {
        (**self).verify(k, pid)
    }
    fn start(&mut self, k: &mut Kernel, batches: u32) -> u64 {
        (**self).start(k, batches)
    }
    fn settle(&mut self, k: &mut Kernel, pid: u64) {
        (**self).settle(k, pid)
    }
}

/// Builds a workload by application name (used by the bench binaries).
///
/// # Panics
///
/// Panics on an unknown name.
pub fn make_workload(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "vi" => Box::new(crate::vi::ViWorkload::new(seed)),
        "joe" => Box::new(crate::joe::JoeWorkload::new(seed)),
        "mysqld" => Box::new(crate::minidb::MiniDbWorkload::new(seed)),
        "httpd" => Box::new(crate::webserv::WebServWorkload::new(seed)),
        "blcr" => Box::new(crate::blcr::BlcrWorkload::new(
            crate::blcr::DEFAULT_PAGES,
            crate::blcr::CkptMode::Memory,
        )),
        "volano" => Box::new(crate::volano::VolanoWorkload::new(seed)),
        other => panic!("unknown workload {other}"),
    }
}

/// The five applications of the resurrection evaluation (Table 5 rows).
pub const TABLE5_APPS: [&str; 5] = ["vi", "joe", "mysqld", "httpd", "blcr"];

/// Convenience: finds the (new) pid of a process by name.
pub fn pid_of(k: &Kernel, name: &str) -> Option<u64> {
    k.procs.iter().find(|p| p.name == name).map(|p| p.pid)
}

/// Requests a client sends per batch.
const REQUESTS_PER_BATCH: usize = 4;
/// Keys a user types per batch.
const KEYS_PER_BATCH: usize = 8;
/// Scheduler steps a server is given to open its listener.
const LISTEN_STEPS: u32 = 4;

/// Starts socket server `name` with 16 heap pages and lets it open its
/// listener; returns its pid.
pub(crate) fn start_server(k: &mut Kernel, name: &str, program: Box<dyn Program>) -> u64 {
    let mut spec = SpawnSpec::new(name, program);
    spec.heap_pages = 16;
    let pid = crate::exec(k, spec, &[]);
    for _ in 0..LISTEN_STEPS {
        k.run_step();
    }
    pid
}

/// The listening socket that server `pid` keeps in its cell `sid_cell`,
/// or `None` while it has none open (see [`crate::memio::serve_step`]). A
/// client finds the server through this cell, so reconnecting after a
/// microreboot needs no driver state.
pub(crate) fn listener(k: &mut Kernel, pid: u64, sid_cell: u64) -> Option<u32> {
    let mut b = [0u8; 8];
    k.user_read(pid, sid_cell, &mut b).ok()?;
    match u64::from_le_bytes(b) {
        u64::MAX => None,
        sid => Some(sid as u32),
    }
}

/// The terminal resurrected process `pid` is attached to, if any.
pub(crate) fn terminal_of(k: &Kernel, pid: u64) -> Option<u32> {
    let term = k.read_desc(pid).ok()?.term_id;
    (term != u32::MAX).then_some(term)
}

/// One client batch against socket server `pid`: draws four requests from
/// `gen`, logs them in `shadow` (applied with `apply`), delivers each
/// `encode`d to the listener in `sid_cell`, and runs the kernel until the
/// server consumed them; then collects the replies and commits the batch.
/// While the server has no listener the client draws nothing and gives it
/// time to open one.
pub(crate) fn request_batch<S: Clone + 'static, R: Clone + 'static>(
    k: &mut Kernel,
    pid: u64,
    sid_cell: u64,
    shadow: &mut BatchShadow<S>,
    mut gen: impl FnMut() -> R,
    encode: fn(&R) -> Vec<u8>,
    apply: fn(&mut S, &R),
) {
    let Some(sid) = listener(k, pid, sid_cell) else {
        for _ in 0..LISTEN_STEPS {
            k.run_step();
        }
        return;
    };
    let reqs: Vec<R> = (0..REQUESTS_PER_BATCH).map(|_| gen()).collect();
    shadow.begin_batch(
        reqs.iter()
            .cloned()
            .map(|r| Box::new(move |s: &mut S| apply(s, &r)) as ShadowOp<S>)
            .collect(),
    );
    for r in &reqs {
        let _ = k.sock_deliver(pid, sid, &encode(r));
    }
    let drained = |k: &Kernel| {
        k.proc(pid)
            .ok()
            .and_then(|p| p.sockets.iter().find(|s| s.sid == sid))
            .is_none_or(|s| s.inbox.is_empty())
    };
    if run_batch(k, drained) {
        let _ = k.sock_drain(pid, sid); // the replies
        shadow.commit();
    }
}

/// One typing batch: draws eight keys from `gen`, logs them in `shadow`
/// (applied with `apply`), types them on terminal `term` and runs the
/// kernel until the editor read them all; then commits the batch.
pub(crate) fn keystroke_batch<S: Clone + 'static>(
    k: &mut Kernel,
    term: u32,
    shadow: &mut BatchShadow<S>,
    mut gen: impl FnMut() -> u8,
    apply: fn(&mut S, u8),
) {
    let keys: Vec<u8> = (0..KEYS_PER_BATCH).map(|_| gen()).collect();
    shadow.begin_batch(
        keys.iter()
            .map(|&b| Box::new(move |s: &mut S| apply(s, b)) as ShadowOp<S>)
            .collect(),
    );
    let _ = k.term_input(term, &keys);
    let drained = |k: &Kernel| {
        k.terms
            .iter()
            .find(|t| t.id == term)
            .is_none_or(|t| t.input.is_empty())
    };
    if run_batch(k, drained) {
        shadow.commit();
    }
}

/// Runs the kernel until `drained` reports the batch consumed (at most 64
/// steps), then two more so its last item is fully applied. Returns false
/// when the kernel panicked before those two steps: the batch then stays
/// in flight.
fn run_batch(k: &mut Kernel, drained: impl Fn(&Kernel) -> bool) -> bool {
    for _ in 0..64 {
        if k.panicked.is_some() {
            return false;
        }
        k.run_step();
        if drained(k) {
            break;
        }
    }
    if k.panicked.is_some() {
        return false;
    }
    for _ in 0..2 {
        k.run_step();
    }
    true
}

/// Checks process `name` against the remote log: reads its state back with
/// `read`, and reports it intact when it equals any state the log deems
/// legitimate (which `shadow` then settles on), `Corrupted(why(state))`
/// when it equals none, and missing when the process or its state cannot
/// be read.
pub(crate) fn verify_shadow<S: Clone + PartialEq>(
    k: &mut Kernel,
    name: &str,
    shadow: &mut BatchShadow<S>,
    read: fn(&mut Kernel, u64) -> Option<S>,
    why: impl FnOnce(&S) -> String,
) -> VerifyResult {
    let Some(pid) = pid_of(k, name) else {
        return VerifyResult::Missing;
    };
    let Some(state) = read(k, pid) else {
        return VerifyResult::Missing;
    };
    if shadow.matches(|s| *s == state) {
        VerifyResult::Intact
    } else {
        VerifyResult::Corrupted(why(&state))
    }
}

/// One shadow operation applied to the model state.
pub type ShadowOp<S> = Box<dyn Fn(&mut S)>;

/// A shadow model with batch semantics.
///
/// When a fault strikes mid-batch, the application has consumed only a
/// prefix of the operations the driver sent (the rest sat in a terminal
/// FIFO or socket and died with the hardware). Verification therefore
/// accepts the application state matching the committed state *or* any
/// prefix of the in-flight batch — exactly the set of states the remote
/// log deems correct.
pub struct BatchShadow<S: Clone> {
    /// State with every previous batch fully applied.
    pub committed: S,
    batch: Vec<ShadowOp<S>>,
}

impl<S: Clone> BatchShadow<S> {
    /// Starts from an initial state.
    pub fn new(initial: S) -> Self {
        BatchShadow {
            committed: initial,
            batch: Vec::new(),
        }
    }

    /// Commits the in-flight batch (the application consumed all of it),
    /// applying it to the committed state in place.
    pub fn commit(&mut self) {
        for op in self.batch.drain(..) {
            op(&mut self.committed);
        }
    }

    /// Begins a new batch of operations (commits the previous one).
    pub fn begin_batch(&mut self, ops: Vec<ShadowOp<S>>) {
        self.commit();
        self.batch = ops;
    }

    /// All states the application could legitimately be in: the committed
    /// state plus every prefix of the in-flight batch.
    pub fn candidates(&self) -> Vec<S> {
        let mut out = Vec::with_capacity(self.batch.len() + 1);
        let mut s = self.committed.clone();
        out.push(s.clone());
        for op in &self.batch {
            op(&mut s);
            out.push(s.clone());
        }
        out
    }

    /// Whether `pred` holds for any legitimate state. The first state it
    /// holds for is where the application is: it becomes the committed
    /// state, and the rest of the in-flight batch, which died with the
    /// hardware, is dropped. When it holds for none, nothing changes.
    pub fn matches(&mut self, pred: impl Fn(&S) -> bool) -> bool {
        if pred(&self.committed) {
            self.batch.clear();
            return true;
        }
        let mut s = self.committed.clone();
        for op in &self.batch {
            op(&mut s);
            if pred(&s) {
                self.committed = s;
                self.batch.clear();
                return true;
            }
        }
        false
    }
}

/// Deterministic pseudo-random byte stream for workload generation (all
/// workloads must be reproducible under a campaign seed).
#[derive(Debug, Clone)]
pub struct WorkRng {
    state: u64,
}

impl WorkRng {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        WorkRng {
            state: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
        }
    }

    /// Next pseudo-random u64 (xorshift*).
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// A printable ASCII byte.
    pub fn printable(&mut self) -> u8 {
        b' ' + (self.below(95) as u8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = WorkRng::new(7);
        let mut b = WorkRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn printable_stays_printable() {
        let mut r = WorkRng::new(42);
        for _ in 0..1000 {
            let c = r.printable();
            assert!((b' '..=b'~').contains(&c));
        }
    }
}
