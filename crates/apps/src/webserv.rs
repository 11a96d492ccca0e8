//! The Apache/PHP web application server analog (§5.3).
//!
//! Web applications keep session data (shopping carts, credentials) across
//! page accesses. PHP's session code stores it in **shared memory**, in a
//! hash table whose address sits in a global variable. Persisting sessions
//! to disk or a database costs ≥25% throughput — so instead the paper adds
//! a crash procedure to the PHP module (110 new + 5 modified lines) that
//! saves each element of the session table to a file and restarts Apache,
//! which then re-initializes the table from that file. No PHP application
//! needs changing.
//!
//! Wire protocol: `[op u8][sid 8B][len 8B][data 112B]`, op 1=SET 2=DEL.

use crate::{
    memio,
    workload::{
        request_batch, start_server, verify_shadow, AppMeta, BatchShadow, VerifyResult, WorkRng,
        Workload,
    },
};
use ow_kernel::{
    layout::oflags,
    program::{CrashAction, Program, ProgramRegistry, StepResult, UserApi, PROG_STATE_VADDR},
    Errno, Kernel,
};
use std::collections::BTreeMap;

/// Global cell: address of the session table (PHP's global variable).
pub const TABLE_CELL: u64 = PROG_STATE_VADDR + 8;
/// Global cell: server socket id.
pub const SID_CELL: u64 = PROG_STATE_VADDR + 16;

/// Shared-memory segment key for the session store.
pub const SHM_KEY: u64 = 0x5e55;
/// Where the segment is attached.
pub const SHM_VADDR: u64 = 0x40_0000;
/// Segment size in pages (1024 slots of 128 bytes = 32 pages).
pub const SHM_PAGES: u64 = 32;

/// Session slots in the table.
pub const SLOTS: u64 = 1024;
/// Bytes per slot: sid(8) + len(8) + data(112).
pub const SLOT_SIZE: u64 = 128;
/// Payload bytes per session.
pub const DATA_SIZE: usize = 112;

/// File written by the crash procedure.
pub const SESSION_FILE: &str = "/sessions.dat";

/// Document-root cache region (static files served from memory).
pub const DOCROOT_VADDR: u64 = 0x60_0000;
/// Pages in the docroot cache.
pub const DOCROOT_PAGES: u64 = 128;

const OP_SET: u8 = 1;
const OP_DEL: u8 = 2;

/// Bytes of one wire request.
const REQUEST_LEN: usize = 17 + DATA_SIZE;

/// One session request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// 1 = set, 2 = delete.
    pub op: u8,
    /// Session id (nonzero).
    pub sid: u64,
    /// Serialized session data.
    pub data: Vec<u8>,
}

impl Request {
    /// Encodes to the wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![self.op];
        out.extend_from_slice(&self.sid.to_le_bytes());
        out.extend_from_slice(&(self.data.len() as u64).to_le_bytes());
        let mut d = self.data.clone();
        d.resize(DATA_SIZE, 0);
        out.extend_from_slice(&d);
        out
    }

    /// Decodes from the wire format.
    pub fn decode(buf: &[u8]) -> Option<Request> {
        if buf.len() < REQUEST_LEN {
            return None;
        }
        let len = (u64::from_le_bytes(buf[9..17].try_into().ok()?) as usize).min(DATA_SIZE);
        Some(Request {
            op: buf[0],
            sid: u64::from_le_bytes(buf[1..9].try_into().ok()?),
            data: buf[17..17 + len].to_vec(),
        })
    }
}

fn slot_addr(i: u64) -> u64 {
    SHM_VADDR + i * SLOT_SIZE
}

fn find_slot(api: &mut dyn UserApi, sid: u64) -> Result<Option<u64>, Errno> {
    // Open-addressed: start at hash(sid), linear probe.
    let start = sid % SLOTS;
    for off in 0..SLOTS {
        let i = (start + off) % SLOTS;
        let cur = api.mem_read_u64(slot_addr(i))?;
        if cur == sid {
            return Ok(Some(i));
        }
        if cur == 0 {
            return Ok(None);
        }
    }
    Ok(None)
}

fn set_session(api: &mut dyn UserApi, sid: u64, data: &[u8]) -> Result<(), Errno> {
    let start = sid % SLOTS;
    let mut tombstone = None;
    let mut slot = None;
    for off in 0..SLOTS {
        let i = (start + off) % SLOTS;
        let cur = api.mem_read_u64(slot_addr(i))?;
        if cur == sid || cur == 0 {
            slot = Some(i);
            break;
        }
        if cur == u64::MAX && tombstone.is_none() {
            tombstone = Some(i);
        }
    }
    // Only a table with no empty slot left reuses a tombstone: the probe
    // has then seen every slot, so `sid` is not stored anywhere else.
    let i = slot.or(tombstone).ok_or(Errno::NoMem)?;
    api.mem_write_u64(slot_addr(i), sid)?;
    api.mem_write_u64(slot_addr(i) + 8, data.len() as u64)?;
    let mut d = data.to_vec();
    d.resize(DATA_SIZE, 0);
    api.mem_write(slot_addr(i) + 16, &d)
}

fn del_session(api: &mut dyn UserApi, sid: u64) -> Result<(), Errno> {
    if let Some(i) = find_slot(api, sid)? {
        // Tombstone-free deletion is fiddly with linear probing; mark the
        // slot with a tombstone sid (u64::MAX) that lookups skip.
        api.mem_write_u64(slot_addr(i), u64::MAX)?;
        api.mem_write_u64(slot_addr(i) + 8, 0)?;
    }
    Ok(())
}

/// Reads every live session from the table.
fn all_sessions(api: &mut dyn UserApi) -> Result<Vec<(u64, Vec<u8>)>, Errno> {
    let mut out = Vec::new();
    for i in 0..SLOTS {
        let sid = api.mem_read_u64(slot_addr(i))?;
        if sid != 0 && sid != u64::MAX {
            let len = (api.mem_read_u64(slot_addr(i) + 8)? as usize).min(DATA_SIZE);
            let mut d = vec![0u8; len];
            if len > 0 {
                api.mem_read(slot_addr(i) + 16, &mut d)?;
            }
            out.push((sid, d));
        }
    }
    Ok(out)
}

/// The web application server program.
pub struct WebServ;

impl Program for WebServ {
    fn step(&mut self, api: &mut dyn UserApi) -> StepResult {
        memio::serve_step(api, SID_CELL, REQUEST_LEN, 3, |api, sock, buf| {
            if let Some(req) = Request::decode(buf) {
                // Request parsing and PHP page execution: compute plus a
                // walk over the session table working set.
                api.compute(700);
                memio::churn(api, DOCROOT_VADDR, 128, 16, req.sid);
                memio::churn(api, SHM_VADDR, 32, 6, req.sid);
                let ok = match req.op {
                    OP_SET => set_session(api, req.sid, &req.data).is_ok(),
                    OP_DEL => del_session(api, req.sid).is_ok(),
                    _ => false,
                };
                let _ = api.sock_send(sock, if ok { b"200" } else { b"500" });
            }
        })
    }

    fn save_state(&mut self, _api: &mut dyn UserApi) {}

    /// §5.3's crash procedure: walk the session hash table (through its
    /// global address) and save each element to a file; Apache restarts and
    /// re-populates the table from it. When `failed == 0` — every resource
    /// class, sockets included, survived resurrection — it takes §3.4's
    /// advanced route instead: drop the in-flight request and keep serving
    /// from the live session table, skipping the restart entirely.
    fn crash_procedure(&mut self, api: &mut dyn UserApi, failed: u32) -> CrashAction {
        if failed == 0 {
            let _ = api.mem_write_u64(SID_CELL, u64::MAX);
            return CrashAction::Continue;
        }
        // Serializing the session table dominates the crash procedure.
        api.compute(200_000_000);
        let saved = (|| -> Result<(), Errno> {
            let sessions = all_sessions(api)?;
            let fd = api.open(SESSION_FILE, oflags::WRITE | oflags::CREATE | oflags::TRUNC)?;
            api.write(fd, &(sessions.len() as u64).to_le_bytes())?;
            for (sid, data) in sessions {
                api.write(fd, &sid.to_le_bytes())?;
                api.write(fd, &(data.len() as u64).to_le_bytes())?;
                let mut d = data;
                d.resize(DATA_SIZE, 0);
                api.write(fd, &d)?;
            }
            api.fsync(fd)?;
            api.close(fd)?;
            Ok(())
        })();
        match saved {
            Ok(()) => CrashAction::SaveAndRestart(vec![SESSION_FILE.to_string()]),
            Err(_) => CrashAction::GiveUp,
        }
    }
}

fn load_sessions(api: &mut dyn UserApi, path: &str) -> Result<(), Errno> {
    let fd = api.open(path, oflags::READ)?;
    let mut n8 = [0u8; 8];
    if api.read(fd, &mut n8)? != 8 {
        api.close(fd)?;
        return Ok(());
    }
    let n = u64::from_le_bytes(n8).min(SLOTS);
    for _ in 0..n {
        api.read(fd, &mut n8)?;
        let sid = u64::from_le_bytes(n8);
        api.read(fd, &mut n8)?;
        let len = (u64::from_le_bytes(n8) as usize).min(DATA_SIZE);
        let mut d = vec![0u8; DATA_SIZE];
        api.read(fd, &mut d)?;
        d.truncate(len);
        set_session(api, sid, &d)?;
    }
    api.close(fd)
}

/// Registers the web server with the program registry.
pub fn register(r: &mut ProgramRegistry) {
    r.register(
        "httpd",
        |api, args| {
            // Server start (config parse, module init, worker pool) — a few
            // simulated seconds, as in Table 6.
            api.compute(150_000_000);
            crate::memio::map_libraries(api, 14);
            let _ = api.mmap_anon(DOCROOT_VADDR, DOCROOT_PAGES);
            let _ = api.shm_attach(SHM_KEY, SHM_PAGES, SHM_VADDR);
            let _ = api.mem_write_u64(TABLE_CELL, SHM_VADDR);
            let _ = api.mem_write_u64(SID_CELL, u64::MAX);
            if let Some(path) = args.first() {
                let _ = load_sessions(api, path);
            }
            let _ = api.register_crash_proc();
            Box::new(WebServ)
        },
        |_api| Box::new(WebServ),
    );
}

/// Table 2 row.
pub fn meta() -> AppMeta {
    AppMeta {
        name: "Apache",
        crash_procedure: "Required",
        modified_lines: 115,
    }
}

/// Shadow session store.
pub type SessionState = BTreeMap<u64, Vec<u8>>;

fn shadow_apply(s: &mut SessionState, req: &Request) {
    match req.op {
        OP_SET => {
            s.insert(req.sid, req.data.clone());
        }
        OP_DEL => {
            s.remove(&req.sid);
        }
        _ => {}
    }
}

/// Reads the session store from user memory.
pub fn read_sessions(k: &mut Kernel, pid: u64) -> Option<SessionState> {
    let mut out = SessionState::new();
    for i in 0..SLOTS {
        let mut head = [0u8; 16];
        k.user_read(pid, slot_addr(i), &mut head).ok()?;
        let sid = u64::from_le_bytes(head[0..8].try_into().unwrap());
        if sid != 0 && sid != u64::MAX {
            let len = (u64::from_le_bytes(head[8..16].try_into().unwrap()) as usize).min(DATA_SIZE);
            let mut d = vec![0u8; len];
            if len > 0 {
                k.user_read(pid, slot_addr(i) + 16, &mut d).ok()?;
            }
            out.insert(sid, d);
        }
    }
    Some(out)
}

/// The Apache/PHP workload: clients creating, updating and abandoning
/// sessions.
pub struct WebServWorkload {
    rng: WorkRng,
    shadow: BatchShadow<SessionState>,
}

impl WebServWorkload {
    /// Creates the workload with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        WebServWorkload {
            rng: WorkRng::new(seed),
            shadow: BatchShadow::new(SessionState::new()),
        }
    }
}

fn gen_request(rng: &mut WorkRng) -> Request {
    // Keep the sid space small so sessions get updated and deleted.
    let sid = 1 + rng.below(64);
    let op = if rng.below(10) < 8 { OP_SET } else { OP_DEL };
    let len = 16 + rng.below(64) as usize;
    let data = (0..len).map(|_| rng.printable()).collect();
    Request { op, sid, data }
}

impl Workload for WebServWorkload {
    fn name(&self) -> &'static str {
        "httpd"
    }

    fn setup(&mut self, k: &mut Kernel) -> u64 {
        start_server(k, "httpd", Box::new(WebServ))
    }

    fn drive(&mut self, k: &mut Kernel, pid: u64) {
        request_batch(
            k,
            pid,
            SID_CELL,
            &mut self.shadow,
            || gen_request(&mut self.rng),
            Request::encode,
            shadow_apply,
        );
    }

    fn verify(&mut self, k: &mut Kernel, _pid: u64) -> VerifyResult {
        verify_shadow(k, "httpd", &self.shadow, read_sessions, |_| {
            "session store diverges from the client log".into()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{test_kernel as boot, workload::listener};

    #[test]
    fn sessions_accumulate_and_match_shadow() {
        let mut k = boot();
        let mut w = WebServWorkload::new(9);
        let pid = w.setup(&mut k);
        for _ in 0..30 {
            w.drive(&mut k, pid);
        }
        assert_eq!(w.verify(&mut k, pid), VerifyResult::Intact);
        let sess = read_sessions(&mut k, pid).unwrap();
        assert!(!sess.is_empty());
    }

    #[test]
    fn deleted_slots_are_reused_once_the_table_has_no_empty_slot() {
        // Deletes leave tombstones; after ~1,500 batches no slot is empty
        // and every SET lands on a tombstone.
        let mut k = boot();
        let mut w = WebServWorkload::new(21);
        let pid = w.start(&mut k, 2000);
        assert_eq!(w.verify(&mut k, pid), VerifyResult::Intact);
    }

    #[test]
    fn delete_removes_sessions() {
        let mut k = boot();
        let mut w = WebServWorkload::new(10);
        let pid = w.setup(&mut k);
        for _ in 0..4 {
            k.run_step();
        }
        let sid = listener(&mut k, pid, SID_CELL).unwrap();
        k.sock_deliver(
            pid,
            sid,
            &Request {
                op: OP_SET,
                sid: 5,
                data: b"cart".to_vec(),
            }
            .encode(),
        )
        .unwrap();
        k.sock_deliver(
            pid,
            sid,
            &Request {
                op: OP_DEL,
                sid: 5,
                data: vec![],
            }
            .encode(),
        )
        .unwrap();
        for _ in 0..16 {
            k.run_step();
        }
        let sess = read_sessions(&mut k, pid).unwrap();
        assert!(sess.is_empty());
    }
}
