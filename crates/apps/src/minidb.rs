//! The MySQL server analog with the MEMORY storage engine (§5.2).
//!
//! An in-memory database server driven by a remote client over a socket.
//! Because sockets are not resurrectable, the server cannot survive a
//! microreboot without help; its **crash procedure** (70 new + 5 modified
//! lines in the paper) iterates the table list through the MEMORY-PSE
//! functions, saves every row (as opaque bytes) to `/mysql.dump`, and
//! restarts the server with the dump file on the command line. The startup
//! code was modified to reload the tables from that file.
//!
//! Wire protocol (one message per request):
//! `[op u8][table 8B][idx 8B][row 64B]` with op 1=INSERT 2=UPDATE 3=DELETE.

use crate::{
    memio, mempse,
    workload::{
        pid_of, request_batch, start_server, AppMeta, BatchShadow, VerifyResult, WorkRng, Workload,
    },
};
use ow_kernel::{
    layout::oflags,
    program::{CrashAction, Program, ProgramRegistry, StepResult, UserApi, PROG_STATE_VADDR},
    Errno, Kernel,
};
use std::collections::BTreeMap;

/// Cell holding the server's current socket id (so the driver can find it).
pub const SID_CELL: u64 = PROG_STATE_VADDR + 24;
/// Cell counting applied requests (progress marker).
pub const APPLIED_CELL: u64 = PROG_STATE_VADDR + 32;

/// Table names served.
pub const TABLES: [&str; 3] = ["t0", "t1", "t2"];
/// Capacity of each table in rows.
pub const TABLE_CAP: u64 = 256;

/// Dump file written by the crash procedure.
pub const DUMP_FILE: &str = "/mysql.dump";

const OP_INSERT: u8 = 1;
const OP_UPDATE: u8 = 2;
const OP_DELETE: u8 = 3;

/// Bytes of one wire request.
const REQUEST_LEN: usize = 17 + mempse::ROW_SIZE as usize;

/// One wire request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Operation code.
    pub op: u8,
    /// Target table name.
    pub table: String,
    /// Row index (interpreted modulo the current row count).
    pub idx: u64,
    /// Row payload.
    pub row: Vec<u8>,
}

impl Request {
    /// Encodes to the wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![self.op];
        out.extend_from_slice(&mempse::pack_name(&self.table).to_le_bytes());
        out.extend_from_slice(&self.idx.to_le_bytes());
        let mut row = self.row.clone();
        row.resize(mempse::ROW_SIZE as usize, 0);
        out.extend_from_slice(&row);
        out
    }

    /// Decodes from the wire format.
    pub fn decode(buf: &[u8]) -> Option<Request> {
        if buf.len() < REQUEST_LEN {
            return None;
        }
        Some(Request {
            op: buf[0],
            table: mempse::unpack_name(u64::from_le_bytes(buf[1..9].try_into().ok()?)),
            idx: u64::from_le_bytes(buf[9..17].try_into().ok()?),
            row: buf[17..17 + mempse::ROW_SIZE as usize].to_vec(),
        })
    }
}

/// The database server program.
pub struct MiniDb;

impl MiniDb {
    fn apply(api: &mut dyn UserApi, req: &Request) -> Result<(), Errno> {
        let Some(tbl) = mempse::find_table(api, &req.table)? else {
            return Err(Errno::Inval);
        };
        let n = mempse::nrows(api, tbl)?;
        match req.op {
            OP_INSERT => {
                let _ = mempse::insert_row(api, tbl, &req.row);
            }
            OP_UPDATE if n > 0 => mempse::update_row(api, tbl, req.idx % n, &req.row)?,
            OP_DELETE if n > 0 => mempse::delete_row(api, tbl, req.idx % n)?,
            _ => {}
        }
        let applied = api.mem_read_u64(APPLIED_CELL)?;
        api.mem_write_u64(APPLIED_CELL, applied + 1)?;
        Ok(())
    }
}

impl Program for MiniDb {
    fn step(&mut self, api: &mut dyn UserApi) -> StepResult {
        memio::serve_step(api, SID_CELL, REQUEST_LEN, 2, |api, sid, buf| {
            if let Some(req) = Request::decode(buf) {
                // Query parsing, planning and execution: compute plus a
                // buffer-pool walk over the table arena.
                api.compute(1100);
                memio::churn(api, mempse::ARENA_BASE, 320, 48, req.idx);
                let ok = Self::apply(api, &req).is_ok();
                let _ = api.sock_send(sid, if ok { b"OK" } else { b"ER" });
            }
        })
    }

    fn save_state(&mut self, _api: &mut dyn UserApi) {}

    /// §5.2's crash procedure: reuse the PSE functions to dump every table
    /// to disk, then restart with the dump file as a command-line argument.
    /// When `failed == 0` — the MEMORY tables and every kernel resource,
    /// listeners included, survived resurrection — it takes §3.4's advanced
    /// route instead: abandon the in-flight query and keep serving from the
    /// live arena, skipping the dump-and-restart cycle.
    fn crash_procedure(&mut self, api: &mut dyn UserApi, failed: u32) -> CrashAction {
        if failed == 0 {
            let _ = api.mem_write_u64(SID_CELL, u64::MAX);
            return CrashAction::Continue;
        }
        // Serializing every MEMORY table dominates the crash procedure.
        api.compute(75_000_000);
        let dump = (|| -> Result<(), Errno> {
            let fd = api.open(DUMP_FILE, oflags::WRITE | oflags::CREATE | oflags::TRUNC)?;
            let tbls = mempse::tables(api)?;
            api.write(fd, &(tbls.len() as u64).to_le_bytes())?;
            for tbl in tbls {
                let name = mempse::table_name(api, tbl)?;
                let rows = mempse::scan(api, tbl)?;
                api.write(fd, &mempse::pack_name(&name).to_le_bytes())?;
                api.write(fd, &(rows.len() as u64).to_le_bytes())?;
                for row in rows {
                    api.write(fd, &row)?;
                }
            }
            api.fsync(fd)?;
            api.close(fd)?;
            Ok(())
        })();
        match dump {
            Ok(()) => CrashAction::SaveAndRestart(vec![DUMP_FILE.to_string()]),
            Err(_) => CrashAction::GiveUp,
        }
    }
}

fn load_dump(api: &mut dyn UserApi, path: &str) -> Result<(), Errno> {
    let fd = api.open(path, oflags::READ)?;
    let mut n8 = [0u8; 8];
    if api.read(fd, &mut n8)? != 8 {
        api.close(fd)?;
        return Ok(()); // empty dump
    }
    let ntables = u64::from_le_bytes(n8);
    for _ in 0..ntables.min(64) {
        api.read(fd, &mut n8)?;
        let name = mempse::unpack_name(u64::from_le_bytes(n8));
        api.read(fd, &mut n8)?;
        let nrows = u64::from_le_bytes(n8);
        let tbl = match mempse::find_table(api, &name)? {
            Some(t) => t,
            None => mempse::create_table(api, &name, TABLE_CAP)?,
        };
        for _ in 0..nrows.min(TABLE_CAP) {
            let mut row = vec![0u8; mempse::ROW_SIZE as usize];
            api.read(fd, &mut row)?;
            mempse::insert_row(api, tbl, &row)?;
        }
    }
    api.close(fd)
}

/// Registers the database server with the program registry.
pub fn register(r: &mut ProgramRegistry) {
    r.register(
        "mysqld",
        |api, args| {
            // Server initialization work (storage engine init, grant
            // tables, listeners) — a few simulated seconds, as in Table 6.
            api.compute(175_000_000);
            crate::memio::map_libraries(api, 12);
            let _ = api.mmap_anon(
                mempse::ARENA_BASE,
                (mempse::ARENA_END - mempse::ARENA_BASE) / 4096,
            );
            let _ = mempse::init(api);
            let _ = api.mem_write_u64(SID_CELL, u64::MAX);
            let _ = api.mem_write_u64(APPLIED_CELL, 0);
            for t in TABLES {
                let _ = mempse::create_table(api, t, TABLE_CAP);
            }
            // Startup modification (§5.2): reload MEMORY tables from the
            // file the crash procedure saved.
            if let Some(path) = args.first() {
                // Tables were just created empty; loading fills them.
                let _ = load_dump(api, path);
            }
            let _ = api.register_crash_proc();
            Box::new(MiniDb)
        },
        |_api| Box::new(MiniDb),
    );
}

/// Table 2 row.
pub fn meta() -> AppMeta {
    AppMeta {
        name: "MySQL",
        crash_procedure: "Required",
        modified_lines: 75,
    }
}

/// Shadow database state (the remote log).
pub type DbState = BTreeMap<String, Vec<Vec<u8>>>;

fn shadow_apply(s: &mut DbState, req: &Request) {
    let rows = s.entry(req.table.clone()).or_default();
    let n = rows.len() as u64;
    let mut row = req.row.clone();
    row.resize(mempse::ROW_SIZE as usize, 0);
    match req.op {
        OP_INSERT if n < TABLE_CAP => {
            rows.push(row);
        }
        OP_UPDATE if n > 0 => rows[(req.idx % n) as usize] = row,
        OP_DELETE if n > 0 => {
            let idx = (req.idx % n) as usize;
            let last = rows.len() - 1;
            rows.swap(idx, last);
            rows.pop();
        }
        _ => {}
    }
}

/// Reads the whole database out of (possibly resurrected) user memory.
pub fn read_db(k: &mut Kernel, pid: u64) -> Option<DbState> {
    let mut out = DbState::new();
    let cell = |k: &mut Kernel, addr: u64| -> Option<u64> {
        let mut b = [0u8; 8];
        k.user_read(pid, addr, &mut b).ok()?;
        Some(u64::from_le_bytes(b))
    };
    let mut tbl = cell(k, mempse::TABLE_HEAD)?;
    let mut guard = 0;
    while tbl != 0 && guard < 64 {
        let name = mempse::unpack_name(cell(k, tbl + 8)?);
        let nrows = cell(k, tbl + 24)?.min(TABLE_CAP);
        let mut rows = Vec::with_capacity(nrows as usize);
        for i in 0..nrows {
            let mut row = vec![0u8; mempse::ROW_SIZE as usize];
            k.user_read(pid, tbl + 48 + i * mempse::ROW_SIZE, &mut row)
                .ok()?;
            rows.push(row);
        }
        out.insert(name, rows);
        tbl = cell(k, tbl + 40)?;
        guard += 1;
    }
    Some(out)
}

/// The MySQL workload: a remote client inserting, updating and deleting
/// rows, with every request logged.
pub struct MiniDbWorkload {
    rng: WorkRng,
    shadow: BatchShadow<DbState>,
}

impl MiniDbWorkload {
    /// Creates the workload with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        let mut initial = DbState::new();
        for t in TABLES {
            initial.insert(t.to_string(), Vec::new());
        }
        MiniDbWorkload {
            rng: WorkRng::new(seed),
            shadow: BatchShadow::new(initial),
        }
    }
}

fn gen_request(rng: &mut WorkRng) -> Request {
    let table = TABLES[rng.below(TABLES.len() as u64) as usize].to_string();
    let op = match rng.below(10) {
        0..=5 => OP_INSERT,
        6..=8 => OP_UPDATE,
        _ => OP_DELETE,
    };
    let mut row = vec![0u8; mempse::ROW_SIZE as usize];
    for b in row.iter_mut() {
        *b = rng.printable();
    }
    Request {
        op,
        table,
        idx: rng.next_u64(),
        row,
    }
}

impl Workload for MiniDbWorkload {
    fn name(&self) -> &'static str {
        "mysqld"
    }

    fn setup(&mut self, k: &mut Kernel) -> u64 {
        start_server(k, "mysqld", Box::new(MiniDb))
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
        let Some(pid) = pid_of(k, "mysqld") else {
            return VerifyResult::Missing;
        };
        // Give a restarted server a chance to finish loading the dump.
        let Some(db) = read_db(k, pid) else {
            return VerifyResult::Missing;
        };
        // Table order may differ after a reload; compare as maps with rows
        // as multisets per table (delete's swap-with-last keeps contents
        // but the dump/reload preserves order anyway).
        let matches = self.shadow.matches(|s| {
            s.iter().all(|(name, rows)| {
                db.get(name)
                    .map(|got| {
                        let mut a = rows.clone();
                        let mut b = got.clone();
                        a.sort();
                        b.sort();
                        a == b
                    })
                    .unwrap_or(rows.is_empty())
            })
        });
        if matches {
            VerifyResult::Intact
        } else {
            VerifyResult::Corrupted("table contents diverge from the client log".into())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_kernel as boot;
    use ow_kernel::SpawnSpec;

    #[test]
    fn request_codec_round_trip() {
        let r = Request {
            op: OP_UPDATE,
            table: "t1".into(),
            idx: 42,
            row: vec![7u8; 64],
        };
        assert_eq!(Request::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn workload_matches_shadow() {
        let mut k = boot();
        let mut w = MiniDbWorkload::new(5);
        let pid = w.setup(&mut k);
        for _ in 0..30 {
            w.drive(&mut k, pid);
        }
        assert_eq!(w.verify(&mut k, pid), VerifyResult::Intact);
        // Data actually accumulated.
        let db = read_db(&mut k, pid).unwrap();
        assert!(db.values().map(|r| r.len()).sum::<usize>() > 0);
    }

    #[test]
    fn dump_and_reload_preserves_tables() {
        let mut k = boot();
        let mut w = MiniDbWorkload::new(6);
        let pid = w.setup(&mut k);
        for _ in 0..10 {
            w.drive(&mut k, pid);
        }
        let before = read_db(&mut k, pid).unwrap();

        // Run the crash procedure by hand, then a fresh start with the dump.
        let mut db = MiniDb;
        let action = {
            let mut api = ow_kernel::syscall::KernelApi::new(&mut k, pid);
            // A non-zero failed mask (lost sockets) forces the dump path;
            // failed == 0 takes the §3.4 continue-in-place route instead.
            db.crash_procedure(&mut api, 1)
        };
        let CrashAction::SaveAndRestart(args) = action else {
            panic!("expected SaveAndRestart");
        };
        assert_eq!(args, vec![DUMP_FILE.to_string()]);

        let mut spec = SpawnSpec::new("mysqld", Box::new(MiniDb));
        spec.heap_pages = 16;
        k.reap(pid).unwrap();
        let pid2 = crate::exec(&mut k, spec, &args);
        let after = read_db(&mut k, pid2).unwrap();
        assert_eq!(before, after);
    }
}
