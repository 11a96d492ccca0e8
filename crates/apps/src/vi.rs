//! The vi text editor analog (§5.1).
//!
//! vi required **zero** modifications to be resurrected: its buffer, cursor
//! and undo state all live in process memory, and it reissues interrupted
//! console reads naturally. After a microreboot the user sees the document,
//! undo history and screen exactly as they were.
//!
//! Key protocol (what the workload's "user" types):
//! * printable bytes — insert at end of buffer
//! * `0x08` (BS) — delete last character
//! * `0x15` (^U) — undo the last insert/delete
//! * `0x17` (^W) — write the buffer to `/vi.txt`

use crate::{
    memio,
    workload::{
        keystroke_batch, terminal_of, verify_shadow, AppMeta, BatchShadow, VerifyResult, WorkRng,
        Workload,
    },
};
use ow_kernel::{
    layout::oflags,
    program::{Program, ProgramRegistry, StepResult, UserApi, PROG_STATE_VADDR},
    Errno, Kernel, SpawnSpec,
};

/// Header cells.
const MAGIC_CELL: u64 = PROG_STATE_VADDR;
/// Buffer length cell.
const LEN_CELL: u64 = PROG_STATE_VADDR + 8;
/// Undo-record count cell.
const UNDO_CELL: u64 = PROG_STATE_VADDR + 16;
/// Bytes saved at the last `^W` cell.
const SAVED_CELL: u64 = PROG_STATE_VADDR + 24;

/// Text buffer.
const BUF: u64 = 0x10000;
/// Buffer capacity.
const BUF_CAP: u64 = 0x10000;
/// Undo log: 16-byte records `(op, ch)`.
const UNDO: u64 = 0x20000;
/// Maximum undo records.
const UNDO_CAP: u64 = 0x1000;

const MAGIC: u64 = 0x2121_2121_5f49_5600; // "VI_!!!!"

const OP_INSERT: u64 = 1;
const OP_DELETE: u64 = 2;

/// The document file.
pub const FILE: &str = "/vi.txt";

/// The editor program. No host-side state at all: everything is in user
/// memory.
pub struct Vi;

impl Vi {
    fn push_undo(api: &mut dyn UserApi, op: u64, ch: u8) -> Result<(), Errno> {
        let n = memio::get_u64(api, UNDO_CELL)?;
        if n < UNDO_CAP {
            api.mem_write_u64(UNDO + n * 16, op)?;
            api.mem_write_u64(UNDO + n * 16 + 8, ch as u64)?;
            memio::set_u64(api, UNDO_CELL, n + 1)?;
        }
        Ok(())
    }

    fn apply_key(api: &mut dyn UserApi, key: u8) -> Result<(), Errno> {
        match key {
            0x08 => {
                let len = memio::get_u64(api, LEN_CELL)?;
                if len > 0 {
                    let mut ch = [0u8];
                    api.mem_read(BUF + len - 1, &mut ch)?;
                    memio::set_u64(api, LEN_CELL, len - 1)?;
                    Self::push_undo(api, OP_DELETE, ch[0])?;
                }
            }
            0x15 => {
                let n = memio::get_u64(api, UNDO_CELL)?;
                if n > 0 {
                    let op = api.mem_read_u64(UNDO + (n - 1) * 16)?;
                    let ch = api.mem_read_u64(UNDO + (n - 1) * 16 + 8)? as u8;
                    let len = memio::get_u64(api, LEN_CELL)?;
                    match op {
                        OP_INSERT if len > 0 => memio::set_u64(api, LEN_CELL, len - 1)?,
                        OP_DELETE if len < BUF_CAP => {
                            api.mem_write(BUF + len, &[ch])?;
                            memio::set_u64(api, LEN_CELL, len + 1)?;
                        }
                        _ => {}
                    }
                    memio::set_u64(api, UNDO_CELL, n - 1)?;
                }
            }
            0x17 => {
                let len = memio::get_u64(api, LEN_CELL)?;
                let mut text = vec![0u8; len as usize];
                if len > 0 {
                    api.mem_read(BUF, &mut text)?;
                }
                let fd = api.open(FILE, oflags::WRITE | oflags::CREATE | oflags::TRUNC)?;
                api.write(fd, &text)?;
                api.close(fd)?;
                memio::set_u64(api, SAVED_CELL, len)?;
            }
            b if (b' '..=b'~').contains(&b) || b == b'\n' => {
                let len = memio::get_u64(api, LEN_CELL)?;
                if len < BUF_CAP {
                    api.mem_write(BUF + len, &[b])?;
                    memio::set_u64(api, LEN_CELL, len + 1)?;
                    Self::push_undo(api, OP_INSERT, b)?;
                }
            }
            _ => {}
        }
        Ok(())
    }
}

impl Program for Vi {
    fn step(&mut self, api: &mut dyn UserApi) -> StepResult {
        let mut key = [0u8];
        match api.term_read(&mut key) {
            Ok(1) => {
                let _ = api.term_write(&key); // echo
                let _ = Self::apply_key(api, key[0]);
                StepResult::Running
            }
            Ok(_) => StepResult::Running,
            // vi reissues interrupted reads — this is why it needs no
            // modification at all (§5.1, Table 2).
            Err(Errno::Restart) | Err(Errno::WouldBlock) => {
                api.compute(1);
                StepResult::Running
            }
            Err(_) => StepResult::Running,
        }
    }

    fn save_state(&mut self, _api: &mut dyn UserApi) {
        // Buffer, cursor, undo and saved markers are written through on
        // every key.
    }
}

/// Registers vi with the program registry.
pub fn register(r: &mut ProgramRegistry) {
    r.register(
        "vi",
        |api, _args| {
            crate::memio::map_libraries(api, 4);
            let _ = api.mem_write_u64(MAGIC_CELL, MAGIC);
            let _ = memio::set_u64(api, LEN_CELL, 0);
            let _ = memio::set_u64(api, UNDO_CELL, 0);
            let _ = memio::set_u64(api, SAVED_CELL, 0);
            Box::new(Vi)
        },
        |_api| Box::new(Vi),
    );
}

/// Table 2 row.
pub fn meta() -> AppMeta {
    AppMeta {
        name: "vi",
        crash_procedure: "Not required",
        modified_lines: 0,
    }
}

/// Editor state tracked by the remote log.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ViState {
    /// Document text.
    pub text: Vec<u8>,
    /// Undo stack mirror.
    pub undo: Vec<(u64, u8)>,
    /// Text length at the last save.
    pub saved_len: u64,
}

fn shadow_apply(s: &mut ViState, key: u8) {
    match key {
        0x08 => {
            if let Some(ch) = s.text.pop() {
                s.undo.push((OP_DELETE, ch));
            }
        }
        0x15 => {
            if let Some((op, ch)) = s.undo.pop() {
                match op {
                    OP_INSERT => {
                        s.text.pop();
                    }
                    OP_DELETE => s.text.push(ch),
                    _ => {}
                }
            }
        }
        0x17 => s.saved_len = s.text.len() as u64,
        b if ((b' '..=b'~').contains(&b) || b == b'\n') && (s.text.len() as u64) < BUF_CAP => {
            s.text.push(b);
            s.undo.push((OP_INSERT, b));
        }
        _ => {}
    }
}

/// Reads the editor's state back out of (possibly resurrected) user memory.
pub fn read_state(k: &mut Kernel, pid: u64) -> Option<ViState> {
    let mut cell = [0u8; 8];
    k.user_read(pid, LEN_CELL, &mut cell).ok()?;
    let len = u64::from_le_bytes(cell).min(BUF_CAP);
    let mut text = vec![0u8; len as usize];
    if len > 0 {
        k.user_read(pid, BUF, &mut text).ok()?;
    }
    k.user_read(pid, UNDO_CELL, &mut cell).ok()?;
    let nundo = u64::from_le_bytes(cell).min(UNDO_CAP);
    let mut undo = Vec::with_capacity(nundo as usize);
    for i in 0..nundo {
        let mut rec = [0u8; 16];
        k.user_read(pid, UNDO + i * 16, &mut rec).ok()?;
        undo.push((
            u64::from_le_bytes(rec[0..8].try_into().unwrap()),
            u64::from_le_bytes(rec[8..16].try_into().unwrap()) as u8,
        ));
    }
    k.user_read(pid, SAVED_CELL, &mut cell).ok()?;
    Some(ViState {
        text,
        undo,
        saved_len: u64::from_le_bytes(cell),
    })
}

/// The vi workload: a user typing, deleting, undoing and saving.
pub struct ViWorkload {
    rng: WorkRng,
    shadow: BatchShadow<ViState>,
    term: Option<u32>,
}

impl ViWorkload {
    /// Creates the workload with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        ViWorkload {
            rng: WorkRng::new(seed),
            shadow: BatchShadow::new(ViState::default()),
            term: None,
        }
    }
}

fn gen_key(rng: &mut WorkRng) -> u8 {
    match rng.below(100) {
        0..=79 => rng.printable(),
        80..=87 => 0x08,
        88..=93 => 0x15,
        94..=96 => 0x17,
        _ => b'\n',
    }
}

impl Workload for ViWorkload {
    fn name(&self) -> &'static str {
        "vi"
    }

    fn setup(&mut self, k: &mut Kernel) -> u64 {
        let term = k.create_terminal().expect("terminal");
        self.term = Some(term);
        let mut spec = SpawnSpec::new("vi", Box::new(Vi));
        spec.term = Some(term);
        crate::exec(k, spec, &[])
    }

    fn drive(&mut self, k: &mut Kernel, _pid: u64) {
        let term = self.term.expect("setup ran");
        keystroke_batch(
            k,
            term,
            &mut self.shadow,
            || gen_key(&mut self.rng),
            shadow_apply,
        );
    }

    fn reconnect(&mut self, k: &mut Kernel, pid: u64) {
        // The resurrected process has a restored terminal; track its id.
        self.term = terminal_of(k, pid).or(self.term);
    }

    fn verify(&mut self, k: &mut Kernel, _pid: u64) -> VerifyResult {
        verify_shadow(k, "vi", &self.shadow, read_state, |state| {
            format!(
                "text len {} vs shadow {}",
                state.text.len(),
                self.shadow.committed.text.len()
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_kernel as boot;

    #[test]
    fn typing_builds_the_buffer() {
        let mut k = boot();
        let mut w = ViWorkload::new(1);
        let pid = w.setup(&mut k);
        for _ in 0..10 {
            w.drive(&mut k, pid);
        }
        assert_eq!(w.verify(&mut k, pid), VerifyResult::Intact);
        let st = read_state(&mut k, pid).unwrap();
        assert!(!st.text.is_empty());
    }

    #[test]
    fn save_key_persists_to_file() {
        let mut k = boot();
        let mut w = ViWorkload::new(2);
        let pid = w.setup(&mut k);
        let term = w.term.unwrap();
        k.term_input(term, b"hi").unwrap();
        k.term_input(term, &[0x17]).unwrap();
        for _ in 0..16 {
            k.run_step();
        }
        let fs = k.fs.clone();
        let ino = fs.lookup(&mut k.machine, FILE).unwrap().expect("saved");
        // Data may still be in the page cache; read through an open file.
        let fd = k.file_open(pid, FILE, oflags::READ).unwrap();
        let mut buf = [0u8; 2];
        k.file_read(pid, fd, &mut buf).unwrap();
        assert_eq!(&buf, b"hi");
        let _ = ino;
    }

    #[test]
    fn undo_reverts_inserts() {
        let mut k = boot();
        let mut w = ViWorkload::new(3);
        let pid = w.setup(&mut k);
        let term = w.term.unwrap();
        k.term_input(term, b"abc").unwrap();
        k.term_input(term, &[0x15, 0x15]).unwrap();
        for _ in 0..16 {
            k.run_step();
        }
        let st = read_state(&mut k, pid).unwrap();
        assert_eq!(st.text, b"a");
        assert_eq!(st.undo.len(), 1);
    }
}
