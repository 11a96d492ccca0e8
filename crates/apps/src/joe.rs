//! The JOE text editor analog (§5.1).
//!
//! JOE is a richer editor than vi: multiple windows, an undo buffer and
//! syntax highlighting. Initially it failed after resurrection because it
//! treated *any* error code from the console read as critical and
//! terminated itself; changing **one line** to reissue failed reads made
//! kernel crashes completely transparent (Table 2: 1 modified line). The
//! unfixed behaviour is preserved behind [`Joe::retry_reads`] so the
//! regression is demonstrable.
//!
//! Key protocol: as vi, plus `0x01` (^A) toggles the active window and
//! `0x06` (^F) toggles syntax highlighting.

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

/// Header cells: magic, active window, syntax flag, undo count, saved len.
const MAGIC_CELL: u64 = PROG_STATE_VADDR;
const ACTIVE_CELL: u64 = PROG_STATE_VADDR + 8;
const SYNTAX_CELL: u64 = PROG_STATE_VADDR + 16;
const UNDO_CELL: u64 = PROG_STATE_VADDR + 24;
const SAVED_CELL: u64 = PROG_STATE_VADDR + 32;
/// Per-window buffer length cells.
const LEN_CELLS: [u64; 2] = [PROG_STATE_VADDR + 40, PROG_STATE_VADDR + 48];

/// Window buffers.
const BUFS: [u64; 2] = [0x10000, 0x30000];
/// Capacity per window.
const BUF_CAP: u64 = 0x20000;
/// Undo log: 24-byte records `(window, op, ch)`.
const UNDO: u64 = 0x50000;
const UNDO_CAP: u64 = 0x1000;

const MAGIC: u64 = 0x2121_2121_454f_4a00; // "JOE!!!!"

const OP_INSERT: u64 = 1;
const OP_DELETE: u64 = 2;

/// Files saved by `^W` per window.
pub const FILES: [&str; 2] = ["/joe.0.txt", "/joe.1.txt"];

/// The JOE program.
pub struct Joe {
    /// The one-line fix: reissue console reads that return an error.
    pub retry_reads: bool,
}

impl Joe {
    fn push_undo(api: &mut dyn UserApi, win: u64, op: u64, ch: u8) -> Result<(), Errno> {
        let n = memio::get_u64(api, UNDO_CELL)?;
        if n < UNDO_CAP {
            api.mem_write_u64(UNDO + n * 24, win)?;
            api.mem_write_u64(UNDO + n * 24 + 8, op)?;
            api.mem_write_u64(UNDO + n * 24 + 16, ch as u64)?;
            memio::set_u64(api, UNDO_CELL, n + 1)?;
        }
        Ok(())
    }

    fn apply_key(api: &mut dyn UserApi, key: u8) -> Result<(), Errno> {
        let win = memio::get_u64(api, ACTIVE_CELL)? % 2;
        match key {
            0x01 => memio::set_u64(api, ACTIVE_CELL, (win + 1) % 2)?,
            0x06 => {
                let syn = memio::get_u64(api, SYNTAX_CELL)?;
                memio::set_u64(api, SYNTAX_CELL, syn ^ 1)?;
            }
            0x08 => {
                let len = memio::get_u64(api, LEN_CELLS[win as usize])?;
                if len > 0 {
                    let mut ch = [0u8];
                    api.mem_read(BUFS[win as usize] + len - 1, &mut ch)?;
                    memio::set_u64(api, LEN_CELLS[win as usize], len - 1)?;
                    Self::push_undo(api, win, OP_DELETE, ch[0])?;
                }
            }
            0x15 => {
                let n = memio::get_u64(api, UNDO_CELL)?;
                if n > 0 {
                    let uwin = api.mem_read_u64(UNDO + (n - 1) * 24)? % 2;
                    let op = api.mem_read_u64(UNDO + (n - 1) * 24 + 8)?;
                    let ch = api.mem_read_u64(UNDO + (n - 1) * 24 + 16)? as u8;
                    let len = memio::get_u64(api, LEN_CELLS[uwin as usize])?;
                    match op {
                        OP_INSERT if len > 0 => {
                            memio::set_u64(api, LEN_CELLS[uwin as usize], len - 1)?
                        }
                        OP_DELETE if len < BUF_CAP => {
                            api.mem_write(BUFS[uwin as usize] + len, &[ch])?;
                            memio::set_u64(api, LEN_CELLS[uwin as usize], len + 1)?;
                        }
                        _ => {}
                    }
                    memio::set_u64(api, UNDO_CELL, n - 1)?;
                }
            }
            0x17 => {
                let len = memio::get_u64(api, LEN_CELLS[win as usize])?;
                let mut text = vec![0u8; len as usize];
                if len > 0 {
                    api.mem_read(BUFS[win as usize], &mut text)?;
                }
                let fd = api.open(
                    FILES[win as usize],
                    oflags::WRITE | oflags::CREATE | oflags::TRUNC,
                )?;
                api.write(fd, &text)?;
                api.close(fd)?;
                memio::set_u64(api, SAVED_CELL, len)?;
            }
            b if (b' '..=b'~').contains(&b) || b == b'\n' => {
                let len = memio::get_u64(api, LEN_CELLS[win as usize])?;
                if len < BUF_CAP {
                    api.mem_write(BUFS[win as usize] + len, &[b])?;
                    memio::set_u64(api, LEN_CELLS[win as usize], len + 1)?;
                    Self::push_undo(api, win, OP_INSERT, b)?;
                }
            }
            _ => {}
        }
        Ok(())
    }
}

impl Program for Joe {
    fn step(&mut self, api: &mut dyn UserApi) -> StepResult {
        let mut key = [0u8];
        match api.term_read(&mut key) {
            Ok(1) => {
                let _ = api.term_write(&key);
                let _ = Self::apply_key(api, key[0]);
                StepResult::Running
            }
            Ok(_) => StepResult::Running,
            Err(Errno::WouldBlock) => {
                api.compute(1);
                StepResult::Running
            }
            Err(_) if self.retry_reads => {
                // The one-line fix: reissue the failed read next step.
                StepResult::Running
            }
            Err(_) => {
                // Unfixed JOE: any console read error is treated as
                // critical — the editor terminates itself (§5.1).
                StepResult::Exited(1)
            }
        }
    }

    fn save_state(&mut self, _api: &mut dyn UserApi) {}
}

/// Registers JOE (the fixed variant) and `joe-unfixed` (the original
/// behaviour) with the program registry.
pub fn register(r: &mut ProgramRegistry) {
    let init = |api: &mut dyn UserApi| {
        crate::memio::map_libraries(api, 6);
        let _ = api.mem_write_u64(MAGIC_CELL, MAGIC);
        for cell in [
            ACTIVE_CELL,
            SYNTAX_CELL,
            UNDO_CELL,
            SAVED_CELL,
            LEN_CELLS[0],
            LEN_CELLS[1],
        ] {
            let _ = memio::set_u64(api, cell, 0);
        }
    };
    r.register(
        "joe",
        move |api, _args| {
            init(api);
            Box::new(Joe { retry_reads: true })
        },
        |_api| Box::new(Joe { retry_reads: true }),
    );
    r.register(
        "joe-unfixed",
        move |api, _args| {
            init(api);
            Box::new(Joe { retry_reads: false })
        },
        |_api| Box::new(Joe { retry_reads: false }),
    );
}

/// Table 2 row.
pub fn meta() -> AppMeta {
    AppMeta {
        name: "JOE",
        crash_procedure: "Not required",
        modified_lines: 1,
    }
}

/// Editor state as seen by the remote log.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JoeState {
    /// Window texts.
    pub text: [Vec<u8>; 2],
    /// Active window.
    pub active: u64,
    /// Syntax-highlight flag.
    pub syntax: u64,
    /// Undo stack `(window, op, ch)`.
    pub undo: Vec<(u64, u64, u8)>,
}

fn shadow_apply(s: &mut JoeState, key: u8) {
    let win = (s.active % 2) as usize;
    match key {
        0x01 => s.active = (s.active + 1) % 2,
        0x06 => s.syntax ^= 1,
        0x08 => {
            if let Some(ch) = s.text[win].pop() {
                s.undo.push((win as u64, OP_DELETE, ch));
            }
        }
        0x15 => {
            if let Some((uwin, op, ch)) = s.undo.pop() {
                match op {
                    OP_INSERT => {
                        s.text[uwin as usize].pop();
                    }
                    OP_DELETE => s.text[uwin as usize].push(ch),
                    _ => {}
                }
            }
        }
        0x17 => {}
        b if ((b' '..=b'~').contains(&b) || b == b'\n') && (s.text[win].len() as u64) < BUF_CAP => {
            s.text[win].push(b);
            s.undo.push((win as u64, OP_INSERT, b));
        }
        _ => {}
    }
}

/// Reads the editor state back from user memory.
pub fn read_state(k: &mut Kernel, pid: u64) -> Option<JoeState> {
    let cell = |k: &mut Kernel, addr: u64| -> Option<u64> {
        let mut b = [0u8; 8];
        k.user_read(pid, addr, &mut b).ok()?;
        Some(u64::from_le_bytes(b))
    };
    let active = cell(k, ACTIVE_CELL)?;
    let syntax = cell(k, SYNTAX_CELL)?;
    let mut text: [Vec<u8>; 2] = [Vec::new(), Vec::new()];
    for w in 0..2 {
        let len = cell(k, LEN_CELLS[w])?.min(BUF_CAP);
        let mut buf = vec![0u8; len as usize];
        if len > 0 {
            k.user_read(pid, BUFS[w], &mut buf).ok()?;
        }
        text[w] = buf;
    }
    let nundo = cell(k, UNDO_CELL)?.min(UNDO_CAP);
    let mut undo = Vec::with_capacity(nundo as usize);
    for i in 0..nundo {
        let mut rec = [0u8; 24];
        k.user_read(pid, UNDO + i * 24, &mut rec).ok()?;
        undo.push((
            u64::from_le_bytes(rec[0..8].try_into().unwrap()),
            u64::from_le_bytes(rec[8..16].try_into().unwrap()),
            u64::from_le_bytes(rec[16..24].try_into().unwrap()) as u8,
        ));
    }
    Some(JoeState {
        text,
        active,
        syntax,
        undo,
    })
}

/// The JOE workload: typing across two windows with undo and saves.
pub struct JoeWorkload {
    rng: WorkRng,
    shadow: BatchShadow<JoeState>,
    term: Option<u32>,
    /// Drive the unfixed variant (for the regression demonstration).
    pub unfixed: bool,
}

impl JoeWorkload {
    /// Creates the workload with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        JoeWorkload {
            rng: WorkRng::new(seed),
            shadow: BatchShadow::new(JoeState::default()),
            term: None,
            unfixed: false,
        }
    }
}

fn gen_key(rng: &mut WorkRng) -> u8 {
    match rng.below(100) {
        0..=69 => rng.printable(),
        70..=77 => 0x08,
        78..=84 => 0x15,
        85..=90 => 0x01,
        91..=93 => 0x06,
        94..=96 => 0x17,
        _ => b'\n',
    }
}

impl Workload for JoeWorkload {
    fn name(&self) -> &'static str {
        if self.unfixed {
            "joe-unfixed"
        } else {
            "joe"
        }
    }

    fn setup(&mut self, k: &mut Kernel) -> u64 {
        let term = k.create_terminal().expect("terminal");
        self.term = Some(term);
        let mut spec = SpawnSpec::new(
            self.name(),
            Box::new(Joe {
                retry_reads: !self.unfixed,
            }),
        );
        spec.heap_pages = 128;
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
        self.term = terminal_of(k, pid).or(self.term);
    }

    fn verify(&mut self, k: &mut Kernel, _pid: u64) -> VerifyResult {
        verify_shadow(k, self.name(), &self.shadow, read_state, |_| {
            "editor state diverged from remote log".into()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_kernel as boot;

    #[test]
    fn windows_are_independent() {
        let mut k = boot();
        let mut w = JoeWorkload::new(1);
        let pid = w.setup(&mut k);
        let term = w.term.unwrap();
        // "ab" in window 0, toggle, "cd" in window 1.
        k.term_input(term, b"ab").unwrap();
        k.term_input(term, &[0x01]).unwrap();
        k.term_input(term, b"cd").unwrap();
        for _ in 0..32 {
            k.run_step();
        }
        let st = read_state(&mut k, pid).unwrap();
        assert_eq!(st.text[0], b"ab");
        assert_eq!(st.text[1], b"cd");
        assert_eq!(st.active, 1);
    }

    #[test]
    fn undo_crosses_windows() {
        let mut k = boot();
        let mut w = JoeWorkload::new(2);
        let pid = w.setup(&mut k);
        let term = w.term.unwrap();
        k.term_input(term, b"x").unwrap();
        k.term_input(term, &[0x01]).unwrap();
        k.term_input(term, b"y").unwrap();
        // Undo twice: removes 'y' from window 1 then 'x' from window 0.
        k.term_input(term, &[0x15, 0x15]).unwrap();
        for _ in 0..32 {
            k.run_step();
        }
        let st = read_state(&mut k, pid).unwrap();
        assert!(st.text[0].is_empty());
        assert!(st.text[1].is_empty());
    }

    #[test]
    fn random_workload_matches_shadow() {
        let mut k = boot();
        let mut w = JoeWorkload::new(3);
        let pid = w.setup(&mut k);
        for _ in 0..20 {
            w.drive(&mut k, pid);
        }
        assert_eq!(w.verify(&mut k, pid), VerifyResult::Intact);
    }
}
