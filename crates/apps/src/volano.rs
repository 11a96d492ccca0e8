//! The VolanoMark chat-server analog (§6, Table 3).
//!
//! VolanoMark simulates a chat server with many client sessions; it is
//! highly parallel and **system-call intensive**, which makes it the
//! workload most sensitive to the memory-protected mode's per-syscall
//! page-table switches. Each incoming message is appended to the room
//! history and fanned out to every member of the room — one socket send
//! per member — so a single request costs ~10 syscalls and touches several
//! pages.

use crate::{
    memio,
    workload::{
        request_batch, start_server, verify_shadow, AppMeta, BatchShadow, VerifyResult, WorkRng,
        Workload,
    },
};
use ow_kernel::{
    program::{CrashAction, Program, ProgramRegistry, StepResult, UserApi, PROG_STATE_VADDR},
    Errno, Kernel,
};

/// Global cell: server socket id.
pub const SID_CELL: u64 = PROG_STATE_VADDR + 8;
/// Global cell: messages processed.
pub const COUNT_CELL: u64 = PROG_STATE_VADDR + 16;

/// Number of chat rooms.
pub const ROOMS: u64 = 4;
/// Users per room.
pub const USERS: u64 = 8;
/// Room history area: per room a length cell + byte buffer.
pub const ROOM_BASE: u64 = 0x40_0000;
/// Bytes per room area (first 8 bytes = length).
pub const ROOM_STRIDE: u64 = 0x1_0000;
/// History capacity per room.
pub const ROOM_CAP: u64 = ROOM_STRIDE - 8;
/// Per-user state pages (touched on every delivery — TLB pressure).
pub const USER_BASE: u64 = 0x50_0000;

/// Bytes of the longest wire message.
const MSG_MAX: usize = 3 + 255;

/// One chat message: `[room u8][user u8][len u8][text...]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChatMsg {
    /// Room index.
    pub room: u8,
    /// Sending user index.
    pub user: u8,
    /// Message text.
    pub text: Vec<u8>,
}

impl ChatMsg {
    /// Encodes to the wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![self.room, self.user, self.text.len() as u8];
        out.extend_from_slice(&self.text);
        out
    }

    /// Decodes from the wire format.
    pub fn decode(buf: &[u8]) -> Option<ChatMsg> {
        if buf.len() < 3 {
            return None;
        }
        let len = buf[2] as usize;
        if buf.len() < 3 + len {
            return None;
        }
        Some(ChatMsg {
            room: buf[0],
            user: buf[1],
            text: buf[3..3 + len].to_vec(),
        })
    }
}

fn room_addr(room: u8) -> u64 {
    ROOM_BASE + room as u64 * ROOM_STRIDE
}

fn user_addr(room: u8, user: u8) -> u64 {
    USER_BASE + (room as u64 * USERS + user as u64) * 4096
}

/// The chat server program.
pub struct Volano;

impl Volano {
    fn handle(api: &mut dyn UserApi, sock: u32, msg: &ChatMsg) -> Result<(), Errno> {
        if msg.room as u64 >= ROOMS || msg.user as u64 >= USERS {
            return Err(Errno::Inval);
        }
        // Append to the room history.
        let base = room_addr(msg.room);
        let len = api.mem_read_u64(base)?;
        let record = msg.encode();
        if len + record.len() as u64 <= ROOM_CAP {
            api.mem_write(base + 8 + len, &record)?;
            api.mem_write_u64(base, len + record.len() as u64)?;
        }
        // Fan out to every member of the room: one send per user, plus a
        // per-user delivery counter page (TLB pressure by design).
        for u in 0..USERS as u8 {
            let cell = user_addr(msg.room, u);
            let delivered = api.mem_read_u64(cell)?;
            api.mem_write_u64(cell, delivered + 1)?;
            api.sock_send(sock, &record)?;
        }
        let count = api.mem_read_u64(COUNT_CELL)?;
        api.mem_write_u64(COUNT_CELL, count + 1)
    }
}

impl Program for Volano {
    fn step(&mut self, api: &mut dyn UserApi) -> StepResult {
        memio::serve_step(api, SID_CELL, MSG_MAX, 1, |api, sock, buf| {
            if let Some(msg) = ChatMsg::decode(buf) {
                // Message formatting is cheap; the cost is the fan-out.
                api.compute(900);
                memio::churn(api, ROOM_BASE, 80, 36, msg.user as u64);
                let _ = Self::handle(api, sock, &msg);
            }
        })
    }

    fn save_state(&mut self, _api: &mut dyn UserApi) {}

    /// An advanced crash procedure in the §3.4 sense: the room histories
    /// and delivery counters were fully resurrected; only the sockets are
    /// gone, and the server re-establishes those itself, then continues.
    fn crash_procedure(&mut self, api: &mut dyn UserApi, _failed: u32) -> CrashAction {
        let _ = api.mem_write_u64(SID_CELL, u64::MAX);
        CrashAction::Continue
    }
}

/// Registers the chat server with the program registry.
pub fn register(r: &mut ProgramRegistry) {
    r.register(
        "volano",
        |api, _args| {
            let _ = api.mmap_anon(ROOM_BASE, ROOMS * ROOM_STRIDE / 4096);
            let _ = api.mmap_anon(USER_BASE, ROOMS * USERS);
            for room in 0..ROOMS as u8 {
                let _ = api.mem_write_u64(room_addr(room), 0);
            }
            let _ = api.mem_write_u64(SID_CELL, u64::MAX);
            let _ = api.mem_write_u64(COUNT_CELL, 0);
            let _ = api.register_crash_proc();
            Box::new(Volano)
        },
        |_api| Box::new(Volano),
    );
}

/// Metadata (Volano is a benchmark, not a Table 2 application).
pub fn meta() -> AppMeta {
    AppMeta {
        name: "Volano",
        crash_procedure: "n/a (benchmark)",
        modified_lines: 0,
    }
}

/// Shadow room histories.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChatState {
    /// Serialized history per room.
    pub rooms: Vec<Vec<u8>>,
}

impl ChatState {
    fn new() -> Self {
        ChatState {
            rooms: vec![Vec::new(); ROOMS as usize],
        }
    }
}

fn shadow_apply(s: &mut ChatState, msg: &ChatMsg) {
    let record = msg.encode();
    let hist = &mut s.rooms[msg.room as usize];
    if hist.len() + record.len() <= ROOM_CAP as usize {
        hist.extend_from_slice(&record);
    }
}

/// Reads room histories from user memory.
pub fn read_rooms(k: &mut Kernel, pid: u64) -> Option<ChatState> {
    let mut s = ChatState::new();
    for room in 0..ROOMS as u8 {
        let mut lenb = [0u8; 8];
        k.user_read(pid, room_addr(room), &mut lenb).ok()?;
        let len = u64::from_le_bytes(lenb).min(ROOM_CAP);
        let mut hist = vec![0u8; len as usize];
        if len > 0 {
            k.user_read(pid, room_addr(room) + 8, &mut hist).ok()?;
        }
        s.rooms[room as usize] = hist;
    }
    Some(s)
}

/// The Volano workload: chat clients hammering the server.
pub struct VolanoWorkload {
    rng: WorkRng,
    shadow: BatchShadow<ChatState>,
}

impl VolanoWorkload {
    /// Creates the workload with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        VolanoWorkload {
            rng: WorkRng::new(seed),
            shadow: BatchShadow::new(ChatState::new()),
        }
    }
}

fn gen_msg(rng: &mut WorkRng) -> ChatMsg {
    let len = 8 + rng.below(24) as usize;
    ChatMsg {
        room: rng.below(ROOMS) as u8,
        user: rng.below(USERS) as u8,
        text: (0..len).map(|_| rng.printable()).collect(),
    }
}

impl Workload for VolanoWorkload {
    fn name(&self) -> &'static str {
        "volano"
    }

    fn setup(&mut self, k: &mut Kernel) -> u64 {
        start_server(k, "volano", Box::new(Volano))
    }

    fn drive(&mut self, k: &mut Kernel, pid: u64) {
        request_batch(
            k,
            pid,
            SID_CELL,
            &mut self.shadow,
            || gen_msg(&mut self.rng),
            ChatMsg::encode,
            shadow_apply,
        );
    }

    fn verify(&mut self, k: &mut Kernel, _pid: u64) -> VerifyResult {
        verify_shadow(k, "volano", &self.shadow, read_rooms, |_| {
            "room histories diverge from the client log".into()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{test_kernel as boot, workload::listener};

    #[test]
    fn codec_round_trip() {
        let m = ChatMsg {
            room: 2,
            user: 5,
            text: b"hey there".to_vec(),
        };
        assert_eq!(ChatMsg::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn chat_history_matches_shadow() {
        let mut k = boot();
        let mut w = VolanoWorkload::new(11);
        let pid = w.setup(&mut k);
        for _ in 0..25 {
            w.drive(&mut k, pid);
        }
        assert_eq!(w.verify(&mut k, pid), VerifyResult::Intact);
        let rooms = read_rooms(&mut k, pid).unwrap();
        assert!(rooms.rooms.iter().any(|r| !r.is_empty()));
    }

    #[test]
    fn fanout_sends_to_every_user() {
        let mut k = boot();
        let mut w = VolanoWorkload::new(12);
        let pid = w.setup(&mut k);
        for _ in 0..4 {
            k.run_step();
        }
        let sid = listener(&mut k, pid, SID_CELL).unwrap();
        let m = ChatMsg {
            room: 0,
            user: 0,
            text: b"hello".to_vec(),
        };
        k.sock_deliver(pid, sid, &m.encode()).unwrap();
        for _ in 0..8 {
            k.run_step();
        }
        let out = k.sock_drain(pid, sid).unwrap();
        assert_eq!(out.len(), USERS as usize);
    }
}
