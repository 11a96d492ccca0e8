//! The JOE story of §5.1: the unmodified editor dies after resurrection
//! because it treats an interrupted console read as fatal; the one-line
//! "reissue failed reads" fix makes kernel crashes completely transparent —
//! text, undo history, window layout and even the on-screen contents
//! survive.
//!
//! Run with: `cargo run --example editor_survives_crash`

use otherworld::apps::joe::{self, JoeWorkload};
use otherworld::apps::Workload;
use otherworld::core::{Otherworld, OtherworldConfig};
use otherworld::kernel::{KernelConfig, PanicCause, RunEvent};
use otherworld::simhw::machine::MachineConfig;

fn run_editor(unfixed: bool) -> (bool, String) {
    let mut ow = Otherworld::boot(
        MachineConfig::default(),
        KernelConfig::default(),
        OtherworldConfig::default(),
        otherworld::apps::full_registry(),
    )
    .expect("boot");

    let mut user = JoeWorkload::new(7);
    user.unfixed = unfixed;
    let pid = user.setup(ow.kernel_mut());
    for _ in 0..30 {
        user.drive(ow.kernel_mut(), pid);
    }
    let state = joe::read_state(ow.kernel_mut(), pid).expect("joe state");
    let summary = format!(
        "window0={}B window1={}B undo={} syntax={}",
        state.text[0].len(),
        state.text[1].len(),
        state.undo.len(),
        state.syntax
    );

    // Crash mid-session, with the editor blocked in a console read.
    ow.kernel_mut().pending_fault = Some(otherworld::kernel::PendingFault {
        cause: PanicCause::Oops("editor demo"),
        in_syscall: true,
    });
    // Feed a key so the editor enters term_read and the fault fires inside
    // the system call.
    let term = ow.kernel().procs[0].name.clone();
    let _ = term;
    for _ in 0..8 {
        if let RunEvent::Panicked = ow.kernel_mut().run_step() {
            break;
        }
    }
    assert!(ow.is_panicked(), "the queued fault must fire");

    ow.microreboot_now().expect("microreboot");

    // The resurrected editor's first console read returns ERESTART. The
    // unfixed JOE exits; the fixed one reissues the read.
    let new_pid = ow.kernel().procs.first().map(|p| p.pid);
    let Some(new_pid) = new_pid else {
        return (false, summary);
    };
    user.settle(ow.kernel_mut(), new_pid);
    let alive = ow.kernel().procs.iter().any(|p| p.name.starts_with("joe"));
    if !alive {
        return (false, summary);
    }
    let after = joe::read_state(ow.kernel_mut(), new_pid).expect("state");
    let after_summary = format!(
        "window0={}B window1={}B undo={} syntax={}",
        after.text[0].len(),
        after.text[1].len(),
        after.undo.len(),
        after.syntax
    );
    assert_eq!(summary, after_summary, "editor state must be preserved");
    (true, summary)
}

fn main() {
    println!("== JOE across a kernel crash (§5.1) ==\n");

    let (alive, state) = run_editor(true);
    println!("unfixed JOE  [{state}]");
    println!(
        "  -> after microreboot: {}",
        if alive {
            "survived (unexpected!)"
        } else {
            "TERMINATED ITSELF — it treats the interrupted read's error code as fatal"
        }
    );
    assert!(!alive);

    let (alive, state) = run_editor(false);
    println!("\nfixed JOE    [{state}]  (one line changed: reissue failed reads)");
    println!(
        "  -> after microreboot: {}",
        if alive {
            "ALIVE — windows, undo buffer and syntax mode all intact"
        } else {
            "died (unexpected!)"
        }
    );
    assert!(alive);
}
