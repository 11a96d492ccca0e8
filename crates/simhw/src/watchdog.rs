//! Hardware watchdog timer.
//!
//! One of the robustness fixes that raised the paper's resurrection rate
//! from 89% to 97% (§6): when the main kernel stalls (a hang rather than a
//! clean panic), a chipset watchdog fires an NMI whose handler starts the
//! microreboot. The watchdog is optional, mirroring the ablation.

/// A deadline-based watchdog timer.
#[derive(Debug, Clone)]
pub struct Watchdog {
    enabled: bool,
    timeout_cycles: u64,
    last_pet: u64,
    fired: bool,
}

impl Watchdog {
    /// Creates a watchdog with the given timeout; starts disabled.
    pub fn new(timeout_cycles: u64) -> Self {
        Watchdog {
            enabled: false,
            timeout_cycles,
            last_pet: 0,
            fired: false,
        }
    }

    /// Enables the watchdog, starting the countdown at `now`.
    pub fn enable(&mut self, now: u64) {
        self.enabled = true;
        self.last_pet = now;
        self.fired = false;
    }

    /// Disables the watchdog.
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// Resets the countdown ("pets" the dog). The kernel does this from its
    /// timer tick while healthy.
    pub fn pet(&mut self, now: u64) {
        self.last_pet = now;
    }

    /// Returns `true` exactly once when the deadline has passed — the NMI.
    pub fn check_fire(&mut self, now: u64) -> bool {
        if self.enabled && !self.fired && now.saturating_sub(self.last_pet) >= self.timeout_cycles {
            self.fired = true;
            return true;
        }
        false
    }

    /// Re-arms a fired watchdog: restarts the countdown at `now` and clears
    /// the one-shot `fired` latch, without toggling the enabled state. The
    /// crash kernel's recovery supervisor uses this to guard each process
    /// resurrection with a fresh deadline inside a single microreboot —
    /// `enable()` would work too, but `rearm` keeps a disabled watchdog
    /// disabled (an un-armed dog must never start firing because a guard
    /// loop reset it).
    pub fn rearm(&mut self, now: u64) {
        self.last_pet = now;
        self.fired = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_never_fires() {
        let mut w = Watchdog::new(100);
        assert!(!w.check_fire(1_000_000));
    }

    #[test]
    fn fires_once_after_timeout() {
        let mut w = Watchdog::new(100);
        w.enable(0);
        assert!(!w.check_fire(50));
        assert!(w.check_fire(150));
        assert!(!w.check_fire(200), "must fire only once");
    }

    #[test]
    fn rearm_allows_a_second_fire() {
        let mut w = Watchdog::new(100);
        w.enable(0);
        assert!(w.check_fire(150));
        assert!(!w.check_fire(200), "latched until rearmed");
        w.rearm(200);
        assert!(!w.check_fire(250), "rearm restarts the countdown at now");
        assert!(w.check_fire(300), "fires again after a fresh timeout");
    }

    #[test]
    fn rearm_keeps_a_disabled_watchdog_disabled() {
        let mut w = Watchdog::new(100);
        w.rearm(0);
        assert!(!w.check_fire(1_000_000));
    }

    #[test]
    fn petting_defers_the_deadline() {
        let mut w = Watchdog::new(100);
        w.enable(0);
        w.pet(90);
        assert!(!w.check_fire(150));
        assert!(w.check_fire(190));
    }
}
