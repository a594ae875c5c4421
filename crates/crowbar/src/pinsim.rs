//! A stand-in for running an application "under Pin with no
//! instrumentation" (Figure 9's middle bar).
//!
//! Pin rewrites every fetched basic block once and thereafter executes the
//! cached instrumented version; its overhead is therefore a per-event tax
//! much smaller than cb-log's (which also materialises trace records). The
//! [`PinSim`] sink models that tax: it receives every instrumentation event
//! the kernel emits and does a small, constant amount of work per event
//! (mixing the event into a running checksum) without storing anything.
//! Installing `PinSim` is the reproduction's "Pin-only" configuration;
//! installing [`crate::CbLog`] is the "Crowbar" configuration; installing
//! nothing is "native".

use std::sync::atomic::{AtomicU64, Ordering};

use wedge_core::{AccessSink, AllocEvent, CallEvent, MemAccessEvent, ViolationRecord};

/// The Pin-only instrumentation overhead model.
#[derive(Debug, Default)]
pub struct PinSim {
    checksum: AtomicU64,
    events: AtomicU64,
}

impl PinSim {
    /// Create a fresh sink.
    pub fn new() -> Self {
        PinSim::default()
    }

    fn charge(&self, value: u64) {
        // A handful of arithmetic operations per event: the analogue of the
        // jump into Pin's code cache and back.
        let mut x = self.checksum.load(Ordering::Relaxed) ^ value;
        x = x.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(17);
        self.checksum.store(x, Ordering::Relaxed);
        self.events.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of events charged so far.
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// The accumulated checksum (read by benches so the work is not
    /// optimised away).
    pub fn checksum(&self) -> u64 {
        self.checksum.load(Ordering::Relaxed)
    }
}

impl AccessSink for PinSim {
    fn on_access(&self, event: &MemAccessEvent) {
        self.charge(event.offset as u64 ^ (event.len as u64) << 16);
    }
    fn on_alloc(&self, event: &AllocEvent) {
        self.charge(event.size as u64);
    }
    fn on_call(&self, event: &CallEvent) {
        self.charge(event.function.len() as u64);
    }
    fn on_violation(&self, _record: &ViolationRecord) {
        self.charge(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wedge_core::Wedge;

    #[test]
    fn charges_per_event_without_storing_records() {
        let wedge = Wedge::init();
        let pin = Arc::new(PinSim::new());
        wedge.kernel().set_tracer(Some(pin.clone()));
        let root = wedge.root();
        let tag = root.tag_new().unwrap();
        let buf = root.smalloc_init(tag, b"abc").unwrap();
        for _ in 0..10 {
            root.read_all(&buf).unwrap();
        }
        assert!(pin.events() >= 11, "one alloc write + ten reads");
        assert_ne!(pin.checksum(), 0);
    }
}
