//! Pcap-like capture of link traffic: what crossed the wire, in which
//! direction, and whether an interposer forwarded or forged it.

use crate::mitm::Direction;

/// What happened to a message at the observation point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceAction {
    /// The message was passed through unmodified.
    Forwarded,
    /// The message was fabricated by the interposer.
    Injected,
}

/// One captured message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Monotonic sequence number within the trace.
    pub seq: u64,
    /// Direction of travel.
    pub direction: Direction,
    /// What the observer did with the message.
    pub action: TraceAction,
    /// The message bytes.
    pub payload: Vec<u8>,
}

impl TraceEntry {
    pub(crate) fn forwarded(direction: Direction, payload: &[u8]) -> Self {
        TraceEntry {
            seq: 0,
            direction,
            action: TraceAction::Forwarded,
            payload: payload.to_vec(),
        }
    }

    pub(crate) fn injected(direction: Direction, payload: &[u8]) -> Self {
        TraceEntry {
            seq: 0,
            direction,
            action: TraceAction::Injected,
            payload: payload.to_vec(),
        }
    }
}

/// An ordered capture of messages.
#[derive(Debug, Default, Clone)]
pub struct NetTrace {
    entries: Vec<TraceEntry>,
    next_seq: u64,
}

impl NetTrace {
    /// Create an empty trace.
    pub fn new() -> Self {
        NetTrace::default()
    }

    /// Append an entry, assigning it the next sequence number.
    pub fn record(&mut self, mut entry: TraceEntry) {
        entry.seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push(entry);
    }

    /// All captured entries in order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Total payload bytes captured.
    fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.payload.len() as u64).sum()
    }

    /// Number of messages captured in a given direction.
    fn count_in(&self, direction: Direction) -> usize {
        self.entries
            .iter()
            .filter(|e| e.direction == direction)
            .count()
    }

    /// Render a short human-readable summary (used by the examples).
    pub fn summary(&self) -> String {
        format!(
            "{} messages, {} bytes ({} c→s, {} s→c)",
            self.entries.len(),
            self.total_bytes(),
            self.count_in(Direction::ClientToServer),
            self.count_in(Direction::ServerToClient),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_numbers_are_monotonic() {
        let mut t = NetTrace::new();
        t.record(TraceEntry::forwarded(Direction::ClientToServer, b"a"));
        t.record(TraceEntry::injected(Direction::ServerToClient, b"bb"));
        t.record(TraceEntry::forwarded(Direction::ClientToServer, b"ccc"));
        let seqs: Vec<u64> = t.entries().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(t.total_bytes(), 6);
        assert_eq!(t.count_in(Direction::ClientToServer), 2);
        assert_eq!(t.count_in(Direction::ServerToClient), 1);
    }

    #[test]
    fn summary_mentions_counts() {
        let mut t = NetTrace::new();
        t.record(TraceEntry::forwarded(Direction::ClientToServer, b"xyz"));
        let s = t.summary();
        assert!(s.contains("1 messages"));
        assert!(s.contains("3 bytes"));
    }
}
