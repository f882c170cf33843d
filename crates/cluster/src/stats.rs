//! Per-rank traffic accounting.

use std::sync::atomic::{AtomicU64, Ordering};

/// Atomic traffic counters for one rank.
#[derive(Debug, Default)]
pub struct TrafficStats {
    pub messages_sent: AtomicU64,
    pub bytes_sent: AtomicU64,
    pub messages_received: AtomicU64,
    pub bytes_received: AtomicU64,
}

impl TrafficStats {
    pub(crate) fn record_send(&self, bytes: usize) {
        self.messages_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_recv(&self, bytes: usize) {
        self.messages_received.fetch_add(1, Ordering::Relaxed);
        self.bytes_received
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> TrafficSnapshot {
        TrafficSnapshot {
            messages_sent: self.messages_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            messages_received: self.messages_received.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of one rank's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrafficSnapshot {
    pub messages_sent: u64,
    pub bytes_sent: u64,
    pub messages_received: u64,
    pub bytes_received: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = TrafficStats::default();
        s.record_send(100);
        s.record_send(50);
        s.record_recv(100);
        let snap = s.snapshot();
        assert_eq!(snap.messages_sent, 2);
        assert_eq!(snap.bytes_sent, 150);
        assert_eq!(snap.messages_received, 1);
        assert_eq!(snap.bytes_received, 100);
    }
}
