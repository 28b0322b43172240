//! Packets and flow identity.

use fiveg_simcore::SimTime;
use serde::Serialize;

/// Maximum segment size used by the data sources, bytes. 1448 = 1500-byte
/// Ethernet MTU minus IP/TCP headers with timestamps.
pub const MSS_BYTES: u32 = 1448;

/// Flow identifier. Flow 0xFFFF_FFFF is reserved for cross-traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct FlowId(pub u32);

impl FlowId {
    /// The background cross-traffic pseudo-flow.
    pub const CROSS: FlowId = FlowId(u32::MAX);

    /// Whether this is the cross-traffic pseudo-flow.
    pub fn is_cross(self) -> bool {
        self == FlowId::CROSS
    }
}

/// A simulated packet (data segment or probe).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Packet {
    /// Owning flow.
    pub flow: FlowId,
    /// First payload byte's sequence number.
    pub seq: u64,
    /// Payload size, bytes.
    pub size: u32,
    /// Time the sender injected it.
    pub sent_at: SimTime,
    /// Whether this is a retransmission.
    pub retx: bool,
}

impl Packet {
    /// Sequence number one past the last payload byte.
    pub fn seq_end(&self) -> u64 {
        self.seq + self.size as u64
    }

    /// Size on the wire in bits.
    pub fn bits(&self) -> f64 {
        self.size as f64 * 8.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_arithmetic() {
        let p = Packet {
            flow: FlowId(1),
            seq: 1000,
            size: 1448,
            sent_at: SimTime::ZERO,
            retx: false,
        };
        assert_eq!(p.seq_end(), 2448);
        assert_eq!(p.bits(), 1448.0 * 8.0);
    }

    #[test]
    fn cross_flow_is_reserved() {
        assert!(FlowId::CROSS.is_cross());
        assert!(!FlowId(7).is_cross());
    }
}
