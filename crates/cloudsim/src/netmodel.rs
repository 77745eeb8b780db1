//! The network cost model (`T_net` in the paper's analysis).

use serde::{Deserialize, Serialize};

use crate::US_PER_SEC;

/// A latency + bandwidth pipe: transferring `b` bytes costs
/// `latency_us + b / bandwidth`. One such pipe connects the coordinator to
/// every cache node, and cache nodes to each other (EC2 intra-region
/// networking is flat).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetModel {
    /// One-way message latency in microseconds.
    pub latency_us: u64,
    /// Link bandwidth in bytes per second.
    pub bandwidth_bps: u64,
}

impl NetModel {
    /// EC2-intra-region-like: 0.5 ms latency, ~100 MB/s.
    pub fn lan() -> Self {
        Self {
            latency_us: 500,
            bandwidth_bps: 100 * 1024 * 1024,
        }
    }

    /// A slower WAN-ish pipe for sensitivity experiments.
    pub fn wan() -> Self {
        Self {
            latency_us: 40_000,
            bandwidth_bps: 10 * 1024 * 1024,
        }
    }

    /// An infinitely fast network (isolates compute effects in ablations).
    pub fn instant() -> Self {
        Self {
            latency_us: 0,
            bandwidth_bps: u64::MAX,
        }
    }

    /// Time to push `bytes` through the pipe, in microseconds.
    #[inline]
    pub fn transfer_us(&self, bytes: u64) -> u64 {
        let serialization = if self.bandwidth_bps == u64::MAX {
            0
        } else {
            // Round up: a partial byte-time still takes a tick.
            (bytes * US_PER_SEC).div_ceil(self.bandwidth_bps)
        };
        self.latency_us + serialization
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_is_latency_plus_serialization() {
        let n = NetModel {
            latency_us: 100,
            bandwidth_bps: 1_000_000, // 1 MB/s = 1 byte/us
        };
        assert_eq!(n.transfer_us(0), 100);
        assert_eq!(n.transfer_us(1000), 1100);
    }

    #[test]
    fn serialization_rounds_up() {
        let n = NetModel {
            latency_us: 0,
            bandwidth_bps: 3 * US_PER_SEC, // 3 bytes/us
        };
        assert_eq!(n.transfer_us(1), 1);
        assert_eq!(n.transfer_us(3), 1);
        assert_eq!(n.transfer_us(4), 2);
    }

    #[test]
    fn instant_network_is_free() {
        let n = NetModel::instant();
        assert_eq!(n.transfer_us(u64::MAX / US_PER_SEC), 0);
        assert_eq!(n.transfer_us(1 << 30), 0);
    }

    #[test]
    fn lan_moves_small_records_in_sub_millisecond() {
        // A shoreline result (< 1 KB) ships in well under a millisecond —
        // the hit path must be ~4 orders faster than the 23 s service.
        let n = NetModel::lan();
        assert!(n.transfer_us(1024) < 1000);
    }
}
