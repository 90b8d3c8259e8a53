//! Interconnect cost model.
//!
//! The classic α–β model (`time = latency + bytes / bandwidth`) per
//! message, with the paper's GPU-aware-MPI distinction: without
//! GPU-aware MPI (Sierra-era stacks), every message pays an extra
//! device↔host staging copy on both ends, which is exactly why the
//! paper's V100 scaling rolls off first and why it names "GPU-aware MPI"
//! as the future fix.

use serde::Serialize;

/// An α–β interconnect with optional staging penalty.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct NetworkModel {
    /// Per-message latency (α), seconds. Includes software overhead.
    pub latency: f64,
    /// Link bandwidth (1/β), bytes/s.
    pub bandwidth: f64,
    /// Whether MPI can send device memory directly.
    pub gpu_aware: bool,
    /// Host↔device staging bandwidth (bytes/s) paid twice per message
    /// when not GPU-aware.
    pub staging_bw: f64,
}

/// Wire packet granularity, bytes. Payloads are charged rounded up to
/// whole packets: a NIC moves cache-line-sized flits, so a 9-byte halo
/// message costs a full packet, not nine bytes of bandwidth.
pub(crate) const PACKET_BYTES: f64 = 64.0;

impl NetworkModel {
    /// `bytes` rounded up to whole [`PACKET_BYTES`] packets — the size
    /// actually charged against the link.
    pub(crate) fn packet_ceil(bytes: f64) -> f64 {
        (bytes / PACKET_BYTES).ceil() * PACKET_BYTES
    }

    /// Time to send one `bytes`-sized message (packet-granular).
    pub fn message_time(&self, bytes: f64) -> f64 {
        let bytes = Self::packet_ceil(bytes);
        let wire = self.latency + bytes / self.bandwidth;
        if self.gpu_aware {
            wire
        } else {
            wire + 2.0 * bytes / self.staging_bw + self.latency
        }
    }

    /// Time for a neighbor exchange of `messages` concurrent messages of
    /// `bytes` each (packet-granular). VPIC's sends are non-blocking, so
    /// concurrent messages overlap on the wire; serialization shows up
    /// only through the per-message software latency.
    ///
    /// `messages` counts *directed* point-to-point sends — one per
    /// ordered `(src, dst)` rank pair with `src != dst` — the same
    /// convention the `cluster.messages` telemetry counter records, so
    /// model charges and counters agree on rank-pair counting. Periodic
    /// self-neighbor faces (see `crate::Decomposition::remote_faces`)
    /// are in-memory copies: never counted, never charged.
    pub fn exchange_time(&self, messages: usize, bytes: f64) -> f64 {
        if messages == 0 {
            return 0.0;
        }
        let bytes = Self::packet_ceil(bytes);
        // α costs accumulate (CPU issues each message); payload streams
        // concurrently, bounded by the link
        let alpha = self.latency * messages as f64;
        let beta = bytes * messages as f64 / self.bandwidth;
        let staging = if self.gpu_aware {
            0.0
        } else {
            2.0 * bytes * messages as f64 / self.staging_bw + self.latency * messages as f64
        };
        alpha + beta + staging
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(gpu_aware: bool) -> NetworkModel {
        NetworkModel {
            latency: 2e-6,
            bandwidth: 12.5e9,
            gpu_aware,
            staging_bw: 8e9,
        }
    }

    #[test]
    fn message_time_is_alpha_beta() {
        let n = net(true);
        let t = n.message_time(12.5e9 / 2.0);
        assert!((t - (2e-6 + 0.5)).abs() < 1e-9);
    }

    #[test]
    fn staging_penalty_applies_only_without_gpu_aware() {
        let aware = net(true).message_time(1e6);
        let staged = net(false).message_time(1e6);
        assert!(staged > aware + 2.0 * 1e6 / 8e9 - 1e-12);
        // and per message in the exchange Fig 10's strong scaling prices
        let (aware, staged) = (net(true).exchange_time(6, 1e6), net(false).exchange_time(6, 1e6));
        assert!(staged > aware + 6.0 * 2.0 * 1e6 / 8e9 - 1e-12);
    }

    #[test]
    fn exchange_scales_with_message_count() {
        let n = net(true);
        let one = n.exchange_time(1, 1e4);
        let six = n.exchange_time(6, 1e4);
        assert!(six > 5.0 * one && six < 7.0 * one);
        assert_eq!(n.exchange_time(0, 1e9), 0.0);
    }

    #[test]
    fn latency_dominates_small_messages() {
        let n = net(true);
        let t = n.exchange_time(6, 8.0);
        assert!((t - 6.0 * n.latency) / t < 0.01);
    }

    #[test]
    fn payloads_are_charged_in_whole_packets() {
        let n = net(true);
        // every sub-packet payload costs exactly one packet
        assert_eq!(n.message_time(1.0), n.message_time(PACKET_BYTES));
        assert_eq!(n.exchange_time(3, 9.0), n.exchange_time(3, PACKET_BYTES));
        // the next byte starts a second packet
        assert!(n.message_time(PACKET_BYTES + 1.0) > n.message_time(PACKET_BYTES));
        // exact multiples are unchanged by the rounding
        assert_eq!(NetworkModel::packet_ceil(128.0), 128.0);
        assert_eq!(NetworkModel::packet_ceil(0.0), 0.0);
    }
}
