//! Disk service-time model.
//!
//! A request's service time is `overhead + positioning + transfer`, where
//! positioning (seek + half rotation) is skipped for sequential accesses —
//! the fast path journaling file systems like AdvFS are built around
//! (\[Hagmann87\], \[Rosenblum92\]) — and a block that continues a
//! multi-block command pays its transfer alone.

use crate::time::SimTime;

/// Positioning class of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Positioning {
    /// Head already in position (next consecutive block, or a forced
    /// sequential stream like a journal append).
    Sequential,
    /// Same block as the previous request: a full rotation, no seek.
    SameBlock,
    /// Anywhere else: average seek plus half a rotation.
    Random,
    /// The next block of the command the previous request belonged to:
    /// the drive streams it on without a new command, so it pays neither
    /// the per-request overhead nor any positioning — its transfer only.
    Continued,
}

/// Mechanical and interface parameters of the simulated drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskModel {
    /// Average seek time, microseconds.
    pub avg_seek_us: u64,
    /// Half-rotation latency, microseconds.
    pub half_rotation_us: u64,
    /// Sustained media transfer rate, bytes per second.
    pub transfer_bytes_per_sec: u64,
    /// Fixed per-request controller/driver overhead, microseconds.
    pub per_request_overhead_us: u64,
}

impl DiskModel {
    /// A 1996-class SCSI drive, matching the paper's DEC 3000/600 setup:
    /// ~9 ms average seek, 5400 RPM (5.6 ms half rotation), 5 MB/s media
    /// rate, 0.5 ms per-request overhead. One random 8 KB access ≈ 16.7 ms.
    pub fn paper_scsi() -> Self {
        DiskModel {
            avg_seek_us: 9_000,
            half_rotation_us: 5_600,
            transfer_bytes_per_sec: 5 * 1024 * 1024,
            per_request_overhead_us: 500,
        }
    }

    /// An instant disk (zero latency): isolates CPU/memory costs in tests.
    pub fn instant() -> Self {
        DiskModel {
            avg_seek_us: 0,
            half_rotation_us: 0,
            transfer_bytes_per_sec: u64::MAX,
            per_request_overhead_us: 0,
        }
    }

    /// Service time for one request of `bytes`, sequential or random.
    pub fn service_time(&self, bytes: u64, sequential: bool) -> SimTime {
        self.service_time_kind(
            bytes,
            if sequential {
                Positioning::Sequential
            } else {
                Positioning::Random
            },
        )
    }

    /// Service time with an explicit positioning class.
    pub fn service_time_kind(&self, bytes: u64, kind: Positioning) -> SimTime {
        let (overhead, positioning) = match kind {
            Positioning::Continued => (0, 0),
            Positioning::Sequential => (self.per_request_overhead_us, 0),
            // Full rotation, no seek: the head just passed this sector.
            Positioning::SameBlock => (self.per_request_overhead_us, 2 * self.half_rotation_us),
            Positioning::Random => (
                self.per_request_overhead_us,
                self.avg_seek_us + self.half_rotation_us,
            ),
        };
        let transfer = if self.transfer_bytes_per_sec == u64::MAX {
            0
        } else {
            // Round up: a partial microsecond still occupies the bus.
            (bytes * 1_000_000).div_ceil(self.transfer_bytes_per_sec)
        };
        SimTime::from_micros(overhead + positioning + transfer)
    }
}

impl Default for DiskModel {
    fn default() -> Self {
        DiskModel::paper_scsi()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_8k_access_is_milliseconds() {
        let m = DiskModel::paper_scsi();
        let t = m.service_time(8192, false);
        // 500 + 9000 + 5600 + ~1563 ≈ 16.7 ms
        assert!(t >= SimTime::from_millis(15), "got {t}");
        assert!(t <= SimTime::from_millis(20), "got {t}");
    }

    #[test]
    fn sequential_skips_positioning() {
        let m = DiskModel::paper_scsi();
        let seq = m.service_time(8192, true);
        let rnd = m.service_time(8192, false);
        assert_eq!(
            rnd.as_micros() - seq.as_micros(),
            m.avg_seek_us + m.half_rotation_us
        );
    }

    #[test]
    fn transfer_scales_with_size() {
        let m = DiskModel::paper_scsi();
        let small = m.service_time(8192, true);
        let big = m.service_time(64 * 1024, true);
        assert!(big > small);
    }

    #[test]
    fn instant_disk_is_free() {
        let m = DiskModel::instant();
        assert_eq!(m.service_time(1 << 20, false), SimTime::ZERO);
    }
}

#[cfg(test)]
mod positioning_tests {
    use super::*;

    #[test]
    fn same_block_costs_a_full_rotation() {
        let m = DiskModel::paper_scsi();
        let same = m.service_time_kind(8192, Positioning::SameBlock);
        let seq = m.service_time_kind(8192, Positioning::Sequential);
        let rnd = m.service_time_kind(8192, Positioning::Random);
        assert_eq!(
            same.as_micros() - seq.as_micros(),
            2 * m.half_rotation_us,
            "same-block = one full rotation"
        );
        assert!(seq < same && same < rnd);
    }

    #[test]
    fn continued_block_pays_its_transfer_only() {
        let m = DiskModel::paper_scsi();
        let cont = m.service_time_kind(8192, Positioning::Continued);
        let seq = m.service_time_kind(8192, Positioning::Sequential);
        assert_eq!(
            seq.as_micros() - cont.as_micros(),
            m.per_request_overhead_us
        );
        assert_eq!(
            cont.as_micros(),
            (8192 * 1_000_000u64).div_ceil(m.transfer_bytes_per_sec)
        );
    }
}
