//! Baseline static KV-cache management (paper §VI-A).
//!
//! Every admitted request reserves a KV region sized for the *maximum*
//! context length `T_max`, because the compiled instruction stream embeds
//! physical addresses for the worst case. Capacity utilization is then
//! `actual_bytes / reserved_bytes`, which Table II-style workloads drive
//! down to ~31–40% (paper Fig. 19).

use crate::{MemError, RequestId};
use std::collections::BTreeMap;

/// A static, `T_max`-reservation allocator for one PIM module.
#[derive(Debug, Clone)]
pub struct StaticAllocator {
    capacity_bytes: u64,
    reservation_bytes: u64,
    requests: BTreeMap<u64, u64>, // request id -> used bytes
}

impl StaticAllocator {
    /// Creates an allocator over `capacity_bytes`, reserving
    /// `reservation_bytes` (the `T_max`-sized KV footprint) per request.
    ///
    /// # Panics
    /// Panics if `reservation_bytes` is zero.
    pub fn new(capacity_bytes: u64, reservation_bytes: u64) -> Self {
        assert!(reservation_bytes > 0, "reservation must be nonzero");
        StaticAllocator {
            capacity_bytes,
            reservation_bytes,
            requests: BTreeMap::new(),
        }
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Per-request reservation in bytes.
    pub fn reservation_bytes(&self) -> u64 {
        self.reservation_bytes
    }

    /// Maximum number of concurrently admitted requests.
    pub fn max_requests(&self) -> u64 {
        self.capacity_bytes / self.reservation_bytes
    }

    /// Admits a request whose KV cache currently occupies `used_bytes`.
    ///
    /// # Errors
    /// [`MemError::OutOfMemory`] when all reservations are taken;
    /// [`MemError::DuplicateRequest`] if the id is already admitted.
    pub fn admit(&mut self, id: RequestId, used_bytes: u64) -> Result<(), MemError> {
        if self.requests.contains_key(&id.0) {
            return Err(MemError::DuplicateRequest(id));
        }
        let reserved = self.requests.len() as u64 * self.reservation_bytes;
        if reserved + self.reservation_bytes > self.capacity_bytes {
            return Err(MemError::OutOfMemory {
                requested: self.reservation_bytes,
                available: self.capacity_bytes - reserved,
            });
        }
        self.requests
            .insert(id.0, used_bytes.min(self.reservation_bytes));
        Ok(())
    }

    /// Grows a request's actual usage (decode appends K/V vectors). Usage
    /// is clamped to the reservation — the static scheme cannot exceed it.
    ///
    /// # Errors
    /// [`MemError::UnknownRequest`] if not admitted.
    pub fn grow(&mut self, id: RequestId, new_used_bytes: u64) -> Result<(), MemError> {
        match self.requests.get_mut(&id.0) {
            Some(u) => {
                *u = new_used_bytes.min(self.reservation_bytes);
                Ok(())
            }
            None => Err(MemError::UnknownRequest(id)),
        }
    }

    /// Releases a completed request's reservation.
    ///
    /// # Errors
    /// [`MemError::UnknownRequest`] if not admitted.
    pub fn release(&mut self, id: RequestId) -> Result<(), MemError> {
        self.requests
            .remove(&id.0)
            .map(|_| ())
            .ok_or(MemError::UnknownRequest(id))
    }

    /// Number of admitted requests.
    pub fn admitted(&self) -> usize {
        self.requests.len()
    }

    /// Bytes reserved (admitted requests x reservation).
    pub fn reserved_bytes(&self) -> u64 {
        self.requests.len() as u64 * self.reservation_bytes
    }

    /// Bytes actually holding KV data.
    pub fn used_bytes(&self) -> u64 {
        self.requests.values().sum()
    }

    /// Capacity utilization: actual KV bytes over *reserved* bytes — the
    /// paper's Fig. 19 metric. Returns 0 when nothing is admitted.
    pub fn capacity_utilization(&self) -> f64 {
        let reserved = self.reserved_bytes();
        if reserved == 0 {
            0.0
        } else {
            self.used_bytes() as f64 / reserved as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_bounded_by_capacity() {
        let mut a = StaticAllocator::new(1000, 300);
        assert_eq!(a.max_requests(), 3);
        for i in 0..3 {
            a.admit(RequestId(i), 100).unwrap();
        }
        let err = a.admit(RequestId(9), 100).unwrap_err();
        assert!(matches!(err, MemError::OutOfMemory { .. }));
    }

    #[test]
    fn duplicate_admit_rejected() {
        let mut a = StaticAllocator::new(1000, 300);
        a.admit(RequestId(1), 10).unwrap();
        assert!(matches!(
            a.admit(RequestId(1), 10),
            Err(MemError::DuplicateRequest(_))
        ));
    }

    #[test]
    fn release_frees_reservation() {
        let mut a = StaticAllocator::new(600, 300);
        a.admit(RequestId(1), 10).unwrap();
        a.admit(RequestId(2), 10).unwrap();
        assert!(a.admit(RequestId(3), 10).is_err());
        a.release(RequestId(1)).unwrap();
        a.admit(RequestId(3), 10).unwrap();
    }

    #[test]
    fn utilization_reflects_actual_over_reserved() {
        let mut a = StaticAllocator::new(1000, 400);
        a.admit(RequestId(1), 100).unwrap();
        a.admit(RequestId(2), 200).unwrap();
        // 300 used / 800 reserved.
        assert!((a.capacity_utilization() - 0.375).abs() < 1e-12);
    }

    #[test]
    fn growth_clamped_to_reservation() {
        let mut a = StaticAllocator::new(1000, 400);
        a.admit(RequestId(1), 0).unwrap();
        a.grow(RequestId(1), 10_000).unwrap();
        assert_eq!(a.used_bytes(), 400);
        assert!((a.capacity_utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_request_errors() {
        let mut a = StaticAllocator::new(1000, 400);
        assert!(a.grow(RequestId(5), 1).is_err());
        assert!(a.release(RequestId(5)).is_err());
    }

    #[test]
    fn empty_allocator_utilization_zero() {
        let a = StaticAllocator::new(1000, 400);
        assert_eq!(a.capacity_utilization(), 0.0);
        assert_eq!(a.admitted(), 0);
    }
}
