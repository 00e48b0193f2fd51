//! Identifier newtypes shared across the workspace.

use hws_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Identifies a job within one trace. Ids are assigned in submission order,
/// which also makes them a deterministic FCFS tie-breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

/// Identifies an allocation project (the unit the paper uses to assign job
/// types: "we group jobs by their project names and assume that all jobs
/// belonging to one project have the same job types").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProjectId(pub u32);

/// A `HashMap` keyed by [`JobId`] under [`JobIdHasher`]: the map type for
/// every per-job table on the simulator's hot path.
pub type JobMap<V> = HashMap<JobId, V, BuildHasherDefault<JobIdHasher>>;

/// One-multiply hash for [`JobId`] keys.
///
/// `finish` is a folded multiply, the 128-bit product of the id and
/// ⌊2⁶⁴/φ⌋ with its high half XORed onto its low half, followed by one
/// xorshift. hashbrown picks buckets from the low bits of the hash, and
/// the low bits of a plain `id * K` depend only on the low bits of the
/// id, so ids that differ only in their high bits (`k << 32`, `k << 40`)
/// would all share one bucket. The fold carries
/// every input bit into the low bits; the xorshift breaks up the lattice
/// the fold alone leaves on such ids (without it, `k << 40` for
/// k < 4,096 fills 43% of 4,096 buckets, against 63% for a random hash).
///
/// Threat model: the hash is unseeded, like the job table's `JobIndex`
/// (`hws-core`), so ids chosen to collide can make the maps degrade to
/// linear probing. Job ids come from the trace or from the service's own
/// submitter, not from an adversary; a front end that accepts ids from
/// untrusted clients should remap them first. Iteration order over a
/// [`JobMap`] is a fixed function of its contents and history, and no
/// output of the simulator depends on it.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobIdHasher(u64);

impl JobIdHasher {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
}

impl Hasher for JobIdHasher {
    /// Fallback for keys that are not a single `u64`: FNV-1a over the
    /// bytes. `JobId` hashes through [`Hasher::write_u64`] and never
    /// lands here.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = self.0.rotate_left(29) ^ n;
    }

    #[inline]
    fn finish(&self) -> u64 {
        let p = u128::from(self.0) * u128::from(Self::K);
        let h = (p as u64) ^ ((p >> 64) as u64);
        h ^ (h >> 29)
    }
}

impl Snap for JobId {
    #[inline]
    fn put(&self, w: &mut SnapWriter) {
        self.0.put(w);
    }
    #[inline]
    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(JobId(u64::get(r)?))
    }
}

impl Snap for ProjectId {
    #[inline]
    fn put(&self, w: &mut SnapWriter) {
        self.0.put(w);
    }
    #[inline]
    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(ProjectId(u32::get(r)?))
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "J{}", self.0)
    }
}

impl fmt::Display for ProjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(JobId(7).to_string(), "J7");
        assert_eq!(ProjectId(3).to_string(), "P3");
    }

    fn low12(id: u64) -> usize {
        let mut h = JobIdHasher::default();
        std::hash::Hash::hash(&JobId(id), &mut h);
        (h.finish() & 0xFFF) as usize
    }

    /// Distinct low-12-bit buckets and the fullest bucket's load.
    fn spread(ids: impl Iterator<Item = u64>) -> (usize, u32) {
        let mut load = vec![0u32; 4_096];
        for id in ids {
            load[low12(id)] += 1;
        }
        let used = load.iter().filter(|&&n| n > 0).count();
        (used, load.into_iter().max().unwrap_or(0))
    }

    /// Ids that differ only above bit 32 must still spread over the low
    /// bits hashbrown indexes by. A plain `id * K` maps every `k << 32`
    /// and every `k << 40` to bucket 0.
    #[test]
    fn high_bit_ids_spread_over_low_bits() {
        for shift in [32, 40] {
            let (used, max) = spread((0..4_096u64).map(|k| k << shift));
            // 4,096 ids into 4,096 buckets: uniform hashing fills ~63%
            // (2,589) with a fullest bucket of about 6.
            assert!(used > 2_400, "k << {shift}: {used} of 4096 buckets used");
            assert!(max <= 8, "k << {shift}: a bucket holds {max} ids");
        }
        // Dense trace ids spread too.
        let (used, _) = spread(0..4_096u64);
        assert!(used > 2_400, "dense ids: {used} of 4096 buckets used");
    }

    #[test]
    fn job_map_keys_by_id() {
        let mut m: JobMap<u32> = JobMap::default();
        m.insert(JobId(7), 1);
        m.insert(JobId(7 << 40), 2);
        assert_eq!(m[&JobId(7)], 1);
        assert_eq!(m[&JobId(7 << 40)], 2);
        assert!(!m.contains_key(&JobId(8)));
    }

    #[test]
    fn ordering_follows_numeric_value() {
        assert!(JobId(2) < JobId(10));
        assert!(ProjectId(0) < ProjectId(1));
    }
}
