//! Arena-backed job storage: struct-of-arrays columns keyed by dense slot
//! indexes, an open-addressing id→slot map, and a free list recycling the
//! slots of retired jobs.
//!
//! This is what makes streaming replay O(active jobs) instead of O(trace):
//! the driver admits a job's spec+state when its first event is injected
//! and retires both the moment the job reaches a terminal status, so the
//! resident set tracks the live window of the workload, not its length.
//! It is also the per-event hot path — every dispatch resolves at least
//! one `JobId`, and the previous `HashMap<JobId, usize>` paid SipHash plus
//! control-byte probing for ids that are small, dense, and long-lived.
//! The private `JobIndex` replaces that with one multiply and a short
//! linear probe.

use crate::jobstate::JobState;
use hws_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};
use hws_workload::{JobId, JobSpec};

/// Vacant-bucket sentinel. Job ids are validated against it on admit; no
/// real trace carries `u64::MAX` as an id.
const EMPTY: u64 = u64::MAX;

/// Fibonacci-hash open-addressing map from job id to arena slot.
///
/// Linear probing with backward-shift deletion: lookups are a handful of
/// sequential `u64` compares, and removals compact the probe chain in
/// place so no tombstones accumulate over a million admit/retire cycles.
#[derive(Debug, Clone)]
struct JobIndex {
    keys: Box<[u64]>,
    slots: Box<[u32]>,
    /// Buckets = `1 << log2`.
    log2: u32,
    len: usize,
}

impl JobIndex {
    fn with_log2(log2: u32) -> Self {
        let n = 1usize << log2;
        JobIndex {
            keys: vec![EMPTY; n].into_boxed_slice(),
            slots: vec![0; n].into_boxed_slice(),
            log2,
            len: 0,
        }
    }

    /// Home bucket: multiply by ⌊2⁶⁴/φ⌋ and keep the top `log2` bits, so
    /// consecutive ids scatter instead of clustering into one probe chain.
    #[inline]
    fn bucket(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - self.log2)) as usize
    }

    #[inline]
    fn mask(&self) -> usize {
        (1usize << self.log2) - 1
    }

    #[inline]
    fn get(&self, key: u64) -> Option<u32> {
        let mask = self.mask();
        let mut i = self.bucket(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(self.slots[i]);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    fn insert(&mut self, key: u64, slot: u32) {
        assert_ne!(key, EMPTY, "job id collides with the vacancy sentinel");
        // Grow at 7/8 load; probes stay short and growth stays rare.
        if (self.len + 1) * 8 > (1usize << self.log2) * 7 {
            self.grow();
        }
        let mask = self.mask();
        let mut i = self.bucket(key);
        loop {
            let k = self.keys[i];
            if k == EMPTY {
                self.keys[i] = key;
                self.slots[i] = slot;
                self.len += 1;
                return;
            }
            assert_ne!(k, key, "job {key} admitted twice");
            i = (i + 1) & mask;
        }
    }

    fn remove(&mut self, key: u64) -> Option<u32> {
        let mask = self.mask();
        let mut i = self.bucket(key);
        loop {
            let k = self.keys[i];
            if k == EMPTY {
                return None;
            }
            if k == key {
                break;
            }
            i = (i + 1) & mask;
        }
        let slot = self.slots[i];
        // Backward-shift deletion: pull every displaced follower over the
        // hole so probe chains never cross a vacant bucket.
        let mut hole = i;
        let mut j = (i + 1) & mask;
        loop {
            let k = self.keys[j];
            if k == EMPTY {
                break;
            }
            let home = self.bucket(k);
            // `k` may fill the hole only if its home bucket is not on the
            // probe path strictly after the hole.
            if hole.wrapping_sub(home) & mask <= j.wrapping_sub(home) & mask {
                self.keys[hole] = k;
                self.slots[hole] = self.slots[j];
                hole = j;
            }
            j = (j + 1) & mask;
        }
        self.keys[hole] = EMPTY;
        self.len -= 1;
        Some(slot)
    }

    #[cold]
    fn grow(&mut self) {
        let bigger = JobIndex::with_log2(self.log2 + 1);
        let old = std::mem::replace(self, bigger);
        for (i, &k) in old.keys.iter().enumerate() {
            if k != EMPTY {
                self.insert(k, old.slots[i]);
            }
        }
    }
}

/// Arena of live jobs: parallel `specs`/`states` columns indexed by dense
/// slot, with retired slots recycled through a free list. Resident memory
/// is proportional to the **peak live** job count, never the trace length.
#[derive(Debug, Clone)]
pub struct JobTable {
    specs: Vec<JobSpec>,
    states: Vec<JobState>,
    /// Per-slot occupancy (needed because retired slots keep stale
    /// spec/state values until reused).
    occupied: Vec<bool>,
    free: Vec<u32>,
    index: JobIndex,
    n_live: usize,
    peak_live: usize,
    admitted: u64,
}

impl Default for JobTable {
    fn default() -> Self {
        Self::new()
    }
}

impl JobTable {
    pub fn new() -> Self {
        JobTable {
            specs: Vec::new(),
            states: Vec::new(),
            occupied: Vec::new(),
            free: Vec::new(),
            index: JobIndex::with_log2(6),
            n_live: 0,
            peak_live: 0,
            admitted: 0,
        }
    }

    /// Admit a job, creating its dynamic state. Returns the slot.
    ///
    /// # Panics
    ///
    /// Panics if the id is already live.
    pub fn admit(&mut self, spec: JobSpec) -> u32 {
        let id = spec.id;
        let slot = match self.free.pop() {
            Some(s) => {
                self.states[s as usize] = JobState::new(id, s as usize, &spec);
                self.specs[s as usize] = spec;
                self.occupied[s as usize] = true;
                s
            }
            None => {
                let s = self.specs.len() as u32;
                self.states.push(JobState::new(id, s as usize, &spec));
                self.specs.push(spec);
                self.occupied.push(true);
                s
            }
        };
        self.index.insert(id.0, slot);
        self.n_live += 1;
        self.peak_live = self.peak_live.max(self.n_live);
        self.admitted += 1;
        slot
    }

    /// Retire a live job, freeing its slot for reuse.
    ///
    /// # Panics
    ///
    /// Panics if the id is not live.
    pub fn retire(&mut self, id: JobId) {
        let slot = self
            .index
            .remove(id.0)
            .unwrap_or_else(|| panic!("{id} retired but not live"));
        self.occupied[slot as usize] = false;
        self.free.push(slot);
        self.n_live -= 1;
    }

    #[inline]
    pub fn is_live(&self, id: JobId) -> bool {
        self.index.get(id.0).is_some()
    }

    #[inline]
    pub fn get_state(&self, id: JobId) -> Option<&JobState> {
        self.index.get(id.0).map(|s| &self.states[s as usize])
    }

    /// Whether backfill may squat on `id`'s reservation: a live job whose
    /// notice phase allows it.
    #[inline]
    pub fn squattable(&self, id: JobId) -> bool {
        self.get_state(id)
            .and_then(|st| st.notice.as_ref())
            .is_some_and(|n| n.squattable)
    }

    #[inline]
    pub fn spec(&self, id: JobId) -> &JobSpec {
        let slot = self
            .index
            .get(id.0)
            .unwrap_or_else(|| panic!("{id} is not live"));
        &self.specs[slot as usize]
    }

    /// State and spec of a live job in a single index probe — the
    /// scheduler's per-candidate paths pay one lookup instead of two.
    #[inline]
    pub fn state_spec(&self, id: JobId) -> (&JobState, &JobSpec) {
        let slot = self
            .index
            .get(id.0)
            .unwrap_or_else(|| panic!("{id} is not live")) as usize;
        (&self.states[slot], &self.specs[slot])
    }

    #[inline]
    pub fn state(&self, id: JobId) -> &JobState {
        let slot = self
            .index
            .get(id.0)
            .unwrap_or_else(|| panic!("{id} is not live"));
        &self.states[slot as usize]
    }

    #[inline]
    pub fn state_mut(&mut self, id: JobId) -> &mut JobState {
        let slot = self
            .index
            .get(id.0)
            .unwrap_or_else(|| panic!("{id} is not live"));
        &mut self.states[slot as usize]
    }

    /// Visit every live job (slot order — unordered from the caller's
    /// point of view; used by paranoid cross-checks).
    pub fn for_each_live(&self, mut f: impl FnMut(&JobSpec, &JobState)) {
        for (i, &occ) in self.occupied.iter().enumerate() {
            if occ {
                f(&self.specs[i], &self.states[i]);
            }
        }
    }

    /// Live jobs currently resident.
    pub fn live(&self) -> usize {
        self.n_live
    }

    /// High-water mark of co-resident jobs over the run.
    pub fn peak_live(&self) -> usize {
        self.peak_live
    }

    /// Total jobs admitted over the run.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Slots allocated (peak arena footprint; `>= peak_live` only until
    /// the free list is warm).
    pub fn capacity(&self) -> usize {
        self.specs.len()
    }

    /// Rebuild the arena from its decoded slots, refusing states whose id
    /// or slot index disagree with their spec, duplicate or sentinel job
    /// ids, a free list that is not exactly the vacant slots, and counters
    /// below the live population. The id→slot index is rebuilt from the
    /// occupied slots.
    fn from_slots(
        slots: Vec<Option<(JobSpec, JobState)>>,
        free: Vec<u32>,
        peak_live: usize,
        admitted: u64,
    ) -> Result<Self, String> {
        let n_slots = slots.len();
        let mut t = JobTable {
            specs: Vec::with_capacity(n_slots),
            states: Vec::with_capacity(n_slots),
            occupied: Vec::with_capacity(n_slots),
            free: Vec::new(),
            index: JobIndex::with_log2(6),
            n_live: 0,
            peak_live,
            admitted,
        };
        for (slot, entry) in slots.into_iter().enumerate() {
            t.occupied.push(entry.is_some());
            let (spec, state) = match entry {
                Some((spec, state)) => {
                    if state.id != spec.id {
                        return Err(format!(
                            "slot {slot}: state id {} disagrees with spec id {}",
                            state.id, spec.id
                        ));
                    }
                    if state.spec_idx != slot {
                        return Err(format!(
                            "slot {slot}: state carries spec_idx {}",
                            state.spec_idx
                        ));
                    }
                    if spec.id.0 == EMPTY {
                        return Err("job id collides with the vacancy sentinel".into());
                    }
                    if t.index.get(spec.id.0).is_some() {
                        return Err(format!("duplicate live job {}", spec.id));
                    }
                    t.index.insert(spec.id.0, slot as u32);
                    t.n_live += 1;
                    (spec, state)
                }
                // Placeholder values for a vacant slot (never read until the
                // slot is reused, exactly like a post-retire slot).
                None => {
                    let spec = placeholder_spec();
                    let state = JobState::new(spec.id, slot, &spec);
                    (spec, state)
                }
            };
            t.specs.push(spec);
            t.states.push(state);
        }
        if free.len() != n_slots - t.n_live {
            return Err(format!(
                "free list holds {} slots but {} are vacant",
                free.len(),
                n_slots - t.n_live
            ));
        }
        let mut on_free_list = vec![false; n_slots];
        for &s in &free {
            let Some(seen) = on_free_list.get_mut(s as usize) else {
                return Err(format!("free slot {s} out of range"));
            };
            if t.occupied[s as usize] {
                return Err(format!("free list names occupied slot {s}"));
            }
            if std::mem::replace(seen, true) {
                return Err(format!("slot {s} on the free list twice"));
            }
        }
        t.free = free;
        if peak_live < t.n_live {
            return Err(format!(
                "peak_live {peak_live} below live count {}",
                t.n_live
            ));
        }
        if admitted < t.n_live as u64 {
            return Err(format!("admitted {admitted} below live count {}", t.n_live));
        }
        Ok(t)
    }
}

/// The arena: every slot as an `Option<(JobSpec, JobState)>` (`None` when
/// vacant), the free list, then `peak_live` and `admitted`. The slot
/// layout and the free list's stack order are data, not incidentals:
/// future admissions pop slots in free-list order, so an exact restore
/// keeps every later `spec_idx` assignment identical to the uninterrupted
/// run.
impl Snap for JobTable {
    fn put(&self, w: &mut SnapWriter) {
        self.specs.len().put(w);
        for (i, &occupied) in self.occupied.iter().enumerate() {
            // The `Option` layout, written from the columns.
            occupied.put(w);
            if occupied {
                self.specs[i].put(w);
                self.states[i].put(w);
            }
        }
        self.free.put(w);
        self.peak_live.put(w);
        self.admitted.put(w);
    }

    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let slots = Snap::get(r)?;
        let free = Snap::get(r)?;
        let (peak_live, admitted) = Snap::get(r)?;
        JobTable::from_slots(slots, free, peak_live, admitted).map_err(|e| r.err(e))
    }
}

/// Filler for vacant arena slots on restore. The values are never read:
/// every lookup goes through the id index, which only knows occupied
/// slots, and a reused slot is overwritten wholesale by `admit`.
fn placeholder_spec() -> JobSpec {
    hws_workload::job::JobSpecBuilder::rigid(0).build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hws_sim::SimDuration;
    use hws_workload::job::JobSpecBuilder;

    fn spec(id: u64) -> JobSpec {
        JobSpecBuilder::rigid(id)
            .size(4)
            .work(SimDuration::from_secs(60))
            .estimate(SimDuration::from_secs(120))
            .build()
    }

    #[test]
    fn admit_lookup_retire_roundtrip() {
        let mut t = JobTable::new();
        for id in 0..100u64 {
            t.admit(spec(id));
        }
        assert_eq!(t.live(), 100);
        for id in 0..100u64 {
            assert_eq!(t.spec(JobId(id)).id, JobId(id));
            assert_eq!(t.state(JobId(id)).id, JobId(id));
        }
        for id in 0..100u64 {
            t.retire(JobId(id));
            assert!(!t.is_live(JobId(id)));
        }
        assert_eq!(t.live(), 0);
        assert_eq!(t.peak_live(), 100);
        assert_eq!(t.admitted(), 100);
    }

    #[test]
    fn slots_are_recycled() {
        let mut t = JobTable::new();
        // A sliding window of 8 live jobs over 10k admissions must not
        // grow the arena beyond the window (the O(active) property).
        for id in 0..10_000u64 {
            t.admit(spec(id));
            if id >= 8 {
                t.retire(JobId(id - 8));
            }
        }
        assert_eq!(t.live(), 8);
        assert_eq!(t.peak_live(), 9);
        assert!(t.capacity() <= 9, "arena grew past the live window");
        assert_eq!(t.admitted(), 10_000);
    }

    #[test]
    fn state_mutation_sticks() {
        let mut t = JobTable::new();
        t.admit(spec(7));
        t.state_mut(JobId(7)).epoch = 42;
        assert_eq!(t.state(JobId(7)).epoch, 42);
    }

    #[test]
    #[should_panic(expected = "admitted twice")]
    fn double_admit_panics() {
        let mut t = JobTable::new();
        t.admit(spec(1));
        t.admit(spec(1));
    }

    #[test]
    #[should_panic(expected = "not live")]
    fn retire_unknown_panics() {
        let mut t = JobTable::new();
        t.retire(JobId(3));
    }

    #[test]
    fn backward_shift_deletion_keeps_probe_chains_intact() {
        // Adversarial interleavings of insert/remove across growth; every
        // surviving id must stay findable (a broken backward shift loses
        // entries whose home bucket precedes the hole).
        let mut t = JobTable::new();
        let mut alive: Vec<u64> = Vec::new();
        for round in 0..2_000u64 {
            t.admit(spec(round * 3));
            alive.push(round * 3);
            if round % 5 == 2 {
                let victim = alive.remove((round as usize * 7) % alive.len());
                t.retire(JobId(victim));
            }
            if round % 97 == 0 {
                for &id in &alive {
                    assert!(t.is_live(JobId(id)), "lost id {id} at round {round}");
                }
            }
        }
        for &id in &alive {
            assert!(t.is_live(JobId(id)));
        }
        assert_eq!(t.live(), alive.len());
    }

    #[test]
    fn snapshot_round_trip_preserves_slots_and_free_list_order() {
        let mut t = JobTable::new();
        for id in 0..12u64 {
            t.admit(spec(id));
        }
        // Retire out of order so the free-list stack order is nontrivial.
        for id in [5u64, 2, 9, 7] {
            t.retire(JobId(id));
        }
        t.state_mut(JobId(3)).epoch = 17;
        let mut w = SnapWriter::new();
        t.put(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut back = JobTable::get(&mut r).expect("decode");
        r.expect_end().expect("fully consumed");
        assert_eq!(back.live(), t.live());
        assert_eq!(back.peak_live(), t.peak_live());
        assert_eq!(back.admitted(), t.admitted());
        assert_eq!(back.capacity(), t.capacity());
        assert_eq!(back.state(JobId(3)).epoch, 17);
        for id in [5u64, 2, 9, 7] {
            assert!(!back.is_live(JobId(id)));
        }
        // The free list must pop in the original stack order, so admissions
        // after restore land in the same slots an uninterrupted run would
        // have used.
        let mut live = t.clone();
        for id in 100..104u64 {
            assert_eq!(back.admit(spec(id)), live.admit(spec(id)));
        }
    }

    #[test]
    fn snapshot_rejects_corruption() {
        let mut t = JobTable::new();
        for id in 0..6u64 {
            t.admit(spec(id));
        }
        t.retire(JobId(1));
        let mut w = SnapWriter::new();
        t.put(&mut w);
        let bytes = w.into_bytes();
        // Truncations at every prefix length must error, never panic.
        for cut in 0..bytes.len() {
            let mut r = SnapReader::new(&bytes[..cut]);
            assert!(JobTable::get(&mut r).is_err(), "cut at {cut}");
        }
        // Zeroing the admitted counter's low byte drops it below the live
        // count (6 admitted, 5 live → 0 < 5).
        let mut bad = bytes.clone();
        let tail = bad.len();
        bad[tail - 8] = 0;
        let mut r = SnapReader::new(&bad);
        assert!(JobTable::get(&mut r).is_err());
    }

    #[test]
    fn for_each_live_sees_exactly_the_live_set() {
        let mut t = JobTable::new();
        for id in 0..10u64 {
            t.admit(spec(id));
        }
        for id in [1u64, 4, 7] {
            t.retire(JobId(id));
        }
        let mut seen: Vec<u64> = Vec::new();
        t.for_each_live(|s, st| {
            assert_eq!(s.id, st.id);
            seen.push(s.id.0);
        });
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 2, 3, 5, 6, 8, 9]);
    }
}
