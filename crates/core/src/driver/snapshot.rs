//! Whole-simulation snapshot/restore: the byte format behind
//! [`super::SchedulerService::snapshot`].
//!
//! ## Format
//!
//! One version byte, then the engine scalars (`now`, `delivered`), the
//! event queue (entries sorted by `(time, seq)` plus the dynamic-lane
//! flag ring), and the full [`SimCore`]: job arena, backend (via
//! [`SnapshotBackend`]), scheduler collections, the recorder's fold, and
//! the timeline.
//! Every unordered collection is serialized in sorted order so identical
//! states produce identical bytes regardless of hash-map history.
//!
//! Two things are deliberately **not** in the stream:
//!
//! * the mechanism/config — restore takes a [`SimConfig`] as context, so
//!   an image resumes under another mechanism exactly as an in-memory
//!   fork (`SchedulerService::fork`) does;
//! * the hooks object — code, not data; rebuilt by
//!   [`hooks_for`](super::hooks::hooks_for) from the restore config.
//!
//! The contract tested here and in the service layer: restore followed by
//! draining the simulation is bitwise-identical (metrics fingerprint) to
//! never having snapshotted at all.

use super::core::{Scratch, SimCore};
use super::events::Ev;
use super::hooks::hooks_for;
use crate::config::SimConfig;
use crate::timeline::{Timeline, TimelineEvent};
use hws_cluster::{LeaseLedger, SnapshotBackend};
use hws_metrics::Recorder;
use hws_sim::snap::{SnapError, SnapReader, SnapWriter};
use hws_sim::{Engine, EventId, EventQueue, QueueSnapshot, SimTime};
use hws_workload::{JobId, JobMap};
use std::collections::BTreeSet;

/// Format version; bump on any layout change. Version 2 added the outage
/// engine: the `Ev::Outage` tag and the outage-state section between the
/// shard accumulators and the recorder. Version 3 switched the waiting
/// queue to the maintained ordered index (`driver::waitq`): the section
/// now stores the waiting ids in priority order followed by the key
/// epoch, and restore *rebuilds* the index by recomputing every key from
/// the restored specs, `od_front`, and that epoch — a byte fixed point,
/// because recomputed keys reproduce the recorded order exactly.
/// Version 4 dropped the recorder's wall-clock decision samples: the
/// image is now a pure function of the simulated state. Version 5 writes
/// the recorder's fold (accumulators, records not yet folded in
/// submission order, killed ids) instead of every job's record. Version 6
/// makes the fold order-free: the accumulators hold exact `u128` sums, and
/// the recorder writes only live records, in ascending id order, with no
/// retired flag.
const SNAP_VERSION: u8 = 6;

// ---------------------------------------------------------------------
// Event codec.
// ---------------------------------------------------------------------

fn encode_ev(ev: &Ev, w: &mut SnapWriter) {
    match *ev {
        Ev::Submit(j) => {
            w.put_u8(0);
            w.put_u64(j.0);
        }
        Ev::Notice(j) => {
            w.put_u8(1);
            w.put_u64(j.0);
        }
        Ev::ReservationTimeout(j) => {
            w.put_u8(2);
            w.put_u64(j.0);
        }
        Ev::Finish { job, epoch } => {
            w.put_u8(3);
            w.put_u64(job.0);
            w.put_u64(epoch);
        }
        Ev::Kill { job, epoch } => {
            w.put_u8(4);
            w.put_u64(job.0);
            w.put_u64(epoch);
        }
        Ev::DrainEnd { job, epoch } => {
            w.put_u8(5);
            w.put_u64(job.0);
            w.put_u64(epoch);
        }
        Ev::PlannedPreempt { victim, od, epoch } => {
            w.put_u8(6);
            w.put_u64(victim.0);
            w.put_u64(od.0);
            w.put_u64(epoch);
        }
        Ev::Fail { job, epoch } => {
            w.put_u8(7);
            w.put_u64(job.0);
            w.put_u64(epoch);
        }
        Ev::Pass => w.put_u8(8),
        Ev::Outage { idx } => {
            w.put_u8(9);
            w.put_u32(idx);
        }
    }
}

fn decode_ev(r: &mut SnapReader<'_>) -> Result<Ev, SnapError> {
    Ok(match r.get_u8()? {
        0 => Ev::Submit(JobId(r.get_u64()?)),
        1 => Ev::Notice(JobId(r.get_u64()?)),
        2 => Ev::ReservationTimeout(JobId(r.get_u64()?)),
        3 => Ev::Finish {
            job: JobId(r.get_u64()?),
            epoch: r.get_u64()?,
        },
        4 => Ev::Kill {
            job: JobId(r.get_u64()?),
            epoch: r.get_u64()?,
        },
        5 => Ev::DrainEnd {
            job: JobId(r.get_u64()?),
            epoch: r.get_u64()?,
        },
        6 => Ev::PlannedPreempt {
            victim: JobId(r.get_u64()?),
            od: JobId(r.get_u64()?),
            epoch: r.get_u64()?,
        },
        7 => Ev::Fail {
            job: JobId(r.get_u64()?),
            epoch: r.get_u64()?,
        },
        8 => Ev::Pass,
        9 => Ev::Outage { idx: r.get_u32()? },
        b => return Err(r.err(format!("bad event tag {b}"))),
    })
}

// ---------------------------------------------------------------------
// Timeline codec.
// ---------------------------------------------------------------------

fn encode_timeline_ev(ev: &TimelineEvent, w: &mut SnapWriter) {
    match *ev {
        TimelineEvent::Submitted => w.put_u8(0),
        TimelineEvent::NoticeReceived => w.put_u8(1),
        TimelineEvent::Started { size } => {
            w.put_u8(2);
            w.put_u32(size);
        }
        TimelineEvent::Preempted => w.put_u8(3),
        TimelineEvent::DrainStarted => w.put_u8(4),
        TimelineEvent::Shrunk { from, to } => {
            w.put_u8(5);
            w.put_u32(from);
            w.put_u32(to);
        }
        TimelineEvent::Expanded { from, to } => {
            w.put_u8(6);
            w.put_u32(from);
            w.put_u32(to);
        }
        TimelineEvent::Finished => w.put_u8(7),
        TimelineEvent::Failed => w.put_u8(8),
        TimelineEvent::Killed => w.put_u8(9),
    }
}

fn decode_timeline_ev(r: &mut SnapReader<'_>) -> Result<TimelineEvent, SnapError> {
    Ok(match r.get_u8()? {
        0 => TimelineEvent::Submitted,
        1 => TimelineEvent::NoticeReceived,
        2 => TimelineEvent::Started { size: r.get_u32()? },
        3 => TimelineEvent::Preempted,
        4 => TimelineEvent::DrainStarted,
        5 => TimelineEvent::Shrunk {
            from: r.get_u32()?,
            to: r.get_u32()?,
        },
        6 => TimelineEvent::Expanded {
            from: r.get_u32()?,
            to: r.get_u32()?,
        },
        7 => TimelineEvent::Finished,
        8 => TimelineEvent::Failed,
        9 => TimelineEvent::Killed,
        b => return Err(r.err(format!("bad timeline tag {b}"))),
    })
}

// ---------------------------------------------------------------------
// Engine + SimCore snapshot.
// ---------------------------------------------------------------------

/// Serialize a paused engine (event queue + full simulation state) into a
/// standalone byte image.
///
/// # Panics
///
/// Panics if called mid-dispatch (the scratch buffers are non-empty only
/// *inside* a dispatch); the service layer never snapshots there.
pub(super) fn snapshot_engine<B: SnapshotBackend>(engine: &Engine<SimCore<B>>) -> Vec<u8> {
    let core = &engine.sim;
    assert!(
        core.scratch.ordered.is_empty()
            && core.scratch.keys.is_empty()
            && core.scratch.releases.is_empty()
            && core.scratch.victim_ids.is_empty()
            && core.scratch.candidates.is_empty(),
        "snapshot taken mid-dispatch (scratch buffers in use)"
    );
    let mut w = SnapWriter::with_capacity(4096);
    w.put_u8(SNAP_VERSION);
    w.put_u64(engine.now().as_secs());
    w.put_u64(engine.delivered());

    let qs = engine.queue.to_snapshot();
    w.put_len(qs.entries.len());
    for (t, seq, ev) in &qs.entries {
        w.put_u64(t.as_secs());
        w.put_u64(*seq);
        encode_ev(ev, &mut w);
    }
    w.put_bytes(&qs.flags);
    w.put_u64(qs.flag_base);
    w.put_u64(qs.next_seq);
    w.put_u64(qs.next_arrival_seq);
    w.put_u64(qs.watermark.as_secs());
    w.put_u64(qs.n_cancelled_popped);

    core.table.encode_snap(&mut w);
    core.cluster.snapshot(&mut w);

    // Waiting ids in index (priority) order, then the key epoch. The keys
    // themselves are derivable — restore recomputes them — so only the
    // membership and the epoch go into the stream.
    w.put_len(core.queue.len());
    for &(_, j) in core.queue.iter() {
        w.put_u64(j.0);
    }
    w.put_u64(core.queue.epoch().as_secs());
    put_id_set(&mut w, &core.od_front);
    w.put_len(core.claims.len());
    for c in &core.claims {
        w.put_u64(c.od.0);
        w.put_u32(c.target);
        w.put_u8(c.phase);
        w.put_u64(c.since.as_secs());
    }
    core.leases.encode_snap(&mut w);
    put_id_set(&mut w, &core.squattable);
    put_id_set(&mut w, &core.noticed);

    let mut timeouts: Vec<(JobId, EventId)> =
        core.timeout_ev.iter().map(|(&j, &e)| (j, e)).collect();
    timeouts.sort_by_key(|&(j, _)| j);
    w.put_len(timeouts.len());
    for (j, e) in timeouts {
        w.put_u64(j.0);
        w.put_u64(e.raw());
    }
    let mut plans: Vec<(&JobId, &Vec<EventId>)> = core.cup_plans.iter().collect();
    plans.sort_by_key(|&(j, _)| *j);
    w.put_len(plans.len());
    for (j, evs) in plans {
        w.put_u64(j.0);
        w.put_len(evs.len());
        for e in evs {
            w.put_u64(e.raw());
        }
    }

    w.put_bool(core.pass_pending);
    w.put_u32(core.cap_running);
    w.put_len(core.shard_occ.len());
    for &occ in &core.shard_occ {
        w.put_u128(occ);
    }
    w.put_len(core.shard_starts.len());
    for &s in &core.shard_starts {
        w.put_u64(s);
    }

    match &core.outage {
        None => w.put_bool(false),
        Some(o) => {
            w.put_bool(true);
            w.put_u32(o.applied);
            w.put_u64(o.downs);
            w.put_u64(o.drains);
            w.put_u64(o.rejoins);
            w.put_u64(o.interrupted_jobs);
            w.put_u64(o.shrunk_jobs);
            w.put_u64(o.infeasible_killed);
            w.put_u128(o.lost_node_seconds);
            w.put_u64(o.degraded_wall_seconds);
            w.put_u64(o.last_accrual.as_secs());
            // BTreeMap: already id-sorted.
            w.put_len(o.evicted_at.len());
            for (j, t) in &o.evicted_at {
                w.put_u64(j.0);
                w.put_u64(t.as_secs());
            }
            w.put_u64(o.recoveries);
            w.put_u64(o.recovery_latency_total);
        }
    }

    core.rec.encode_snap(&mut w);
    w.put_len(core.timeline.entries.len());
    for (t, j, ev) in &core.timeline.entries {
        w.put_u64(t.as_secs());
        w.put_u64(j.0);
        encode_timeline_ev(ev, &mut w);
    }
    w.into_bytes()
}

fn put_id_set(w: &mut SnapWriter, set: &BTreeSet<JobId>) {
    w.put_len(set.len());
    for j in set {
        w.put_u64(j.0);
    }
}

fn get_id_set(r: &mut SnapReader<'_>) -> Result<BTreeSet<JobId>, SnapError> {
    let n = r.get_len()?;
    let mut set = BTreeSet::new();
    let mut prev: Option<u64> = None;
    for _ in 0..n {
        let id = r.get_u64()?;
        if prev.is_some_and(|p| p >= id) {
            return Err(r.err(format!("id set not strictly ascending at {id}")));
        }
        prev = Some(id);
        set.insert(JobId(id));
    }
    Ok(set)
}

/// Rebuild a paused engine from bytes written by [`snapshot_engine`].
///
/// `cfg` must describe the same scheduling setup the encoder ran (same
/// policy knobs; the *mechanism* may differ — that is the what-if hook),
/// and `ctx` is the backend's reconstruction context
/// ([`SnapshotBackend::Ctx`]). Malformed or truncated bytes error
/// cleanly; this function never panics on bad input.
pub(super) fn restore_engine<B: SnapshotBackend>(
    bytes: &[u8],
    cfg: &SimConfig,
    ctx: &B::Ctx,
) -> Result<Engine<SimCore<B>>, SnapError> {
    let mut r = SnapReader::new(bytes);
    let version = r.get_u8()?;
    if version != SNAP_VERSION {
        return Err(r.err(format!(
            "snapshot version {version} (this build reads {SNAP_VERSION})"
        )));
    }
    let now = SimTime::from_secs(r.get_u64()?);
    let delivered = r.get_u64()?;

    let n_entries = r.get_len()?;
    let mut entries = Vec::with_capacity(n_entries);
    for _ in 0..n_entries {
        let t = SimTime::from_secs(r.get_u64()?);
        let seq = r.get_u64()?;
        let ev = decode_ev(&mut r)?;
        entries.push((t, seq, ev));
    }
    let flags = r.get_bytes()?.to_vec();
    let qs = QueueSnapshot {
        entries,
        flags,
        flag_base: r.get_u64()?,
        next_seq: r.get_u64()?,
        next_arrival_seq: r.get_u64()?,
        watermark: SimTime::from_secs(r.get_u64()?),
        n_cancelled_popped: r.get_u64()?,
    };
    let queue_pos = r.pos();
    let equeue = EventQueue::from_snapshot(qs).map_err(|e| SnapError::new(queue_pos, e))?;

    let table = crate::jobtable::JobTable::decode_snap(&mut r)?;
    let cluster = B::restore(&mut r, ctx)?;

    let wait_pos = r.pos();
    let n_queue = r.get_len()?;
    let mut wait_ids = Vec::with_capacity(n_queue);
    for _ in 0..n_queue {
        wait_ids.push(JobId(r.get_u64()?));
    }
    let wait_epoch = SimTime::from_secs(r.get_u64()?);
    let od_front = get_id_set(&mut r)?;
    let n_claims = r.get_len()?;
    let mut claims = Vec::with_capacity(n_claims);
    for _ in 0..n_claims {
        claims.push(super::alloc::Claim {
            od: JobId(r.get_u64()?),
            target: r.get_u32()?,
            phase: r.get_u8()?,
            since: SimTime::from_secs(r.get_u64()?),
        });
    }
    let leases = LeaseLedger::decode_snap(&mut r)?;
    let squattable = get_id_set(&mut r)?;
    let noticed = get_id_set(&mut r)?;

    let n_timeouts = r.get_len()?;
    let mut timeout_ev = JobMap::with_capacity_and_hasher(n_timeouts, Default::default());
    for _ in 0..n_timeouts {
        let j = JobId(r.get_u64()?);
        let e = EventId::from_raw(r.get_u64()?);
        if timeout_ev.insert(j, e).is_some() {
            return Err(r.err(format!("duplicate timeout entry for {j}")));
        }
    }
    let n_plans = r.get_len()?;
    let mut cup_plans = JobMap::with_capacity_and_hasher(n_plans, Default::default());
    for _ in 0..n_plans {
        let j = JobId(r.get_u64()?);
        let n_evs = r.get_len()?;
        let mut evs = Vec::with_capacity(n_evs);
        for _ in 0..n_evs {
            evs.push(EventId::from_raw(r.get_u64()?));
        }
        if cup_plans.insert(j, evs).is_some() {
            return Err(r.err(format!("duplicate CUP plan for {j}")));
        }
    }

    let pass_pending = r.get_bool()?;
    let cap_running = r.get_u32()?;
    let n_occ = r.get_len()?;
    let mut shard_occ = Vec::with_capacity(n_occ);
    for _ in 0..n_occ {
        shard_occ.push(r.get_u128()?);
    }
    let n_starts = r.get_len()?;
    let mut shard_starts = Vec::with_capacity(n_starts);
    for _ in 0..n_starts {
        shard_starts.push(r.get_u64()?);
    }
    let track_shards = cluster.shard_labels().is_some();
    let want = if track_shards {
        cluster.shard_count()
    } else {
        0
    };
    if shard_occ.len() != want || shard_starts.len() != want {
        return Err(r.err(format!(
            "shard accumulators sized {}/{} for a backend with {want} tracked shards",
            shard_occ.len(),
            shard_starts.len()
        )));
    }

    let outage = if r.get_bool()? {
        if cfg.outages.is_none() {
            return Err(r.err(
                "snapshot carries outage state but the restore config has no schedule".to_string(),
            ));
        }
        let applied = r.get_u32()?;
        let downs = r.get_u64()?;
        let drains = r.get_u64()?;
        let rejoins = r.get_u64()?;
        let interrupted_jobs = r.get_u64()?;
        let shrunk_jobs = r.get_u64()?;
        let infeasible_killed = r.get_u64()?;
        let lost_node_seconds = r.get_u128()?;
        let degraded_wall_seconds = r.get_u64()?;
        let last_accrual = SimTime::from_secs(r.get_u64()?);
        let n_evicted = r.get_len()?;
        let mut evicted_at = std::collections::BTreeMap::new();
        for _ in 0..n_evicted {
            let j = JobId(r.get_u64()?);
            let t = SimTime::from_secs(r.get_u64()?);
            if evicted_at.insert(j, t).is_some() {
                return Err(r.err(format!("duplicate evicted entry for {j}")));
            }
        }
        Some(super::outage::OutageState {
            applied,
            downs,
            drains,
            rejoins,
            interrupted_jobs,
            shrunk_jobs,
            infeasible_killed,
            lost_node_seconds,
            degraded_wall_seconds,
            last_accrual,
            evicted_at,
            recoveries: r.get_u64()?,
            recovery_latency_total: r.get_u64()?,
        })
    } else {
        if cfg.outages.is_some() {
            return Err(r.err(
                "restore config carries an outage schedule but the snapshot has no outage state"
                    .to_string(),
            ));
        }
        None
    };

    let rec_pos = r.pos();
    let rec = Recorder::decode_snap(&mut r, cfg.instant_threshold)?;
    let n_tl = r.get_len()?;
    let mut timeline = Timeline::new();
    for _ in 0..n_tl {
        let t = SimTime::from_secs(r.get_u64()?);
        let j = JobId(r.get_u64()?);
        let ev = decode_timeline_ev(&mut r)?;
        timeline.record(t, j, ev);
    }
    r.expect_end()?;

    let mut core = SimCore {
        hooks: hooks_for(cfg),
        cfg: cfg.clone(),
        table,
        cluster,
        queue: super::waitq::WaitQueue::new(),
        od_front,
        claims,
        leases,
        squattable,
        noticed,
        timeout_ev,
        cup_plans,
        pass_pending,
        cap_running,
        scratch: Scratch::default(),
        tau_memo: std::cell::RefCell::new(Vec::new()),
        shard_occ,
        shard_starts,
        track_shards,
        outage,
        rec,
        timeline,
    };
    core.check_records_match_jobs()
        .map_err(|e| SnapError::new(rec_pos, e))?;
    // Rebuild the waiting-queue index: recompute each key from the
    // restored spec, od_front membership, and the recorded epoch. Every
    // collection the keys derive from is restored above, so the rebuilt
    // order reproduces the recorded one — re-snapshotting is a byte fixed
    // point. Validation (not trusting the stream): every id must name a
    // live job in `Waiting` status, exactly once.
    core.queue.set_epoch(wait_epoch);
    for j in wait_ids {
        if core
            .table
            .get_state(j)
            .is_none_or(|st| st.status != crate::jobstate::Status::Waiting)
        {
            return Err(SnapError::new(
                wait_pos,
                format!("waiting queue lists {j}, which is not a live waiting job"),
            ));
        }
        let key = core.wait_key(j);
        if !core.queue.insert(key, j) {
            return Err(SnapError::new(
                wait_pos,
                format!("waiting queue lists {j} twice"),
            ));
        }
    }
    Ok(Engine::from_parts(core, equeue, now, delivered))
}
