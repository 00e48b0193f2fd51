//! Whole-simulation snapshot/restore: the byte format behind
//! [`super::SchedulerService::snapshot`].
//!
//! ## Format
//!
//! One version byte, then the engine scalars (`now`, `delivered`), the
//! event queue (entries sorted by `(time, seq)` plus the dynamic-lane
//! flag ring), and the full [`SimCore`]: job arena, backend (via
//! [`SnapshotBackend`]), scheduler collections and the recorder's fold.
//! Every section goes through its type's one [`Snap`] layout, so
//! identical states produce identical bytes regardless of hash-map
//! history. A job's own bookkeeping — its front-class flag, its notice
//! phase (reservation timeout, CUP plans, squattability) and its
//! outage-eviction time — rides in its slot of the job arena.
//!
//! Four things are deliberately **not** in the stream:
//!
//! * the mechanism/config — restore takes a [`SimConfig`] as context, so
//!   an image resumes under another mechanism exactly as an in-memory
//!   fork (`SchedulerService::fork`) does;
//! * the hooks object — code, not data; rebuilt by
//!   [`hooks_for`](super::hooks::hooks_for) from the restore config;
//! * the observer — code, not data; a restored engine runs with
//!   [`NoObserver`];
//! * state derivable from the slots — the running-capability count,
//!   rebuilt by [`SimCore::derive_from_slots`], the waiting-queue keys,
//!   and the release profile, rebuilt by [`SimCore::derive_profile`].
//!
//! The contract tested here and in the service layer: restore followed by
//! draining the simulation is bitwise-identical (metrics fingerprint) to
//! never having snapshotted at all.

use super::alloc::Claim;
use super::core::{Scratch, SimCore};
use super::events::Ev;
use super::hooks::hooks_for;
use super::outage::OutageState;
use crate::config::SimConfig;
use crate::jobtable::JobTable;
use crate::timeline::NoObserver;
use hws_cluster::SnapshotBackend;
use hws_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};
use hws_sim::{Engine, EventQueue, SimTime};
use hws_workload::JobId;

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
/// retired flag. Version 7 moves each job's side tables into its slot:
/// the front-class flag, the notice phase and the eviction time are
/// `JobState` fields, and the five id-keyed engine sections
/// (`od_front`, squattable, noticed, timeouts, CUP plans), the outage
/// section's `evicted_at` map and the `cap_running` counter leave the
/// image. Version 8 drops the timeline section: a run's transitions go
/// to its observer, which the image does not carry.
const SNAP_VERSION: u8 = 8;

// Layouts of the engine's value types.
hws_sim::snap_enum!(Ev {
    0 => Submit(job),
    1 => Notice(job),
    2 => ReservationTimeout(job),
    3 => Finish { job, epoch },
    4 => Kill { job, epoch },
    5 => DrainEnd { job, epoch },
    6 => PlannedPreempt { victim, od, epoch },
    7 => Fail { job, epoch },
    8 => Pass,
    9 => Outage { idx },
});
hws_sim::snap_struct!(Claim { od, phase, since });
hws_sim::snap_struct!(OutageState {
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
    recoveries,
    recovery_latency_total,
});

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
            && core.scratch.group.is_empty()
            && core.scratch.victim_ids.is_empty()
            && core.scratch.candidates.is_empty(),
        "snapshot taken mid-dispatch (scratch buffers in use)"
    );
    let w = &mut SnapWriter::with_capacity(4096);
    SNAP_VERSION.put(w);
    (engine.now(), engine.delivered()).put(w);
    engine.queue.put(w);
    core.table.put(w);
    core.cluster.snapshot(w);
    // Waiting ids in index (priority) order, as a `Vec<JobId>`, then the
    // key epoch. The keys themselves are derivable — restore recomputes
    // them — so only the membership and the epoch go into the stream.
    core.queue.len().put(w);
    core.queue.iter().for_each(|e| e.job.put(w));
    core.queue.epoch().put(w);
    core.claims.put(w);
    core.leases.put(w);
    core.pass_pending.put(w);
    core.shard_occ.put(w);
    core.shard_starts.put(w);
    core.outage.put(w);
    core.rec.put(w);
    std::mem::take(w).into_bytes()
}

/// Rebuild a paused engine from bytes written by [`snapshot_engine`].
///
/// `cfg` must describe the same scheduling setup the encoder ran (same
/// policy knobs; the *mechanism* may differ — that is the what-if hook),
/// and `ctx` is the backend's reconstruction context
/// ([`SnapshotBackend::Ctx`]). Every section is read through its codec;
/// then the whole state is checked: shard accumulators against the
/// backend, outage state against the config and its counters against
/// their bounds, live records against the job table, claims and
/// reservations against the live jobs, the slots' notice phases against
/// their specs, every run's expected end against the clock, and the
/// waiting queue against the job statuses. Malformed or truncated bytes error cleanly; this
/// function never panics on bad input.
pub(super) fn restore_engine<B: SnapshotBackend>(
    bytes: &[u8],
    cfg: &SimConfig,
    ctx: &B::Ctx,
) -> Result<Engine<SimCore<B>>, SnapError> {
    let r = &mut SnapReader::new(bytes);
    let version = r.get_u8()?;
    if version != SNAP_VERSION {
        return Err(r.err(format!(
            "snapshot version {version} (this build reads {SNAP_VERSION})"
        )));
    }
    let (now, delivered) = Snap::get(r)?;
    let equeue = EventQueue::get(r)?;
    let table = JobTable::get(r)?;
    let cluster = B::restore(r, ctx)?;
    let wait_ids: Vec<JobId> = Snap::get(r)?;
    let wait_epoch = SimTime::get(r)?;
    let track_shards = cluster.shard_labels().is_some();
    let want_shards = if track_shards {
        cluster.shard_count()
    } else {
        0
    };
    let mut core = SimCore {
        hooks: hooks_for(cfg),
        cfg: cfg.clone(),
        table,
        cluster,
        queue: super::waitq::WaitQueue::new(),
        profile: Default::default(),
        claims: Snap::get(r)?,
        leases: Snap::get(r)?,
        pass_pending: Snap::get(r)?,
        cap_running: 0,
        scratch: Scratch::default(),
        tau_memo: std::cell::RefCell::new(Vec::new()),
        shard_occ: Snap::get(r)?,
        shard_starts: Snap::get(r)?,
        track_shards,
        outage: Snap::get(r)?,
        rec: Snap::get(r)?,
        obs: NoObserver,
    };
    r.expect_end()?;
    core.rec.set_instant_threshold(cfg.instant_threshold);
    if core.shard_occ.len() != want_shards || core.shard_starts.len() != want_shards {
        return Err(r.err(format!(
            "shard accumulators sized {}/{} for a backend with {want_shards} tracked shards",
            core.shard_occ.len(),
            core.shard_starts.len()
        )));
    }
    // Later steps add to these totals with a plain `+=`; the recorder's
    // bound (the whole machine over the whole clock) keeps them from
    // overflowing.
    let nodes = core.cluster.total_nodes();
    let most = u128::from(nodes) * u128::from(u64::MAX);
    let lost = core.outage.as_ref().map_or(0, |o| o.lost_node_seconds);
    if core.shard_occ.iter().chain([&lost]).any(|&x| x > most) {
        return Err(r.err(format!(
            "shard or lost node-seconds beyond {nodes} nodes over the whole clock"
        )));
    }
    match (&core.outage, &cfg.outages) {
        (Some(_), None) => {
            return Err(
                r.err("snapshot carries outage state but the restore config has no schedule")
            )
        }
        (None, Some(_)) => {
            return Err(r.err(
                "restore config carries an outage schedule but the snapshot has no outage state",
            ))
        }
        (Some(o), Some(s)) => o
            .check_counts(s.len(), nodes, core.table.admitted(), now)
            .map_err(|e| r.err(e))?,
        _ => {}
    }
    core.check_records_match_jobs().map_err(|e| r.err(e))?;
    core.cap_running = core.derive_from_slots().map_err(|e| r.err(e))?;
    core.profile = core.derive_profile().map_err(|e| r.err(e))?;
    // Rebuild the waiting-queue index: recompute each key from the
    // restored spec, front-class flag, and the recorded epoch. Every
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
            return Err(r.err(format!(
                "waiting queue lists {j}, which is not a live waiting job"
            )));
        }
        let e = core.wait_entry(j);
        if !core.queue.insert(e) {
            return Err(r.err(format!("waiting queue lists {j} twice")));
        }
    }
    Ok(Engine::from_parts(core, equeue, now, delivered))
}
