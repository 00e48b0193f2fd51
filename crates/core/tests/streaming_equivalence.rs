//! Streaming replay must be **bitwise-identical** to materialized replay,
//! and resident job state must track the live window, not the trace
//! length — the two contracts of the O(active)-memory replay engine.
//!
//! The property test exercises all six mechanisms over generated traces:
//! each trace is exported to an embedded SWF in memory, streamed back via
//! [`SwfStreamSource`], and replayed with [`Simulator::run_source`]; every
//! metric and engine counter must equal the materialized
//! [`Simulator::run_trace`] result exactly (float equality, not epsilon).
//! A 2-shard federation streams under the same contract.

use hws_cluster::FederationConfig;
use hws_core::{Mechanism, SimConfig, SimOutcome, Simulator};
use hws_sim::SimDuration;
use hws_workload::job::JobSpecBuilder;
use hws_workload::{
    to_swf, MaterializedSource, SwfExportConfig, SwfStreamSource, Trace, TraceConfig,
};
use proptest::prelude::*;

/// Stream `trace` back out of its own embedded SWF export.
fn stream_of(trace: &Trace) -> SwfStreamSource<std::io::BufReader<&[u8]>> {
    let swf = to_swf(trace, &SwfExportConfig::default());
    let leaked: &'static [u8] = Box::leak(swf.into_bytes().into_boxed_slice());
    SwfStreamSource::from_reader(std::io::BufReader::new(leaked)).expect("own export streams")
}

fn assert_identical(trace: &Trace, cfg: &SimConfig, label: &str) {
    let materialized = Simulator::run_trace(cfg, trace);
    let streamed = Simulator::run_source(cfg, stream_of(trace));
    assert_same_outcome(&materialized, &streamed, label);
    assert_eq!(streamed.admitted_jobs, trace.jobs.len() as u64);
}

fn assert_same_outcome(materialized: &SimOutcome, streamed: &SimOutcome, label: &str) {
    assert_eq!(
        materialized.metrics, streamed.metrics,
        "metrics diverge for {label}"
    );
    assert_eq!(
        materialized.engine, streamed.engine,
        "engine counters diverge for {label}"
    );
    assert_eq!(materialized.classes, streamed.classes);
    assert_eq!(
        materialized.shards, streamed.shards,
        "shards diverge for {label}"
    );
    assert_eq!(
        materialized.peak_resident_jobs, streamed.peak_resident_jobs,
        "resident high-water marks diverge for {label}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Export → stream → replay equals materialized replay, bitwise, for
    /// every mechanism and a 2-shard federation, across generated
    /// workloads.
    #[test]
    fn streaming_replay_is_bitwise_identical(seed in 0..1_000u64, jobs in 30..120u32) {
        let trace = TraceConfig::tiny().with_jobs(jobs).generate(seed);
        for mechanism in Mechanism::ALL_SIX {
            assert_identical(&trace, &SimConfig::with_mechanism(mechanism), mechanism.name());
        }
        let fed = SimConfig::with_mechanism(Mechanism::CUA_SPAA)
            .federated(FederationConfig::even_split(2, trace.system_size));
        assert_identical(&trace, &fed, "2-shard federation");
    }
}

/// Job ids need not ascend in submission order: J2 submits at t=50 and
/// J1 at t=100. Streaming from a materialized source or from the trace's
/// SWF export reports what the batch replay reports, for all six
/// mechanisms.
#[test]
fn ids_out_of_submission_order_stream_identically() {
    let job = |id: u64, at: u64| {
        JobSpecBuilder::rigid(id)
            .submit_at(hws_sim::SimTime::from_secs(at))
            .size(8)
            .work(SimDuration::from_secs(600))
            .estimate(SimDuration::from_secs(1_200))
            .build()
    };
    let trace = Trace::new(16, SimDuration::from_days(1), vec![job(2, 50), job(1, 100)]);
    trace.validate().expect("a valid trace");
    for mechanism in Mechanism::ALL_SIX {
        let cfg = SimConfig::with_mechanism(mechanism);
        let batch = Simulator::run_trace(&cfg, &trace);
        assert_eq!(batch.metrics.completed_jobs, 2);
        let label = mechanism.name();
        let materialized = Simulator::run_source(&cfg, MaterializedSource::new(&trace));
        assert_same_outcome(&batch, &materialized, label);
        assert_same_outcome(
            &batch,
            &Simulator::run_source(&cfg, stream_of(&trace)),
            label,
        );
    }
}

/// The baseline (non-hybrid) configuration must stream identically too —
/// it skips notice events entirely, which exercises the pump's
/// no-lookahead path.
#[test]
fn baseline_streams_identically() {
    let trace = TraceConfig::tiny().generate(7);
    let cfg = SimConfig::baseline();
    let materialized = Simulator::run_trace(&cfg, &trace);
    let streamed = Simulator::run_source(&cfg, stream_of(&trace));
    assert_eq!(materialized.metrics, streamed.metrics);
    assert_eq!(materialized.engine, streamed.engine);
}

/// Capability-class jobs survive the stream round-trip with an identical
/// per-class breakdown.
#[test]
fn capability_classes_stream_identically() {
    let trace = TraceConfig::tiny().with_capability_frac(0.2).generate(3);
    for mechanism in Mechanism::ALL_SIX {
        assert_identical(
            &trace,
            &SimConfig::with_mechanism(mechanism),
            mechanism.name(),
        );
    }
}

/// O(active) regression: a workload of 2 000 jobs arriving in well-spaced
/// bursts of 100 must never hold more than a couple of bursts' worth of
/// jobs resident. A driver that kept every job materialized would report a
/// peak near the trace length; the arena must stay near the burst size.
#[test]
fn peak_resident_jobs_tracks_live_window_not_trace_length() {
    const BURSTS: u64 = 20;
    const PER_BURST: u64 = 100;
    let mut jobs = Vec::new();
    for b in 0..BURSTS {
        for i in 0..PER_BURST {
            let id = b * PER_BURST + i;
            // One burst per simulated day; each job runs well under an
            // hour, so a burst fully drains before the next arrives.
            jobs.push(
                JobSpecBuilder::rigid(id)
                    .submit_at(hws_sim::SimTime::from_secs(b * 86_400 + i))
                    .size(4)
                    .work(SimDuration::from_secs(600))
                    .estimate(SimDuration::from_secs(1_200))
                    .build(),
            );
        }
    }
    let total = jobs.len() as u64;
    let trace = Trace::new(64, SimDuration::from_days(BURSTS + 1), jobs);

    let cfg = SimConfig::with_mechanism(Mechanism::CUA_PAA);
    let materialized = Simulator::run_trace(&cfg, &trace);
    let streamed = Simulator::run_source(&cfg, stream_of(&trace));

    assert_eq!(materialized.metrics, streamed.metrics);
    assert_eq!(streamed.admitted_jobs, total);
    // The bound is one burst plus lookahead slack — far below the trace.
    assert!(
        streamed.peak_resident_jobs <= 150,
        "peak resident {} jobs; expected ~one burst (100), trace has {}",
        streamed.peak_resident_jobs,
        total
    );
    assert_eq!(materialized.peak_resident_jobs, streamed.peak_resident_jobs);
}
