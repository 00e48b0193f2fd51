//! The mechanisms are designed to compose with any queue policy
//! ("our mechanisms manipulate the running jobs... while a scheduling
//! policy determines the order of waiting jobs"). This example runs the
//! same workload and mechanism under four queue policies and two PAA
//! victim-ordering ablations — then registers a **seventh mechanism**
//! through the [`MechanismHooks`] trait, and finally a **capability-aware
//! hook** (victim shielding + admission throttle for capability-class
//! campaigns), all without touching any driver internals.
//!
//! ```text
//! cargo run --release --example custom_policy
//! ```

use hybrid_workload_sched::prelude::*;

/// A custom arrival strategy: preempt the victims with the **least elapsed
/// runtime** first (they lose the least absolute progress), never shrink.
/// Composing it with the stock CUP notice policy yields a seventh
/// mechanism, "CUP&LRF", registered via [`SimConfig::with_hooks`].
#[derive(Debug)]
struct LeastRuntimeFirst;

impl ArrivalPolicy for LeastRuntimeFirst {
    fn on_arrival(&self, view: &ArrivalView<'_>) -> ArrivalPlan {
        let mut victims = view.victims.to_vec();
        // Newest start = least elapsed runtime; ties broken by id.
        victims.sort_by_key(|v| (std::cmp::Reverse(v.started), v.id));
        let mut got = 0u32;
        let mut preempt = Vec::new();
        for v in victims {
            if got >= view.need_extra {
                break;
            }
            got = got.saturating_add(v.nodes);
            preempt.push(v);
        }
        if got >= view.need_extra {
            ArrivalPlan {
                shrinks: Vec::new(),
                preempt,
            }
        } else {
            // Not satisfiable: wait at the front of the queue (§III-B2).
            ArrivalPlan::wait()
        }
    }
}

fn main() {
    let trace = TraceConfig::small().generate(11);
    println!(
        "workload: {} jobs on {} nodes\n",
        trace.len(),
        trace.system_size
    );

    println!("== queue policies under CUA&SPAA ==");
    let mut t = Table::new(vec!["policy", "TAT (h)", "util %", "instant %"]);
    for p in PolicyKind::ALL {
        let cfg = SimConfig::with_mechanism(Mechanism::CUA_SPAA).policy(p);
        let m = Simulator::run_trace(&cfg, &trace).metrics;
        t.row(vec![
            p.name().to_string(),
            format!("{:.1}", m.avg_turnaround_h),
            format!("{:.1}", m.utilization * 100.0),
            format!("{:.1}", m.instant_start_rate * 100.0),
        ]);
    }
    println!("{}", t.render());

    println!("== PAA victim-ordering ablation under N&PAA ==");
    let mut t = Table::new(vec!["victim order", "TAT (h)", "util %", "wasted %"]);
    for (name, order) in [
        ("overhead (paper)", VictimOrder::Overhead),
        ("smallest first", VictimOrder::SizeAscending),
        ("newest first", VictimOrder::NewestFirst),
    ] {
        let mut cfg = SimConfig::with_mechanism(Mechanism::N_PAA);
        cfg.victim_order = order;
        let m = Simulator::run_trace(&cfg, &trace).metrics;
        t.row(vec![
            name.to_string(),
            format!("{:.1}", m.avg_turnaround_h),
            format!("{:.1}", m.utilization * 100.0),
            format!("{:.2}", (m.raw_occupancy - m.utilization) * 100.0),
        ]);
    }
    println!("{}", t.render());
    println!("ordering victims by wasted node-seconds (the paper's choice) keeps the gap");
    println!("between raw occupancy and useful utilization small; the ablations of");
    println!("`hws-bench --bin paper` give the multi-seed comparison.");

    println!("\n== a seventh mechanism via MechanismHooks ==");
    let mut t = Table::new(vec![
        "mechanism",
        "TAT (h)",
        "util %",
        "instant %",
        "preempt r/m %",
    ]);
    let seventh = SimConfig::with_hooks(Composed::new(
        "CUP&LRF",
        CollectUntilPredicted,
        LeastRuntimeFirst,
    ));
    for cfg in [SimConfig::with_mechanism(Mechanism::CUP_PAA), seventh] {
        let name = cfg
            .hooks
            .as_ref()
            .map(|h| h.name().to_string())
            .unwrap_or_else(|| cfg.mechanism.name().to_string());
        let m = Simulator::run_trace(&cfg, &trace).metrics;
        t.row(vec![
            name,
            format!("{:.1}", m.avg_turnaround_h),
            format!("{:.1}", m.utilization * 100.0),
            format!("{:.1}", m.instant_start_rate * 100.0),
            format!(
                "{:.1}/{:.1}",
                m.rigid.preemption_ratio * 100.0,
                m.malleable.preemption_ratio * 100.0
            ),
        ]);
    }
    println!("{}", t.render());
    println!("CUP&LRF was registered entirely through SimConfig::with_hooks — no driver");
    println!("internals were modified to add it.");

    println!("\n== capability-aware co-scheduling via CapabilityAware ==");
    // Tag the largest 20 % of rigid jobs as capability campaigns and
    // compare the plain mechanism against the capability-aware wrapper:
    // shielded campaigns absorb no arrival/CUP preemptions, and a
    // throttle bounds how many run at once.
    let mut cap_trace = trace.clone();
    let tagged = cap_trace.tag_capability(0.2);
    let mut t = Table::new(vec![
        "hooks",
        "TAT (h)",
        "cap TAT (h)",
        "cap preempted",
        "capacity preempted",
    ]);
    for (label, cfg) in [
        (
            "cap[CUA&SPAA] (shielded)",
            SimConfig::with_hooks(CapabilityAware::for_mechanism(Mechanism::CUA_SPAA)),
        ),
        (
            "cap[CUA&SPAA] + throttle 2",
            SimConfig::with_hooks(
                CapabilityAware::for_mechanism(Mechanism::CUA_SPAA).with_max_running(2),
            ),
        ),
        (
            "cap[CUA&SPAA] shield off",
            SimConfig::with_hooks(
                CapabilityAware::for_mechanism(Mechanism::CUA_SPAA).allow_capability_victims(),
            ),
        ),
    ] {
        let label = label.to_string();
        let out = Simulator::run_trace(&cfg, &cap_trace);
        let classes = out.classes.expect("capability jobs were tagged");
        t.row(vec![
            label,
            format!("{:.1}", out.metrics.avg_turnaround_h),
            format!("{:.1}", classes.capability.avg_turnaround_h),
            format!("{}", classes.capability.preempted_jobs),
            format!("{}", classes.capacity.preempted_jobs),
        ]);
    }
    println!("{}", t.render());
    println!("{tagged} rigid jobs were tagged capability-class; the default cap[CUA&SPAA] hook");
    println!("shields them from victim selection, and with_max_running(2) additionally");
    println!("throttles concurrent campaigns — again purely through SimConfig::with_hooks.");
}
