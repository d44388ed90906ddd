//! Runtime quickstart: run the firewall property on the supervised runtime
//! with the streaming API, and show that the merged output equals the
//! single-threaded reference.
//!
//! ```text
//! cargo run --example sharded_runtime
//! ```

use swmon::monitor::{MonitorConfig, RoutingPlan};
use swmon::runtime::{reference_records, signature, RuntimeConfig, ShardedRuntime};
use swmon::sim::Duration;
use swmon_props::firewall;
use swmon_workloads::trace::multi_flow_trace;

fn main() {
    let props = vec![firewall::return_not_dropped()];
    let trace = multi_flow_trace(64, 2_000, 0.4, 0.25, Duration::from_micros(5), 42);
    let end = trace.last().unwrap().time + Duration::from_secs(60);

    let rt = ShardedRuntime::new(props.clone(), RuntimeConfig::default()).unwrap();
    for (i, p) in rt.properties().iter().enumerate() {
        println!("property {i} [{}]: {:?}", p.name, RoutingPlan::of(p).mode());
    }

    // Streaming ingestion: feed events as they arrive, then close out.
    // Both calls are fallible: a shard that exhausts its restart budget
    // surfaces here as a typed error instead of a panic.
    let mut session = rt.start();
    for ev in &trace {
        session.feed(ev).expect("no shard failure");
    }
    let out = session.finish(end).expect("no shard failure");

    println!(
        "\n{} events: {} delivered, {} skipped at the ingress; {} violations",
        out.stats.events_in,
        out.stats.deliveries,
        out.stats.skipped,
        out.records.len(),
    );

    let reference = reference_records(&props, MonitorConfig::default(), &trace, end);
    let matches = out.signatures() == reference.iter().map(signature).collect::<Vec<_>>();
    println!("\nmerged output equals single-threaded reference: {matches}");
    assert!(matches);

    for r in out.records.iter().take(3) {
        println!("  e.g. {}", signature(r));
    }
}
