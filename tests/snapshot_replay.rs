//! Checkpoint/restore correctness at the system level: cutting a monitor
//! run at *any* event index, round-tripping the snapshot through its
//! versioned byte encoding, restoring into a fresh monitor, and replaying
//! the suffix must be indistinguishable — byte-for-byte, via the snapshot
//! encoding itself — from never having been interrupted. This is the
//! property the supervised runtime's crash recovery stands on
//! (`crates/runtime/src/supervisor.rs`), checked here over the whole
//! 21-property catalog rather than a single engine fixture.
//!
//! The runtime does not take those snapshots from scratch: it keeps one
//! image per monitor and has the monitor patch it
//! (`Monitor::snapshot_into`). The second half of this file holds that
//! image to the same standard — after every sync, wherever the syncs fall,
//! whatever image is handed in, it is byte-identical to a fresh `snapshot()`.

use proptest::prelude::*;
use swmon::monitor::{Monitor, MonitorConfig, MonitorSnapshot, ProcessingMode, ProvenanceMode};
use swmon::packet::{Ipv4Address, MacAddr, Packet, PacketBuilder, TcpFlags};
use swmon::sim::{Duration, EgressAction, Instant, NetEvent, PortNo, TraceBuilder};

/// A compact generated event (same shape as `tests/runtime_differential.rs`).
#[derive(Debug, Clone, Copy)]
struct GenEvent {
    pair: u8,
    outbound: bool,
    dropped: bool,
    gap_steps: u8,
}

fn gen_event() -> impl Strategy<Value = GenEvent> {
    (0u8..6, any::<bool>(), any::<bool>(), 1u8..4).prop_map(
        |(pair, outbound, dropped, gap_steps)| GenEvent { pair, outbound, dropped, gap_steps },
    )
}

fn render_trace(events: &[GenEvent], step: Duration) -> Vec<NetEvent> {
    let mut tb = TraceBuilder::new();
    let mut t = Instant::ZERO;
    for e in events {
        let a = Ipv4Address::new(10, 0, 0, e.pair + 1);
        let b = Ipv4Address::new(192, 0, 2, e.pair + 1);
        let (src, dst, in_port) = if e.outbound { (a, b, PortNo(0)) } else { (b, a, PortNo(1)) };
        let pkt = PacketBuilder::tcp(
            MacAddr::new(2, 0, 0, 0, 0, 1),
            MacAddr::new(2, 0, 0, 0, 0, 2),
            src,
            dst,
            4000,
            443,
            TcpFlags::ACK,
            &[],
        );
        t += step * u64::from(e.gap_steps);
        let action = if e.dropped {
            EgressAction::Drop
        } else {
            EgressAction::Output(PortNo(if e.outbound { 1 } else { 0 }))
        };
        tb.at(t).arrive_depart(in_port, pkt, action);
    }
    tb.build()
}

/// Run `property` over the whole trace uninterrupted; then again with a
/// snapshot/byte-roundtrip/restore cut at `cut`; final snapshots must be
/// byte-identical. Returns how many violations the revived run holds.
fn assert_cut_is_invisible(
    property: &swmon::monitor::Property,
    cfg: MonitorConfig,
    trace: &[NetEvent],
    cut: usize,
    end: Instant,
) -> usize {
    let mut reference = Monitor::new(property.clone(), cfg);
    for ev in trace {
        reference.process(ev);
    }
    reference.advance_to(end);

    let mut first = Monitor::new(property.clone(), cfg);
    for ev in &trace[..cut] {
        first.process(ev);
    }
    let bytes = first.snapshot().to_bytes();
    let snap = MonitorSnapshot::from_bytes(&bytes).expect("snapshot encoding round-trips");
    // Restore carries state, not configuration: the replacement monitor
    // must be constructed with the crashed one's config.
    let mut revived = Monitor::new(property.clone(), cfg);
    revived.restore(&snap).expect("snapshot restores into a same-shaped monitor");
    for ev in &trace[cut..] {
        revived.process(ev);
    }
    revived.advance_to(end);

    assert_eq!(
        revived.snapshot().to_bytes(),
        reference.snapshot().to_bytes(),
        "cut at {cut}/{} is visible in the final state of {}",
        trace.len(),
        property.name
    );
    revived.violations().len()
}

/// Bring `image` up to date with `monitor`; it must then equal a snapshot
/// taken from scratch. (Debug builds assert this inside `snapshot_into` as
/// well; this holds under `--release` too.)
fn sync(monitor: &mut Monitor, image: &mut MonitorSnapshot) {
    monitor.snapshot_into(image);
    assert_eq!(
        image.to_bytes(),
        monitor.snapshot().to_bytes(),
        "patched image of {} differs from a fresh snapshot",
        monitor.property().name
    );
}

/// The engine configurations whose state an image has to carry: the
/// default, pending split-mode effects, and a register-array store small
/// enough that spawns evict.
fn image_configs() -> [MonitorConfig; 3] {
    let split = ProcessingMode::Split { lag: Duration::from_micros(120) };
    [
        MonitorConfig::default(),
        MonitorConfig { mode: split, ..MonitorConfig::default() },
        MonitorConfig { capacity: Some(3), ..MonitorConfig::default() },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every catalog property under every configuration, random traces,
    /// syncs at random points into one long-lived image: each sync leaves
    /// the image equal to a fresh snapshot. Halfway, the monitor is thrown
    /// away and rebuilt from the image — what crash recovery does — and
    /// keeps syncing into that same image; the end state equals an
    /// uninterrupted, never-synced run's.
    #[test]
    fn patched_images_equal_fresh_snapshots_across_the_catalog(
        events in proptest::collection::vec(gen_event(), 1..50),
        sync_at in proptest::collection::vec(any::<bool>(), 100),
        cut_pct in 0usize..=100,
    ) {
        let trace = render_trace(&events, Duration::from_micros(50));
        let cut = cut_pct * trace.len() / 100;
        let end = trace.last().unwrap().time + Duration::from_secs(120);
        for property in swmon_props::catalog() {
            for cfg in image_configs() {
                let mut reference = Monitor::new(property.clone(), cfg);
                let mut monitor = Monitor::new(property.clone(), cfg);
                let mut image = MonitorSnapshot::default();
                for (i, ev) in trace.iter().enumerate() {
                    if i == cut {
                        sync(&mut monitor, &mut image);
                        monitor = Monitor::new(property.clone(), cfg);
                        monitor.restore(&image).expect("a monitor restores from its own image");
                    }
                    reference.process(ev);
                    monitor.process(ev);
                    if sync_at[i % sync_at.len()] {
                        sync(&mut monitor, &mut image);
                    }
                }
                reference.advance_to(end);
                monitor.advance_to(end);
                sync(&mut monitor, &mut image);
                prop_assert_eq!(image.to_bytes(), reference.snapshot().to_bytes());
            }
        }
    }

    /// Whatever image a monitor is handed comes out equal to a fresh
    /// snapshot: another monitor's, one decoded from bytes, a from-scratch
    /// snapshot, a copy of its own image, and its own image gone stale
    /// because one of those was synced in between. None of them may be
    /// patched as if it were the image last synced into.
    #[test]
    fn any_image_comes_out_equal_to_a_fresh_snapshot(
        events in proptest::collection::vec(gen_event(), 3..40),
    ) {
        let trace = render_trace(&events, Duration::from_micros(50));
        // `ours` sees the whole trace, `theirs` only its last third; the
        // stand-in images are synced one event apart, so each is handed in
        // with writes outstanding against some other image.
        let (head, tail) = trace.split_at(trace.len() / 3);
        let (middle, tail) = tail.split_at(tail.len() / 2);
        for property in swmon_props::catalog() {
            for cfg in image_configs() {
                let mut ours = Monitor::new(property.clone(), cfg);
                let mut theirs = Monitor::new(property.clone(), cfg);
                let (mut our_image, mut their_image) = Default::default();
                head.iter().for_each(|ev| ours.process(ev));
                sync(&mut ours, &mut our_image);
                let mut standins = [
                    MonitorSnapshot::from_bytes(&our_image.to_bytes()).unwrap(),
                    ours.snapshot(),
                    our_image.clone(),
                ];
                for (i, ev) in middle.iter().enumerate() {
                    ours.process(ev);
                    let n = standins.len();
                    sync(&mut ours, &mut standins[i % n]);
                }
                for ev in tail {
                    ours.process(ev);
                    theirs.process(ev);
                }
                sync(&mut theirs, &mut their_image);
                sync(&mut ours, &mut their_image);
                // Synced elsewhere since: both original images are stale.
                sync(&mut ours, &mut our_image);
                sync(&mut theirs, &mut their_image);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every catalog property, random traces, a random cut point: the
    /// interrupted run's final state equals the uninterrupted one's.
    #[test]
    fn snapshot_cut_and_replay_is_invisible_across_the_catalog(
        events in proptest::collection::vec(gen_event(), 1..40),
        cut_pct in 0usize..=100,
    ) {
        let trace = render_trace(&events, Duration::from_micros(50));
        let cut = cut_pct * trace.len() / 100;
        let end = trace.last().unwrap().time + Duration::from_secs(120);
        for property in swmon_props::catalog() {
            assert_cut_is_invisible(&property, MonitorConfig::default(), &trace, cut, end);
        }
    }

    /// Same property under full provenance: violation histories — the
    /// heaviest part of the snapshot — survive the cut too.
    #[test]
    fn full_provenance_snapshots_survive_cuts(
        events in proptest::collection::vec(gen_event(), 1..30),
        cut_pct in 0usize..=100,
    ) {
        let trace = render_trace(&events, Duration::from_micros(50));
        let cut = cut_pct * trace.len() / 100;
        let end = trace.last().unwrap().time + Duration::from_secs(120);
        let cfg = MonitorConfig { provenance: ProvenanceMode::Full, ..MonitorConfig::default() };
        let props = [
            swmon_props::firewall::return_not_dropped(),
            swmon_props::firewall::return_not_dropped_within(Duration::from_micros(900)),
        ];
        for property in &props {
            assert_cut_is_invisible(property, cfg, &trace, cut, end);
        }
    }
}

/// Deterministic anchor: a cut between an outbound request and its dropped
/// reply — mid-instance, the exact situation crash recovery faces — is
/// invisible, including to the violation the reply then completes.
#[test]
fn cut_between_request_and_violating_reply() {
    let events = [
        GenEvent { pair: 1, outbound: true, dropped: false, gap_steps: 1 },
        GenEvent { pair: 1, outbound: false, dropped: true, gap_steps: 1 },
    ];
    let trace = render_trace(&events, Duration::from_micros(100));
    let end = trace.last().unwrap().time + Duration::from_secs(1);
    // Each generated event renders as arrival + departure; cut at 2 places
    // the boundary after the request, before the reply arrives.
    let violations = assert_cut_is_invisible(
        &swmon_props::firewall::return_not_dropped(),
        MonitorConfig::default(),
        &trace,
        2,
        end,
    );
    assert_eq!(violations, 1);
}

fn tcp(src: Ipv4Address, sport: u16, dst: Ipv4Address, dport: u16, flags: TcpFlags) -> Packet {
    let (m1, m2) = (MacAddr::new(2, 0, 0, 0, 0, 1), MacAddr::new(2, 0, 0, 0, 0, 2));
    PacketBuilder::tcp(m1, m2, src, dst, sport, dport, flags, &[])
}

/// Packet-identity stages are indexed by the packet id an instance
/// recorded, and restore rebuilds that index from the slots. Cut a NAT
/// exchange everywhere — in particular *between* a packet's arrival and
/// its (translated) departure, when the only thing tying the two together
/// is the recorded id — and the mistranslated return is still caught.
#[test]
fn cut_between_a_nat_packets_arrival_and_its_translated_departure() {
    use swmon_props::scenario::{INSIDE_PORT, NAT_PUBLIC_IP, OUTSIDE_PORT};
    let client = Ipv4Address::new(10, 0, 0, 5);
    let server = Ipv4Address::new(192, 0, 2, 7);
    let ack = TcpFlags::ACK;
    let mut tb = TraceBuilder::new();
    let out = tb.arrive(INSIDE_PORT, tcp(client, 4000, server, 80, ack));
    // Another client's packet arrives and leaves in between.
    tb.at_ms(1).arrive_depart(
        INSIDE_PORT,
        tcp(Ipv4Address::new(10, 0, 0, 6), 5000, server, 80, ack),
        EgressAction::Output(OUTSIDE_PORT),
    );
    tb.at_ms(2).depart(
        out,
        tcp(NAT_PUBLIC_IP, 61000, server, 80, ack),
        EgressAction::Output(OUTSIDE_PORT),
    );
    let back = tb.at_ms(10).arrive(OUTSIDE_PORT, tcp(server, 80, NAT_PUBLIC_IP, 61000, ack));
    tb.at_ms(11).depart(
        back,
        tcp(server, 80, client, 4999, ack), // wrong port: mistranslated
        EgressAction::Output(INSIDE_PORT),
    );
    let trace = tb.build();
    let end = trace.last().unwrap().time + Duration::from_secs(1);
    for cut in 0..=trace.len() {
        let violations = assert_cut_is_invisible(
            &swmon_props::nat::reverse_translation(),
            MonitorConfig::default(),
            &trace,
            cut,
            end,
        );
        assert_eq!(violations, 1, "cut at {cut}");
    }
}

/// The same for `lb/new-flow-round-robin`, whose last stage mixes an
/// identity probe (advance) with variable probes (close clearings): flow
/// k+1's SYN is assigned backend 2 right after flow k got backend 0.
#[test]
fn cut_between_a_balanced_syns_arrival_and_its_assignment() {
    use swmon_props::scenario::{LB_BASE_PORT, LB_CLIENT_PORT, LB_VIP};
    let syn = |host: u8, sport: u16| {
        tcp(Ipv4Address::new(10, 0, 1, host), sport, LB_VIP, 80, TcpFlags::SYN)
    };
    let backend = |i: u64| EgressAction::Output(PortNo((LB_BASE_PORT + i) as u16));
    let mut tb = TraceBuilder::new();
    let k = tb.arrive(LB_CLIENT_PORT, syn(1, 4000));
    tb.at_ms(1).depart(k, syn(1, 4000), backend(0));
    let k1 = tb.at_ms(2).arrive(LB_CLIENT_PORT, syn(2, 4001));
    tb.at_ms(3).depart(k1, syn(2, 4001), backend(2));
    let trace = tb.build();
    let end = trace.last().unwrap().time + Duration::from_secs(1);
    for cut in 0..=trace.len() {
        let violations = assert_cut_is_invisible(
            &swmon_props::load_balancer::new_flow_round_robin(),
            MonitorConfig::default(),
            &trace,
            cut,
            end,
        );
        assert_eq!(violations, 1, "cut at {cut}");
    }
}
