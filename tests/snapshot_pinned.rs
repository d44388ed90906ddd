//! Pinned checkpoint images over the catalog's scenario traffic.
//!
//! Every catalog property runs over the scenario trace of
//! `tests/common/mod.rs` (each network function with the fault its
//! properties catch), and its `SWMS` image is taken right after the last
//! event, while instances, timers and stage ids are still live. The image's
//! length, live-instance count and FNV-1a digest are pinned: a change to
//! how the engine stores instances must leave every byte of the encoding
//! where it was.
//!
//! The same images are then cut and byte-flipped: every cut is an error,
//! and a flipped image either restores or is refused with the target
//! monitor untouched — never a panic.
//!
//! **How the pins were captured:** this file was first run on the commit
//! before the chunked slot store (d9e6e95), with the `assert_eq!` replaced
//! by a `println!` of each row; the table below is that output.

mod common;

use proptest::prelude::*;
use swmon::monitor::{Monitor, MonitorSnapshot};
use swmon::sim::NetEvent;

/// `(property, image bytes, live instances, FNV-1a digest of the image)`.
const PINNED: &[(&str, usize, usize, u64)] = &[
    ("arp-proxy/known-not-forwarded", 3763, 10, 0xe23403d84f96ba22),
    ("arp-proxy/unknown-forwarded", 214, 0, 0x55bf8954c92ff0c4),
    ("port-knock/wrong-guess-invalidates", 1682, 19, 0x6514e47dd68ccc67),
    ("port-knock/valid-sequence-opens", 1425, 19, 0x992de1d3e619d093),
    ("lb/new-flow-hashed-port", 2190, 6, 0x7643725f09d451b0),
    ("lb/new-flow-round-robin", 2763, 1, 0x587580bd4ce0cd1e),
    ("lb/stable-assignment", 6822, 72, 0x0e14df436f5626f4),
    ("ftp/data-port-matches-control", 2272, 19, 0x7855dcb5d4df7c35),
    ("dhcp/reply-within-T", 206, 0, 0x9b40b5e42eb3a27b),
    ("dhcp/no-reuse-before-expiry", 2429, 14, 0x8710f361e563dc58),
    ("dhcp/no-lease-overlap", 2335, 24, 0xca1a41aed73647c9),
    ("dhcp-arp/preload-cache", 1856, 24, 0xe424c2293e09063a),
    ("dhcp-arp/no-unfounded-direct-reply", 2467, 41, 0xdf6b5e6ac7af45dc),
    ("firewall/return-not-dropped", 11351, 74, 0x05a87cc4c7d2beb3),
    ("firewall/return-not-dropped-within-T", 15634, 74, 0xa17c91e399fbe08d),
    ("firewall/return-until-close", 12285, 72, 0x0267a5ddd9c8355d),
    ("nat/reverse-translation", 24180, 199, 0xcea4a508d680e669),
    ("learning-switch/no-flood-after-learn", 6586, 108, 0xf13df263a698bce1),
    ("learning-switch/correct-port", 8952, 109, 0x19daf85e35b3ba17),
    ("learning-switch/flush-on-link-down", 6584, 108, 0x592f17e071958e72),
    ("arp-proxy/reply-within-T", 3362, 10, 0xb17173405473b760),
];

fn trace() -> Vec<NetEvent> {
    common::scenario_trace(24, 13)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Each catalog property's monitor after `events`.
fn driven(events: &[NetEvent]) -> Vec<Monitor> {
    swmon_props::catalog()
        .into_iter()
        .map(|property| {
            let mut m = Monitor::with_defaults(property);
            events.iter().for_each(|ev| m.process(ev));
            m
        })
        .collect()
}

#[test]
fn every_catalog_image_is_pinned() {
    let rows: Vec<(String, usize, usize, u64)> = driven(&trace())
        .iter()
        .map(|m| {
            let bytes = m.snapshot().to_bytes();
            (m.property().name.clone(), bytes.len(), m.live_instances(), fnv1a(&bytes))
        })
        .collect();
    let pinned: Vec<(String, usize, usize, u64)> = PINNED
        .iter()
        .map(|&(name, len, live, digest)| (name.to_string(), len, live, digest))
        .collect();
    assert_eq!(rows, pinned);
}

/// Cut every image short and flip single bits in it. A cut image never
/// decodes; a flipped one that decodes is restored into a monitor holding
/// the property's state at half the trace, and a refused restore must
/// leave that monitor byte for byte as it was.
#[test]
fn cut_or_flipped_catalog_images_never_panic_or_half_apply() {
    let events = trace();
    let halfway = driven(&events[..events.len() / 2]);
    for (m, base) in driven(&events).iter().zip(&halfway) {
        let bytes = m.snapshot().to_bytes();
        let (name, len) = (&m.property().name, bytes.len());
        let base = base.snapshot();
        let before = base.to_bytes();
        proptest!(|(cut_pm in 0u32..1000, flip_pm in 0u32..1000, bit in 0u32..8)| {
            let cut = (len * cut_pm as usize / 1000).min(len - 1);
            prop_assert!(MonitorSnapshot::from_bytes(&bytes[..cut]).is_err(), "{name}: cut {cut}");

            let mut flipped = bytes.clone();
            let at = (len * flip_pm as usize / 1000).min(len - 1);
            flipped[at] ^= 1 << bit;
            if let Ok(snap) = MonitorSnapshot::from_bytes(&flipped) {
                let mut target = Monitor::with_defaults(m.property().clone());
                target.restore(&base).expect("the halfway image restores");
                if target.restore(&snap).is_err() {
                    prop_assert!(
                        target.snapshot().to_bytes() == before,
                        "{name}: a refused restore (byte {at}, bit {bit}) touched the monitor"
                    );
                }
            }
        });
    }
}

/// A slot holds a value for each variable its property binds and an id for
/// each stage but the last, and nothing wider: in the live store, in an
/// image synced whole and in one patched by a later sync.
#[test]
fn every_catalog_slot_is_as_wide_as_its_property() {
    let events = trace();
    let (first, rest) = events.split_at(events.len() / 2);
    for mut m in driven(first) {
        let p = m.property().clone();
        let want = (p.var_table().len(), Some(p.stages.len() - 1));
        let mut image = MonitorSnapshot::default();
        m.snapshot_into(&mut image);
        rest.iter().for_each(|ev| m.process(ev));
        m.snapshot_into(&mut image);
        let (live, synced) = (m.slot_row_widths(), image.slot_row_widths());
        assert!(!live.is_empty(), "{}: the trace spawns no instance", p.name);
        for (side, widths) in [("live store", &live), ("synced image", &synced)] {
            assert!(widths.iter().all(|&w| w == want), "{} {side}: {widths:?}", p.name);
        }
        assert_eq!(live.len(), synced.len(), "{}", p.name);
    }
}
