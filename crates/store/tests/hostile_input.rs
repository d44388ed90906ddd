//! Hostile input: every decoder and the SWQL parser answer a damaged input
//! with an error or an answer, never a panic, and never an allocation the
//! input's own length does not pay for (`Reader::count`).
//!
//! The store under test has a frozen segment and an open tail, so its
//! `SWVL` encoding frames two `SWVS` segments, rows with bindings,
//! history events (packets, departures, out-of-band), degraded flags and
//! merge sequence ids. It is cut at every length and hit with seeded byte
//! flips; the SWQL fixture queries are cut, spliced and rewritten
//! character by character. Whatever decodes or parses is then queried.

use std::sync::Arc;

use swmon_core::wire::SnapshotError;
use swmon_core::{var, Bindings, Violation};
use swmon_packet::{FieldValue, Ipv4Address, MacAddr, Packet, PacketBuilder, TcpFlags};
use swmon_runtime::ViolationRecord;
use swmon_sim::time::Instant;
use swmon_sim::trace::{
    EgressAction, NetEvent, NetEventKind, OobEvent, PacketId, PortNo, SwitchId,
};
use swmon_store::{parse, Store};

/// Rows the store's open tail holds before it is frozen (`TAIL_ROWS`,
/// private to `crates/store/src/store.rs`).
const TAIL_ROWS: u64 = 128;

/// SplitMix64: the seeded source of every mutation below.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn packet(i: u64) -> Arc<Packet> {
    Arc::new(PacketBuilder::tcp(
        MacAddr::new(2, 0, 0, 0, 0, i as u8),
        MacAddr::new(2, 0, 0, 0, 0, 99),
        Ipv4Address::new(10, 0, 0, i as u8),
        Ipv4Address::new(192, 0, 2, 1),
        4000,
        443,
        TcpFlags::ACK,
        &[],
    ))
}

/// A history with one event of each kind, for every eighth row.
fn history(i: u64) -> Vec<NetEvent> {
    if !i.is_multiple_of(8) {
        return Vec::new();
    }
    let at = |t| Instant::from_nanos(t);
    let (switch, pkt, id) = (SwitchId(0), packet(i), PacketId(i));
    vec![
        NetEvent { time: at(i), kind: NetEventKind::Arrival { switch, port: PortNo(1), pkt, id } },
        NetEvent {
            time: at(i + 1),
            kind: NetEventKind::Departure {
                switch,
                pkt: packet(i),
                id,
                action: EgressAction::Drop,
            },
        },
        NetEvent {
            time: at(i + 2),
            kind: NetEventKind::OutOfBand(OobEvent::PortDown(switch, PortNo(2))),
        },
    ]
}

fn record(i: u64) -> ViolationRecord {
    let props = ["fw", "dhcp", "nat"];
    let bindings = Bindings::new()
        .bind(var("A"), FieldValue::Uint(80 + i % 4))
        .bind(var("H"), FieldValue::Ipv4(Ipv4Address::new(10, 0, 0, (i % 7) as u8)));
    ViolationRecord {
        seq: i,
        property: (i % 3) as usize,
        rank: 1,
        epoch: i % 2,
        violation: Violation {
            property: props[(i % 3) as usize].to_string(),
            time: Instant::from_nanos(i * 31 % 97),
            trigger_stage: "s".into(),
            bindings: (!i.is_multiple_of(11)).then_some(bindings),
            history: history(i),
            degraded: i.is_multiple_of(5),
            merge_seq: i.is_multiple_of(2).then_some(i),
        },
    }
}

/// A frozen segment and an open tail of 12 rows, published by three
/// shards in uneven batches.
fn live_store() -> Store {
    let store = Store::new();
    let rows = TAIL_ROWS + 12;
    let mut i = 0;
    while i < rows {
        let batch: Vec<_> = (i..rows.min(i + 1 + i % 9)).map(record).collect();
        store.ingest((i % 3) as u32, &batch);
        i += batch.len() as u64;
    }
    assert_eq!(store.segment_count(), 2, "a frozen segment and an open tail");
    store
}

/// The SWQL fixture corpus: every diagnostic's broken query, and queries
/// that parse and drive each index.
const QUERIES: &[&str] = &[
    "prop(fw) ! degraded()",
    "degraded(),",
    "prop",
    "prop(fw), frobnicate(3)",
    "degraded(7)",
    "bind(A)",
    "bind(A, 1.2.3.4.5)",
    "window(12qq, 20)",
    "bind(A, ?B)",
    "window(300, 200)",
    "window(1ms, 500ns)",
    "degraded(), prop(fw/return-not-droped)",
    "prop(*)",
    "prop(fw), bind(A, 83)",
    "bind(H, 10.0.0.3) or shard(2)",
    "window(5, 11)",
    "prop(nat), window(0, 15) or degraded()",
    "epoch(1), prop(dhcp)",
    "bind(A, 02:00:00:00:00:01)",
];

/// Run `query` against `store` if it parses; render the diagnostic if not.
/// Either way something comes back.
fn answer(store: &Store, query: &str) -> Result<usize, String> {
    match parse(query) {
        Ok(q) => {
            let out = store.query(&q);
            assert!(out.matches.len() as u64 <= out.total, "{query}");
            let _ = (out.render(), out.to_json());
            Ok(out.matches.len())
        }
        Err(e) => Err(e.render(query) + &e.to_json()),
    }
}

/// Decode `bytes`; on success, answer every fixture query from the result.
fn decode_and_query(bytes: &[u8]) -> Result<(), SnapshotError> {
    let store = Store::from_bytes(bytes)?;
    for q in QUERIES {
        let _ = answer(&store, q);
    }
    Ok(())
}

#[test]
fn a_store_cut_at_every_length_is_truncated() {
    let bytes = live_store().to_bytes();
    decode_and_query(&bytes).expect("the whole encoding decodes");
    for cut in 0..bytes.len() {
        let err = decode_and_query(&bytes[..cut]).expect_err("a strict prefix never decodes");
        assert_eq!(err, SnapshotError::Truncated, "cut at {cut} of {}", bytes.len());
    }
}

#[test]
fn seeded_byte_flips_decode_or_fail_loudly() {
    let bytes = live_store().to_bytes();
    let mut rng = Rng(0x5eed);
    let (mut decoded, mut rejected) = (0, 0);
    for _ in 0..2_000 {
        let mut damaged = bytes.clone();
        for _ in 0..1 + rng.below(4) {
            let at = rng.below(damaged.len());
            damaged[at] ^= 1 + rng.below(255) as u8;
        }
        match decode_and_query(&damaged) {
            Ok(()) => decoded += 1,
            Err(_) => rejected += 1,
        }
    }
    // Both outcomes occur: a flip in a payload field decodes to other
    // content, one in a length, tag or string is caught.
    assert!(decoded > 100 && rejected > 100, "{decoded} decoded, {rejected} rejected");
}

#[test]
fn a_count_beyond_the_input_is_refused() {
    // A valid `SWVL` header claiming 2^60 segments, then nothing: the
    // count is refused before a `Vec` of that many is reserved.
    let mut bytes = live_store().to_bytes()[..4 + 2 + 8 + 1].to_vec();
    bytes.extend_from_slice(&(1u64 << 60).to_le_bytes());
    assert_eq!(Store::from_bytes(&bytes).unwrap_err(), SnapshotError::Truncated);
}

#[test]
fn mutated_swql_queries_parse_or_fail_with_a_diagnostic() {
    let store = live_store();
    let alphabet: Vec<char> =
        "()*,?!.:/- \t0123456789abfhpqrswxAHZ\u{e9}\u{0}\u{1f600}".chars().collect();
    let mut rng = Rng(0x5e1);
    let (mut parsed, mut failed) = (0, 0);
    let mut tally = |r: Result<usize, String>| match r {
        Ok(_) => parsed += 1,
        Err(_) => failed += 1,
    };
    for src in QUERIES {
        let chars: Vec<char> = src.chars().collect();
        for cut in 0..=chars.len() {
            tally(answer(&store, &chars[..cut].iter().collect::<String>()));
            tally(answer(&store, &chars[cut..].iter().collect::<String>()));
        }
        for _ in 0..300 {
            let mut m = chars.clone();
            for _ in 0..1 + rng.below(3) {
                let c = alphabet[rng.below(alphabet.len())];
                let at = rng.below(m.len() + 1);
                match rng.below(3) {
                    0 if at < m.len() => m[at] = c,
                    1 if at < m.len() => {
                        m.remove(at);
                    }
                    _ => m.insert(at, c),
                }
            }
            let spliced = QUERIES[rng.below(QUERIES.len())];
            tally(answer(&store, &m.iter().collect::<String>()));
            tally(answer(&store, &format!("{} or {spliced}", m.iter().collect::<String>())));
        }
    }
    assert!(parsed > 100 && failed > 100, "{parsed} parsed, {failed} failed");
}
