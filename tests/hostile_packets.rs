//! Hostile packet bytes: parsing, field extraction and the spawn index —
//! which reads L7 fields such as `dhcp.msg_type` and `ftp.data_port` of
//! every event — answer damaged or arbitrary bytes with a value or `None`,
//! never a panic. Real ARP, DHCP, FTP-PORT, TCP, UDP and ICMP packets are
//! cut at every length and hit with seeded byte flips, then arbitrary
//! byte strings follow; each input is parsed, every `Field` is read (a
//! failed full-depth parse takes the bounded re-parse fallback), and the
//! catalog's spawn index and a catalog `MonitorSet` see it as an arrival
//! and as a departure. Run in debug, so arithmetic overflow panics count.

use std::sync::Arc;
use swmon::monitor::{MonitorSet, SpawnIndex};
use swmon::packet::{
    ArpPacket, DhcpMessage, Field, FtpControl, IcmpMessage, Ipv4Address, MacAddr, Packet,
    PacketBuilder, TcpFlags,
};
use swmon::sim::{EgressAction, Instant, NetEvent, NetEventKind, PacketId, PortNo, SwitchId};

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

/// One well-formed packet of each protocol the catalog reads.
fn seeds() -> Vec<Vec<u8>> {
    let (m1, m2) = (MacAddr::new(2, 0, 0, 0, 0, 1), MacAddr::new(2, 0, 0, 0, 0, 2));
    let (a, b) = (Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(10, 0, 0, 100));
    let server = Ipv4Address::new(10, 0, 0, 254);
    let request = DhcpMessage::request(7, m1, b, server);
    let packets = [
        PacketBuilder::arp(ArpPacket::request(m1, a, b)),
        PacketBuilder::dhcp(m1, Ipv4Address::UNSPECIFIED, Ipv4Address::BROADCAST, &request),
        PacketBuilder::dhcp(m2, server, b, &DhcpMessage::ack(7, m1, b, server, 3600)),
        PacketBuilder::ftp_control(
            m1,
            m2,
            a,
            b,
            4000,
            21,
            vec![FtpControl::Port { addr: a, port: 5001 }],
        ),
        PacketBuilder::tcp(m1, m2, a, b, 4000, 7001, TcpFlags::SYN, b"payload"),
        PacketBuilder::udp(m1, m2, a, b, 5353, 53, b"query"),
        PacketBuilder::icmp(m1, m2, a, b, IcmpMessage::echo_request(1, 2)),
    ];
    packets.iter().map(|p| p.bytes().to_vec()).collect()
}

/// Every cut, then `flips` seeded rewrites of one to three bytes, of
/// every seed.
fn mutations(rng: &mut Rng, flips: usize) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for seed in seeds() {
        out.extend((0..seed.len()).map(|n| seed[..n].to_vec()));
        for _ in 0..flips {
            let mut bytes = seed.clone();
            for _ in 0..=rng.below(3) {
                let at = rng.below(bytes.len());
                bytes[at] ^= 1 + rng.below(255) as u8;
            }
            out.push(bytes);
        }
    }
    out
}

/// Arbitrary byte strings up to 160 bytes, some with an IPv4 or ARP
/// ethertype so the parser gets past Ethernet.
fn arbitrary(rng: &mut Rng, count: usize) -> Vec<Vec<u8>> {
    (0..count)
        .map(|i| {
            let mut bytes: Vec<u8> = (0..rng.below(160)).map(|_| rng.next() as u8).collect();
            if bytes.len() >= 14 && i % 2 == 0 {
                let ethertype: [u8; 2] = if i % 4 == 0 { [0x08, 0x00] } else { [0x08, 0x06] };
                bytes[12..14].copy_from_slice(&ethertype);
            }
            bytes
        })
        .collect()
}

fn events(pkt: Arc<Packet>, n: u64) -> [NetEvent; 2] {
    let (switch, id, time) = (SwitchId(0), PacketId(n), Instant::from_nanos(n));
    let arrival = NetEventKind::Arrival { switch, port: PortNo(0), pkt: pkt.clone(), id };
    let action =
        if n.is_multiple_of(2) { EgressAction::Output(PortNo(1)) } else { EgressAction::Drop };
    let departure = NetEventKind::Departure { switch, pkt, id, action };
    [NetEvent { time, kind: arrival }, NetEvent { time, kind: departure }]
}

#[test]
fn damaged_packets_never_panic_the_parser_fields_or_the_spawn_index() {
    let catalog = swmon::props::catalog();
    let index = SpawnIndex::new(catalog.iter().enumerate());
    let mut set = MonitorSet::from_properties(catalog.iter().cloned());
    let mut rng = Rng(0x6057_11e5);
    let mut inputs = mutations(&mut rng, 400);
    inputs.extend(arbitrary(&mut rng, 2_000));
    let (mut parsed, mut deep, mut spawnable) = (0, 0, 0);
    for (n, bytes) in inputs.into_iter().enumerate() {
        let pkt = Arc::new(Packet::from_bytes(bytes));
        parsed += usize::from(pkt.parsed().is_ok());
        let fields: Vec<_> = Field::all().iter().map(|&f| (f, pkt.field(f))).collect();
        let l7 = |f| fields.iter().any(|&(g, v)| g == f && v.is_some());
        deep += usize::from(l7(Field::DhcpMsgType) || l7(Field::FtpDataPort));
        for ev in events(pkt, n as u64) {
            let reach = index.reachable(&ev);
            let spawn = index.spawnable(&ev, u64::MAX);
            assert_eq!(spawn & !reach, 0);
            spawnable += usize::from(spawn != 0);
            set.process(&ev);
        }
    }
    // The corpus reaches deep: some damaged inputs still parse, still
    // carry the L7 fields the index reads, and still may spawn.
    assert!(parsed > 0 && deep > 0 && spawnable > 0, "{parsed} / {deep} / {spawnable}");
}
