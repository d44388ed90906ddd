//! The [`Packet`] type: canonical wire bytes plus layered parsing to a
//! configurable depth, field extraction, and rewriting.
//!
//! Wire bytes are the single source of truth (a packet is what is on the
//! wire, exactly as a switch sees it); [`Headers`] is a parsed *view* built
//! by [`Packet::parse`] down to a requested [`Layer`]. Parsing is strict up
//! to L4 — a corrupt IPv4 or TCP header is an error — and best-effort at L7:
//! a payload on a DHCP/FTP port that fails to parse simply yields no L7 view
//! (a monitor guard over an L7 field then fails to match, it does not
//! crash the switch).

use crate::addr::{Ipv4Address, MacAddr};
use crate::arp::ArpPacket;
use crate::dhcp::DhcpMessage;
use crate::error::ParseError;
use crate::eth::{EtherType, EthernetFrame};
use crate::field::{Field, FieldValue, Layer};
use crate::ftp::FtpControl;
use crate::icmp::IcmpMessage;
use crate::ipv4::{IpProto, Ipv4Header};
use crate::tcp::{TcpFlags, TcpHeader};
use crate::udp::UdpHeader;
use core::fmt;

/// DHCP server / client UDP ports.
pub const DHCP_SERVER_PORT: u16 = 67;
/// DHCP client UDP port.
pub const DHCP_CLIENT_PORT: u16 = 68;
/// FTP control-channel TCP port.
pub const FTP_CONTROL_PORT: u16 = 21;

/// The network-layer header, when parsed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum L3Header {
    /// An ARP packet (which has no L4).
    Arp(ArpPacket),
    /// An IPv4 header.
    Ipv4(Ipv4Header),
}

/// The transport-layer header, when parsed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum L4Header {
    /// TCP.
    Tcp(TcpHeader),
    /// UDP.
    Udp(UdpHeader),
    /// ICMP (transport-layer by position, not semantics).
    Icmp(IcmpMessage),
}

/// A recognised application payload, when parsed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum L7Payload {
    /// A DHCP message (UDP 67/68).
    Dhcp(DhcpMessage),
    /// FTP control-channel lines (TCP 21).
    Ftp(Vec<FtpControl>),
}

/// A layered, structured view of a packet, down to some parse depth.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Headers {
    /// Ethernet header (always present).
    pub eth: EthernetFrame,
    /// Network layer, if parsed and recognised.
    pub l3: Option<L3Header>,
    /// Transport layer, if parsed.
    pub l4: Option<L4Header>,
    /// Application layer, if parsed and recognised.
    pub l7: Option<L7Payload>,
    /// The innermost payload bytes after the deepest parsed header. When an
    /// [`Headers::l7`] view exists, re-emission uses the L7 structure and
    /// ignores these bytes.
    pub payload: Vec<u8>,
}

impl Headers {
    /// Extract a named field from this view.
    ///
    /// Returns `None` when the field's layer was not parsed, the packet does
    /// not carry the protocol, or the field is switch metadata
    /// ([`Field::InPort`]), which lives on events rather than packets.
    pub fn field(&self, f: Field) -> Option<FieldValue> {
        use Field::*;
        match f {
            InPort | OutPort => None,
            EthSrc => Some(self.eth.src.into()),
            EthDst => Some(self.eth.dst.into()),
            EthType => Some(u64::from(self.eth.ethertype.to_u16()).into()),
            ArpOp => match self.l3.as_ref()? {
                L3Header::Arp(a) => Some(u64::from(a.op.to_u16()).into()),
                _ => None,
            },
            ArpSenderMac => self.arp().map(|a| a.sender_mac.into()),
            ArpSenderIp => self.arp().map(|a| a.sender_ip.into()),
            ArpTargetMac => self.arp().map(|a| a.target_mac.into()),
            ArpTargetIp => self.arp().map(|a| a.target_ip.into()),
            Ipv4Src => self.ipv4().map(|h| h.src.into()),
            Ipv4Dst => self.ipv4().map(|h| h.dst.into()),
            IpProto => self.ipv4().map(|h| u64::from(h.proto.to_u8()).into()),
            Ttl => self.ipv4().map(|h| u64::from(h.ttl).into()),
            L4Src => match self.l4.as_ref()? {
                L4Header::Tcp(t) => Some(t.src_port.into()),
                L4Header::Udp(u) => Some(u.src_port.into()),
                L4Header::Icmp(_) => None,
            },
            L4Dst => match self.l4.as_ref()? {
                L4Header::Tcp(t) => Some(t.dst_port.into()),
                L4Header::Udp(u) => Some(u.dst_port.into()),
                L4Header::Icmp(_) => None,
            },
            TcpFlags => match self.l4.as_ref()? {
                L4Header::Tcp(t) => Some(u64::from(t.flags.0).into()),
                _ => None,
            },
            IcmpType => match self.l4.as_ref()? {
                L4Header::Icmp(i) => Some(u64::from(i.icmp_type.to_u8()).into()),
                _ => None,
            },
            DhcpMsgType => self.dhcp().map(|d| u64::from(d.msg_type.to_u8()).into()),
            DhcpXid => self.dhcp().map(|d| u64::from(d.xid).into()),
            DhcpChaddr => self.dhcp().map(|d| d.chaddr.into()),
            DhcpYiaddr => self.dhcp().map(|d| d.yiaddr.into()),
            DhcpCiaddr => self.dhcp().map(|d| d.ciaddr.into()),
            DhcpRequestedIp => self.dhcp().and_then(|d| d.requested_ip).map(Into::into),
            DhcpLeaseSecs => self.dhcp().and_then(|d| d.lease_secs).map(|s| u64::from(s).into()),
            DhcpServerId => self.dhcp().and_then(|d| d.server_id).map(Into::into),
            FtpDataAddr => self.ftp_endpoint().map(|(a, _)| a.into()),
            FtpDataPort => self.ftp_endpoint().map(|(_, p)| p.into()),
        }
    }

    /// Write a named field into this view (the switch `SetField` action).
    ///
    /// Returns `false` — leaving the view unchanged — when the packet does
    /// not carry the field, the value has the wrong type, or the field is
    /// read-only (metadata, discriminators like EtherType whose rewrite
    /// would desynchronise the stack). Checksums are recomputed on the next
    /// [`Headers::emit`].
    pub fn set_field(&mut self, f: Field, v: FieldValue) -> bool {
        use Field::*;
        match f {
            EthSrc => {
                if let Some(m) = v.as_mac() {
                    self.eth.src = m;
                    return true;
                }
            }
            EthDst => {
                if let Some(m) = v.as_mac() {
                    self.eth.dst = m;
                    return true;
                }
            }
            Ipv4Src => {
                if let (Some(L3Header::Ipv4(ip)), Some(a)) = (self.l3.as_mut(), v.as_ipv4()) {
                    ip.src = a;
                    return true;
                }
            }
            Ipv4Dst => {
                if let (Some(L3Header::Ipv4(ip)), Some(a)) = (self.l3.as_mut(), v.as_ipv4()) {
                    ip.dst = a;
                    return true;
                }
            }
            Ttl => {
                if let (Some(L3Header::Ipv4(ip)), Some(n)) = (self.l3.as_mut(), v.as_uint()) {
                    if n <= u64::from(u8::MAX) {
                        ip.ttl = n as u8;
                        return true;
                    }
                }
            }
            L4Src => {
                if let Some(n) = v.as_uint().filter(|&n| n <= u64::from(u16::MAX)) {
                    match self.l4.as_mut() {
                        Some(L4Header::Tcp(t)) => {
                            t.src_port = n as u16;
                            return true;
                        }
                        Some(L4Header::Udp(u)) => {
                            u.src_port = n as u16;
                            return true;
                        }
                        _ => {}
                    }
                }
            }
            L4Dst => {
                if let Some(n) = v.as_uint().filter(|&n| n <= u64::from(u16::MAX)) {
                    match self.l4.as_mut() {
                        Some(L4Header::Tcp(t)) => {
                            t.dst_port = n as u16;
                            return true;
                        }
                        Some(L4Header::Udp(u)) => {
                            u.dst_port = n as u16;
                            return true;
                        }
                        _ => {}
                    }
                }
            }
            _ => {}
        }
        false
    }

    /// The ARP packet, if this is one.
    pub fn arp(&self) -> Option<&ArpPacket> {
        match self.l3.as_ref()? {
            L3Header::Arp(a) => Some(a),
            _ => None,
        }
    }

    /// The IPv4 header, if present.
    pub fn ipv4(&self) -> Option<&Ipv4Header> {
        match self.l3.as_ref()? {
            L3Header::Ipv4(h) => Some(h),
            _ => None,
        }
    }

    /// The TCP header, if present.
    pub fn tcp(&self) -> Option<&TcpHeader> {
        match self.l4.as_ref()? {
            L4Header::Tcp(t) => Some(t),
            _ => None,
        }
    }

    /// The UDP header, if present.
    pub fn udp(&self) -> Option<&UdpHeader> {
        match self.l4.as_ref()? {
            L4Header::Udp(u) => Some(u),
            _ => None,
        }
    }

    /// The DHCP message, if present.
    pub fn dhcp(&self) -> Option<&DhcpMessage> {
        match self.l7.as_ref()? {
            L7Payload::Dhcp(d) => Some(d),
            _ => None,
        }
    }

    /// The data endpoint announced by an FTP control packet (`PORT` or `227`),
    /// if this packet carries one.
    pub fn ftp_endpoint(&self) -> Option<(Ipv4Address, u16)> {
        match self.l7.as_ref()? {
            L7Payload::Ftp(lines) => lines.iter().find_map(|l| match l {
                FtpControl::Port { addr, port } => Some((*addr, *port)),
                FtpControl::PassiveReply { addr, port } => Some((*addr, *port)),
                _ => None,
            }),
            _ => None,
        }
    }

    /// Re-emit this view to canonical wire bytes.
    pub fn emit(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.payload.len());
        self.eth.emit(&mut out);
        match &self.l3 {
            None => out.extend_from_slice(&self.payload),
            Some(L3Header::Arp(a)) => a.emit(&mut out),
            Some(L3Header::Ipv4(ip)) => {
                // Build the L4 segment first so the IPv4 total length is known.
                let inner: Vec<u8> = match &self.l4 {
                    None => self.payload.clone(),
                    Some(l4) => {
                        let l7_bytes: Vec<u8> = match &self.l7 {
                            Some(L7Payload::Dhcp(d)) => {
                                let mut b = Vec::new();
                                d.emit(&mut b);
                                b
                            }
                            Some(L7Payload::Ftp(lines)) => {
                                lines.iter().flat_map(|l| l.emit_line().into_bytes()).collect()
                            }
                            None => self.payload.clone(),
                        };
                        let mut seg = Vec::new();
                        match l4 {
                            L4Header::Tcp(t) => t.emit(&l7_bytes, ip.src, ip.dst, &mut seg),
                            L4Header::Udp(u) => u.emit(&l7_bytes, ip.src, ip.dst, &mut seg),
                            L4Header::Icmp(i) => i.emit(&l7_bytes, &mut seg),
                        }
                        seg
                    }
                };
                ip.emit(inner.len(), &mut out);
                out.extend_from_slice(&inner);
            }
        }
        out
    }
}

/// A network packet: canonical wire bytes, as a switch port would see them.
///
/// The wire bytes are the identity: equality and hashing see nothing else.
/// Alongside them the packet memoizes its own full-depth parse, so the many
/// consumers of one packet — the ingress router extracting a shard key, every
/// monitor guard atom binding fields, the reference engine — share a single
/// parse instead of each re-walking the headers per field access.
#[derive(Clone)]
pub struct Packet {
    bytes: Vec<u8>,
    parsed: std::sync::OnceLock<Result<Headers, ParseError>>,
}

impl PartialEq for Packet {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for Packet {}

impl std::hash::Hash for Packet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.bytes.hash(state);
    }
}

impl Packet {
    /// Wrap raw wire bytes.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Packet { bytes, parsed: std::sync::OnceLock::new() }
    }

    /// Build from a structured view.
    pub fn from_headers(h: &Headers) -> Self {
        Packet::from_bytes(h.emit())
    }

    /// The wire bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The wire length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True if the byte buffer is empty (never true for built packets).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Parse down to `depth`.
    ///
    /// Strict through L4 (malformed headers error); best-effort at L7.
    pub fn parse(&self, depth: Layer) -> Result<Headers, ParseError> {
        let (eth, rest) = EthernetFrame::parse(&self.bytes)?;
        let mut h = Headers { eth, l3: None, l4: None, l7: None, payload: Vec::new() };
        if depth < Layer::L3 {
            h.payload = rest.to_vec();
            return Ok(h);
        }
        match eth.ethertype {
            EtherType::Arp => {
                h.l3 = Some(L3Header::Arp(ArpPacket::parse(rest)?));
                Ok(h)
            }
            EtherType::Ipv4 => {
                let (ip, l3_payload) = Ipv4Header::parse(rest)?;
                let proto = ip.proto;
                let (src, dst) = (ip.src, ip.dst);
                h.l3 = Some(L3Header::Ipv4(ip));
                if depth < Layer::L4 {
                    h.payload = l3_payload.to_vec();
                    return Ok(h);
                }
                let l4_payload: Vec<u8> = match proto {
                    IpProto::Tcp => {
                        let (t, p) = TcpHeader::parse(l3_payload, src, dst)?;
                        h.l4 = Some(L4Header::Tcp(t));
                        p.to_vec()
                    }
                    IpProto::Udp => {
                        let (u, p) = UdpHeader::parse(l3_payload, src, dst)?;
                        h.l4 = Some(L4Header::Udp(u));
                        p.to_vec()
                    }
                    IpProto::Icmp => {
                        let (i, p) = IcmpMessage::parse(l3_payload)?;
                        h.l4 = Some(L4Header::Icmp(i));
                        p.to_vec()
                    }
                    IpProto::Other(_) => {
                        h.payload = l3_payload.to_vec();
                        return Ok(h);
                    }
                };
                h.payload = l4_payload;
                if depth >= Layer::L7 {
                    h.l7 = Self::try_parse_l7(&h);
                    if h.l7.is_some() {
                        h.payload.clear();
                    }
                }
                Ok(h)
            }
            EtherType::Other(_) => {
                h.payload = rest.to_vec();
                Ok(h)
            }
        }
    }

    /// Best-effort application-layer recognition, keyed on well-known ports.
    fn try_parse_l7(h: &Headers) -> Option<L7Payload> {
        if h.payload.is_empty() {
            return None;
        }
        match &h.l4 {
            Some(L4Header::Udp(u))
                if [DHCP_SERVER_PORT, DHCP_CLIENT_PORT].contains(&u.src_port)
                    || [DHCP_SERVER_PORT, DHCP_CLIENT_PORT].contains(&u.dst_port) =>
            {
                DhcpMessage::parse(&h.payload).ok().map(L7Payload::Dhcp)
            }
            Some(L4Header::Tcp(t))
                if t.src_port == FTP_CONTROL_PORT || t.dst_port == FTP_CONTROL_PORT =>
            {
                match FtpControl::parse_payload(&h.payload) {
                    Ok(lines) if !lines.is_empty() => Some(L7Payload::Ftp(lines)),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    /// The memoized full-depth parse: computed on first use, shared by every
    /// later field extraction on this packet (and on its clones made after
    /// the parse). Purely interior state — equality, hashing, and the wire
    /// bytes are unaffected.
    pub fn parsed(&self) -> &Result<Headers, ParseError> {
        self.parsed.get_or_init(|| self.parse(Layer::L7))
    }

    /// Parse at full depth; convenience for monitors.
    pub fn headers(&self) -> Result<Headers, ParseError> {
        self.parsed().clone()
    }

    /// Extract a field without re-parsing: reads the memoized view.
    pub fn field(&self, f: Field) -> Option<FieldValue> {
        match self.parsed() {
            Ok(h) => h.field(f),
            // Full-depth parsing is strict through L4, so a packet with a
            // corrupt deep header can still carry readable shallow fields:
            // parse again, bounded at the field's own layer. The packet that
            // needs this is `truncated_tcp_header_keeps_shallow_fields`.
            Err(_) => self.parse(f.layer()).ok()?.field(f),
        }
    }

    /// Produce a rewritten copy: parse at full depth, apply `edit` to the
    /// structured view, re-emit (checksums and lengths recomputed). This is
    /// how the simulated switch implements set-field actions (e.g. NAT).
    pub fn rewrite(&self, edit: impl FnOnce(&mut Headers)) -> Result<Packet, ParseError> {
        let mut h = self.headers()?;
        edit(&mut h);
        Ok(Packet::from_headers(&h))
    }
}

impl fmt::Debug for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.headers() {
            Ok(h) => {
                write!(f, "Packet[{} -> {}", h.eth.src, h.eth.dst)?;
                if let Some(ip) = h.ipv4() {
                    write!(f, " | {} -> {} {}", ip.src, ip.dst, ip.proto)?;
                }
                if let Some(a) = h.arp() {
                    write!(f, " | arp {} {} -> {}", a.op, a.sender_ip, a.target_ip)?;
                }
                if let Some(t) = h.tcp() {
                    write!(f, " :{}->:{} [{}]", t.src_port, t.dst_port, t.flags)?;
                }
                if let Some(u) = h.udp() {
                    write!(f, " :{}->:{}", u.src_port, u.dst_port)?;
                }
                if let Some(d) = h.dhcp() {
                    write!(f, " dhcp-{}", d.msg_type)?;
                }
                write!(f, "]")
            }
            Err(e) => write!(f, "Packet[unparseable: {e}, {} bytes]", self.bytes.len()),
        }
    }
}

/// Convenience constructors for the protocols the simulator speaks.
pub struct PacketBuilder;

impl PacketBuilder {
    /// An ARP packet in an Ethernet frame. Requests are broadcast; replies
    /// are unicast to the target.
    pub fn arp(arp: ArpPacket) -> Packet {
        let dst = match arp.op {
            crate::arp::ArpOp::Request => MacAddr::BROADCAST,
            crate::arp::ArpOp::Reply => arp.target_mac,
        };
        let h = Headers {
            eth: EthernetFrame { dst, src: arp.sender_mac, ethertype: EtherType::Arp },
            l3: Some(L3Header::Arp(arp)),
            l4: None,
            l7: None,
            payload: Vec::new(),
        };
        Packet::from_headers(&h)
    }

    /// A TCP segment.
    #[allow(clippy::too_many_arguments)]
    pub fn tcp(
        src_mac: MacAddr,
        dst_mac: MacAddr,
        src_ip: Ipv4Address,
        dst_ip: Ipv4Address,
        src_port: u16,
        dst_port: u16,
        flags: TcpFlags,
        payload: &[u8],
    ) -> Packet {
        let h = Headers {
            eth: EthernetFrame { dst: dst_mac, src: src_mac, ethertype: EtherType::Ipv4 },
            l3: Some(L3Header::Ipv4(Ipv4Header::new(src_ip, dst_ip, IpProto::Tcp))),
            l4: Some(L4Header::Tcp(TcpHeader::new(src_port, dst_port, flags))),
            l7: None,
            payload: payload.to_vec(),
        };
        Packet::from_headers(&h)
    }

    /// A UDP datagram.
    #[allow(clippy::too_many_arguments)]
    pub fn udp(
        src_mac: MacAddr,
        dst_mac: MacAddr,
        src_ip: Ipv4Address,
        dst_ip: Ipv4Address,
        src_port: u16,
        dst_port: u16,
        payload: &[u8],
    ) -> Packet {
        let h = Headers {
            eth: EthernetFrame { dst: dst_mac, src: src_mac, ethertype: EtherType::Ipv4 },
            l3: Some(L3Header::Ipv4(Ipv4Header::new(src_ip, dst_ip, IpProto::Udp))),
            l4: Some(L4Header::Udp(UdpHeader::new(src_port, dst_port))),
            l7: None,
            payload: payload.to_vec(),
        };
        Packet::from_headers(&h)
    }

    /// An ICMP echo request/reply.
    pub fn icmp(
        src_mac: MacAddr,
        dst_mac: MacAddr,
        src_ip: Ipv4Address,
        dst_ip: Ipv4Address,
        msg: IcmpMessage,
    ) -> Packet {
        let h = Headers {
            eth: EthernetFrame { dst: dst_mac, src: src_mac, ethertype: EtherType::Ipv4 },
            l3: Some(L3Header::Ipv4(Ipv4Header::new(src_ip, dst_ip, IpProto::Icmp))),
            l4: Some(L4Header::Icmp(msg)),
            l7: None,
            payload: Vec::new(),
        };
        Packet::from_headers(&h)
    }

    /// A DHCP message over UDP. Client messages go 68→67 broadcast; server
    /// messages go 67→68 to the client.
    pub fn dhcp(
        src_mac: MacAddr,
        src_ip: Ipv4Address,
        dst_ip: Ipv4Address,
        msg: &DhcpMessage,
    ) -> Packet {
        let from_server = msg.msg_type.from_server();
        let (sport, dport) = if from_server {
            (DHCP_SERVER_PORT, DHCP_CLIENT_PORT)
        } else {
            (DHCP_CLIENT_PORT, DHCP_SERVER_PORT)
        };
        let dst_mac = if from_server { msg.chaddr } else { MacAddr::BROADCAST };
        let h = Headers {
            eth: EthernetFrame { dst: dst_mac, src: src_mac, ethertype: EtherType::Ipv4 },
            l3: Some(L3Header::Ipv4(Ipv4Header::new(src_ip, dst_ip, IpProto::Udp))),
            l4: Some(L4Header::Udp(UdpHeader::new(sport, dport))),
            l7: Some(L7Payload::Dhcp(msg.clone())),
            payload: Vec::new(),
        };
        Packet::from_headers(&h)
    }

    /// An FTP control-channel segment carrying `lines`.
    #[allow(clippy::too_many_arguments)]
    pub fn ftp_control(
        src_mac: MacAddr,
        dst_mac: MacAddr,
        src_ip: Ipv4Address,
        dst_ip: Ipv4Address,
        src_port: u16,
        dst_port: u16,
        lines: Vec<FtpControl>,
    ) -> Packet {
        let h = Headers {
            eth: EthernetFrame { dst: dst_mac, src: src_mac, ethertype: EtherType::Ipv4 },
            l3: Some(L3Header::Ipv4(Ipv4Header::new(src_ip, dst_ip, IpProto::Tcp))),
            l4: Some(L4Header::Tcp(TcpHeader::new(src_port, dst_port, TcpFlags::ACK))),
            l7: Some(L7Payload::Ftp(lines)),
            payload: Vec::new(),
        };
        Packet::from_headers(&h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arp::ArpOp;

    fn macs() -> (MacAddr, MacAddr) {
        (MacAddr::new(2, 0, 0, 0, 0, 1), MacAddr::new(2, 0, 0, 0, 0, 2))
    }

    fn ips() -> (Ipv4Address, Ipv4Address) {
        (Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(10, 0, 0, 2))
    }

    #[test]
    fn tcp_packet_full_stack_round_trip() {
        let (sm, dm) = macs();
        let (si, di) = ips();
        let p = PacketBuilder::tcp(sm, dm, si, di, 4242, 80, TcpFlags::SYN, b"hello");
        let h = p.headers().unwrap();
        assert_eq!(h.eth.src, sm);
        assert_eq!(h.ipv4().unwrap().src, si);
        assert_eq!(h.tcp().unwrap().dst_port, 80);
        assert_eq!(h.payload, b"hello");
        // Emit/parse is identity on bytes.
        assert_eq!(Packet::from_headers(&h).bytes(), p.bytes());
    }

    #[test]
    fn parse_depth_stops_at_requested_layer() {
        let (sm, dm) = macs();
        let (si, di) = ips();
        let p = PacketBuilder::tcp(sm, dm, si, di, 1, 2, TcpFlags::SYN, &[]);
        let l2 = p.parse(Layer::L2).unwrap();
        assert!(l2.l3.is_none() && l2.l4.is_none());
        let l3 = p.parse(Layer::L3).unwrap();
        assert!(l3.l3.is_some() && l3.l4.is_none());
        let l4 = p.parse(Layer::L4).unwrap();
        assert!(l4.l4.is_some());
    }

    #[test]
    fn field_extraction_honours_depth() {
        let (sm, dm) = macs();
        let (si, di) = ips();
        let p = PacketBuilder::tcp(sm, dm, si, di, 7777, 443, TcpFlags::ACK, &[]);
        assert_eq!(p.field(Field::EthSrc), Some(sm.into()));
        assert_eq!(p.field(Field::Ipv4Dst), Some(di.into()));
        assert_eq!(p.field(Field::L4Src), Some(7777u16.into()));
        assert_eq!(p.field(Field::TcpFlags), Some(u64::from(TcpFlags::ACK.0).into()));
        assert_eq!(p.field(Field::DhcpYiaddr), None);
        assert_eq!(p.field(Field::InPort), None, "metadata is not in packet bytes");
    }

    #[test]
    fn arp_packet_fields() {
        let (sm, _) = macs();
        let (si, di) = ips();
        let p = PacketBuilder::arp(ArpPacket::request(sm, si, di));
        let h = p.headers().unwrap();
        assert_eq!(h.eth.dst, MacAddr::BROADCAST);
        assert_eq!(h.field(Field::ArpOp), Some(u64::from(ArpOp::Request.to_u16()).into()));
        assert_eq!(h.field(Field::ArpTargetIp), Some(di.into()));
        assert_eq!(h.field(Field::Ipv4Src), None, "ARP has no IPv4 header");
    }

    #[test]
    fn dhcp_l7_recognised_on_ports() {
        let (sm, _) = macs();
        let msg = DhcpMessage::discover(0xabc, sm);
        let p = PacketBuilder::dhcp(sm, Ipv4Address::UNSPECIFIED, Ipv4Address::BROADCAST, &msg);
        let h = p.headers().unwrap();
        assert_eq!(h.dhcp().unwrap(), &msg);
        assert_eq!(h.field(Field::DhcpXid), Some(0xabcu64.into()));
        // At L4 depth the DHCP view is absent.
        assert!(p.parse(Layer::L4).unwrap().l7.is_none());
    }

    #[test]
    fn non_dhcp_udp_payload_has_no_l7() {
        let (sm, dm) = macs();
        let (si, di) = ips();
        let p = PacketBuilder::udp(sm, dm, si, di, 5000, 5001, b"not-dhcp");
        let h = p.headers().unwrap();
        assert!(h.l7.is_none());
        assert_eq!(h.payload, b"not-dhcp");
    }

    #[test]
    fn garbage_on_dhcp_port_is_best_effort_none() {
        let (sm, dm) = macs();
        let (si, di) = ips();
        let p = PacketBuilder::udp(sm, dm, si, di, 68, 67, b"garbage");
        let h = p.headers().unwrap();
        assert!(h.l7.is_none(), "malformed L7 yields no view, not an error");
        assert_eq!(h.payload, b"garbage");
    }

    #[test]
    fn ftp_control_endpoint_extraction() {
        let (sm, dm) = macs();
        let (si, di) = ips();
        let lines = vec![FtpControl::Port { addr: si, port: 5001 }];
        let p = PacketBuilder::ftp_control(sm, dm, si, di, 3333, 21, lines);
        let h = p.headers().unwrap();
        assert_eq!(h.ftp_endpoint(), Some((si, 5001)));
        assert_eq!(h.field(Field::FtpDataPort), Some(5001u16.into()));
    }

    #[test]
    fn rewrite_recomputes_checksums() {
        let (sm, dm) = macs();
        let (si, di) = ips();
        let p = PacketBuilder::tcp(sm, dm, si, di, 1000, 80, TcpFlags::SYN, b"x");
        let nat_ip = Ipv4Address::new(203, 0, 113, 9);
        let q = p
            .rewrite(|h| {
                if let Some(L3Header::Ipv4(ip)) = h.l3.as_mut() {
                    ip.src = nat_ip;
                }
                if let Some(L4Header::Tcp(t)) = h.l4.as_mut() {
                    t.src_port = 61000;
                }
            })
            .unwrap();
        // The rewritten packet re-parses cleanly (checksums are valid)...
        let h = q.headers().unwrap();
        assert_eq!(h.ipv4().unwrap().src, nat_ip);
        assert_eq!(h.tcp().unwrap().src_port, 61000);
        assert_eq!(h.payload, b"x");
        // ...and the original is untouched.
        assert_eq!(p.headers().unwrap().ipv4().unwrap().src, si);
    }

    #[test]
    fn set_field_rewrites_and_rejects() {
        let (sm, dm) = macs();
        let (si, di) = ips();
        let p = PacketBuilder::tcp(sm, dm, si, di, 1000, 80, TcpFlags::SYN, b"x");
        let mut h = p.headers().unwrap();
        let nat = Ipv4Address::new(203, 0, 113, 7);
        assert!(h.set_field(Field::Ipv4Src, nat.into()));
        assert!(h.set_field(Field::L4Src, 61000u16.into()));
        assert!(h.set_field(Field::Ttl, 9u8.into()));
        assert!(h.set_field(Field::EthDst, MacAddr::BROADCAST.into()));
        // Type mismatches and unsupported fields refuse.
        assert!(!h.set_field(Field::Ipv4Src, 5u64.into()), "wrong type");
        assert!(!h.set_field(Field::L4Src, FieldValue::Uint(70_000)), "port overflow");
        assert!(!h.set_field(Field::EthType, 0x0806u64.into()), "read-only discriminator");
        assert!(!h.set_field(Field::InPort, 1u64.into()), "metadata not in packet");
        // The rewrite survives a canonical re-emit + reparse.
        let q = Packet::from_headers(&h);
        let h2 = q.headers().unwrap();
        assert_eq!(h2.ipv4().unwrap().src, nat);
        assert_eq!(h2.tcp().unwrap().src_port, 61000);
        assert_eq!(h2.ipv4().unwrap().ttl, 9);
        assert_eq!(h2.payload, b"x");
    }

    #[test]
    fn set_field_on_missing_layer_fails() {
        let (sm, _) = macs();
        let (si, di) = ips();
        let p = PacketBuilder::arp(ArpPacket::request(sm, si, di));
        let mut h = p.headers().unwrap();
        assert!(!h.set_field(Field::Ipv4Src, di.into()), "ARP has no IPv4 header");
        assert!(!h.set_field(Field::L4Src, 5u16.into()));
    }

    #[test]
    fn truncated_bytes_error() {
        let p = Packet::from_bytes(vec![0u8; 5]);
        assert!(p.headers().is_err());
        assert_eq!(p.field(Field::EthSrc), None);
    }

    #[test]
    fn truncated_tcp_header_keeps_shallow_fields() {
        // Ethernet + IPv4 intact (lengths and checksum consistent), but only
        // 10 of TCP's 20 header bytes made it onto the wire.
        let (sm, dm) = macs();
        let (si, di) = ips();
        let mut bytes = Vec::new();
        EthernetFrame { dst: dm, src: sm, ethertype: EtherType::Ipv4 }.emit(&mut bytes);
        Ipv4Header::new(si, di, IpProto::Tcp).emit(10, &mut bytes);
        bytes.extend_from_slice(&[0x10, 0x92, 0x00, 0x50, 0, 0, 0, 1, 0, 0]);
        let p = Packet::from_bytes(bytes);
        assert!(p.parsed().is_err(), "the full-depth parse is strict through L4");
        // The memoized parse failed, so these come from the bounded
        // re-parse at each field's own layer.
        assert_eq!(p.field(Field::EthSrc), Some(sm.into()));
        assert_eq!(p.field(Field::Ipv4Src), Some(si.into()));
        assert_eq!(p.field(Field::Ipv4Dst), Some(di.into()));
        assert_eq!(p.field(Field::L4Src), None, "the truncated header yields no L4 field");
    }

    #[test]
    fn debug_format_is_readable() {
        let (sm, dm) = macs();
        let (si, di) = ips();
        let p = PacketBuilder::tcp(sm, dm, si, di, 9, 80, TcpFlags::SYN, &[]);
        let s = format!("{p:?}");
        assert!(s.contains("10.0.0.1"), "{s}");
        assert!(s.contains("SYN"), "{s}");
    }
}
