#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # swmon-packet — wire formats and the header-field model
//!
//! This crate provides the packet substrate for the `swmon` workspace:
//!
//! * Wire-format **parsers and emitters** for the protocols the paper's
//!   properties reach: Ethernet, ARP, IPv4, TCP, UDP, ICMP (L2–L4), and
//!   DHCP / FTP control (L7).
//! * A uniform **field model** ([`Field`], [`FieldValue`]) used by the monitor
//!   language to name header fields independently of protocol, together with
//!   the *parse depth* ([`Layer`]) each field requires. This realises
//!   **Feature 1 ("Access to Necessary Fields")** of the paper: a switch (or a
//!   monitor compiled onto one) can only read fields up to its parser's depth,
//!   and Table 1's "Fields" column is derived from [`Field::layer`].
//! * A [`Packet`] type pairing raw bytes with parsed headers, plus ergonomic
//!   builders for every supported protocol.
//! * [`FoldMap`], a `HashMap` with a seeded multiply hasher for keys made of
//!   header values, which the monitor engine's hot maps use.
//!
//! Parsing is *total and explicit*: malformed input yields a typed
//! [`ParseError`], never a panic. Emitting then re-parsing any header is
//! identity (enforced by proptest round-trips in each module).

pub mod addr;
pub mod arp;
pub mod checksum;
pub mod dhcp;
pub mod error;
pub mod eth;
pub mod field;
pub mod ftp;
pub mod hash;
pub mod icmp;
pub mod ipv4;
pub mod packet;
pub mod tcp;
pub mod udp;

pub use addr::{Ipv4Address, MacAddr};
pub use arp::{ArpOp, ArpPacket};
pub use dhcp::{DhcpMessage, DhcpMsgType};
pub use error::ParseError;
pub use eth::{EtherType, EthernetFrame};
pub use field::{Field, FieldValue, Layer};
pub use ftp::FtpControl;
pub use hash::{FoldMap, FoldState};
pub use icmp::{IcmpMessage, IcmpType};
pub use ipv4::{IpProto, Ipv4Header};
pub use packet::{Headers, L4Header, L7Payload, Packet, PacketBuilder};
pub use tcp::{TcpFlags, TcpHeader};
pub use udp::UdpHeader;
