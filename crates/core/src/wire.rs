//! The canonical `SWMS`-family byte framing.
//!
//! One little-endian, hand-rolled, versioned binary convention shared by
//! every on-disk/off-thread artifact in the workspace: monitor checkpoints
//! ([`crate::snapshot`], magic `SWMS`) and the violation store's segment
//! encoding (`swmon-store`, magic `SWVS`). Extracting the writer/reader
//! here means a [`crate::Violation`] — bindings, history events, provenance
//! flags — is encoded by exactly one piece of code, so a violation that
//! round-trips through a checkpoint and one that round-trips through a
//! store segment are byte-for-byte the same payload.
//!
//! The convention: a 4-byte magic, a `u16` format version, then
//! length-prefixed structures. Decoding validates *before* anything is
//! mutated — truncation, bad tags, and trailing bytes are loud
//! [`SnapshotError`]s, never panics.

use crate::var::{var, Bindings};
use crate::violation::Violation;
use std::fmt;
use std::sync::Arc;
use swmon_packet::{FieldValue, Ipv4Address, MacAddr, Packet};
use swmon_sim::time::Instant;
use swmon_sim::trace::{
    EgressAction, NetEvent, NetEventKind, OobEvent, PacketId, PortNo, SwitchId,
};

/// Why a framed byte payload could not be decoded or applied.
///
/// Named for its first consumer (monitor snapshots); the store's segment
/// decoder reports the same conditions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The bytes do not start with the expected magic.
    BadMagic,
    /// The payload was written by an incompatible format version.
    UnsupportedVersion(u16),
    /// The input ended mid-structure.
    Truncated,
    /// An enum tag byte was out of range.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// The snapshot belongs to a different property than the restoring
    /// monitor watches.
    PropertyMismatch {
        /// The restoring monitor's property.
        expected: String,
        /// The snapshot's property.
        found: String,
    },
    /// Structurally invalid content (bad lengths, inconsistent state).
    Malformed(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a recognised payload (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported format version {v}")
            }
            SnapshotError::Truncated => write!(f, "payload truncated"),
            SnapshotError::BadTag { what, tag } => write!(f, "bad {what} tag {tag:#04x}"),
            SnapshotError::PropertyMismatch { expected, found } => {
                write!(f, "snapshot is for property {found}, monitor watches {expected}")
            }
            SnapshotError::Malformed(why) => write!(f, "malformed payload: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

// ---- little-endian writer ----------------------------------------------

/// Append-only little-endian encoder for the `SWMS`-family framing.
#[derive(Debug, Default)]
pub struct Writer(Vec<u8>);

impl Writer {
    /// An empty writer with room for `cap` bytes.
    pub fn with_capacity(cap: usize) -> Self {
        Writer(Vec::with_capacity(cap))
    }

    /// Consume the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.0
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The 4-byte payload magic (always first).
    pub fn magic(&mut self, m: &[u8; 4]) {
        self.0.extend_from_slice(m);
    }

    /// Raw bytes, no length prefix (caller frames them).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    /// Little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    /// Little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    /// Little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    /// A bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
    /// A `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
    /// An optional `u64` (presence tag, then the value).
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
        }
    }

    /// A tagged [`FieldValue`].
    pub fn field_value(&mut self, v: &FieldValue) {
        match v {
            FieldValue::Mac(m) => {
                self.u8(0);
                self.u64(m.to_u64());
            }
            FieldValue::Ipv4(a) => {
                self.u8(1);
                self.u32(a.to_u32());
            }
            FieldValue::Uint(u) => {
                self.u8(2);
                self.u64(*u);
            }
        }
    }

    /// A [`Bindings`] environment, in canonical (name) order.
    pub fn bindings(&mut self, b: &Bindings) {
        self.u8(b.len() as u8);
        for (v, val) in b.iter() {
            self.str(v.name());
            self.field_value(val);
        }
    }

    /// A raw packet (length-prefixed bytes).
    pub fn packet(&mut self, p: &Packet) {
        self.u32(p.bytes().len() as u32);
        self.0.extend_from_slice(p.bytes());
    }

    /// A [`NetEvent`] (time, then tagged kind).
    pub fn event(&mut self, ev: &NetEvent) {
        self.u64(ev.time.as_nanos());
        match &ev.kind {
            NetEventKind::Arrival { switch, port, pkt, id } => {
                self.u8(0);
                self.u32(switch.0);
                self.u16(port.0);
                self.packet(pkt);
                self.u64(id.0);
            }
            NetEventKind::Departure { switch, pkt, id, action } => {
                self.u8(1);
                self.u32(switch.0);
                self.packet(pkt);
                self.u64(id.0);
                match action {
                    EgressAction::Output(p) => {
                        self.u8(0);
                        self.u16(p.0);
                    }
                    EgressAction::Flood => self.u8(1),
                    EgressAction::Drop => self.u8(2),
                }
            }
            NetEventKind::OutOfBand(oob) => {
                self.u8(2);
                match oob {
                    OobEvent::PortDown(s, p) => {
                        self.u8(0);
                        self.u32(s.0);
                        self.u16(p.0);
                    }
                    OobEvent::PortUp(s, p) => {
                        self.u8(1);
                        self.u32(s.0);
                        self.u16(p.0);
                    }
                    OobEvent::ControllerMsg(s, tag) => {
                        self.u8(2);
                        self.u32(s.0);
                        self.u64(*tag);
                    }
                }
            }
        }
    }

    /// A full [`Violation`]: property, time, trigger stage, bindings,
    /// history, and the degraded-provenance flag. The merge-time sequence
    /// id is *not* framed — it is positional metadata the consumer
    /// re-derives (checkpointed violations have none; store segments frame
    /// it beside the violation).
    pub fn violation(&mut self, v: &Violation) {
        self.str(&v.property);
        self.u64(v.time.as_nanos());
        self.str(&v.trigger_stage);
        match &v.bindings {
            None => self.u8(0),
            Some(b) => {
                self.u8(1);
                self.bindings(b);
            }
        }
        self.u64(v.history.len() as u64);
        for ev in &v.history {
            self.event(ev);
        }
        self.bool(v.degraded);
    }
}

// ---- little-endian reader ----------------------------------------------

/// Validating decoder over a framed byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { b: bytes, pos: 0 }
    }

    /// Check the 4-byte magic and the `u16` version against expectations.
    pub fn expect_header(&mut self, magic: &[u8; 4], version: u16) -> Result<(), SnapshotError> {
        if self.take(4)? != magic {
            return Err(SnapshotError::BadMagic);
        }
        let v = self.u16()?;
        if v != version {
            return Err(SnapshotError::UnsupportedVersion(v));
        }
        Ok(())
    }

    /// Fail unless every input byte has been consumed.
    pub fn expect_end(&self) -> Result<(), SnapshotError> {
        if self.pos != self.b.len() {
            return Err(SnapshotError::Malformed("trailing bytes after payload"));
        }
        Ok(())
    }

    /// The next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.b.len() {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.b[self.pos..end];
        self.pos = end;
        Ok(out)
    }
    /// One byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }
    /// Little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }
    /// Little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }
    /// Little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
    /// A `u64` that must fit in `usize` (lengths, indices).
    #[allow(clippy::len_without_is_empty)] // decodes a length field; not a container
    pub fn len(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?).map_err(|_| SnapshotError::Malformed("length exceeds usize"))
    }
    /// An element count: a [`Reader::len`] that the rest of the input can
    /// hold. Every framed element encodes to at least one byte, so a count
    /// beyond the remaining bytes is [`SnapshotError::Truncated`] before
    /// anything is reserved for it — a short hostile input cannot make a
    /// decoder allocate more than its own length in elements.
    pub fn count(&mut self) -> Result<usize, SnapshotError> {
        let n = self.len()?;
        if n > self.b.len() - self.pos {
            return Err(SnapshotError::Truncated);
        }
        Ok(n)
    }
    /// A bool byte (anything but 0/1 is a bad tag).
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(SnapshotError::BadTag { what: "bool", tag: t }),
        }
    }
    /// A `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapshotError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Malformed("string is not UTF-8"))
    }
    /// An optional `u64`.
    pub fn opt_u64(&mut self) -> Result<Option<u64>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            t => Err(SnapshotError::BadTag { what: "option", tag: t }),
        }
    }

    /// A tagged [`FieldValue`].
    pub fn field_value(&mut self) -> Result<FieldValue, SnapshotError> {
        match self.u8()? {
            0 => Ok(FieldValue::Mac(MacAddr::from_u64(self.u64()?))),
            1 => Ok(FieldValue::Ipv4(Ipv4Address::from_u32(self.u32()?))),
            2 => Ok(FieldValue::Uint(self.u64()?)),
            t => Err(SnapshotError::BadTag { what: "field value", tag: t }),
        }
    }

    /// A [`Bindings`] environment (duplicates and overflow rejected).
    pub fn bindings(&mut self) -> Result<Bindings, SnapshotError> {
        let n = self.u8()? as usize;
        if n > crate::var::MAX_VARS {
            return Err(SnapshotError::Malformed("too many bindings"));
        }
        let mut b = Bindings::new();
        for _ in 0..n {
            let name = self.str()?;
            let val = self.field_value()?;
            let v = var(&name);
            if b.is_bound(&v) {
                return Err(SnapshotError::Malformed("duplicate binding"));
            }
            b = b.bind(v, val);
        }
        Ok(b)
    }

    /// A raw packet.
    pub fn packet(&mut self) -> Result<Arc<Packet>, SnapshotError> {
        let n = self.u32()? as usize;
        Ok(Arc::new(Packet::from_bytes(self.take(n)?.to_vec())))
    }

    /// A [`NetEvent`].
    pub fn event(&mut self) -> Result<NetEvent, SnapshotError> {
        let time = Instant::from_nanos(self.u64()?);
        let kind = match self.u8()? {
            0 => {
                let switch = SwitchId(self.u32()?);
                let port = PortNo(self.u16()?);
                let pkt = self.packet()?;
                let id = PacketId(self.u64()?);
                NetEventKind::Arrival { switch, port, pkt, id }
            }
            1 => {
                let switch = SwitchId(self.u32()?);
                let pkt = self.packet()?;
                let id = PacketId(self.u64()?);
                let action = match self.u8()? {
                    0 => EgressAction::Output(PortNo(self.u16()?)),
                    1 => EgressAction::Flood,
                    2 => EgressAction::Drop,
                    t => return Err(SnapshotError::BadTag { what: "egress action", tag: t }),
                };
                NetEventKind::Departure { switch, pkt, id, action }
            }
            2 => {
                let oob = match self.u8()? {
                    0 => OobEvent::PortDown(SwitchId(self.u32()?), PortNo(self.u16()?)),
                    1 => OobEvent::PortUp(SwitchId(self.u32()?), PortNo(self.u16()?)),
                    2 => OobEvent::ControllerMsg(SwitchId(self.u32()?), self.u64()?),
                    t => return Err(SnapshotError::BadTag { what: "oob event", tag: t }),
                };
                NetEventKind::OutOfBand(oob)
            }
            t => return Err(SnapshotError::BadTag { what: "event", tag: t }),
        };
        Ok(NetEvent { time, kind })
    }

    /// A [`Violation`] framed by [`Writer::violation`]. The decoded
    /// violation carries no merge-time sequence id (see the writer's note).
    pub fn violation(&mut self) -> Result<Violation, SnapshotError> {
        let property = self.str()?;
        let time = Instant::from_nanos(self.u64()?);
        let trigger_stage = self.str()?;
        let bindings = match self.u8()? {
            0 => None,
            1 => Some(self.bindings()?),
            t => return Err(SnapshotError::BadTag { what: "option", tag: t }),
        };
        let n = self.count()?;
        let mut history = Vec::with_capacity(n);
        for _ in 0..n {
            history.push(self.event()?);
        }
        let degraded = self.bool()?;
        Ok(Violation {
            property,
            time,
            trigger_stage,
            bindings,
            history,
            degraded,
            merge_seq: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::default();
        w.magic(b"TEST");
        w.u16(3);
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 1);
        w.bool(true);
        w.str("héllo");
        w.opt_u64(None);
        w.opt_u64(Some(42));
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        r.expect_header(b"TEST", 3).unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.opt_u64().unwrap(), None);
        assert_eq!(r.opt_u64().unwrap(), Some(42));
        r.expect_end().unwrap();
    }

    #[test]
    fn header_mismatches_are_loud() {
        let mut w = Writer::default();
        w.magic(b"AAAA");
        w.u16(1);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.expect_header(b"BBBB", 1), Err(SnapshotError::BadMagic));
        let mut r = Reader::new(&bytes);
        assert_eq!(r.expect_header(b"AAAA", 2), Err(SnapshotError::UnsupportedVersion(1)));
        let mut r = Reader::new(&bytes);
        r.expect_header(b"AAAA", 1).unwrap();
        assert!(r.expect_end().is_ok());
        assert_eq!(Reader::new(&bytes[..3]).take(4), Err(SnapshotError::Truncated));
    }

    #[test]
    fn a_count_the_input_cannot_hold_is_truncated() {
        let mut w = Writer::default();
        w.u64(1 << 20);
        w.raw(&[0; 12]);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 20);
        assert_eq!(Reader::new(&bytes).count(), Err(SnapshotError::Truncated));
        let mut w = Writer::default();
        w.u64(3);
        w.raw(&[7; 3]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.count(), Ok(3), "one byte per element is enough");
        assert_eq!(r.take(3).map(<[u8]>::len), Ok(3));
        r.expect_end().unwrap();
    }

    #[test]
    fn violation_round_trips_with_degraded_flag() {
        use swmon_packet::FieldValue;
        let v = Violation {
            property: "fw".into(),
            time: Instant::from_nanos(1234),
            trigger_stage: "return-dropped".into(),
            bindings: Some(Bindings::new().bind(var("A"), FieldValue::Uint(9))),
            history: vec![],
            degraded: true,
            merge_seq: Some(99),
        };
        let mut w = Writer::default();
        w.violation(&v);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = r.violation().unwrap();
        r.expect_end().unwrap();
        assert_eq!(back.property, v.property);
        assert_eq!(back.time, v.time);
        assert_eq!(back.bindings, v.bindings);
        assert!(back.degraded, "degraded provenance survives the framing");
        assert_eq!(back.merge_seq, None, "sequence ids are positional, not framed");
        assert_eq!(back.summary(), v.summary());
    }
}
