//! Wire formats for the probe packets the simulator exchanges.
//!
//! The simulator could pass Rust structs around directly, but encoding probes
//! and responses through real ICMP wire formats keeps the measurement tools
//! honest: the prober only learns what a real prober could parse out of the
//! bytes on the wire (response TTLs, quoted headers in Time Exceeded
//! messages, checksum-carried flow identifiers — the Paris trick).
//!
//! The core is slice-based and allocation-free: `to_wire` builds a
//! message's checksummed bytes as a stack array and `parse` validates and
//! reads one from the front of a `&[u8]`. The per-probe path
//! ([`Network::exchange`](crate::Network::exchange) and the prober) uses
//! only these. The `BytesMut` `encode` and `&mut Bytes` `decode` methods are
//! thin wrappers over them for callers that hold `bytes` buffers.

use crate::addr::Addr;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// ICMP message types we model.
pub const ICMP_ECHO_REPLY: u8 = 0;
/// ICMP Destination Unreachable.
pub const ICMP_DEST_UNREACH: u8 = 3;
/// ICMP Echo Request.
pub const ICMP_ECHO_REQUEST: u8 = 8;
/// ICMP Time Exceeded (TTL expired in transit).
pub const ICMP_TIME_EXCEEDED: u8 = 11;

/// Minimal IPv4 header as carried by the simulator (no options).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Source address.
    pub src: Addr,
    /// Destination address.
    pub dst: Addr,
    /// Time to live.
    pub ttl: u8,
    /// Protocol (1 = ICMP; the only protocol the simulator forwards).
    pub protocol: u8,
    /// IP identification field (part of some routers' hash input).
    pub ident: u16,
}

/// Fixed size of our serialized IPv4 header (standard 20 bytes, no options).
pub const IPV4_HEADER_LEN: usize = 20;
/// Fixed size of an ICMP echo header.
pub const ICMP_ECHO_HEADER_LEN: usize = 8;
/// Fixed size of an echo message as the simulator sends it: the header and
/// the two payload bytes that carry the checksum tweak.
pub(crate) const ICMP_ECHO_LEN: usize = ICMP_ECHO_HEADER_LEN + 2;
/// Fixed size of an ICMP error message: its own 8-byte header, the quoted
/// IPv4 header and the quoted echo header.
pub(crate) const ICMP_ERROR_LEN: usize = 8 + IPV4_HEADER_LEN + ICMP_ECHO_HEADER_LEN;

impl Ipv4Header {
    /// Serialize into `buf` (standard layout, version/IHL fixed, no options).
    pub fn encode(&self, buf: &mut BytesMut) {
        buf.put_slice(&self.to_wire());
    }

    /// The checksummed 20 wire bytes.
    pub(crate) fn to_wire(self) -> [u8; IPV4_HEADER_LEN] {
        let mut h = [0u8; IPV4_HEADER_LEN];
        h[0] = 0x45; // version 4, IHL 5
                     // h[1] DSCP/ECN, h[2..4] total length: zero
        h[4..6].copy_from_slice(&self.ident.to_be_bytes());
        // h[6..8] flags/fragment offset: zero
        h[8] = self.ttl;
        h[9] = self.protocol;
        h[12..16].copy_from_slice(&self.src.0.to_be_bytes());
        h[16..20].copy_from_slice(&self.dst.0.to_be_bytes());
        let sum = internet_checksum(&h);
        h[10..12].copy_from_slice(&sum.to_be_bytes());
        h
    }

    /// Parse a header from the front of `buf`, validating the checksum.
    pub fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let header = Ipv4Header::parse(buf.chunk())?;
        buf.advance(IPV4_HEADER_LEN);
        Ok(header)
    }

    /// Parse a header from the front of `bytes`, validating the checksum.
    pub fn parse(bytes: &[u8]) -> Result<Self, WireError> {
        let Some(h) = bytes.get(..IPV4_HEADER_LEN) else {
            return Err(WireError::Truncated);
        };
        if internet_checksum(h) != 0 {
            return Err(WireError::BadChecksum);
        }
        if h[0] != 0x45 {
            return Err(WireError::BadVersion(h[0]));
        }
        let word = |i: usize| u32::from_be_bytes([h[i], h[i + 1], h[i + 2], h[i + 3]]);
        Ok(Ipv4Header {
            src: Addr(word(12)),
            dst: Addr(word(16)),
            ttl: h[8],
            protocol: h[9],
            ident: u16::from_be_bytes([h[4], h[5]]),
        })
    }
}

/// An ICMP echo request/reply header.
///
/// Paris traceroute keeps the ICMP *checksum* constant across probes so that
/// per-flow load balancers (which hash the first four bytes of the transport
/// header) see a stable flow; it varies the checksum deliberately to explore
/// siblings. We model the checksum as derived from id/seq/payload exactly as
/// on the wire, so the prober must do the same bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IcmpEcho {
    /// Echo identifier (ties replies to the probing process).
    pub ident: u16,
    /// Sequence number.
    pub seq: u16,
    /// Two payload bytes the prober tunes to force a chosen checksum.
    pub tweak: u16,
}

impl IcmpEcho {
    /// The ICMP checksum this echo message will carry on the wire.
    ///
    /// This is the "flow identifier" a per-flow load balancer observes.
    /// Computed over the header on the stack: every `Network::send` calls
    /// this to build its flow key.
    pub fn wire_checksum(&self, icmp_type: u8) -> u16 {
        internet_checksum(&self.header(icmp_type, 0))
    }

    /// Choose `tweak` so that the encoded checksum equals `target`.
    ///
    /// The internet checksum is the one's-complement sum, so solving for a
    /// payload word that produces a target checksum is exact arithmetic.
    ///
    /// # Panics
    /// Panics if `target == 0xffff`: a checksum of `0xffff` would require the
    /// one's-complement sum to be `+0`, which a non-zero message never
    /// produces (RFC 1071 arithmetic yields `-0` = `0xffff` instead, which
    /// folds to checksum `0x0000`). Flow-label generators must stay within
    /// `0x0000..=0xfffe`.
    pub fn with_checksum(ident: u16, seq: u16, target: u16) -> IcmpEcho {
        assert!(
            target != 0xffff,
            "checksum 0xffff is unrepresentable; use labels in 0..=0xfffe"
        );
        // checksum = !(type/code + ident + seq + tweak)  (one's complement sum)
        // We need tweak = !target - (type/code word) - ident - seq  in
        // one's-complement arithmetic. type=8, code=0 => word 0x0800.
        let want = !target;
        let fixed = ones_add(ones_add(0x0800, ident), seq);
        let tweak = ones_sub(want, fixed);
        let echo = IcmpEcho { ident, seq, tweak };
        debug_assert_eq!(echo.wire_checksum(ICMP_ECHO_REQUEST), target);
        echo
    }

    /// The 10 header-plus-tweak bytes as they go on the wire, carrying
    /// `checksum` in its field.
    fn header(&self, icmp_type: u8, checksum: u16) -> [u8; ICMP_ECHO_LEN] {
        let [c0, c1] = checksum.to_be_bytes();
        let [i0, i1] = self.ident.to_be_bytes();
        let [s0, s1] = self.seq.to_be_bytes();
        let [t0, t1] = self.tweak.to_be_bytes();
        [icmp_type, 0, c0, c1, i0, i1, s0, s1, t0, t1]
    }

    /// The checksummed wire bytes of this message with type `icmp_type`.
    pub(crate) fn to_wire(self, icmp_type: u8) -> [u8; ICMP_ECHO_LEN] {
        self.header(icmp_type, self.wire_checksum(icmp_type))
    }

    /// Serialize as an echo request.
    pub fn encode_request(&self, buf: &mut BytesMut) {
        buf.put_slice(&self.to_wire(ICMP_ECHO_REQUEST));
    }

    /// Serialize as an echo reply.
    pub fn encode_reply(&self, buf: &mut BytesMut) {
        buf.put_slice(&self.to_wire(ICMP_ECHO_REPLY));
    }

    /// Parse an echo message; returns `(icmp_type, echo)`.
    pub fn decode(buf: &mut Bytes) -> Result<(u8, IcmpEcho), WireError> {
        let parsed = IcmpEcho::parse(buf.chunk())?;
        buf.advance(ICMP_ECHO_LEN);
        Ok(parsed)
    }

    /// Parse an echo message from the front of `bytes`, validating the
    /// checksum; returns `(icmp_type, echo)`.
    pub fn parse(bytes: &[u8]) -> Result<(u8, IcmpEcho), WireError> {
        let Some(m) = bytes.get(..ICMP_ECHO_LEN) else {
            return Err(WireError::Truncated);
        };
        if internet_checksum(m) != 0 {
            return Err(WireError::BadChecksum);
        }
        let word = |i: usize| u16::from_be_bytes([m[i], m[i + 1]]);
        Ok((
            m[0],
            IcmpEcho {
                ident: word(4),
                seq: word(6),
                tweak: word(8),
            },
        ))
    }
}

/// ICMP error message (Time Exceeded / Destination Unreachable) quoting the
/// offending packet's IP header plus the first 8 bytes of its payload, as
/// RFC 792 requires. Traceroute relies on the quote to match responses to
/// probes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IcmpError {
    /// ICMP type: `ICMP_TIME_EXCEEDED` or `ICMP_DEST_UNREACH`.
    pub icmp_type: u8,
    /// Quoted IPv4 header of the probe that triggered the error.
    pub quoted: Ipv4Header,
    /// Quoted first 8 bytes of the probe's ICMP payload.
    pub quoted_echo: IcmpEcho,
    /// The quoted echo's type byte.
    pub quoted_type: u8,
}

impl IcmpError {
    /// Serialize: type/code/checksum/unused + quoted IP header + 8 bytes.
    pub fn encode(&self, buf: &mut BytesMut) {
        buf.put_slice(&self.to_wire());
    }

    /// The checksummed wire bytes of this message.
    pub(crate) fn to_wire(&self) -> [u8; ICMP_ERROR_LEN] {
        let mut m = [0u8; ICMP_ERROR_LEN];
        m[0] = self.icmp_type;
        // m[1] code, m[2..4] checksum, m[4..8] unused: zero
        m[8..8 + IPV4_HEADER_LEN].copy_from_slice(&self.quoted.to_wire());
        // First 8 bytes of the quoted ICMP message (header only, minus tweak).
        m[8 + IPV4_HEADER_LEN..]
            .copy_from_slice(&self.quoted_echo.to_wire(self.quoted_type)[..ICMP_ECHO_HEADER_LEN]);
        let sum = internet_checksum(&m);
        m[2..4].copy_from_slice(&sum.to_be_bytes());
        m
    }

    /// Parse an ICMP error message and its quoted probe.
    pub fn decode(buf: &mut Bytes) -> Result<IcmpError, WireError> {
        let parsed = IcmpError::parse(buf.chunk())?;
        buf.advance(ICMP_ERROR_LEN);
        Ok(parsed)
    }

    /// Parse an ICMP error message and its quoted probe from the front of
    /// `bytes`, validating both checksums.
    pub fn parse(bytes: &[u8]) -> Result<IcmpError, WireError> {
        let Some(m) = bytes.get(..ICMP_ERROR_LEN) else {
            return Err(WireError::Truncated);
        };
        if internet_checksum(m) != 0 {
            return Err(WireError::BadChecksum);
        }
        let quoted = Ipv4Header::parse(&m[8..])?;
        let echo = &m[8 + IPV4_HEADER_LEN..];
        Ok(IcmpError {
            icmp_type: m[0],
            quoted,
            quoted_echo: IcmpEcho {
                ident: u16::from_be_bytes([echo[4], echo[5]]),
                seq: u16::from_be_bytes([echo[6], echo[7]]),
                tweak: 0,
            },
            quoted_type: echo[0],
        })
    }
}

/// Decoding failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Not enough bytes for the claimed structure.
    Truncated,
    /// Checksum mismatch.
    BadChecksum,
    /// Unsupported IP version / header length byte.
    BadVersion(u8),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated packet"),
            WireError::BadChecksum => write!(f, "bad checksum"),
            WireError::BadVersion(b) => write!(f, "unsupported version/IHL byte {b:#x}"),
        }
    }
}

impl std::error::Error for WireError {}

/// RFC 1071 internet checksum over `data` (16-bit one's-complement sum).
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// One's-complement 16-bit addition.
fn ones_add(a: u16, b: u16) -> u16 {
    let s = a as u32 + b as u32;
    ((s & 0xffff) + (s >> 16)) as u16
}

/// One's-complement 16-bit subtraction.
fn ones_sub(a: u16, b: u16) -> u16 {
    ones_add(a, !b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> Ipv4Header {
        Ipv4Header {
            src: Addr::new(10, 0, 0, 1),
            dst: Addr::new(192, 0, 2, 33),
            ttl: 7,
            protocol: 1,
            ident: 0xBEEF,
        }
    }

    #[test]
    fn ipv4_header_roundtrip() {
        let h = header();
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), IPV4_HEADER_LEN);
        let mut bytes = buf.freeze();
        let parsed = Ipv4Header::decode(&mut bytes).unwrap();
        assert_eq!(parsed, h);
    }

    #[test]
    fn ipv4_header_detects_corruption() {
        let mut buf = BytesMut::new();
        header().encode(&mut buf);
        buf[8] ^= 0xff; // flip the TTL byte
        let mut bytes = buf.freeze();
        assert_eq!(Ipv4Header::decode(&mut bytes), Err(WireError::BadChecksum));
    }

    #[test]
    fn echo_roundtrip() {
        let e = IcmpEcho {
            ident: 42,
            seq: 7,
            tweak: 0x1234,
        };
        let mut buf = BytesMut::new();
        e.encode_request(&mut buf);
        let (t, parsed) = IcmpEcho::decode(&mut buf.freeze()).unwrap();
        assert_eq!(t, ICMP_ECHO_REQUEST);
        assert_eq!(parsed, e);
    }

    #[test]
    fn echo_checksum_targeting_is_exact() {
        // The Paris trick: for any target checksum there is a payload tweak
        // that produces it.
        for target in [0x0000u16, 0x0001, 0x7fff, 0x8000, 0xfffe, 0xABCD] {
            let e = IcmpEcho::with_checksum(9, 1, target);
            assert_eq!(
                e.wire_checksum(ICMP_ECHO_REQUEST),
                target,
                "target {target:#x}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "unrepresentable")]
    fn echo_checksum_all_ones_rejected() {
        let _ = IcmpEcho::with_checksum(9, 1, 0xffff);
    }

    #[test]
    fn icmp_error_roundtrip() {
        let err = IcmpError {
            icmp_type: ICMP_TIME_EXCEEDED,
            quoted: header(),
            quoted_echo: IcmpEcho {
                ident: 3,
                seq: 9,
                tweak: 0,
            },
            quoted_type: ICMP_ECHO_REQUEST,
        };
        let mut buf = BytesMut::new();
        err.encode(&mut buf);
        let parsed = IcmpError::decode(&mut buf.freeze()).unwrap();
        assert_eq!(parsed.icmp_type, ICMP_TIME_EXCEEDED);
        assert_eq!(parsed.quoted, err.quoted);
        assert_eq!(parsed.quoted_echo.ident, 3);
        assert_eq!(parsed.quoted_echo.seq, 9);
    }

    /// The echo message as the byte-at-a-time encoder laid it out: the
    /// checksum field zeroed, every field appended in wire order.
    fn reference_echo(e: &IcmpEcho, icmp_type: u8) -> Vec<u8> {
        let mut buf = BytesMut::new();
        buf.put_u8(icmp_type);
        buf.put_u8(0);
        buf.put_u16(0);
        buf.put_u16(e.ident);
        buf.put_u16(e.seq);
        buf.put_u16(e.tweak);
        let sum = internet_checksum(&buf);
        buf[2..4].copy_from_slice(&sum.to_be_bytes());
        buf.to_vec()
    }

    proptest::proptest! {
        /// The flow label `Network::send` hashes is exactly the checksum
        /// the encoder puts on the wire, for both echo types.
        #[test]
        fn wire_checksum_matches_encoded_bytes(
            ident in proptest::any::<u16>(),
            seq in proptest::any::<u16>(),
            tweak in proptest::any::<u16>(),
        ) {
            let e = IcmpEcho { ident, seq, tweak };
            for (icmp_type, encode) in [
                (ICMP_ECHO_REQUEST, IcmpEcho::encode_request as fn(&IcmpEcho, &mut BytesMut)),
                (ICMP_ECHO_REPLY, IcmpEcho::encode_reply),
            ] {
                let mut buf = BytesMut::new();
                encode(&e, &mut buf);
                let reference = reference_echo(&e, icmp_type);
                proptest::prop_assert_eq!(&buf[..], &reference[..]);
                proptest::prop_assert_eq!(
                    e.wire_checksum(icmp_type).to_be_bytes(),
                    [buf[2], buf[3]]
                );
                proptest::prop_assert_eq!(internet_checksum(&buf), 0);
            }
        }
    }

    #[test]
    fn checksum_rfc1071_examples() {
        // Sum of zero data is 0xffff.
        assert_eq!(internet_checksum(&[0, 0, 0, 0]), 0xffff);
        // Validating data that carries its own checksum yields 0.
        let data = [0x45u8, 0x00, 0x00, 0x14];
        let sum = internet_checksum(&data);
        let mut with = data.to_vec();
        with.extend_from_slice(&sum.to_be_bytes());
        assert_eq!(internet_checksum(&with), 0);
    }

    #[test]
    fn checksum_odd_length() {
        let a = internet_checksum(&[1, 2, 3]);
        let b = internet_checksum(&[1, 2, 3, 0]);
        assert_eq!(a, b);
    }
}
