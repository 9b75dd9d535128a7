//! IPv4 address and CIDR prefix algebra.
//!
//! The whole reproduction works over plain 32-bit IPv4 addresses. We use
//! newtypes rather than `std::net::Ipv4Addr` because the algorithms in the
//! paper are arithmetic over the integer value (ranges, longest common
//! prefixes, /24 and /26 block indices), and a `u32` newtype keeps those
//! operations explicit and cheap. Conversions to and from `Ipv4Addr` are
//! provided at the edges.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// An IPv4 address as a host-order 32-bit integer.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Addr(pub u32);

impl Addr {
    /// The numerically smallest address, `0.0.0.0`.
    pub const MIN: Addr = Addr(0);
    /// The numerically largest address, `255.255.255.255`.
    pub const MAX: Addr = Addr(u32::MAX);

    /// Build an address from four dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Addr(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | (d as u32))
    }

    /// The four octets in network order (most significant first).
    pub const fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// The /24 block this address belongs to.
    pub const fn block24(self) -> Block24 {
        Block24(self.0 >> 8)
    }

    /// Index of this address within its /24 block (the last octet).
    pub const fn host24(self) -> u8 {
        (self.0 & 0xff) as u8
    }

    /// Index (0..4) of the /26 sub-block within the /24 this address is in.
    pub const fn quarter26(self) -> u8 {
        ((self.0 >> 6) & 0x3) as u8
    }

    /// The /31 block this address belongs to (used by the paper's
    /// per-destination load-balancing estimate, Section 2.2).
    pub const fn block31(self) -> u32 {
        self.0 >> 1
    }

    /// The other address of this address's /31 pair.
    pub const fn sibling31(self) -> Addr {
        Addr(self.0 ^ 1)
    }

    /// Length of the longest common prefix with `other`, in bits (0..=32).
    pub const fn lcp_len(self, other: Addr) -> u8 {
        (self.0 ^ other.0).leading_zeros() as u8
    }

    /// Checked successor; `None` past `255.255.255.255`.
    pub fn next(self) -> Option<Addr> {
        self.0.checked_add(1).map(Addr)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({self})")
    }
}

impl From<Ipv4Addr> for Addr {
    fn from(ip: Ipv4Addr) -> Self {
        Addr(u32::from(ip))
    }
}

impl From<Addr> for Ipv4Addr {
    fn from(a: Addr) -> Self {
        Ipv4Addr::from(a.0)
    }
}

/// Errors when parsing addresses or prefixes from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The address portion was not a valid dotted quad.
    BadAddress(String),
    /// The prefix length was missing or not in `0..=32`.
    BadPrefixLen(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::BadAddress(s) => write!(f, "invalid IPv4 address: {s:?}"),
            ParseError::BadPrefixLen(s) => write!(f, "invalid prefix length: {s:?}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl FromStr for Addr {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        s.parse::<Ipv4Addr>()
            .map(Addr::from)
            .map_err(|_| ParseError::BadAddress(s.to_string()))
    }
}

/// A CIDR prefix: `base/len` with the base address masked to the prefix.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Prefix {
    base: u32,
    len: u8,
}

impl Prefix {
    /// The whole IPv4 space, `0.0.0.0/0`.
    pub const ALL: Prefix = Prefix { base: 0, len: 0 };

    /// Construct a prefix; host bits of `base` are masked off.
    ///
    /// # Panics
    /// Panics if `len > 32`.
    pub fn new(base: Addr, len: u8) -> Self {
        assert!(len <= 32, "prefix length {len} out of range");
        Prefix {
            base: base.0 & Self::mask(len),
            len,
        }
    }

    /// The network mask for a prefix length.
    const fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// The (masked) base address.
    pub const fn base(self) -> Addr {
        Addr(self.base)
    }

    /// The prefix length in bits.
    ///
    /// (No `is_empty` counterpart: a prefix always covers ≥ 1 address, so
    /// emptiness is not a meaningful notion here.)
    #[allow(clippy::len_without_is_empty)]
    pub const fn len(self) -> u8 {
        self.len
    }

    /// Number of addresses covered, saturating at `u32::MAX` for /0.
    pub const fn size(self) -> u32 {
        if self.len == 0 {
            u32::MAX
        } else {
            1u32 << (32 - self.len)
        }
    }

    /// The numerically first address in the prefix.
    pub const fn first(self) -> Addr {
        Addr(self.base)
    }

    /// The numerically last address in the prefix.
    pub const fn last(self) -> Addr {
        Addr(self.base | !Self::mask(self.len))
    }

    /// Whether `addr` falls inside this prefix.
    pub const fn contains(self, addr: Addr) -> bool {
        addr.0 & Self::mask(self.len) == self.base
    }

    /// Whether this prefix entirely contains `other` (including equality).
    pub const fn contains_prefix(self, other: Prefix) -> bool {
        self.len <= other.len && other.base & Self::mask(self.len) == self.base
    }

    /// Whether the two prefixes share any address.
    pub const fn overlaps(self, other: Prefix) -> bool {
        self.contains_prefix(other) || other.contains_prefix(self)
    }

    /// Split into the two child prefixes of length `len + 1`.
    ///
    /// Returns `None` for a /32, which has no children.
    pub fn split(self) -> Option<(Prefix, Prefix)> {
        if self.len >= 32 {
            return None;
        }
        let len = self.len + 1;
        let lo = Prefix {
            base: self.base,
            len,
        };
        let hi = Prefix {
            base: self.base | (1 << (32 - len)),
            len,
        };
        Some((lo, hi))
    }

    /// The parent prefix of length `len - 1`; `None` for /0.
    pub fn parent(self) -> Option<Prefix> {
        if self.len == 0 {
            return None;
        }
        let len = self.len - 1;
        Some(Prefix {
            base: self.base & Self::mask(len),
            len,
        })
    }

    /// The smallest prefix containing both inputs.
    pub fn join(self, other: Prefix) -> Prefix {
        let common = (self.base ^ other.base).leading_zeros() as u8;
        let len = common.min(self.len).min(other.len);
        Prefix {
            base: self.base & Self::mask(len),
            len,
        }
    }

    /// The longest prefix that covers every address in `addrs`.
    ///
    /// Returns `None` for an empty slice.
    pub fn covering(addrs: &[Addr]) -> Option<Prefix> {
        let (&first, rest) = addrs.split_first()?;
        let mut p = Prefix::new(first, 32);
        for &a in rest {
            p = p.join(Prefix::new(a, 32));
        }
        Some(p)
    }

    /// Iterate over every address in the prefix in ascending order.
    pub fn addrs(self) -> impl Iterator<Item = Addr> {
        let first = self.first().0 as u64;
        let last = self.last().0 as u64;
        (first..=last).map(|v| Addr(v as u32))
    }

    /// Iterate over the /24 blocks covered by this prefix.
    ///
    /// For prefixes longer than /24 this yields the single containing /24.
    pub fn blocks24(self) -> impl Iterator<Item = Block24> {
        let first = self.first().block24().0 as u64;
        let last = self.last().block24().0 as u64;
        (first..=last).map(|v| Block24(v as u32))
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.base(), self.len)
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Prefix({self})")
    }
}

impl FromStr for Prefix {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s
            .split_once('/')
            .ok_or_else(|| ParseError::BadPrefixLen(s.to_string()))?;
        let base: Addr = addr.parse()?;
        let len: u8 = len
            .parse()
            .map_err(|_| ParseError::BadPrefixLen(s.to_string()))?;
        if len > 32 {
            return Err(ParseError::BadPrefixLen(s.to_string()));
        }
        Ok(Prefix::new(base, len))
    }
}

/// A /24 block identified by the top 24 bits of its addresses.
///
/// This is the paper's unit of measurement. Ordering is numeric, which makes
/// adjacency analysis (Section 5.3) a sort.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Block24(pub u32);

impl Block24 {
    /// The /24 containing `addr`.
    pub const fn of(addr: Addr) -> Self {
        addr.block24()
    }

    /// This block as a `Prefix`.
    pub const fn prefix(self) -> Prefix {
        Prefix {
            base: self.0 << 8,
            len: 24,
        }
    }

    /// The address with the given last octet inside this block.
    pub const fn addr(self, host: u8) -> Addr {
        Addr((self.0 << 8) | host as u32)
    }

    /// First address of the block (`x.y.z.0`).
    pub const fn first(self) -> Addr {
        self.addr(0)
    }

    /// Last address of the block (`x.y.z.255`).
    pub const fn last(self) -> Addr {
        self.addr(255)
    }

    /// Longest common prefix length between two /24 blocks, in bits of the
    /// 24-bit block identifier (0..=23 for distinct blocks, 24 for equal).
    ///
    /// The paper's Figure 7 reports values 0..=23 for adjacent distinct /24s.
    pub const fn lcp_len(self, other: Block24) -> u8 {
        let x = self.0 ^ other.0;
        if x == 0 {
            24
        } else {
            (x.leading_zeros() as u8).saturating_sub(8)
        }
    }
}

impl fmt::Display for Block24 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.prefix())
    }
}

impl fmt::Debug for Block24 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Block24({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_display_roundtrip() {
        let a = Addr::new(192, 168, 1, 200);
        assert_eq!(a.to_string(), "192.168.1.200");
        assert_eq!("192.168.1.200".parse::<Addr>().unwrap(), a);
    }

    #[test]
    fn addr_rejects_garbage() {
        assert!("300.1.1.1".parse::<Addr>().is_err());
        assert!("1.2.3".parse::<Addr>().is_err());
        assert!("".parse::<Addr>().is_err());
    }

    #[test]
    fn octet_order_is_network_order() {
        let a = Addr::new(10, 20, 30, 40);
        assert_eq!(a.octets(), [10, 20, 30, 40]);
        assert_eq!(a.0, 0x0A14_1E28);
    }

    #[test]
    fn block24_and_host() {
        let a = Addr::new(203, 0, 113, 77);
        assert_eq!(a.block24(), Block24(0x00CB_0071));
        assert_eq!(a.host24(), 77);
        assert_eq!(a.block24().addr(77), a);
    }

    #[test]
    fn quarter26_boundaries() {
        let b = Addr::new(1, 2, 3, 0).block24();
        assert_eq!(b.addr(0).quarter26(), 0);
        assert_eq!(b.addr(63).quarter26(), 0);
        assert_eq!(b.addr(64).quarter26(), 1);
        assert_eq!(b.addr(127).quarter26(), 1);
        assert_eq!(b.addr(128).quarter26(), 2);
        assert_eq!(b.addr(191).quarter26(), 2);
        assert_eq!(b.addr(192).quarter26(), 3);
        assert_eq!(b.addr(255).quarter26(), 3);
    }

    #[test]
    fn sibling31_pairs() {
        let a = Addr::new(8, 8, 8, 8);
        assert_eq!(a.sibling31(), Addr::new(8, 8, 8, 9));
        assert_eq!(a.sibling31().sibling31(), a);
        assert_eq!(a.block31(), a.sibling31().block31());
    }

    #[test]
    fn prefix_masks_host_bits() {
        let p = Prefix::new(Addr::new(10, 1, 2, 200), 24);
        assert_eq!(p.base(), Addr::new(10, 1, 2, 0));
        assert_eq!(p.to_string(), "10.1.2.0/24");
    }

    #[test]
    fn prefix_contains_bounds() {
        let p: Prefix = "172.16.0.0/12".parse().unwrap();
        assert!(p.contains(Addr::new(172, 16, 0, 0)));
        assert!(p.contains(Addr::new(172, 31, 255, 255)));
        assert!(!p.contains(Addr::new(172, 32, 0, 0)));
        assert!(!p.contains(Addr::new(172, 15, 255, 255)));
    }

    #[test]
    fn prefix_zero_len_contains_everything() {
        assert!(Prefix::ALL.contains(Addr::MIN));
        assert!(Prefix::ALL.contains(Addr::MAX));
        assert_eq!(Prefix::ALL.size(), u32::MAX);
    }

    #[test]
    fn prefix_split_and_parent() {
        let p: Prefix = "192.0.2.0/24".parse().unwrap();
        let (lo, hi) = p.split().unwrap();
        assert_eq!(lo.to_string(), "192.0.2.0/25");
        assert_eq!(hi.to_string(), "192.0.2.128/25");
        assert_eq!(lo.parent(), Some(p));
        assert_eq!(hi.parent(), Some(p));
        assert!(Prefix::new(Addr::new(1, 1, 1, 1), 32).split().is_none());
        assert!(Prefix::ALL.parent().is_none());
    }

    #[test]
    fn prefix_join_covers_both() {
        let a: Prefix = "10.0.0.0/24".parse().unwrap();
        let b: Prefix = "10.0.1.0/24".parse().unwrap();
        let j = a.join(b);
        assert_eq!(j.to_string(), "10.0.0.0/23");
        assert!(j.contains_prefix(a) && j.contains_prefix(b));
    }

    #[test]
    fn covering_addresses() {
        let addrs = [Addr::new(10, 0, 0, 2), Addr::new(10, 0, 0, 125)];
        let p = Prefix::covering(&addrs).unwrap();
        assert_eq!(p.to_string(), "10.0.0.0/25");
        assert!(Prefix::covering(&[]).is_none());
        let single = Prefix::covering(&[Addr::new(1, 2, 3, 4)]).unwrap();
        assert_eq!(single.len(), 32);
    }

    #[test]
    fn block24_lcp_len() {
        let a = Addr::new(10, 0, 0, 0).block24();
        let b = Addr::new(10, 0, 1, 0).block24();
        assert_eq!(a.lcp_len(b), 23);
        assert_eq!(a.lcp_len(a), 24);
        let c = Addr::new(128, 0, 0, 0).block24();
        assert_eq!(a.lcp_len(c), 0);
    }

    #[test]
    fn prefix_parse_rejects_garbage() {
        assert!("10.0.0.0".parse::<Prefix>().is_err());
        assert!("10.0.0.0/33".parse::<Prefix>().is_err());
        assert!("10.0.0.0/x".parse::<Prefix>().is_err());
    }

    #[test]
    fn prefix_addr_iter() {
        let p: Prefix = "198.51.100.0/30".parse().unwrap();
        let v: Vec<Addr> = p.addrs().collect();
        assert_eq!(v.len(), 4);
        assert_eq!(v[0], Addr::new(198, 51, 100, 0));
        assert_eq!(v[3], Addr::new(198, 51, 100, 3));
    }

    #[test]
    fn prefix_blocks24_iter() {
        let p: Prefix = "198.51.100.0/22".parse().unwrap();
        let v: Vec<Block24> = p.blocks24().collect();
        assert_eq!(v.len(), 4);
        assert_eq!(v[0].prefix().to_string(), "198.51.100.0/24");
        assert_eq!(v[3].prefix().to_string(), "198.51.103.0/24");
        let q: Prefix = "198.51.100.0/26".parse().unwrap();
        assert_eq!(q.blocks24().count(), 1);
    }
}
