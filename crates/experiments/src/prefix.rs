//! The run prefix: the snapshot scan and the calibration survey, persisted
//! once per run dir as `<run_dir>/prefix.bin`.
//!
//! Everything a run does before classification is a pure function of the
//! journal's [`RunMeta`] and the world, so a resumed run (`--resume`, a
//! respawned shard worker) need not pay for it twice. A run with a run dir
//! writes the prefix right after calibration, before the first block
//! record; a resumed run loads it instead of scanning and calibrating,
//! re-derives selection from the snapshot, and puts the network in the
//! scanned state with [`probe::zmap::restore`]. A file that is missing,
//! torn, or bound to another meta or world is never trusted: the resumed
//! run recomputes the prefix and rewrites the file.
//!
//! # On-disk format (`hobbit-prefix/v1`)
//!
//! One CRC-framed record, like a journal frame:
//!
//! ```text
//! [len: u32 LE] [crc32: u32 LE] [payload: `len` bytes]
//! ```
//!
//! The payload is little-endian binary: the schema tag, the binding (every
//! [`RunMeta`] field, then the [`world_fingerprint`]), the snapshot epoch,
//! the calibration probe count, the confidence table (level, trust
//! threshold, then `(cardinality, probed, successes, samples)` per cell),
//! and the snapshot as one `(block id, 256-bit address bitmap)` pair per
//! responsive /24 in block order: 36 bytes a /24.

#![deny(clippy::unwrap_used)]

use crate::journal::{crc32, RunMeta};
use crate::vfs::{Storage, StorageError};
use hobbit::ConfidenceTable;
use netsim::{Addr, Block24};
use probe::ZmapSnapshot;
use std::path::Path;

/// Version tag opening every prefix payload.
pub const PREFIX_SCHEMA: &str = "hobbit-prefix/v1";

/// File name of the prefix inside a run directory.
pub const PREFIX_FILE: &str = "prefix.bin";

/// Temporary name the atomic write renames from.
const PREFIX_TMP: &str = "prefix.bin.tmp";

/// Bytes of one snapshot block: its id and its address bitmap.
const BLOCK_BYTES: usize = 4 + 32;

/// Bytes of one confidence-table cell.
const CELL_BYTES: usize = 4 * 8;

/// The deterministic prefix of a run: what the scan and the calibration
/// produced.
#[derive(Clone, Debug, PartialEq)]
pub struct RunPrefix {
    /// The ZMap snapshot (its `probes` is not persisted: a loaded snapshot
    /// cost this process nothing).
    pub snapshot: ZmapSnapshot,
    /// The calibrated confidence table.
    pub confidence: ConfidenceTable,
    /// Probes the calibration survey sent; the canonical report prints it.
    pub calibration_probes: u64,
}

/// A 64-bit fingerprint of a world's allocated /24s (as
/// `Network::allocated_blocks` lists them, in numeric order).
pub fn world_fingerprint(blocks: &[Block24]) -> u64 {
    blocks.iter().fold(
        netsim::hash::mix2(blocks.len() as u64, 0x9F1C_5EED),
        |h, b| netsim::hash::mix2(h, b.0 as u64),
    )
}

/// The binding a prefix carries: every field of the journal's meta (the
/// destructuring makes a new [`RunMeta`] field a compile error here), then
/// the world fingerprint.
fn binding(meta: &RunMeta, world: u64) -> Vec<u8> {
    let RunMeta {
        schema,
        seed,
        scale,
        faulted,
        fault_loss,
        fault_rate,
        mda_lite,
        dyn_rate,
        dyn_period,
    } = meta;
    let mut out = Vec::with_capacity(schema.len() + 8 * 8);
    put_u64(&mut out, schema.len() as u64);
    out.extend_from_slice(schema.as_bytes());
    for word in [
        *seed,
        scale.to_bits(),
        *faulted as u64,
        fault_loss.to_bits(),
        fault_rate.to_bits(),
        *mda_lite as u64,
        dyn_rate.to_bits(),
        *dyn_period,
        world,
    ] {
        put_u64(&mut out, word);
    }
    out
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Encode `prefix` bound to `meta` and `world` as one CRC-framed record.
pub fn encode(prefix: &RunPrefix, meta: &RunMeta, world: u64) -> Vec<u8> {
    let RunPrefix {
        snapshot,
        confidence,
        calibration_probes,
    } = prefix;
    let cells: Vec<_> = confidence.cells().collect();
    let mut out =
        Vec::with_capacity(264 + cells.len() * CELL_BYTES + snapshot.active.len() * BLOCK_BYTES);
    // The frame header (length, CRC) is filled in once the payload is.
    out.extend_from_slice(&[0; 8]);
    out.extend_from_slice(PREFIX_SCHEMA.as_bytes());
    out.extend_from_slice(&binding(meta, world));
    out.extend_from_slice(&snapshot.epoch.to_le_bytes());
    put_u64(&mut out, *calibration_probes);
    put_u64(&mut out, confidence.level.to_bits());
    put_u64(&mut out, confidence.min_samples);
    put_u64(&mut out, cells.len() as u64);
    for ((cardinality, probed), (successes, samples)) in cells {
        for word in [cardinality as u64, probed as u64, successes, samples] {
            put_u64(&mut out, word);
        }
    }
    put_u64(&mut out, snapshot.active.len() as u64);
    for (block, active) in &snapshot.active {
        let mut bitmap = [0u8; 32];
        for addr in active {
            debug_assert_eq!(addr.block24(), *block, "{addr} listed under {block}");
            let host = addr.0 & 0xFF;
            bitmap[(host / 8) as usize] |= 1 << (host % 8);
        }
        out.extend_from_slice(&block.0.to_le_bytes());
        out.extend_from_slice(&bitmap);
    }
    let len = (out.len() - 8) as u32;
    let crc = crc32(&out[8..]);
    out[..4].copy_from_slice(&len.to_le_bytes());
    out[4..8].copy_from_slice(&crc.to_le_bytes());
    out
}

/// A bounds-checked cursor over a payload.
struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], &'static str> {
        if n > self.bytes.len() {
            return Err("truncated payload");
        }
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], &'static str> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32, &'static str> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, &'static str> {
        self.array().map(u64::from_le_bytes)
    }

    /// A count of `item_bytes`-sized items, refused before anything is
    /// allocated for it when the rest of the payload cannot hold them.
    fn count(&mut self, item_bytes: usize) -> Result<usize, &'static str> {
        usize::try_from(self.u64()?)
            .ok()
            .filter(|&n| n <= self.bytes.len() / item_bytes)
            .ok_or("count exceeds the payload")
    }

    fn usize(&mut self) -> Result<usize, &'static str> {
        usize::try_from(self.u64()?).map_err(|_| "value out of range")
    }
}

/// Decode a prefix file, accepting it only when its frame is whole, its
/// CRC matches, and it is bound to exactly `meta` and `world`. The error
/// names the first check that failed.
pub fn decode(bytes: &[u8], meta: &RunMeta, world: u64) -> Result<RunPrefix, &'static str> {
    let mut frame = Reader { bytes };
    let len = frame.u32()? as usize;
    let crc = frame.u32()?;
    if frame.bytes.len() != len {
        return Err("frame length does not match the file");
    }
    if crc32(frame.bytes) != crc {
        return Err("CRC mismatch");
    }
    let mut r = Reader { bytes: frame.bytes };
    if r.take(PREFIX_SCHEMA.len())? != PREFIX_SCHEMA.as_bytes() {
        return Err("not a hobbit-prefix/v1 payload");
    }
    let expect = binding(meta, world);
    if r.take(expect.len())? != expect.as_slice() {
        return Err("bound to another run meta or world");
    }
    let epoch = r.u32()?;
    let calibration_probes = r.u64()?;
    let level = f64::from_bits(r.u64()?);
    let min_samples = r.u64()?;
    let n_cells = r.count(CELL_BYTES)?;
    let mut cells = Vec::with_capacity(n_cells);
    for _ in 0..n_cells {
        let key = (r.usize()?, r.usize()?);
        cells.push((key, (r.u64()?, r.u64()?)));
    }
    if cells.windows(2).any(|w| w[0].0 >= w[1].0) {
        return Err("confidence cells out of order");
    }
    let n_blocks = r.count(BLOCK_BYTES)?;
    let mut snapshot = ZmapSnapshot {
        epoch,
        ..ZmapSnapshot::default()
    };
    let mut last: Option<u32> = None;
    for _ in 0..n_blocks {
        let id = r.u32()?;
        if id > 0x00FF_FFFF || last.is_some_and(|l| l >= id) {
            return Err("snapshot blocks out of order or out of range");
        }
        last = Some(id);
        let block = Block24(id);
        let bitmap: [u8; 32] = r.array()?;
        let mut active: Vec<Addr> =
            Vec::with_capacity(bitmap.iter().map(|b| b.count_ones() as usize).sum());
        active.extend(
            (0..=255u8)
                .filter(|&h| bitmap[(h / 8) as usize] & (1 << (h % 8)) != 0)
                .map(|h| block.addr(h)),
        );
        snapshot.active.insert(block, active);
    }
    if !r.bytes.is_empty() {
        return Err("trailing bytes after the snapshot");
    }
    Ok(RunPrefix {
        snapshot,
        confidence: ConfidenceTable::from_cells(cells, level, min_samples),
        calibration_probes,
    })
}

/// Load `run_dir`'s prefix if it is readable, intact and bound to `meta`
/// and `world`; `None` means the caller must recompute it.
pub fn load(storage: &Storage, run_dir: &Path, meta: &RunMeta, world: u64) -> Option<RunPrefix> {
    let path = run_dir.join(PREFIX_FILE);
    // A missing file is the ordinary rebuild case, not a storage fault.
    if !storage.exists(&path) {
        return None;
    }
    decode(&storage.read(&path).ok()?, meta, world).ok()
}

/// Persist `prefix` into `run_dir`, atomically replacing any previous one.
pub fn store(
    storage: &Storage,
    run_dir: &Path,
    prefix: &RunPrefix,
    meta: &RunMeta,
    world: u64,
) -> Result<(), StorageError> {
    storage.atomic_write(
        &run_dir.join(PREFIX_TMP),
        &run_dir.join(PREFIX_FILE),
        &encode(prefix, meta, world),
    )
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::args::ExpArgs;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn args() -> ExpArgs {
        ExpArgs {
            seed: 42,
            scale: 0.25,
            faults: Some((0.02, 0.5)),
            mda_lite: true,
            dynamics: Some((0.1, 64)),
            ..Default::default()
        }
    }

    fn meta() -> RunMeta {
        RunMeta::of(&args())
    }

    fn table() -> ConfidenceTable {
        ConfidenceTable::from_cells(
            [((1, 4), (9, 10)), ((2, 4), (3, 10)), ((2, 50), (10, 10))],
            0.95,
            8,
        )
    }

    fn prefix(active: &[(u32, &[u8])], epoch: u32) -> RunPrefix {
        RunPrefix {
            snapshot: ZmapSnapshot {
                active: active
                    .iter()
                    .map(|&(id, hosts)| {
                        let b = Block24(id);
                        (b, hosts.iter().map(|&h| b.addr(h)).collect())
                    })
                    .collect(),
                epoch,
                probes: 0,
            },
            confidence: table(),
            calibration_probes: 56_123,
        }
    }

    /// Everything a world-sized snapshot exercises at the edges: the
    /// lowest and highest /24, a full /24, a single host, an epoch.
    fn edge_prefix() -> RunPrefix {
        let full: Vec<u8> = (1..=254).collect();
        prefix(
            &[
                (0, &[1, 77]),
                (0x0A_0001, &full),
                (0x0A_0002, &[254]),
                (0xFF_FFFF, &[1, 2, 254]),
            ],
            3,
        )
    }

    #[test]
    fn edge_cases_round_trip() {
        for p in [prefix(&[], 0), prefix(&[], 7), edge_prefix()] {
            let bytes = encode(&p, &meta(), 0xABCD);
            assert_eq!(decode(&bytes, &meta(), 0xABCD).unwrap(), p);
        }
    }

    #[test]
    fn every_byte_flip_and_truncation_is_rejected() {
        let bytes = encode(&edge_prefix(), &meta(), 1);
        for at in 0..bytes.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut bad = bytes.clone();
                bad[at] ^= mask;
                assert!(decode(&bad, &meta(), 1).is_err(), "flip {mask:#x} at {at}");
            }
        }
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut], &meta(), 1).is_err(), "cut at {cut}");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode(&long, &meta(), 1).is_err(), "trailing byte");
    }

    #[test]
    fn another_meta_or_world_is_rejected() {
        let bytes = encode(&edge_prefix(), &meta(), 1);
        assert!(decode(&bytes, &meta(), 2).is_err(), "world");
        let a = args();
        for other in [
            RunMeta::of(&ExpArgs {
                seed: 43,
                ..a.clone()
            }),
            RunMeta::of(&ExpArgs {
                mda_lite: false,
                ..a.clone()
            }),
            RunMeta::of(&ExpArgs {
                dynamics: None,
                ..a.clone()
            }),
            RunMeta::of(&ExpArgs { scale: 0.26, ..a }),
        ] {
            assert!(decode(&bytes, &other, 1).is_err(), "{other:?}");
        }
    }

    proptest! {
        #[test]
        fn snapshots_round_trip_within_the_size_bound(
            drawn in collection::vec(
                (0u32..=0x00FF_FFFF, collection::btree_set(1u8..=254, 1..=254usize)),
                0..40usize,
            ),
            edges in any::<bool>(),
            epoch in 0u32..8,
        ) {
            let mut blocks: BTreeMap<u32, Vec<u8>> = drawn
                .into_iter()
                .map(|(id, hosts)| (id, hosts.into_iter().collect()))
                .collect();
            if edges {
                // The lowest and highest /24, one of them fully active.
                blocks.insert(0, (1..=254).collect());
                blocks.insert(0x00FF_FFFF, vec![1, 254]);
            }
            let refs: Vec<(u32, &[u8])> =
                blocks.iter().map(|(id, h)| (*id, h.as_slice())).collect();
            let p = prefix(&refs, epoch);
            let bytes = encode(&p, &meta(), 9);
            prop_assert_eq!(decode(&bytes, &meta(), 9).unwrap(), p.clone());
            // At most 40 bytes a responsive /24 over the fixed part (the
            // frame, the binding and the confidence table).
            let fixed = encode(&prefix(&[], epoch), &meta(), 9).len();
            prop_assert!(bytes.len() <= fixed + 40 * blocks.len());
        }
    }
}
