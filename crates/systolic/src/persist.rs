//! Versioned binary persistence for [`CompiledSchedule`] artifacts.
//!
//! The compile cache (`bitlevel-cache`) stores compiled schedules on disk so
//! warm evaluations skip `try_compile` entirely. The disk layer uses this
//! hand-rolled codec: it is dependency-free, explicitly versioned, and
//! checksummed so corrupted or truncated cache entries are *detected* and
//! reported as a typed [`PersistError`] — never a panic, never a silently
//! wrong schedule.
//!
//! ## Wire format (all integers little-endian)
//!
//! ```text
//! offset 0   magic            b"BLSC"
//! offset 4   format version   u32    (= SCHEDULE_FORMAT_VERSION)
//! offset 8   payload length   u64
//! offset 16  payload          <field stream, see encode()>
//! tail       checksum         u64    FNV-1a over bytes [0, 16 + payload_len)
//! ```
//!
//! [`CompiledSchedule::from_bytes`] validates magic, version, length and
//! checksum before touching the payload, then re-validates every structural
//! invariant of the decoded schedule (slot bounds, CSR monotonicity, fire
//! order being a permutation) so even a checksum-colliding forgery cannot
//! produce out-of-bounds indices at execution time.

use crate::compiled::{BookkeepingMemo, CompiledSchedule, NO_SLOT};
use bitlevel_linalg::IVec;
use std::fmt;

/// Current on-disk format version. Bump whenever the field stream of
/// [`CompiledSchedule`] changes shape; readers reject other versions with
/// [`PersistError::UnsupportedVersion`] and the cache recompiles.
pub const SCHEDULE_FORMAT_VERSION: u32 = 1;

/// Magic prefix of a persisted schedule image ("BitLevel Schedule Cache").
pub const SCHEDULE_MAGIC: [u8; 4] = *b"BLSC";

/// Why a persisted [`CompiledSchedule`] image was rejected. Every variant is
/// recoverable: the compile cache records a miss and recompiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The image does not start with [`SCHEDULE_MAGIC`].
    BadMagic,
    /// The image's format version differs from [`SCHEDULE_FORMAT_VERSION`].
    UnsupportedVersion {
        /// Version found in the image header.
        found: u32,
    },
    /// The image ends before the declared payload + checksum.
    Truncated,
    /// The FNV-1a checksum over header + payload does not match the tail.
    ChecksumMismatch,
    /// The payload decoded, but violates a structural invariant of
    /// [`CompiledSchedule`] (bad lengths, out-of-range slot, non-monotone
    /// CSR offsets, ...).
    Malformed(&'static str),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::BadMagic => write!(f, "not a persisted schedule (bad magic)"),
            PersistError::UnsupportedVersion { found } => write!(
                f,
                "schedule format version {found} (this build reads {SCHEDULE_FORMAT_VERSION})"
            ),
            PersistError::Truncated => write!(f, "persisted schedule is truncated"),
            PersistError::ChecksumMismatch => write!(f, "persisted schedule failed its checksum"),
            PersistError::Malformed(what) => write!(f, "persisted schedule is malformed: {what}"),
        }
    }
}

impl std::error::Error for PersistError {}

/// FNV-1a 64-bit over a byte slice — the same primitive the cache-key
/// digest uses, applied here as a whole-image integrity checksum.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn ivec(&mut self, v: &IVec) {
        self.usize(v.dim());
        for &x in v.iter() {
            self.i64(x);
        }
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let end = self.pos.checked_add(n).ok_or(PersistError::Truncated)?;
        if end > self.bytes.len() {
            return Err(PersistError::Truncated);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> Result<i64, PersistError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// A length prefix, bounded by what the remaining bytes could possibly
    /// hold (`min_elem_size` bytes per element) so a corrupted length can
    /// never trigger a huge allocation.
    fn len(&mut self, min_elem_size: usize) -> Result<usize, PersistError> {
        let n = self.u64()?;
        let remaining = (self.bytes.len() - self.pos) as u64;
        if n.saturating_mul(min_elem_size.max(1) as u64) > remaining {
            return Err(PersistError::Truncated);
        }
        Ok(n as usize)
    }
    fn ivec(&mut self) -> Result<IVec, PersistError> {
        let n = self.len(8)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.i64()?);
        }
        Ok(IVec(v))
    }
}

impl CompiledSchedule {
    /// Serialises the schedule into the versioned, checksummed wire format
    /// described in the [module docs](crate::persist).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer { buf: Vec::new() };
        w.usize(self.n);
        w.usize(self.m);
        w.usize(self.n_points);
        w.usize(self.points.len());
        for &x in &self.points {
            w.i64(x);
        }
        for &c in &self.cycle {
            w.i64(c);
        }
        for &p in &self.proc {
            w.u32(p);
        }
        w.usize(self.proc_coords.len());
        for pc in &self.proc_coords {
            w.ivec(pc);
        }
        for &p in &self.producers {
            w.u32(p);
        }
        for &m in &self.consume_mask {
            w.u64(m);
        }
        for &m in &self.launch_mask {
            w.u64(m);
        }
        for h in &self.clocked_hops {
            match h {
                Some(h) => {
                    w.u8(1);
                    w.i64(*h);
                }
                None => w.u8(0),
            }
        }
        for u in &self.clocked_usage {
            match u {
                Some(u) => {
                    w.u8(1);
                    w.ivec(u);
                }
                None => w.u8(0),
            }
        }
        for r in &self.mapped_routes {
            match r {
                Some((usage, buffers, hops)) => {
                    w.u8(1);
                    w.ivec(usage);
                    w.i64(*buffers);
                    w.i64(*hops);
                }
                None => w.u8(0),
            }
        }
        for &b in &self.budgets {
            w.i64(b);
        }
        for &a in &self.active_count {
            w.u64(a);
        }
        w.usize(self.cycle_values.len());
        for &c in &self.cycle_values {
            w.i64(c);
        }
        for &o in &self.cycle_offsets {
            w.usize(o);
        }
        for &s in &self.fire_order {
            w.u32(s);
        }
        w.usize(self.n_links);
        w.u8(self.causal as u8);

        let payload = w.buf;
        let mut out = Vec::with_capacity(16 + payload.len() + 8);
        out.extend_from_slice(&SCHEDULE_MAGIC);
        out.extend_from_slice(&SCHEDULE_FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload);
        let sum = fnv1a(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Decodes and fully validates a persisted schedule image. Any defect —
    /// wrong magic, version skew, truncation, checksum failure, or a payload
    /// that violates a structural invariant — comes back as a typed
    /// [`PersistError`]; this function never panics on untrusted input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PersistError> {
        if bytes.len() < 16 + 8 {
            if bytes.len() >= 4 && bytes[..4] != SCHEDULE_MAGIC {
                return Err(PersistError::BadMagic);
            }
            return Err(PersistError::Truncated);
        }
        if bytes[..4] != SCHEDULE_MAGIC {
            return Err(PersistError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if version != SCHEDULE_FORMAT_VERSION {
            return Err(PersistError::UnsupportedVersion { found: version });
        }
        let payload_len = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        let body_end = 16usize
            .checked_add(payload_len)
            .ok_or(PersistError::Truncated)?;
        if bytes.len() < body_end + 8 {
            return Err(PersistError::Truncated);
        }
        let sum = u64::from_le_bytes(bytes[body_end..body_end + 8].try_into().unwrap());
        if fnv1a(&bytes[..body_end]) != sum {
            return Err(PersistError::ChecksumMismatch);
        }

        let mut r = Reader {
            bytes: &bytes[16..body_end],
            pos: 0,
        };
        let n = r.u64()? as usize;
        let m = r.u64()? as usize;
        let n_points = r.len(0)?;
        if m > 64 {
            return Err(PersistError::Malformed("more than 64 dependence columns"));
        }
        let points_len = r.len(8)?;
        if points_len != n_points.checked_mul(n).ok_or(PersistError::Truncated)? {
            return Err(PersistError::Malformed("points length is not n_points * n"));
        }
        let mut points = Vec::with_capacity(points_len);
        for _ in 0..points_len {
            points.push(r.i64()?);
        }
        let mut cycle = Vec::with_capacity(n_points);
        for _ in 0..n_points {
            cycle.push(r.i64()?);
        }
        let mut proc = Vec::with_capacity(n_points);
        for _ in 0..n_points {
            proc.push(r.u32()?);
        }
        let n_procs = r.len(8)?;
        let mut proc_coords = Vec::with_capacity(n_procs);
        for _ in 0..n_procs {
            proc_coords.push(r.ivec()?);
        }
        if proc.iter().any(|&id| id as usize >= n_procs) {
            return Err(PersistError::Malformed("processor id out of range"));
        }
        let producers_len = n_points.checked_mul(m).ok_or(PersistError::Truncated)?;
        let mut producers = Vec::with_capacity(producers_len);
        for _ in 0..producers_len {
            let p = r.u32()?;
            if p != NO_SLOT && p as usize >= n_points {
                return Err(PersistError::Malformed("producer slot out of range"));
            }
            producers.push(p);
        }
        let mut consume_mask = Vec::with_capacity(n_points);
        for _ in 0..n_points {
            consume_mask.push(r.u64()?);
        }
        let mut launch_mask = Vec::with_capacity(n_points);
        for _ in 0..n_points {
            launch_mask.push(r.u64()?);
        }
        let mut clocked_hops = Vec::with_capacity(m);
        for _ in 0..m {
            clocked_hops.push(match r.u8()? {
                0 => None,
                1 => Some(r.i64()?),
                _ => return Err(PersistError::Malformed("bad Option tag")),
            });
        }
        let mut clocked_usage = Vec::with_capacity(m);
        for _ in 0..m {
            clocked_usage.push(match r.u8()? {
                0 => None,
                1 => Some(r.ivec()?),
                _ => return Err(PersistError::Malformed("bad Option tag")),
            });
        }
        let mut mapped_routes = Vec::with_capacity(m);
        for _ in 0..m {
            mapped_routes.push(match r.u8()? {
                0 => None,
                1 => {
                    let usage = r.ivec()?;
                    let buffers = r.i64()?;
                    let hops = r.i64()?;
                    Some((usage, buffers, hops))
                }
                _ => return Err(PersistError::Malformed("bad Option tag")),
            });
        }
        let mut budgets = Vec::with_capacity(m);
        for _ in 0..m {
            budgets.push(r.i64()?);
        }
        let mut active_count = Vec::with_capacity(m);
        for _ in 0..m {
            active_count.push(r.u64()?);
        }
        let n_cycles = r.len(8)?;
        let mut cycle_values = Vec::with_capacity(n_cycles);
        for _ in 0..n_cycles {
            cycle_values.push(r.i64()?);
        }
        if cycle_values.windows(2).any(|w| w[0] >= w[1]) {
            return Err(PersistError::Malformed("cycle values not ascending"));
        }
        let mut cycle_offsets = Vec::with_capacity(n_cycles + 1);
        for _ in 0..n_cycles + 1 {
            cycle_offsets.push(r.u64()? as usize);
        }
        if cycle_offsets.first() != Some(&0)
            || cycle_offsets.last() != Some(&n_points)
            || cycle_offsets.windows(2).any(|w| w[0] > w[1])
        {
            return Err(PersistError::Malformed("CSR offsets not monotone to |J|"));
        }
        if n_points > 0 && n_cycles == 0 {
            return Err(PersistError::Malformed("points without firing cycles"));
        }
        let mut fire_order = Vec::with_capacity(n_points);
        let mut seen = vec![false; n_points];
        for _ in 0..n_points {
            let s = r.u32()?;
            if s as usize >= n_points || seen[s as usize] {
                return Err(PersistError::Malformed("fire order is not a permutation"));
            }
            seen[s as usize] = true;
            fire_order.push(s);
        }
        let n_links = r.u64()? as usize;
        if clocked_usage
            .iter()
            .flatten()
            .chain(mapped_routes.iter().flatten().map(|(u, _, _)| u))
            .any(|u| u.dim() != n_links)
        {
            return Err(PersistError::Malformed("route usage width != n_links"));
        }
        let causal = match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(PersistError::Malformed("bad bool")),
        };
        if r.pos != r.bytes.len() {
            return Err(PersistError::Malformed("trailing bytes in payload"));
        }

        Ok(CompiledSchedule {
            n,
            m,
            n_points,
            points,
            cycle,
            proc,
            proc_coords,
            producers,
            consume_mask,
            launch_mask,
            clocked_hops,
            clocked_usage,
            mapped_routes,
            budgets,
            active_count,
            cycle_values,
            cycle_offsets,
            fire_order,
            n_links,
            causal,
            bookkeeping: BookkeepingMemo::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitlevel_ir::AlgorithmTriplet;
    use bitlevel_ir::{BoxSet, Dependence, DependenceSet, Predicate};
    use bitlevel_mapping::PaperDesign;

    fn matmul_structure(u: i64, p: i64) -> AlgorithmTriplet {
        let j = BoxSet::cube(3, 1, u).product(&BoxSet::cube(2, 1, p));
        AlgorithmTriplet::new(
            j,
            DependenceSet::new(vec![
                Dependence::conditional([0, 1, 0, 0, 0], "x", Predicate::eq_const(3, 1)),
                Dependence::conditional([1, 0, 0, 0, 0], "y", Predicate::eq_const(4, 1)),
                Dependence::conditional(
                    [0, 0, 1, 0, 0],
                    "z",
                    Predicate::eq_const(3, p).or(&Predicate::eq_const(4, 1)),
                ),
                Dependence::conditional([0, 0, 0, 1, 0], "x", Predicate::ne_const(3, 1)),
                Dependence::conditional([0, 0, 0, 0, 1], "y,c", Predicate::ne_const(4, 1)),
                Dependence::uniform([0, 0, 0, 1, -1], "z"),
                Dependence::conditional([0, 0, 0, 0, 2], "c'", Predicate::eq_const(3, p)),
            ]),
            "bit-level matmul, Expansion II (composed order)",
        )
    }

    fn sample() -> CompiledSchedule {
        let alg = matmul_structure(3, 3);
        let design = PaperDesign::TimeOptimal;
        CompiledSchedule::try_compile(&alg, &design.mapping(3), &design.interconnect(3)).unwrap()
    }

    #[test]
    fn roundtrip_is_lossless() {
        let sched = sample();
        let bytes = sched.to_bytes();
        let back = CompiledSchedule::from_bytes(&bytes).expect("roundtrip decodes");
        assert_eq!(back, sched);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] ^= 0xFF;
        assert_eq!(
            CompiledSchedule::from_bytes(&bytes),
            Err(PersistError::BadMagic)
        );
    }

    #[test]
    fn version_skew_is_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[4] = SCHEDULE_FORMAT_VERSION as u8 + 1;
        // Re-stamp the checksum so version skew (not corruption) is what the
        // reader sees — this models a valid image from a future build.
        let body_end = bytes.len() - 8;
        let sum = fnv1a(&bytes[..body_end]);
        bytes[body_end..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            CompiledSchedule::from_bytes(&bytes),
            Err(PersistError::UnsupportedVersion {
                found: SCHEDULE_FORMAT_VERSION + 1
            })
        );
    }

    #[test]
    fn truncation_is_rejected_at_any_length() {
        let bytes = sample().to_bytes();
        for keep in [0, 3, 4, 15, 16, bytes.len() / 2, bytes.len() - 1] {
            let err = CompiledSchedule::from_bytes(&bytes[..keep])
                .expect_err("truncated image must not decode");
            assert!(
                matches!(err, PersistError::Truncated | PersistError::BadMagic),
                "unexpected error at keep={keep}: {err:?}"
            );
        }
    }

    #[test]
    fn payload_corruption_fails_the_checksum() {
        let mut bytes = sample().to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        assert_eq!(
            CompiledSchedule::from_bytes(&bytes),
            Err(PersistError::ChecksumMismatch)
        );
    }

    #[test]
    fn forged_checksum_still_hits_structural_validation() {
        // Flip a producer slot to an absurd value and re-stamp the checksum:
        // the integrity layer passes, the structural layer must still refuse.
        let sched = sample();
        let bytes = sched.to_bytes();
        // Find the serialized position of producers[0] by re-encoding a
        // mutant and diffing.
        let mut mutant = sched.clone();
        mutant.producers[0] = 7_000_000; // way past n_points
        let mut forged = mutant.to_bytes();
        let body_end = forged.len() - 8;
        let sum = fnv1a(&forged[..body_end]);
        forged[body_end..].copy_from_slice(&sum.to_le_bytes());
        assert_ne!(forged, bytes);
        assert_eq!(
            CompiledSchedule::from_bytes(&forged),
            Err(PersistError::Malformed("producer slot out of range"))
        );
    }

    #[test]
    fn decoded_schedule_executes_identically() {
        use crate::clocked::MatmulExpansionIICells;
        let (u, p) = (3usize, 3usize);
        let sched = sample();
        let back = CompiledSchedule::from_bytes(&sched.to_bytes()).unwrap();
        let mmax = crate::BitMatmulArray::new(u, p).max_safe_entry();
        let x: Vec<Vec<u128>> = (0..u)
            .map(|i| {
                (0..u)
                    .map(|j| ((3 * i + 5 * j + 1) as u128) % (mmax + 1))
                    .collect()
            })
            .collect();
        let y: Vec<Vec<u128>> = (0..u)
            .map(|i| {
                (0..u)
                    .map(|j| ((7 * i + j + 2) as u128) % (mmax + 1))
                    .collect()
            })
            .collect();
        let cells = MatmulExpansionIICells::new(u, p, &x, &y);
        let a = sched.execute(&cells);
        let b = back.execute(&cells);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.peak_in_flight, b.peak_in_flight);
        assert_eq!(a.outputs, b.outputs);
    }
}
