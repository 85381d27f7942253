//! Integrity primitives against §5.1 silent data corruption.
//!
//! The injection campaigns ([`crate::error_inject`]) showed that LPDDR
//! bit flips in TBE indices, embedding rows, and dense weights corrupt
//! outputs "with some failures occurring with high probability". These
//! are the *defensive* counterparts, designed so the serving path can
//! detect corruption before anything is served:
//!
//! * [`ChecksummedTable`] — per-embedding-row CRC-32 with verify-on-read
//!   gather. CRC-32 detects **every** single-bit error (and any burst of
//!   ≤ 32 bits) in a row, so the §5.1 single-flip model is fully covered
//!   by construction; a property test pins this.
//! * Index guards — [`ChecksummedTable::gather_pooled`] bounds-checks
//!   every index (the out-of-bounds-gather failure mode), and
//!   [`index_stream_checksum`] gives an end-to-end checksum over a
//!   request's index stream so staging corruption is caught even when
//!   the flipped index stays in range.
//! * [`OutputGuard`] — NaN/Inf plus a calibrated magnitude bound on
//!   dense-layer outputs (catches the exponent-bit flips that explode).
//! * [`output_fingerprint`] — an exact bit-level digest of an output
//!   tensor, the comparison primitive behind canary requests and shadow
//!   re-execution voting (a deterministic replay on equivalent devices
//!   must be bit-identical, so any divergence is corruption).

use std::fmt;

use mtia_core::fnv::Fnv1a;

use crate::tensor::DenseTensor;

/// A violation one of the integrity mechanisms detected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IntegrityViolation {
    /// A row's stored CRC-32 no longer matches its data.
    RowChecksumMismatch {
        /// The failing row.
        row: usize,
    },
    /// An index escaped the table's valid row range.
    IndexOutOfBounds {
        /// Position within the index stream.
        position: usize,
        /// The offending index value.
        index: u32,
        /// Number of valid rows.
        rows: u32,
    },
    /// The staged index stream's checksum disagrees with the checksum
    /// computed at submission time.
    IndexStreamMismatch,
    /// An output element is NaN or infinite.
    NonFiniteOutput {
        /// Element index (row-major).
        index: usize,
    },
    /// An output element exceeded the calibrated magnitude bound.
    OutputOutOfRange {
        /// Element index (row-major).
        index: usize,
        /// The offending value.
        value: f32,
        /// The calibrated bound it exceeded.
        bound: f32,
    },
}

impl fmt::Display for IntegrityViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            IntegrityViolation::RowChecksumMismatch { row } => {
                write!(f, "row {row} failed its CRC-32 verify-on-read")
            }
            IntegrityViolation::IndexOutOfBounds {
                position,
                index,
                rows,
            } => write!(
                f,
                "index {index} at stream position {position} escapes {rows} rows"
            ),
            IntegrityViolation::IndexStreamMismatch => {
                write!(f, "staged index stream checksum mismatch")
            }
            IntegrityViolation::NonFiniteOutput { index } => {
                write!(f, "output element {index} is NaN/Inf")
            }
            IntegrityViolation::OutputOutOfRange {
                index,
                value,
                bound,
            } => write!(f, "output element {index} = {value} exceeds bound {bound}"),
        }
    }
}

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over a byte stream.
///
/// Bitwise, table-free: the fleet runs this rarely enough (row reads in
/// the *simulated* guarded path, memtest scrubs) that clarity wins, and
/// the polynomial's guarantee — any single-bit error and any error burst
/// of length ≤ 32 is detected — is exactly the §5.1 fault model.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for byte in bytes {
        crc ^= *byte as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

/// CRC-32 over a row of `f32`s, hashing exact bit patterns.
pub fn row_checksum(row: &[f32]) -> u32 {
    let mut bytes = Vec::with_capacity(row.len() * 4);
    for v in row {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    crc32(&bytes)
}

/// End-to-end checksum over a request's index stream. Computed by the
/// submitter, re-computed after staging; a flipped staged index — even
/// one that stays in range — breaks the match.
pub fn index_stream_checksum(indices: &[u32]) -> u32 {
    let mut bytes = Vec::with_capacity(indices.len() * 4);
    for i in indices {
        bytes.extend_from_slice(&i.to_le_bytes());
    }
    crc32(&bytes)
}

/// An embedding table with a CRC-32 per row, verified on every read.
///
/// The checksums model the small metadata region the paper's software-
/// hashing mitigation would protect (assumed held in parity-protected
/// SRAM); the bulk rows live in unprotected LPDDR and are what the fault
/// injector corrupts.
#[derive(Debug, Clone, PartialEq)]
pub struct ChecksummedTable {
    table: DenseTensor,
    checksums: Vec<u32>,
}

impl ChecksummedTable {
    /// Wraps a table, computing one CRC-32 per row.
    pub fn new(table: DenseTensor) -> Self {
        let checksums = (0..table.rows())
            .map(|r| row_checksum(table.row(r)))
            .collect();
        ChecksummedTable { table, checksums }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.table.rows()
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.table.cols()
    }

    /// The underlying tensor (reads through here skip verification).
    pub fn table(&self) -> &DenseTensor {
        &self.table
    }

    /// Mutable access to the raw row data *without* updating checksums —
    /// this is the corruption surface the fault injector flips bits in.
    pub fn data_mut_unprotected(&mut self) -> &mut DenseTensor {
        &mut self.table
    }

    /// Verifies and returns row `r`.
    pub fn verify_row(&self, r: usize) -> Result<&[f32], IntegrityViolation> {
        let row = self.table.row(r);
        if row_checksum(row) == self.checksums[r] {
            Ok(row)
        } else {
            Err(IntegrityViolation::RowChecksumMismatch { row: r })
        }
    }

    /// Guarded pooled gather: bounds-checks every index, verifies every
    /// touched row's checksum, and sums the rows (sum pooling, the TBE
    /// default). First violation wins.
    pub fn gather_pooled(&self, indices: &[u32]) -> Result<Vec<f32>, IntegrityViolation> {
        let rows = self.rows() as u32;
        let mut pooled = vec![0.0f32; self.dim()];
        for (position, &index) in indices.iter().enumerate() {
            if index >= rows {
                return Err(IntegrityViolation::IndexOutOfBounds {
                    position,
                    index,
                    rows,
                });
            }
            let row = self.verify_row(index as usize)?;
            for (p, v) in pooled.iter_mut().zip(row) {
                *p += v;
            }
        }
        Ok(pooled)
    }

    /// Unguarded pooled gather — the pre-defense serving path. An
    /// out-of-range index wraps modulo the table size (reads whatever
    /// memory sits there), and corrupted rows are consumed silently.
    pub fn gather_pooled_unguarded(&self, indices: &[u32]) -> Vec<f32> {
        let rows = self.rows() as u32;
        let mut pooled = vec![0.0f32; self.dim()];
        for &index in indices {
            let row = self.table.row((index % rows) as usize);
            for (p, v) in pooled.iter_mut().zip(row) {
                *p += v;
            }
        }
        pooled
    }

    /// Scrubs the whole table: returns every row whose checksum fails.
    /// This is the targeted-memtest primitive the quarantine workflow
    /// runs on suspect devices.
    pub fn scrub(&self) -> Vec<usize> {
        (0..self.rows())
            .filter(|&r| self.verify_row(r).is_err())
            .collect()
    }

    /// Restores corrupted rows from a golden replica (the host-side
    /// copy every inference table is loaded from) and returns how many
    /// rows were repaired.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn repair_from(&mut self, golden: &ChecksummedTable) -> usize {
        assert_eq!(
            (self.rows(), self.dim()),
            (golden.rows(), golden.dim()),
            "repair requires matching shapes"
        );
        let bad = self.scrub();
        for &r in &bad {
            let src = golden.table.row(r).to_vec();
            self.table.row_mut(r).copy_from_slice(&src);
            self.checksums[r] = golden.checksums[r];
        }
        bad.len()
    }
}

/// NaN/Inf + magnitude guard on dense-layer outputs, calibrated from
/// clean runs so it never fires on uncorrupted traffic at the default
/// margin (a property test pins this).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutputGuard {
    /// Absolute bound: any |element| above this trips the guard.
    pub max_abs: f32,
}

/// Default calibration margin: the clean-run maximum times this factor.
/// Wide enough that distribution-tail outputs never false-positive,
/// tight enough that exponent-bit flips (× 2^many) always trip.
pub const DEFAULT_GUARD_MARGIN: f32 = 4.0;

impl OutputGuard {
    /// Calibrates the bound as `margin` × the max |element| across the
    /// sample outputs.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or `margin < 1`.
    pub fn calibrate(samples: &[DenseTensor], margin: f32) -> Self {
        assert!(!samples.is_empty(), "calibration needs sample outputs");
        assert!(margin >= 1.0, "margin below 1 rejects calibration data");
        let max = samples.iter().map(|t| t.max_abs()).fold(0.0f32, f32::max);
        OutputGuard {
            max_abs: (max * margin).max(f32::MIN_POSITIVE),
        }
    }

    /// Checks an output tensor; first violation wins.
    pub fn check(&self, out: &DenseTensor) -> Result<(), IntegrityViolation> {
        for (index, &v) in out.data().iter().enumerate() {
            if !v.is_finite() {
                return Err(IntegrityViolation::NonFiniteOutput { index });
            }
            if v.abs() > self.max_abs {
                return Err(IntegrityViolation::OutputOutOfRange {
                    index,
                    value: v,
                    bound: self.max_abs,
                });
            }
        }
        Ok(())
    }
}

/// Exact bit-level digest of an output tensor (FNV-1a over element bit
/// patterns and the shape). Deterministic replay on equivalent devices
/// is bit-identical, so canary and shadow comparisons use exact equality
/// — any divergence is evidence of corruption, not jitter.
pub fn output_fingerprint(out: &DenseTensor) -> u64 {
    let mut hash = Fnv1a::default();
    hash.word(out.rows() as u64);
    hash.word(out.cols() as u64);
    for v in out.data() {
        hash.word(v.to_bits() as u64);
    }
    hash.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error_inject::flip_f32_bit;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table(seed: u64) -> ChecksummedTable {
        let mut rng = StdRng::seed_from_u64(seed);
        ChecksummedTable::new(DenseTensor::gaussian(16, 8, 1.0, &mut rng))
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn clean_gather_verifies_and_pools() {
        let t = table(1);
        let pooled = t.gather_pooled(&[0, 3, 3, 15]).expect("clean table");
        // Accumulate in gather order: fp addition is not associative.
        let expected: Vec<f32> = (0..t.dim())
            .map(|c| {
                let mut acc = t.table().get(0, c);
                acc += t.table().get(3, c);
                acc += t.table().get(3, c);
                acc += t.table().get(15, c);
                acc
            })
            .collect();
        assert_eq!(pooled, expected);
    }

    #[test]
    fn any_single_bit_flip_is_detected_on_read() {
        let mut t = table(2);
        flip_f32_bit(t.data_mut_unprotected(), 5 * 8 + 2, 17);
        assert_eq!(
            t.verify_row(5),
            Err(IntegrityViolation::RowChecksumMismatch { row: 5 })
        );
        assert_eq!(
            t.gather_pooled(&[1, 5]),
            Err(IntegrityViolation::RowChecksumMismatch { row: 5 })
        );
        // Untouched rows still verify.
        assert!(t.verify_row(4).is_ok());
    }

    #[test]
    fn unguarded_gather_consumes_corruption_silently() {
        let mut t = table(3);
        flip_f32_bit(t.data_mut_unprotected(), 0, 30); // exponent MSB
        let pooled = t.gather_pooled_unguarded(&[0]);
        assert!(pooled.iter().any(|v| v.abs() > 1e20 || !v.is_finite()));
        // And an out-of-range index silently wraps instead of failing.
        let wrapped = t.gather_pooled_unguarded(&[16 + 3]);
        assert_eq!(wrapped, t.gather_pooled_unguarded(&[3]));
    }

    #[test]
    fn bounds_guard_catches_escaped_index() {
        let t = table(4);
        assert_eq!(
            t.gather_pooled(&[2, 99]),
            Err(IntegrityViolation::IndexOutOfBounds {
                position: 1,
                index: 99,
                rows: 16
            })
        );
    }

    #[test]
    fn index_stream_checksum_catches_in_range_flips() {
        let indices = [3u32, 7, 1, 12];
        let submitted = index_stream_checksum(&indices);
        let mut staged = indices;
        staged[2] ^= 1 << 2; // 1 → 5: still in range, silently wrong row
        assert!(staged.iter().all(|&i| i < 16));
        assert_ne!(index_stream_checksum(&staged), submitted);
    }

    #[test]
    fn scrub_and_repair_restore_the_table() {
        let golden = table(5);
        let mut t = golden.clone();
        flip_f32_bit(t.data_mut_unprotected(), 2 * 8, 12);
        flip_f32_bit(t.data_mut_unprotected(), 9 * 8 + 7, 3);
        assert_eq!(t.scrub(), vec![2, 9]);
        assert_eq!(t.repair_from(&golden), 2);
        assert!(t.scrub().is_empty());
        assert_eq!(t, golden);
    }

    #[test]
    fn output_guard_calibration_and_detection() {
        let mut rng = StdRng::seed_from_u64(6);
        let samples: Vec<DenseTensor> = (0..8)
            .map(|_| DenseTensor::gaussian(1, 8, 1.0, &mut rng))
            .collect();
        let guard = OutputGuard::calibrate(&samples, DEFAULT_GUARD_MARGIN);
        for s in &samples {
            assert_eq!(guard.check(s), Ok(()), "clean outputs must pass");
        }
        let mut bad = samples[0].clone();
        bad.set(0, 3, f32::NAN);
        assert_eq!(
            guard.check(&bad),
            Err(IntegrityViolation::NonFiniteOutput { index: 3 })
        );
        let mut huge = samples[0].clone();
        huge.set(0, 1, guard.max_abs * 2.0);
        assert!(matches!(
            guard.check(&huge),
            Err(IntegrityViolation::OutputOutOfRange { index: 1, .. })
        ));
    }

    #[test]
    fn fingerprint_is_exact_and_shape_sensitive() {
        let a = DenseTensor::from_data(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = DenseTensor::from_data(4, 1, vec![1.0, 2.0, 3.0, 4.0]);
        assert_ne!(output_fingerprint(&a), output_fingerprint(&b));
        let mut c = a.clone();
        assert_eq!(output_fingerprint(&a), output_fingerprint(&c));
        flip_f32_bit(&mut c, 3, 0); // mantissa LSB — still a different digest
        assert_ne!(output_fingerprint(&a), output_fingerprint(&c));
    }
}
