//! Tensor shapes and small dense tensors with real data.
//!
//! Most of the workspace reasons about tensors symbolically (shapes, dtypes,
//! byte counts) — that is [`Shape`] and `TensorDef` in [`crate::graph`]. The
//! numeric experiments (dynamic INT8 quantization quality in §4.4, memory
//! error injection in §5.1) additionally need real values; [`DenseTensor`]
//! provides a compact row-major `f32` tensor with just enough linear algebra
//! for those studies.

use std::fmt;

use mtia_core::units::Bytes;
use mtia_core::DType;
use rand::distributions::Distribution;
use rand::Rng;

/// A tensor shape: a list of dimension sizes, row-major.
///
/// ```
/// use mtia_model::tensor::Shape;
/// let s = Shape::matrix(512, 2048);
/// assert_eq!(s.elems(), 512 * 2048);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape(Vec<u64>);

impl Shape {
    /// Creates a shape from dimensions.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(dims: impl Into<Vec<u64>>) -> Self {
        let dims = dims.into();
        assert!(
            dims.iter().all(|&d| d > 0),
            "zero-sized dimension in shape {dims:?}"
        );
        Shape(dims)
    }

    /// A 1-D shape.
    pub fn vector(n: u64) -> Self {
        Shape::new([n])
    }

    /// A 2-D shape (rows × cols).
    pub fn matrix(rows: u64, cols: u64) -> Self {
        Shape::new([rows, cols])
    }

    /// The dimensions.
    pub fn dims(&self) -> &[u64] {
        &self.0
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total element count.
    pub fn elems(&self) -> u64 {
        self.0.iter().product()
    }

    /// Size in bytes when stored as `dtype`.
    pub fn bytes(&self, dtype: DType) -> Bytes {
        dtype.bytes_for(self.elems())
    }

    /// Leading (outermost) dimension.
    pub fn outer(&self) -> u64 {
        self.0[0]
    }

    /// Trailing (innermost) dimension.
    pub fn inner(&self) -> u64 {
        *self.0.last().expect("shapes are non-empty")
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

/// A dense row-major `f32` matrix used by the numeric studies.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseTensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl DenseTensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "zero-sized tensor");
        DenseTensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a tensor from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_data(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length does not match shape");
        DenseTensor { rows, cols, data }
    }

    /// Creates a tensor with values drawn from `N(0, std²)` — the usual
    /// initialization scale of trained FC weights.
    pub fn gaussian<R: Rng + ?Sized>(rows: usize, cols: usize, std: f32, rng: &mut R) -> Self {
        let dist = rand::distributions::Uniform::new(0.0f64, 1.0f64);
        let mut data = Vec::with_capacity(rows * cols);
        // Box-Muller transform; avoids needing rand_distr.
        while data.len() < rows * cols {
            let u1: f64 = dist.sample(rng).max(1e-12);
            let u2: f64 = dist.sample(rng);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f64::consts::PI * u2;
            data.push((r * theta.cos()) as f32 * std);
            if data.len() < rows * cols {
                data.push((r * theta.sin()) as f32 * std);
            }
        }
        DenseTensor { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at (`r`, `c`).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Sets element at (`r`, `c`).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] = v;
    }

    /// A view of row `r`.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The underlying row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying data (error injection flips bits
    /// here).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Matrix product `self × other`.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul(&self, other: &DenseTensor) -> DenseTensor {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} × {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = DenseTensor::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let orow = &other.data[k * other.cols..(k + 1) * other.cols];
                let crow = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (c, o) in crow.iter_mut().zip(orow) {
                    *c += a * o;
                }
            }
        }
        out
    }

    /// Whether any element is NaN or infinite — the §5.1 corruption signal.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }

    /// Signal-to-noise ratio of `self` as an approximation of `reference`,
    /// in dB. Higher is better; FP16 round-tripping of unit-scale data is
    /// typically > 35 dB.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn snr_db_vs(&self, reference: &DenseTensor) -> f64 {
        assert_eq!(
            (self.rows, self.cols),
            (reference.rows, reference.cols),
            "SNR requires matching shapes"
        );
        let mut signal = 0.0f64;
        let mut noise = 0.0f64;
        for (a, r) in self.data.iter().zip(&reference.data) {
            signal += (*r as f64).powi(2);
            noise += (*a as f64 - *r as f64).powi(2);
        }
        if noise == 0.0 {
            return f64::INFINITY;
        }
        10.0 * (signal / noise).log10()
    }

    /// Maximum absolute element.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }
}

/// Rounds every element through IEEE-754 half precision (FP16).
pub fn round_to_fp16(t: &DenseTensor) -> DenseTensor {
    let data = t.data().iter().map(|&v| f32_to_f16_to_f32(v)).collect();
    DenseTensor::from_data(t.rows(), t.cols(), data)
}

/// Converts `f32 → f16 → f32` with round-to-nearest-even, without an
/// external half-precision crate.
pub fn f32_to_f16_to_f32(v: f32) -> f32 {
    let bits = v.to_bits();
    let sign = (bits >> 16) & 0x8000;
    let mut exp = ((bits >> 23) & 0xff) as i32;
    let mut frac = bits & 0x007f_ffff;

    let half: u16 = if exp == 0xff {
        // Inf / NaN.
        (sign | 0x7c00 | if frac != 0 { 0x200 } else { 0 }) as u16
    } else {
        exp -= 127;
        if exp > 15 {
            (sign | 0x7c00) as u16 // overflow → inf
        } else if exp >= -14 {
            // Normal half. Round mantissa from 23 to 10 bits, RNE.
            let shift = 13;
            let lsb = 1u32 << shift;
            let round = (lsb >> 1) - 1;
            frac += ((frac >> shift) & 1) + round;
            if frac & 0x0080_0000 != 0 {
                frac = 0;
                exp += 1;
                if exp > 15 {
                    return f32::from_bits(sign << 16 | 0x7f80_0000); // inf
                }
            }
            (sign | (((exp + 15) as u32) << 10) | (frac >> shift)) as u16
        } else if exp >= -24 {
            // Subnormal half.
            let full = frac | 0x0080_0000;
            let shift = (-exp - 14 + 13) as u32;
            let lsb = 1u32 << shift;
            let round = (lsb >> 1) - 1;
            let rounded = full + ((full >> shift) & 1) + round;
            (sign | (rounded >> shift)) as u16
        } else {
            sign as u16 // underflow → zero
        }
    };

    // Expand back to f32.
    let s = ((half as u32) & 0x8000) << 16;
    let e = ((half as u32) >> 10) & 0x1f;
    let f = (half as u32) & 0x3ff;
    let out = if e == 0 {
        if f == 0 {
            s
        } else {
            // Subnormal: normalize.
            let mut f = f;
            let mut e = -14i32;
            while f & 0x400 == 0 {
                f <<= 1;
                e -= 1;
            }
            f &= 0x3ff;
            s | (((e + 127) as u32) << 23) | (f << 13)
        }
    } else if e == 0x1f {
        s | 0x7f80_0000 | (f << 13)
    } else {
        s | ((e as i32 - 15 + 127) as u32) << 23 | (f << 13)
    };
    f32::from_bits(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shape_basics() {
        let s = Shape::new([2, 3, 4]);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.elems(), 24);
        assert_eq!(s.outer(), 2);
        assert_eq!(s.inner(), 4);
        assert_eq!(s.bytes(DType::Fp16), Bytes::new(48));
        assert_eq!(s.to_string(), "[2x3x4]");
    }

    #[test]
    #[should_panic(expected = "zero-sized")]
    fn zero_dim_panics() {
        let _ = Shape::new([4, 0]);
    }

    #[test]
    fn matmul_identity() {
        let mut eye = DenseTensor::zeros(3, 3);
        for i in 0..3 {
            eye.set(i, i, 1.0);
        }
        let mut rng = StdRng::seed_from_u64(1);
        let a = DenseTensor::gaussian(3, 3, 1.0, &mut rng);
        let b = a.matmul(&eye);
        assert_eq!(a, b);
    }

    #[test]
    fn matmul_known_values() {
        let a = DenseTensor::from_data(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = DenseTensor::from_data(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_mismatch_panics() {
        let a = DenseTensor::zeros(2, 3);
        let b = DenseTensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let t = DenseTensor::gaussian(100, 100, 2.0, &mut rng);
        let n = t.data().len() as f64;
        let mean: f64 = t.data().iter().map(|&v| v as f64).sum::<f64>() / n;
        let var: f64 = t
            .data()
            .iter()
            .map(|&v| (v as f64 - mean).powi(2))
            .sum::<f64>()
            / n;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.05, "std {}", var.sqrt());
    }

    #[test]
    fn snr_of_identical_is_infinite() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = DenseTensor::gaussian(10, 10, 1.0, &mut rng);
        assert_eq!(t.snr_db_vs(&t), f64::INFINITY);
    }

    #[test]
    fn fp16_roundtrip_exact_values() {
        for v in [0.0f32, 1.0, -1.0, 0.5, 2.0, 65504.0, -65504.0, 0.25] {
            assert_eq!(f32_to_f16_to_f32(v), v, "value {v} should be exact in fp16");
        }
    }

    #[test]
    fn fp16_rounds_inexact_values() {
        // 1/3 is not representable; error should be within half an ulp
        // (2^-11 relative).
        let v = 1.0f32 / 3.0;
        let r = f32_to_f16_to_f32(v);
        assert!((r - v).abs() / v < 2.0_f32.powi(-11));
        assert_ne!(r, v);
    }

    #[test]
    fn fp16_overflow_and_underflow() {
        assert_eq!(f32_to_f16_to_f32(1e6), f32::INFINITY);
        assert_eq!(f32_to_f16_to_f32(-1e6), f32::NEG_INFINITY);
        assert_eq!(f32_to_f16_to_f32(1e-10), 0.0);
        assert!(f32_to_f16_to_f32(f32::NAN).is_nan());
    }

    #[test]
    fn fp16_subnormals() {
        // Smallest positive half subnormal is 2^-24.
        let tiny = 2.0_f32.powi(-24);
        assert_eq!(f32_to_f16_to_f32(tiny), tiny);
        // Below half of it rounds to zero.
        assert_eq!(f32_to_f16_to_f32(tiny / 4.0), 0.0);
    }

    #[test]
    fn fp16_snr_of_gaussian_data() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = DenseTensor::gaussian(64, 64, 1.0, &mut rng);
        let r = round_to_fp16(&t);
        let snr = r.snr_db_vs(&t);
        // FP16 has ~11 bits of mantissa → ~66 dB best case; > 35 dB easily.
        assert!(snr > 35.0, "fp16 snr {snr}");
    }

    #[test]
    fn non_finite_detection() {
        let mut t = DenseTensor::zeros(2, 2);
        assert!(!t.has_non_finite());
        t.set(1, 1, f32::NAN);
        assert!(t.has_non_finite());
    }
}
