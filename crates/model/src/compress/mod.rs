//! Lossless compression engines (§3.3).
//!
//! MTIA 2i ships two compressors: **ANS** for weights in device memory
//! (up to ~50 % ratio on INT8; FP16 "does not compress efficiently"), and a
//! **GZIP** engine on the PCIe path (up to 25 GB/s) that helps retrieval
//! models move large host↔device volumes. [`ans`] is a real rANS entropy
//! coder; [`lzss`] is a real LZ77-family byte compressor standing in for
//! DEFLATE (same family; what matters for the reproduction is the achieved
//! ratio, not bitstream compatibility).

pub mod ans;
pub mod lzss;

/// Ratio `compressed / original` (smaller is better; 0.5 = "50 %
/// compression ratio" in the paper's phrasing).
pub fn ratio(original_len: usize, compressed_len: usize) -> f64 {
    if original_len == 0 {
        return 1.0;
    }
    compressed_len as f64 / original_len as f64
}

/// Serializes FP16-rounded weights to their little-endian byte stream.
pub fn fp16_weight_bytes(weights: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(weights.len() * 2);
    for &w in weights {
        let h = f32_to_f16_bits(w);
        out.extend_from_slice(&h.to_le_bytes());
    }
    out
}

fn f32_to_f16_bits(v: f32) -> u16 {
    // Reuse the tensor module's conversion, extracting the bit pattern by
    // re-encoding the rounded value.
    let rounded = crate::tensor::f32_to_f16_to_f32(v);
    let bits = rounded.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    if rounded == 0.0 {
        return sign;
    }
    if rounded.is_nan() {
        return sign | 0x7e00;
    }
    if rounded.is_infinite() {
        return sign | 0x7c00;
    }
    let exp = ((bits >> 23) & 0xff) as i32 - 127;
    if exp < -14 {
        // Subnormal half.
        let frac = (bits & 0x007f_ffff) | 0x0080_0000;
        let shift = (-exp - 14 + 13) as u32;
        sign | (frac >> shift) as u16
    } else {
        let frac = ((bits & 0x007f_ffff) >> 13) as u16;
        sign | (((exp + 15) as u16) << 10) | frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_basics() {
        assert_eq!(ratio(100, 50), 0.5);
        assert_eq!(ratio(0, 10), 1.0);
    }

    #[test]
    fn fp16_bytes_length() {
        let bytes = fp16_weight_bytes(&[1.0, -2.0, 0.5]);
        assert_eq!(bytes.len(), 6);
    }

    #[test]
    fn fp16_bits_of_known_values() {
        assert_eq!(f32_to_f16_bits(0.0), 0x0000);
        assert_eq!(f32_to_f16_bits(1.0), 0x3c00);
        assert_eq!(f32_to_f16_bits(-2.0), 0xc000);
        assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7c00);
    }
}
