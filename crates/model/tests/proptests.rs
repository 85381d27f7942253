//! Property-based invariants of the model-side substrates.

use mtia_core::DType;
use mtia_model::graph::{Graph, TensorKind};
use mtia_model::ops::OpKind;
use mtia_model::tensor::{f32_to_f16_to_f32, DenseTensor, Shape};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// FP16 rounding is idempotent and monotone on finite inputs.
    #[test]
    fn fp16_rounding_idempotent(bits in any::<u32>()) {
        let v = f32::from_bits(bits);
        prop_assume!(v.is_finite());
        let once = f32_to_f16_to_f32(v);
        let twice = f32_to_f16_to_f32(once);
        if once.is_finite() {
            prop_assert_eq!(once.to_bits(), twice.to_bits());
        } else {
            prop_assert!(twice.is_infinite() || twice.is_nan());
        }
    }

    /// FP16 rounding error is within half an ulp for normal halves.
    #[test]
    fn fp16_relative_error_bounded(v in -60_000.0f32..60_000.0) {
        prop_assume!(v.abs() > 1e-4); // stay in the normal range
        let r = f32_to_f16_to_f32(v);
        let rel = ((r - v) / v).abs();
        prop_assert!(rel <= 2.0_f32.powi(-11), "rel err {rel} for {v}");
    }

    /// Graph liveness peak is at least the largest single live pair
    /// (input + output of any node), and total flops are order-invariant.
    #[test]
    fn liveness_lower_bound(widths in proptest::collection::vec(1u64..512, 2..12)) {
        let mut g = Graph::new("chain", 8);
        let mut prev = g.add_tensor(
            "in",
            Shape::matrix(8, widths[0]),
            DType::Fp32,
            TensorKind::Input,
        );
        let mut prev_width = widths[0];
        let mut max_pair = 0u64;
        for (i, &w) in widths.iter().enumerate().skip(1) {
            let next = g.add_tensor(
                format!("t{i}"),
                Shape::matrix(8, w),
                DType::Fp32,
                TensorKind::Activation,
            );
            let weight = g.add_tensor(
                format!("w{i}"),
                Shape::matrix(prev_width, w),
                DType::Fp32,
                TensorKind::Weight,
            );
            g.add_node(
                format!("fc{i}"),
                OpKind::Fc { batch: 8, in_features: prev_width, out_features: w },
                [prev, weight],
                [next],
            );
            max_pair = max_pair.max(8 * 4 * (prev_width + w));
            prev = next;
            prev_width = w;
        }
        prop_assert_eq!(g.validate(), Ok(()));
        let peak = g.peak_activation_bytes().as_u64();
        prop_assert!(peak >= max_pair, "peak {peak} < max pair {max_pair}");
    }

    /// Every op's reported byte volumes are consistent: fused boundary
    /// traffic equals its members' endpoints.
    #[test]
    fn fused_boundary_traffic(batch in 1u64..64, inf in 1u64..64, outf in 1u64..64) {
        let fc = OpKind::Fc { batch, in_features: inf, out_features: outf };
        let ew = OpKind::Elementwise {
            elems: batch * outf,
            kind: mtia_model::ops::EwKind::Nonlinear,
            arity: 1,
        };
        let fused = OpKind::Fused(vec![fc.clone(), ew.clone()]);
        prop_assert_eq!(
            fused.activation_in_bytes(DType::Fp16),
            fc.activation_in_bytes(DType::Fp16)
        );
        prop_assert_eq!(
            fused.activation_out_bytes(DType::Fp16),
            ew.activation_out_bytes(DType::Fp16)
        );
        prop_assert_eq!(
            fused.flops().as_f64(),
            fc.flops().as_f64() + ew.flops().as_f64()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// CRC-32 row checksums detect every single-bit flip in a
    /// checksummed embedding row — the §5.1 LPDDR fault unit.
    #[test]
    fn single_bit_flip_in_checksummed_row_is_detected(
        data in proptest::collection::vec(-100.0f32..100.0, 32),
        row in 0usize..4,
        col in 0usize..8,
        bit in 0u32..32,
    ) {
        use mtia_model::integrity::ChecksummedTable;
        let mut table = ChecksummedTable::new(DenseTensor::from_data(4, 8, data));
        prop_assert!(table.verify_row(row).is_ok());
        let flat = row * 8 + col;
        let raw = table.data_mut_unprotected().data_mut();
        raw[flat] = f32::from_bits(raw[flat].to_bits() ^ (1u32 << bit));
        prop_assert!(
            table.verify_row(row).is_err(),
            "bit {bit} flip at ({row},{col}) escaped the row checksum"
        );
        // Guarded gathers touching the row refuse to serve it.
        prop_assert!(table.gather_pooled(&[row as u32]).is_err());
    }
}
