//! The §2.1 fuzzy-barrier study, pinned: the six `repro fuzzy` cells (8
//! nodes, LANai 4.3, compute ∈ {0, 20, 40, 60, 80, 120} µs, blocking and
//! overlap) must reproduce these periods bit for bit.

use gmsim_testbed::prelude::*;

/// `(compute µs, overlap, mean_us bits)`; the comment is the decimal value.
const CELLS: [(u64, bool, u64); 12] = [
    (0, false, 0x40548e6666666666),   // 82.225
    (0, true, 0x40548e6666666666),    // 82.225
    (20, false, 0x40598e6666666666),  // 102.225
    (20, true, 0x40548e6666666666),   // 82.225
    (40, false, 0x405e8e6666666666),  // 122.225
    (40, true, 0x40548e6666666666),   // 82.225
    (60, false, 0x4061c73333333333),  // 142.225
    (60, true, 0x40548e6666666666),   // 82.225
    (80, false, 0x4064473333333333),  // 162.225
    (80, true, 0x4057b33333333334),   // 94.80000000000001
    (120, false, 0x4069473333333334), // 202.22500000000002
    (120, true, 0x4060d9999999999a),  // 134.8
];

#[test]
fn repro_fuzzy_cells_are_bit_exact() {
    for (compute, overlap, bits) in CELLS {
        let m = FuzzyExperiment::new(8, compute, overlap).run().unwrap();
        assert_eq!(
            m.mean_us.to_bits(),
            bits,
            "compute={compute} overlap={overlap}: {} us vs pinned {} us",
            m.mean_us,
            f64::from_bits(bits)
        );
    }
}
