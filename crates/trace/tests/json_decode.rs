//! The dataset decode contract on a simulated trace: decoding is exact
//! (re-encoding a decoded `dataset.json` reproduces it byte for byte, so
//! every f64 comes back bit-identical), and a damaged file, cut short or
//! with one bit flipped, is an error or a dataset, never a panic, for
//! the full decode and for both section loads.

use std::sync::OnceLock;

use hpcpower_sim::{ClusterSim, SimConfig};
use hpcpower_trace::json::{self, Sections};
use hpcpower_trace::TraceDataset;
use proptest::prelude::*;

const SECTIONS: [Sections; 3] = [Sections::All, Sections::Analysis, Sections::Prediction];

/// `dataset.json` of a small simulated Emmy trace with instrumented
/// series, encoded once per test binary.
fn trace_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let cfg = SimConfig::emmy(3).scaled_down(8, 2 * 1440, 4);
        let dataset = ClusterSim::new(cfg).run().dataset;
        let mut bytes = Vec::new();
        json::write_dataset(&mut bytes, &dataset).expect("encode");
        bytes
    })
}

#[test]
fn decoded_trace_reencodes_to_the_same_bytes() {
    let text = std::str::from_utf8(trace_bytes()).expect("UTF-8");
    let dataset: TraceDataset = serde_json::from_str(text).expect("decode");
    assert!(!dataset.jobs.is_empty() && !dataset.instrumented.is_empty());
    assert!(serde_json::to_string(&dataset).expect("encode") == text);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn truncated_trace_is_an_error(cut in 0.0f64..1.0) {
        let bytes = trace_bytes();
        let len = (cut * bytes.len() as f64) as usize;
        for sections in SECTIONS {
            prop_assert!(
                json::read_sections(&bytes[..len], sections).is_err(),
                "{sections:?} decoded a trace cut at byte {len}"
            );
        }
    }

    #[test]
    fn bit_flipped_trace_never_panics(at in 0.0f64..1.0, bit in 0u32..8) {
        let mut bytes = trace_bytes().to_vec();
        let i = (at * bytes.len() as f64) as usize;
        bytes[i] ^= 1 << bit;
        for sections in SECTIONS {
            let _ = json::read_sections(&bytes[..], sections);
        }
    }
}
