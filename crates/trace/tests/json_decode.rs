//! The dataset decode contract on a simulated trace: decoding is exact
//! (re-encoding a decoded `dataset.json` reproduces it byte for byte, so
//! every f64 comes back bit-identical), a file load equals the decode of
//! the text in memory, and a damaged file, cut short or with one bit
//! flipped, is an error or a dataset, never a panic, for the full
//! decode and for both section loads. Damaged files are also read a
//! few bytes at a time, so that every token of the trace straddles a
//! refill of the decoder's window: the result must not change.

use std::io::{self, Read};
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

/// A source that returns 1 to 7 bytes per read, in a pattern fixed by
/// its seed.
struct Trickle<'a> {
    bytes: &'a [u8],
    state: u64,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.state = self
            .state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let n = (1 + (self.state >> 33) as usize % 7)
            .min(buf.len())
            .min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// `read_sections` of `bytes` read whole and read a few bytes at a
/// time, which must agree: on the dataset, or on the error.
fn read_both_ways(bytes: &[u8], sections: Sections) -> Result<TraceDataset, String> {
    let whole = json::read_sections(bytes, sections).map_err(|e| e.to_string());
    let trickled = json::read_sections(Trickle { bytes, state: 7 }, sections);
    let trickled = trickled.map_err(|e| e.to_string());
    match (&whole, &trickled) {
        (Ok(a), Ok(b)) => assert!(encoded(a) == encoded(b), "{sections:?} decodes differ"),
        _ => assert_eq!(
            whole.as_ref().err(),
            trickled.as_ref().err(),
            "{sections:?}"
        ),
    }
    whole
}

fn encoded(d: &TraceDataset) -> String {
    serde_json::to_string(d).expect("encode")
}

#[test]
fn file_loads_equal_the_decode_in_memory() {
    let bytes = trace_bytes();
    let text = std::str::from_utf8(bytes).expect("UTF-8");
    let dir = std::env::temp_dir().join(format!("hpcpower-json-decode-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("dataset.json");
    std::fs::write(&path, bytes).unwrap();
    let mut expected: TraceDataset = serde_json::from_str(text).expect("decode");
    assert_eq!(
        encoded(&json::load_sections(&path, Sections::All).unwrap()),
        text
    );
    expected.instrumented.clear();
    let analysis = json::load_sections(&path, Sections::Analysis).unwrap();
    assert!(encoded(&analysis) == encoded(&expected));
    expected.system_series.clear();
    let prediction = json::load_sections(&path, Sections::Prediction).unwrap();
    assert!(encoded(&prediction) == encoded(&expected));
    std::fs::remove_dir_all(&dir).unwrap();
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
                read_both_ways(&bytes[..len], sections).is_err(),
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
            let _ = read_both_ways(&bytes, sections);
        }
    }
}
