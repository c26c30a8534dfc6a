//! A section load of `dataset.json` decodes the sections it keeps
//! exactly as the full decode does, and the reports built from the
//! analysis input are byte-identical to those built from the full
//! dataset, so `analyze` may skip the instrumented series.

use hpcpower::prediction::PredictionConfig;
use hpcpower::{json_report, report};
use hpcpower_sim::{simulate, with_threads, SimConfig};
use hpcpower_trace::json::{self, Sections};
use hpcpower_trace::TraceDataset;

fn encoded(d: &TraceDataset) -> String {
    serde_json::to_string(d).expect("encodes")
}

#[test]
fn section_loads_equal_the_full_decode_without_the_skipped_sections() {
    let mut bytes = Vec::new();
    json::write_dataset(&mut bytes, &simulate(SimConfig::emmy_small(11))).expect("encodes");
    let read = |sections| json::read_sections(&bytes[..], sections).expect("decodes");
    let full = read(Sections::All);
    assert!(!full.instrumented.is_empty() && !full.system_series.is_empty());
    let analysis = read(Sections::Analysis);
    let prediction = read(Sections::Prediction);

    let mut expected = full.clone();
    expected.instrumented.clear();
    assert_eq!(encoded(&analysis), encoded(&expected));
    expected.system_series.clear();
    assert_eq!(encoded(&prediction), encoded(&expected));

    let cfg = PredictionConfig {
        n_splits: 2,
        ..Default::default()
    };
    let text = |d: &TraceDataset| with_threads(1, || report::render_full(d, &cfg));
    assert_eq!(text(&analysis), text(&full));
    let json = |d: &TraceDataset| {
        serde_json::to_string(&with_threads(1, || json_report::build(d, &cfg))).expect("encodes")
    };
    assert_eq!(json(&analysis), json(&full));
}
