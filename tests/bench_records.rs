//! Every checked-in `BENCH_*.json` record must be a JSON document — not a
//! document with a banner or a text table glued in front of it, which is
//! what `repro <experiment> --json > BENCH_x.json` used to capture.

use swmon::analysis::json;

#[test]
fn every_checked_in_bench_record_parses_as_json() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    for entry in std::fs::read_dir(root).expect("repo root is readable") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default().to_string();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("bench record is readable");
        if let Err(e) = json::parse(&src) {
            panic!("{name} is not a JSON document: {e:?}");
        }
        checked += 1;
    }
    assert!(checked >= 5, "expected the five BENCH_*.json records, found {checked}");
}
