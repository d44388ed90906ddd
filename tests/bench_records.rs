//! The checked-in `BENCH_*.json` records are exactly the three contract
//! runs' — `repro e15|e16|e17 --json > BENCH_x.json` — and all have the one
//! shape `swmon_bench::report::Report` writes:
//!
//! ```text
//! {"experiment": .., "nproc": .., <facts>, "rows": [{"config": .., <columns>, "verified": ..}]}
//! ```
//!
//! Timing the pipeline is `benchmark/`'s job; a record in any other shape,
//! or a fourth record, is a second stopwatch coming back.

use swmon::analysis::json::{self, Value};

#[test]
fn every_checked_in_bench_record_parses_as_json() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found = Vec::new();
    for entry in std::fs::read_dir(root).expect("repo root is readable") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default().to_string();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("bench record is readable");
        let doc = json::parse(&src).unwrap_or_else(|e| panic!("{name} is not JSON: {e:?}"));
        let Value::Obj(fields) = &doc else { panic!("{name} is not a JSON object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys[..2], ["experiment", "nproc"], "{name} opens on experiment + nproc");
        assert_eq!(keys.last(), Some(&"rows"), "{name} ends on its rows");
        assert!(doc.get("experiment").and_then(Value::as_str).is_some(), "{name}");
        assert!(doc.get("nproc").and_then(Value::as_usize).is_some_and(|n| n >= 1), "{name}");

        let rows = doc.get("rows").and_then(Value::as_arr).expect("rows is an array");
        assert!(!rows.is_empty(), "{name} has no rows");
        let columns = |row: &Value| -> Vec<String> {
            let Value::Obj(cells) = row else { panic!("{name}: a row is not an object") };
            cells.iter().map(|(k, _)| k.clone()).collect()
        };
        let header = columns(&rows[0]);
        assert_eq!(header.first().map(String::as_str), Some("config"), "{name}");
        assert_eq!(header.last().map(String::as_str), Some("verified"), "{name}");
        for row in rows {
            assert_eq!(columns(row), header, "{name}: every row has the same columns");
            assert!(row.get("config").and_then(Value::as_str).is_some(), "{name}");
            assert_eq!(row.get("verified"), Some(&Value::Bool(true)), "{name}: {row:?}");
        }
        found.push(name);
    }
    found.sort();
    assert_eq!(found, ["BENCH_deploy.json", "BENCH_faults.json", "BENCH_store.json"]);
}
