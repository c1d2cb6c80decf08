//! The untraced runs report every end-to-end metric with a positive
//! value, and the metric tables agree with `BENCHMARK.json`.

use perfbench::{decode, fuzz, timetravel, Outcome, END_TO_END, PER_LAYER};

fn assert_reports_every_metric(o: &Outcome) {
    assert_eq!(o.failed, 0, "{:?}", o.errors);
    for &(name, _) in END_TO_END {
        let v = o
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .value;
        assert!(v.is_finite() && v > 0.0, "{name} = {v}");
    }
}

#[test]
fn one_operation_of_each_workload_is_correct() {
    assert_reports_every_metric(&decode::run(3, 0.0, 16));
    assert_reports_every_metric(&timetravel::run(3, 0.0, 16, 2));
    assert_reports_every_metric(&fuzz::run(3, 0.0, 12));
}

/// The `"name": ... "unit": ...` pairs of one section of BENCHMARK.json.
fn section(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("section present");
    let body = &json[start..json[start..].find(']').map(|e| start + e).unwrap()];
    body.split('{')
        .skip(1)
        .map(|obj| {
            let field = |f: &str| {
                let at = obj
                    .find(&format!("\"{f}\""))
                    .unwrap_or_else(|| panic!("{f} in {obj}"));
                obj[at..].split('"').nth(3).unwrap().to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn metric_tables_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let owned = |t: &[(&str, &str)]| {
        t.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect::<Vec<_>>()
    };
    assert_eq!(section(&json, "end_to_end"), owned(END_TO_END));
    assert_eq!(section(&json, "per_layer"), owned(PER_LAYER));
}
