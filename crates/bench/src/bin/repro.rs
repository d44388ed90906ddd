#![forbid(unsafe_code)]
//! `repro` — regenerate every table and experiment of the paper.
//!
//! Usage:
//! ```text
//! repro                         # run everything
//! repro table1 e3               # run a subset
//! repro e15 e17 --json          # also print machine-readable results
//! repro e16 --json --quick      # small event counts (CI smoke)
//! repro stats --json            # telemetry page over the full catalog
//! repro analyze --json          # proven facts + quantitative Table 2
//! repro query 'degraded()'      # SWQL over a live catalog session
//! repro query 'prop(*)' --follow --json
//! ```
//!
//! Every subcommand supports `--json` (experiments without a native JSON
//! emitter print the generic `{"experiment", "verified", "text"}`
//! envelope); under `--json` stdout carries one JSON document per
//! experiment and nothing else — banners and tables go to stderr. A
//! selector that names no experiment or subcommand exits 2 before anything
//! runs. The process exits nonzero when any emitted result failed its
//! contract (an unverified row, an unreconciled ledger), a lint
//! diagnostic gates, or a query fails to parse or verify — see
//! `swmon_bench::report`.
//!
//! `repro` checks contracts; it is not the stopwatch. Throughput, latency
//! and per-layer cost are `benchmark/`'s (see `benchmark/README.md`).

use swmon_bench::experiments::{e10, e11, e12, e15, e16, e17, e3, e4, e5, e6, e7, e8, e9, stats};
use swmon_bench::report::Emitter;
use swmon_bench::{analyze, lint, storequery};

/// Every selector `repro` accepts, in run order.
const SELECTORS: [&str; 21] = [
    "table1", "e1", "table2", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12",
    "e15", "e16", "e17", "stats", "lint", "analyze", "query",
];

/// The selectors that name no experiment or subcommand — a typo must not
/// read as "ran nothing, exit 0".
fn unknown_selectors<'a>(selectors: &[&'a String]) -> Vec<&'a str> {
    selectors.iter().map(|s| s.as_str()).filter(|s| !SELECTORS.contains(s)).collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The SWQL source after `query` is positional, not a subcommand name.
    let query_src = args
        .iter()
        .position(|a| a == "query")
        .and_then(|i| args.get(i + 1))
        .filter(|a| !a.starts_with("--"))
        .cloned();
    let selectors: Vec<&String> =
        args.iter().filter(|a| !a.starts_with("--") && Some(*a) != query_src.as_ref()).collect();
    let unknown = unknown_selectors(&selectors);
    if !unknown.is_empty() {
        eprintln!(
            "repro: unknown selector(s): {}\nvalid selectors: {}",
            unknown.join(", "),
            SELECTORS.join(" ")
        );
        std::process::exit(2);
    }
    let want = |k: &str| {
        debug_assert!(SELECTORS.contains(&k), "{k} is missing from SELECTORS");
        selectors.is_empty() || selectors.iter().any(|a| *a == k)
    };

    // `--quick` scales the runtime experiments down for CI smoke runs;
    // verification still applies at every size.
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let follow = args.iter().any(|a| a == "--follow");
    let mut em = Emitter::new(json);

    em.text("swmon — reproduction of \"Switches are Monitors Too!\" (HotNets 2016)");

    if want("table1") || want("e1") {
        em.section("E1 — Table 1: properties and the features they require (derived)");
        em.wrap(
            "e1-table1",
            true,
            &format!(
                "{}\n(*) = derived cell differs from the paper; see EXPERIMENTS.md §E1 for\n\
                 the three documented additive deviations.",
                swmon_props::table1::render()
            ),
        );
    }

    if want("table2") || want("e2") {
        em.section("E2 — Table 2: approaches and the features they provide (compiled)");
        em.wrap(
            "e2-table2",
            true,
            &format!(
                "{}\nEvery ✓/✗ above is validated by compiling a feature-probe property\n\
                 on the approach (see swmon-backends::table2 tests).",
                swmon_backends::table2::render()
            ),
        );
    }

    if want("e3") {
        em.section("E3 — pipeline depth vs. active instances (Sec 3.3)");
        em.wrap("e3-pipeline-depth", true, &e3::render(&e3::run(&e3::SWEEP)));
    }

    if want("e4") {
        em.section("E4 — state-update mechanisms vs. line rate (Sec 3.3)");
        em.wrap("e4-state-updates", true, &e4::render());
    }

    if want("e5") {
        em.section("E5 — external vs. on-switch monitoring (Sec 1)");
        em.wrap("e5-external-cost", true, &e5::render(&e5::run(32, 10_000)));
    }

    if want("e6") {
        em.section("E6 — inline vs. split side-effect control (Feature 9)");
        em.wrap("e6-inline-vs-split", true, &e6::render(&e6::run(200, &e6::default_gaps())));
    }

    if want("e7") {
        em.section("E7 — provenance levels (Feature 10)");
        em.wrap("e7-provenance", true, &e7::render(&e7::run(2_000)));
    }

    if want("e8") {
        em.section("E8 — timeout-refresh subtlety (Sec 2.3)");
        em.wrap("e8-timeout-refresh", true, &e8::render(&e8::run(&e8::default_fractions(), 10)));
    }

    if want("e9") {
        em.section("E9 — detection matrix (soundness)");
        let cases = e9::run();
        let verified = cases.iter().all(e9::Case::ok);
        em.wrap("e9-detection-matrix", verified, &e9::render(&cases));
    }

    if want("e10") {
        em.section("E10 — per-approach monitoring overhead");
        em.wrap("e10-overhead", true, &e10::render(&e10::run()));
    }

    if want("e11") {
        em.section("E11 — register-array capacity ablation (extension)");
        em.wrap(
            "e11-capacity-ablation",
            true,
            &e11::render(&e11::run(512, &e11::default_capacities())),
        );
    }

    if want("e12") {
        em.section("E12 — postcard provenance (extension, paper Sec 3.2)");
        em.wrap("e12-postcards", true, &e12::render());
    }

    let (flows, packets) = if quick { (64, 2_000) } else { (256, 20_000) };

    if want("e15") {
        em.section("E15 — fault-tolerant runtime under chaos (extension)");
        em.report(&e15::run(flows, packets));
    }

    if want("e16") {
        em.section("E16 — violation store: ingest, SWQL latency, live fidelity (extension)");
        let (sflows, spackets) = if quick { (24, 1_500) } else { (64, 6_000) };
        let synthetic = if quick { 120_000 } else { e16::SYNTHETIC_ROWS };
        em.report(&e16::run(sflows, spackets, synthetic));
    }

    if want("e17") {
        em.section("E17 — live property deployment: quiesce cost and rollback (extension)");
        em.report(&e17::run(flows, packets));
    }

    if want("stats") {
        // The telemetry page over the full catalog, at both reconciliation
        // regimes: shards=1 (literal identity) and shards=4 (generalized
        // ledger). See docs/TELEMETRY.md. One JSON document holds both runs.
        let (sflows, spackets) = if quick { (16, 1_000) } else { (32, 5_000) };
        let mut docs = Vec::new();
        let mut reconciled = true;
        for shards in [1usize, 4] {
            em.section(&format!("stats — telemetry page, full catalog, {shards} shard(s)"));
            let o = stats::run(sflows, spackets, shards);
            em.text(&stats::render(&o));
            reconciled &= o.reconciled;
            docs.push(stats::to_json(&o));
        }
        em.emit(
            &format!(
                "ledger reconciled at both shard counts: {}",
                if reconciled { "yes" } else { "NO" }
            ),
            &format!("{{\"experiment\": \"stats\", \"runs\": [\n{}]}}", docs.join(",\n")),
            reconciled,
        );
    }

    if want("lint") {
        em.section("Lint — swmon-analysis over the full property catalog");
        let diags = lint::run(&lint::catalog_targets());
        if em.json() {
            println!("{}", lint::render_json(&diags));
        } else {
            print!("{}", lint::render_pretty(&diags));
        }
        if lint::gating(&diags) {
            em.fail();
        }
    }

    if want("analyze") {
        em.section("Analyze — abstract interpretation: proven facts and quantitative Table 2");
        let reports = analyze::run_catalog();
        if em.json() {
            println!("{}", analyze::render_json(&reports));
        } else {
            print!("{}", analyze::render_pretty(&reports));
        }
        if analyze::gating(&reports) {
            em.fail();
        }
    }

    if let Some(src) = &query_src {
        em.section(&format!("query — SWQL over a live catalog session: {src}"));
        let (qflows, qpackets) = if quick { (16, 1_200) } else { (48, 8_000) };
        storequery::run(src, qflows, qpackets, follow, &mut em);
    } else if args.iter().any(|a| a == "query") {
        eprintln!("usage: repro query '<swql>' [--json] [--follow]");
        em.fail();
    }

    std::process::exit(em.exit_code());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_selectors_are_named_and_known_ones_pass() {
        let args: Vec<String> =
            ["e15", "e13", "stats", "tabel1", "query"].iter().map(|s| s.to_string()).collect();
        let selectors: Vec<&String> = args.iter().collect();
        assert_eq!(unknown_selectors(&selectors), ["e13", "tabel1"], "e13/e14 are retired");
        let all: Vec<String> = SELECTORS.iter().map(|s| s.to_string()).collect();
        assert!(unknown_selectors(&all.iter().collect::<Vec<_>>()).is_empty());
        assert!(unknown_selectors(&[]).is_empty(), "no selector means run everything");
    }
}
