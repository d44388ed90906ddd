//! The knob count lives in code. The ROADMAP's ground rule — no knob a PR
//! cannot show paying — is counted as `RuntimeConfig` 10 (`shards` and
//! `adaptive` inert) / `AdaptiveConfig` 2 (inert) / `TelemetryConfig` 1 /
//! `MonitorConfig` 4. Each test below destructures one configuration
//! exhaustively (no `..`) into an array of that length, so a field added
//! anywhere fails to compile until the same diff edits this file — and,
//! with it, the ROADMAP's count.

use std::fmt::Debug;

use swmon::monitor::MonitorConfig;
use swmon::runtime::{AdaptiveConfig, RuntimeConfig, TelemetryConfig};

/// `shards` is inert: a session is one supervised partition, and nothing
/// in `crates/` reads it. It is kept because the frozen benchmark builds it
/// — `pinned()` (`shards: 1`), `untraced_sessions`' fanned pass
/// (`shards: 2`) and the router layer's `Router::new(.., cfg.shards)` — and
/// goes with those lines.
#[test]
fn runtime_config_has_ten_knobs() {
    let RuntimeConfig {
        shards,
        batch,
        flush_every,
        adaptive,
        monitor,
        checkpoint_every,
        journal_limit,
        inject_faults,
        inject_deploy_faults,
        telemetry,
    } = RuntimeConfig::default();
    let _knobs: [&dyn Debug; 10] = [
        &shards,
        &batch,
        &flush_every,
        &adaptive,
        &monitor,
        &checkpoint_every,
        &journal_limit,
        &inject_faults,
        &inject_deploy_faults,
        &telemetry,
    ];
}

/// Both fields are inert: every session runs on the caller thread, and
/// nothing in `crates/` reads either. They are kept because
/// the frozen benchmark builds them — `benchmark/src/session.rs`'s
/// `pinned()` (`enabled: true, fan_out_rate: f64::INFINITY`) and
/// `benchmark/src/layers.rs`'s `untraced_sessions` (`AdaptiveConfig::default()`)
/// — and go with those lines.
#[test]
fn adaptive_config_has_two_knobs() {
    let AdaptiveConfig { enabled, fan_out_rate } = AdaptiveConfig::default();
    let _knobs: [&dyn Debug; 2] = [&enabled, &fan_out_rate];
}

#[test]
fn telemetry_config_has_one_knob() {
    let TelemetryConfig { stage_sample_every } = TelemetryConfig::default();
    let _knobs: [&dyn Debug; 1] = [&stage_sample_every];
}

#[test]
fn monitor_config_has_four_knobs() {
    let MonitorConfig { provenance, mode, scope, capacity } = MonitorConfig::default();
    let _knobs: [&dyn Debug; 4] = [&provenance, &mode, &scope, &capacity];
}
