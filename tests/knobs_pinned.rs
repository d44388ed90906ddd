//! The knob count lives in code. The ROADMAP's ground rule — no knob a PR
//! cannot show paying — is counted as `RuntimeConfig` 11 (`adaptive`
//! inert) / `AdaptiveConfig` 2 (inert) / `TelemetryConfig` 1 /
//! `MonitorConfig` 4. Each test below destructures one configuration
//! exhaustively (no `..`) into an array of that length, so a field added
//! anywhere fails to compile until the same diff edits this file — and,
//! with it, the ROADMAP's count.

use std::fmt::Debug;

use swmon::monitor::MonitorConfig;
use swmon::runtime::{AdaptiveConfig, RuntimeConfig, TelemetryConfig};

#[test]
fn runtime_config_has_eleven_knobs() {
    let RuntimeConfig {
        shards,
        batch,
        flush_every,
        adaptive,
        monitor,
        checkpoint_every,
        journal_limit,
        max_restarts,
        inject_faults,
        inject_deploy_faults,
        telemetry,
    } = RuntimeConfig::default();
    let _knobs: [&dyn Debug; 11] = [
        &shards,
        &batch,
        &flush_every,
        &adaptive,
        &monitor,
        &checkpoint_every,
        &journal_limit,
        &max_restarts,
        &inject_faults,
        &inject_deploy_faults,
        &telemetry,
    ];
}

/// Both fields are inert: `RuntimeConfig::shards` alone picks a session's
/// threading, and nothing in `crates/` reads either. They are kept because
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
