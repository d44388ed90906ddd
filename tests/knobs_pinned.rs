//! The knob count lives in code. The ROADMAP's ground rule — no knob a PR
//! cannot show paying — is counted as `RuntimeConfig` 12 /
//! `AdaptiveConfig` 4 / `TelemetryConfig` 4 / `MonitorConfig` 4. Each test
//! below destructures one configuration exhaustively (no `..`) into an
//! array of that length, so a field added anywhere fails to compile until
//! the same diff edits this file — and, with it, the ROADMAP's count.

use std::fmt::Debug;

use swmon::monitor::MonitorConfig;
use swmon::runtime::{AdaptiveConfig, RuntimeConfig, TelemetryConfig};

#[test]
fn runtime_config_has_twelve_knobs() {
    let RuntimeConfig {
        shards,
        batch,
        queue,
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
    let _knobs: [&dyn Debug; 12] = [
        &shards,
        &batch,
        &queue,
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

#[test]
fn adaptive_config_has_four_knobs() {
    let AdaptiveConfig { enabled, window, fan_out_rate, fan_in_rate } = AdaptiveConfig::default();
    let _knobs: [&dyn Debug; 4] = [&enabled, &window, &fan_out_rate, &fan_in_rate];
}

#[test]
fn telemetry_config_has_four_knobs() {
    let TelemetryConfig { stage_sample_every, trace_every, trace_seed, trace_capacity } =
        TelemetryConfig::default();
    let _knobs: [&dyn Debug; 4] = [&stage_sample_every, &trace_every, &trace_seed, &trace_capacity];
}

#[test]
fn monitor_config_has_four_knobs() {
    let MonitorConfig { provenance, mode, scope, capacity } = MonitorConfig::default();
    let _knobs: [&dyn Debug; 4] = [&provenance, &mode, &scope, &capacity];
}
