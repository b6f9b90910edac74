//! Central-server endpoint for a real-process Fed-SC round over TCP.
//!
//! Binds a listener, prints `listening <addr>` (flushed, so a parent
//! process piping stdout can scrape the ephemeral port), collects uplinks
//! from `--devices` clients under the straggler policy, runs the central
//! clustering, answers each included device, and prints a summary:
//!
//! ```text
//! listening 127.0.0.1:40123
//! excluded 3
//! uplink_bytes 5664 downlink_bytes 1248
//! envelope_bytes 0
//! ```
//!
//! `excluded -` means no device missed the deadline. The dataset/config
//! fixture is regenerated from `--seed` (see `fedsc::demo`), so the server
//! and its `fedsc-device` peers agree on every parameter without sharing
//! state.
//!
//! Observability: `--trace-out <path>` records structured spans for the
//! round and writes them as Chrome `trace_event` JSON (load in Perfetto or
//! `chrome://tracing`); `--metrics-out <path>` writes the flat
//! `fedsc_obs` metrics snapshot (wire/transport counters) as JSON.
//!
//! Fleet telemetry: with `--telemetry` the server absorbs the in-band
//! envelopes its children attached (`--telemetry` on `fedsc-device` /
//! `fedsc-agg`). `--fleet-trace-out <path>` writes ONE merged Chrome
//! trace with a `pid` lane per process, all timestamps in this root's
//! clock; `--fleet-metrics-out <path>` writes the fleet-wide merged
//! metrics snapshot. `envelope_bytes` in the summary is the exact uplink
//! payload overhead the telemetry added (always 0 when children ship
//! nothing).

mod common;

use common::{write, Common, Flags};
use fedsc::server_round;
use fedsc_obs::FleetCollector;
use fedsc_transport::{ServerTransport, TcpOptions, TcpServer};
use std::io::Write;
use std::net::SocketAddr;
use std::process::ExitCode;

const USAGE: &str = "usage: fedsc-server [--addr 127.0.0.1:0] [--devices 12] \
[--clusters 3] [--seed 1] [--quorum N] [--deadline-ms 300000] [--hier] [--telemetry] \
[--trace-out trace.json] [--metrics-out metrics.json] \
[--fleet-trace-out fleet.json] [--fleet-metrics-out fleet-metrics.json]";

/// Human-readable lane name for the fleet trace's process metadata.
fn lane_name(pid: u64) -> String {
    match pid {
        1 => "root".to_string(),
        p if p >= 1000 => format!("device-{}", p - 1000),
        p if p >= 100 => format!("agg-{}", p - 100),
        p => format!("proc-{p}"),
    }
}

fn run(flags: &Flags) -> Result<(), String> {
    let common = Common::parse(flags)?;
    let addr: SocketAddr = flags.parsed("--addr", SocketAddr::from(([127, 0, 0, 1], 0)))?;
    let policy = flags.round_policy()?;
    let fleet_trace_out = flags.flag_value("--fleet-trace-out")?;
    let fleet_metrics_out = flags.flag_value("--fleet-metrics-out")?;
    if common.devices == 0 {
        return Err("--devices must be positive".into());
    }
    common.start_tracing();
    // Only the config matters server-side; regenerating the full fixture
    // guarantees it cannot drift from what the device processes use.
    let (_fed, cfg) = common.fixture();
    let mut server =
        TcpServer::bind(addr, TcpOptions::default()).map_err(|e| format!("bind failed: {e}"))?;
    println!("listening {}", server.local_addr());
    // Stdout is block-buffered when piped; the parent is waiting on this
    // line to learn the port.
    std::io::stdout()
        .flush()
        .map_err(|e| format!("stdout flush failed: {e}"))?;

    let mut fleet = FleetCollector::new();
    let excluded = server_round(&mut server, common.devices, &cfg, &policy, Some(&mut fleet))
        .map_err(|e| format!("{e}"))?;
    let stats = server.stats();
    drop(server); // closes links so excluded devices stop waiting
    if excluded.is_empty() {
        println!("excluded -");
    } else {
        let list: Vec<String> = excluded.iter().map(usize::to_string).collect();
        println!("excluded {}", list.join(","));
    }
    println!(
        "uplink_bytes {} downlink_bytes {}",
        stats.bytes_received, stats.bytes_sent
    );
    println!("envelope_bytes {}", fleet.envelope_bytes);

    let events = common.export_local()?;
    if fleet_trace_out.is_none() && fleet_metrics_out.is_none() {
        return Ok(());
    }
    // The root's own lane and registry join the absorbed subtree before
    // the merged exports; timestamps are already in this clock.
    fleet.add_local_events(&events, 1);
    fleet.merge_metrics(&fedsc_obs::metrics::snapshot());
    if let Some(path) = &fleet_trace_out {
        let names: Vec<(u64, String)> = fleet.pids().iter().map(|&p| (p, lane_name(p))).collect();
        write(
            path,
            fedsc_obs::export::fleet_chrome_trace_json(&fleet.spans, &names),
        )?;
    }
    if let Some(path) = &fleet_metrics_out {
        write(path, fedsc_obs::export::metrics_json(&fleet.metrics))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    common::main("fedsc-server", USAGE, run)
}
