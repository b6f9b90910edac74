//! Device endpoint for a real-process Fed-SC round over TCP.
//!
//! Regenerates the shared fixture from `--seed` (see `fedsc::demo`), takes
//! shard `--device z`, runs Algorithm 2 locally, uploads the samples to
//! the `fedsc-server` at `--addr`, awaits its assignments, and prints the
//! relabelled shard:
//!
//! ```text
//! device 4 predictions 0,0,2,1,0,2
//! ```
//!
//! Exits nonzero if the server excludes this device (no downlink ever
//! arrives) or the link fails beyond the retry budget.
//!
//! Observability: `--trace-out <path>` records this device's spans (local
//! SSC phases plus the wire round) as Chrome `trace_event` JSON;
//! `--metrics-out <path>` writes the flat `fedsc_obs` metrics snapshot.
//!
//! Fleet telemetry: with `--telemetry` the device estimates its clock
//! offset to the server (timed handshake), then ships its completed
//! spans and metrics snapshot **in-band** on the uplink, shifted into
//! the server's clock, under process lane `1000 + --device`. `--link-id`
//! is this endpoint's child index on the link it dials (defaults to
//! `--device`; they differ when dialing a `fedsc-agg` mid-tier), and
//! `--parent` names that parent node in the trace context.

mod common;

use common::{Common, Flags};
use fedsc::{device_round, RoundPolicy, WireTelemetry};
use fedsc_obs::TraceContext;
use fedsc_transport::{TcpDevice, TcpOptions};
use std::net::SocketAddr;
use std::process::ExitCode;

const USAGE: &str = "usage: fedsc-device --addr HOST:PORT --device Z \
[--link-id N] [--parent P] [--devices 12] [--clusters 3] [--seed 1] \
[--hier] [--telemetry] [--trace-out trace.json] [--metrics-out metrics.json]";

fn run(flags: &Flags) -> Result<(), String> {
    let common = Common::parse(flags)?;
    let addr: SocketAddr = flags.required("--addr")?;
    let device: usize = flags.required("--device")?;
    // This endpoint's child index on the link it dials.
    let link_id: usize = flags.optional("--link-id")?.unwrap_or(device);
    let parent: u64 = flags.parsed("--parent", 0)?;
    if device >= common.devices {
        return Err(format!(
            "--device {device} out of range for --devices {}",
            common.devices
        ));
    }
    common.start_tracing();
    let (fed, cfg) = common.fixture();
    let pid = 1000 + device as u64;
    let telemetry = WireTelemetry {
        ctx: common.telemetry.then_some(TraceContext {
            run_id: common.seed,
            round: 0,
            tier: 0,
            node: link_id as u64,
            parent,
            pid,
            parent_span: 0,
        }),
        ship: common.telemetry,
        pid,
    };
    let mut link = TcpDevice::new(addr, link_id, TcpOptions::default());
    let predictions = device_round(
        &fed.devices[device].data,
        device,
        &cfg,
        &mut link,
        &RoundPolicy::default(),
        &telemetry,
    )
    .map_err(|e| format!("{e}"))?;
    let list: Vec<String> = predictions.iter().map(usize::to_string).collect();
    println!("device {device} predictions {}", list.join(","));
    common.export_local()?;
    Ok(())
}

fn main() -> ExitCode {
    common::main("fedsc-device", USAGE, run)
}
