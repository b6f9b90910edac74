//! Argument parsing, fixture choice and local observability export shared
//! by the `fedsc-server`, `fedsc-device` and `fedsc-agg` endpoints. Each
//! binary is its flags, one role and a TCP endpoint; everything else lives
//! here.

// Each binary compiles its own copy of this module and uses a subset of it
// (`fedsc-server` has no required flag, `fedsc-device` no round policy).
#![allow(dead_code)]

use fedsc::demo::{demo_fixture, demo_hier_fixture};
use fedsc::{FedScConfig, RoundPolicy};
use fedsc_federated::partition::FederatedDataset;
use fedsc_obs::SpanEvent;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

/// The command line of one endpoint, with its usage text for errors.
pub struct Flags {
    args: Vec<String>,
    usage: &'static str,
}

impl Flags {
    /// The value following flag `name`, if the flag is present.
    pub fn flag_value(&self, name: &str) -> Result<Option<String>, String> {
        let mut it = self.args.iter();
        while let Some(a) = it.next() {
            if a == name {
                return match it.next() {
                    Some(v) => Ok(Some(v.clone())),
                    None => Err(format!("{name} requires a value\n{}", self.usage)),
                };
            }
        }
        Ok(None)
    }

    /// Flag `name` parsed as `T`, or `None` when absent.
    pub fn optional<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.flag_value(name)?
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("invalid value for {name}: {v}\n{}", self.usage))
            })
            .transpose()
    }

    /// Flag `name` parsed as `T`, or `default` when absent.
    pub fn parsed<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.optional(name)?.unwrap_or(default))
    }

    /// Flag `name` parsed as `T`; absent is an error.
    pub fn required<T: FromStr>(&self, name: &str) -> Result<T, String> {
        self.optional(name)?
            .ok_or(format!("{name} is required\n{}", self.usage))
    }

    /// Whether the value-less switch `name` is present.
    pub fn switch(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    /// The straggler policy from `--quorum` and `--deadline-ms`.
    pub fn round_policy(&self) -> Result<RoundPolicy, String> {
        Ok(RoundPolicy {
            quorum: self.optional("--quorum")?,
            deadline: Duration::from_millis(self.parsed("--deadline-ms", 300_000)?),
            ..RoundPolicy::default()
        })
    }
}

/// The flags every endpoint shares: which fixture to regenerate, and what
/// to record and export locally.
pub struct Common {
    /// `--devices`: fleet size of the fixture.
    pub devices: usize,
    /// `--clusters`: global cluster count `L` of the fixture.
    pub clusters: usize,
    /// `--seed`: fixture and round seed.
    pub seed: u64,
    /// `--hier`: regenerate the aggregation-friendly fixture.
    pub hier: bool,
    /// `--telemetry`: ship or absorb in-band telemetry.
    pub telemetry: bool,
    /// `--trace-out`: where to write this process's Chrome trace.
    pub trace_out: Option<String>,
    /// `--metrics-out`: where to write this process's metrics snapshot.
    pub metrics_out: Option<String>,
}

impl Common {
    /// Parses the shared flags.
    pub fn parse(flags: &Flags) -> Result<Self, String> {
        Ok(Common {
            devices: flags.parsed("--devices", 12)?,
            clusters: flags.parsed("--clusters", 3)?,
            seed: flags.parsed("--seed", 1)?,
            hier: flags.switch("--hier"),
            telemetry: flags.switch("--telemetry"),
            trace_out: flags.flag_value("--trace-out")?,
            metrics_out: flags.flag_value("--metrics-out")?,
        })
    }

    /// Regenerates the fixture every process of the round shares (see
    /// `fedsc::demo`); `--hier` selects the one a fleet with `fedsc-agg`
    /// mid-tiers runs.
    pub fn fixture(&self) -> (FederatedDataset, FedScConfig) {
        let fixture = if self.hier {
            demo_hier_fixture
        } else {
            demo_fixture
        };
        fixture(self.seed, self.devices, self.clusters)
    }

    /// Whether this process records spans: to ship them or to export them.
    fn tracing(&self) -> bool {
        self.telemetry || self.trace_out.is_some()
    }

    /// Installs the span ring when this process records spans.
    pub fn start_tracing(&self) {
        if self.tracing() {
            fedsc_obs::trace::install_ring(1 << 16);
        }
    }

    /// Writes the recorded spans to `--trace-out` and the metrics snapshot
    /// to `--metrics-out`. Returns the spans still in the ring (none when
    /// this process records nothing).
    pub fn export_local(&self) -> Result<Vec<SpanEvent>, String> {
        let events = if self.tracing() {
            fedsc_obs::trace::uninstall()
        } else {
            Vec::new()
        };
        if let Some(path) = &self.trace_out {
            write(path, fedsc_obs::export::chrome_trace_json(&events))?;
        }
        if let Some(path) = &self.metrics_out {
            write(
                path,
                fedsc_obs::export::metrics_json(&fedsc_obs::metrics::snapshot()),
            )?;
        }
        Ok(events)
    }
}

/// Writes one export file.
pub fn write(path: &str, contents: String) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Runs endpoint `name` on this process's arguments, reporting a failure
/// on stderr and in the exit code.
pub fn main(
    name: &str,
    usage: &'static str,
    run: impl FnOnce(&Flags) -> Result<(), String>,
) -> ExitCode {
    let flags = Flags {
        args: std::env::args().skip(1).collect(),
        usage,
    };
    match run(&flags) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{name}: {msg}");
            ExitCode::FAILURE
        }
    }
}
