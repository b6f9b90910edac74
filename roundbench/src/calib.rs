//! Host-speed probe: a fixed computation in the benchmark's own code, timed
//! between rounds, by which round and set-up times are scaled to a
//! reference host speed.
//!
//! A shared host's speed drifts: on a 2-vCPU VM the same round took 2.3 s
//! and 3.7 s a minute apart. Round by round, the probe's time followed the
//! round's (correlation 0.62–0.84), and scaling each round by the probe
//! read around it cut the run-to-run spread of `round_s` by a third to a
//! half on the two flat workloads (README.md). The probe uses none of the
//! library's code, so a change to the library moves a scaled time exactly
//! as it moves wall time.

use std::time::Instant;

/// What one probe takes on a host of reference speed, in seconds. A
/// scaled time is wall time × `REFERENCE_S` / the probe's time around it.
pub const REFERENCE_S: f64 = 0.010;

/// Order of the probe's matrix: 480 × 480 f64 is 1.8 MB, the size of a
/// `big_devices` device's Gram matrix.
const N: usize = 480;
/// Matrix-vector products per probe.
const MATVECS: usize = 32;
/// Steps of the dependent multiply-add chain per probe.
const CHAIN: usize = 2_000_000;
/// Probe repetitions per reading; the reading is the fastest.
const REPS: usize = 3;

pub struct Probe {
    a: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
    c: f64,
}

impl Probe {
    pub fn new() -> Self {
        // A fixed symmetric matrix, the same on every host and seed.
        let mut a = vec![0.0; N * N];
        for i in 0..N {
            for j in 0..N {
                let diag = if i == j { 2.0 } else { 0.0 };
                a[i * N + j] = 1.0 / (1.0 + i.abs_diff(j) as f64) + diag;
            }
        }
        Probe {
            a,
            x: vec![1.0; N],
            y: vec![0.0; N],
            c: 1.0,
        }
    }

    /// The probe's time now, in seconds: the fastest of `REPS` runs of
    /// power-iteration products over the matrix (the streaming access of
    /// Lasso sweeps and the dense eigensolver) followed by a dependent
    /// multiply-add chain (core speed alone).
    pub fn read(&mut self) -> f64 {
        (0..REPS).map(|_| self.once()).fold(f64::MAX, f64::min)
    }

    fn once(&mut self) -> f64 {
        let start = Instant::now();
        for _ in 0..MATVECS {
            for (i, y) in self.y.iter_mut().enumerate() {
                let row = &self.a[i * N..(i + 1) * N];
                *y = row.iter().zip(&self.x).map(|(a, x)| a * x).sum();
            }
            let norm = self.y.iter().map(|v| v * v).sum::<f64>().sqrt();
            for (x, y) in self.x.iter_mut().zip(&self.y) {
                *x = y / norm;
            }
        }
        let mut c = self.c;
        for _ in 0..CHAIN {
            c = c * 1.000_000_1 + 1e-12;
        }
        // Keep the chain's result live without letting it grow.
        self.c = 1.0 + std::hint::black_box(c) * 1e-300;
        std::hint::black_box(&self.x);
        start.elapsed().as_secs_f64()
    }

    /// `wall_s` scaled to reference speed, by the mean of the probe
    /// readings taken just before and just after it.
    pub fn scale(wall_s: f64, before: f64, after: f64) -> f64 {
        wall_s * REFERENCE_S / (0.5 * (before + after))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_is_proportional_to_wall_time() {
        assert_eq!(Probe::scale(2.0, REFERENCE_S, REFERENCE_S), 2.0);
        assert_eq!(Probe::scale(2.0, 2.0 * REFERENCE_S, 2.0 * REFERENCE_S), 1.0);
    }
}
