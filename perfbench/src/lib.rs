//! End-to-end and per-layer benchmark of the rtise design flow.
//!
//! Four workloads, each a closed loop timed for a fixed number of
//! seconds: `query` (a `serve --stdin` child), `tcp` (a `serve --listen`
//! child over two connections), `harvest` (thorough curve harvest of the
//! kernel suite) and `partition` (exhaustive, greedy and iterative
//! reconfiguration partitioning). Every output is certified with
//! `rtise-check`. The CPU-bound workloads sample the host's speed between
//! ops and report their timings scaled to a reference speed (see
//! [`host`]). A traced run times the benchmark's own calls into each
//! layer's public functions instead of reporting end-to-end figures.

pub mod census;
pub mod child;
pub mod gen;
pub mod harvest;
pub mod host;
pub mod partition;
pub mod report;
pub mod serve_wl;
pub mod stats;
pub mod trace;

use std::path::PathBuf;
use std::time::Instant;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// The `serve` binary for `query` and `tcp`.
    pub serve_bin: PathBuf,
    /// Where traced runs write their recordings.
    pub out_dir: PathBuf,
    /// Start of `main`, for the first set-up time.
    pub started: Instant,
}

/// The set-up times of a run, whose median is `setup_s`.
///
/// The first set-up readies the timed phase and is counted from the
/// start of `main` ([`Args::started`]); the later repeats time the set-up
/// alone, so neither includes creating and loading the process. The
/// host's speed drifts from one second to the next, and a burst of
/// back-to-back repeats would all sample one moment of it, so the later
/// repeats are spread over the timed phase, between op batches;
/// [`Setups::paused_s`] is their share of the phase's wall time.
pub struct Setups {
    times: Vec<f64>,
    want: usize,
    paused_s: f64,
}

impl Setups {
    /// Runs the first set-up; `want` set-ups are taken in all.
    ///
    /// # Errors
    ///
    /// The set-up's error.
    pub fn first<T>(
        args: &Args,
        want: usize,
        setup: impl FnOnce() -> Result<T, String>,
    ) -> Result<(T, Setups), String> {
        let kept = setup()?;
        let setups = Setups {
            times: vec![args.started.elapsed().as_secs_f64()],
            want,
            paused_s: 0.0,
        };
        Ok((kept, setups))
    }

    /// Runs up to `repeats` more set-ups while fewer than the wanted
    /// number were taken, timing each and dropping its result untimed.
    ///
    /// # Errors
    ///
    /// The first failing set-up's error.
    pub fn between<T>(
        &mut self,
        repeats: usize,
        mut setup: impl FnMut() -> Result<T, String>,
    ) -> Result<(), String> {
        let paused = Instant::now();
        for _ in 0..repeats.min(self.want.saturating_sub(self.times.len())) {
            let t0 = Instant::now();
            let made = setup()?;
            self.times.push(t0.elapsed().as_secs_f64());
            drop(made);
        }
        self.paused_s += paused.elapsed().as_secs_f64();
        Ok(())
    }

    /// Every set-up time taken, seconds.
    #[must_use]
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Wall time spent in [`Setups::between`], seconds.
    #[must_use]
    pub fn paused_s(&self) -> f64 {
        self.paused_s
    }
}

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["query", "tcp", "harvest", "partition"];

/// Runs the named workload.
///
/// # Errors
///
/// Unknown workloads, set-up failures and refused percentiles.
pub fn run(args: &Args) -> Result<stats::RunResult, String> {
    match args.workload.as_str() {
        "query" => serve_wl::query(args),
        "tcp" => serve_wl::tcp(args),
        "harvest" => harvest::run(args),
        "partition" => partition::run(args),
        other => Err(format!(
            "unknown workload {other:?} (supported: {})",
            WORKLOADS.join(", ")
        )),
    }
}
