//! Benchmark entry point.
//!
//! ```text
//! perfbench --workload query|tcp|harvest|partition --seed N --seconds S
//!           --trace 0|1 [--serve-bin PATH] [--out-dir DIR]
//! ```
//!
//! Prints human-readable lines, then as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when an
//! output failed certification and 2 on usage or set-up errors (with no
//! result line).

use rtise_perfbench::{run, Args};
use std::path::PathBuf;
use std::time::Instant;

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload <query|tcp|harvest|partition> --seed <n> \
         --seconds <s> --trace <0|1> [--serve-bin <path>] [--out-dir <dir>]"
    );
    std::process::exit(2);
}

fn main() {
    let started = Instant::now();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut serve_bin = PathBuf::from("serve");
    let mut out_dir = PathBuf::from(".bench_out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(val) = it.next() else {
            usage(&format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    val.parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .unwrap_or_else(|| usage("bad --seconds")),
                );
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                };
            }
            "--serve-bin" => serve_bin = PathBuf::from(val),
            "--out-dir" => out_dir = PathBuf::from(val),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let args = Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace,
        serve_bin,
        out_dir,
        started,
    };
    println!(
        "workload {} seed {} seconds {} trace {} (available parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    match run(&args) {
        Ok(res) => {
            println!("{}", res.json().render());
            if res.failed > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
