//! `perfbench` — the repository's benchmark: one command, two
//! workloads, end-to-end metrics on the CPU clock and on the paper's
//! virtual clock, and a traced mode that attributes each op's time
//! to the layers it crossed.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload stop_refresh --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Workloads (see README.md for the metric table and why each exists):
//!
//! * `stop_refresh` — a stop, then every one of the 21 open panes
//!   refreshed on the paper's image (cache + plan + incremental).
//! * `serve_churn` — one pane server behind one wire pump; a long-lived
//!   viewer and a churning stream of short-lived clients.
//!
//! Every op's output is checked against a plain session (no cache, no
//! plan, no incremental mode) driven through the same stops. The last
//! line of standard output is one JSON object; the exit code is
//! non-zero when any op or check failed.

mod measure;
mod refresh;
mod report;
mod serve;

use std::process::ExitCode;

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

const USAGE: &str = "usage: perfbench --workload <stop_refresh|serve_churn> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured system time per run.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 25.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Ask glibc's allocator for a single arena, before any thread starts.
/// With one arena per thread, memory freed by another thread than the
/// one that allocated it fragments each arena by timing, and the peak
/// resident set of `serve_churn` varied by a tenth between runs of the
/// same seed; with one arena it repeats to within half a percent.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn single_malloc_arena() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    /// `M_ARENA_MAX` from glibc's `malloc.h`.
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only sets an allocator tunable; it is called
    // before the process starts a second thread.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn single_malloc_arena() {}

fn main() -> ExitCode {
    single_malloc_arena();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "stop_refresh" => refresh::run(&args),
        "serve_churn" => serve::run(&args),
        other => Err(format!("unknown workload `{other}`")),
    };
    match outcome {
        Ok(out) => {
            out.print(args.trace);
            if out.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
