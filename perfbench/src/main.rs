//! `perfbench`: the benchmark every performance claim about this repository
//! is measured with.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold_translate|zipf_logged|restart_100x> --seed <n> \
//!     --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it replays the same generated inputs through each layer's
//! public calls and reports per-layer metrics only.  The last line of
//! standard output is the JSON result; the lines above it are the same
//! figures for people, with their sample counts.  `--smoke` shrinks every
//! workload to a few seconds with every check still on.  The process exits
//! non-zero when any output check failed.

mod common;
mod memfs;
mod stack;
mod traced;
mod workloads;

use common::Outcome;
use workloads::Plan;

const WORKLOADS: [&str; 3] = ["cold_translate", "zipf_logged", "restart_100x"];

struct Args {
    workload: String,
    plan: Plan,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20u64;
    let mut trace = false;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? != "0",
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        plan: Plan {
            seed,
            seconds: seconds.max(1),
            smoke,
        },
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = Outcome::default();
    // A fixed CPU-only loop before the workload: it tells a slow phase of
    // the host from a regression and is never used to judge a change.
    let spin_ms = common::host_spin_ms();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    out.note(format!("available parallelism {cores}"));
    out.note(format!("host.spin_ms {spin_ms:.1}"));
    match (args.workload.as_str(), args.trace) {
        ("cold_translate", false) => workloads::cold_translate(&args.plan, &mut out),
        ("zipf_logged", false) => workloads::zipf_logged(&args.plan, &mut out),
        ("restart_100x", false) => workloads::restart_100x(&args.plan, &mut out),
        (workload, true) => traced::run(workload, &args.plan, spin_ms, &mut out),
        _ => unreachable!("workload names are validated"),
    }

    println!(
        "{} seed={} trace={} attempted={} failed={}",
        args.workload,
        args.plan.seed,
        u8::from(args.trace),
        out.attempted,
        out.failed
    );
    for note in &out.notes {
        println!("  {note}");
    }
    for m in &out.metrics {
        println!(
            "  {:<32} {:>16.6} {:<8} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for failure in &out.failures {
        eprintln!("perfbench: CHECK FAILED: {failure}");
    }
    println!("{}", out.json());
    if out.failed > 0 {
        std::process::exit(1);
    }
}
