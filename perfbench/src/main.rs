//! The repository benchmark. Usually started through `perfbench/run.py`,
//! which builds `pvplan` and this binary from source first:
//!
//! ```text
//! perfbench --workload table1_paper|route_warm --seed N
//!           --seconds S --trace 0|1 --pvplan PATH [--commit ID]
//! ```
//!
//! It prints one line per measurement, a `host:` line, and as its last
//! line a JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. It exits 1 when any correctness check failed and 2 on bad
//! arguments.

mod fleet;
mod report;
mod serving;
mod stats;
mod table1;

use std::path::PathBuf;

const WORKLOADS: [&str; 2] = ["table1_paper", "route_warm"];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    pvplan: Option<PathBuf>,
    commit: String,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
        pvplan: None,
        commit: "unknown".to_string(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| -> Result<u64, String> {
            v.parse()
                .map_err(|_| format!("{flag} expects a whole number, got '{v}'"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = number(value)?,
            "--seconds" => parsed.seconds = number(value)?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got '{other}'")),
                }
            }
            "--pvplan" => parsed.pvplan = Some(PathBuf::from(value)),
            "--commit" => parsed.commit = value.clone(),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload expects one of {WORKLOADS:?}, got '{}'",
            parsed.workload
        ));
    }
    if !(1..=600).contains(&parsed.seconds) {
        return Err("--seconds expects 1..=600".into());
    }
    if parsed.workload != "table1_paper" && parsed.pvplan.is_none() {
        return Err("the serving workload needs --pvplan PATH".into());
    }
    Ok(parsed)
}

/// CPUs online on the host, read from `/sys/devices/system/cpu/online`
/// (e.g. `0-1`). Unlike `available_parallelism`, it ignores the CPU
/// affinity the serving workload runs under, so the fleet gets as many
/// workers as the host has cores whether or not the run is pinned.
fn online_cpus() -> Option<usize> {
    let list = std::fs::read_to_string("/sys/devices/system/cpu/online").ok()?;
    let mut count = 0;
    for range in list.trim().split(',') {
        count += match range.split_once('-') {
            Some((lo, hi)) => hi.parse::<usize>().ok()? + 1 - lo.parse::<usize>().ok()?,
            None => {
                range.parse::<usize>().ok()?;
                1
            }
        };
    }
    (count > 0).then_some(count)
}

/// The CPUs this process may run on, as `/proc/self/status` lists them.
fn cpus_allowed() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|l| l.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host record every result carries.
fn host_line(args: &Args, threads: usize) -> String {
    pv_json::ObjectBuilder::new()
        .field("nproc", threads)
        .field("cpus_allowed", cpus_allowed())
        .field("simd_active", pv_gis::lanes::simd_active())
        .field(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .field("features", "default")
        .field("threads", threads)
        .field(
            "shards",
            if args.workload == "table1_paper" {
                0
            } else {
                serving::SHARDS
            },
        )
        .field(
            "clients",
            if args.workload == "table1_paper" {
                0
            } else {
                serving::CLIENTS
            },
        )
        .field("commit", args.commit.as_str())
        .field("workload", args.workload.as_str())
        .field("seed", args.seed.to_string())
        .field("seconds", args.seconds as f64)
        .field("trace", args.trace)
        .build()
        .to_json_string()
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("Error: {e}");
            std::process::exit(2);
        }
    };
    let threads = online_cpus()
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get));
    let mut outcome = match args.workload.as_str() {
        "table1_paper" => table1::run(args.seconds, args.trace, threads),
        _ => {
            let pvplan = args.pvplan.as_deref().expect("checked by parse_args");
            serving::run(args.seed, args.seconds, args.trace, threads, pvplan)
        }
    };
    // Assembling the result line may record failures of its own, so the
    // summary comes after it.
    let result = outcome.result_line();
    for line in outcome.summary() {
        println!("{line}");
    }
    println!("host: {}", host_line(&args, threads));
    println!("{result}");
    if !outcome.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn parses_the_run_flags() {
        let args = parse_args(&strings(&[
            "--workload",
            "route_warm",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
            "--pvplan",
            "p",
        ]))
        .expect("valid");
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10, true));
    }

    #[test]
    fn rejects_bad_flags() {
        for (args, needle) in [
            (vec!["--workload", "nope", "--seconds", "1"], "--workload"),
            (
                vec!["--workload", "table1_paper", "--seconds", "0"],
                "--seconds",
            ),
            (
                vec!["--workload", "route_warm", "--seconds", "5"],
                "--pvplan",
            ),
            (vec!["--trace", "2"], "--trace"),
            (vec!["--seed"], "needs a value"),
        ] {
            let err = parse_args(&strings(&args)).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
    }
}
