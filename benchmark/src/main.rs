//! The repository's benchmark: six workloads over the whole MANETKit
//! stack, four end-to-end metrics and a per-layer ledger, all measured from
//! outside through public functions. See `benchmark/README.md`.
//!
//! ```text
//! manetkit-benchmark [suite] [--workload W].. [--seed S] [--seconds T | --reps N] [--smoke] [--out FILE]
//! manetkit-benchmark run --workload W --seed S --seconds T --trace 0|1 [--reps N] [--smoke]
//! manetkit-benchmark compare A.json B.json [--benchmark BENCHMARK.json]
//! ```

mod alloc;
mod checks;
mod compare;
mod json;
mod metrics;
mod micro;
mod run;
mod sim;
mod spans;
mod suite;
mod summary;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use run::{Budget, RunArgs};
use suite::SuiteArgs;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Seconds one run measures unless told otherwise (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;

#[derive(Debug, PartialEq)]
enum Invocation {
    Run(RunArgs),
    Suite(SuiteArgs),
    Compare {
        a: PathBuf,
        b: PathBuf,
        benchmark: PathBuf,
    },
}

fn parse(args: &[String]) -> Result<Invocation, String> {
    let (mode, rest) = match args.first().map(String::as_str) {
        Some(mode @ ("run" | "suite" | "compare")) => (mode, &args[1..]),
        _ => ("suite", args),
    };
    let mut workloads = Vec::new();
    let mut files = Vec::new();
    let mut seed = 1;
    let mut seconds = None;
    let mut reps = None;
    let mut trace = None;
    let mut smoke = false;
    let mut out = PathBuf::from(run::OUT_DIR).join("results.json");
    let mut benchmark = PathBuf::from("BENCHMARK.json");

    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{arg} needs a value"))
                .map(String::as_str)
        };
        fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: {text:?} is not a valid number"))
        }
        match arg.as_str() {
            "--workload" => workloads.push(value()?.to_owned()),
            "--seed" => seed = number(arg, value()?)?,
            "--seconds" => seconds = Some(number::<f64>(arg, value()?)?),
            "--reps" => reps = Some(number::<usize>(arg, value()?)?),
            "--trace" => {
                trace = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--smoke" => smoke = true,
            "--out" => out = PathBuf::from(value()?),
            "--benchmark" => benchmark = PathBuf::from(value()?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            file => files.push(PathBuf::from(file)),
        }
    }
    if seconds.is_some_and(|s| !(s > 0.0 && s <= 3600.0)) {
        return Err("--seconds takes a positive number of seconds".into());
    }
    if reps == Some(0) {
        return Err("--reps takes at least 1".into());
    }
    // A smoke run makes one pass unless told otherwise.
    let budget = match (reps, seconds) {
        (Some(n), _) => Budget::Passes(n),
        (None, Some(s)) => Budget::Seconds(s),
        (None, None) if smoke => Budget::Passes(1),
        (None, None) => Budget::Seconds(DEFAULT_SECONDS),
    };
    if let Some(unknown) = workloads
        .iter()
        .find(|w| !workloads::NAMES.contains(&w.as_str()))
    {
        return Err(format!(
            "unknown workload {unknown:?}; the workloads are {:?}",
            workloads::NAMES
        ));
    }

    match (mode, files.as_slice()) {
        ("compare", [a, b]) => Ok(Invocation::Compare {
            a: a.clone(),
            b: b.clone(),
            benchmark,
        }),
        ("compare", _) => Err("compare takes two results files".into()),
        (_, [stray, ..]) => Err(format!("unexpected argument {}", stray.display())),
        ("run", []) => match (workloads.as_slice(), trace) {
            ([workload], Some(trace)) => Ok(Invocation::Run(RunArgs {
                workload: workload.clone(),
                seed,
                budget,
                trace,
                smoke,
            })),
            _ => Err("run takes exactly one --workload and --trace 0 or 1".into()),
        },
        _ => Ok(Invocation::Suite(SuiteArgs {
            workloads: if workloads.is_empty() {
                workloads::NAMES.map(String::from).to_vec()
            } else {
                workloads
            },
            seed,
            budget,
            smoke,
            out,
        })),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Invocation::Run(args)) => run::run(&args),
        Ok(Invocation::Suite(args)) => suite::run(&args),
        Ok(Invocation::Compare { a, b, benchmark }) => compare::run(&a, &b, &benchmark),
        Err(e) => {
            eprintln!("{e}\nsee benchmark/README.md for the command line");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::metrics::{END_TO_END, PER_LAYER};

    fn parse_line(line: &str) -> Result<Invocation, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn the_drivers_command_line_is_one_run() {
        let parsed = parse_line("run --workload mesh_dymo --seed 7 --seconds 20 --trace 1");
        assert_eq!(
            parsed,
            Ok(Invocation::Run(RunArgs {
                workload: "mesh_dymo".into(),
                seed: 7,
                budget: Budget::Seconds(20.0),
                trace: true,
                smoke: false,
            }))
        );
    }

    #[test]
    fn no_arguments_run_the_whole_suite_and_smoke_makes_one_pass() {
        let Ok(Invocation::Suite(suite)) = parse_line("") else {
            panic!("no arguments is the suite");
        };
        assert_eq!(suite.workloads, workloads::NAMES);
        assert_eq!(
            (suite.seed, suite.budget),
            (1, Budget::Seconds(DEFAULT_SECONDS))
        );
        let Ok(Invocation::Suite(smoke)) = parse_line("--smoke --workload phy_air --seed 2") else {
            panic!("flags alone are the suite");
        };
        assert_eq!(smoke.workloads, ["phy_air"]);
        assert_eq!(
            (smoke.seed, smoke.budget, smoke.smoke),
            (2, Budget::Passes(1), true)
        );
        let Ok(Invocation::Suite(reps)) = parse_line("suite --reps 3 --seconds 9") else {
            panic!("suite is the suite");
        };
        assert_eq!(reps.budget, Budget::Passes(3), "--reps wins over --seconds");
    }

    #[test]
    fn malformed_command_lines_are_refused() {
        for bad in [
            "run --workload mesh_dymo",
            "run --trace 0",
            "run --workload nope --trace 0",
            "run --workload phy_air --trace 2",
            "run --workload phy_air --trace 0 --seed x",
            "run --workload phy_air --trace 0 --seconds 0",
            "run --workload phy_air --trace 0 --reps 0",
            "run --workload phy_air --trace 0 --seconds",
            "compare a.json",
            "suite stray",
            "--frobnicate",
        ] {
            assert!(parse_line(bad).is_err(), "accepted {bad:?}");
        }
        assert!(matches!(
            parse_line("compare a.json b.json"),
            Ok(Invocation::Compare { .. })
        ));
    }

    /// `BENCHMARK.json` is what the driver and `compare` read; the tables
    /// in `metrics.rs` are what the program prints. They must agree.
    #[test]
    fn benchmark_json_lists_exactly_what_the_program_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json is JSON");
        let listed = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .map_or(&[][..], Json::items)
                .iter()
                .filter_map(|entry| entry.get(field).and_then(Json::as_str))
                .map(str::to_owned)
                .collect()
        };
        let pairs = |table: &[(&str, &str)]| -> (Vec<String>, Vec<String>) {
            table
                .iter()
                .map(|(name, unit)| (name.to_string(), unit.to_string()))
                .unzip()
        };
        assert_eq!(listed("workloads", "name"), workloads::NAMES);
        assert_eq!(
            (listed("end_to_end", "name"), listed("end_to_end", "unit")),
            pairs(&END_TO_END)
        );
        assert_eq!(
            (listed("per_layer", "name"), listed("per_layer", "unit")),
            pairs(&PER_LAYER)
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }
}
