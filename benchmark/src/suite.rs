//! The whole benchmark in one command: every workload as a child process
//! of its own (so that its peak memory is its own), once untraced and once
//! traced, back to back on one thread, gathered into one results file.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use crate::json::Json;
use crate::run::Budget;

#[derive(Debug, Clone, PartialEq)]
pub struct SuiteArgs {
    pub workloads: Vec<String>,
    pub seed: u64,
    pub budget: Budget,
    pub smoke: bool,
    pub out: PathBuf,
}

pub fn run(args: &SuiteArgs) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this program to start the runs: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = Vec::new();
    let mut workloads = Vec::new();
    for workload in &args.workloads {
        let mut sections = Vec::new();
        for (section, trace) in [("end_to_end", "0"), ("per_layer", "1")] {
            let mut command = Command::new(&exe);
            command.args(["run", "--workload", workload, "--trace", trace]);
            command.args(["--seed", &args.seed.to_string()]);
            match args.budget {
                Budget::Seconds(s) => command.args(["--seconds", &s.to_string()]),
                Budget::Passes(n) => command.args(["--reps", &n.to_string()]),
            };
            if args.smoke {
                command.arg("--smoke");
            }
            let (detail, outcome) = run_child(&mut command);
            sections.extend(detail.map(|detail| (section, detail)));
            if let Err(e) = outcome {
                eprintln!("{workload} --trace {trace}: {e}");
                failed.push(format!("{workload} --trace {trace}"));
            }
        }
        workloads.push((workload.as_str(), Json::obj(sections)));
    }

    let results = Json::obj([
        ("schema", Json::count(1)),
        ("seed", Json::count(args.seed)),
        ("smoke", Json::Bool(args.smoke)),
        (
            "host_threads",
            Json::count(campaign::available_threads() as u64),
        ),
        ("workloads", Json::obj(workloads)),
    ]);
    if let Some(dir) = args.out.parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = std::fs::write(&args.out, results.render_pretty()) {
        eprintln!("cannot write {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    println!("results written to {}", args.out.display());
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("failed runs: {failed:?}");
        ExitCode::FAILURE
    }
}

/// Runs one child to its end and passes on what it printed for people.
/// Returns its detail object (the first JSON line; the result object is the
/// second), and whether the run succeeded.
fn run_child(command: &mut Command) -> (Option<Json>, Result<(), String>) {
    let output = match command
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
    {
        Ok(output) => output,
        Err(e) => return (None, Err(format!("could not start: {e}"))),
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = None;
    for line in stdout.lines() {
        if line.starts_with('{') {
            detail.get_or_insert(line);
        } else {
            println!("{line}");
        }
    }
    let detail = detail.and_then(|line| Json::parse(line).ok());
    let outcome = if !output.status.success() {
        Err(format!("exited with {}", output.status))
    } else if detail.is_none() {
        Err("printed no detail line".to_owned())
    } else {
        Ok(())
    };
    (detail, outcome)
}
