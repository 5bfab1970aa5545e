//! `compare <a.json> <b.json>`: holds two results files of the suite
//! against the bounds in `BENCHMARK.json`, one verdict per workload and
//! end-to-end metric, and lists the per-layer counts that differ.

use std::path::Path;
use std::process::ExitCode;

use crate::json::Json;
use crate::summary::Summary;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread is wider than the bound, and the two sets of
    /// runs overlap: nothing can be said.
    Unresolved,
}

/// Compares `b` (the change) with `a` (the parent) for a metric that may
/// worsen by `bound`, a share of `a`'s median.
///
/// Within the bound the verdict is `Same`, or `Better` when the medians
/// also differ by more than the spread. When the spread (the wider of the
/// two interquartile ranges, as a share of the median) exceeds the bound,
/// only sets of runs that do not overlap at all are told apart.
pub fn verdict(a: &Summary, b: &Summary, lower_is_better: bool, bound: f64) -> Verdict {
    // Orient both so that a larger value is worse.
    let orient = |s: &Summary| {
        if lower_is_better {
            (s.min, s.median, s.max)
        } else {
            (-s.max, -s.median, -s.min)
        }
    };
    let ((a_min, a_median, a_max), (b_min, b_median, b_max)) = (orient(a), orient(b));
    let worsening = if a_median == 0.0 {
        0.0
    } else {
        (b_median - a_median) / a_median.abs()
    };
    let spread = a.spread().max(b.spread());
    if spread > bound {
        if b_max < a_min {
            Verdict::Better
        } else if b_min > a_max && worsening > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if worsening > bound {
        Verdict::Worse
    } else if worsening < 0.0 && -worsening > spread {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn summary(metric: &Json) -> Option<Summary> {
    let field = |name: &str| metric.get(name).and_then(Json::as_f64);
    Some(Summary {
        n: field("n")? as usize,
        min: field("min")?,
        q1: field("q1")?,
        median: field("median")?,
        q3: field("q3")?,
        max: field("max")?,
    })
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn metric<'a>(results: &'a Json, workload: &str, section: &str, name: &str) -> Option<&'a Json> {
    results
        .get("workloads")?
        .get(workload)?
        .get(section)?
        .get("metrics")?
        .get(name)
}

pub fn run(a_path: &Path, b_path: &Path, benchmark_json: &Path) -> ExitCode {
    let loaded = load(a_path).and_then(|a| Ok((a, load(b_path)?, load(benchmark_json)?)));
    let (a, b, benchmark) = match loaded {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let setting = |results: &Json, key: &str| results.get(key).map(Json::render);
    for key in ["seed", "smoke"] {
        if setting(&a, key) != setting(&b, key) {
            println!(
                "the two files differ in {key} ({:?} and {:?}): their numbers are not comparable",
                setting(&a, key),
                setting(&b, key)
            );
        }
    }
    let mut worse = 0;
    let workloads = a.get("workloads").map_or(&[][..], Json::members);
    for (workload, sections) in workloads {
        if b.get("workloads").and_then(|w| w.get(workload)).is_none() {
            println!("{workload:<16} only in {}: skipped", a_path.display());
            continue;
        }
        for bounded in benchmark.get("end_to_end").map_or(&[][..], Json::items) {
            let (Some(name), Some(better), Some(bound)) = (
                bounded.get("name").and_then(Json::as_str),
                bounded.get("better").and_then(Json::as_str),
                bounded.get("bound").and_then(Json::as_f64),
            ) else {
                eprintln!("{}: malformed end_to_end entry", benchmark_json.display());
                return ExitCode::from(2);
            };
            let sides = (
                metric(&a, workload, "end_to_end", name).and_then(summary),
                metric(&b, workload, "end_to_end", name).and_then(summary),
            );
            let (Some(sa), Some(sb)) = sides else {
                println!("{workload:<16} {name:<16} missing from one side");
                worse += 1;
                continue;
            };
            let v = verdict(&sa, &sb, better == "lower", bound);
            worse += usize::from(v == Verdict::Worse);
            println!(
                "{workload:<16} {name:<16} {:<10} {:>12.6} -> {:>12.6} ({:+.2} %, spread {:.2} % / {:.2} %, bound {:.0} %)",
                format!("{v:?}").to_lowercase(),
                sa.median,
                sb.median,
                100.0 * (sb.median - sa.median) / sa.median.abs().max(f64::MIN_POSITIVE),
                100.0 * sa.spread(),
                100.0 * sb.spread(),
                100.0 * bound,
            );
        }
        // Counts repeat exactly on one commit; between two they show what
        // a change did to the work itself.
        let layers = sections
            .get("per_layer")
            .and_then(|s| s.get("metrics"))
            .map_or(&[][..], Json::members);
        for (name, value) in layers {
            if value.get("unit").and_then(Json::as_str) != Some("count") {
                continue;
            }
            let (va, vb) = (
                value.get("median").and_then(Json::as_f64),
                metric(&b, workload, "per_layer", name)
                    .and_then(|m| m.get("median"))
                    .and_then(Json::as_f64),
            );
            if va != vb {
                println!("{workload:<16} {name:<40} count differs: {va:?} -> {vb:?}");
            }
        }
        let fingerprint = |results: &Json| {
            results
                .get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get("end_to_end"))
                .and_then(|s| s.get("fingerprint"))
                .and_then(Json::as_str)
                .map(str::to_owned)
        };
        if fingerprint(&a) != fingerprint(&b) {
            println!(
                "{workload:<16} simulated outcome differs: fingerprint {:?} -> {:?}",
                fingerprint(&a),
                fingerprint(&b)
            );
        }
    }
    if worse > 0 {
        eprintln!("{worse} metric(s) worse than the bound allows");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(median: f64, half_range: f64) -> Summary {
        Summary::of(&[
            median - half_range,
            median - half_range / 2.0,
            median,
            median + half_range / 2.0,
            median + half_range,
        ])
    }

    #[test]
    fn a_change_within_the_bound_is_the_same_and_beyond_it_worse_or_better() {
        let parent = around(10.0, 0.1);
        assert_eq!(
            verdict(&parent, &around(10.3, 0.1), true, 0.08),
            Verdict::Same
        );
        assert_eq!(
            verdict(&parent, &around(11.0, 0.1), true, 0.08),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&parent, &around(9.0, 0.1), true, 0.08),
            Verdict::Better
        );
        // A gain smaller than the spread is not told apart from noise.
        assert_eq!(
            verdict(&parent, &around(9.99, 0.1), true, 0.08),
            Verdict::Same
        );
    }

    #[test]
    fn direction_follows_the_metric() {
        let parent = around(0.90, 0.0);
        assert_eq!(
            verdict(&parent, &around(0.80, 0.0), false, 0.05),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&parent, &around(0.95, 0.0), false, 0.10),
            Verdict::Better
        );
        assert_eq!(
            verdict(&parent, &around(0.90, 0.0), false, 0.05),
            Verdict::Same
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_the_runs_do_not_overlap() {
        let noisy = around(10.0, 2.0); // quartiles 8.5 .. 11.5: spread 30 %
        assert_eq!(
            verdict(&noisy, &around(10.5, 2.0), true, 0.08),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &around(5.0, 2.0), true, 0.08),
            Verdict::Better
        );
        assert_eq!(
            verdict(&noisy, &around(15.0, 2.0), true, 0.08),
            Verdict::Worse
        );
    }

    #[test]
    fn summaries_read_back_from_a_results_file() {
        let s = around(3.0, 1.0);
        let doc = Json::parse(&format!(
            "{{\"unit\":\"s\",\"median\":{},\"min\":{},\"q1\":{},\"q3\":{},\"max\":{},\"n\":{}}}",
            s.median, s.min, s.q1, s.q3, s.max, s.n
        ))
        .expect("valid");
        assert_eq!(summary(&doc), Some(s));
        assert_eq!(summary(&Json::obj([("median", Json::Num(1.0))])), None);
    }
}
