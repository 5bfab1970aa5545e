//! One run of one workload, as the benchmark's contract defines it:
//! untraced, it repeats the workload for the time budget and reports the
//! end-to-end metrics; traced, it reports the per-layer ledger. The last
//! line of standard output is the result object.

use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use netsim::PhyModel;

use crate::checks::Checks;
use crate::json::Json;
use crate::metrics::{ratio, Ledger, END_TO_END, PER_LAYER};
use crate::micro::{self, Scale};
use crate::sim::{self, Agents, SimSpec};
use crate::spans::{AgentMeter, Tracer};
use crate::summary::Summary;
use crate::workloads::{self, McheckSpec, Workload};

/// When an untraced run stops repeating its workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// After as many passes as fit in this many seconds, and at least
    /// [`MIN_PASSES`].
    Seconds(f64),
    /// After exactly this many passes.
    Passes(usize),
}

/// Fewest passes a time-budgeted run makes, however slow the host: the
/// reported time is a median, and a pass is compared with the first.
const MIN_PASSES: usize = 3;

/// After every pass the set-up alone is repeated for this many seconds, so
/// that a millisecond set-up is still a median of hundreds, taken all along
/// the run and not in one stretch that a busy host could slow as a whole.
const SETUP_SLICE_S: f64 = 0.2;
const MAX_SETUPS_PER_SLICE: usize = 2_000;

#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub budget: Budget,
    pub trace: bool,
    pub smoke: bool,
}

/// What one pass hands back to the loop that repeats it.
struct Pass<R> {
    wall_s: f64,
    setup_s: f64,
    delivery_ratio: f64,
    fingerprint: String,
    /// What later passes are compared with.
    reference: R,
}

pub fn run(args: &RunArgs) -> ExitCode {
    let Some(workload) = workloads::build(&args.workload, args.seed, args.smoke) else {
        eprintln!(
            "unknown workload {:?}; the workloads are {:?}",
            args.workload,
            workloads::NAMES
        );
        return ExitCode::from(2);
    };
    let mut checks = Checks::default();
    let (metrics, fingerprint) = match (&workload, args.trace) {
        (Workload::Sim(spec), false) => measure(
            args.budget,
            &mut checks,
            |reference, checks| {
                let run = sim::checked_pass(spec, &mut Tracer::off(), None, reference, checks)?;
                Some(Pass {
                    wall_s: run.wall_s,
                    setup_s: run.setup_s,
                    delivery_ratio: run.window.delivery_ratio(),
                    fingerprint: sim::fingerprint(&run.window),
                    reference: run.window,
                })
            },
            || drop(black_box(sim::set_up(spec, &mut Tracer::off(), None))),
        ),
        (Workload::Mcheck(spec), false) => measure(
            args.budget,
            &mut checks,
            |reference, checks| {
                let run = spec.checked_pass(&mut Tracer::off(), reference, checks)?;
                Some(Pass {
                    wall_s: run.wall_s,
                    setup_s: run.setup_s,
                    delivery_ratio: workloads::invariants_held_ratio(&run.report),
                    fingerprint: workloads::mcheck_fingerprint(&run.report),
                    reference: run.report,
                })
            },
            || spec.set_up(),
        ),
        (Workload::Sim(spec), true) => trace_sim(args, spec, &mut checks),
        (Workload::Mcheck(spec), true) => trace_mcheck(args, spec, &mut checks),
    };
    report(args, &checks, &metrics, &fingerprint)
}

type Metrics = Vec<(&'static str, &'static str, Summary)>;

/// Repeats `pass` for the budget, each time followed by a slice of `set_up`
/// alone, and summarises the end-to-end metrics.
fn measure<R>(
    budget: Budget,
    checks: &mut Checks,
    mut pass: impl FnMut(Option<&R>, &mut Checks) -> Option<Pass<R>>,
    mut set_up: impl FnMut(),
) -> (Metrics, String) {
    let started = Instant::now();
    // The first pass, which the others must repeat, with the high-water
    // resident set right after it: one pass's own footprint, whatever number
    // of passes and set-ups the time budget then allows.
    let mut first: Option<(Pass<R>, f64)> = None;
    let (mut wall, mut setup) = (Vec::new(), Vec::new());
    loop {
        let pass_started = Instant::now();
        let Some(done) = pass(first.as_ref().map(|(p, _)| &p.reference), checks) else {
            break; // the pass panicked: its checks are counted as failed
        };
        wall.push(done.wall_s);
        setup.push(done.setup_s);
        first.get_or_insert_with(|| (done, peak_rss_mb()));
        let slice_started = Instant::now();
        for _ in 0..MAX_SETUPS_PER_SLICE {
            let started = Instant::now();
            set_up();
            setup.push(started.elapsed().as_secs_f64());
            if slice_started.elapsed().as_secs_f64() >= SETUP_SLICE_S {
                break;
            }
        }
        let enough = match budget {
            Budget::Passes(n) => wall.len() >= n,
            // Stop when one more pass (and slice) like the last would overrun.
            Budget::Seconds(s) => {
                wall.len() >= MIN_PASSES
                    && (started.elapsed() + pass_started.elapsed()).as_secs_f64() > s
            }
        };
        if enough {
            break;
        }
    }
    let Some((first, peak_rss_mb)) = first else {
        return (Vec::new(), String::new());
    };
    let values = [
        Summary::of(&wall),
        Summary::of(&setup),
        Summary::single(peak_rss_mb),
        Summary::single(first.delivery_ratio),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit), summary)| (*name, *unit, summary))
        .collect();
    (metrics, first.fingerprint)
}

/// This process's high-water resident set, from `VmHWM` in
/// `/proc/self/status`. A run is one process on one workload, so the mark
/// is that workload's own.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .expect("Linux reports VmHWM in /proc/self/status");
    kib / 1024.0
}

fn ledger_metrics(ledger: &Ledger) -> Metrics {
    PER_LAYER
        .iter()
        .map(|(name, unit)| (*name, *unit, Summary::single(ledger.get(name))))
        .collect()
}

/// The traced run of a simulated workload: one untraced pass as the base,
/// one traced pass for spans and counts, the step replay for the event
/// count, then the twins and micro-drives that belong to the workload.
fn trace_sim(args: &RunArgs, spec: &SimSpec, checks: &mut Checks) -> (Metrics, String) {
    let scale = Scale { smoke: args.smoke };
    let mut ledger = Ledger::new();
    let Some(base) = sim::checked_pass(spec, &mut Tracer::off(), None, None, checks) else {
        return (Vec::new(), String::new());
    };
    let fingerprint = sim::fingerprint(&base.window);

    let meter = Arc::new(AgentMeter::default());
    let mut tracer = Tracer::on();
    let Some(traced) =
        sim::checked_pass(spec, &mut tracer, Some(&meter), Some(&base.window), checks)
    else {
        return (Vec::new(), fingerprint);
    };
    sim::fill_ledger(&mut ledger, &tracer, &traced, sim::count_events(spec));
    ledger.set(
        "harness.trace_overhead_ratio",
        ratio(traced.wall_s, base.wall_s),
    );
    write_trace(&args.workload, &tracer);

    // A twin: the same inputs with one layer bypassed or swapped.
    let mut twin_wall_s = |twin: SimSpec| {
        sim::checked_pass(&twin, &mut Tracer::off(), None, None, checks).map_or(0.0, |r| r.wall_s)
    };
    let [decode_mb, decode_frames, encode_mb] = micro::codec_rates(scale, &meter.take_frames());
    ledger.set_all([
        ("packetbb.decode_mb_per_s", decode_mb),
        ("packetbb.decode_frames_per_s", decode_frames),
        ("packetbb.encode_mb_per_s", encode_mb),
    ]);

    match args.workload.as_str() {
        "city_geo" => {
            let walk = spec.scenario.mobility().expect("the city moves");
            let [neighbours, next_hop, moves] =
                micro::spatial_index_per_s(scale, walk.nodes, walk.radius, walk.seed);
            ledger.set_all([
                (
                    "simkern.hold_events_per_s",
                    micro::simkern_hold_events_per_s(scale),
                ),
                ("netsim.topology.neighbours_per_s", neighbours),
                ("netsim.topology.geo_next_hop_per_s", next_hop),
                ("netsim.topology.move_node_per_s", moves),
                (
                    "netsim.stats_us_per_call",
                    micro::stats_us_per_call(scale, &traced.world),
                ),
            ]);
        }
        "grid_olsr" => {
            let side = (spec.scenario.node_count() as f64).sqrt() as usize;
            let per_rx = ratio(
                ledger.get("core.agent.on_frame_s") * 1e6,
                ledger.get("core.agent.on_frame_calls"),
            );
            ledger.set_all([
                (
                    "olsr.compute_routes_us",
                    micro::compute_routes_us(scale, side, side),
                ),
                ("olsr.us_per_control_rx", per_rx),
            ]);
        }
        "mesh_dymo" => {
            let monolith = twin_wall_s(SimSpec {
                agents: Agents::Dymoum,
                ..spec.clone()
            });
            let recorded = twin_wall_s(SimSpec {
                recorder: Some(4096),
                ..spec.clone()
            });
            let matrix = spec.scenario.topology().build();
            ledger.set_all([
                ("baseline.dymoum_wall_s", monolith),
                (
                    "core.framework_overhead_ratio",
                    ratio(base.wall_s, monolith),
                ),
                (
                    "trace.attached_overhead_ratio",
                    ratio(recorded, base.wall_s),
                ),
                (
                    "netsim.topology.matrix_neighbours_per_s",
                    micro::matrix_neighbours_per_s(scale, &matrix),
                ),
                (
                    "core.bus.dispatch_events_per_s",
                    micro::bus_deliveries_per_s(scale),
                ),
            ]);
        }
        "phy_air" => {
            let channel = spec.phy.channel().expect("phy_air has a channel");
            let ideal = twin_wall_s(SimSpec {
                phy: PhyModel::Ideal,
                ..spec.clone()
            });
            let constant = twin_wall_s(SimSpec {
                phy: PhyModel::ConstantBandwidth(channel),
                ..spec.clone()
            });
            ledger.set_all([
                ("phy.twin_ideal_wall_s", ideal),
                ("phy.twin_constant_wall_s", constant),
                ("phy.layer_share", 1.0 - ratio(ideal, base.wall_s)),
                (
                    "phy.ops_per_s.shared_k8",
                    micro::phy_frames_per_s(scale, true, 8),
                ),
                (
                    "phy.ops_per_s.shared_k64",
                    micro::phy_frames_per_s(scale, true, 64),
                ),
                (
                    "phy.ops_per_s.constant_k64",
                    micro::phy_frames_per_s(scale, false, 64),
                ),
            ]);
        }
        "reconfig_churn" => ledger.set("core.reconfig.switch_us", micro::switch_us(scale)),
        other => unreachable!("{other} is not a simulated workload"),
    }
    (ledger_metrics(&ledger), fingerprint)
}

/// The traced run of the model-checking workload, with the two drives
/// that, like it, build many small worlds from above.
fn trace_mcheck(args: &RunArgs, spec: &McheckSpec, checks: &mut Checks) -> (Metrics, String) {
    let scale = Scale { smoke: args.smoke };
    let mut ledger = Ledger::new();
    let Some(base) = spec.checked_pass(&mut Tracer::off(), None, checks) else {
        return (Vec::new(), String::new());
    };
    let fingerprint = workloads::mcheck_fingerprint(&base.report);
    let mut tracer = Tracer::on();
    let Some(traced) = spec.checked_pass(&mut tracer, Some(&base.report), checks) else {
        return (Vec::new(), fingerprint);
    };
    write_trace(&args.workload, &tracer);

    let r = &traced.report;
    let explored = r.states_explored as f64;
    let [t1, t_n, host] = micro::campaign_cells_per_s(scale, args.seed);
    ledger.set_all([
        ("mcheck.explored", explored),
        ("mcheck.unique", r.states_unique as f64),
        ("mcheck.dedup_ratio", ratio(r.dedup_hits as f64, explored)),
        (
            "mcheck.states_per_s",
            ratio(explored, tracer.total_s("mcheck.explore")),
        ),
        (
            "harness.trace_overhead_ratio",
            ratio(traced.wall_s, base.wall_s),
        ),
        ("netsim.build3_us", micro::build3_us(scale, args.seed)),
        ("campaign.cells_per_s.t1", t1),
        ("campaign.cells_per_s.tN", t_n),
        ("campaign.speedup", ratio(t_n, t1)),
        ("campaign.host_threads", host),
    ]);
    (ledger_metrics(&ledger), fingerprint)
}

/// Where a traced run leaves its spans (relative to the repository root,
/// from which the benchmark is run).
pub const OUT_DIR: &str = "benchmark/out";

fn write_trace(workload: &str, tracer: &Tracer) {
    let path = format!("{OUT_DIR}/trace_{workload}.jsonl");
    let written =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, tracer.to_jsonl()));
    match written {
        Ok(()) => println!("spans written to {path}"),
        // The spans are a by-product; the ledger below does not need them.
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// Prints every metric by name and unit, a detail line for the suite, and
/// last the result object.
fn report(args: &RunArgs, checks: &Checks, metrics: &Metrics, fingerprint: &str) -> ExitCode {
    for failure in &checks.failures {
        eprintln!("FAILED {failure}");
    }
    println!(
        "{} seed {} trace {}: {} of {} checks failed, fingerprint {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        checks.failed,
        checks.attempted,
        if fingerprint.is_empty() {
            "none"
        } else {
            fingerprint
        },
    );
    for (name, unit, s) in metrics {
        if s.n > 1 {
            println!(
                "  {name:<40} {:>16.6} {unit:<6} (min {:.6}, quartiles {:.6} .. {:.6}, max {:.6}, n {})",
                s.median, s.min, s.q1, s.q3, s.max, s.n
            );
        } else {
            println!("  {name:<40} {:>16.6} {unit}", s.median);
        }
    }
    if metrics.is_empty() {
        // The first pass panicked: there is nothing measured to report.
        return ExitCode::FAILURE;
    }
    let correct = checks.failed == 0;
    let counts = [
        ("correct", Json::Bool(correct)),
        ("attempted", Json::count(checks.attempted)),
        ("failed", Json::count(checks.failed)),
    ];
    let detail = Json::obj(
        [
            ("workload", Json::str(&args.workload)),
            ("seed", Json::count(args.seed)),
            ("trace", Json::Bool(args.trace)),
            ("smoke", Json::Bool(args.smoke)),
            ("fingerprint", Json::str(fingerprint)),
        ]
        .into_iter()
        .chain(counts.clone())
        .chain([(
            "metrics",
            Json::obj(metrics.iter().map(|(name, unit, s)| {
                (
                    *name,
                    Json::obj([
                        ("unit", Json::str(*unit)),
                        ("median", Json::Num(s.median)),
                        ("min", Json::Num(s.min)),
                        ("q1", Json::Num(s.q1)),
                        ("q3", Json::Num(s.q3)),
                        ("max", Json::Num(s.max)),
                        ("n", Json::count(s.n as u64)),
                    ]),
                )
            })),
        )]),
    );
    println!("{}", detail.render());
    let result = Json::obj(counts.into_iter().chain([(
        "metrics",
        Json::obj(metrics.iter().map(|(name, unit, s)| {
            (
                *name,
                Json::obj([("value", Json::Num(s.median)), ("unit", Json::str(*unit))]),
            )
        })),
    )]));
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
