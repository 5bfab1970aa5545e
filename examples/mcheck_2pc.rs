//! E17 — bounded model checking of the fleet-wide 2PC protocol switch:
//! the `mcheck` explorer drives a 3-node OLSR → DYMO transaction through
//! every schedulable interleaving within a ≤2-crash / ≤3-drop budget,
//! checking rollback exactness, counter conservation, no-split-brain,
//! stuck-resolution, no commit beside a refused prepare and a coordinator
//! that moves when its deadline passes at every deduplicated state.
//!
//! Two passes run:
//!
//! 1. **Audit** — the real engine. Expected outcome: zero violations
//!    across the whole bounded state graph.
//! 2. **Mutation** — the engine with the doomed-transaction rollback
//!    deliberately disabled (`set_skip_doomed_rollback`). Expected
//!    outcome: the checker finds a counterexample, exported as a
//!    replayable schedule (`BENCH_mcheck_counterexample.jsonl`) and, with
//!    the flight recorder on, a trace-crate timeline of the violating run
//!    (`BENCH_mcheck_timeline.jsonl`).
//!
//! Writes `BENCH_mcheck.json` with the exploration statistics.
//!
//! ```text
//! cargo run --release --example mcheck_2pc [-- --smoke] [-- --depth N]
//! ```
//!
//! The coordinator is the real `TwoPhaseMachine`, with the expiry of its
//! deadlines as a scheduling choice. At the default depth bound (12) the
//! full run drains its queue before the 1,000,000-state cap: 544,932
//! states explored, 98,015 unique, 3,652 terminal, and asserts exactly
//! those counts. It does not *exhaust* the scenario — 34,283 unique states
//! sit at the depth bound, so `ExploreReport::exhausted()` is false — but
//! every interleaving up to depth 12 is checked. The explorer visits
//! states on every core, forks each expanded state for its children
//! instead of replaying every prefix, and reaches the next expanded state
//! from the nearest ancestor it still holds: the audit takes about 11 s
//! on two cores (about 17 s when each parent was rebuilt from its
//! prefix, about 45 s when every visit replayed). `--smoke` caps the
//! audit at 50k visited states (it stops at the cap; nothing is asserted
//! about its counts).

use manetkit_repro::mcheck::{default_suite, Explorer, ScenarioConfig, Strategy, TwoPhaseSwitch};

fn audit_explorer(cfg: ScenarioConfig, depth: usize, cap: u64) -> Explorer<TwoPhaseSwitch> {
    Explorer::new(move || TwoPhaseSwitch::new(cfg.clone()))
        .invariants(default_suite())
        .strategy(Strategy::Bfs)
        .depth_bound(depth)
        .max_states(cap)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let cap: u64 = if smoke { 50_000 } else { 1_000_000 };
    let depth: usize = args
        .iter()
        .position(|a| a == "--depth")
        .and_then(|i| args.get(i + 1))
        .and_then(|d| d.parse().ok())
        .unwrap_or(12);

    // Pass 1: audit the real engine.
    let cfg = ScenarioConfig::default();
    println!(
        "exploring {}-node 2PC switch: budgets ≤{} crashes / ≤{} drops, depth ≤{depth}, cap {cap}",
        cfg.nodes, cfg.max_crashes, cfg.max_drops
    );
    let start = std::time::Instant::now();
    let report = audit_explorer(cfg, depth, cap).run();
    let secs = start.elapsed().as_secs_f64();
    println!(
        "explored {} states ({} unique, {} dedup hits) in {secs:.1}s, max depth {}, \
         {} terminal, {} bound hits, {} violations",
        report.states_explored,
        report.states_unique,
        report.dedup_hits,
        report.max_depth,
        report.terminal_states,
        report.bound_hits,
        report.violations.len()
    );
    assert!(
        report.violations.is_empty(),
        "the real engine must satisfy every invariant: {:?}",
        report.violations
    );
    if !smoke && depth == 12 {
        let counts = (
            report.states_explored,
            report.states_unique,
            report.dedup_hits,
            report.terminal_states,
            report.bound_hits,
            report.max_depth,
            report.truncated,
        );
        assert_eq!(
            counts,
            (544_932, 98_015, 446_917, 3_652, 34_283, 12, false),
            "the depth-12 graph changed: (explored, unique, dedup hits, terminal, bound hits, max depth, truncated)"
        );
    }
    assert!(
        report.states_unique >= 10_000,
        "expected a ≥10k-state graph, got {}",
        report.states_unique
    );

    // Pass 2: the seeded mutation must be caught. BFS finds the shortest
    // violating interleaving — a crash after prepare, then a reboot that
    // skips the rollback — within the first hundred states.
    let mutated = ScenarioConfig {
        skip_doomed_rollback: true,
        ..ScenarioConfig::default()
    };
    let hunt = Explorer::new({
        let mutated = mutated.clone();
        move || TwoPhaseSwitch::new(mutated.clone())
    })
    .invariants(default_suite())
    .strategy(Strategy::Bfs)
    .depth_bound(depth)
    .max_states(cap);
    let mutation_report = hunt.run();
    let violation = mutation_report
        .violations
        .first()
        .expect("the disabled doomed rollback must be caught");
    println!(
        "mutation caught after {} states: {} at depth {} — {}",
        mutation_report.states_explored, violation.invariant, violation.depth, violation.detail
    );
    assert_eq!(
        (mutation_report.states_explored, violation.depth),
        (85, 3),
        "the counterexample moved"
    );

    // Export the counterexample through a traced replay.
    let traced = ScenarioConfig {
        trace: true,
        ..mutated
    };
    let replayer = Explorer::<TwoPhaseSwitch>::new(move || TwoPhaseSwitch::new(traced.clone()));
    let cx = replayer
        .counterexample(&violation.schedule)
        .expect("violating schedule replays");
    std::fs::write("BENCH_mcheck_counterexample.jsonl", &cx.schedule_jsonl)
        .expect("write counterexample schedule");
    println!(
        "counterexample schedule ({} steps) written to BENCH_mcheck_counterexample.jsonl",
        violation.schedule.choices.len()
    );
    if cx.timeline_jsonl.is_empty() {
        println!("flight recorder off: no counterexample timeline");
    } else {
        std::fs::write("BENCH_mcheck_timeline.jsonl", &cx.timeline_jsonl)
            .expect("write counterexample timeline");
        println!(
            "counterexample timeline ({} records) written to BENCH_mcheck_timeline.jsonl",
            cx.timeline_jsonl.lines().count()
        );
    }

    let mut json = String::from("{\n  \"experiment\": \"e17-mcheck-2pc\",\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(&format!("  \"depth_bound\": {depth},\n"));
    json.push_str(&format!(
        "  \"states_explored\": {},\n",
        report.states_explored
    ));
    json.push_str(&format!("  \"states_unique\": {},\n", report.states_unique));
    json.push_str(&format!("  \"dedup_hits\": {},\n", report.dedup_hits));
    json.push_str(&format!("  \"max_depth\": {},\n", report.max_depth));
    json.push_str(&format!(
        "  \"terminal_states\": {},\n",
        report.terminal_states
    ));
    json.push_str(&format!("  \"bound_hits\": {},\n", report.bound_hits));
    json.push_str(&format!("  \"truncated\": {},\n", report.truncated));
    json.push_str(&format!("  \"violations\": {},\n", report.violations.len()));
    json.push_str(&format!("  \"explore_seconds\": {secs:.3},\n"));
    json.push_str(&format!(
        "  \"mutation\": {{\"caught\": true, \"invariant\": \"{}\", \"depth\": {}, \
         \"states_to_find\": {}}}\n",
        violation.invariant, violation.depth, mutation_report.states_explored
    ));
    json.push_str("}\n");
    std::fs::write("BENCH_mcheck.json", json).expect("write report");
    println!("report written to BENCH_mcheck.json");
}
