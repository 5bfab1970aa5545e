//! What a fork costs the model checker. The benchmark's `mcheck_2pc`
//! scenario (three OLSR nodes with the switch to DYMO queued, seed 1) is
//! driven 0, 3, 6 and 9 choices deep, taking the first enabled choice each
//! time. At each state a counting global allocator and the clock measure
//! an unwritten fork of the model and its drop (every node shared), the
//! copy of one node that the first write to it makes, and a path step:
//! a fork with the first enabled choice applied, which is what the
//! explorer pays per state between a held ancestor and the next parent.
//! Exits non-zero when an unwritten fork allocates more than 32 times
//! (copying even one node takes more), or when a first-write node copy
//! allocates more than 45 times: the node's protocols are shared
//! copy-on-write, so copying one must not copy them.
//!
//! ```text
//! cargo run --release -p manetkit-mcheck --example fork_cost
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use manetkit::ManetNode;
use mcheck::{Model, ScenarioConfig, TwoPhaseSwitch};
use netsim::NodeId;

const DEPTHS: [usize; 4] = [0, 3, 6, 9];
const ROUNDS: u32 = 5_000;
/// Allocations an unwritten fork and its drop may make.
const UNWRITTEN_FORK_BUDGET: u64 = 32;
/// Allocations a first-write node copy may make.
const FIRST_WRITE_COPY_BUDGET: u64 = 45;

/// Counts this thread's allocations (growth counts; frees do not).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded to `System` under the caller's contract.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// What `ROUNDS` runs of one operation took.
struct Tally {
    time: Duration,
    allocations: u64,
    /// The most allocations one run made.
    most: u64,
}

impl Tally {
    /// Runs `op` `ROUNDS` times, each on a fresh input from `setup`; only
    /// `op` is timed and counted, and the input is dropped after it.
    fn of<T>(mut setup: impl FnMut() -> T, mut op: impl FnMut(&mut T)) -> Tally {
        let mut tally = Tally {
            time: Duration::ZERO,
            allocations: 0,
            most: 0,
        };
        for _ in 0..ROUNDS {
            let mut input = setup();
            let before = allocations();
            let started = Instant::now();
            op(&mut input);
            tally.time += started.elapsed();
            let made = allocations() - before;
            tally.allocations += made;
            tally.most = tally.most.max(made);
        }
        tally
    }
}

impl std::fmt::Display for Tally {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let us = self.time.as_secs_f64() * 1e6 / f64::from(ROUNDS);
        let allocs = self.allocations / u64::from(ROUNDS);
        write!(f, "{us:.2} µs, {allocs} allocs")
    }
}

fn main() -> ExitCode {
    println!(
        "{:<18} {:>24} {:>24} {:>24}",
        "state", "unwritten fork+drop", "first-write node copy", "path step (fork+apply)"
    );

    let mut model = TwoPhaseSwitch::new(ScenarioConfig {
        seed: 1,
        ..ScenarioConfig::default()
    });
    let mut depth = 0;
    let (mut worst_fork, mut worst_copy) = (0, 0);
    for target in DEPTHS {
        while depth < target {
            let choice = model.enabled()[0];
            assert!(model.apply(choice), "{choice} is enabled");
            depth += 1;
        }
        // The first fork after a write copies every node to learn that it
        // forks, and the first world to write node 0 takes that copy. Both
        // happen here, so the rounds below share every node and each first
        // write forks a copy.
        drop(model.fork());
        let _ = model
            .world()
            .fork()
            .expect("every agent forks")
            .agent_mut::<ManetNode>(NodeId(0));

        let fork = Tally::of(|| (), |()| drop(black_box(model.fork())));
        let copy = Tally::of(
            || model.world().fork().expect("every agent forks"),
            |world| {
                black_box(world.agent_mut::<ManetNode>(NodeId(0)));
            },
        );
        let first = model.enabled()[0];
        let step = Tally::of(
            || None,
            |stepped| {
                let mut child = model.fork();
                assert!(child.apply(first), "{first} is enabled");
                *stepped = Some(child);
            },
        );
        println!(
            "{:<18} {:>24} {:>24} {:>24}",
            format!("after {depth} choices"),
            fork.to_string(),
            copy.to_string(),
            step.to_string()
        );
        worst_fork = worst_fork.max(fork.most);
        worst_copy = worst_copy.max(copy.most);
    }
    let mut over = false;
    if worst_fork > UNWRITTEN_FORK_BUDGET {
        eprintln!(
            "an unwritten fork allocated {worst_fork} times, over its budget of \
             {UNWRITTEN_FORK_BUDGET}: it copied a node"
        );
        over = true;
    }
    if worst_copy > FIRST_WRITE_COPY_BUDGET {
        eprintln!(
            "a first-write node copy allocated {worst_copy} times, over its budget of \
             {FIRST_WRITE_COPY_BUDGET}: it copied protocols it did not write"
        );
        over = true;
    }
    if over {
        return ExitCode::FAILURE;
    }
    println!("fork_cost OK");
    ExitCode::SUCCESS
}
