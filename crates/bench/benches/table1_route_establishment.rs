//! Table 1, row "Route Establishment Delay": simulated time to establish a
//! route on the paper's 5-node linear testbed.
//!
//! * OLSR: a newly-arrived 5th node until it holds a fully-populated
//!   routing table (interval-dominated: ~seconds).
//! * DYMO: a route discovery from one end to the other (RTT-dominated:
//!   ~tens of milliseconds).
//!
//! Absolute values differ from the paper's testbed (real radios vs the
//! emulator's ~1 ms hops); the shape — OLSR orders of magnitude slower than
//! DYMO, MANETKit within a small factor of the monolith — is the claim
//! under reproduction.

use manetkit_bench::scenarios::{dymo_route_establishment, mean_delay, olsr_route_establishment};
use manetkit_bench::Protocol;

fn main() {
    const RUNS: u64 = 5;
    println!("\n=== Table 1 (reproduction): Route Establishment Delay ===\n");
    println!("5-node linear topology, {RUNS} seeded runs each, simulated milliseconds.\n");

    let olsr = |p: Protocol| mean_delay(RUNS, |s| olsr_route_establishment(&p.factory(), s));
    let dymo = |p: Protocol| mean_delay(RUNS, |s| dymo_route_establishment(&p.factory(), s));
    let (olsrd, ok1) = olsr(Protocol::Olsrd);
    let (mkit_olsr, ok2) = olsr(Protocol::MkitOlsr);
    let (dymoum, ok3) = dymo(Protocol::Dymoum);
    let (mkit_dymo, ok4) = dymo(Protocol::MkitDymo);
    assert!(
        ok1 && ok2 && ok3 && ok4,
        "every run must establish its route"
    );

    println!("{:<34}{:>14}", "implementation", "delay (ms)");
    println!("{:-<48}", "");
    println!(
        "{:<34}{:>14}",
        "Unik-olsrd (monolithic)",
        manetkit_bench::fmt_ms(olsrd)
    );
    println!(
        "{:<34}{:>14}",
        "MKit-OLSR",
        manetkit_bench::fmt_ms(mkit_olsr)
    );
    println!(
        "{:<34}{:>14}",
        "DYMOUM (monolithic)",
        manetkit_bench::fmt_ms(dymoum)
    );
    println!(
        "{:<34}{:>14}",
        "MKit-DYMO",
        manetkit_bench::fmt_ms(mkit_dymo)
    );

    let ratio_olsr = mkit_olsr.as_micros() as f64 / olsrd.as_micros().max(1) as f64;
    let ratio_dymo = mkit_dymo.as_micros() as f64 / dymoum.as_micros().max(1) as f64;
    println!("\nMKit-OLSR / Unik-olsrd ratio: {ratio_olsr:.2} (paper: 1.03)");
    println!("MKit-DYMO / DYMOUM ratio:     {ratio_dymo:.2} (paper: 0.74)");
    println!(
        "OLSR vs DYMO establishment:    {:.0}x (interval-bound vs RTT-bound)",
        mkit_olsr.as_micros() as f64 / mkit_dymo.as_micros().max(1) as f64
    );

    // Shape checks mirroring the paper's conclusions.
    assert!(
        ratio_olsr < 2.0 && ratio_olsr > 0.5,
        "framework OLSR within 2x of monolith ({ratio_olsr:.2})"
    );
    assert!(
        ratio_dymo < 2.0 && ratio_dymo > 0.5,
        "framework DYMO within 2x of monolith ({ratio_dymo:.2})"
    );
    assert!(
        mkit_olsr.as_micros() > 10 * mkit_dymo.as_micros(),
        "OLSR establishment is interval-dominated, DYMO RTT-dominated"
    );
    println!("\nshape checks passed.\n");
}
