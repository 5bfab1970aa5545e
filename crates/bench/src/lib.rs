//! Shared experiment harness for the MANETKit evaluation: scenario
//! builders, measurement routines and the code-reuse analysis — the
//! machinery behind the benches that regenerate the paper's Tables 1–3 and
//! Figure 7 plus the variant ablations.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod footprint;
pub mod reuse;
pub mod scenarios;

/// The parallel campaign engine (re-exported `campaign` crate): declarative
/// [`campaign::CampaignSpec`] grids executed across OS threads with
/// mergeable, deterministic statistics.
pub use campaign;

pub use campaign::{CampaignSpec, Protocol, ScenarioSpec};
pub use chaos::{
    chaos_scenario, crash_campaign, flap_campaign, partition_campaign, protocol_factories,
    RecoveryReport,
};
pub use scenarios::{
    dymo_route_establishment, olsr_route_establishment, AgentFactory, RouteEstablishment,
};

/// Formats a simulated duration as milliseconds with three decimals.
#[must_use]
pub fn fmt_ms(d: netsim::SimDuration) -> String {
    format!("{:.3}", d.as_micros() as f64 / 1000.0)
}
