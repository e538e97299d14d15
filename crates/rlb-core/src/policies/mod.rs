//! Routing policies: the paper's algorithms and the baselines they are
//! compared against.
//!
//! * [`Greedy`] — §3: least-backlogged of the `d` replicas.
//! * [`DelayedCuckoo`] — §4: the paper's main algorithm.
//! * [`OneChoice`] — route to the first replica only (the `d = 1`
//!   regime of Wang et al. \[34\], provably Θ(1) rejection).
//! * [`UniformRandom`] — a random replica, ignoring queue state.
//! * [`RoundRobin`] — per-chunk rotation over replicas.
//! * [`TimeStepIsolated`] — greedy over *within-step* arrival counts
//!   only (the strategy class ruled out by Lemma 5.3 / Corollary 5.4).
//! * [`GreedyShedding`] — greedy plus the model's third knob: voluntary
//!   rejection above a backlog threshold (latency flooring).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects
)]

mod dcr;
mod greedy;
mod isolated;
mod one_choice;
mod round_robin;
mod shedding;
mod uniform_random;

pub use dcr::{DcrDiagnostics, DcrParams, DelayedCuckoo};
pub use greedy::Greedy;
pub use isolated::TimeStepIsolated;
pub use one_choice::OneChoice;
pub use round_robin::RoundRobin;
pub use shedding::GreedyShedding;
pub use uniform_random::UniformRandom;

use crate::{Policy, SimConfig};

/// The names [`with_policy`] accepts (besides the `dcr` alias); each is
/// the [`Policy::name`] of the policy it constructs.
pub const POLICY_NAMES: [&str; 6] = [
    "greedy",
    "delayed-cuckoo",
    "one-choice",
    "uniform-random",
    "round-robin",
    "step-isolated",
];

/// What a caller of [`with_policy`] does with the constructed policy.
/// `visit` is generic, so the code it runs (a `Simulation<P>`, a
/// `ServerCore<P>`) is compiled per policy: no `dyn Policy` and no enum
/// match on the per-request path.
pub trait PolicyVisitor {
    /// Result of the visit.
    type Out;
    /// Receives the policy `name` stands for.
    fn visit<P: Policy>(self, policy: P) -> Self::Out;
}

/// The one place a policy name becomes a policy: constructs the policy
/// `name` stands for under `config` and hands it to `visitor`. To add a
/// policy, add an arm here and its name to [`POLICY_NAMES`].
///
/// `rng_salt` is xor-ed into `config.seed` for policies that draw
/// random numbers; it is an argument because the CLI and daemon (`0xa7`)
/// and the experiment suite (`0x9e`, which `results/*.json` were
/// produced with) pin different streams.
///
/// # Errors
/// Returns a message for an unknown name, or for delayed cuckoo routing
/// with `config.replication != 2`.
pub fn with_policy<V: PolicyVisitor>(
    name: &str,
    config: &SimConfig,
    rng_salt: u64,
    visitor: V,
) -> Result<V::Out, String> {
    Ok(match name {
        "greedy" => visitor.visit(Greedy::new()),
        "delayed-cuckoo" | "dcr" => {
            if config.replication != 2 {
                return Err("delayed-cuckoo requires --replication 2".into());
            }
            visitor.visit(DelayedCuckoo::new(config))
        }
        "one-choice" => visitor.visit(OneChoice::new()),
        "uniform-random" => visitor.visit(UniformRandom::new(config.seed ^ rng_salt)),
        "round-robin" => visitor.visit(RoundRobin::new(config.num_chunks)),
        "step-isolated" => visitor.visit(TimeStepIsolated::new(config.num_servers)),
        other => return Err(format!("unknown policy {other:?}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Returns the constructed policy's own name.
    struct NameOf;

    impl PolicyVisitor for NameOf {
        type Out = &'static str;
        fn visit<P: Policy>(self, policy: P) -> &'static str {
            policy.name()
        }
    }

    #[test]
    fn every_listed_name_constructs_the_policy_of_that_name() {
        let config = SimConfig::baseline(16);
        for name in POLICY_NAMES {
            assert_eq!(with_policy(name, &config, 0, NameOf), Ok(name));
        }
        assert_eq!(with_policy("dcr", &config, 0, NameOf), Ok("delayed-cuckoo"));
    }

    #[test]
    fn errors_keep_their_wording() {
        let mut config = SimConfig::baseline(16);
        assert_eq!(
            with_policy("wat", &config, 0, NameOf),
            Err("unknown policy \"wat\"".to_string())
        );
        config.replication = 3;
        for name in ["dcr", "delayed-cuckoo"] {
            assert_eq!(
                with_policy(name, &config, 0, NameOf),
                Err("delayed-cuckoo requires --replication 2".to_string())
            );
        }
        assert_eq!(with_policy("greedy", &config, 0, NameOf), Ok("greedy"));
    }
}
