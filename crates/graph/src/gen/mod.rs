//! Random graph generators and degree-sequence realisation algorithms.
//!
//! These substrates replace the NetworKit functionality used by the paper's
//! evaluation pipeline (Sec. 6): `G(n,p)` graphs for *SynGnp*, power-law
//! degree sequences `Pld([1..Δ], γ)` materialised with Havel–Hakimi for
//! *SynPld*, plus the Chung–Lu and configuration models which are discussed
//! in the related-work section and are useful as alternative seeds/examples.

pub mod chung_lu;
pub mod configuration;
pub mod gnp;
pub mod havel_hakimi;
pub mod pld;

pub use chung_lu::chung_lu;
pub use configuration::{configuration_model_erased, configuration_model_multigraph};
pub use gnp::{gnp, gnp_stream, gnp_with_expected_edges};
pub use havel_hakimi::{havel_hakimi, HavelHakimiError};
pub use pld::{check_gamma, powerlaw_degree_sequence, PowerlawConfig};
