//! # groupsa-baselines
//!
//! The comparison methods of the paper's §III-D, re-implemented from
//! their source papers on the same substrate and evaluated with the
//! same protocol as GroupSA:
//!
//! * [`pop::Pop`] — non-personalised popularity ranking.
//! * [`ncf::Ncf`] — Neural Collaborative Filtering (NeuMF: GMF ⊕ MLP,
//!   He et al. 2017). On the group task every group is a *virtual
//!   user*, ignoring membership — the paper's probe of whether plain CF
//!   transfers to occasional groups.
//! * [`agree::Agree`] — Attentive Group Recommendation (Cao et al.,
//!   SIGIR 2018): member embeddings weighted by an item-conditioned
//!   vanilla attention plus a learned group-preference embedding,
//!   jointly trained on user-item and group-item data.
//! * [`sigr::SigrLike`] — an approximation of SIGR (Yin et al., ICDE
//!   2019): item-conditioned member attention *biased by each user's
//!   global social influence*. The original learns influence with a
//!   bipartite-graph embedding; here influence enters as a learned
//!   per-PageRank-bucket bias (see the module docs for the exact
//!   substitution, which DESIGN.md §4 records).
//! * [`aggregation`] — the static score-aggregation strategies
//!   (Group+avg / Group+lm / Group+ms) applied on top of a trained
//!   GroupSA's per-member predictions, exactly as the paper evaluates
//!   them.
//!
//! All learned baselines share [`BaselineConfig`] and one BPR
//! per-example training epoch, like the main model's. Each writes its
//! forward pass once, generic over [`groupsa_tensor::Forward`]:
//! training records it on a [`groupsa_tensor::Graph`], and the
//! evaluation scorers run it on [`groupsa_tensor::Eager`].

#![warn(missing_docs)]

pub mod aggregation;
pub mod agree;
mod common;
pub mod config;
pub mod ncf;
pub mod pop;
pub mod sigr;

pub use agree::Agree;
pub use config::BaselineConfig;
pub use ncf::Ncf;
pub use pop::Pop;
pub use sigr::SigrLike;
