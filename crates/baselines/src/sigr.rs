//! SIGR-like — an approximation of "Social Influence-based Group
//! Representation learning" (Yin et al., ICDE 2019).
//!
//! SIGR's two ingredients are (1) an item-conditioned attention over
//! group members, and (2) a learned *global social influence* per user
//! that biases the member weights, estimated in the original via a
//! bipartite-graph embedding over the social network.
//!
//! **Substitution** (DESIGN.md §4): the graph-embedding influence
//! learner is replaced by a learned bias per *PageRank-quantile bucket*
//! of the social network. This preserves the mechanism — members with
//! high global social standing get a learnable boost in the group
//! vote — without reproducing SIGR's full pipeline. Like the original,
//! the model also trains on user-item data with shared embeddings to
//! fight group-item sparsity.

use crate::config::BaselineConfig;
use groupsa_data::sampling::bpr_epoch;
use groupsa_eval::Scorer;
use groupsa_graph::centrality::{pagerank, quantile_buckets};
use groupsa_graph::{Bipartite, CsrGraph};
use groupsa_nn::loss::bpr_one_vs_rest;
use groupsa_nn::optim::{Adam, Optimizer};
use groupsa_nn::{Embedding, Init, Mlp, ParamStore, VanillaAttention};
use groupsa_tensor::rng::{seeded, StdRng};
use groupsa_tensor::{Forward, Graph, NodeId};

/// Number of PageRank quantile buckets for the influence bias.
const INFLUENCE_BUCKETS: usize = 8;

/// The SIGR-like model: member attention weights are
/// `softmax(att([emb(uᵢ) ⊕ emb(v)]) + influence_bias[bucket(uᵢ)])`.
pub struct SigrLike {
    cfg: BaselineConfig,
    store: ParamStore,
    emb_user: Embedding,
    emb_item: Embedding,
    /// Learned scalar bias per influence bucket (`INFLUENCE_BUCKETS×1`).
    influence: Embedding,
    att: VanillaAttention,
    pred: Mlp,
    members: Vec<Vec<usize>>,
    /// Per-user PageRank bucket.
    buckets: Vec<usize>,
    rng: StdRng,
}

impl SigrLike {
    /// A fresh model; `social` provides the global influence signal.
    pub fn new(
        cfg: BaselineConfig,
        num_users: usize,
        num_items: usize,
        members: Vec<Vec<usize>>,
        social: &CsrGraph,
    ) -> Self {
        assert_eq!(social.num_nodes(), num_users, "social graph must cover all users");
        let pr = pagerank(social, 0.85, 1e-9, 100);
        let buckets = quantile_buckets(&pr, INFLUENCE_BUCKETS);
        let mut rng = seeded(cfg.seed);
        let mut store = ParamStore::new();
        let d = cfg.embed_dim;
        let emb_user = Embedding::new(&mut store, &mut rng, "sigr_user", num_users, d, Init::Glorot);
        let emb_item = Embedding::new(&mut store, &mut rng, "sigr_item", num_items, d, Init::Glorot);
        let influence = Embedding::new(&mut store, &mut rng, "sigr_infl", INFLUENCE_BUCKETS, 1, Init::Gaussian(0.01));
        let att = VanillaAttention::new(&mut store, &mut rng, "sigr_att", 2 * d, d);
        let pred = Mlp::new(&mut store, &mut rng, "sigr_pred", &[2 * d, d, 1], false);
        let rng = seeded(cfg.seed.wrapping_add(29));
        Self { cfg, store, emb_user, emb_item, influence, att, pred, members, buckets, rng }
    }

    fn user_scores_graph(&self, g: &mut Graph, user: usize, items: &[usize]) -> NodeId {
        let n = items.len();
        let eu = self.emb_user.lookup(g, &self.store, &[user]);
        let eu = g.repeat_rows(eu, n);
        let ev = self.emb_item.lookup(g, &self.store, items);
        let cat = g.concat_cols(eu, ev);
        self.pred.forward(g, &self.store, &cat)
    }

    fn group_scores_graph(&self, g: &mut Graph, group: usize, items: &[usize]) -> NodeId {
        let members = &self.members[group];
        assert!(!members.is_empty(), "group {group} has no members");
        let eu = self.emb_user.lookup(g, &self.store, members); // l×d
        let member_buckets: Vec<usize> = members.iter().map(|&u| self.buckets[u]).collect();
        let infl = self.influence.lookup(g, &self.store, &member_buckets); // l×1
        let infl = g.transpose(infl); // 1×l
        let ev_all = self.emb_item.lookup(g, &self.store, items);
        let mut scores: Option<NodeId> = None;
        for idx in 0..items.len() {
            let ev = g.slice_rows(ev_all, idx, 1);
            let ev_rep = g.repeat_rows(ev, members.len());
            let rows = g.concat_cols(eu, ev_rep);
            let raw = self.att.raw_scores(g, &self.store, &rows); // 1×l
            let biased = g.add(raw, infl);
            let w = g.softmax_rows(biased); // 1×l
            let rep = g.matmul(w, eu); // 1×d
            let cat = g.concat_cols(rep, ev);
            let s = self.pred.forward(g, &self.store, &cat);
            scores = Some(match scores {
                None => s,
                Some(acc) => g.concat_rows(acc, s),
            });
        }
        scores.expect("non-empty items")
    }

    /// Two-stage joint training like the other attention baselines.
    /// Returns `(user_losses, group_losses)`.
    pub fn fit(
        &mut self,
        user_pairs: &[(usize, usize)],
        ui_graph: &Bipartite,
        group_pairs: &[(usize, usize)],
        gi_graph: &Bipartite,
    ) -> (Vec<f32>, Vec<f32>) {
        let mut opt = Adam { weight_decay: self.cfg.weight_decay, ..Adam::new(self.cfg.learning_rate) };
        let mut user_losses = Vec::new();
        for _ in 0..self.cfg.user_epochs {
            let examples: Vec<_> = bpr_epoch(&mut self.rng, user_pairs, ui_graph, self.cfg.num_negatives).collect();
            let mut total = 0.0;
            for (i, ex) in examples.iter().enumerate() {
                let mut items = vec![ex.positive];
                items.extend_from_slice(&ex.negatives);
                let mut g = Graph::new();
                let s = self.user_scores_graph(&mut g, ex.entity, &items);
                let loss = bpr_one_vs_rest(&mut g, s);
                total += g.value(loss).scalar();
                let grads = g.backward(loss);
                self.store.accumulate(&g, &grads);
                if (i + 1) % self.cfg.batch_size == 0 || i + 1 == examples.len() {
                    opt.step(&mut self.store);
                }
            }
            user_losses.push(total / examples.len().max(1) as f32);
        }
        let mut group_losses = Vec::new();
        for _ in 0..self.cfg.group_epochs {
            let examples: Vec<_> = bpr_epoch(&mut self.rng, group_pairs, gi_graph, self.cfg.num_negatives).collect();
            let mut total = 0.0;
            for (i, ex) in examples.iter().enumerate() {
                let mut items = vec![ex.positive];
                items.extend_from_slice(&ex.negatives);
                let mut g = Graph::new();
                let s = self.group_scores_graph(&mut g, ex.entity, &items);
                let loss = bpr_one_vs_rest(&mut g, s);
                total += g.value(loss).scalar();
                let grads = g.backward(loss);
                self.store.accumulate(&g, &grads);
                if (i + 1) % self.cfg.batch_size == 0 || i + 1 == examples.len() {
                    opt.step(&mut self.store);
                }
            }
            group_losses.push(total / examples.len().max(1) as f32);
        }
        (user_losses, group_losses)
    }

    /// Gradient-free user-task scores.
    pub fn score_user_items(&self, user: usize, items: &[usize]) -> Vec<f32> {
        let mut g = Graph::new();
        let s = self.user_scores_graph(&mut g, user, items);
        g.value(s).as_slice().to_vec()
    }

    /// Gradient-free group-task scores.
    pub fn score_group_items(&self, group: usize, items: &[usize]) -> Vec<f32> {
        let mut g = Graph::new();
        let s = self.group_scores_graph(&mut g, group, items);
        g.value(s).as_slice().to_vec()
    }

    /// User-task evaluation scorer.
    pub fn user_scorer(&self) -> impl Scorer + '_ {
        move |u: usize, items: &[usize]| self.score_user_items(u, items)
    }

    /// Group-task evaluation scorer.
    pub fn group_scorer(&self) -> impl Scorer + '_ {
        move |t: usize, items: &[usize]| self.score_group_items(t, items)
    }

    /// The PageRank influence bucket assigned to a user (diagnostics).
    pub fn influence_bucket(&self, user: usize) -> usize {
        self.buckets[user]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use groupsa_eval::{evaluate, EvalTask};

    fn toy() -> (Vec<(usize, usize)>, Bipartite, Vec<(usize, usize)>, Bipartite, Vec<Vec<usize>>, CsrGraph) {
        let mut up = Vec::new();
        for u in 0..12 {
            up.push((u, u % 4));
            up.push((u, 4 + u % 4));
        }
        let ui = Bipartite::from_pairs(12, 20, &up);
        let members: Vec<Vec<usize>> = (0..6).map(|t| vec![2 * t, 2 * t + 1]).collect();
        let gp: Vec<(usize, usize)> = (0..6).map(|t| (t, (2 * t) % 4)).collect();
        let gi = Bipartite::from_pairs(6, 20, &gp);
        // A hub-heavy social graph so PageRank buckets are non-trivial.
        let mut edges = vec![];
        for u in 1..12 {
            edges.push((0, u));
        }
        edges.push((3, 4));
        let social = CsrGraph::from_edges(12, &edges);
        (up, ui, gp, gi, members, social)
    }

    #[test]
    fn influence_buckets_rank_the_hub_highest() {
        let (_, ui, _, _, members, social) = toy();
        let m = SigrLike::new(BaselineConfig::tiny(), ui.num_users(), ui.num_items(), members, &social);
        let hub = m.influence_bucket(0);
        // The hub's PageRank dominates, so it lands in the top bucket.
        assert!(hub >= m.influence_bucket(5), "hub bucket {hub}");
        assert_eq!(hub, INFLUENCE_BUCKETS - 1);
    }

    #[test]
    fn group_scores_finite_and_member_dependent() {
        let (_, ui, _, _, members, social) = toy();
        let m = SigrLike::new(BaselineConfig::tiny(), ui.num_users(), ui.num_items(), members, &social);
        let a = m.score_group_items(0, &[0, 1, 2]);
        let b = m.score_group_items(2, &[0, 1, 2]);
        assert!(a.iter().all(|x| x.is_finite()));
        assert_ne!(a, b);
    }

    #[test]
    fn training_fits_group_data() {
        let (up, ui, gp, gi, members, social) = toy();
        let mut cfg = BaselineConfig::tiny();
        cfg.user_epochs = 6;
        cfg.group_epochs = 12;
        let mut m = SigrLike::new(cfg, ui.num_users(), ui.num_items(), members, &social);
        let (ul, gl) = m.fit(&up, &ui, &gp, &gi);
        assert!(ul.last().unwrap() < &ul[0]);
        assert!(gl.last().unwrap() < &gl[0]);
        let task = EvalTask { test_pairs: &gp, full_interactions: &gi, num_candidates: 12, ks: vec![5], seed: 8 };
        let hr = evaluate(&m.group_scorer(), &task).hr(5);
        assert!(hr > 0.5, "SIGR-like must fit group training data: HR@5 = {hr}");
    }

    #[test]
    #[should_panic(expected = "social graph must cover")]
    fn mismatched_social_graph_panics() {
        let (_, ui, _, _, members, _) = toy();
        let small = CsrGraph::empty(3);
        let _ = SigrLike::new(BaselineConfig::tiny(), ui.num_users(), ui.num_items(), members, &small);
    }
}
