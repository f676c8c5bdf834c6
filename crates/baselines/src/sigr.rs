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

use crate::common::{bpr_epoch, concat_tower};
use crate::config::BaselineConfig;
use groupsa_eval::Scorer;
use groupsa_graph::centrality::{pagerank, quantile_buckets};
use groupsa_graph::{Bipartite, CsrGraph};
use groupsa_nn::optim::Adam;
use groupsa_nn::{Embedding, Init, Mlp, ParamStore, VanillaAttention};
use groupsa_tensor::rng::{seeded, StdRng};
use groupsa_tensor::{Eager, Forward};

/// Number of PageRank quantile buckets for the influence bias.
const INFLUENCE_BUCKETS: usize = 8;

/// The SIGR-like model: member attention weights are
/// `softmax(att([emb(uᵢ) ⊕ emb(v)]) + influence_bias[bucket(uᵢ)])`.
pub struct SigrLike {
    cfg: BaselineConfig,
    store: ParamStore,
    net: SigrNet,
    rng: StdRng,
}

/// SIGR-like's layers, group memberships and influence buckets; the
/// parameters live in the owning [`SigrLike`]'s store.
struct SigrNet {
    emb_user: Embedding,
    emb_item: Embedding,
    /// Learned scalar bias per influence bucket (`INFLUENCE_BUCKETS×1`).
    influence: Embedding,
    att: VanillaAttention,
    pred: Mlp,
    members: Vec<Vec<usize>>,
    /// Per-user PageRank bucket.
    buckets: Vec<usize>,
}

impl SigrNet {
    fn user_scores<'p, F: Forward<'p>>(
        &self,
        f: &mut F,
        store: &'p ParamStore,
        user: usize,
        items: &[usize],
    ) -> F::Value {
        concat_tower(f, store, (&self.emb_user, &self.emb_item, &self.pred), user, items)
    }

    fn group_scores<'p, F: Forward<'p>>(
        &self,
        f: &mut F,
        store: &'p ParamStore,
        group: usize,
        items: &[usize],
    ) -> F::Value {
        let members = &self.members[group];
        assert!(!members.is_empty(), "group {group} has no members");
        let eu = self.emb_user.lookup(f, store, members); // l×d
        let member_buckets: Vec<usize> = members.iter().map(|&u| self.buckets[u]).collect();
        let infl = self.influence.lookup(f, store, &member_buckets); // l×1
        let infl = f.transpose(&infl); // 1×l
        let ev_all = self.emb_item.lookup(f, store, items);
        f.stack_rows(items.len(), |f, idx| {
            let ev = f.slice_rows(&ev_all, idx, 1);
            let ev_rep = f.repeat_rows(&ev, members.len());
            let rows = f.concat_cols(&eu, &ev_rep);
            let raw = self.att.raw_scores(f, store, &rows); // 1×l
            let biased = f.add(&raw, &infl);
            let w = f.softmax_rows(biased); // 1×l
            let rep = f.matmul(&w, &eu); // 1×d
            let cat = f.concat_cols(&rep, &ev);
            self.pred.forward(f, store, &cat)
        })
    }
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
        let net = SigrNet { emb_user, emb_item, influence, att, pred, members, buckets };
        let rng = seeded(cfg.seed.wrapping_add(29));
        Self { cfg, store, net, rng }
    }

    /// Two-stage joint training like the other attention baselines
    /// (one Adam across both stages). Returns
    /// `(user_losses, group_losses)`.
    pub fn fit(
        &mut self,
        user_pairs: &[(usize, usize)],
        ui_graph: &Bipartite,
        group_pairs: &[(usize, usize)],
        gi_graph: &Bipartite,
    ) -> (Vec<f32>, Vec<f32>) {
        let Self { cfg, store, net, rng } = self;
        let mut opt = Adam { weight_decay: cfg.weight_decay, ..Adam::new(cfg.learning_rate) };
        let user_losses = (0..cfg.user_epochs)
            .map(|_| {
                bpr_epoch(cfg, rng, store, &mut opt, user_pairs, ui_graph, |g, s, e, v| net.user_scores(g, s, e, v))
            })
            .collect();
        let group_losses = (0..cfg.group_epochs)
            .map(|_| {
                bpr_epoch(cfg, rng, store, &mut opt, group_pairs, gi_graph, |g, s, e, v| net.group_scores(g, s, e, v))
            })
            .collect();
        (user_losses, group_losses)
    }

    /// User-task scores, evaluated eagerly.
    pub fn score_user_items(&self, user: usize, items: &[usize]) -> Vec<f32> {
        self.net.user_scores(&mut Eager, &self.store, user, items).into_owned().into_vec()
    }

    /// Group-task scores, evaluated eagerly.
    pub fn score_group_items(&self, group: usize, items: &[usize]) -> Vec<f32> {
        self.net.group_scores(&mut Eager, &self.store, group, items).into_owned().into_vec()
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
        self.net.buckets[user]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{assert_eager_matches_tape, tape_scores};
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
    fn eager_scorers_evaluate_exactly_as_the_tape() {
        let (up, ui, gp, gi, members, social) = toy();
        let mut cfg = BaselineConfig::tiny();
        cfg.user_epochs = 1;
        cfg.group_epochs = 1;
        let mut m = SigrLike::new(cfg, ui.num_users(), ui.num_items(), members, &social);
        m.fit(&up, &ui, &gp, &gi);
        let (net, store) = (&m.net, &m.store);
        let user_tape = |u: usize, items: &[usize]| tape_scores(|g| net.user_scores(g, store, u, items));
        assert_eager_matches_tape(&m.user_scorer(), &user_tape, &up, &ui);
        let group_tape = |t: usize, items: &[usize]| tape_scores(|g| net.group_scores(g, store, t, items));
        assert_eager_matches_tape(&m.group_scorer(), &group_tape, &gp, &gi);
    }

    #[test]
    #[should_panic(expected = "social graph must cover")]
    fn mismatched_social_graph_panics() {
        let (_, ui, _, _, members, _) = toy();
        let small = CsrGraph::empty(3);
        let _ = SigrLike::new(BaselineConfig::tiny(), ui.num_users(), ui.num_items(), members, &small);
    }
}
