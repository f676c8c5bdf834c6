//! AGREE — Attentive Group Recommendation (Cao et al., SIGIR 2018).
//!
//! AGREE represents a group as an item-conditioned attention-weighted
//! sum of its member embeddings plus a learned *group preference*
//! embedding, scored by an NCF-style tower; user-item and group-item
//! data are trained jointly with shared embeddings.
//!
//! Faithfulness notes (recorded in DESIGN.md §4): the original pools
//! with an element-wise-product NCF layer; here both tasks share one
//! concatenation-MLP tower (the same simplification the GroupSA paper
//! applies to its own predictor, Eq. 20/22). Training is two-stage
//! (user first, then group) instead of alternating mini-batches.

use crate::config::BaselineConfig;
use groupsa_data::sampling::bpr_epoch;
use groupsa_eval::Scorer;
use groupsa_graph::Bipartite;
use groupsa_nn::loss::bpr_one_vs_rest;
use groupsa_nn::optim::{Adam, Optimizer};
use groupsa_nn::{Embedding, Init, Mlp, ParamStore, VanillaAttention};
use groupsa_tensor::rng::{seeded, StdRng};
use groupsa_tensor::{Forward, Graph, NodeId};

/// The AGREE model. Group `t`'s representation for item `v` is
/// `Σᵢ α(v, uᵢ)·emb(uᵢ) + q_t` with `α` a two-layer attention over
/// `[emb(uᵢ) ⊕ emb(v)]`.
pub struct Agree {
    cfg: BaselineConfig,
    store: ParamStore,
    emb_user: Embedding,
    emb_item: Embedding,
    /// Learned per-group preference embedding `q_t`.
    emb_group_pref: Embedding,
    att: VanillaAttention,
    pred: Mlp,
    members: Vec<Vec<usize>>,
    rng: StdRng,
}

impl Agree {
    /// A fresh AGREE over the given universe; `members` lists each
    /// group's users.
    pub fn new(cfg: BaselineConfig, num_users: usize, num_items: usize, members: Vec<Vec<usize>>) -> Self {
        let mut rng = seeded(cfg.seed);
        let mut store = ParamStore::new();
        let d = cfg.embed_dim;
        let emb_user = Embedding::new(&mut store, &mut rng, "agree_user", num_users, d, Init::Glorot);
        let emb_item = Embedding::new(&mut store, &mut rng, "agree_item", num_items, d, Init::Glorot);
        let emb_group_pref = Embedding::new(&mut store, &mut rng, "agree_gpref", members.len().max(1), d, Init::Glorot);
        let att = VanillaAttention::new(&mut store, &mut rng, "agree_att", 2 * d, d);
        let pred = Mlp::new(&mut store, &mut rng, "agree_pred", &[2 * d, d, 1], false);
        let rng = seeded(cfg.seed.wrapping_add(17));
        Self { cfg, store, emb_user, emb_item, emb_group_pref, att, pred, members, rng }
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
        let pref = self.emb_group_pref.lookup(g, &self.store, &[group]); // 1×d
        let ev_all = self.emb_item.lookup(g, &self.store, items); // n×d
        let mut scores: Option<NodeId> = None;
        for idx in 0..items.len() {
            let ev = g.slice_rows(ev_all, idx, 1);
            let ev_rep = g.repeat_rows(ev, members.len());
            let rows = g.concat_cols(eu, ev_rep); // [emb(uᵢ) ⊕ emb(v)]
            let agg = self.att.aggregate(g, &self.store, &rows, &eu); // 1×d
            let rep = g.add(agg, pref);
            let cat = g.concat_cols(rep, ev);
            let s = self.pred.forward(g, &self.store, &cat);
            scores = Some(match scores {
                None => s,
                Some(acc) => g.concat_rows(acc, s),
            });
        }
        scores.expect("non-empty items")
    }

    /// Joint training: `user_epochs` over the user-item pairs, then
    /// `group_epochs` over the group-item pairs (shared embeddings).
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use groupsa_eval::{evaluate, EvalTask};

    fn toy() -> (Vec<(usize, usize)>, Bipartite, Vec<(usize, usize)>, Bipartite, Vec<Vec<usize>>) {
        // 12 users in 4 taste blocks; 6 groups of 2 from the same block.
        let mut up = Vec::new();
        for u in 0..12 {
            up.push((u, u % 4));
            up.push((u, 4 + u % 4));
        }
        let ui = Bipartite::from_pairs(12, 20, &up);
        let members: Vec<Vec<usize>> = (0..6).map(|t| vec![2 * t, 2 * t + 1]).collect();
        // Group t of users {2t, 2t+1} (same block iff 2t % 4 == (2t+1) % 4 — not
        // generally, but the signal is shared via item 2t%4).
        let gp: Vec<(usize, usize)> = (0..6).map(|t| (t, (2 * t) % 4)).collect();
        let gi = Bipartite::from_pairs(6, 20, &gp);
        (up, ui, gp, gi, members)
    }

    #[test]
    fn group_scores_use_membership() {
        let (_, ui, _, _, members) = toy();
        let agree = Agree::new(BaselineConfig::tiny(), ui.num_users(), ui.num_items(), members);
        let a = agree.score_group_items(0, &[0, 1, 2]);
        let b = agree.score_group_items(1, &[0, 1, 2]);
        assert!(a.iter().all(|x| x.is_finite()));
        assert_ne!(a, b, "different members must give different scores");
    }

    #[test]
    fn joint_training_fits_both_tasks() {
        let (up, ui, gp, gi, members) = toy();
        let mut cfg = BaselineConfig::tiny();
        cfg.user_epochs = 6;
        cfg.group_epochs = 12;
        let mut agree = Agree::new(cfg, ui.num_users(), ui.num_items(), members);
        let (ul, gl) = agree.fit(&up, &ui, &gp, &gi);
        assert!(ul.last().unwrap() < &ul[0], "user loss: {ul:?}");
        assert!(gl.last().unwrap() < &gl[0], "group loss: {gl:?}");

        let task = EvalTask { test_pairs: &gp, full_interactions: &gi, num_candidates: 12, ks: vec![5], seed: 6 };
        let hr = evaluate(&agree.group_scorer(), &task).hr(5);
        assert!(hr > 0.5, "AGREE must fit group training data: HR@5 = {hr}");
    }

    #[test]
    fn attention_weights_are_item_conditioned() {
        // Indirect check: scoring the same group on different items must
        // not be a constant shift of member contributions — covered by
        // score variation across items.
        let (_, ui, _, _, members) = toy();
        let agree = Agree::new(BaselineConfig::tiny(), ui.num_users(), ui.num_items(), members);
        let s = agree.score_group_items(0, &[0, 1, 2, 3, 4]);
        let distinct: std::collections::HashSet<u32> = s.iter().map(|x| x.to_bits()).collect();
        assert!(distinct.len() > 1);
    }
}
