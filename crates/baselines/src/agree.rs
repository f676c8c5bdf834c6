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

use crate::common::{bpr_epoch, concat_tower};
use crate::config::BaselineConfig;
use groupsa_eval::Scorer;
use groupsa_graph::Bipartite;
use groupsa_nn::optim::Adam;
use groupsa_nn::{Embedding, Init, Mlp, ParamStore, VanillaAttention};
use groupsa_tensor::rng::{seeded, StdRng};
use groupsa_tensor::{Eager, Forward};

/// The AGREE model. Group `t`'s representation for item `v` is
/// `Σᵢ α(v, uᵢ)·emb(uᵢ) + q_t` with `α` a two-layer attention over
/// `[emb(uᵢ) ⊕ emb(v)]`.
pub struct Agree {
    cfg: BaselineConfig,
    store: ParamStore,
    net: AgreeNet,
    rng: StdRng,
}

/// AGREE's layers and group memberships; the parameters live in the
/// owning [`Agree`]'s store.
struct AgreeNet {
    emb_user: Embedding,
    emb_item: Embedding,
    /// Learned per-group preference embedding `q_t`.
    emb_group_pref: Embedding,
    att: VanillaAttention,
    pred: Mlp,
    members: Vec<Vec<usize>>,
}

impl AgreeNet {
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
        let pref = self.emb_group_pref.lookup(f, store, &[group]); // 1×d
        let ev_all = self.emb_item.lookup(f, store, items); // n×d
        f.stack_rows(items.len(), |f, idx| {
            let ev = f.slice_rows(&ev_all, idx, 1);
            let ev_rep = f.repeat_rows(&ev, members.len());
            let rows = f.concat_cols(&eu, &ev_rep); // [emb(uᵢ) ⊕ emb(v)]
            let agg = self.att.aggregate(f, store, &rows, &eu); // 1×d
            let rep = f.add(&agg, &pref);
            let cat = f.concat_cols(&rep, &ev);
            self.pred.forward(f, store, &cat)
        })
    }
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
        let net = AgreeNet { emb_user, emb_item, emb_group_pref, att, pred, members };
        let rng = seeded(cfg.seed.wrapping_add(17));
        Self { cfg, store, net, rng }
    }

    /// Joint training: `user_epochs` over the user-item pairs, then
    /// `group_epochs` over the group-item pairs (shared embeddings, one
    /// Adam across both stages). Returns `(user_losses, group_losses)`.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{assert_eager_matches_tape, tape_scores};
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
    fn eager_scorers_evaluate_exactly_as_the_tape() {
        let (up, ui, gp, gi, members) = toy();
        let mut cfg = BaselineConfig::tiny();
        cfg.user_epochs = 1;
        cfg.group_epochs = 1;
        let mut agree = Agree::new(cfg, ui.num_users(), ui.num_items(), members);
        agree.fit(&up, &ui, &gp, &gi);
        let (net, store) = (&agree.net, &agree.store);
        let user_tape = |u: usize, items: &[usize]| tape_scores(|g| net.user_scores(g, store, u, items));
        assert_eager_matches_tape(&agree.user_scorer(), &user_tape, &up, &ui);
        let group_tape = |t: usize, items: &[usize]| tape_scores(|g| net.group_scores(g, store, t, items));
        assert_eager_matches_tape(&agree.group_scorer(), &group_tape, &gp, &gi);
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
