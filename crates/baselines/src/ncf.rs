//! Neural Collaborative Filtering (He et al., WWW 2017) — the NeuMF
//! fusion of GMF and an MLP tower, trained with BPR.
//!
//! On the group task the paper instantiates NCF with each *group as a
//! virtual user*, discarding membership information entirely; [`Ncf`]
//! is generic over the left-hand entity set, so the same code serves
//! both tasks.

use crate::common::bpr_epoch;
use crate::config::BaselineConfig;
use groupsa_eval::Scorer;
use groupsa_graph::Bipartite;
use groupsa_nn::optim::Adam;
use groupsa_nn::{Embedding, Init, Linear, Mlp, ParamStore};
use groupsa_tensor::rng::{seeded, StdRng};
use groupsa_tensor::{Eager, Forward};

/// NeuMF: `score = head([ (p ⊙ q) ⊕ MLP([p' ⊕ q']) ])` with separate
/// GMF and MLP embedding tables, as in the original paper.
pub struct Ncf {
    cfg: BaselineConfig,
    store: ParamStore,
    net: NeuMf,
    rng: StdRng,
}

/// NeuMF's layers; their parameters live in the owning [`Ncf`]'s store.
struct NeuMf {
    gmf_entity: Embedding,
    gmf_item: Embedding,
    mlp_entity: Embedding,
    mlp_item: Embedding,
    tower: Mlp,
    head: Linear,
}

impl NeuMf {
    /// The scores of `items` for `entity`, an `items.len()×1` value.
    fn scores<'p, F: Forward<'p>>(&self, f: &mut F, store: &'p ParamStore, entity: usize, items: &[usize]) -> F::Value {
        let n = items.len();
        let pu = self.gmf_entity.lookup(f, store, &[entity]);
        let pu = f.repeat_rows(&pu, n);
        let qi = self.gmf_item.lookup(f, store, items);
        let gmf = f.mul_elem(&pu, &qi); // n×d

        let pu2 = self.mlp_entity.lookup(f, store, &[entity]);
        let pu2 = f.repeat_rows(&pu2, n);
        let qi2 = self.mlp_item.lookup(f, store, items);
        let cat = f.concat_cols(&pu2, &qi2);
        let mlp = self.tower.forward(f, store, &cat); // n×half

        let fused = f.concat_cols(&gmf, &mlp);
        self.head.forward(f, store, &fused) // n×1
    }
}

impl Ncf {
    /// A fresh NeuMF over `num_entities` left-hand entities (users, or
    /// groups-as-virtual-users) and `num_items` items.
    pub fn new(cfg: BaselineConfig, num_entities: usize, num_items: usize) -> Self {
        let mut rng = seeded(cfg.seed);
        let mut store = ParamStore::new();
        let d = cfg.embed_dim;
        let half = (d / 2).max(1);
        let gmf_entity = Embedding::new(&mut store, &mut rng, "gmf_entity", num_entities, d, Init::Glorot);
        let gmf_item = Embedding::new(&mut store, &mut rng, "gmf_item", num_items, d, Init::Glorot);
        let mlp_entity = Embedding::new(&mut store, &mut rng, "mlp_entity", num_entities, d, Init::Glorot);
        let mlp_item = Embedding::new(&mut store, &mut rng, "mlp_item", num_items, d, Init::Glorot);
        let tower = Mlp::new(&mut store, &mut rng, "tower", &[2 * d, d, half], true);
        let head = Linear::new(&mut store, &mut rng, "head", d + half, 1, Init::PAPER_HIDDEN);
        let net = NeuMf { gmf_entity, gmf_item, mlp_entity, mlp_item, tower, head };
        let rng = seeded(cfg.seed.wrapping_add(1));
        Self { cfg, store, net, rng }
    }

    /// One BPR epoch over `pairs` (negatives sampled against `graph`).
    /// Returns the mean loss. Each epoch starts a fresh Adam, so its
    /// moments and bias-correction step restart every epoch.
    pub fn epoch(&mut self, pairs: &[(usize, usize)], graph: &Bipartite) -> f32 {
        let mut opt = Adam { weight_decay: self.cfg.weight_decay, ..Adam::new(self.cfg.learning_rate) };
        let net = &self.net;
        bpr_epoch(&self.cfg, &mut self.rng, &mut self.store, &mut opt, pairs, graph, |g, store, e, items| {
            net.scores(g, store, e, items)
        })
    }

    /// Trains for `cfg.group_epochs` epochs (the entity relation is
    /// whatever `pairs` describes). Returns per-epoch mean losses.
    pub fn fit(&mut self, pairs: &[(usize, usize)], graph: &Bipartite) -> Vec<f32> {
        let epochs = self.cfg.group_epochs;
        (0..epochs).map(|_| self.epoch(pairs, graph)).collect()
    }

    /// Candidate scores, evaluated eagerly.
    pub fn score_items(&self, entity: usize, items: &[usize]) -> Vec<f32> {
        self.net.scores(&mut Eager, &self.store, entity, items).into_owned().into_vec()
    }

    /// An evaluation-protocol scorer.
    pub fn scorer(&self) -> impl Scorer + '_ {
        move |entity: usize, items: &[usize]| self.score_items(entity, items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{assert_eager_matches_tape, tape_scores};
    use groupsa_eval::{evaluate, EvalTask};

    /// Entities prefer item = entity % 4 strongly, plus shared noise.
    fn toy() -> (Vec<(usize, usize)>, Bipartite) {
        let mut pairs = Vec::new();
        for e in 0..24 {
            pairs.push((e, e % 4));
            pairs.push((e, 4 + e % 3));
        }
        let g = Bipartite::from_pairs(24, 30, &pairs);
        (pairs, g)
    }

    #[test]
    fn scores_are_finite_and_entity_specific() {
        let (_, g) = toy();
        let ncf = Ncf::new(BaselineConfig::tiny(), g.num_users(), g.num_items());
        let a = ncf.score_items(0, &[0, 1, 2]);
        let b = ncf.score_items(1, &[0, 1, 2]);
        assert!(a.iter().all(|x| x.is_finite()));
        assert_ne!(a, b);
    }

    #[test]
    fn training_reduces_loss_and_fits_data() {
        let (pairs, g) = toy();
        let mut cfg = BaselineConfig::tiny();
        cfg.group_epochs = 8;
        let mut ncf = Ncf::new(cfg, g.num_users(), g.num_items());
        let losses = ncf.fit(&pairs, &g);
        assert!(losses.last().unwrap() < &losses[0], "{losses:?}");

        let task = EvalTask { test_pairs: &pairs, full_interactions: &g, num_candidates: 15, ks: vec![5], seed: 4 };
        let hr = evaluate(&ncf.scorer(), &task).hr(5);
        assert!(hr > 0.6, "NCF must fit its training data: HR@5 = {hr}");
    }

    #[test]
    fn eager_scorer_evaluates_exactly_as_the_tape() {
        let (pairs, g) = toy();
        let mut ncf = Ncf::new(BaselineConfig::tiny(), g.num_users(), g.num_items());
        ncf.epoch(&pairs, &g);
        let tape = |e: usize, items: &[usize]| tape_scores(|t| ncf.net.scores(t, &ncf.store, e, items));
        assert_eager_matches_tape(&ncf.scorer(), &tape, &pairs, &g);
    }

    #[test]
    fn deterministic_under_seed() {
        let (pairs, g) = toy();
        let run = || {
            let mut ncf = Ncf::new(BaselineConfig::tiny(), g.num_users(), g.num_items());
            ncf.epoch(&pairs, &g);
            ncf.score_items(0, &[0, 1, 2, 3])
        };
        assert_eq!(run(), run());
    }
}
