//! What the neural baselines share: one BPR training epoch, and the
//! concatenation tower AGREE and SIGR-like score their user task with.

use crate::config::BaselineConfig;
use groupsa_data::sampling;
use groupsa_graph::Bipartite;
use groupsa_nn::loss::bpr_one_vs_rest;
use groupsa_nn::optim::{Adam, Optimizer};
use groupsa_nn::{Embedding, Mlp, ParamStore};
use groupsa_tensor::rng::StdRng;
use groupsa_tensor::{Forward, Graph, NodeId};

/// One BPR epoch over `pairs`: draws `cfg.num_negatives` negatives per
/// pair against `graph`, records `scores(tape, store, entity, [positive,
/// negatives…])` for each example on a fresh tape, accumulates the
/// gradient of [`bpr_one_vs_rest`] into `store`, and steps `opt` every
/// `cfg.batch_size` examples and after the last. Returns the mean loss.
pub(crate) fn bpr_epoch(
    cfg: &BaselineConfig,
    rng: &mut StdRng,
    store: &mut ParamStore,
    opt: &mut Adam,
    pairs: &[(usize, usize)],
    graph: &Bipartite,
    scores: impl Fn(&mut Graph, &ParamStore, usize, &[usize]) -> NodeId,
) -> f32 {
    let examples: Vec<_> = sampling::bpr_epoch(rng, pairs, graph, cfg.num_negatives).collect();
    let mut total = 0.0;
    for (i, ex) in examples.iter().enumerate() {
        let mut items = vec![ex.positive];
        items.extend_from_slice(&ex.negatives);
        let mut g = Graph::new();
        let s = scores(&mut g, store, ex.entity, &items);
        let loss = bpr_one_vs_rest(&mut g, s);
        total += g.value(loss).scalar();
        let grads = g.backward(loss);
        store.accumulate(&g, &grads);
        if (i + 1) % cfg.batch_size == 0 || i + 1 == examples.len() {
            opt.step(store);
        }
    }
    total / examples.len().max(1) as f32
}

/// The user-task scores of AGREE and SIGR-like: `MLP([emb(u) ⊕ emb(v)])`
/// for each candidate `v`, an `items.len()×1` value.
pub(crate) fn concat_tower<'p, F: Forward<'p>>(
    f: &mut F,
    store: &'p ParamStore,
    (emb_user, emb_item, pred): (&Embedding, &Embedding, &Mlp),
    user: usize,
    items: &[usize],
) -> F::Value {
    let eu = emb_user.lookup(f, store, &[user]);
    let eu = f.repeat_rows(&eu, items.len());
    let ev = emb_item.lookup(f, store, items);
    let cat = f.concat_cols(&eu, &ev);
    pred.forward(f, store, &cat)
}

/// Asserts that `eager` evaluates `pairs` exactly as `tape`, the same
/// definition recorded on a [`Graph`]: equal eval outcomes on the same
/// sampled candidates, and equal score bits.
#[cfg(test)]
pub(crate) fn assert_eager_matches_tape(
    eager: &dyn groupsa_eval::Scorer,
    tape: &dyn groupsa_eval::Scorer,
    pairs: &[(usize, usize)],
    full: &Bipartite,
) {
    use groupsa_eval::{evaluate, EvalTask};
    let task = EvalTask { test_pairs: pairs, full_interactions: full, num_candidates: 10, ks: vec![5], seed: 5 };
    assert_eq!(evaluate(eager, &task).outcomes, evaluate(tape, &task).outcomes);
    let bits = |s: Vec<f32>| s.into_iter().map(f32::to_bits).collect::<Vec<_>>();
    for &(e, i) in pairs {
        let items = [i, 0, 1, 2, 3];
        assert_eq!(bits(eager.score(e, &items)), bits(tape.score(e, &items)), "entity {e}");
    }
}

/// `scores` recorded on a fresh tape, read back as a score vector.
#[cfg(test)]
pub(crate) fn tape_scores(scores: impl FnOnce(&mut Graph) -> NodeId) -> Vec<f32> {
    let mut g = Graph::new();
    let s = scores(&mut g);
    g.value(s).as_slice().to_vec()
}
