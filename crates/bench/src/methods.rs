//! Train-and-evaluate drivers for every method in the paper's tables.

use crate::env::ExperimentEnv;
use groupsa_baselines::aggregation::ALL_STRATEGIES;
use groupsa_baselines::{Agree, BaselineConfig, Ncf, Pop, SigrLike};
use groupsa_core::{DataContext, GroupSa, GroupSaConfig, TrainReport, Trainer};
use groupsa_eval::EvalResult;

/// A trained GroupSA model bundled with its data context.
pub struct TrainedGroupSa {
    /// The trained model.
    pub model: GroupSa,
    /// The context it was trained with.
    pub ctx: DataContext,
    /// Loss curves.
    pub report: TrainReport,
}

/// Trains GroupSA (or an ablated variant, per `cfg.ablation`) on the
/// environment's training split.
pub fn train_groupsa(env: &ExperimentEnv, cfg: GroupSaConfig) -> TrainedGroupSa {
    let ctx = DataContext::build(&env.dataset, &env.split, &cfg);
    let mut model = GroupSa::new(cfg.clone(), env.dataset.num_users, env.dataset.num_items);
    let report = Trainer::new(cfg).fit(&mut model, &ctx);
    TrainedGroupSa { model, ctx, report }
}

/// `(user-task result, group-task result)` for a trained GroupSA.
pub fn eval_groupsa(env: &ExperimentEnv, trained: &TrainedGroupSa) -> (EvalResult, EvalResult) {
    let user = env.eval_user(&trained.model.user_scorer(&trained.ctx));
    let group = env.eval_group(&trained.model.group_scorer(&trained.ctx));
    (user, group)
}

/// Evaluates the three static score-aggregation baselines on top of a
/// trained GroupSA, in paper order (avg, lm, ms).
pub fn eval_static_aggregations(env: &ExperimentEnv, trained: &TrainedGroupSa) -> Vec<(&'static str, EvalResult)> {
    ALL_STRATEGIES
        .iter()
        .map(|&s| (s.label(), env.eval_group(&trained.model.fast_group_scorer(&trained.ctx, s))))
        .collect()
}

/// Trains and evaluates the Pop baseline (training popularity over both
/// relations): `(user result, group result)`.
pub fn run_pop(env: &ExperimentEnv) -> (EvalResult, EvalResult) {
    let train = env.split.train_view(&env.dataset);
    let ui = train.user_item_graph();
    let gi = train.group_item_graph();
    let pop = Pop::fit_many(&[&ui, &gi]);
    (env.eval_user(&pop), env.eval_group(&pop))
}

/// Trains NCF twice — on user-item pairs, and on group-item pairs with
/// groups as virtual users — returning `(user result, group result)`.
pub fn run_ncf(env: &ExperimentEnv, cfg: BaselineConfig) -> (EvalResult, EvalResult) {
    let train = env.split.train_view(&env.dataset);
    let ui = train.user_item_graph();
    let gi = train.group_item_graph();

    // The user-side NCF trains as long as the other methods' user stage.
    let mut user_model = Ncf::new(cfg.clone(), env.dataset.num_users, env.dataset.num_items);
    for _ in 0..cfg.user_epochs {
        user_model.epoch(&train.user_item, &ui);
    }
    // The group-side NCF treats every group as a virtual user.
    let mut group_model = Ncf::new(cfg.clone(), env.dataset.num_groups(), env.dataset.num_items);
    for _ in 0..cfg.group_epochs {
        group_model.epoch(&train.group_item, &gi);
    }

    let user = env.eval_user(&user_model.scorer());
    let group = env.eval_group(&group_model.scorer());
    (user, group)
}

/// Trains and evaluates AGREE: `(user result, group result)`.
pub fn run_agree(env: &ExperimentEnv, cfg: BaselineConfig) -> (EvalResult, EvalResult) {
    let train = env.split.train_view(&env.dataset);
    let ui = train.user_item_graph();
    let gi = train.group_item_graph();
    let mut agree = Agree::new(cfg, env.dataset.num_users, env.dataset.num_items, env.dataset.groups.clone());
    let _ = agree.fit(&train.user_item, &ui, &train.group_item, &gi);
    let user = env.eval_user(&agree.user_scorer());
    let group = env.eval_group(&agree.group_scorer());
    (user, group)
}

/// Trains and evaluates the SIGR-like baseline: `(user, group)`.
pub fn run_sigr(env: &ExperimentEnv, cfg: BaselineConfig) -> (EvalResult, EvalResult) {
    let train = env.split.train_view(&env.dataset);
    let ui = train.user_item_graph();
    let gi = train.group_item_graph();
    let social = train.social_graph();
    let mut sigr = SigrLike::new(cfg, env.dataset.num_users, env.dataset.num_items, env.dataset.groups.clone(), &social);
    let _ = sigr.fit(&train.user_item, &ui, &train.group_item, &gi);
    let user = env.eval_user(&sigr.user_scorer());
    let group = env.eval_group(&sigr.group_scorer());
    (user, group)
}
