//! §4.3's closing claim: incremental retraining recovers full accuracy.
//!
//! Table 6 shows detection in unseen environments is weaker than with
//! history (Table 5); the paper closes: "This problem is resolved by
//! retraining Env2Vec incrementally with the new data from the
//! environment." This experiment measures exactly that transition: the
//! *blind* model screens the evaluation chains, is then fine-tuned on
//! their (clean) historical executions, and screens again — detection
//! quality must move toward the with-history Table 5 level.

use env2vec::anomaly::AnomalyDetector;
use env2vec::dataframe::Dataframe;
use env2vec::pipeline::{history_error_distribution, Resource};
use env2vec::train::fine_tune_env2vec;
use env2vec_linalg::{stats, Result};

use crate::alarm_eval::{score_alarms, AlarmCounts};
use crate::render::TextTable;
use crate::telecom_study::TelecomStudy;

/// Detection counts before and after incremental retraining.
#[derive(Debug, Clone)]
pub struct FinetuneResult {
    /// Blind model, error distribution over the execution itself (the
    /// Table 6 condition), per γ in `{1, 2, 3}`.
    pub before: [AlarmCounts; 3],
    /// Fine-tuned model with per-chain error distributions from the now
    /// -available history (the Table 5 condition).
    pub after: [AlarmCounts; 3],
    /// Mean characterisation MAE on the evaluation chains' clean current
    /// builds with the blind model (before retraining).
    pub mae_before: f64,
    /// The same MAE after incremental retraining — the unconfounded
    /// measure of what the new data buys.
    pub mae_after: f64,
    /// Validation MSE trajectory of the fine-tune run.
    pub val_losses: Vec<f64>,
}

/// Runs the incremental-retraining transition on the study's evaluation
/// chains.
pub fn compute(study: &TelecomStudy) -> Result<FinetuneResult> {
    let window = study.window;
    let gammas = [1.0, 2.0, 3.0];

    // Before: the blind model in the unseen-environment condition.
    let mut before = [AlarmCounts::default(); 3];
    for &id in &study.eval_chain_ids {
        for (slot, &gamma) in gammas.iter().enumerate() {
            let counts = study
                .detect_unseen_on_chain(id, crate::telecom_study::Method::Env2Vec, gamma)?
                // envlint: allow(no-panic) — Env2Vec is defined for every
                // environment (the <unk> embedding), so detection never abstains.
                .expect("Env2Vec applies to unseen environments");
            before[slot].add(counts);
        }
    }

    // The "new data from the environment": the evaluation chains'
    // historical executions become available and the model absorbs them.
    // The blind vocabulary is frozen, so genuinely new EM values (e.g.
    // the held-out builds) still route through <unk>; embeddings of the
    // constructible components sharpen.
    let mut model = study.blind.0.clone();
    let mut frames = Vec::new();
    for &id in &study.eval_chain_ids {
        for ex in study.dataset.chains[id].history() {
            frames.push(Dataframe::from_series_frozen(
                &ex.cf,
                &ex.cpu,
                &ex.labels.values(),
                window,
                &study.blind_vocab,
            )?);
        }
    }
    let (train, val) = Dataframe::pooled_split(&frames, 0.2)?;

    // Characterisation quality on the (clean) current builds, before…
    let clean_mae = |m: &env2vec::Env2VecModel| -> Result<f64> {
        let mut total = 0.0;
        for &id in &study.eval_chain_ids {
            let current = study.dataset.chains[id].current();
            let df = Dataframe::from_series_frozen(
                &current.cf,
                &current.clean_cpu,
                &current.labels.values(),
                window,
                &study.blind_vocab,
            )?;
            total += stats::mae(&m.predict(&df)?, &df.target)?;
        }
        Ok(total / study.eval_chain_ids.len().max(1) as f64)
    };
    let mae_before = clean_mae(&model)?;
    let report = fine_tune_env2vec(&mut model, 15, 2e-3, &train, &val)?;
    let mae_after = clean_mae(&model)?;

    // After: with history available, use the Table 5 protocol (per-chain
    // error distribution from history).
    let mut after = [AlarmCounts::default(); 3];
    for &id in &study.eval_chain_ids {
        let chain = &study.dataset.chains[id];
        let dist = history_error_distribution(&model, chain, Resource::Cpu)?;
        let current = chain.current();
        let df = Dataframe::from_series_frozen(
            &current.cf,
            &current.cpu,
            &current.labels.values(),
            window,
            &study.blind_vocab,
        )?;
        let predicted = model.predict(&df)?;
        for (slot, &gamma) in gammas.iter().enumerate() {
            let detector = AnomalyDetector::new(gamma);
            let intervals = detector.detect(&dist, &predicted, &df.target)?;
            after[slot].add(score_alarms(&intervals, &current.faults, window, window));
        }
    }

    Ok(FinetuneResult {
        before,
        after,
        mae_before,
        mae_after,
        val_losses: report.val_losses,
    })
}

/// Renders the before/after comparison.
pub fn run(study: &TelecomStudy) -> Result<String> {
    let r = compute(study)?;
    let mut t = TextTable::new(&[
        "γ",
        "before: alarms",
        "correct",
        "A_T",
        "after: alarms",
        "correct",
        "A_T",
    ]);
    for (i, gamma) in [1.0f64, 2.0, 3.0].iter().enumerate() {
        let b = r.before[i];
        let a = r.after[i];
        t.row(&[
            format!("{gamma:.0}"),
            b.alarms.to_string(),
            b.correct.to_string(),
            format!("{:.3}", b.a_t()),
            a.alarms.to_string(),
            a.correct.to_string(),
            format!("{:.3}", a.a_t()),
        ]);
    }
    Ok(format!(
        "§4.3 incremental retraining: the blind model screens the unseen \
         executions (before), absorbs their newly available history via \
         fine-tuning, and screens again with per-chain error distributions \
         (after).\n\nCharacterisation MAE on the evaluation chains' clean \
         current builds: {:.3} before -> {:.3} after retraining.\n\n\
         Detection counts (note the protocols differ by design — the \
         'before' error distribution is computed over the faulty execution \
         itself, which inflates σ and raises precision at the cost of \
         recall):\n\n{}",
        r.mae_before,
        r.mae_after,
        t.render()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_retraining_improves_characterisation() {
        let study = crate::telecom_study::test_study();
        let r = compute(study).unwrap();
        // Fine-tuning must not diverge.
        assert!(r.val_losses.iter().all(|l| l.is_finite()));
        // The unconfounded claim: absorbing the environments' data makes
        // the model fit them better.
        assert!(
            r.mae_after <= r.mae_before * 1.02,
            "retraining must not hurt the fit: {:.3} -> {:.3}",
            r.mae_before,
            r.mae_after
        );
        // Detection totals remain in a sane range (protocols differ, so
        // only coarse sanity is asserted here).
        let correct_after: usize = r.after.iter().map(|c| c.correct).sum();
        assert!(correct_after > 0, "retrained model must still detect");
        let out = run(study).unwrap();
        assert!(out.contains("incremental retraining"));
        assert!(out.contains("Characterisation MAE"));
    }
}
