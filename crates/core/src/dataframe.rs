//! The model dataframe (paper Table 2).
//!
//! One row per timestep `p` of an execution: the contextual features
//! `a_p`, the EM tuple encoded through the vocabularies, the RU history
//! `{y_{p-n}, …, y_{p-1}}`, and the target `y_p`. The first `n` timesteps
//! of every execution are dropped because their history window is
//! incomplete. History columns are stored oldest-first, matching the
//! order the GRU consumes them.

use env2vec_linalg::{Error, Matrix, Result};

use crate::vocab::EmVocabulary;

/// A batch of model-ready rows.
///
/// # Examples
///
/// ```
/// use env2vec::dataframe::Dataframe;
/// use env2vec::vocab::EmVocabulary;
/// use env2vec_linalg::Matrix;
///
/// // Five timesteps of two contextual features plus the CPU series.
/// let cf = Matrix::from_rows(&(0..5).map(|t| vec![t as f64, 10.0]).collect::<Vec<_>>())?;
/// let cpu = vec![30.0, 31.0, 33.0, 32.0, 35.0];
///
/// let mut vocab = EmVocabulary::telecom();
/// let df = Dataframe::from_series(&cf, &cpu, &["tb", "sut", "tc", "S01"], 2, &mut vocab)?;
///
/// // The first two timesteps lack a full history window.
/// assert_eq!(df.len(), 3);
/// assert_eq!(df.history.row(0), &[30.0, 31.0]); // y_{p-2}, y_{p-1}
/// assert_eq!(df.target[0], 33.0);               // y_p
/// # Ok::<(), env2vec_linalg::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct Dataframe {
    /// `n x num_cf` contextual features (raw, unscaled).
    pub cf: Matrix,
    /// `n x window` RU history, oldest first (raw, unscaled).
    pub history: Matrix,
    /// Encoded EM tuple per row (`n` entries of `num_em_features`
    /// indices).
    pub em: Vec<Vec<usize>>,
    /// Target RU value per row.
    pub target: Vec<f64>,
}

impl Dataframe {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.target.len()
    }

    /// Whether the dataframe has no rows.
    pub fn is_empty(&self) -> bool {
        self.target.is_empty()
    }

    /// Builds rows from one execution's series, growing the vocabulary
    /// (training path).
    ///
    /// `em_values` is the execution's EM tuple (constant across its
    /// timesteps). Returns an error when the series is shorter than
    /// `window + 1` or the matrix/target lengths disagree.
    pub fn from_series(
        cf: &Matrix,
        ru: &[f64],
        em_values: &[&str],
        window: usize,
        vocab: &mut EmVocabulary,
    ) -> Result<Self> {
        let encoded = vocab.encode_or_add(em_values);
        Self::assemble(cf, ru, encoded, window)
    }

    /// Builds rows with a frozen vocabulary (inference path): unknown EM
    /// values map to `<unk>`.
    ///
    /// Returns an error when the series is shorter than `window + 1` or
    /// lengths disagree.
    pub fn from_series_frozen(
        cf: &Matrix,
        ru: &[f64],
        em_values: &[&str],
        window: usize,
        vocab: &EmVocabulary,
    ) -> Result<Self> {
        let encoded = vocab.encode(em_values);
        Self::assemble(cf, ru, encoded, window)
    }

    fn assemble(cf: &Matrix, ru: &[f64], encoded: Vec<usize>, window: usize) -> Result<Self> {
        if cf.rows() != ru.len() {
            return Err(Error::ShapeMismatch {
                op: "dataframe",
                lhs: cf.shape(),
                rhs: (ru.len(), 1),
            });
        }
        if window == 0 {
            return Err(Error::InvalidArgument {
                what: "history window must be at least 1",
            });
        }
        if ru.len() <= window {
            return Err(Error::InvalidArgument {
                what: "series shorter than history window",
            });
        }
        let rows = ru.len() - window;
        let cf_out = Matrix::from_fn(rows, cf.cols(), |i, j| cf.get(i + window, j));
        // History oldest-first: column j holds y_{p-window+j}.
        let history = Matrix::from_fn(rows, window, |i, j| ru[i + j]);
        let target = ru[window..].to_vec();
        let em = vec![encoded; rows];
        Ok(Dataframe {
            cf: cf_out,
            history,
            em,
            target,
        })
    }

    /// Concatenates dataframes (e.g. one per execution) into one training
    /// set, copying each frame's rows once.
    ///
    /// Returns an error for an empty list or mismatched widths.
    pub fn concat(frames: &[Dataframe]) -> Result<Dataframe> {
        if frames.is_empty() {
            return Err(Error::Empty {
                routine: "dataframe concat",
            });
        }
        let cf: Vec<&Matrix> = frames.iter().map(|f| &f.cf).collect();
        let history: Vec<&Matrix> = frames.iter().map(|f| &f.history).collect();
        let rows = frames.iter().map(Dataframe::len).sum();
        let mut em = Vec::with_capacity(rows);
        let mut target = Vec::with_capacity(rows);
        for f in frames {
            em.extend_from_slice(&f.em);
            target.extend_from_slice(&f.target);
        }
        Ok(Dataframe {
            cf: Matrix::vstack_all(&cf)?,
            history: Matrix::vstack_all(&history)?,
            em,
            target,
        })
    }

    /// Splits every frame (one per execution) at its tail with
    /// [`Dataframe::split_validation`] and pools each side with
    /// [`Dataframe::concat`], so each environment appears in both sets (a
    /// tail split of the pooled frame would remove whole environments
    /// from training).
    ///
    /// Returns an error when a frame cannot be split or the list is
    /// empty.
    pub fn pooled_split(frames: &[Dataframe], fraction: f64) -> Result<(Dataframe, Dataframe)> {
        let (trains, vals): (Vec<_>, Vec<_>) = frames
            .iter()
            .map(|f| f.split_validation(fraction))
            .collect::<Result<Vec<_>>>()?
            .into_iter()
            .unzip();
        Ok((Self::concat(&trains)?, Self::concat(&vals)?))
    }

    /// Extracts the given rows into a new dataframe (mini-batching).
    ///
    /// Returns an error when an index is out of range.
    pub fn select(&self, indices: &[usize]) -> Result<Dataframe> {
        for &i in indices {
            if i >= self.len() {
                return Err(Error::IndexOutOfBounds {
                    index: i,
                    len: self.len(),
                });
            }
        }
        Ok(Dataframe {
            cf: self.cf.select_rows(indices)?,
            history: self.history.select_rows(indices)?,
            em: indices.iter().map(|&i| self.em[i].clone()).collect(),
            target: indices.iter().map(|&i| self.target[i]).collect(),
        })
    }

    /// Splits off the trailing `fraction` of rows as a validation set
    /// (time-ordered split, as the paper uses for time series).
    ///
    /// Returns an error when either side would be empty.
    pub fn split_validation(&self, fraction: f64) -> Result<(Dataframe, Dataframe)> {
        // envlint: allow(float-cmp) — exact boundary check: 0.0 is the one
        // rejected value the half-open range pattern cannot exclude.
        if !(0.0..1.0).contains(&fraction) || fraction == 0.0 {
            return Err(Error::InvalidArgument {
                what: "validation fraction must be in (0, 1)",
            });
        }
        if self.len() < 2 {
            return Err(Error::InvalidArgument {
                what: "need at least two rows to split",
            });
        }
        let n_val = ((self.len() as f64) * fraction).round() as usize;
        let n_val = n_val.clamp(1, self.len() - 1);
        let train_idx: Vec<usize> = (0..self.len() - n_val).collect();
        let val_idx: Vec<usize> = (self.len() - n_val..self.len()).collect();
        Ok((self.select(&train_idx)?, self.select(&val_idx)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Matrix, Vec<f64>) {
        let cf = Matrix::from_rows(
            &(0..6)
                .map(|i| vec![i as f64, 10.0 * i as f64])
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let ru = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        (cf, ru)
    }

    #[test]
    fn assembles_history_and_targets() {
        let (cf, ru) = tiny();
        let mut vocab = EmVocabulary::telecom();
        let df = Dataframe::from_series(&cf, &ru, &["tb", "s", "tc", "b"], 2, &mut vocab).unwrap();
        assert_eq!(df.len(), 4);
        // Row 0 ↔ p=2: history [y0, y1] (oldest first), target y2, CF row 2.
        assert_eq!(df.history.row(0), &[1.0, 2.0]);
        assert_eq!(df.target[0], 3.0);
        assert_eq!(df.cf.row(0), &[2.0, 20.0]);
        // Last row ↔ p=5.
        assert_eq!(df.history.row(3), &[4.0, 5.0]);
        assert_eq!(df.target[3], 6.0);
        // EM encoded identically on all rows.
        assert!(df.em.iter().all(|e| e == &vec![1, 1, 1, 1]));
    }

    #[test]
    fn frozen_vocab_maps_unknowns() {
        let (cf, ru) = tiny();
        let mut vocab = EmVocabulary::telecom();
        vocab.encode_or_add(&["tb", "s", "tc", "b"]);
        let df = Dataframe::from_series_frozen(&cf, &ru, &["tb", "NEW_SUT", "tc", "b"], 1, &vocab)
            .unwrap();
        assert_eq!(df.em[0], vec![1, 0, 1, 1]);
    }

    #[test]
    fn rejects_bad_shapes() {
        let (cf, ru) = tiny();
        let mut vocab = EmVocabulary::telecom();
        assert!(
            Dataframe::from_series(&cf, &ru[..4], &["a", "b", "c", "d"], 2, &mut vocab).is_err()
        );
        assert!(Dataframe::from_series(&cf, &ru, &["a", "b", "c", "d"], 0, &mut vocab).is_err());
        assert!(Dataframe::from_series(&cf, &ru, &["a", "b", "c", "d"], 6, &mut vocab).is_err());
    }

    #[test]
    fn concat_and_select() {
        let (cf, ru) = tiny();
        let mut vocab = EmVocabulary::telecom();
        let a = Dataframe::from_series(&cf, &ru, &["t1", "s", "tc", "b1"], 2, &mut vocab).unwrap();
        let b = Dataframe::from_series(&cf, &ru, &["t2", "s", "tc", "b2"], 2, &mut vocab).unwrap();
        let joined = Dataframe::concat(&[a.clone(), b]).unwrap();
        assert_eq!(joined.len(), 8);
        assert_eq!(joined.em[0], vec![1, 1, 1, 1]);
        assert_eq!(joined.em[4], vec![2, 1, 1, 2]);

        let picked = joined.select(&[0, 4]).unwrap();
        assert_eq!(picked.len(), 2);
        assert_eq!(picked.target, vec![3.0, 3.0]);
        assert!(joined.select(&[99]).is_err());
        assert!(Dataframe::concat(&[]).is_err());
    }

    #[test]
    fn validation_split_is_time_ordered() {
        let (cf, ru) = tiny();
        let mut vocab = EmVocabulary::telecom();
        let df = Dataframe::from_series(&cf, &ru, &["t", "s", "tc", "b"], 1, &mut vocab).unwrap();
        let (train, val) = df.split_validation(0.4).unwrap();
        assert_eq!(train.len() + val.len(), df.len());
        // Validation rows are the most recent ones.
        assert_eq!(val.target.last(), df.target.last());
        assert!(train.target[0] < val.target[0]);
        assert!(df.split_validation(0.0).is_err());
        assert!(df.split_validation(1.0).is_err());
    }

    #[test]
    fn one_row_frame_refuses_to_split() {
        let (cf, ru) = tiny();
        let mut vocab = EmVocabulary::telecom();
        let df = Dataframe::from_series(
            &cf.select_rows(&[0, 1, 2]).unwrap(),
            &ru[..3],
            &["t", "s", "tc", "b"],
            2,
            &mut vocab,
        )
        .unwrap();
        assert_eq!(df.len(), 1);
        assert!(matches!(
            df.split_validation(0.15),
            Err(Error::InvalidArgument { .. })
        ));
        assert!(Dataframe::pooled_split(&[df.clone(), df], 0.15).is_err());
    }

    /// Three frames of different lengths (4, 3 and 2 rows) and EM
    /// tuples.
    fn three_frames() -> Vec<Dataframe> {
        let (cf, ru) = tiny();
        let mut vocab = EmVocabulary::telecom();
        [("t1", 6), ("t2", 5), ("t3", 4)]
            .iter()
            .map(|&(tb, steps)| {
                let cf = cf.select_rows(&(0..steps).collect::<Vec<_>>()).unwrap();
                Dataframe::from_series(&cf, &ru[..steps], &[tb, "s", "tc", "b"], 2, &mut vocab)
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn concat_matches_pairwise_vstack_bitwise() {
        let frames = three_frames();
        let joined = Dataframe::concat(&frames).unwrap();
        let (mut cf, mut history) = (frames[0].cf.clone(), frames[0].history.clone());
        for f in &frames[1..] {
            cf = cf.vstack(&f.cf).unwrap();
            history = history.vstack(&f.history).unwrap();
        }
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&joined.cf), bits(&cf));
        assert_eq!(bits(&joined.history), bits(&history));
    }

    #[test]
    fn concat_keeps_em_and_target_in_frame_order() {
        let frames = three_frames();
        let joined = Dataframe::concat(&frames).unwrap();
        let em: Vec<Vec<usize>> = frames.iter().flat_map(|f| f.em.clone()).collect();
        let target: Vec<f64> = frames.iter().flat_map(|f| f.target.clone()).collect();
        assert_eq!(joined.len(), 4 + 3 + 2);
        assert_eq!(joined.em, em);
        assert_eq!(joined.target, target);
        assert_eq!(joined.em[4][0], 2, "second frame starts at row 4");
    }

    #[test]
    fn concat_rejects_a_later_width_mismatch() {
        let mut frames = three_frames();
        frames[2].cf = Matrix::zeros(frames[2].len(), 3);
        assert!(matches!(
            Dataframe::concat(&frames),
            Err(Error::ShapeMismatch { op: "vstack", .. })
        ));
        let mut frames = three_frames();
        frames[1].history = Matrix::zeros(frames[1].len(), 1);
        assert!(Dataframe::concat(&frames).is_err());
    }

    #[test]
    fn pooled_split_keeps_every_environment_on_both_sides() {
        let frames = three_frames();
        let (train, val) = Dataframe::pooled_split(&frames, 0.4).unwrap();
        assert_eq!(train.len() + val.len(), 9);
        for side in [&train, &val] {
            let mut testbeds: Vec<usize> = side.em.iter().map(|e| e[0]).collect();
            testbeds.dedup();
            assert_eq!(testbeds, vec![1, 2, 3]);
        }
    }
}
