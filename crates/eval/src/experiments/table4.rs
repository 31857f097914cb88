//! Table 4: MAE/MSE of all methods on the three KDN datasets.
//!
//! The headline §4.1 result: the single Env2Vec model is best-or-
//! competitive against per-dataset models, and beats the pooled
//! no-embedding variant (`RFNN_all`) everywhere.

use env2vec_linalg::Result;

use crate::kdn_models::{evaluate_kdn, Significance, VnfResults};
use crate::options::EvalOptions;
use crate::render::TextTable;

/// Computes the full Table 4 payload.
pub fn compute(opts: &EvalOptions) -> Result<(Vec<VnfResults>, Vec<Significance>)> {
    evaluate_kdn(opts)
}

/// Renders the table in the paper's layout (methods × VNF columns).
pub fn run(opts: &EvalOptions) -> Result<String> {
    let (results, significance) = compute(opts)?;
    let mut t = TextTable::new(&[
        "Method",
        "Snort MAE",
        "Snort MSE",
        "Firewall MAE",
        "Firewall MSE",
        "Switch MAE",
        "Switch MSE",
    ]);
    let order = [
        "Ridge", "Ridge_ts", "RFReg", "SVR", "FNN", "RFNN", "RFNN_all", "Env2Vec",
    ];
    let by_vnf = |name: &str| -> Vec<String> {
        let mut cells = vec![name.to_string()];
        for vnf_name in ["Snort", "Firewall", "Switch"] {
            let vr = results
                .iter()
                .find(|r| r.vnf.name() == vnf_name)
                // envlint: allow(no-panic) — compute() evaluates exactly the three
                // VNFs this renderer names.
                .expect("all three VNFs evaluated");
            // envlint: allow(no-panic) — every result row carries the full
            // fixed method list rendered here.
            let m = vr.method(name).expect("method present");
            cells.push(m.mae.render());
            cells.push(m.mse.render());
        }
        // Reorder: the header interleaves (Snort, Firewall, Switch).
        cells
    };
    for name in order {
        t.row(&by_vnf(name));
    }
    let mut out = format!(
        "Table 4. MSE and MAE on the three VNF datasets (synthetic KDN \
         equivalents; neural methods averaged over {} runs).\n\n{}",
        opts.runs,
        t.render()
    );
    for s in &significance {
        out.push_str(&format!(
            "paired t-test Env2Vec vs {}: p = {:.4} ({})\n",
            s.versus,
            s.p_value,
            if s.significant {
                "significant at 0.05"
            } else {
                "not significant"
            }
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One expensive end-to-end check of the Table 4 *shape*: Env2Vec must
    /// beat the pooled no-embedding model on every dataset, and the
    /// history-using ridge must beat plain ridge on the autocorrelated
    /// switch data. The neural rows' mean MAEs are also pinned bit for
    /// bit, so a change to any neural model's construction, forward pass
    /// or training loop shows up here at every thread count.
    #[test]
    fn table4_shape_holds_in_fast_mode() {
        let (results, _) = compute(&EvalOptions::fast()).unwrap();
        assert_eq!(results.len(), 3);
        // Mean-MAE bits of [FNN, RFNN, RFNN_all, Env2Vec] for Snort,
        // Firewall and Switch, the order `compute` returns.
        let golden: [[u64; 4]; 3] = [
            [
                0x4011b98167eff6a9,
                0x4015528906a4323f,
                0x401e8e1abbb9e02e,
                0x40166777668ea747,
            ],
            [
                0x4022263025510a4e,
                0x4022c46d9d299d86,
                0x40345d71f5e85da2,
                0x4022d729603c8a69,
            ],
            [
                0x403728e8422e2f4b,
                0x4028ee376876a27c,
                0x402dc6c902af1950,
                0x4028c1a0f3e3bf60,
            ],
        ];
        for (vr, bits) in results.iter().zip(golden) {
            for (method, want) in ["FNN", "RFNN", "RFNN_all", "Env2Vec"].into_iter().zip(bits) {
                let got = vr.method(method).unwrap().mae.mean;
                assert_eq!(
                    got.to_bits(),
                    want,
                    "{} {method} mean MAE {got} ({:#018x}) != golden {} ({want:#018x})",
                    vr.vnf.name(),
                    got.to_bits(),
                    f64::from_bits(want),
                );
            }
        }
        for vr in &results {
            let env2vec = vr.method("Env2Vec").unwrap().mae.mean;
            let rfnn_all = vr.method("RFNN_all").unwrap().mae.mean;
            assert!(
                env2vec < rfnn_all,
                "{}: Env2Vec {env2vec} must beat RFNN_all {rfnn_all}",
                vr.vnf.name()
            );
        }
        let switch = results.iter().find(|r| r.vnf.name() == "Switch").unwrap();
        let ridge = switch.method("Ridge").unwrap().mae.mean;
        let ridge_ts = switch.method("Ridge_ts").unwrap().mae.mean;
        assert!(
            ridge_ts < ridge,
            "Switch: Ridge_ts {ridge_ts} must beat Ridge {ridge}"
        );
    }

    #[test]
    fn rendering_contains_all_methods() {
        let out = run(&EvalOptions::fast()).unwrap();
        for m in [
            "Ridge", "Ridge_ts", "RFReg", "SVR", "FNN", "RFNN", "RFNN_all", "Env2Vec",
        ] {
            assert!(out.contains(m), "missing {m}");
        }
    }
}
