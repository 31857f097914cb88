//! The `env2vec` binary's flag handling, run as a child process.

use std::process::Command;

#[test]
fn misspelt_flag_is_rejected_and_nothing_is_written() {
    let out_path =
        std::env::temp_dir().join(format!("env2vec-misspelt-flag-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&out_path);
    let out = Command::new(env!("CARGO_BIN_EXE_env2vec"))
        .args(["generate", "--preset", "small", "--sed", "5", "--out"])
        .arg(&out_path)
        .output()
        .expect("env2vec runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("unknown flag --sed"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
    assert!(!out_path.exists(), "no dataset may be written");
}

fn env2vec(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_env2vec"))
        .args(args)
        .output()
        .expect("env2vec runs")
}

#[test]
fn truncated_model_matrix_is_rejected_without_a_panic() {
    let dir = std::env::temp_dir().join(format!("env2vec-truncated-model-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (dataset, model, alarms) = (path("ds.json"), path("model.json"), path("alarms.json"));
    let _ = std::fs::remove_file(&alarms);
    let generate = [
        "generate", "--preset", "small", "--seed", "7", "--out", &dataset,
    ];
    let train = [
        "train",
        "--dataset",
        &dataset,
        "--epochs",
        "1",
        "--out",
        &model,
    ];
    for args in [&generate[..], &train] {
        let out = env2vec(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {stderr}");
    }

    // Drop the first value of the first weight matrix (`fnn.w`): its
    // `rows × cols` no longer matches its `data`.
    let json = std::fs::read_to_string(&model).unwrap();
    let params = json.find("\"params\"").unwrap();
    let data = params + json[params..].find("\"data\":[").unwrap() + "\"data\":[".len();
    let comma = data + json[data..].find(',').unwrap();
    std::fs::write(&model, format!("{}{}", &json[..data], &json[comma + 1..])).unwrap();

    let out = env2vec(&[
        "screen",
        "--dataset",
        &dataset,
        "--model",
        &model,
        "--out",
        &alarms,
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("malformed model JSON"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        !std::path::Path::new(&alarms).exists(),
        "no alarms file may be written"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_row_execution_is_rejected_without_a_panic() {
    let dir = std::env::temp_dir().join(format!("env2vec-one-row-exec-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (dataset, model) = (path("ds.json"), path("model.json"));
    let _ = std::fs::remove_file(&model);
    let out = env2vec(&[
        "generate", "--preset", "small", "--seed", "7", "--out", &dataset,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Cut the first execution to 3 steps: with the history window of 2
    // its frame keeps a single row, which no validation split can divide.
    let json = std::fs::read_to_string(&dataset).unwrap();
    let mut ds: env2vec_datagen::telecom::TelecomDataset = serde_json::from_str(&json).unwrap();
    let ex = &mut ds.chains[0].executions[0];
    ex.cf = ex.cf.select_rows(&[0, 1, 2]).unwrap();
    for series in [
        &mut ex.cpu,
        &mut ex.clean_cpu,
        &mut ex.mem,
        &mut ex.clean_mem,
    ] {
        series.truncate(3);
    }
    ex.faults.clear();
    ex.mem_faults.clear();
    std::fs::write(&dataset, serde_json::to_string(&ds).unwrap()).unwrap();

    let out = env2vec(&[
        "train",
        "--dataset",
        &dataset,
        "--epochs",
        "1",
        "--out",
        &model,
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("need at least two rows to split"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        !std::path::Path::new(&model).exists(),
        "no model file may be written"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
