//! `env2vec` — command-line front end for the Env2Vec library.
//!
//! ```text
//! env2vec generate --preset small|medium|paper [--seed N] --out dataset.json
//! env2vec train    --dataset dataset.json [--epochs N] [--seed N] --out model.json
//! env2vec screen   --dataset dataset.json --model model.json [--gamma G] --out alarms.json
//! env2vec embed    --model model.json --testbed T --sut S --testcase C --build B
//! env2vec info     --model model.json
//! env2vec serve    --model model.json [--env NAME] [--addr HOST:PORT]
//! ```

use std::collections::HashMap;
use std::io::Write;
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage:\n  env2vec generate --preset small|medium|paper [--seed N] --out FILE\n  \
     env2vec train    --dataset FILE [--epochs N] [--seed N] --out FILE\n  \
     env2vec screen   --dataset FILE --model FILE [--gamma G] --out FILE\n  \
     env2vec embed    --model FILE --testbed T --sut S --testcase C --build B\n  \
     env2vec info     --model FILE\n  \
     env2vec serve    --model FILE [--env NAME] [--addr HOST:PORT]\n  \
     global flags: --verbose (structured progress logs on stderr)"
}

/// Flags that stand alone (no value argument).
const BOOLEAN_FLAGS: [&str; 1] = ["verbose"];

/// The value flags a subcommand's usage line names. Any other key is
/// rejected, so a misspelt flag cannot silently fall back to its default.
fn value_flags(cmd: &str) -> &'static [&'static str] {
    match cmd {
        "generate" => &["preset", "seed", "out"],
        "train" => &["dataset", "epochs", "seed", "out"],
        "screen" => &["dataset", "model", "gamma", "out"],
        "embed" => &["model", "testbed", "sut", "testcase", "build"],
        "info" => &["model"],
        "serve" => &["model", "env", "addr"],
        _ => &[],
    }
}

/// Parses `--key value` pairs (plus boolean `--flag`s) after the
/// subcommand, accepting only the keys in `allowed`.
fn parse_flags(args: &[String], allowed: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got '{}'", args[i]))?;
        if BOOLEAN_FLAGS.contains(&key) {
            flags.insert(key.to_string(), "true".to_string());
            i += 1;
            continue;
        }
        if !allowed.contains(&key) {
            return Err(format!("unknown flag --{key}\n{}", usage()));
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
        i += 2;
    }
    Ok(flags)
}

fn require<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    flags
        .get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required --{key}"))
}

fn parse_opt<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
) -> Result<Option<T>, String> {
    match flags.get(key) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("--{key} has an invalid value '{v}'")),
    }
}

/// Prints to stdout, ignoring broken pipes (e.g. `env2vec info | head`).
fn emit(text: &str) {
    let _ = writeln!(std::io::stdout(), "{text}");
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return Err(usage().to_string());
    };
    let flags = parse_flags(rest, value_flags(cmd))?;
    if flags.contains_key("verbose") {
        env2vec_obs::set_verbose(true);
    }
    env2vec_obs::info!("command started"; cmd = cmd);
    let _cmd_span = env2vec_obs::span!("cli/command", cmd = cmd);
    let read = |key: &str| -> Result<String, String> {
        let path = require(&flags, key)?;
        std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
    };
    let write = |content: &str| -> Result<(), String> {
        let path = require(&flags, "out")?;
        std::fs::write(path, content).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
        Ok(())
    };

    let result = match cmd.as_str() {
        "generate" => {
            let json =
                env2vec_cli::generate(require(&flags, "preset")?, parse_opt(&flags, "seed")?)
                    .map_err(|e| e.to_string())?;
            write(&json)
        }
        "train" => {
            let (model, summary) = env2vec_cli::train(
                &read("dataset")?,
                parse_opt(&flags, "epochs")?,
                parse_opt(&flags, "seed")?,
            )
            .map_err(|e| e.to_string())?;
            eprintln!("{summary}");
            write(&model)
        }
        "screen" => {
            let gamma = parse_opt(&flags, "gamma")?.unwrap_or(2.0);
            let (alarms, summary) = env2vec_cli::screen(&read("dataset")?, &read("model")?, gamma)
                .map_err(|e| e.to_string())?;
            eprintln!("{summary}");
            write(&alarms)
        }
        "embed" => {
            let out = env2vec_cli::embed(
                &read("model")?,
                require(&flags, "testbed")?,
                require(&flags, "sut")?,
                require(&flags, "testcase")?,
                require(&flags, "build")?,
            )
            .map_err(|e| e.to_string())?;
            emit(&out);
            Ok(())
        }
        "info" => {
            let out = env2vec_cli::info(&read("model")?).map_err(|e| e.to_string())?;
            emit(&out);
            Ok(())
        }
        "serve" => {
            let env = flags.get("env").map(String::as_str).unwrap_or("default");
            let addr = flags
                .get("addr")
                .map(String::as_str)
                .unwrap_or("127.0.0.1:8642");
            let server =
                env2vec_cli::serve(&read("model")?, env, addr).map_err(|e| e.to_string())?;
            emit(&format!(
                "serving environment '{env}' on http://{} (POST /predict, GET /metrics, GET /healthz)",
                server.addr()
            ));
            // Serve until killed; the detached accept loop does the work.
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
        "-h" | "--help" => {
            emit(usage());
            Ok(())
        }
        other => Err(format!("unknown subcommand '{other}'\n{}", usage())),
    };
    match &result {
        Ok(()) => env2vec_obs::info!("command complete"; cmd = cmd),
        Err(e) => env2vec_obs::info!("command failed"; cmd = cmd, error = e),
    }
    result
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
