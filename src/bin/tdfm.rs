//! `tdfm` — command-line front end to the reproduction.
//!
//! ```text
//! tdfm survey                         print Table I and the representatives
//! tdfm datasets [--scale S]           print the dataset registry (Table II)
//! tdfm models [--scale S]             print the architecture registry (Table III)
//! tdfm run [OPTIONS]                  run one experiment cell and print AD
//! tdfm detect [OPTIONS]               run the label-noise detector
//! tdfm sweep --config FILE            run a JSON list of cells (+ manifest)
//! tdfm report FILE...                 summarise manifests / JSONL traces
//! tdfm report --profile TRACE...      span-tree profile of a JSONL trace
//! tdfm figures FILE [--out DIR]       render result JSONs to SVG figures
//! tdfm diff-results A B               compare result JSONs, timings ignored
//! tdfm help                           this text
//! ```
//!
//! Observability: `TDFM_LOG=error|warn|info|debug|trace` prints structured
//! events to stderr; `TDFM_TRACE=<path>` writes them as JSONL. Results
//! stay byte-identical either way.
//!
//! `run`/`detect` options:
//!
//! ```text
//! --dataset  cifar10|gtsrb|pneumonia      (default cifar10)
//! --model    convnet|deconvnet|vgg11|vgg16|resnet18|resnet50|mobilenet
//!                                          (default convnet)
//! --technique base|ls|lc|rl|kd|ens|fat     (default base; run only;
//!                                          full names work too)
//! --fault    mislabelling|repetition|removal|pairflip (default mislabelling)
//! --percent  0..100                        (default 30)
//! --scale    tiny|smoke|default|full       (default smoke)
//! --reps     N                             (default: scale preset)
//! --seed     N                             (default 0)
//! --json                                   machine-readable output (run only)
//! ```
#![allow(
    clippy::print_stderr,
    reason = "a CLI front end reports to its user on stderr"
)]

use tdfm::core::detect::NoiseDetector;
use tdfm::core::technique::TrainContext;
use tdfm::core::{ExperimentConfig, Runner, TechniqueKind};
use tdfm::data::{DatasetKind, Scale};
use tdfm::inject::{FaultKind, FaultPlan, Injector};
use tdfm::nn::models::{ModelConfig, ModelKind};
use tdfm::survey::{catalog, render_table_i, select_representatives};

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
enum Command {
    Survey,
    Datasets {
        scale: Scale,
    },
    Models {
        scale: Scale,
    },
    Run(RunArgs),
    Detect(RunArgs),
    Sweep {
        config: String,
        output: Option<String>,
    },
    Report {
        paths: Vec<String>,
        /// Reconstruct the span tree of a JSONL trace instead of the
        /// manifest summary.
        profile: bool,
        /// Emit flamegraph-compatible collapsed stacks (implies profile).
        collapsed: bool,
    },
    Figures {
        input: String,
        out: String,
    },
    DiffResults {
        recorded: String,
        fresh: String,
    },
    Help,
}

#[derive(Debug, Clone, PartialEq)]
struct RunArgs {
    dataset: DatasetKind,
    model: ModelKind,
    technique: TechniqueKind,
    fault: FaultKind,
    percent: f32,
    scale: Scale,
    reps: Option<usize>,
    seed: u64,
    json: bool,
}

impl Default for RunArgs {
    fn default() -> Self {
        Self {
            dataset: DatasetKind::Cifar10,
            model: ModelKind::ConvNet,
            technique: TechniqueKind::Baseline,
            fault: FaultKind::Mislabelling,
            percent: 30.0,
            scale: Scale::Smoke,
            reps: None,
            seed: 0,
            json: false,
        }
    }
}

fn parse_dataset(s: &str) -> Result<DatasetKind, String> {
    match s.to_ascii_lowercase().as_str() {
        "cifar10" | "cifar-10" => Ok(DatasetKind::Cifar10),
        "gtsrb" => Ok(DatasetKind::Gtsrb),
        "pneumonia" => Ok(DatasetKind::Pneumonia),
        other => Err(format!("unknown dataset '{other}'")),
    }
}

fn parse_model(s: &str) -> Result<ModelKind, String> {
    match s.to_ascii_lowercase().as_str() {
        "convnet" => Ok(ModelKind::ConvNet),
        "deconvnet" => Ok(ModelKind::DeconvNet),
        "vgg11" => Ok(ModelKind::Vgg11),
        "vgg16" => Ok(ModelKind::Vgg16),
        "resnet18" => Ok(ModelKind::ResNet18),
        "resnet50" => Ok(ModelKind::ResNet50),
        "mobilenet" => Ok(ModelKind::MobileNet),
        other => Err(format!("unknown model '{other}'")),
    }
}

/// A paper column by abbreviation (`ls`) or full name (`label smoothing`),
/// case-insensitively.
fn parse_technique(s: &str) -> Result<TechniqueKind, String> {
    TechniqueKind::ALL_EXTENDED
        .into_iter()
        .find(|t| s.eq_ignore_ascii_case(t.abbrev()) || s.eq_ignore_ascii_case(&t.full_name()))
        .ok_or_else(|| format!("unknown technique '{}'", s.to_ascii_lowercase()))
}

fn parse_fault(s: &str) -> Result<FaultKind, String> {
    match s.to_ascii_lowercase().as_str() {
        "mislabelling" | "mislabeling" | "mislabel" => Ok(FaultKind::Mislabelling),
        "repetition" | "repeat" => Ok(FaultKind::Repetition),
        "removal" | "remove" => Ok(FaultKind::Removal),
        "pairflip" | "pair-flip" => Ok(FaultKind::PairFlipMislabelling),
        other => Err(format!("unknown fault '{other}'")),
    }
}

fn parse_scale(s: &str) -> Result<Scale, String> {
    match s.to_ascii_lowercase().as_str() {
        "tiny" => Ok(Scale::Tiny),
        "smoke" => Ok(Scale::Smoke),
        "default" => Ok(Scale::Default),
        "full" => Ok(Scale::Full),
        other => Err(format!("unknown scale '{other}'")),
    }
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--json" {
            out.json = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag '{flag}' requires a value"))?;
        match flag.as_str() {
            "--dataset" => out.dataset = parse_dataset(value)?,
            "--model" => out.model = parse_model(value)?,
            "--technique" => out.technique = parse_technique(value)?,
            "--fault" => out.fault = parse_fault(value)?,
            "--percent" => {
                out.percent = value
                    .parse::<f32>()
                    .map_err(|_| format!("bad percent '{value}'"))?;
                if !(0.0..=100.0).contains(&out.percent) {
                    return Err(format!("percent {value} out of [0, 100]"));
                }
            }
            "--scale" => out.scale = parse_scale(value)?,
            "--reps" => {
                out.reps = Some(
                    value
                        .parse::<usize>()
                        .map_err(|_| format!("bad reps '{value}'"))?,
                )
            }
            "--seed" => {
                out.seed = value
                    .parse::<u64>()
                    .map_err(|_| format!("bad seed '{value}'"))?
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(out)
}

fn parse_command(args: &[String]) -> Result<Command, String> {
    let Some(verb) = args.first() else {
        return Ok(Command::Help);
    };
    let rest = &args[1..];
    match verb.as_str() {
        "survey" => Ok(Command::Survey),
        "datasets" => Ok(Command::Datasets {
            scale: parse_run_args(rest)?.scale,
        }),
        "models" => Ok(Command::Models {
            scale: parse_run_args(rest)?.scale,
        }),
        "run" => Ok(Command::Run(parse_run_args(rest)?)),
        "detect" => Ok(Command::Detect(parse_run_args(rest)?)),
        "sweep" => {
            let mut config = None;
            let mut output = None;
            let mut it = rest.iter();
            while let Some(flag) = it.next() {
                let value = it
                    .next()
                    .ok_or_else(|| format!("flag '{flag}' requires a value"))?;
                match flag.as_str() {
                    "--config" => config = Some(value.clone()),
                    "--output" => output = Some(value.clone()),
                    other => return Err(format!("unknown flag '{other}'")),
                }
            }
            let config = config.ok_or_else(|| "sweep requires --config FILE".to_string())?;
            Ok(Command::Sweep { config, output })
        }
        "report" => {
            let mut profile = false;
            let mut collapsed = false;
            let mut paths = Vec::new();
            for arg in rest {
                match arg.as_str() {
                    "--profile" => profile = true,
                    "--collapsed" => collapsed = true,
                    other if other.starts_with("--") => {
                        return Err(format!("unknown flag '{other}'"));
                    }
                    _ => paths.push(arg.clone()),
                }
            }
            if paths.is_empty() {
                return Err("report requires at least one manifest or trace file".to_string());
            }
            Ok(Command::Report {
                paths,
                profile: profile || collapsed,
                collapsed,
            })
        }
        "figures" => {
            let mut input = None;
            let mut out = None;
            let mut it = rest.iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--out" => {
                        let value = it
                            .next()
                            .ok_or_else(|| "flag '--out' requires a value".to_string())?;
                        out = Some(value.clone());
                    }
                    other if other.starts_with("--") => {
                        return Err(format!("unknown flag '{other}'"));
                    }
                    _ if input.is_none() => input = Some(arg.clone()),
                    other => return Err(format!("unexpected argument '{other}'")),
                }
            }
            let input = input.ok_or_else(|| "figures requires a results file".to_string())?;
            Ok(Command::Figures {
                input,
                out: out.unwrap_or_else(|| "results/figures".to_string()),
            })
        }
        "diff-results" => match rest {
            [recorded, fresh] => Ok(Command::DiffResults {
                recorded: recorded.clone(),
                fresh: fresh.clone(),
            }),
            _ => Err("diff-results requires exactly two result files".to_string()),
        },
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(format!("unknown command '{other}' (try 'tdfm help')")),
    }
}

fn cmd_survey() {
    let cat = catalog();
    print!("{}", render_table_i(&cat));
    println!("\nRepresentatives:");
    for t in select_representatives(&cat) {
        println!("  {:<24} -> {} {}", t.approach.name(), t.name, t.reference);
    }
}

fn cmd_datasets(scale: Scale) {
    println!(
        "{:<12}{:>8}{:>13}{:>12}  task",
        "Name", "classes", "synth train", "synth test"
    );
    for kind in DatasetKind::ALL {
        let info = kind.info();
        println!(
            "{:<12}{:>8}{:>13}{:>12}  {}",
            info.name,
            info.classes,
            kind.train_size(scale),
            kind.test_size(scale),
            info.task
        );
    }
}

fn cmd_models(scale: Scale) {
    println!(
        "{:<12}{:<10}{:<32}{:>10}",
        "Name", "Depth", "Summary", "Params"
    );
    let cfg = ModelConfig {
        in_shape: (3, scale.image_side(), scale.image_side()),
        classes: 10,
        width: scale.model_width(),
        seed: 0,
    };
    for kind in ModelKind::ALL {
        let info = kind.info();
        let mut net = kind.build(&cfg);
        println!(
            "{:<12}{:<10}{:<32}{:>10}",
            info.name,
            info.depth.to_string(),
            info.summary,
            net.param_count()
        );
    }
}

fn cmd_run(args: RunArgs) {
    let runner = Runner::new();
    let result = runner.run(&ExperimentConfig {
        dataset: args.dataset,
        model: args.model,
        technique: args.technique,
        fault_plan: FaultPlan::single(args.fault, args.percent),
        scale: args.scale,
        repetitions: args.reps.unwrap_or_else(|| args.scale.repetitions()),
        seed: args.seed,
    });
    if args.json {
        println!("{}", result.to_json());
        return;
    }
    println!(
        "{} / {} / {} / {}",
        args.dataset,
        args.model.name(),
        args.technique.full_name(),
        result.fault_label
    );
    println!(
        "  golden accuracy : {:.1}%",
        100.0 * result.golden_accuracy.mean
    );
    println!(
        "  faulty accuracy : {:.1}%",
        100.0 * result.faulty_accuracy.mean
    );
    println!(
        "  accuracy delta  : {:.1}% ± {:.1}",
        100.0 * result.ad.mean,
        100.0 * result.ad.half_width
    );
}

fn cmd_detect(args: RunArgs) {
    let data = args.dataset.generate(args.scale, args.seed);
    let plan = FaultPlan::single(args.fault, args.percent);
    let (faulty, report) = Injector::new(args.seed).apply(&data.train, &plan);
    let mut ctx = TrainContext::new(args.scale, args.seed);
    ctx.tune_for(faulty.len());
    let detection = NoiseDetector::new(3, args.model).detect(&faulty, &ctx);
    let quality = detection.evaluate(&report.mislabelled_indices);
    println!(
        "{} with {}: {} of {} samples flagged",
        args.dataset,
        plan.label(),
        detection.suspects.len(),
        faulty.len()
    );
    println!(
        "  precision {:.1}%  recall {:.1}%  F1 {:.1}%",
        100.0 * quality.precision,
        100.0 * quality.recall,
        100.0 * quality.f1
    );
}

fn cmd_sweep(config_path: &str, output: Option<&str>) -> Result<(), String> {
    let text = std::fs::read_to_string(config_path)
        .map_err(|e| format!("cannot read {config_path}: {e}"))?;
    let cells: Vec<ExperimentConfig> =
        tdfm::json::from_str(&text).map_err(|e| format!("bad sweep config: {e}"))?;
    if cells.is_empty() {
        return Err("sweep config contains no cells".to_string());
    }
    // Fan the whole sweep across the TDFM_THREADS budget; results come back
    // in cell order, so the report below matches the config file.
    let runner = Runner::new();
    let results = runner.run_grid(&cells);
    for (i, (cell, result)) in cells.iter().zip(&results).enumerate() {
        println!(
            "[{}/{}] {} / {} / {} / {}: AD {:.1}% ± {:.1}",
            i + 1,
            cells.len(),
            cell.dataset,
            cell.model.name(),
            cell.technique.full_name(),
            result.fault_label,
            100.0 * result.ad.mean,
            100.0 * result.ad.half_width,
        );
    }
    if let Some(path) = output {
        std::fs::write(path, tdfm::bench::results_to_json(&results))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    // The manifest lands next to the results (`out.json` ->
    // `out.manifest.json`); without --output it is `sweep.manifest.json`.
    let stem = output
        .map(|p| p.strip_suffix(".json").unwrap_or(p).to_string())
        .unwrap_or_else(|| "sweep".to_string());
    let manifest_path = format!("{stem}.manifest.json");
    runner
        .manifest(&stem, &results)
        .write(&manifest_path)
        .map_err(|e| format!("cannot write {manifest_path}: {e}"))?;
    println!("wrote {manifest_path}");
    Ok(())
}

fn cmd_report(paths: &[String], profile: bool, collapsed: bool) -> Result<(), String> {
    if !profile {
        print!("{}", tdfm::obs::render_report(paths)?);
        return Ok(());
    }
    for path in paths {
        let prof = tdfm::obs::Profile::from_path(path)?;
        if collapsed {
            print!("{}", prof.render_collapsed());
        } else {
            print!("{}", prof.render_table(std::path::Path::new(path)));
        }
    }
    Ok(())
}

fn cmd_figures(input: &str, out: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(input).map_err(|e| format!("cannot read {input}: {e}"))?;
    let figures =
        tdfm::bench::figures::render_figures(&text).map_err(|e| format!("{input}: {e}"))?;
    let dir = std::path::Path::new(out);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {out}: {e}"))?;
    for (name, svg) in &figures {
        let path = dir.join(name);
        std::fs::write(&path, svg).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

/// Zeroes every timing field (`train_seconds`, `infer_seconds`,
/// `wall_seconds`) anywhere in a result document — wall clocks are the
/// only part of a result that is not a deterministic function of its
/// configuration, so this is exactly what must be masked before two runs
/// can be compared byte for byte. Schema-agnostic on purpose: it works on
/// data-fault results, model-fault results and manifests alike.
fn normalize_timings_value(v: &mut tdfm::json::Value) {
    use tdfm::json::{Number, Value};
    match v {
        Value::Array(items) => items.iter_mut().for_each(normalize_timings_value),
        Value::Object(fields) => {
            for (key, val) in fields.iter_mut() {
                match key.as_str() {
                    "train_seconds" | "infer_seconds" | "wall_seconds" => {
                        *val = Value::Num(Number::F64(0.0));
                    }
                    _ => normalize_timings_value(val),
                }
            }
        }
        _ => {}
    }
}

fn cmd_diff_results(recorded: &str, fresh: &str) -> Result<(), String> {
    let load = |path: &str| -> Result<String, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let mut value = tdfm::json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        normalize_timings_value(&mut value);
        Ok(tdfm::json::to_string_pretty(&value))
    };
    let a = load(recorded)?;
    let b = load(fresh)?;
    if a == b {
        println!("results match (timings ignored): {recorded} == {fresh}");
        return Ok(());
    }
    let first_diff = a
        .lines()
        .zip(b.lines())
        .position(|(la, lb)| la != lb)
        .map(|i| i + 1);
    match first_diff {
        Some(line) => {
            let la = a.lines().nth(line - 1).unwrap_or("");
            let lb = b.lines().nth(line - 1).unwrap_or("");
            println!("results drifted at normalised line {line}:");
            println!("  {recorded}: {}", la.trim());
            println!("  {fresh}: {}", lb.trim());
        }
        None => println!(
            "results drifted: documents share a prefix but differ in length \
             ({} vs {} lines)",
            a.lines().count(),
            b.lines().count()
        ),
    }
    // Drift already reported on stdout; exit 1 distinguishes it from
    // usage/IO errors (exit 2).
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_command(&args) {
        Ok(Command::Survey) => {
            cmd_survey();
            Ok(())
        }
        Ok(Command::Datasets { scale }) => {
            cmd_datasets(scale);
            Ok(())
        }
        Ok(Command::Models { scale }) => {
            cmd_models(scale);
            Ok(())
        }
        Ok(Command::Run(run)) => {
            cmd_run(run);
            Ok(())
        }
        Ok(Command::Detect(run)) => {
            cmd_detect(run);
            Ok(())
        }
        Ok(Command::Sweep { config, output }) => cmd_sweep(&config, output.as_deref()),
        Ok(Command::Report {
            paths,
            profile,
            collapsed,
        }) => cmd_report(&paths, profile, collapsed),
        Ok(Command::Figures { input, out }) => cmd_figures(&input, &out),
        Ok(Command::DiffResults { recorded, fresh }) => cmd_diff_results(&recorded, &fresh),
        Ok(Command::Help) => {
            print!("{}", HELP);
            Ok(())
        }
        Err(e) => Err(e),
    };
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}

const HELP: &str = "tdfm - reproduction of 'The Fault in Our Data Stars' (DSN 2022)

USAGE:
  tdfm survey                      print Table I and the representatives
  tdfm datasets [--scale S]        dataset registry (Table II)
  tdfm models [--scale S]          architecture registry (Table III)
  tdfm run [OPTIONS]               run one experiment cell, print AD
  tdfm detect [OPTIONS]            run the label-noise detector
  tdfm sweep --config FILE [--output FILE]
                                   run a JSON list of experiment cells
                                   (writes <output>.manifest.json too)
  tdfm report FILE...              summarise run manifests / JSONL traces
  tdfm report --profile TRACE...   span-tree profile of a JSONL trace
                                   (self/total time per span path;
                                   --collapsed emits flamegraph-style
                                   collapsed stacks instead)
  tdfm figures FILE [--out DIR]    render a committed results JSON to
                                   deterministic SVG figures
                                   (default DIR: results/figures)
  tdfm diff-results A B            compare two result JSONs with timing
                                   fields normalised; exit 1 on drift
                                   (the CI gate for committed results)
  tdfm help                        this text

OPTIONS (run/detect):
  --dataset cifar10|gtsrb|pneumonia      --model convnet|...|mobilenet
  --technique base|ls|lc|rl|kd|ens|fat   --fault mislabelling|repetition|removal|pairflip
  --percent 0..100                       --scale tiny|smoke|default|full
  --reps N  --seed N  --json

ENVIRONMENT:
  TDFM_LOG=error|warn|info|debug|trace   structured events on stderr
  TDFM_TRACE=path.jsonl                  JSONL trace of every event
  TDFM_THREADS=N  TDFM_SCALE=tiny|smoke|default|full  TDFM_RESULTS=dir
";

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn no_args_is_help() {
        assert_eq!(parse_command(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn run_with_defaults() {
        let cmd = parse_command(&argv("run")).unwrap();
        assert_eq!(cmd, Command::Run(RunArgs::default()));
    }

    #[test]
    fn run_with_everything() {
        let cmd = parse_command(&argv(
            "run --dataset gtsrb --model resnet50 --technique ens --fault removal \
             --percent 50 --scale tiny --reps 2 --seed 9 --json",
        ))
        .unwrap();
        match cmd {
            Command::Run(args) => {
                assert_eq!(args.dataset, DatasetKind::Gtsrb);
                assert_eq!(args.model, ModelKind::ResNet50);
                assert_eq!(args.technique, TechniqueKind::Ensemble);
                assert_eq!(args.fault, FaultKind::Removal);
                assert_eq!(args.percent, 50.0);
                assert_eq!(args.scale, Scale::Tiny);
                assert_eq!(args.reps, Some(2));
                assert_eq!(args.seed, 9);
                assert!(args.json);
            }
            other => panic!("wrong command {other:?}"),
        }
        // Every paper column by abbreviation or full name, any case.
        for (text, kind) in [
            ("fat", TechniqueKind::FaultAwareTraining),
            ("Fault-Aware Training", TechniqueKind::FaultAwareTraining),
            ("BASELINE", TechniqueKind::Baseline),
            (
                "knowledge distillation",
                TechniqueKind::KnowledgeDistillation,
            ),
            ("lc", TechniqueKind::LabelCorrection),
        ] {
            assert_eq!(parse_technique(text), Ok(kind), "{text}");
        }
    }

    #[test]
    fn bad_values_are_rejected() {
        assert!(parse_command(&argv("run --dataset mnist")).is_err());
        assert!(parse_command(&argv("run --percent 150")).is_err());
        assert!(parse_command(&argv("run --percent")).is_err());
        assert!(parse_command(&argv("frobnicate")).is_err());
        assert!(parse_command(&argv("run --bogus 1")).is_err());
        assert!(parse_command(&argv("run --technique nope")).is_err());
    }

    #[test]
    fn fault_aliases() {
        assert_eq!(parse_fault("mislabel").unwrap(), FaultKind::Mislabelling);
        assert_eq!(
            parse_fault("pair-flip").unwrap(),
            FaultKind::PairFlipMislabelling
        );
    }

    #[test]
    fn detect_parses() {
        let cmd = parse_command(&argv("detect --dataset cifar10 --percent 30")).unwrap();
        assert!(matches!(cmd, Command::Detect(_)));
    }

    #[test]
    fn sweep_requires_config() {
        assert!(parse_command(&argv("sweep")).is_err());
        let cmd = parse_command(&argv("sweep --config cells.json --output out.json")).unwrap();
        assert_eq!(
            cmd,
            Command::Sweep {
                config: "cells.json".to_string(),
                output: Some("out.json".to_string())
            }
        );
    }

    #[test]
    fn report_requires_paths() {
        assert!(parse_command(&argv("report")).is_err());
        assert!(parse_command(&argv("report --profile")).is_err());
        let cmd = parse_command(&argv("report results/table4.manifest.json trace.jsonl")).unwrap();
        assert_eq!(
            cmd,
            Command::Report {
                paths: vec![
                    "results/table4.manifest.json".to_string(),
                    "trace.jsonl".to_string()
                ],
                profile: false,
                collapsed: false,
            }
        );
    }

    #[test]
    fn report_profile_flags() {
        let cmd = parse_command(&argv("report --profile trace.jsonl")).unwrap();
        assert_eq!(
            cmd,
            Command::Report {
                paths: vec!["trace.jsonl".to_string()],
                profile: true,
                collapsed: false,
            }
        );
        // --collapsed implies profile.
        let cmd = parse_command(&argv("report trace.jsonl --collapsed")).unwrap();
        assert_eq!(
            cmd,
            Command::Report {
                paths: vec!["trace.jsonl".to_string()],
                profile: true,
                collapsed: true,
            }
        );
        assert!(parse_command(&argv("report --flamegraph trace.jsonl")).is_err());
    }

    #[test]
    fn figures_parses_input_and_out() {
        assert!(parse_command(&argv("figures")).is_err());
        assert!(parse_command(&argv("figures a.json b.json")).is_err());
        assert!(parse_command(&argv("figures a.json --out")).is_err());
        assert_eq!(
            parse_command(&argv("figures results/model_faults.json")).unwrap(),
            Command::Figures {
                input: "results/model_faults.json".to_string(),
                out: "results/figures".to_string(),
            }
        );
        assert_eq!(
            parse_command(&argv("figures a.json --out /tmp/figs")).unwrap(),
            Command::Figures {
                input: "a.json".to_string(),
                out: "/tmp/figs".to_string(),
            }
        );
    }

    #[test]
    fn diff_results_requires_two_paths() {
        assert!(parse_command(&argv("diff-results")).is_err());
        assert!(parse_command(&argv("diff-results a.json")).is_err());
        assert!(parse_command(&argv("diff-results a.json b.json c.json")).is_err());
        assert_eq!(
            parse_command(&argv("diff-results a.json b.json")).unwrap(),
            Command::DiffResults {
                recorded: "a.json".to_string(),
                fresh: "b.json".to_string(),
            }
        );
    }

    #[test]
    fn timing_normalisation_masks_only_wall_clocks() {
        let mut v = tdfm::json::parse(
            r#"[{"ad": 0.5, "train_seconds": 1.25,
                 "repetitions": [{"infer_seconds": 3.5, "wall_seconds": 9.0}]}]"#,
        )
        .unwrap();
        normalize_timings_value(&mut v);
        let text = tdfm::json::to_string_pretty(&v);
        assert!(!text.contains("1.25"), "{text}");
        assert!(!text.contains("3.5"), "{text}");
        assert!(!text.contains("9.0"), "{text}");
        assert!(text.contains("0.5"), "AD must survive: {text}");
    }

    #[test]
    fn sweep_config_format_parses() {
        // The sweep file is a JSON array of ExperimentConfig values.
        let json = r#"[{
            "dataset": "Cifar10",
            "model": "ConvNet",
            "technique": "LabelSmoothing",
            "fault_plan": { "specs": [{ "kind": "Mislabelling", "percent": 30.0 }] },
            "scale": "Tiny",
            "repetitions": 1,
            "seed": 0
        }]"#;
        let cells: Vec<ExperimentConfig> = tdfm::json::from_str(json).unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].technique, TechniqueKind::LabelSmoothing);
    }
}
