//! `perfbench --workload <ledger|wiki|chain> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints a metric table, then, as the last line
//! of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Untraced runs report the end-to-end metrics,
//! traced runs the per-layer ones. Store files go under `.bench_data/`
//! in the working directory and are removed when the run ends.

use perfbench::{chain::Chain, ledger::Ledger, run, wiki::Wiki, Budget, Report, Sizes};
use std::path::PathBuf;
use std::time::Duration;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad)?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad)? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn print(report: &Report) {
    for note in &report.notes {
        println!("# {note}");
    }
    for m in &report.metrics {
        println!(
            "{:<32} {:>18.6} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "attempted {} failed {} correct {}",
        report.attempted, report.failed, report.correct
    );
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let sizes = Sizes::full();
    let budget = Budget::Time(Duration::from_secs_f64(args.seconds));
    let base = PathBuf::from(".bench_data").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let report = match args.workload.as_str() {
        "ledger" => run::<Ledger>(args.seed, &sizes, budget, args.trace, &base),
        "wiki" => run::<Wiki>(args.seed, &sizes, budget, args.trace, &base),
        "chain" => run::<Chain>(args.seed, &sizes, budget, args.trace, &base),
        other => {
            eprintln!("perfbench: unknown workload {other} (ledger, wiki, chain)");
            std::process::exit(2);
        }
    };
    let _ = std::fs::remove_dir(".bench_data");
    print(&report);
}
