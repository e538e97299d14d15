//! Experiment harness CLI.
//!
//! Usage is printed by `--help` and derived from the registry (see
//! [`rlb_experiments::usage`]), so the id range in the docs cannot rot
//! as experiments are added.
//!
//! Selected experiments run concurrently on the [`rlb_pool`] executor;
//! every experiment's output is buffered and emitted in registry order,
//! so stdout (text or `--json`) and `--out-dir` files are byte-identical
//! to a serial run — `--jobs` only changes wall-clock. Exits non-zero if
//! any shape check fails.

use rlb_experiments::{registry, usage, Experiment};

/// A malformed command line: say why on stderr and exit 2.
fn usage_error(message: &str) -> ! {
    eprintln!("{message}\n(run with --help for usage)");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", usage());
        return;
    }
    let mut quick = false;
    let mut json = false;
    let mut out_dir: Option<String> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--json" => json = true,
            "--out-dir" => match it.next() {
                Some(dir) => out_dir = Some(dir.clone()),
                None => usage_error("--out-dir expects a directory, but no value followed it"),
            },
            "--jobs" => {
                let Some(raw) = it.next() else {
                    usage_error("--jobs expects a positive integer, but no value followed it");
                };
                match raw.parse::<usize>() {
                    Ok(jobs) if jobs >= 1 => {
                        rlb_pool::set_global_jobs(jobs);
                    }
                    _ => usage_error(&format!("--jobs expects a positive integer, got {raw:?}")),
                }
            }
            flag if flag.starts_with("--") => usage_error(&format!("unknown option {flag:?}")),
            id => wanted.push(id.to_lowercase()),
        }
    }
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("cannot create --out-dir");
    }
    let run_all = wanted.is_empty() || wanted.iter().any(|w| w == "all");

    let reg = registry();
    let selected: Vec<Experiment> = reg
        .iter()
        .filter(|e| run_all || wanted.iter().any(|w| w == e.id))
        .copied()
        .collect();
    if selected.is_empty() {
        eprintln!(
            "no matching experiments; known ids: {}",
            reg.iter().map(|e| e.id).collect::<Vec<_>>().join(", ")
        );
        std::process::exit(2);
    }

    // Run experiments as pool jobs. Progress lines go to stderr from
    // inside each job (their interleaving is the one thing that may
    // differ from a serial run); results come back in registry order
    // and all stdout/--out-dir emission below is serial, so the
    // user-visible output is byte-identical for any --jobs value.
    let collected = rlb_pool::global().map(selected.clone(), move |entry| {
        let Experiment { id, title, .. } = *entry;
        eprintln!(
            "running {id}: {title}{}",
            if quick { " (quick)" } else { "" }
        );
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock progress display only; never feeds results"
        )]
        let started = std::time::Instant::now();
        let out = entry.run(quick);
        eprintln!("{id} finished in {:.1?}", started.elapsed());
        out
    });

    let mut failures = 0usize;
    for (Experiment { id, .. }, out) in selected.iter().zip(&collected) {
        if !json {
            println!("{}", out.render());
        }
        if let Some(dir) = &out_dir {
            let txt = format!("{dir}/{id}.txt");
            std::fs::write(&txt, out.render()).expect("write .txt output");
            let js = format!("{dir}/{id}.json");
            std::fs::write(&js, rlb_json::to_string_pretty(out)).expect("write .json output");
        }
        if !out.all_passed() {
            failures += 1;
        }
    }
    if json {
        println!("{}", rlb_json::to_string_pretty(&collected));
    }
    if failures > 0 {
        eprintln!("{failures} experiment(s) had failing shape checks");
        std::process::exit(1);
    }
}
