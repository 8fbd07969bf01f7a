//! Regenerates the paper's tables and figures.
//!
//! ```text
//! repro NAME [quick|standard|paper]   print one table or figure
//! repro all [FIDELITY] --out DIR      write DIR/NAME.txt for every entry
//! repro all [FIDELITY] --check DIR    compare with DIR/NAME.txt; exit 1 on a difference
//! repro --list                        the entries
//! repro simulate [FLAGS]              one ad-hoc run (`repro simulate --help`)
//! ```

use concord_bench::{all, entry, fidelity, simulate, ENTRIES};
use std::path::Path;
use std::process::exit;

const USAGE: &str = "usage: repro NAME [quick|standard|paper]\n\
                     \x20      repro all [quick|standard|paper] (--out DIR | --check DIR)\n\
                     \x20      repro --list\n\
                     \x20      repro simulate [FLAGS]  (--help for the flag list)";

fn fail(msg: &str) -> ! {
    eprintln!("repro: {msg}\n{USAGE}");
    exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = argv.iter().map(String::as_str).collect();
    match args.as_slice() {
        ["simulate", ..] => simulate::main(&argv[1..]),
        ["--list"] => {
            for e in &ENTRIES {
                println!("{:<11} {}", e.name, e.about);
            }
        }
        ["all", rest @ ..] => {
            let (fid, flags) = match rest {
                [f, flags @ ..] if !f.starts_with("--") => (Some(*f), flags),
                flags => (None, flags),
            };
            let fid = fidelity(fid).unwrap_or_else(|e| fail(&e));
            let (check, dir) = match flags {
                ["--out", dir] => (false, dir),
                ["--check", dir] => (true, dir),
                _ => fail("`all` needs exactly one of --out DIR or --check DIR"),
            };
            let differs = all(&ENTRIES, &fid, Path::new(dir), check).unwrap_or_else(|e| {
                eprintln!("repro: {dir}: {e}");
                exit(1);
            });
            for name in &differs {
                println!("{dir}/{name}.txt differs");
            }
            if !differs.is_empty() {
                exit(1);
            }
        }
        [name, rest @ ..] if rest.len() <= 1 => {
            let e = entry(name).unwrap_or_else(|| fail(&format!("unknown entry '{name}'")));
            let fid = fidelity(rest.first().copied()).unwrap_or_else(|e| fail(&e));
            print!("{}", (e.run)(&fid));
        }
        _ => fail("expected an entry name, `all`, `--list` or `simulate`"),
    }
}
