//! `bdbms-cli` — the connection-oriented A-SQL shell.
//!
//! ```text
//! bdbms-cli                        # in-memory scratch database
//! bdbms-cli path/to/db.bdbms       # embedded: open or create
//! bdbms-cli 127.0.0.1:4411         # remote: connect to bdbms-serve
//! bdbms-cli HOST:PORT --user alice # connect as a specific user
//! ```
//!
//! Statements may span lines; a trailing `;` or an empty line submits.
//! `.help` lists the dot-commands (`.open`, `.user`, `.demo`, …) and
//! `.quit` checkpoints a durable database cleanly before exiting.  The
//! shell itself is [`bdbms_client::shell`], which drives the transport-
//! agnostic `Connection` trait, so local and remote sessions behave
//! identically.

use bdbms_client::shell;

const USAGE: &str = "usage: bdbms-cli [PATH | HOST:PORT] [--user NAME]";

fn main() {
    let mut target: Option<String> = None;
    let mut user = "admin".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--user" => match args.next() {
                Some(u) => user = u,
                None => {
                    eprintln!("{USAGE}");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag `{flag}`\n{USAGE}");
                std::process::exit(2);
            }
            t if target.is_none() => target = Some(t.to_string()),
            extra => {
                eprintln!("unexpected argument `{extra}`\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    match shell::open_target(target.as_deref(), &user) {
        Some((conn, name)) => shell::run(conn, name),
        None => std::process::exit(1),
    }
}
