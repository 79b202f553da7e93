//! The interactive A-SQL shell behind `bdbms-cli`.
//!
//! The shell holds a `Box<dyn Connection>` and does not know whether it
//! is talking to an embedded database or a `bdbms-serve` process — the
//! same statements, the same prompt (including the `*` transaction
//! marker, which mirrors *server-side* transaction state on remote
//! connections via the flag piggybacked on every response frame).
//! Engine-level dot-commands (`.checkpoint`, `.tables`, `.db` detail)
//! light up only when [`Connection::local_database`] offers the engine.

use std::io::{BufRead, Write};

use bdbms_core::client::Connection;
use bdbms_core::Database;

use crate::{connect, parse_target, Target};

const HELP: &str = "\
dot-commands:
  .help            this help
  .open TARGET     switch to TARGET: a database path (created if
                   missing) or a host:port of a bdbms-serve process;
                   the current connection is closed first
  .db              show what this connection points at
  .checkpoint      write a checkpoint now (embedded databases only)
  .user NAME       switch the acting user (default: admin)
  .demo            load the paper's Figure 2 gene tables + annotations
  .import PATH TABLE [FASTA|TSV]
                   bulk-load a file into TABLE via COPY (format inferred
                   from the extension unless given; on remote connections
                   the *server* reads PATH from its own filesystem)
  .tables          list tables (embedded databases only)
  .stats           executor counters of the last statement (works on
                   remote connections too — stats cross the wire)
  .metrics         engine-wide metrics registry snapshot
  .quit            close the connection and exit
everything else is executed as (A-)SQL, e.g.:
  SELECT GID FROM DB2_Gene ANNOTATION(GAnnotation) AWHERE CONTAINS 'GenoBase'
  ADD ANNOTATION TO T.notes VALUE 'checked' ON (SELECT G.c FROM T G)
  SHOW PENDING OPERATIONS / SHOW OUTDATED / VALIDATE T
  BEGIN / SAVEPOINT s / ROLLBACK TO s / COMMIT   (prompt shows * in a txn)";

/// The Figure 2 scenario, loaded through whatever connection is open.
fn load_demo(conn: &mut dyn Connection) {
    let stmts = [
        "CREATE TABLE DB1_Gene (GID TEXT, GName TEXT, GSequence TEXT)",
        "CREATE TABLE DB2_Gene (GID TEXT, GName TEXT, GSequence TEXT)",
        "CREATE ANNOTATION TABLE GAnnotation ON DB1_Gene",
        "CREATE ANNOTATION TABLE GAnnotation ON DB2_Gene",
        "INSERT INTO DB1_Gene VALUES ('JW0080','mraW','ATGATGGAAAA'), \
         ('JW0082','ftsI','ATGAAAGCAGC'), ('JW0055','yabP','ATGAAAGTATC'), \
         ('JW0078','fruR','GTGAAACTGGA')",
        "INSERT INTO DB2_Gene VALUES ('JW0080','mraW','ATGATGGAAAA'), \
         ('JW0041','fixB','ATGAACACGTT'), ('JW0037','caiB','ATGGATCATCT'), \
         ('JW0027','ispH','ATGCAGATCCT'), ('JW0055','yabP','ATGAAAGTATC')",
        "ADD ANNOTATION TO DB2_Gene.GAnnotation \
         VALUE '<Annotation>B3: obtained from GenoBase</Annotation>' \
         ON (SELECT G.GSequence FROM DB2_Gene G)",
        "ADD ANNOTATION TO DB2_Gene.GAnnotation \
         VALUE '<Annotation>B5: This gene has an unknown function</Annotation>' \
         ON (SELECT G.* FROM DB2_Gene G WHERE GID = 'JW0080')",
        "ADD ANNOTATION TO DB1_Gene.GAnnotation \
         VALUE '<Annotation>A2: These genes were obtained from RegulonDB</Annotation>' \
         ON (SELECT G.* FROM DB1_Gene G WHERE GID IN ('JW0055','JW0078'))",
    ];
    for s in stmts {
        if let Err(e) = conn.run(s) {
            eprintln!("demo load failed: {e}");
            return;
        }
    }
    println!("Figure 2 scenario loaded (DB1_Gene, DB2_Gene, GAnnotation). Try:");
    println!("  SELECT GID, GName, GSequence FROM DB1_Gene ANNOTATION(GAnnotation)");
    println!("  INTERSECT SELECT GID, GName, GSequence FROM DB2_Gene ANNOTATION(GAnnotation)");
}

/// One-per-line dump of the executor counters shown by `.stats`.
fn render_stats(st: &bdbms_core::executor::ExecStats) -> String {
    fn ns(v: u64) -> String {
        if v >= 1_000_000_000 {
            format!("{:.2}s", v as f64 / 1e9)
        } else if v >= 1_000_000 {
            format!("{:.2}ms", v as f64 / 1e6)
        } else if v >= 1_000 {
            format!("{:.2}us", v as f64 / 1e3)
        } else {
            format!("{v}ns")
        }
    }
    format!(
        "rows_fetched={} scan_filtered={} index_probes={} seq_index_probes={}\n\
         full_scans={} index_only_scans={} anns_attached={} batches={}\n\
         limit_pushdowns={} rows_limit_discarded={}\n\
         join_order={:?} indexes={:?}\n\
         parse={} plan={} exec={}",
        st.rows_fetched,
        st.rows_scan_filtered,
        st.index_probes,
        st.seq_index_probes,
        st.full_scans,
        st.index_only_scans,
        st.anns_attached,
        st.scan_batches,
        st.limit_pushdowns,
        st.rows_limit_discarded,
        st.join_order,
        st.chosen_indexes,
        ns(st.parse_ns),
        ns(st.plan_ns),
        ns(st.exec_ns),
    )
}

fn list_tables(db: &Database) {
    for t in db.catalog().tables() {
        let anns = db.catalog().ann_set_names(&t.name);
        println!(
            "{:<16} {:>6} rows   annotation tables: [{}]",
            t.name,
            t.len(),
            anns.join(", ")
        );
    }
}

/// Open a connection to `target` (or in-memory when `None`), reporting
/// recovery like the standalone REPL always has.  Returns the
/// connection plus the prompt stem.
pub fn open_target(target: Option<&str>, user: &str) -> Option<(Box<dyn Connection>, String)> {
    let Some(target) = target else {
        return Some((
            Box::new(bdbms_core::LocalConnection::in_memory(user)),
            "bdbms".to_string(),
        ));
    };
    let existed = matches!(parse_target(target), Target::Local(ref p)
        if std::path::Path::new(p).join("data.bdb").exists());
    match connect(target, user) {
        Ok(mut conn) => {
            let name = match parse_target(target) {
                Target::Remote(addr) => {
                    println!("connected to {}", conn.describe());
                    addr
                }
                Target::Local(path) => {
                    report_recovery(&path, existed, conn.local_database());
                    std::path::Path::new(&path)
                        .file_stem()
                        .map(|s| s.to_string_lossy().into_owned())
                        .unwrap_or_else(|| "bdbms".to_string())
                }
            };
            Some((conn, name))
        }
        Err(e) => {
            eprintln!("cannot open `{target}`: {e}");
            None
        }
    }
}

fn report_recovery(path: &str, existed: bool, db: Option<&mut Database>) {
    let Some(db) = db else { return };
    if !existed {
        println!("created `{path}`");
        return;
    }
    match db.last_recovery() {
        Some(rec) if rec.replayed_commits > 0 || rec.discarded_ops > 0 || rec.torn_bytes > 0 => {
            println!(
                "recovered `{path}`: {} committed transaction(s) replayed, \
                 {} uncommitted op(s) discarded, {} torn byte(s) truncated",
                rec.replayed_commits, rec.discarded_ops, rec.torn_bytes
            );
        }
        _ => println!("opened `{path}` (clean)"),
    }
}

/// Close a connection, reporting the shutdown checkpoint of embedded
/// durable databases.
fn close_connection(mut conn: Box<dyn Connection>) {
    let durable = conn
        .local_database()
        .map(|db| db.is_persistent())
        .unwrap_or(false);
    match conn.close() {
        Ok(()) if durable => println!("checkpointed"),
        Ok(()) => {}
        Err(e) => eprintln!("close failed: {e}"),
    }
    drop(conn); // embedded: Database drop writes the shutdown checkpoint
}

/// The interactive loop: read statements (and dot-commands) from stdin
/// until `.quit` or EOF.
pub fn run(mut conn: Box<dyn Connection>, mut name: String) {
    let stdin = std::io::stdin();
    let mut buffer = String::new();
    let mut last_stats: Option<bdbms_core::executor::ExecStats> = None;
    println!("bdbms — CIDR 2007 reproduction. `.help` for commands, `.quit` to exit.");
    loop {
        if !buffer.is_empty() {
            print!("   ..> ");
        } else if conn.in_transaction() {
            // `*` marks an open BEGIN — server-side state when remote
            print!("{name}*> ");
        } else {
            print!("{name}> ");
        }
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
        let trimmed = line.trim();
        if buffer.is_empty() && trimmed.starts_with('.') {
            let mut parts = trimmed.splitn(2, ' ');
            match parts.next().unwrap() {
                ".quit" | ".exit" => break,
                ".help" => println!("{HELP}"),
                ".demo" => load_demo(conn.as_mut()),
                ".tables" => match conn.local_database() {
                    Some(db) => list_tables(db),
                    None => println!(".tables needs an embedded database (remote connection)"),
                },
                ".open" => match parts.next() {
                    Some(t) if !t.trim().is_empty() => {
                        let t = t.trim().to_string();
                        let user = conn.user().to_string();
                        // close the old connection *before* opening the
                        // new one — two live handles on one directory
                        // would checkpoint over each other
                        close_connection(std::mem::replace(
                            &mut conn,
                            Box::new(bdbms_core::LocalConnection::in_memory(&user)),
                        ));
                        match open_target(Some(&t), &user) {
                            Some((new_conn, new_name)) => {
                                conn = new_conn;
                                name = new_name;
                            }
                            None => {
                                name = "bdbms".to_string();
                                println!("fell back to an in-memory database (`.open` to retry)");
                            }
                        }
                    }
                    _ => println!("usage: .open PATH | .open HOST:PORT"),
                },
                ".db" => match conn.local_database() {
                    Some(db) => match db.path() {
                        Some(p) => println!(
                            "database: {} ({} WAL segment(s))",
                            p.display(),
                            db.wal_segment_count().unwrap_or(0)
                        ),
                        None => println!("database: in-memory (state dies with the process)"),
                    },
                    None => println!("database: {}", conn.describe()),
                },
                ".checkpoint" => match conn.local_database() {
                    Some(db) => match db.checkpoint() {
                        Ok(()) if db.is_persistent() => println!("checkpointed"),
                        Ok(()) => println!("in-memory database: nothing to checkpoint"),
                        Err(e) => println!("error: {e}"),
                    },
                    None => {
                        println!(".checkpoint needs an embedded database (the server checkpoints)")
                    }
                },
                ".import" => {
                    let args: Vec<&str> = parts.next().unwrap_or("").split_whitespace().collect();
                    match args.as_slice() {
                        [path, ..] if path.contains('\'') => {
                            println!("error: path `{path}` contains a quote");
                        }
                        [path, table] | [path, table, _] => {
                            // `.import` is sugar over COPY, so it works
                            // identically on embedded and remote
                            // connections (the server resolves PATH)
                            let mut sql = format!("COPY {table} FROM '{path}'");
                            if let Some(f) = args.get(2) {
                                sql.push_str(&format!(" FORMAT {}", f.to_uppercase()));
                            }
                            match conn.run(&sql) {
                                Ok(result) => println!("{result}"),
                                Err(e) => println!("error: {e}"),
                            }
                        }
                        _ => println!("usage: .import PATH TABLE [FASTA|TSV]"),
                    }
                }
                ".user" => match parts.next() {
                    Some(u) if !u.trim().is_empty() => match conn.set_user(u.trim()) {
                        Ok(()) => println!("session user is now `{}`", conn.user()),
                        Err(e) => println!("error: {e}"),
                    },
                    _ => println!("usage: .user NAME"),
                },
                ".stats" => match &last_stats {
                    Some(st) => println!("{}", render_stats(st)),
                    None => println!("no statement has produced executor stats yet"),
                },
                ".metrics" => match conn.metrics() {
                    Ok(s) => print!("{}", s.render()),
                    Err(e) => println!("error: {e}"),
                },
                other => println!("unknown command {other} (`.help`)"),
            }
            continue;
        }
        // accumulate until `;` or a blank line after content
        if !trimmed.is_empty() {
            buffer.push_str(&line);
            if !trimmed.ends_with(';') {
                continue;
            }
        } else if buffer.is_empty() {
            continue;
        }
        let stmt = buffer.trim().trim_end_matches(';').to_string();
        buffer.clear();
        if stmt.is_empty() {
            continue;
        }
        match conn.run(&stmt) {
            Ok(result) => {
                if let Some(st) = &result.stats {
                    last_stats = Some(st.clone());
                }
                println!("{result}");
            }
            Err(e) => println!("error: {e}"),
        }
    }
    // `.quit` / EOF: embedded durable databases checkpoint cleanly,
    // remote connections say goodbye
    close_connection(conn);
    println!("bye");
}
