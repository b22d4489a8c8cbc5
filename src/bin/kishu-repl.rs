//! `kishu-repl` — an interactive time-traveling notebook in the terminal.
//!
//! ```text
//! cargo run --bin kishu-repl
//! In[1]> df = read_csv('sales', 1000, 6, 42)
//! In[2]> df = df.drop('c2')
//! In[3]> %undo
//! ```
//!
//! Multi-line cells: end a line with `:` or `\` to continue; finish with an
//! empty line. `%help` lists the commands.
//!
//! The `KISHU_*` variables of [`kishu_bench::settings`] configure the
//! session. `KISHU_TRACE` (any non-empty value) turns the flight recorder
//! on: `%health` then shows it, and a panic or a failed `%undo` /
//! `%checkout` writes a black box under `target/flightrec/`.

use std::io::{self, BufRead, Write};

use kishu_bench::settings::Settings;
use kishu_repro::repl::Repl;

fn main() {
    let settings = Settings::from_env();
    let mut repl = Repl::new(settings.kishu.clone());
    if settings.trace_path.is_some() {
        let trace = settings.trace();
        kishu_trace::blackbox::install_panic_hook(&trace);
        repl.session().set_trace(&trace);
    }
    let stdin = io::stdin();
    let mut stdout = io::stdout();
    println!("kishu-repl — time-traveling notebook (%help for commands, %quit to exit)");
    let mut buffer = String::new();
    let mut cell_no = 1;
    loop {
        if buffer.is_empty() {
            print!("In[{cell_no}]> ");
        } else {
            print!("   ...> ");
        }
        stdout.flush().expect("stdout");
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
        let trimmed_end = line.trim_end();
        if buffer.is_empty() && trimmed_end.trim() == "%quit" {
            break;
        }
        // Continuation: an open block (line ends with ':'), an explicit
        // backslash, or we're already inside a buffered cell and the line
        // is non-empty.
        let continues = trimmed_end.ends_with(':')
            || trimmed_end.ends_with('\\')
            || (!buffer.is_empty() && !trimmed_end.trim().is_empty());
        buffer.push_str(trimmed_end.trim_end_matches('\\'));
        buffer.push('\n');
        if continues {
            continue;
        }
        let input = std::mem::take(&mut buffer);
        if input.trim().is_empty() {
            continue;
        }
        for out in repl.handle(&input) {
            println!("{out}");
        }
        cell_no += 1;
    }
    println!("bye");
}
