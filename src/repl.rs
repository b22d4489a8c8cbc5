//! The interactive shell behind `kishu-repl` — the demo experience: type
//! cells, watch them checkpoint, and time-travel with `%` commands (the
//! paper's in-Jupyter Command Palette, §3.2, as a terminal).

use std::time::Duration;

use kishu::query::{DiffReport, VarChange};
use kishu::session::{KishuConfig, KishuSession};
use kishu::NodeId;
use kishu_minipy::repr::repr;

/// Which ref namespace a `%branch`/`%tag` command targets.
#[derive(Clone, Copy)]
enum RefNs {
    Branch,
    Tag,
}

/// Render a diff report: one line per non-identical co-variable plus a
/// summary, matching the checkout plan's load/remove/identical split.
fn render_diff(report: &DiffReport) -> Vec<String> {
    let mut out = Vec::new();
    for e in &report.entries {
        if e.change == VarChange::Identical {
            continue;
        }
        let names = e.key.iter().cloned().collect::<Vec<_>>().join(", ");
        let versions = match (e.from, e.to) {
            (Some(f), Some(t)) => format!("[{}] -> [{}]", f.0, t.0),
            (Some(f), None) => format!("[{}] -> -", f.0),
            (None, Some(t)) => format!("- -> [{}]", t.0),
            (None, None) => unreachable!("entry exists in at least one state"),
        };
        let bytes = match e.same_bytes {
            Some(true) => " (same bytes)",
            Some(false) => " (bytes differ)",
            None => "",
        };
        out.push(format!("{:9} {{{names}}} {versions}{bytes}", e.change.label()));
    }
    out.push(format!(
        "[kishu] diff [{}] -> [{}]: {} added, {} removed, {} changed, {} identical",
        report.base.0,
        report.target.0,
        report.count(VarChange::Added),
        report.count(VarChange::Removed),
        report.count(VarChange::Changed),
        report.count(VarChange::Identical),
    ));
    out
}

/// A REPL wrapping one Kishu session.
pub struct Repl {
    session: KishuSession,
}

impl Default for Repl {
    fn default() -> Self {
        Self::new(KishuConfig::default())
    }
}

impl Repl {
    /// New in-memory session.
    pub fn new(config: KishuConfig) -> Self {
        Repl {
            session: KishuSession::in_memory(config),
        }
    }

    /// Access the wrapped session.
    pub fn session(&mut self) -> &mut KishuSession {
        &mut self.session
    }

    /// Handle one input: a `%command` or a complete cell. Returns the lines
    /// to print.
    pub fn handle(&mut self, input: &str) -> Vec<String> {
        let trimmed = input.trim();
        if trimmed.is_empty() {
            return Vec::new();
        }
        if let Some(cmd) = trimmed.strip_prefix('%') {
            return self.command(cmd);
        }
        self.run_cell(input)
    }

    fn run_cell(&mut self, src: &str) -> Vec<String> {
        let mut out = Vec::new();
        let src = if src.ends_with('\n') {
            src.to_string()
        } else {
            format!("{src}\n")
        };
        match self.session.run_cell(&src) {
            Err(e) => out.push(format!("syntax error: {e}")),
            Ok(report) => {
                // The REPL always runs with auto-checkpoint on, so every
                // cell commits a node.
                let node = report.node.expect("repl sessions auto-checkpoint");
                out.extend(report.outcome.output.iter().cloned());
                if let Some(v) = &report.outcome.value_repr {
                    out.push(format!("Out[{}]: {v}", node.0));
                }
                if let Some(e) = &report.outcome.error {
                    out.push(format!("error: {e}"));
                }
                let degraded = if report.blobs_dropped > 0 {
                    format!(", {} blob(s) dropped -> fallback", report.blobs_dropped)
                } else {
                    String::new()
                };
                out.push(format!(
                    "[kishu] checkpoint {} ({} co-variable(s), {} B, {:?} tracking{degraded})",
                    node.0,
                    report.updated.len(),
                    report.checkpoint_bytes,
                    report.tracking_time,
                ));
            }
        }
        out
    }

    fn command(&mut self, cmd: &str) -> Vec<String> {
        let mut parts = cmd.split_whitespace();
        match parts.next() {
            Some("help") => vec![
                "%log                 show the checkpoint graph (head marked *)".into(),
                "%vars                list session variables".into(),
                "%covars              list co-variables (connected components)".into(),
                "%undo                checkout the parent of the head".into(),
                "%checkout <ref>      checkout a checkpoint by id, branch, or tag".into(),
                "%diff <a> <b> [deep] state difference between two checkpoints".into(),
                "%history <var>       commits that modified or deleted a variable".into(),
                "%search <var>        like %history, but across all branches".into(),
                "%branch              list branches".into(),
                "%branch <name> [ref] create/move a branch (default: at head)".into(),
                "%branch -d <name>    delete a branch".into(),
                "%branch -m <old> <new>  rename a branch".into(),
                "%tag                 list tags (same -d/-m flags as %branch)".into(),
                "%tag <name> [ref]    tag a checkpoint (default: head)".into(),
                "%stats               storage and tracking totals".into(),
                "%health              operator snapshot: caches, dedup, faults, latencies".into(),
                "%help                this text".into(),
                "%quit                exit".into(),
            ],
            Some("log") => self.session.log(),
            Some("vars") => {
                let mut lines = Vec::new();
                let names = self.session.interp.globals.names();
                if names.is_empty() {
                    lines.push("(no variables)".into());
                }
                for name in names {
                    let obj = self.session.interp.globals.peek(&name).expect("listed");
                    lines.push(format!("{name} = {}", repr(&self.session.interp.heap, obj)));
                }
                lines
            }
            Some("covars") => self
                .session
                .covariables()
                .iter()
                .map(|c| format!("{{{}}}", c.iter().cloned().collect::<Vec<_>>().join(", ")))
                .collect(),
            Some("undo") => {
                let head = self.session.head();
                match self.session.graph().node(head).parent {
                    None => vec!["already at the root".into()],
                    Some(parent) => self.do_checkout(parent),
                }
            }
            Some("checkout") => match parts.next() {
                Some(name) => match self.session.resolve(name) {
                    Some(id) => self.do_checkout(id),
                    None => vec![format!("cannot resolve '{name}' (see %log, %branch, %tag)")],
                },
                None => vec!["usage: %checkout <id|branch|tag> (see %log)".into()],
            },
            Some("diff") => {
                let (a, b) = (parts.next(), parts.next());
                let deep = parts.next() == Some("deep");
                let (Some(a), Some(b)) = (a, b) else {
                    return vec!["usage: %diff <a> <b> [deep]".into()];
                };
                let (Some(a), Some(b)) = (self.session.resolve(a), self.session.resolve(b)) else {
                    return vec![format!("cannot resolve '{a}' or '{b}'")];
                };
                let report = if deep {
                    self.session.diff_deep(a, b)
                } else {
                    self.session.diff(a, b)
                };
                match report {
                    Ok(report) => render_diff(&report),
                    Err(e) => vec![format!("diff failed: {e}")],
                }
            }
            Some("history") => match parts.next() {
                Some(var) => {
                    let entries = self.session.history(var);
                    if entries.is_empty() {
                        return vec![format!("no commits on this chain touched `{var}`")];
                    }
                    entries
                        .iter()
                        .map(|e| {
                            let what = match (e.modified, e.deleted) {
                                (true, true) => "rewrote",
                                (true, false) => "modified",
                                _ => "deleted",
                            };
                            format!("[{}] t={} {what:8} : {}", e.node.0, e.timestamp, e.cell_code)
                        })
                        .collect()
                }
                None => vec!["usage: %history <var>".into()],
            },
            Some("search") => match parts.next() {
                Some(var) => {
                    let hits = self.session.search(var);
                    if hits.is_empty() {
                        return vec![format!("no commits on any branch touched `{var}`")];
                    }
                    hits.iter()
                        .map(|h| {
                            let what = match (h.modified, h.deleted) {
                                (true, true) => "rewrote",
                                (true, false) => "modified",
                                _ => "deleted",
                            };
                            // Rows history would miss are the point: flag
                            // commits living on other branches.
                            let path = if h.on_head_path { "" } else { "  (other branch)" };
                            format!(
                                "[{}] t={} {what:8} : {}{path}",
                                h.node.0, h.timestamp, h.cell_code
                            )
                        })
                        .collect()
                }
                None => vec!["usage: %search <var>".into()],
            },
            Some("health") => self
                .session
                .health()
                .render()
                .lines()
                .map(str::to_string)
                .collect(),
            Some("branch") => self.ref_command(RefNs::Branch, &mut parts),
            Some("tag") => self.ref_command(RefNs::Tag, &mut parts),
            Some("stats") => {
                let store = self.session.store_stats();
                let m = self.session.metrics();
                vec![
                    format!(
                        "checkpoints: {} nodes, {} blobs, {} payload bytes",
                        self.session.graph().len(),
                        store.blobs,
                        store.payload_bytes
                    ),
                    format!(
                        "totals: {:?} cell time, {:?} tracking, {:?} checkpointing",
                        m.total_cell_time(),
                        m.total_tracking(),
                        m.total_checkpoint()
                    ),
                ]
            }
            Some(other) => vec![format!("unknown command %{other} (try %help)")],
            None => vec!["empty command (try %help)".into()],
        }
    }

    /// Shared grammar of `%branch` and `%tag`: bare = list, `<name> [ref]`
    /// = create, `-d <name>` = delete, `-m <old> <new>` = rename.
    fn ref_command<'a>(
        &mut self,
        ns: RefNs,
        parts: &mut impl Iterator<Item = &'a str>,
    ) -> Vec<String> {
        let what = match ns {
            RefNs::Branch => "branch",
            RefNs::Tag => "tag",
        };
        let done = |r: Result<(), kishu::KishuError>, ok: String| match r {
            Ok(()) => vec![ok],
            Err(e) => vec![format!("{e}")],
        };
        match parts.next() {
            None => {
                let refs = match ns {
                    RefNs::Branch => self.session.graph().branches(),
                    RefNs::Tag => self.session.graph().tags(),
                };
                if refs.is_empty() {
                    return vec![match ns {
                        RefNs::Branch => "(no branches)".into(),
                        RefNs::Tag => "(no tags)".into(),
                    }];
                }
                refs.iter()
                    .map(|(name, node)| format!("{name} -> [{}]", node.0))
                    .collect()
            }
            Some("-d") => match parts.next() {
                Some(name) => {
                    let r = match ns {
                        RefNs::Branch => self.session.delete_branch(name),
                        RefNs::Tag => self.session.delete_tag(name),
                    };
                    done(r, format!("deleted {what} '{name}'"))
                }
                None => vec![format!("usage: %{what} -d <name>")],
            },
            Some("-m") => match (parts.next(), parts.next()) {
                (Some(old), Some(new)) => {
                    let r = match ns {
                        RefNs::Branch => self.session.rename_branch(old, new),
                        RefNs::Tag => self.session.rename_tag(old, new),
                    };
                    done(r, format!("renamed {what} '{old}' -> '{new}'"))
                }
                _ => vec![format!("usage: %{what} -m <old> <new>")],
            },
            Some(name) => {
                let at = match parts.next() {
                    Some(r) => match self.session.resolve(r) {
                        Some(id) => Some(id),
                        None => return vec![format!("cannot resolve '{r}'")],
                    },
                    None => None,
                };
                let r = match ns {
                    RefNs::Branch => self.session.set_branch(name, at),
                    RefNs::Tag => self.session.set_tag(name, at),
                };
                match r {
                    Ok(node) => vec![format!("{what} '{name}' -> [{}]", node.0)],
                    Err(e) => vec![format!("{e}")],
                }
            }
        }
    }

    fn do_checkout(&mut self, target: NodeId) -> Vec<String> {
        match self.session.checkout(target) {
            Ok(report) => vec![format!(
                "[kishu] checked out {} — loaded {}, recomputed {}, removed {}, {} identical, in {:?}",
                target.0,
                report.loaded.len(),
                report.recomputed.len(),
                report.removed.len(),
                report.identical,
                Duration::from_nanos(report.co_wall_ns)
            )],
            Err(e) => vec![format!("checkout failed: {e}")],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn output(repl: &mut Repl, input: &str) -> String {
        repl.handle(input).join("\n")
    }

    #[test]
    fn cells_execute_and_checkpoint() {
        let mut r = Repl::default();
        let out = output(&mut r, "x = [1, 2, 3]");
        assert!(out.contains("checkpoint 1"));
        let out = output(&mut r, "sum(x)");
        assert!(out.contains("Out[2]: 6"));
    }

    #[test]
    fn undo_restores_previous_state() {
        let mut r = Repl::default();
        r.handle("ls = [1]");
        r.handle("ls.append(2)");
        assert!(output(&mut r, "len(ls)").contains("Out[3]: 2"));
        let out = output(&mut r, "%undo"); // undo the probe (no-op state)
        assert!(out.contains("checked out"));
        let out = output(&mut r, "%checkout 1");
        assert!(out.contains("checked out 1"));
        assert!(output(&mut r, "len(ls)").contains(": 1"));
    }

    #[test]
    fn introspection_commands() {
        let mut r = Repl::default();
        r.handle("a = 1\nb = a");
        let vars = output(&mut r, "%vars");
        assert!(vars.contains("a = 1") && vars.contains("b = 1"));
        let covars = output(&mut r, "%covars");
        assert!(covars.contains("{a, b}"), "{covars}");
        let log = output(&mut r, "%log");
        assert!(log.contains('*'));
        let stats = output(&mut r, "%stats");
        assert!(stats.contains("checkpoints"));
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mut r = Repl::default();
        let out = output(&mut r, "boom(");
        assert!(out.contains("syntax error"));
        let out = output(&mut r, "boom()");
        assert!(out.contains("error:"));
        assert!(out.contains("checkpoint"), "failed cells still checkpoint");
        let out = output(&mut r, "%nonsense");
        assert!(out.contains("unknown command"));
        let out = output(&mut r, "%checkout notaref");
        assert!(out.contains("cannot resolve"));
        let out = output(&mut r, "%checkout");
        assert!(out.contains("usage"));
        let out = output(&mut r, "%checkout 999");
        assert!(out.contains("cannot resolve"), "{out}");
    }

    #[test]
    fn undo_at_root_is_graceful() {
        let mut r = Repl::default();
        let out = output(&mut r, "%undo");
        assert!(out.contains("already at the root"));
    }

    #[test]
    fn diff_command_reports_the_state_difference() {
        let mut r = Repl::default();
        r.handle("x = [1, 2]");
        r.handle("y = 10");
        r.handle("%checkout 1");
        r.handle("z = 'hi'");
        let out = output(&mut r, "%diff 2 3");
        assert!(out.contains("removed") && out.contains("{y}"), "{out}");
        assert!(out.contains("added") && out.contains("{z}"), "{out}");
        assert!(out.contains("1 added, 1 removed, 0 changed, 1 identical"), "{out}");
        // Deep mode resolves byte-level verdicts for changed entries.
        r.handle("%checkout 1");
        r.handle("x.append(3)");
        let out = output(&mut r, "%diff 1 4 deep");
        assert!(out.contains("changed") && out.contains("bytes differ"), "{out}");
        // Errors are graceful.
        assert!(output(&mut r, "%diff").contains("usage"));
        assert!(output(&mut r, "%diff 1 99").contains("cannot resolve"));
    }

    #[test]
    fn history_command_lists_touching_commits() {
        let mut r = Repl::default();
        r.handle("x = [1]");
        r.handle("y = 2");
        r.handle("x.append(3)");
        let out = output(&mut r, "%history x");
        assert!(out.contains("[1]") && out.contains("[3]"), "{out}");
        assert!(!out.contains("[2]"), "y's cell never touched x: {out}");
        assert!(out.contains("modified"));
        assert!(output(&mut r, "%history ghost").contains("no commits"));
        assert!(output(&mut r, "%history").contains("usage"));
    }

    #[test]
    fn search_command_spans_branches() {
        let mut r = Repl::default();
        r.handle("gmm = [1]");
        r.handle("gmm.append(3)");
        r.handle("%checkout 1");
        r.handle("gmm.append(10)");
        let out = output(&mut r, "%search gmm");
        assert!(out.contains("[1]") && out.contains("[2]") && out.contains("[3]"), "{out}");
        assert!(out.contains("(other branch)"), "off-path rows are flagged: {out}");
        // history from the current head misses the abandoned branch.
        let hist = output(&mut r, "%history gmm");
        assert!(!hist.contains("[2]"), "{hist}");
        assert!(output(&mut r, "%search ghost").contains("no commits on any branch"));
        assert!(output(&mut r, "%search").contains("usage"));
    }

    #[test]
    fn health_command_renders_the_operator_snapshot() {
        let mut r = Repl::default();
        r.handle("x = [1, 2, 3]");
        r.handle("%checkout 1");
        r.handle("%diff 0 1");
        r.handle("%diff 0 1");
        let out = output(&mut r, "%health");
        assert!(out.contains("read cache"), "{out}");
        assert!(out.contains("diff cache   hits 1 misses 1"), "{out}");
        assert!(out.contains("degradations"), "{out}");
        assert!(output(&mut r, "%help").contains("%health"));
        assert!(output(&mut r, "%help").contains("%search"));
    }

    #[test]
    fn branch_and_tag_commands_roundtrip() {
        let mut r = Repl::default();
        r.handle("x = 1");
        r.handle("x = 2");
        assert!(output(&mut r, "%branch").contains("(no branches)"));
        assert!(output(&mut r, "%branch work").contains("branch 'work' -> [2]"));
        assert!(output(&mut r, "%branch base 1").contains("branch 'base' -> [1]"));
        assert!(output(&mut r, "%tag v1.0 1").contains("tag 'v1.0' -> [1]"));
        let listing = output(&mut r, "%branch");
        assert!(listing.contains("work -> [2]") && listing.contains("base -> [1]"), "{listing}");
        // Checkout by name and by tag.
        assert!(output(&mut r, "%checkout base").contains("checked out 1"));
        assert!(output(&mut r, "%checkout work").contains("checked out 2"));
        assert!(output(&mut r, "%checkout v1.0").contains("checked out 1"));
        // Rename and delete.
        assert!(output(&mut r, "%branch -m base start").contains("renamed"));
        assert!(output(&mut r, "%branch -d start").contains("deleted branch"));
        assert!(output(&mut r, "%branch -d start").contains("no such branch"));
        // Tags refuse to move; invalid names are rejected.
        assert!(output(&mut r, "%tag v1.0 2").contains("already exists"));
        assert!(output(&mut r, "%branch 42").contains("purely numeric"));
        assert!(output(&mut r, "%tag").contains("v1.0 -> [1]"));
    }
}
