//! The rule engine: per-rule token scans, crate-scoped severity, and
//! suppression handling.
//!
//! Every rule works on the token stream of one file ([`crate::lexer`])
//! plus a tiny per-file binding resolver (which identifiers are hash
//! containers / channel receivers). No rule ever needs type inference: each
//! one is written so that what *is* statically visible errs on the side of
//! the determinism guarantee, and refinements live here — not in
//! suppression comments.

use crate::lexer::{LexedFile, Suppression, TokKind, Token};
use crate::parse::{self, matching, ParsedFile};
use crate::taint::{self, SymbolTable};

/// Where a file sits in the workspace policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Scope {
    /// Determinism-critical library code (`sim`, `bus`, `ntier`, `model`,
    /// `oracle`, `workload`, `core` under `src/`). Violations are errors.
    Strict,
    /// Tooling and harness code (`bench`, `lint`, `shims/*`). Violations
    /// are warnings; strict-only rules do not run at all.
    Relaxed,
    /// Test code (`tests/`, `benches/`, `examples/`, `#[cfg(test)]`).
    /// Only suppression hygiene is checked.
    Test,
}

/// Diagnostic severity. Only errors affect the exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Must-fix violation in strict scope.
    Error,
    /// Advisory violation in relaxed scope.
    Warning,
}

impl Severity {
    /// Lowercase label used in text and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name (kebab-case).
    pub rule: &'static str,
    /// Error in strict scope, warning in relaxed.
    pub severity: Severity,
    /// What was found.
    pub message: String,
    /// How to fix it.
    pub hint: &'static str,
}

/// A suppression that actually silenced a diagnostic (reported in the JSON
/// output so CI and reviewers can audit every one).
#[derive(Debug, Clone, PartialEq)]
pub struct UsedSuppression {
    /// Workspace-relative path.
    pub path: String,
    /// Line of the directive.
    pub line: u32,
    /// Rule it silenced.
    pub rule: String,
    /// The mandatory justification.
    pub reason: String,
}

/// Static description of one rule, for `--format json` and the docs.
pub struct RuleSpec {
    /// Kebab-case rule name used in diagnostics and `allow(...)`.
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Runs only in [`Scope::Strict`] files.
    pub strict_only: bool,
    /// Fix hint attached to every diagnostic.
    pub hint: &'static str,
}

/// Every shipped rule, in stable order.
pub const RULES: &[RuleSpec] = &[
    RuleSpec {
        name: "hash-iter-order",
        description: "HashMap/HashSet in determinism-critical code: iteration order is \
                      randomized per process and leaks into results",
        strict_only: true,
        hint: "use BTreeMap/BTreeSet, or collect keys and sort before iterating",
    },
    RuleSpec {
        name: "wall-clock",
        description: "Instant/SystemTime in simulation code: wall-clock reads differ \
                      between runs (bench-bin instrumentation lives in relaxed scope)",
        strict_only: true,
        hint: "simulation code must use dcm_sim::time::SimTime; timing instrumentation \
               belongs in the bench harness",
    },
    RuleSpec {
        name: "unseeded-rng",
        description: "RNG from an entropy source, or seed arithmetic that can collide \
                      (additive offsets alias overlapping sweeps)",
        strict_only: false,
        hint: "derive every per-stream seed via dcm_sim::rng::derive_seed(base, stream)",
    },
    RuleSpec {
        name: "float-reduction",
        description: "sum/fold over an unordered source (hash container or mpsc \
                      receiver): float addition is not associative, so the result \
                      depends on arrival order",
        strict_only: false,
        hint: "reassemble results in input order first (dcm_sim::runner::run_ordered) \
               or accumulate into an index-addressed buffer",
    },
    RuleSpec {
        name: "panic-path",
        description: "panic-prone construct in library code: bare unwrap()/expect(\"\"), \
                      unchecked intrinsics, or slice-range arithmetic that can overrun \
                      (tests may panic freely)",
        strict_only: true,
        hint: "use expect(\"why this cannot fail\"), propagate the Result/Option, or \
               bound the range before slicing",
    },
    RuleSpec {
        name: "hot-path-alloc",
        description: "allocation in a hot module (sim::engine, ntier::flow, ntier::graph, \
                      ntier::cpu, ntier::request, workload::cache, workload::cohort, \
                      workload::profile): \
                      clone()/to_vec()/format! or unbounded Vec growth inside the \
                      per-event path erases DES throughput",
        strict_only: true,
        hint: "borrow instead of cloning, pre-size with with_capacity, or hoist the \
               allocation out of the per-event path",
    },
    RuleSpec {
        name: "atomics-ordering",
        description: "Ordering::Relaxed load feeding a control decision (if/while/match): \
                      relaxed loads may observe stale values, so control flow can \
                      diverge between runs once live mode introduces real threads",
        strict_only: true,
        hint: "use Acquire for the load (and Release for the matching store), or make \
               the value a plain field if it is single-threaded",
    },
    RuleSpec {
        name: "determinism-taint",
        description: "a wall-clock or entropy value flows (through bindings, fields, or \
                      a cross-file call) into an event schedule, a seed, a queue \
                      ordering key, or a committed results/* artifact",
        strict_only: false,
        hint: "derive the value from SimTime/derive_seed instead; wall-clock telemetry \
               may only reach results/perf* files",
    },
    RuleSpec {
        name: "todo-markers",
        description: "todo!/unimplemented! in non-test code",
        strict_only: false,
        hint: "implement it, or return an explicit error variant",
    },
    RuleSpec {
        name: "bad-suppression",
        description: "malformed dcm-lint directive, missing reason, or unknown rule \
                      name (a suppression must say why)",
        strict_only: false,
        hint: "write `// dcm-lint: allow(<rule>) reason=\"...\"` with a real reason",
    },
    RuleSpec {
        name: "forbidden-suppression",
        description: "suppression directive inside a sim-critical crate (sim, ntier, \
                      model, oracle) where the determinism guarantee admits no \
                      exceptions",
        strict_only: false,
        hint: "fix the violation instead; these crates must lint clean with zero \
               suppressions",
    },
];

/// Crates whose strict scope admits no suppressions at all.
pub const NO_SUPPRESS_CRATES: &[&str] = &["sim", "ntier", "model", "oracle"];

/// Workspace-relative paths of the hot modules: the per-event simulation
/// path where an allocation is paid millions of times per experiment.
/// `hot-path-alloc` (and the plain-arithmetic-index leg of `panic-path`)
/// only run here.
pub const HOT_MODULES: &[&str] = &[
    "crates/sim/src/engine.rs",
    "crates/ntier/src/cpu.rs",
    "crates/ntier/src/flow.rs",
    "crates/ntier/src/graph.rs",
    "crates/ntier/src/request.rs",
    "crates/workload/src/cache.rs",
    "crates/workload/src/cohort.rs",
    "crates/workload/src/profile.rs",
];

/// True when `path` names one of the configured hot modules.
pub fn is_hot_module(path: &str) -> bool {
    HOT_MODULES.contains(&path)
}

fn spec(name: &str) -> &'static RuleSpec {
    RULES
        .iter()
        .find(|r| r.name == name)
        .expect("rule names used internally are registered in RULES")
}

fn known_rule(name: &str) -> bool {
    RULES.iter().any(|r| r.name == name)
}

/// The outcome of linting one file.
#[derive(Debug, Default)]
pub struct FileOutcome {
    /// Findings that survived suppression, sorted by line.
    pub diagnostics: Vec<Diagnostic>,
    /// Suppressions that silenced something.
    pub used_suppressions: Vec<UsedSuppression>,
}

/// Runs every applicable rule over one lexed file, parsing it on the spot
/// and without any cross-file call summary. Single-file entry point used
/// by [`crate::lint_source`] and the unit tests; the workspace scan goes
/// through [`check_file_with`] so taint can cross file boundaries.
pub fn check_file(path: &str, crate_name: &str, scope: Scope, lexed: &LexedFile) -> FileOutcome {
    let parsed = parse::parse(lexed);
    check_file_with(
        path,
        crate_name,
        scope,
        lexed,
        &parsed,
        &SymbolTable::default(),
    )
}

/// Runs every applicable rule over one lexed+parsed file.
///
/// `crate_name` is the workspace directory name (`sim`, `core`, ...; empty
/// for top-level `tests/` and `examples/`). It drives the
/// no-suppressions-in-sim-critical-crates policy. `symbols` is the
/// per-crate free-fn taint summary built in pass 1 of the workspace scan.
pub fn check_file_with(
    path: &str,
    crate_name: &str,
    scope: Scope,
    lexed: &LexedFile,
    parsed: &ParsedFile,
    symbols: &SymbolTable,
) -> FileOutcome {
    let mut raw: Vec<Diagnostic> = Vec::new();
    let severity = match scope {
        Scope::Strict => Severity::Error,
        _ => Severity::Warning,
    };

    if scope != Scope::Test {
        let toks = &lexed.tokens;
        let live = |i: usize| !lexed.in_test[i];
        if scope == Scope::Strict {
            rule_hash_iter_order(path, toks, &live, &mut raw);
            rule_wall_clock(path, toks, &live, &mut raw);
            rule_panic_path(path, toks, &live, &mut raw);
            rule_hot_path_alloc(path, toks, &live, &mut raw);
            rule_atomics_ordering(path, toks, &live, &mut raw);
        }
        rule_unseeded_rng(path, toks, &live, severity, &mut raw);
        rule_float_reduction(path, toks, &live, severity, &mut raw);
        rule_todo_markers(path, toks, &live, severity, &mut raw);
        for finding in taint::analyze(lexed, parsed, symbols) {
            push(
                &mut raw,
                path,
                finding.line,
                "determinism-taint",
                severity,
                finding.message,
            );
        }
    }

    // Suppression pass: a well-formed directive silences matching
    // diagnostics on its own line and the line below. Directive hygiene
    // itself is checked in every scope.
    let mut out = FileOutcome::default();
    let forbidden = scope == Scope::Strict && NO_SUPPRESS_CRATES.contains(&crate_name);
    for sup in &lexed.suppressions {
        if forbidden {
            out.diagnostics.push(Diagnostic {
                path: path.to_string(),
                line: sup.line,
                rule: "forbidden-suppression",
                severity: Severity::Error,
                message: format!("suppression directive in sim-critical crate `{crate_name}`"),
                hint: spec("forbidden-suppression").hint,
            });
            continue;
        }
        if sup.malformed {
            out.diagnostics.push(bad_suppression(
                path,
                sup,
                "malformed directive; expected `allow(<rule>) reason=\"...\"`".to_string(),
            ));
            continue;
        }
        if let Some(unknown) = sup.rules.iter().find(|r| !known_rule(r)) {
            out.diagnostics.push(bad_suppression(
                path,
                sup,
                format!("unknown rule `{unknown}` in allow(...)"),
            ));
            continue;
        }
        if sup.reason.is_none() {
            out.diagnostics.push(bad_suppression(
                path,
                sup,
                "suppression without a reason".to_string(),
            ));
        }
    }

    for diag in raw {
        let silenced = lexed.suppressions.iter().find(|sup| {
            !sup.malformed
                && sup.reason.is_some()
                && sup.rules.iter().any(|r| r == diag.rule)
                && (sup.line == diag.line || sup.line + 1 == diag.line)
        });
        match silenced {
            Some(sup) if !forbidden => out.used_suppressions.push(UsedSuppression {
                path: path.to_string(),
                line: sup.line,
                rule: diag.rule.to_string(),
                reason: sup.reason.clone().expect("checked above"),
            }),
            _ => out.diagnostics.push(diag),
        }
    }
    out.diagnostics
        .sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

fn bad_suppression(path: &str, sup: &Suppression, message: String) -> Diagnostic {
    Diagnostic {
        path: path.to_string(),
        line: sup.line,
        rule: "bad-suppression",
        severity: Severity::Error,
        message,
        hint: spec("bad-suppression").hint,
    }
}

fn push(
    out: &mut Vec<Diagnostic>,
    path: &str,
    line: u32,
    rule: &'static str,
    severity: Severity,
    message: String,
) {
    // One diagnostic per (rule, line): a single `use` line mentioning
    // HashMap twice is one finding, not two.
    if out
        .iter()
        .any(|d| d.rule == rule && d.line == line && d.path == path)
    {
        return;
    }
    out.push(Diagnostic {
        path: path.to_string(),
        line,
        rule,
        severity,
        message,
        hint: spec(rule).hint,
    });
}

// ---------------------------------------------------------------------------
// Individual rules
// ---------------------------------------------------------------------------

fn rule_hash_iter_order(
    path: &str,
    toks: &[Token],
    live: &dyn Fn(usize) -> bool,
    out: &mut Vec<Diagnostic>,
) {
    for (i, t) in toks.iter().enumerate() {
        if !live(i) {
            continue;
        }
        if let Some(name) = t.ident() {
            if name == "HashMap" || name == "HashSet" {
                push(
                    out,
                    path,
                    t.line,
                    "hash-iter-order",
                    Severity::Error,
                    format!("`{name}` in determinism-critical code"),
                );
            }
        }
    }
}

fn rule_wall_clock(
    path: &str,
    toks: &[Token],
    live: &dyn Fn(usize) -> bool,
    out: &mut Vec<Diagnostic>,
) {
    for (i, t) in toks.iter().enumerate() {
        if !live(i) {
            continue;
        }
        if let Some(name) = t.ident() {
            if name == "Instant" || name == "SystemTime" {
                push(
                    out,
                    path,
                    t.line,
                    "wall-clock",
                    Severity::Error,
                    format!("`{name}` (wall clock) in simulation code"),
                );
            }
        }
    }
}

/// Panic-prone constructs in library code. Four legs:
///
/// 1. bare `.unwrap()` (no invariant stated),
/// 2. `.expect("")` (empty invariant),
/// 3. unchecked intrinsics (`get_unchecked`, `unwrap_unchecked`,
///    `unchecked_add`/`sub`/`mul`) — UB, not even a clean panic,
/// 4. index/slice expressions whose bracket span does arithmetic:
///    `buf[start..start + n]` can overrun anywhere (flagged in all strict
///    files); a plain arithmetic index `m[i * cols + j]` is only flagged in
///    hot modules, where a panic also costs a bounds check per event —
///    quantile/MVA/linalg code legitimately index-computes everywhere else.
fn rule_panic_path(
    path: &str,
    toks: &[Token],
    live: &dyn Fn(usize) -> bool,
    out: &mut Vec<Diagnostic>,
) {
    const UNCHECKED: &[&str] = &[
        "get_unchecked",
        "get_unchecked_mut",
        "unwrap_unchecked",
        "unchecked_add",
        "unchecked_sub",
        "unchecked_mul",
    ];
    let hot = is_hot_module(path);
    for i in 0..toks.len() {
        if !live(i) {
            continue;
        }
        if toks[i].is_punct('.') {
            let Some(name) = toks.get(i + 1).and_then(Token::ident) else {
                continue;
            };
            if name == "unwrap"
                && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
                && toks.get(i + 3).is_some_and(|t| t.is_punct(')'))
            {
                push(
                    out,
                    path,
                    toks[i + 1].line,
                    "panic-path",
                    Severity::Error,
                    "bare `unwrap()` in library code".to_string(),
                );
            }
            if name == "expect" && toks.get(i + 2).is_some_and(|t| t.is_punct('(')) {
                if let Some(TokKind::Str(s)) = toks.get(i + 3).map(|t| &t.kind) {
                    if s.trim().is_empty() {
                        push(
                            out,
                            path,
                            toks[i + 1].line,
                            "panic-path",
                            Severity::Error,
                            "`expect(\"\")` with an empty justification".to_string(),
                        );
                    }
                }
            }
            if UNCHECKED.contains(&name) {
                push(
                    out,
                    path,
                    toks[i + 1].line,
                    "panic-path",
                    Severity::Error,
                    format!("unchecked intrinsic `{name}` in library code"),
                );
            }
            continue;
        }
        // Postfix index/slice `expr[...]`: the `[` must follow an ident,
        // `)`, or `]` — which excludes attributes (`#[...]`), macro brackets
        // preceded by `!` (`vec![...]`), and slice-type positions (`&[u8]`).
        if toks[i].is_punct('[') && i > 0 {
            let prev = &toks[i - 1];
            let postfix =
                matches!(prev.kind, TokKind::Ident(_)) || prev.is_punct(')') || prev.is_punct(']');
            // Macro brackets (`vec![`) put `!` right before the `[`, so
            // the postfix test above already rejects them.
            if !postfix {
                continue;
            }
            let close = matching(toks, i);
            let span = &toks[i + 1..close.min(toks.len())];
            let has_range = span
                .windows(2)
                .any(|w| w[0].is_punct('.') && w[1].is_punct('.'));
            let has_arith = span.iter().any(|t| t.is_punct('+') || t.is_punct('-'));
            if has_range && has_arith {
                push(
                    out,
                    path,
                    toks[i].line,
                    "panic-path",
                    Severity::Error,
                    "slice range computed by arithmetic can overrun".to_string(),
                );
            } else if has_arith && hot {
                push(
                    out,
                    path,
                    toks[i].line,
                    "panic-path",
                    Severity::Error,
                    "arithmetic index in a hot module (panic path + bounds check per event)"
                        .to_string(),
                );
            }
        }
    }
}

/// Allocations on the per-event path of a hot module.
fn rule_hot_path_alloc(
    path: &str,
    toks: &[Token],
    live: &dyn Fn(usize) -> bool,
    out: &mut Vec<Diagnostic>,
) {
    if !is_hot_module(path) {
        return;
    }
    const ALLOC_METHODS: &[&str] = &["clone", "to_vec", "to_owned", "to_string"];
    for i in 0..toks.len() {
        if !live(i) {
            continue;
        }
        // `.clone()` / `.to_vec()` / ... — method-position allocators.
        if toks[i].is_punct('.') {
            if let Some(name) = toks.get(i + 1).and_then(Token::ident) {
                if ALLOC_METHODS.contains(&name)
                    && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
                    && toks.get(i + 3).is_some_and(|t| t.is_punct(')'))
                {
                    push(
                        out,
                        path,
                        toks[i + 1].line,
                        "hot-path-alloc",
                        Severity::Error,
                        format!("`.{name}()` allocates on the hot path"),
                    );
                }
            }
            continue;
        }
        let Some(name) = toks[i].ident() else {
            continue;
        };
        // `format!(...)` and `String::from(...)`.
        if name == "format" && toks.get(i + 1).is_some_and(|t| t.is_punct('!')) {
            push(
                out,
                path,
                toks[i].line,
                "hot-path-alloc",
                Severity::Error,
                "`format!` allocates on the hot path".to_string(),
            );
        }
        if name == "String"
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("from"))
        {
            push(
                out,
                path,
                toks[i].line,
                "hot-path-alloc",
                Severity::Error,
                "`String::from` allocates on the hot path".to_string(),
            );
        }
        // Non-empty `vec![...]` (an empty `vec![]` allocates nothing).
        if name == "vec"
            && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('['))
        {
            let close = matching(toks, i + 2);
            if close > i + 3 {
                push(
                    out,
                    path,
                    toks[i].line,
                    "hot-path-alloc",
                    Severity::Error,
                    "non-empty `vec![...]` allocates on the hot path".to_string(),
                );
            }
        }
    }
    // Unbounded growth: a local bound to `Vec::new()`/`vec![]` before a
    // loop, pushed into inside the loop — each event pays amortized
    // reallocation. Field pushes (`self.buf.push`) are long-lived storage
    // such as the engine's heap and stay exempt; so do locals pre-sized
    // with `with_capacity`.
    let unsized_locals = collect_unsized_vec_locals(toks);
    if unsized_locals.is_empty() {
        return;
    }
    for (lstart, lend) in loop_bodies(toks) {
        let mut j = lstart;
        while j < lend {
            if live(j)
                && toks[j].is_punct('.')
                && toks.get(j + 1).is_some_and(|t| t.is_ident("push"))
            {
                if let Some(recv) = j.checked_sub(1).and_then(|p| toks[p].ident()) {
                    let dotted_recv = j >= 2 && toks[j - 2].is_punct('.');
                    if !dotted_recv
                        && unsized_locals
                            .iter()
                            .any(|(n, bind)| n == recv && *bind < lstart)
                    {
                        push(
                            out,
                            path,
                            toks[j + 1].line,
                            "hot-path-alloc",
                            Severity::Error,
                            format!(
                                "unbounded `{recv}.push` in a loop (pre-size with with_capacity)"
                            ),
                        );
                    }
                }
            }
            j += 1;
        }
    }
}

/// Locals bound to an unsized Vec (`let [mut] x = Vec::new()` or
/// `= vec![]`), with the token index of the binding.
fn collect_unsized_vec_locals(toks: &[Token]) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("let") {
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
            j += 1;
        }
        let Some(name) = toks.get(j).and_then(Token::ident) else {
            continue;
        };
        if !toks.get(j + 1).is_some_and(|t| t.is_punct('=')) {
            continue;
        }
        let new_vec = toks.get(j + 2).is_some_and(|t| t.is_ident("Vec"))
            && toks.get(j + 5).is_some_and(|t| t.is_ident("new"));
        let empty_macro = toks.get(j + 2).is_some_and(|t| t.is_ident("vec"))
            && toks.get(j + 3).is_some_and(|t| t.is_punct('!'))
            && toks.get(j + 4).is_some_and(|t| t.is_punct('['))
            && toks.get(j + 5).is_some_and(|t| t.is_punct(']'));
        if new_vec || empty_macro {
            out.push((name.to_string(), i));
        }
    }
    out
}

/// Token spans (exclusive of braces) of every `for`/`while`/`loop` body.
fn loop_bodies(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let is_loop = toks[i]
            .ident()
            .is_some_and(|n| matches!(n, "for" | "while" | "loop"));
        if !is_loop {
            continue;
        }
        // The body is the next `{` before a `;` (a `;` means this `for` was
        // something else, e.g. an ident in a type position).
        let mut j = i + 1;
        while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
            j += 1;
        }
        if j < toks.len() && toks[j].is_punct('{') {
            out.push((j + 1, matching(toks, j).min(toks.len())));
        }
    }
    out
}

/// `Ordering::Relaxed` loads feeding control flow.
fn rule_atomics_ordering(
    path: &str,
    toks: &[Token],
    live: &dyn Fn(usize) -> bool,
    out: &mut Vec<Diagnostic>,
) {
    for i in 0..toks.len() {
        if !live(i) || !toks[i].is_punct('.') {
            continue;
        }
        if !toks.get(i + 1).is_some_and(|t| t.is_ident("load"))
            || !toks.get(i + 2).is_some_and(|t| t.is_punct('('))
        {
            continue;
        }
        let args = argument_span(toks, i + 2);
        if !args.iter().any(|t| t.is_ident("Relaxed")) {
            continue;
        }
        // Backward scan to the start of the statement: a control keyword
        // there means this load steers a branch.
        let mut back = i;
        let mut steers = false;
        while back > 0 {
            back -= 1;
            let t = &toks[back];
            if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
                break;
            }
            if t.ident()
                .is_some_and(|n| matches!(n, "if" | "while" | "match"))
            {
                steers = true;
                break;
            }
        }
        if steers {
            push(
                out,
                path,
                toks[i + 1].line,
                "atomics-ordering",
                Severity::Error,
                "`Ordering::Relaxed` load feeds a control decision".to_string(),
            );
        }
    }
}

fn rule_todo_markers(
    path: &str,
    toks: &[Token],
    live: &dyn Fn(usize) -> bool,
    severity: Severity,
    out: &mut Vec<Diagnostic>,
) {
    for i in 0..toks.len() {
        if !live(i) {
            continue;
        }
        if let Some(name) = toks[i].ident() {
            if (name == "todo" || name == "unimplemented")
                && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
            {
                push(
                    out,
                    path,
                    toks[i].line,
                    "todo-markers",
                    severity,
                    format!("`{name}!` in non-test code"),
                );
            }
        }
    }
}

/// Entropy sources plus collision-prone seed arithmetic.
fn rule_unseeded_rng(
    path: &str,
    toks: &[Token],
    live: &dyn Fn(usize) -> bool,
    severity: Severity,
    out: &mut Vec<Diagnostic>,
) {
    const ENTROPY: &[&str] = &[
        "thread_rng",
        "ThreadRng",
        "from_entropy",
        "OsRng",
        "getrandom",
    ];
    for i in 0..toks.len() {
        if !live(i) {
            continue;
        }
        let Some(name) = toks[i].ident() else {
            continue;
        };
        if ENTROPY.contains(&name) {
            push(
                out,
                path,
                toks[i].line,
                "unseeded-rng",
                severity,
                format!("`{name}` draws from process entropy"),
            );
            continue;
        }
        // `rand::random` — the thread-local entropy shortcut.
        if name == "rand"
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("random"))
        {
            push(
                out,
                path,
                toks[i].line,
                "unseeded-rng",
                severity,
                "`rand::random` draws from process entropy".to_string(),
            );
            continue;
        }
        // Seed arithmetic: `seed_from(base + i)` / `.seed(seed + users)`
        // aliases overlapping sweeps (seed 42 stream 7 == seed 43 stream 6).
        let is_seed_call = name == "seed_from"
            || name == "seed_from_u64"
            || (name == "seed" && i > 0 && toks[i - 1].is_punct('.'));
        if is_seed_call && toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            let args = argument_span(toks, i + 1);
            let has_arith = args.iter().any(|t| {
                t.is_punct('+') || t.is_ident("wrapping_add") || t.is_ident("checked_add")
            });
            let derived = args.iter().any(|t| t.is_ident("derive_seed"));
            if has_arith && !derived {
                push(
                    out,
                    path,
                    toks[i].line,
                    "unseeded-rng",
                    severity,
                    format!("`{name}(...)` builds a seed by addition; additive offsets collide"),
                );
            }
        }
    }
}

/// Tokens between an opening paren at `open` and its matching close paren
/// (exclusive on both ends).
fn argument_span(toks: &[Token], open: usize) -> &[Token] {
    let mut depth = 1i32;
    let mut j = open + 1;
    while j < toks.len() && depth > 0 {
        if toks[j].is_punct('(') {
            depth += 1;
        } else if toks[j].is_punct(')') {
            depth -= 1;
        }
        j += 1;
    }
    &toks[open + 1..j.saturating_sub(1).max(open + 1)]
}

/// Order-sensitive reductions over unordered sources.
fn rule_float_reduction(
    path: &str,
    toks: &[Token],
    live: &dyn Fn(usize) -> bool,
    severity: Severity,
    out: &mut Vec<Diagnostic>,
) {
    let hash_bindings = collect_hash_bindings(toks);
    let rx_bindings = collect_receiver_bindings(toks);
    if hash_bindings.is_empty() && rx_bindings.is_empty() {
        return;
    }

    for i in 0..toks.len() {
        if !live(i) {
            continue;
        }
        let Some(name) = toks[i].ident() else {
            continue;
        };
        let from_hash = hash_bindings.iter().any(|b| b == name);
        let from_rx = rx_bindings.iter().any(|b| b == name);
        if !from_hash && !from_rx {
            continue;
        }
        // `x.values().sum()` / `rx.iter().fold(...)`: an iterator chain off
        // the unordered source that ends in a reduction, within the same
        // statement.
        if toks.get(i + 1).is_some_and(|t| t.is_punct('.')) {
            let method = toks.get(i + 2).and_then(Token::ident);
            let unordered_iter = match method {
                Some("iter" | "into_iter") => true,
                Some("values" | "keys" | "drain" | "values_mut") => from_hash,
                Some("try_iter" | "recv") => from_rx,
                _ => false,
            };
            if unordered_iter {
                if let Some(line) = reduction_in_statement(toks, i + 2) {
                    push(
                        out,
                        path,
                        line,
                        "float-reduction",
                        severity,
                        format!(
                            "reduction over `{name}` ({}): arrival order is not stable",
                            if from_hash {
                                "hash container"
                            } else {
                                "channel receiver"
                            }
                        ),
                    );
                }
            }
        }
        // `for v in rx { total += v }` — accumulation inside a loop over the
        // unordered source.
        if i >= 1 && toks[i - 1].is_ident("in") {
            let mut back = i as i64 - 2;
            let mut is_for = false;
            while back >= 0 && (i as i64 - back) < 16 {
                if toks[back as usize].is_ident("for") {
                    is_for = true;
                    break;
                }
                if toks[back as usize].is_punct(';') || toks[back as usize].is_punct('{') {
                    break;
                }
                back -= 1;
            }
            if is_for {
                if let Some(line) = plus_assign_in_body(toks, i) {
                    push(
                        out,
                        path,
                        line,
                        "float-reduction",
                        severity,
                        format!("`+=` accumulation while iterating `{name}` in arrival order"),
                    );
                }
            }
        }
    }
}

/// Finds `.sum(` / `.fold(` / `.product(` between `start` and the end of
/// the current statement. Returns its line.
fn reduction_in_statement(toks: &[Token], start: usize) -> Option<u32> {
    let mut depth = 0i32;
    let mut j = start;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth < 0 {
                return None;
            }
        } else if (t.is_punct(';') || t.is_punct('{')) && depth == 0 {
            return None;
        } else if t.is_punct('.') {
            if let Some(m) = toks.get(j + 1).and_then(Token::ident) {
                if matches!(m, "sum" | "fold" | "product") {
                    return Some(toks[j + 1].line);
                }
            }
        }
        j += 1;
    }
    None
}

/// Finds a `+=` inside the `{...}` body following a for-loop header whose
/// `in`-expression contains the flagged source. `at` points into the header.
fn plus_assign_in_body(toks: &[Token], at: usize) -> Option<u32> {
    let mut j = at;
    while j < toks.len() && !toks[j].is_punct('{') {
        if toks[j].is_punct(';') {
            return None;
        }
        j += 1;
    }
    let mut depth = 1i32;
    j += 1;
    while j < toks.len() && depth > 0 {
        if toks[j].is_punct('{') {
            depth += 1;
        } else if toks[j].is_punct('}') {
            depth -= 1;
        } else if toks[j].is_punct('+') && toks.get(j + 1).is_some_and(|t| t.is_punct('=')) {
            return Some(toks[j].line);
        }
        j += 1;
    }
    None
}

/// Identifiers declared as hash containers in this file, via `name:
/// HashMap<...>` (fields, params, let-bindings) or `let name =
/// HashMap::new()`.
fn collect_hash_bindings(toks: &[Token]) -> Vec<String> {
    let mut bindings = Vec::new();
    let is_hash = |t: &Token| t.is_ident("HashMap") || t.is_ident("HashSet");
    for i in 0..toks.len() {
        let Some(name) = toks[i].ident() else {
            continue;
        };
        // `name : [std :: collections ::] HashMap < ... >` — scan a short
        // window after the colon, stopping at tokens that end the type
        // position.
        if toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && !toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        {
            for t in toks.iter().skip(i + 2).take(8) {
                if is_hash(t) {
                    bindings.push(name.to_string());
                    break;
                }
                if t.kind == TokKind::Punct(',')
                    || t.kind == TokKind::Punct(';')
                    || t.kind == TokKind::Punct(')')
                    || t.kind == TokKind::Punct('{')
                    || t.kind == TokKind::Punct('=')
                    || t.kind == TokKind::Punct('<')
                {
                    break;
                }
            }
        }
        // `let [mut] name = HashMap::new()` / `= HashSet::from(...)`.
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            let Some(bound) = toks.get(j).and_then(Token::ident) else {
                continue;
            };
            if toks.get(j + 1).is_some_and(|t| t.is_punct('=')) {
                for t in toks.iter().skip(j + 2).take(6) {
                    if is_hash(t) {
                        bindings.push(bound.to_string());
                        break;
                    }
                    if t.is_punct(';') || t.is_punct('(') {
                        break;
                    }
                }
            }
        }
    }
    bindings
}

/// Receiver halves of `let (tx, rx) = mpsc::channel(...)` bindings.
fn collect_receiver_bindings(toks: &[Token]) -> Vec<String> {
    let mut bindings = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("let") || !toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        let (Some(_), Some(comma), Some(rx), Some(close)) = (
            toks.get(i + 2).and_then(Token::ident),
            toks.get(i + 3),
            toks.get(i + 4).and_then(Token::ident),
            toks.get(i + 5),
        ) else {
            continue;
        };
        if !comma.is_punct(',') || !close.is_punct(')') {
            continue;
        }
        // Confirm a channel constructor before the statement ends.
        for t in toks.iter().skip(i + 6).take(14) {
            if t.is_ident("channel") || t.is_ident("sync_channel") {
                bindings.push(rx.to_string());
                break;
            }
            if t.is_punct(';') {
                break;
            }
        }
    }
    bindings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn strict(src: &str) -> FileOutcome {
        check_file("test.rs", "core", Scope::Strict, &lex(src))
    }

    fn rules_of(outcome: &FileOutcome) -> Vec<&'static str> {
        outcome.diagnostics.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn hash_iter_order_fires_and_respects_tests() {
        let out = strict("use std::collections::HashMap;\nfn f(m: &HashMap<u32,u32>) {}\n");
        assert_eq!(rules_of(&out), vec!["hash-iter-order", "hash-iter-order"]);
        assert_eq!(out.diagnostics[0].line, 1);
        assert_eq!(out.diagnostics[1].line, 2);

        let test_only = strict("#[cfg(test)]\nmod tests {\n  use std::collections::HashSet;\n}\n");
        assert!(test_only.diagnostics.is_empty());
    }

    #[test]
    fn wall_clock_fires_in_strict_only() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        assert_eq!(rules_of(&strict(src)), vec!["wall-clock"]);
        let relaxed = check_file("bench.rs", "bench", Scope::Relaxed, &lex(src));
        assert!(
            relaxed.diagnostics.is_empty(),
            "bench instrumentation is allowed"
        );
    }

    #[test]
    fn unseeded_rng_entropy_and_seed_arith() {
        assert_eq!(
            rules_of(&strict("fn f() { let r = rand::thread_rng(); }")),
            vec!["unseeded-rng"]
        );
        assert_eq!(
            rules_of(&strict(
                "fn f(base: u64, i: u64) { SimRng::seed_from(base + i); }"
            )),
            vec!["unseeded-rng"]
        );
        // derive_seed makes it clean, as does a plain passthrough.
        assert!(
            strict("fn f(b: u64, i: u64) { SimRng::seed_from(derive_seed(b, i)); }")
                .diagnostics
                .is_empty()
        );
        assert!(strict("fn f(seed: u64) { SimRng::seed_from(seed); }")
            .diagnostics
            .is_empty());
    }

    #[test]
    fn float_reduction_hash_chain_and_rx_loop() {
        let src = "fn f(m: &std::collections::HashMap<u32, f64>) -> f64 {\n\
                   m.values().sum()\n}\n";
        let out = strict(src);
        assert!(rules_of(&out).contains(&"float-reduction"));

        let rx = "fn f() -> f64 {\n\
                  let (tx, rx) = std::sync::mpsc::channel();\n\
                  let mut total = 0.0;\n\
                  for x in rx {\n    total += x;\n  }\n  total\n}\n";
        let out = strict(rx);
        assert_eq!(rules_of(&out), vec!["float-reduction"]);
        assert_eq!(out.diagnostics[0].line, 5);

        // Index-addressed reassembly is the blessed pattern: no finding.
        let ok = "fn f() {\n\
                  let (tx, rx) = std::sync::mpsc::channel();\n\
                  let mut slots = vec![0.0; 8];\n\
                  for (i, x) in rx {\n    slots[i] = x;\n  }\n}\n";
        assert!(strict(ok).diagnostics.is_empty());
    }

    #[test]
    fn unwrap_in_lib_and_empty_expect() {
        let out = strict("fn f(x: Option<u32>) -> u32 { x.unwrap() }");
        assert_eq!(rules_of(&out), vec!["panic-path"]);
        let out = strict("fn f(x: Option<u32>) -> u32 { x.expect(\"\") }");
        assert_eq!(rules_of(&out), vec!["panic-path"]);
        assert!(
            strict("fn f(x: Option<u32>) -> u32 { x.expect(\"always set\") }")
                .diagnostics
                .is_empty()
        );
        // unwrap_or and unwrap_or_else are fine.
        assert!(strict("fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }")
            .diagnostics
            .is_empty());
    }

    #[test]
    fn suppression_silences_and_is_recorded() {
        let src = "fn f() {\n\
                   // dcm-lint: allow(wall-clock) reason=\"host-side watchdog\"\n\
                   let t = Instant::now();\n}\n";
        let out = check_file("w.rs", "core", Scope::Strict, &lex(src));
        assert!(out.diagnostics.is_empty());
        assert_eq!(out.used_suppressions.len(), 1);
        assert_eq!(out.used_suppressions[0].rule, "wall-clock");
        assert_eq!(out.used_suppressions[0].reason, "host-side watchdog");
    }

    #[test]
    fn suppression_without_reason_fails() {
        let src = "// dcm-lint: allow(wall-clock)\nfn f() { let t = Instant::now(); }\n";
        let out = check_file("w.rs", "core", Scope::Strict, &lex(src));
        let rules = rules_of(&out);
        assert!(rules.contains(&"bad-suppression"));
        assert!(
            rules.contains(&"wall-clock"),
            "reasonless directive must not silence"
        );
    }

    #[test]
    fn suppression_unknown_rule_fails() {
        let src = "// dcm-lint: allow(no-such-rule) reason=\"typo\"\nfn f() {}\n";
        let out = check_file("w.rs", "core", Scope::Strict, &lex(src));
        assert_eq!(rules_of(&out), vec!["bad-suppression"]);
    }

    #[test]
    fn sim_critical_crates_reject_all_suppressions() {
        let src = "// dcm-lint: allow(todo-markers) reason=\"good reason\"\nfn f() {}\n";
        let out = check_file("s.rs", "sim", Scope::Strict, &lex(src));
        assert_eq!(rules_of(&out), vec!["forbidden-suppression"]);
        // Same directive is fine in core (strict but suppressible).
        let out = check_file("c.rs", "core", Scope::Strict, &lex(src));
        assert!(out.diagnostics.is_empty());
    }

    #[test]
    fn test_scope_only_checks_directive_hygiene() {
        let src = "fn t() { let x: Option<u32> = None; x.unwrap(); let i = Instant::now(); }\n\
                   // dcm-lint: nonsense\n";
        let out = check_file("t.rs", "core", Scope::Test, &lex(src));
        assert_eq!(rules_of(&out), vec!["bad-suppression"]);
    }

    fn hot(src: &str) -> FileOutcome {
        check_file("crates/sim/src/engine.rs", "sim", Scope::Strict, &lex(src))
    }

    #[test]
    fn panic_path_arith_index_only_in_hot_modules() {
        let src =
            "pub fn at(m: &[f64], i: usize, j: usize, cols: usize) -> f64 { m[i * cols + j] }";
        assert_eq!(rules_of(&hot(src)), vec!["panic-path"]);
        assert!(
            strict(src).diagnostics.is_empty(),
            "row-major indexing is legitimate outside hot modules"
        );
        // Slice-range arithmetic is flagged in every strict file...
        let slice = "pub fn w(b: &[u8], s: usize, n: usize) -> &[u8] { &b[s..s + n] }";
        assert_eq!(rules_of(&strict(slice)), vec!["panic-path"]);
        // ...while attribute/macro brackets and plain indexing never are.
        let ok = "#[derive(Clone)]\npub struct S;\npub fn f(v: &[u8], i: usize) -> u8 { v[i] }";
        assert!(strict(ok).diagnostics.is_empty());
    }

    #[test]
    fn hot_path_alloc_unbounded_push_leg() {
        let src = "pub fn drain(n: usize) -> Vec<u64> {\n\
                   let mut acc = Vec::new();\n\
                   for i in 0..n {\n    acc.push(step(i));\n  }\n  acc\n}";
        let out = hot(src);
        assert_eq!(rules_of(&out), vec!["hot-path-alloc"]);
        assert_eq!(out.diagnostics[0].line, 4);
        // Pre-sizing is the fix and lints clean; so does the same code
        // outside a hot module.
        let sized = src.replace("Vec::new()", "Vec::with_capacity(n)");
        assert!(hot(&sized).diagnostics.is_empty());
        assert!(strict(src).diagnostics.is_empty());
        // Field pushes (long-lived storage such as the engine's heap) stay
        // exempt.
        let field = "pub fn route(&mut self, idx: usize, ev: Event) {\n\
                     loop {\n    self.heap.push(ev);\n    break;\n  }\n}";
        assert!(hot(field).diagnostics.is_empty());
    }

    #[test]
    fn every_hot_module_exists() {
        // A renamed or deleted file would silently drop off the hot-path
        // rules, since they match paths exactly.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for path in HOT_MODULES {
            assert!(
                root.join(path).is_file(),
                "hot module {path} does not exist"
            );
        }
    }

    #[test]
    fn atomics_relaxed_counters_are_allowed() {
        // RMW counters and straight-line loads are fine; only a Relaxed
        // load steering a branch is flagged.
        let ok = "pub fn bump(c: &AtomicU64) -> u64 {\n\
                  c.fetch_add(1, Ordering::Relaxed);\n\
                  let snapshot = c.load(Ordering::Relaxed);\n  snapshot\n}";
        assert!(strict(ok).diagnostics.is_empty());
        let bad = "pub fn spin(c: &AtomicU64) {\n\
                   while c.load(Ordering::Relaxed) == 0 {}\n}";
        assert_eq!(rules_of(&strict(bad)), vec!["atomics-ordering"]);
        let acq = "pub fn spin(c: &AtomicU64) {\n\
                   while c.load(Ordering::Acquire) == 0 {}\n}";
        assert!(strict(acq).diagnostics.is_empty());
    }

    #[test]
    fn taint_reaches_queue_keys_and_results_writes() {
        // A tainted Ord key perturbs pop order.
        let queue = "pub fn enqueue(h: &mut std::collections::BinaryHeap<u64>) {\n\
                     let stamp = nanos(std::time::SystemTime::now());\n\
                     h.push(stamp);\n}";
        let out = check_file("b.rs", "bench", Scope::Relaxed, &lex(queue));
        assert_eq!(rules_of(&out), vec!["determinism-taint"]);
        assert_eq!(out.diagnostics[0].line, 3);
        // A tainted value written into a committed artifact is flagged...
        let artifact = "pub fn dump() {\n\
                        let t = std::time::Instant::now();\n\
                        let line = fmt(t);\n\
                        write_file(\"results/fig2a.json\", line);\n}";
        let out = check_file("b.rs", "bench", Scope::Relaxed, &lex(artifact));
        assert_eq!(rules_of(&out), vec!["determinism-taint"]);
        // ...but results/perf* is the sanctioned wall-clock telemetry.
        let perf = artifact.replace("results/fig2a.json", "results/perf.json");
        let out = check_file("b.rs", "bench", Scope::Relaxed, &lex(&perf));
        assert!(out.diagnostics.is_empty(), "got {:?}", out.diagnostics);
    }

    #[test]
    fn todo_markers_warn_in_relaxed() {
        let out = check_file("b.rs", "bench", Scope::Relaxed, &lex("fn f() { todo!() }"));
        assert_eq!(out.diagnostics.len(), 1);
        assert_eq!(out.diagnostics[0].severity, Severity::Warning);
    }
}
