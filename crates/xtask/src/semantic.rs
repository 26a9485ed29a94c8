//! The three call-graph-backed semantic rules.
//!
//! * **`unsafe-provenance`** — every pointer-bearing function (declared
//!   `unsafe fn`, or accepting/returning `*const`/`*mut`) must be
//!   defined in an audited module or carry a `# Safety`/`SAFETY:` audit
//!   trail, and every *call* that can reach a pointer-bearing function
//!   must come from an audited module or a caller whose body carries a
//!   `SAFETY:` trail. Resolution is aggressive (method calls included):
//!   over-approximating reachability is the safe direction here.
//! * **`lock-order`** — static lock-acquisition graph from `sync::lock`
//!   call sites. A guard's *hold region* is the rest of its enclosing
//!   block when the call is bound (`let g = sync::lock(…)` /
//!   `g = sync::wait(…)` reassignment) and the rest of its statement
//!   when it is a temporary. Acquisitions and calls inside a hold
//!   region become class→class edges (calls closed transitively over
//!   the conservative call graph); any cycle — self-edges included —
//!   is a finding. Direct `.lock()` method calls outside `sync.rs` are
//!   findings too: the analyzer can only see acquisitions that funnel
//!   through the audited helpers.
//! * **`float-determinism`** — `f32`/`f64` accumulation (`+=`-family
//!   on a float-typed place, float-seeded `.fold(`, `.sum()`/
//!   `.product()` with float evidence) inside iteration over
//!   `HashMap`/`HashSet` receivers, plus any float accumulation in a
//!   thread-merge `fn absorb`/`fn merge` outside `Stats::absorb`, in
//!   `crates/core` and `crates/ladder` non-test code.
//!
//! Known approximations (deliberate, documented): name-based call
//! resolution over-approximates provenance reachability; the
//! conservative policy under-approximates lock closure behind
//! non-`self` method calls; hash-typed idents are tracked per file,
//! not through function boundaries. The allowlist absorbs the
//! residue, and stale-allowlist detection retires entries the moment
//! the residue disappears.

use std::collections::{BTreeMap, BTreeSet};

use crate::graph::{CallGraph, Resolve};
use crate::lex::TokKind;
use crate::tree::{FileTokens, NONE};
use crate::Finding;

/// Modules audited end-to-end for raw-pointer discipline; pointer-bearing
/// functions may live here (and be called from here) without a per-item
/// audit trail.
const AUDITED_MODULES: [&str; 3] = [
    "crates/core/src/table.rs",
    "crates/core/src/check.rs",
    "crates/service/src/net/sys.rs",
];

fn is_audited(rel: &str) -> bool {
    AUDITED_MODULES.iter().any(|m| rel.ends_with(m))
}

/// Graph/workspace statistics surfaced by `cargo xtask analyze`.
#[derive(Debug, Default)]
pub struct Summary {
    /// Files parsed into the token-tree layer.
    pub files: usize,
    /// Functions extracted.
    pub fns: usize,
    /// `impl` blocks extracted.
    pub impls: usize,
    /// `struct` items extracted.
    pub structs: usize,
    /// `use` leaves extracted.
    pub uses: usize,
    /// Call sites recorded.
    pub calls: usize,
    /// Pointer-bearing functions (unsafe or raw-pointer signature).
    pub pointer_fns: usize,
    /// Lock classes seen at `sync::lock` acquisition sites.
    pub lock_classes: Vec<String>,
    /// Nested-acquisition edges (held class → acquired class).
    pub lock_edges: Vec<(String, String)>,
    /// `sync::wait`/`wait_timeout` sites (guard handoffs, not
    /// acquisitions — counted to show the rule saw them).
    pub wait_sites: usize,
}

fn finding(rule: &'static str, f: &FileTokens, line: usize, message: String) -> Finding {
    Finding {
        rule,
        file: f.rel.clone(),
        line,
        message,
        source_line: f.raw_lines.get(line.saturating_sub(1)).cloned().unwrap_or_default(),
    }
}

/// Run all three semantic rules over a parsed workspace.
pub fn analyze(files: &[FileTokens]) -> (Vec<Finding>, Summary) {
    let graph = CallGraph::build(files);
    let mut findings = Vec::new();
    let mut summary = Summary {
        files: files.len(),
        fns: graph.fns.len(),
        impls: graph.items.iter().map(|i| i.impls).sum(),
        structs: graph.items.iter().map(|i| i.structs.len()).sum(),
        uses: graph.items.iter().map(|i| i.uses.len()).sum(),
        calls: graph.call_count(),
        ..Summary::default()
    };
    rule_unsafe_provenance(&graph, &mut findings, &mut summary);
    rule_lock_order(&graph, &mut findings, &mut summary);
    rule_float_determinism(files, &mut findings);
    findings.sort_by(|a, b| (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message)));
    findings.dedup();
    (findings, summary)
}

// ---------------------------------------------------------------------------
// Rule: unsafe-provenance
// ---------------------------------------------------------------------------

/// Does the function's item line carry a `# Safety`/`SAFETY:` annotation?
fn item_annotated(f: &FileTokens, line: usize) -> bool {
    let refs: Vec<&str> = f.raw_lines.iter().map(String::as_str).collect();
    crate::has_annotation(&refs, line.saturating_sub(1), &["# Safety", "SAFETY:"])
}

/// Does the caller's body (or its item doc) carry a `SAFETY:` trail?
fn caller_covered(f: &FileTokens, item: &crate::tree::FnItem) -> bool {
    if item_annotated(f, item.line) {
        return true;
    }
    let Some((_, close)) = item.body else { return false };
    let end_line = f.toks[close].line;
    f.raw_lines[item.line.saturating_sub(1)..end_line.min(f.raw_lines.len())]
        .iter()
        .any(|l| l.contains("SAFETY:"))
}

fn rule_unsafe_provenance(graph: &CallGraph, findings: &mut Vec<Finding>, summary: &mut Summary) {
    let mut ptr_ids: BTreeSet<usize> = BTreeSet::new();
    for id in 0..graph.fns.len() {
        let it = graph.item(id);
        if (it.is_unsafe || it.raw_ptr_sig) && !it.is_test {
            ptr_ids.insert(id);
        }
    }
    summary.pointer_fns = ptr_ids.len();
    // Declaration side: pointer-bearing functions need an audited home
    // or an audit trail.
    for &id in &ptr_ids {
        let file = &graph.files[graph.fns[id].file];
        let it = graph.item(id);
        if !is_audited(&file.rel) && !item_annotated(file, it.line) {
            let kind = if it.is_unsafe { "`unsafe fn`" } else { "raw-pointer signature" };
            findings.push(finding(
                "unsafe-provenance",
                file,
                it.line,
                format!(
                    "{kind} `{}` outside the audited modules ({}) without a `# Safety` doc \
                     section or `// SAFETY:` comment",
                    it.qual,
                    AUDITED_MODULES.join(", ")
                ),
            ));
        }
    }
    // Call side: reaching a pointer-bearing function from unaudited,
    // untrailed code means a raw pointer can escape its audit scope.
    let mut seen: BTreeSet<(usize, String)> = BTreeSet::new();
    for caller in 0..graph.fns.len() {
        let file = &graph.files[graph.fns[caller].file];
        let it = graph.item(caller);
        if it.is_test || is_audited(&file.rel) {
            continue;
        }
        for site in &graph.calls[caller] {
            let targets = graph.resolve(caller, site, Resolve::Aggressive);
            let Some(&hit) = targets.iter().find(|t| ptr_ids.contains(t)) else {
                continue;
            };
            if caller_covered(file, it) || !seen.insert((caller, site.name.clone())) {
                continue;
            }
            findings.push(finding(
                "unsafe-provenance",
                file,
                site.line,
                format!(
                    "call to pointer-bearing `{}` from `{}` — the caller is outside the \
                     audited modules and carries no `SAFETY:` trail, so the raw pointer \
                     escapes its audit scope",
                    graph.item(hit).qual,
                    it.qual
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: lock-order
// ---------------------------------------------------------------------------

/// Is this file inside the lock rule's scope (the service crate, minus
/// the audited lock-helper module itself)?
fn lock_scope(rel: &str) -> bool {
    rel.contains("crates/service/src/") && !rel.ends_with("/sync.rs")
}

fn file_stem(rel: &str) -> &str {
    rel.rsplit('/').next().unwrap_or(rel)
}

/// Lock class of an acquisition site: the last depth-0 identifier of the
/// argument expression (`&shard.jobs` → `jobs`, `self.shard(key)` →
/// `shard`), qualified by the defining file.
fn lock_class(f: &FileTokens, site_tok: usize) -> String {
    let open = site_tok + 1;
    let close = f.partner.get(open).copied().unwrap_or(NONE);
    let mut last: Option<&str> = None;
    if close != NONE {
        let mut j = open + 1;
        while j < close {
            match f.toks[j].text.as_str() {
                "(" | "[" if f.partner[j] != NONE => j = f.partner[j],
                "self" | "mut" => {}
                _ if f.toks[j].kind == TokKind::Ident => last = Some(&f.toks[j].text),
                _ => {}
            }
            j += 1;
        }
    }
    format!("{}/{}", file_stem(&f.rel), last.unwrap_or("anon"))
}

/// Token range `[start, end)` during which the guard returned by the
/// acquisition at `site_tok` is held. Bound guards (`let g = …`, `g = …`
/// reassignment) live to the end of the enclosing block; temporaries
/// live to the end of their statement. Bound means the call result is
/// the *whole* right-hand side — `=` directly to the left, closing `)`
/// directly followed by `;`; in `let n = sync::lock(&x).len();` the
/// binding captures `n`, and the guard itself is a temporary. The
/// backward scan stops at argument positions (`(`, `[`, `,`): a lock
/// expression passed as an argument is a temporary regardless of any
/// `=` further left.
fn hold_region(f: &FileTokens, site_tok: usize) -> (usize, usize) {
    let open = site_tok + 1;
    let close = f.partner.get(open).copied().unwrap_or(NONE);
    let start = if close == NONE { site_tok + 1 } else { close + 1 };
    let whole_rhs = close != NONE && f.toks.get(close + 1).is_some_and(|t| t.is(";"));
    let mut bound = false;
    let mut j = site_tok;
    while whole_rhs && j > 0 {
        j -= 1;
        match f.toks[j].text.as_str() {
            ";" | "{" | "}" | "(" | "[" | "," => break,
            "=" => {
                bound = true;
                break;
            }
            _ => {}
        }
    }
    let end = if bound {
        match f.brace_close.get(site_tok).copied().unwrap_or(NONE) {
            NONE => f.toks.len(),
            bc => bc,
        }
    } else {
        f.stmt_end(start)
    };
    (start, end.max(start))
}

struct LockSite {
    tok: usize,
    line: usize,
    class: String,
}

fn rule_lock_order(graph: &CallGraph, findings: &mut Vec<Finding>, summary: &mut Summary) {
    // Acquisition sites and `.lock()` misuse, per function.
    let mut sites: BTreeMap<usize, Vec<LockSite>> = BTreeMap::new();
    for id in 0..graph.fns.len() {
        let file = &graph.files[graph.fns[id].file];
        if !lock_scope(&file.rel) || graph.item(id).is_test {
            continue;
        }
        for site in &graph.calls[id] {
            match (site.method, site.name.as_str()) {
                (false, "lock") => {
                    sites.entry(id).or_default().push(LockSite {
                        tok: site.tok,
                        line: site.line,
                        class: lock_class(file, site.tok),
                    });
                }
                (false, "wait" | "wait_timeout") => summary.wait_sites += 1,
                (true, "lock") => findings.push(finding(
                    "lock-order",
                    file,
                    site.line,
                    "direct `.lock()` call — route acquisitions through `sync::lock` so the \
                     static lock-order analysis can see them"
                        .to_string(),
                )),
                _ => {}
            }
        }
    }
    // Transitive lock classes each function acquires, closed over the
    // conservative call graph.
    let seed: BTreeMap<usize, BTreeSet<String>> = sites
        .iter()
        .map(|(&id, v)| (id, v.iter().map(|s| s.class.clone()).collect()))
        .collect();
    let closed = graph.close_over_calls(&seed, Resolve::Conservative);
    summary.lock_classes = seed
        .values()
        .flat_map(|v| v.iter().cloned())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    // Edges: within each hold region, direct re-acquisitions and calls
    // that transitively acquire.
    let mut adj: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut prov: BTreeMap<(String, String), (String, usize)> = BTreeMap::new();
    for (&id, fn_sites) in &sites {
        let file = &graph.files[graph.fns[id].file];
        for a in fn_sites {
            let (start, end) = hold_region(file, a.tok);
            let mut edge = |to: &str, line: usize| {
                adj.entry(a.class.clone()).or_default().insert(to.to_string());
                prov.entry((a.class.clone(), to.to_string()))
                    .or_insert_with(|| (file.rel.clone(), line));
            };
            for b in fn_sites {
                if b.tok > start && b.tok < end {
                    edge(&b.class, b.line);
                }
            }
            for call in &graph.calls[id] {
                if call.tok <= start || call.tok >= end || call.name == "lock" {
                    continue;
                }
                for target in graph.resolve(id, call, Resolve::Conservative) {
                    if let Some(classes) = closed.get(&target) {
                        for c in classes {
                            edge(c, call.line);
                        }
                    }
                }
            }
        }
    }
    summary.lock_edges = adj
        .iter()
        .flat_map(|(from, tos)| tos.iter().map(move |to| (from.clone(), to.clone())))
        .collect();
    // Any cycle in the class graph is an acquisition order that can
    // deadlock (self-edges are re-entrant double-locks).
    for cycle in find_cycles(&adj) {
        let to = cycle.get(1).unwrap_or(&cycle[0]);
        let (rel, line) = prov
            .get(&(cycle[0].clone(), to.clone()))
            .cloned()
            .unwrap_or_else(|| (String::from("?"), 1));
        let file = graph.files.iter().find(|f| f.rel == rel);
        let mut path = cycle.clone();
        path.push(cycle[0].clone());
        let msg = format!(
            "lock-order cycle: {} — nested acquisitions must follow one global order \
             (edges from `sync::lock` hold regions closed over the call graph)",
            path.join(" -> ")
        );
        match file {
            Some(f) => findings.push(finding("lock-order", f, line, msg)),
            None => findings.push(Finding {
                rule: "lock-order",
                file: rel,
                line,
                message: msg,
                source_line: String::new(),
            }),
        }
    }
}

/// Elementary cycles reachable by DFS, normalized (rotated so the
/// lexicographically smallest class leads) and deduplicated.
fn find_cycles(adj: &BTreeMap<String, BTreeSet<String>>) -> Vec<Vec<String>> {
    let mut cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    let mut color: BTreeMap<&str, u8> = BTreeMap::new(); // 0 white, 1 gray, 2 black
    let mut stack: Vec<&str> = Vec::new();

    fn dfs<'a>(
        node: &'a str,
        adj: &'a BTreeMap<String, BTreeSet<String>>,
        color: &mut BTreeMap<&'a str, u8>,
        stack: &mut Vec<&'a str>,
        cycles: &mut BTreeSet<Vec<String>>,
    ) {
        color.insert(node, 1);
        stack.push(node);
        for next in adj.get(node).into_iter().flatten() {
            match color.get(next.as_str()).copied().unwrap_or(0) {
                0 => dfs(next, adj, color, stack, cycles),
                1 => {
                    let from = stack.iter().position(|&n| n == next).unwrap_or(0);
                    let mut cycle: Vec<String> =
                        stack[from..].iter().map(|s| s.to_string()).collect();
                    let min = cycle
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, c)| (*c).clone())
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    cycle.rotate_left(min);
                    cycles.insert(cycle);
                }
                _ => {}
            }
        }
        stack.pop();
        color.insert(node, 2);
    }

    for node in adj.keys() {
        if color.get(node.as_str()).copied().unwrap_or(0) == 0 {
            dfs(node, adj, &mut color, &mut stack, &mut cycles);
        }
    }
    cycles.into_iter().collect()
}

// ---------------------------------------------------------------------------
// Rule: float-determinism
// ---------------------------------------------------------------------------

fn float_scope(rel: &str) -> bool {
    rel.contains("crates/core/src/") || rel.contains("crates/ladder/src/")
}

const ITER_METHODS: [&str; 9] = [
    "iter", "iter_mut", "values", "values_mut", "keys", "drain", "into_iter", "into_values",
    "into_keys",
];

const ACCUM_OPS: [&str; 4] = ["+=", "-=", "*=", "/="];

/// Idents declared (or typed) as `HashMap`/`HashSet` in this file.
fn hash_idents(f: &FileTokens) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for j in 0..f.toks.len() {
        if !(f.toks[j].is("HashMap") || f.toks[j].is("HashSet")) {
            continue;
        }
        let mut k = j;
        loop {
            if k >= 2 && f.toks[k - 1].is("::") && f.toks[k - 2].kind == TokKind::Ident {
                k -= 2;
            } else if k >= 1 && (f.toks[k - 1].is("&") || f.toks[k - 1].is("mut")) {
                k -= 1;
            } else {
                break;
            }
        }
        if k >= 2
            && (f.toks[k - 1].is(":") || f.toks[k - 1].is("="))
            && f.toks[k - 2].kind == TokKind::Ident
        {
            out.insert(f.toks[k - 2].text.clone());
        }
    }
    out
}

fn is_float_num(t: &crate::lex::Tok) -> bool {
    t.kind == TokKind::Num
        && (t.text.contains('.') || t.text.ends_with("f32") || t.text.ends_with("f64"))
}

/// Idents with float-typed declarations or float-literal initializers.
fn float_idents(f: &FileTokens) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for j in 0..f.toks.len() {
        if f.toks[j].is("f32") || f.toks[j].is("f64") {
            let mut k = j;
            while k >= 1 && (f.toks[k - 1].is("&") || f.toks[k - 1].is("mut")) {
                k -= 1;
            }
            if k >= 2 && f.toks[k - 1].is(":") && f.toks[k - 2].kind == TokKind::Ident {
                out.insert(f.toks[k - 2].text.clone());
            }
        }
        if f.toks[j].is("let") {
            let mut k = j + 1;
            if f.toks.get(k).is_some_and(|t| t.is("mut")) {
                k += 1;
            }
            if f.toks.get(k).is_some_and(|t| t.kind == TokKind::Ident)
                && f.toks.get(k + 1).is_some_and(|t| t.is("="))
                && f.toks.get(k + 2).is_some_and(is_float_num)
            {
                out.insert(f.toks[k].text.clone());
            }
        }
    }
    out
}

/// Is the place on the left of the accumulation op at `op_tok` rooted in
/// (or reaching through) a float-typed ident?
fn float_lhs(f: &FileTokens, op_tok: usize, floats: &BTreeSet<String>) -> bool {
    let mut k = op_tok;
    while k > 0 {
        k -= 1;
        match f.toks[k].text.as_str() {
            ")" | "]" if f.partner[k] != NONE => k = f.partner[k],
            "." | "self" | "*" => {}
            _ if f.toks[k].kind == TokKind::Ident => {
                if floats.contains(&f.toks[k].text) {
                    return true;
                }
                if k == 0 || !f.toks[k - 1].is(".") {
                    return false;
                }
            }
            _ => return false,
        }
    }
    false
}

/// Scan a token region for float accumulation; returns finding lines
/// with a short description of what fired.
fn float_accumulation(
    f: &FileTokens,
    range: (usize, usize),
    floats: &BTreeSet<String>,
) -> Vec<(usize, usize, &'static str)> {
    let mut out = Vec::new();
    let region_has_float_type =
        (range.0..range.1.min(f.toks.len())).any(|j| f.toks[j].is("f32") || f.toks[j].is("f64"));
    for j in range.0..range.1.min(f.toks.len()) {
        let t = &f.toks[j];
        if ACCUM_OPS.contains(&t.text.as_str()) && float_lhs(f, j, floats) {
            out.push((j, t.line, "float compound assignment"));
        }
        if t.is(".") {
            let name = f.toks.get(j + 1).map(|n| n.text.as_str());
            match name {
                Some("sum" | "product") if region_has_float_type => {
                    out.push((j, f.toks[j + 1].line, "float reduction"));
                }
                Some("fold")
                    if f.toks.get(j + 2).is_some_and(|n| n.is("("))
                        && f.toks.get(j + 3).is_some_and(is_float_num) =>
                {
                    out.push((j, f.toks[j + 1].line, "float-seeded fold"));
                }
                _ => {}
            }
        }
    }
    out
}

fn rule_float_determinism(files: &[FileTokens], findings: &mut Vec<Finding>) {
    for f in files {
        if !float_scope(&f.rel) {
            continue;
        }
        let hashes = hash_idents(f);
        let floats = float_idents(f);
        let mut flagged: BTreeSet<usize> = BTreeSet::new();
        // Iteration regions rooted at a hash-typed receiver.
        let mut regions: Vec<(usize, usize)> = Vec::new();
        for j in 0..f.toks.len() {
            let t = &f.toks[j];
            if t.kind == TokKind::Ident
                && hashes.contains(&t.text)
                && f.toks.get(j + 1).is_some_and(|n| n.is("."))
                && f.toks.get(j + 2).is_some_and(|n| ITER_METHODS.contains(&n.text.as_str()))
            {
                regions.push((j, f.stmt_end(j)));
            }
            if t.is("for") {
                // `for PAT in EXPR { BODY }` with a hash root in EXPR.
                let mut depth = 0i64;
                let mut in_tok = NONE;
                let mut body = NONE;
                for k in j + 1..f.toks.len() {
                    match f.toks[k].text.as_str() {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "in" if depth == 0 && in_tok == NONE => in_tok = k,
                        "{" if depth == 0 => {
                            body = k;
                            break;
                        }
                        ";" if depth == 0 => break,
                        _ => {}
                    }
                }
                if in_tok != NONE && body != NONE && f.partner[body] != NONE {
                    let expr_has_hash = (in_tok + 1..body).any(|k| {
                        f.toks[k].kind == TokKind::Ident
                            && (hashes.contains(&f.toks[k].text)
                                || f.toks[k].is("HashMap")
                                || f.toks[k].is("HashSet"))
                    });
                    if expr_has_hash {
                        regions.push((body + 1, f.partner[body]));
                    }
                }
            }
        }
        for region in regions {
            for (tok, line, what) in float_accumulation(f, region, &floats) {
                if f.is_test_line(line) || !flagged.insert(tok) {
                    continue;
                }
                findings.push(finding(
                    "float-determinism",
                    f,
                    line,
                    format!(
                        "{what} inside `HashMap`/`HashSet` iteration — hash order is \
                         nondeterministic, and one order-dependent float reduction voids the \
                         bit-identity contract; iterate a sorted view or restructure the \
                         reduction"
                    ),
                ));
            }
        }
        // Thread-merge functions outside the audited Stats::absorb.
        if f.rel.ends_with("crates/core/src/stats.rs") {
            continue;
        }
        for item in crate::tree::extract_items(f).fns {
            if item.is_test || !(item.name == "absorb" || item.name == "merge") {
                continue;
            }
            let Some((open, close)) = item.body else { continue };
            for (tok, line, what) in float_accumulation(f, (open + 1, close), &floats) {
                if !flagged.insert(tok) {
                    continue;
                }
                findings.push(finding(
                    "float-determinism",
                    f,
                    line,
                    format!(
                        "{what} in thread-merge `fn {}` outside `Stats::absorb` — worker \
                         merge order is nondeterministic; fold through `Stats::absorb` or \
                         make the reduction order-independent",
                        item.name
                    ),
                ));
            }
        }
    }
}
